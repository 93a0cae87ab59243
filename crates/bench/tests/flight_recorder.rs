//! Flight-recorder integration: a violating chaos soak's dump ends with
//! the tail of the event stream the simulation recorded into its ring,
//! up to the violation.

mod common;

use damq_bench::json::Json;
use damq_telemetry::Event;

use common::{mutated_dump, temp_dir, RING_CAPACITY};

#[test]
fn a_violation_dump_ends_with_the_rings_event_tail() {
    let dir = temp_dir("flight_recorder_test");
    let (outcome, violation, path) = mutated_dump(&dir);
    let text = std::fs::read_to_string(&path).expect("dump readable");
    let (meta, tail) = text.split_once('\n').expect("meta line, then the tail");
    let meta = Json::parse(meta).expect("meta parses");

    let seen = meta.get("seen").and_then(Json::as_u64).expect("seen");
    let retained = meta
        .get("retained")
        .and_then(Json::as_u64)
        .expect("retained");
    assert_eq!(seen, outcome.recorder.seen());
    assert!(seen > 0, "the soak recorded events");
    assert_eq!(retained, seen.min(RING_CAPACITY as u64));

    let events: Vec<Event> = tail
        .lines()
        .map(|line| Event::parse_jsonl(line).expect("event line parses"))
        .collect();
    assert_eq!(events.len() as u64, retained);
    let last = events.last().expect("nonempty tail").cycle;
    assert!(
        last <= violation.cycle,
        "tail cycle {last} after the violation at {}",
        violation.cycle
    );
    let _ = std::fs::remove_dir_all(&dir);
}
