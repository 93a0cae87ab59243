//! The paper's headline claims, checked one by one.
//!
//! These are the "shape" assertions of EXPERIMENTS.md in executable form —
//! scaled-down versions of each table's qualitative content, so the suite
//! stays fast while still guarding every reproduced result.

use damq::buffers::BufferKind;
use damq::markov::discard_probability;
use damq::microarch::{Chip, ChipConfig, ChipEvent, Phase, RouteEntry};

fn table2(kind: BufferKind, cap: usize, traffic: f64) -> f64 {
    discard_probability(kind, cap, traffic)
        .unwrap()
        .discard_probability
}

#[test]
fn claim_damq_with_3_slots_discards_no_more_than_fifo_with_6() {
    // Paper §4.1: "the DAMQ switch with space for three packets at each of
    // its input ports discards as few or fewer packets than the FIFO switch
    // with space for six, for all levels of traffic."
    // The paper prints anything below 5e-4 as "0+"; compare at that
    // resolution (at 25% traffic both probabilities are ~1e-9 noise).
    for traffic in [0.25, 0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99] {
        let damq3 = table2(BufferKind::Damq, 3, traffic).max(5e-4);
        let fifo6 = table2(BufferKind::Fifo, 6, traffic).max(5e-4);
        assert!(
            damq3 <= fifo6 + 1e-9,
            "traffic {traffic}: DAMQ(3)={damq3} FIFO(6)={fifo6}"
        );
    }
}

#[test]
fn claim_samq_nearly_matches_safc_below_80_percent() {
    // Paper §4.1: "up to eighty percent traffic, the SAMQ switch performs
    // almost as well as the SAFC" — full connectivity buys little.
    for traffic in [0.25, 0.5, 0.75, 0.8] {
        let samq = table2(BufferKind::Samq, 4, traffic);
        let safc = table2(BufferKind::Safc, 4, traffic);
        assert!(
            samq - safc < 0.02,
            "traffic {traffic}: SAMQ={samq} SAFC={safc}"
        );
    }
}

#[test]
fn claim_fifo_beats_static_designs_at_light_traffic_two_slots() {
    // Paper §4.1: "at low levels of traffic with only two slots per buffer,
    // the FIFO switch performed better than the SAMQ and the SAFC" because
    // its pooled storage behaves as if it were larger.
    for traffic in [0.25, 0.5] {
        let fifo = table2(BufferKind::Fifo, 2, traffic);
        let samq = table2(BufferKind::Samq, 2, traffic);
        let safc = table2(BufferKind::Safc, 2, traffic);
        assert!(fifo < samq, "traffic {traffic}");
        assert!(fifo < safc, "traffic {traffic}");
    }
}

#[test]
fn claim_fifo_discard_saturates_in_buffer_size() {
    // Paper Table 2: beyond ~85% traffic, giving a FIFO more slots barely
    // helps (0.242 at 99% for every size) — head-of-line blocking, not
    // storage, is the bottleneck.
    let at_99: Vec<f64> = (2..=6)
        .map(|cap| table2(BufferKind::Fifo, cap, 0.99))
        .collect();
    let spread = at_99.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - at_99.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 0.005, "FIFO@99% sizes 2-6: {at_99:?}");
    // While DAMQ keeps improving with size.
    let damq2 = table2(BufferKind::Damq, 2, 0.99);
    let damq6 = table2(BufferKind::Damq, 6, 0.99);
    assert!(damq6 < damq2 / 3.0, "DAMQ@99%: {damq2} -> {damq6}");
}

#[test]
fn claim_damq_dominates_at_every_table2_point() {
    // "the switch with DAMQ buffers performs better than any of the other
    // switches at any level of traffic" (same storage).
    for cap in [2usize, 4, 6] {
        for traffic in [0.25, 0.5, 0.75, 0.9, 0.99] {
            // Clamp to the paper's "0+" threshold: below it, differences
            // are numerical noise.
            let damq = table2(BufferKind::Damq, cap, traffic).max(5e-4);
            for other in [BufferKind::Fifo, BufferKind::Samq, BufferKind::Safc] {
                let o = table2(other, cap, traffic).max(5e-4);
                assert!(
                    damq <= o + 1e-9,
                    "cap {cap} traffic {traffic}: DAMQ={damq} {other}={o}"
                );
            }
        }
    }
}

#[test]
fn claim_virtual_cut_through_takes_four_cycles_regardless_of_length() {
    // Paper §3.2.2 / Table 1: the turn-around is four cycles and does not
    // depend on the packet's length.
    for len in [1usize, 8, 17, 32] {
        let mut chip = Chip::new(ChipConfig::comcobb());
        chip.program_route(
            1,
            0x05,
            RouteEntry {
                output: 3,
                new_header: 0x06,
            },
        )
        .unwrap();
        let data = vec![0x5A; len];
        chip.input_wire_mut(1).drive_packet(0, 0x05, &data);
        chip.run_to_quiescence(200);
        let start_out = chip
            .trace()
            .first(|e| matches!(e.event, ChipEvent::StartBitSent))
            .expect("packet forwarded");
        assert_eq!(
            (start_out.cycle, start_out.phase),
            (4, Phase::Zero),
            "length {len}"
        );
        assert_eq!(chip.output_log(3).packets()[0].2, data);
    }
}

#[test]
fn claim_one_byte_per_cycle_at_full_rate() {
    // Paper §5: the buffer supports "packet transmission and reception at
    // the rate of one byte per clock cycle" — the forwarded packet's bytes
    // occupy consecutive cycles with no stalls.
    let mut chip = Chip::new(ChipConfig::comcobb());
    chip.program_route(
        0,
        0x01,
        RouteEntry {
            output: 1,
            new_header: 0x02,
        },
    )
    .unwrap();
    chip.input_wire_mut(0).drive_packet(0, 0x01, &[7; 32]);
    chip.run_to_quiescence(100);
    let events = chip.output_log(1).events();
    // start + header + length + 32 data bytes on 35 consecutive cycles.
    assert_eq!(events.len(), 35);
    for pair in events.windows(2) {
        assert_eq!(pair[1].0, pair[0].0 + 1, "gap in the byte stream");
    }
}
