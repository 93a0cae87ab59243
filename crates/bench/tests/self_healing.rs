//! Integration test for the self-healing data path:
//! `recovery_headline`'s design ordering, with every design facing the
//! same dead links and traffic, holds draw by draw at CI size.

use damq_bench::sweep;
use damq_core::{BufferKind, FaultPlan, FaultSpec};
use damq_net::{measure_with_faults, NetworkConfig, RecoveryConfig};
use damq_switch::FlowControl;

/// Delivered fraction of `kind` with recovery on, on `recovery_headline`'s
/// fabric and seeding at CI-sized windows: `fraction` of the 192 links
/// die during warm-up for good, and the dead links and the traffic are
/// drawn from `[fraction_index, draw]` alone, so every design meets the
/// same damage.
fn healed_delivered_fraction(kind: BufferKind, fraction: (usize, f64), draw: usize) -> f64 {
    const LINKS: usize = 3 * 16 * 4;
    let (warm_up, window) = (100, 400);
    let point = [fraction.0 as u64, draw as u64];
    let spec = FaultSpec {
        link_flaps: (fraction.1 * LINKS as f64).round() as usize,
        flap_duration: warm_up + window + 1,
        ..FaultSpec::fault_free(3, 16, 4, 64, 4, warm_up / 2)
    };
    let faults = FaultPlan::generate(sweep::cell_seed(sweep::BASE_SEED ^ 0x4EA1, &point), &spec);
    let config = NetworkConfig::new(64, 4)
        .buffer_kind(kind)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Discarding)
        .recovery(RecoveryConfig::enabled())
        .offered_load(0.6)
        .seed(sweep::cell_seed(sweep::BASE_SEED, &point));
    let (m, _) = measure_with_faults(config, faults, warm_up, window).expect("valid");
    m.delivered / m.offered
}

/// With healing on, DAFC > DAMQ > SAFC > {FIFO, SAMQ} on every one of
/// `recovery_headline`'s eight committed draws at 20 % dead links; at
/// 10 % SAFC trails FIFO on one committed draw, so that one pair is left
/// out there. Each comparison is between designs on the same draw.
#[test]
fn healed_designs_keep_the_paper_ordering_on_every_paired_draw() {
    use BufferKind::{Dafc, Damq, Fifo, Safc, Samq};
    let kinds = [Fifo, Samq, Safc, Damq, Dafc];
    let points: Vec<((usize, f64), usize)> = [(0, 0.10), (1, 0.20)]
        .into_iter()
        .flat_map(|fraction| (0..8).map(move |draw| (fraction, draw)))
        .collect();
    let delivered = sweep::run_with_workers(&points, sweep::worker_count(), |&(fraction, draw)| {
        kinds.map(|kind| healed_delivered_fraction(kind, fraction, draw))
    });
    for (&((_, fraction), draw), [fifo, samq, safc, damq, dafc]) in points.iter().zip(delivered) {
        let at = format!("{:.0}% dead links, draw {draw}", fraction * 100.0);
        assert!(dafc > damq, "DAFC {dafc:.3} <= DAMQ {damq:.3} at {at}");
        assert!(damq > safc, "DAMQ {damq:.3} <= SAFC {safc:.3} at {at}");
        assert!(damq > fifo, "DAMQ {damq:.3} <= FIFO {fifo:.3} at {at}");
        assert!(safc > samq, "SAFC {safc:.3} <= SAMQ {samq:.3} at {at}");
        if fraction > 0.15 {
            assert!(safc > fifo, "SAFC {safc:.3} <= FIFO {fifo:.3} at {at}");
        }
    }
}
