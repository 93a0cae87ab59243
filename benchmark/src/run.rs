//! One run of one workload: sample its units for `--seconds`, check every
//! output, and turn the samples into the metrics `BENCHMARK.json` declares.

use std::time::Instant;

use damq_core::DamqBuffer;
use damq_net::{NetworkSim, RecoveryConfig};

use crate::alloc;
use crate::clock::Clock;
use crate::pins::Pins;
use crate::probes::{self, Metrics};
use crate::reference;
use crate::stats;
use crate::trace::Trace;
use crate::workloads::{
    self, build_sim, sim_pass, sweep_pass, sweep_setup, Sample, SimFacts, SimUnit, Tracing, Unit,
    Workload,
};

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One sample per unit at a tenth of the size, whatever `seconds` says.
    pub smoke: bool,
}

#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// The first defect seen, for the log.
    pub defect: Option<String>,
    /// Per unit: name, fingerprint of its first sample.
    pub fingerprints: Vec<(&'static str, u64)>,
    /// Informational lines for the log (sample counts, medians, quartiles).
    pub notes: Vec<String>,
    pub trace: Option<Trace>,
}

/// Everything sampled from one unit.
#[derive(Default)]
struct UnitLog {
    build_s: Vec<f64>,
    warmup_s: Vec<f64>,
    /// Build plus warm-up, pass by pass (simulations only).
    setup_s: Vec<f64>,
    /// Per timed piece of a pass (window or cell), one entry per pass.
    timed_s: Vec<Vec<f64>>,
    traced_s: Vec<Vec<f64>>,
    first: Option<Sample>,
}

/// Files one pass's piece times under their piece index.
fn file_pieces(by_piece: &mut Vec<Vec<f64>>, pass: &[f64]) {
    by_piece.resize(pass.len().max(by_piece.len()), Vec::new());
    for (samples, &secs) in by_piece.iter_mut().zip(pass) {
        samples.push(secs);
    }
}

/// The time of one pass of a unit. Each piece takes its fast time over the
/// passes and the pieces add up; if the pieces are samples of the same work
/// they are pooled first, so a few passes already give hundreds of samples.
fn pass_time(by_piece: &[Vec<f64>], stationary: bool) -> Option<f64> {
    if by_piece.is_empty() || by_piece.iter().any(Vec::is_empty) {
        return None;
    }
    if stationary {
        let pooled: Vec<f64> = by_piece.iter().flatten().copied().collect();
        Some(stats::fast(&pooled) * by_piece.len() as f64)
    } else {
        Some(by_piece.iter().map(|s| stats::fast(s)).sum())
    }
}

/// Sets of samples the units share.
struct Sampling<'a> {
    workload: &'a Workload,
    pins: &'a Pins,
    args: &'a Args,
    logs: Vec<UnitLog>,
    attempted: u64,
    failed: u64,
    defect: Option<String>,
}

impl Sampling<'_> {
    /// Checks a sample and, if it passes, files its times.
    fn file(&mut self, index: usize, sample: Sample, traced: bool) {
        let unit = &self.workload.units[index];
        self.attempted += sample.ops;
        let log = &mut self.logs[index];
        let expected = self
            .pins
            .get(
                self.args.smoke,
                self.args.seed,
                self.workload.name,
                unit.name(),
            )
            .or(log.first.as_ref().map(|s| s.fingerprint));
        let defect = sample.error.clone().or_else(|| {
            expected
                .filter(|&e| e != sample.fingerprint)
                .map(|e| format!("fingerprint {:016x}, expected {e:016x}", sample.fingerprint))
        });
        if let Some(defect) = defect {
            // A failed operation's time is discarded: it counts as missing.
            self.failed += sample.ops;
            self.defect
                .get_or_insert(format!("{}/{}: {defect}", self.workload.name, unit.name()));
            return;
        }
        if traced {
            file_pieces(&mut log.traced_s, &sample.timed_s);
        } else {
            file_pieces(&mut log.timed_s, &sample.timed_s);
            log.build_s.push(sample.build_s);
            log.warmup_s.push(sample.warmup_s);
            log.setup_s.push(sample.build_s + sample.warmup_s);
        }
        if log.first.is_none() && !traced {
            log.first = Some(sample);
        }
    }
}

/// Σ over units of the unit's fast time; `None` if a unit has no sample.
fn summed_fast<'a>(samples: impl Iterator<Item = &'a Vec<f64>>) -> Option<f64> {
    samples
        .map(|s| (!s.is_empty()).then(|| stats::fast(s)))
        .sum()
}

fn note(label: &str, samples: &[f64], unit: &str) -> String {
    if samples.is_empty() {
        return format!("{label}: no samples");
    }
    let s = stats::sorted(samples);
    format!(
        "{label}: n={} fast={:.6} q1={:.6} median={:.6} q3={:.6} {unit}",
        s.len(),
        stats::fast(&s),
        stats::quantile(&s, 0.25),
        stats::quantile(&s, 0.5),
        stats::quantile(&s, 0.75),
    )
}

pub fn run(args: &Args, pins: &Pins) -> Result<Outcome, String> {
    let workload = workloads::resolve(&args.workload, args.seed, args.smoke)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let start = Instant::now();
    let mut trace = args.trace.then(Trace::new);
    let root = trace.as_mut().map(|t| t.open("workload"));

    let sweeps = matches!(workload.units[0], Unit::Sweep(_));
    let mut sweep_setup_s = Vec::new();
    let mut plan = None;

    let mut sampling = Sampling {
        workload: &workload,
        pins,
        args,
        logs: workload.units.iter().map(|_| UnitLog::default()).collect(),
        attempted: 0,
        failed: 0,
        defect: None,
    };
    let mut step_ns: Vec<f64> = Vec::new();
    let level = alloc::reset_peak();
    let mut peak = 0;
    let mut rounds = 0;
    loop {
        let round_start = Instant::now();
        if sweeps {
            // Set-up of a sweep: the reference table and the grids. It takes
            // microseconds, so it is timed a hundred at a time, once per
            // round, which also spreads the samples over the run's noise.
            const REPS: u32 = 100;
            let ((), secs) = Clock::start().time(|| {
                for _ in 0..REPS {
                    plan = Some(sweep_setup(&workload));
                }
            });
            sweep_setup_s.push(secs / f64::from(REPS));
        }
        for (index, unit) in workload.units.iter().enumerate() {
            // Untraced first, then (in a traced run) the same work traced,
            // so both see the same stretch of host noise.
            for traced in [false, true] {
                if traced && !args.trace {
                    continue;
                }
                if let Some(t) = trace.as_mut() {
                    t.set_unit(index);
                }
                let trace = trace.as_mut().filter(|_| traced);
                let sample = match unit {
                    Unit::Sim(unit) => {
                        let tracing = trace.map(|trace| Tracing {
                            trace,
                            step_ns: &mut step_ns,
                            keep_steps: rounds == 0,
                        });
                        sim_pass(unit, tracing)
                    }
                    Unit::Sweep(unit) => {
                        let plan = plan.as_ref().expect("sweeps are set up");
                        sweep_pass(unit, &plan.grids[index], &plan.reference, trace)
                    }
                };
                sampling.file(index, sample, traced);
            }
        }
        rounds += 1;
        if rounds == 1 {
            // Every unit has run once, alone, each dropped before the next:
            // the peak of the round is the workload's, whatever follows.
            peak = alloc::peak_since(level);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let another = round_start.elapsed().as_secs_f64();
        let min_rounds = if args.smoke || args.trace { 1 } else { 2 };
        // Stop at the round boundary nearest to `--seconds`.
        if args.smoke || (rounds >= min_rounds && elapsed + another / 2.0 > args.seconds) {
            break;
        }
    }

    let Sampling {
        logs,
        attempted,
        failed,
        defect,
        ..
    } = sampling;
    let firsts: Vec<&Sample> = logs.iter().filter_map(|l| l.first.as_ref()).collect();
    let complete = firsts.len() == logs.len();

    let mut notes = vec![format!(
        "{} rounds in {:.2} s",
        rounds,
        start.elapsed().as_secs_f64()
    )];
    for (log, unit) in logs.iter().zip(&workload.units) {
        let passes: Vec<f64> = (0..log.timed_s.first().map_or(0, Vec::len))
            .map(|pass| log.timed_s.iter().map(|piece| piece[pass]).sum())
            .collect();
        notes.push(note(&format!("  {} pass", unit.name()), &passes, "s"));
        if let Some(t) = pass_time(&log.timed_s, unit.stationary()) {
            notes.push(format!(
                "  {} pass from {} pieces: {t:.6} s",
                unit.name(),
                log.timed_s.len()
            ));
        }
        if !sweeps {
            notes.push(note(
                &format!("  {} set-up", unit.name()),
                &log.setup_s,
                "s",
            ));
        }
    }

    let pass_times = |traced: bool| -> Option<f64> {
        logs.iter()
            .zip(&workload.units)
            .map(|(l, u)| {
                pass_time(
                    if traced { &l.traced_s } else { &l.timed_s },
                    u.stationary(),
                )
            })
            .sum()
    };
    let timed = pass_times(false);
    let work: f64 = workload.units.iter().map(Unit::work).sum();
    let mut metrics = Metrics::new();
    if !args.trace {
        let setup_s = if sweeps {
            notes.push(note("  set-up", &sweep_setup_s, "s"));
            Some(stats::fast(&sweep_setup_s))
        } else {
            summed_fast(logs.iter().map(|l| &l.setup_s))
        };
        let (delivered, generated) = firsts.iter().fold((0.0, 0.0), |acc, s| {
            (
                acc.0 + s.delivered_generated.0,
                acc.1 + s.delivered_generated.1,
            )
        });
        // A simulation workload reports its primary unit's.
        let primary = logs[workload.primary].first.as_ref();
        let delivered_fraction = match primary.and_then(|s| s.facts.as_ref()) {
            Some(facts) => facts.delivered_fraction(),
            None => delivered / generated,
        };
        if let (Some(setup_s), Some(timed), true) = (setup_s, timed, complete) {
            metrics.push(("setup_s".to_owned(), setup_s));
            metrics.push(("work_per_sec".to_owned(), work / timed));
            metrics.push(("peak_live_mb".to_owned(), peak as f64 / 1e6));
            metrics.push(("delivered_fraction".to_owned(), delivered_fraction));
        }
    } else if let (Some(timed), true) = (timed, complete) {
        per_layer(args, &workload, &logs, &mut step_ns, &mut metrics);
        let traced = pass_times(true).unwrap_or(timed);
        metrics.push(("trace.overhead_ratio".to_owned(), traced / timed));
        if let (Some(t), Some(root)) = (trace.as_mut(), root) {
            let whole = t.close(root);
            notes.push(format!(
                "  spans: {:.3} s in all, {:.3} s traced set-up, {:.3} s traced passes, {:.3} s traced \
                 sweeps, {:.3} s outside any span (untraced passes, toggles, probes); {} steps timed \
                 one by one",
                whole as f64 / 1e9,
                t.total_ns("setup") as f64 / 1e9,
                t.total_ns("rep") as f64 / 1e9,
                t.total_ns("sweep.run") as f64 / 1e9,
                t.self_ns(root) as f64 / 1e9,
                step_ns.len(),
            ));
        }
        let spans = trace.as_ref().map_or(0, |t| t.spans.len());
        metrics.push(("trace.spans".to_owned(), spans as f64));
    }

    Ok(Outcome {
        correct: failed == 0 && complete && !metrics.is_empty(),
        attempted,
        failed,
        metrics,
        defect,
        fingerprints: workload
            .units
            .iter()
            .zip(&logs)
            .filter_map(|(u, l)| l.first.as_ref().map(|s| (u.name(), s.fingerprint)))
            .collect(),
        notes,
        trace,
    })
}

/// The per-layer metrics of a traced run: what the workload's own samples
/// say about `net`, then the toggles and stand-alone probes.
fn per_layer(
    args: &Args,
    workload: &Workload,
    logs: &[UnitLog],
    step_ns: &mut [f64],
    out: &mut Metrics,
) {
    let mut push = |name: &str, value: f64| out.push((name.to_owned(), value));
    // The simulated statistics are the primary unit's, from its first pass.
    let primary_unit = &workload.units[workload.primary];
    let log = &logs[workload.primary];
    let first = log.first.as_ref().expect("the primary unit was sampled");
    let no_facts = SimFacts::default();
    let facts = first.facts.as_ref().unwrap_or(&no_facts);
    let sim = match primary_unit {
        Unit::Sim(unit) => Some(unit),
        Unit::Sweep(_) => None,
    };

    // Spans and what they derive. A sweep calls `net` only through
    // `measure`/`find_saturation`, so these read 0 there.
    let fast_ns = |s: &[f64]| {
        if sim.is_some() {
            stats::fast(s) * 1e9
        } else {
            0.0
        }
    };
    push("net.build_ns", fast_ns(&log.build_s));
    push("net.warmup_ns", fast_ns(&log.warmup_s));
    step_ns.sort_by(f64::total_cmp);
    let step = |q: f64| {
        if step_ns.is_empty() {
            return 0.0;
        }
        stats::quantile(step_ns, q)
    };
    push("net.step_ns_p50", step(0.50));
    push("net.step_ns_p99", step(0.99));
    let window_ns = pass_time(&log.timed_s, primary_unit.stationary())
        .filter(|_| sim.is_some())
        .map_or(0.0, |s| s * 1e9);
    let kcycles = (facts.cycles as f64 / 1e3).max(f64::MIN_POSITIVE);
    let per = |total: f64, count: u64| {
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    };
    push("net.ns_per_delivered", per(window_ns, facts.delivered));
    push(
        "net.ns_per_busy_switch",
        per(window_ns, facts.switch_cycles - facts.idle_skipped),
    );
    push(
        "net.idle_skip_share",
        per(facts.idle_skipped as f64, facts.switch_cycles),
    );

    let toggles = sim.map_or([0.0; 3], |u| {
        toggles(u, workload.name == "hotspot_block_64")
    });
    push("net.idle_skip_speedup", toggles[0]);
    push("net.typed_speedup", toggles[1]);
    push("net.recovery_armed_ratio", toggles[2]);

    // Exact counts at the boundary, over the timed window.
    push("net.generated", facts.generated as f64);
    push("net.injected", facts.injected as f64);
    push("net.delivered", facts.delivered as f64);
    push("net.discarded_entry", facts.discarded_entry as f64);
    push("net.discarded_network", facts.discarded_network as f64);
    push("net.source_backlog_end", facts.source_backlog as f64);
    push("net.in_flight_end", facts.in_flight as f64);
    push("net.occupancy_mean", facts.occupancy_mean);
    push("net.delivered_throughput", facts.delivered_throughput);
    push("net.latency_mean_clocks", facts.latency_mean_clocks);
    push("net.latency_p99_clocks", facts.latency_p99_clocks);
    push(
        "net.route_queries_per_delivered",
        per(facts.route_queries as f64, facts.delivered),
    );
    push(
        "net.hol_blocked_per_kcycle",
        facts.hol_blocked as f64 / kcycles,
    );
    push("net.allocs_per_kcycle", first.allocs as f64 / kcycles);
    push(
        "net.alloc_kb_per_kcycle",
        first.alloc_bytes as f64 / 1e3 / kcycles,
    );
    let recovery = sim
        .filter(|u| u.config.recovery_config().active())
        .map_or([0.0; 4], recovery_counts);
    push("net.retransmits", recovery[0]);
    push("net.rerouted", recovery[1]);
    push("net.recirculated", recovery[2]);
    push("net.retry_exhausted", recovery[3]);
    push("net.fault_drops", facts.fault_drops as f64);

    // Accuracy against the paper, on the workloads that regenerate one of
    // its tables.
    let cells: Vec<(f64, f64)> = logs
        .iter()
        .filter_map(|l| l.first.as_ref())
        .flat_map(|s| s.cells.iter().copied())
        .collect();
    let (max, median) = reference::errors(&cells, workload.name == "table4_sweep");
    push("paper.err_max", max);
    push("paper.err_median", median);

    probes::all(args.seed, out);
}

/// A/B through the simulator's public toggles, on a short window of the
/// unit's configuration without faults: `[idle_skip_speedup, typed_speedup,
/// recovery_armed_ratio]`, each the base's time over the variant's or the
/// reverse as the name says. `typed` only where asked (hot-spot DAMQ).
fn toggles(unit: &SimUnit, typed: bool) -> [f64; 3] {
    let warm_up = unit.warm_up.min(400);
    let chunk = unit.window_cycles * 4;
    let plain = unit.config.recovery(RecoveryConfig::disabled());
    let warmed = |mut sim: NetworkSim| {
        sim.run(warm_up);
        sim
    };
    let mut base = warmed(NetworkSim::new(plain).expect("valid config"));
    let mut no_skip = warmed(
        NetworkSim::new(plain)
            .expect("valid config")
            .with_idle_skip(false),
    );
    let armed = plain.recovery(RecoveryConfig::enabled());
    let mut armed = warmed(NetworkSim::new(armed).expect("valid config"));
    let mut mono = typed.then(|| {
        let mut sim = NetworkSim::<DamqBuffer>::typed(plain).expect("valid config");
        sim.run(warm_up);
        sim
    });
    let fastest = probes::round_robin_fastest(
        &mut [
            Box::new(|| base.run(chunk)),
            Box::new(|| no_skip.run(chunk)),
            Box::new(|| armed.run(chunk)),
            Box::new(|| {
                if let Some(sim) = mono.as_mut() {
                    sim.run(chunk);
                }
            }),
        ],
        5,
    );
    [
        fastest[1] / fastest[0],
        if typed { fastest[0] / fastest[3] } else { 0.0 },
        fastest[2] / fastest[0],
    ]
}

/// One more pass with the metrics registry on, for the recovery counters
/// only it carries: `[retransmits, rerouted, recirculated, retry_exhausted]`
/// over the timed window.
fn recovery_counts(unit: &SimUnit) -> [f64; 4] {
    const NAMES: [&str; 4] = [
        "net.retransmits",
        "net.rerouted",
        "net.recirculated",
        "net.retry_exhausted",
    ];
    let Ok(sim) = build_sim(unit) else {
        return [0.0; 4];
    };
    let mut sim = sim.with_metrics();
    let read = |sim: &NetworkSim| {
        NAMES.map(|n| sim.metrics_registry().counter_value(n).unwrap_or(0) as f64)
    };
    sim.warm_up(unit.warm_up);
    let before = read(&sim);
    sim.run(unit.cycles());
    let after = read(&sim);
    [0, 1, 2, 3].map(|i| after[i] - before[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_time_adds_pieces_or_pools_them() {
        // Two pieces, three passes; the second pass was disturbed.
        let by_piece = vec![vec![1.0, 5.0, 1.0], vec![3.0, 9.0, 3.0]];
        assert_eq!(pass_time(&by_piece, false), Some(1.0 + 3.0));
        // Pooled, the fastest piece stands for both.
        assert_eq!(pass_time(&by_piece, true), Some(2.0));
        assert_eq!(pass_time(&[], false), None);
        assert_eq!(pass_time(&[vec![1.0], vec![]], false), None);
    }

    #[test]
    fn pieces_are_filed_by_index() {
        let mut by_piece = Vec::new();
        file_pieces(&mut by_piece, &[1.0, 2.0]);
        file_pieces(&mut by_piece, &[3.0, 4.0]);
        assert_eq!(by_piece, vec![vec![1.0, 3.0], vec![2.0, 4.0]]);
    }

    /// A smoke-size run of every workload passes its own checks, repeats
    /// itself, and measures exactly the end-to-end metrics declared.
    #[test]
    fn smoke_runs_are_correct_and_complete() {
        let declared = crate::declared::Declared::load().expect("BENCHMARK.json parses");
        let pins = Pins::load();
        for name in workloads::NAMES {
            let args = Args {
                workload: name.to_owned(),
                seed: 0,
                seconds: 1.0,
                trace: false,
                smoke: true,
            };
            let outcome = run(&args, &pins).expect("workload resolves");
            assert!(outcome.correct, "{name}: {:?}", outcome.defect);
            assert!(outcome.attempted >= 1 && outcome.failed == 0);
            let measured: Vec<&str> = outcome.metrics.iter().map(|m| m.0.as_str()).collect();
            let wanted: Vec<&str> = declared
                .end_to_end
                .iter()
                .map(|m| m.name.as_str())
                .collect();
            assert_eq!(measured, wanted, "{name}");
            assert!(
                outcome.metrics.iter().all(|m| m.1.is_finite() && m.1 > 0.0),
                "{name}"
            );
            for (unit, _) in &outcome.fingerprints {
                assert!(
                    pins.get(true, 0, name, unit).is_some(),
                    "{name}/{unit} has a smoke pin"
                );
            }
        }
    }

    #[test]
    fn a_changed_fingerprint_fails_the_run() {
        let args = Args {
            workload: "uniform_discard_64".to_owned(),
            seed: 0,
            seconds: 1.0,
            trace: false,
            smoke: true,
        };
        let wrong = Pins::parse("smoke\t0\tuniform_discard_64\tdamq\t0000000000000001\n");
        let outcome = run(&args, &wrong).expect("workload resolves");
        assert!(!outcome.correct);
        assert_eq!(outcome.failed, 1);
        assert!(outcome
            .defect
            .expect("a defect is reported")
            .contains("fingerprint"));
    }
}
