//! The seven workloads: what each runs, cut into units of fixed work.
//!
//! A unit's work is fixed in cycles or cells and never calibrated to
//! wall-clock, so its simulated statistics repeat exactly; only the number
//! of times a unit is sampled follows `--seconds`.

use std::time::Instant;

use damq_bench::sweep;
use damq_core::{BufferKind, FaultPlan, FaultSpec, SwitchBuffer};
use damq_markov::{
    BufferModel2x2, Chain, CycleOrder, DamqModel, FifoModel, MarkovModel, SafcModel, SamqModel,
    SolveOptions, Switch2x2,
};
use damq_net::{
    find_saturation, measure, NetworkConfig, NetworkSim, RecoveryConfig, SaturationOptions,
    TrafficPattern,
};
use damq_switch::FlowControl;
use damq_telemetry::{Event, TelemetrySink};

use crate::alloc;
use crate::clock::Clock;
use crate::reference::{self, Reference};
use crate::stats::Fnv;
use crate::trace::Trace;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 7] = [
    "hotspot_block_64",
    "uniform_discard_64",
    "faulted_heal_64",
    "sparse_1024",
    "uniform_block_1024",
    "table4_sweep",
    "markov_table2",
];

/// Seed 0 is the historical one: `0xBEEF` for the simulations (the
/// `BENCH_throughput.json` cells) and `sweep::BASE_SEED` for the sweeps
/// (what `table4` regenerates), so seed 0 reproduces committed results.
fn sim_seed(seed: u64) -> u64 {
    0xBEEF_u64.wrapping_add(seed)
}

fn sweep_seed(seed: u64) -> u64 {
    sweep::BASE_SEED.wrapping_add(seed)
}

/// One simulated unit: a fresh network, warmed up, then `windows` timed
/// windows of `window_cycles` each.
///
/// Fresh per pass because a blocking network past saturation grows its
/// source queues without bound; a long run has to be many short ones. The
/// timed part is cut into windows of a few milliseconds because this host's
/// interference comes in phases of seconds: short windows find the quiet
/// stretches inside a noisy pass.
#[derive(Debug, Clone)]
pub struct SimUnit {
    pub name: &'static str,
    pub config: NetworkConfig,
    /// Seed and specs the fault plan is generated from, inside set-up.
    pub faults: Option<(u64, FaultSpec, FaultSpec)>,
    pub warm_up: u64,
    pub window_cycles: u64,
    pub windows: usize,
    /// Whether the warm-up reaches a steady state, so that every window is
    /// a sample of the same work. Otherwise window `i` is a different piece
    /// of a transient, the same piece in every pass.
    pub stationary: bool,
}

/// One row of a sweep table: its cells run through the sweep engine on one
/// worker, as `scripts/regen_results.sh` runs them.
#[derive(Debug, Clone)]
pub enum SweepUnit {
    /// Four loads measured plus one saturation search, for one design.
    Table4 {
        kind_index: usize,
        base_seed: u64,
        smoke: bool,
    },
    /// Every (slots, traffic) cell of Table 2 for one design.
    Table2 { kind: BufferKind, smoke: bool },
}

// A workload has at most five units; boxing the larger variant buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Unit {
    Sim(SimUnit),
    Sweep(SweepUnit),
}

impl Unit {
    pub fn name(&self) -> &'static str {
        match self {
            Unit::Sim(u) => u.name,
            Unit::Sweep(SweepUnit::Table4 { kind_index, .. }) => TABLE4_KINDS[*kind_index].name(),
            Unit::Sweep(SweepUnit::Table2 { kind, .. }) => kind.name(),
        }
    }

    /// Units of work one pass completes: simulated network cycles for a
    /// simulation, cells for a sweep row.
    pub fn work(&self) -> f64 {
        match self {
            Unit::Sim(u) => u.cycles() as f64,
            Unit::Sweep(u) => u.cells() as f64,
        }
    }

    /// Whether the timed pieces of a pass are samples of the same work.
    pub fn stationary(&self) -> bool {
        matches!(self, Unit::Sim(u) if u.stationary)
    }
}

impl SimUnit {
    /// Timed cycles of one pass.
    pub fn cycles(&self) -> u64 {
        self.window_cycles * self.windows as u64
    }
}

/// A workload resolved for one seed.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub units: Vec<Unit>,
    /// The unit whose simulated statistics the workload reports.
    pub primary: usize,
}

const TABLE4_KINDS: [BufferKind; 4] = [
    BufferKind::Fifo,
    BufferKind::Damq,
    BufferKind::Safc,
    BufferKind::Samq,
];
const TABLE4_LOADS: [f64; 4] = [0.25, 0.30, 0.40, 0.50];
const TABLE2_ROWS: [(BufferKind, &[usize]); 4] = [
    (BufferKind::Fifo, &[2, 3, 4, 5, 6]),
    (BufferKind::Damq, &[2, 3, 4, 5, 6]),
    (BufferKind::Samq, &[2, 4, 6]),
    (BufferKind::Safc, &[2, 4, 6]),
];

fn omega(size: usize, flow: FlowControl, load: f64, seed: u64) -> NetworkConfig {
    NetworkConfig::new(size, 4)
        .buffer_kind(BufferKind::Damq)
        .slots_per_buffer(4)
        .flow_control(flow)
        .offered_load(load)
        .seed(sim_seed(seed))
}

/// The `hotspot_block_64` network: the paper's 5 % hot spot, past saturation.
pub fn hot_spot_config(seed: u64) -> NetworkConfig {
    omega(64, FlowControl::Blocking, 0.5, seed).traffic(TrafficPattern::paper_hot_spot())
}

/// The `uniform_block_1024` network: large and busy.
pub fn large_config(seed: u64) -> NetworkConfig {
    omega(1024, FlowControl::Blocking, 0.4, seed)
}

/// Resolves `name` for `seed`. `smoke` cuts every unit to a tenth.
pub fn resolve(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
    let cut = |n: u64| if smoke { n / 10 } else { n };
    // `window_cycles` is chosen per workload for windows of 3 to 12 ms.
    let sim = |name, config, warm_up: u64, window_cycles: u64, windows: u64, stationary| SimUnit {
        name,
        config,
        faults: None,
        warm_up: cut(warm_up),
        window_cycles,
        windows: cut(windows) as usize,
        stationary,
    };
    let (units, primary) = match name {
        "hotspot_block_64" => {
            let unit = sim("damq", hot_spot_config(seed), 2_000, 250, 32, false);
            (vec![Unit::Sim(unit)], 0)
        }
        "uniform_discard_64" => {
            let kinds = [
                ("fifo", BufferKind::Fifo),
                ("samq", BufferKind::Samq),
                ("safc", BufferKind::Safc),
                ("damq", BufferKind::Damq),
                ("dafc", BufferKind::Dafc),
            ];
            let units = kinds
                .iter()
                .map(|&(name, kind)| {
                    let config = omega(64, FlowControl::Discarding, 0.9, seed).buffer_kind(kind);
                    Unit::Sim(sim(name, config, 500, 250, 12, false))
                })
                .collect();
            (units, 3)
        }
        "faulted_heal_64" => {
            let config =
                omega(64, FlowControl::Discarding, 0.6, seed).recovery(RecoveryConfig::enabled());
            let mut unit = sim("damq", config, 2_000, 250, 24, false);
            let total = unit.warm_up + unit.cycles();
            // 10 % of the 192 links die for good inside the first half of
            // the warm-up (the `recovery_headline` cell), and about one
            // corruption and one misroute per ten cycles last the whole pass.
            let links = FaultSpec {
                link_flaps: 19,
                flap_duration: total + 1,
                ..FaultSpec::fault_free(3, 16, 4, 64, 4, (unit.warm_up / 2).max(1))
            };
            let noise = FaultSpec {
                corrupt_packets: (total / 10) as usize,
                misroutes: (total / 10) as usize,
                ..FaultSpec::fault_free(3, 16, 4, 64, 4, total)
            };
            unit.faults = Some((sim_seed(seed) ^ 0x4EA1, links, noise));
            (vec![Unit::Sim(unit)], 0)
        }
        "sparse_1024" => {
            let config = omega(1024, FlowControl::Blocking, 0.05, seed);
            let unit = sim("damq", config, 2_000, 40, 120, true);
            (vec![Unit::Sim(unit)], 0)
        }
        "uniform_block_1024" => {
            let unit = sim("damq", large_config(seed), 1_000, 15, 100, true);
            (vec![Unit::Sim(unit)], 0)
        }
        "table4_sweep" => {
            let units = (0..TABLE4_KINDS.len())
                .map(|kind_index| {
                    Unit::Sweep(SweepUnit::Table4 {
                        kind_index,
                        base_seed: sweep_seed(seed),
                        smoke,
                    })
                })
                .collect();
            (units, 1)
        }
        "markov_table2" => {
            let units = TABLE2_ROWS
                .iter()
                .map(|&(kind, _)| Unit::Sweep(SweepUnit::Table2 { kind, smoke }))
                .collect();
            (units, 1)
        }
        _ => return None,
    };
    let name = NAMES.iter().find(|&&n| n == name)?;
    Some(Workload {
        name,
        units,
        primary,
    })
}

/// The deterministic facts of one simulated pass, read at its end. The
/// counters cover the timed window only (`warm_up` resets them).
#[derive(Debug, Clone, Default)]
pub struct SimFacts {
    pub cycles: u64,
    pub generated: u64,
    pub injected: u64,
    pub delivered: u64,
    pub discarded_entry: u64,
    pub discarded_network: u64,
    pub latency_mean_clocks: f64,
    pub latency_p99_clocks: f64,
    pub delivered_throughput: f64,
    pub per_sink_delivered: Vec<u64>,
    pub source_backlog: u64,
    pub in_flight: u64,
    pub recovery_held: u64,
    pub fault_ledger: [u64; 5],
    pub fault_drops: u64,
    // Not part of the fingerprint: these describe how the simulator did
    // the work, which a speed-only change may alter.
    pub idle_skipped: u64,
    pub switch_cycles: u64,
    pub route_queries: u64,
    pub hol_blocked: u64,
    pub occupancy_mean: f64,
}

impl SimFacts {
    pub fn read<B: SwitchBuffer, S: TelemetrySink<Event>>(
        sim: &NetworkSim<B, S>,
        skipped_before: u64,
        queries_before: u64,
        hol_before: u64,
    ) -> Self {
        let m = sim.metrics();
        let ledger = sim.fault_ledger();
        let topology = sim.topology();
        let by_stage = sim.occupancy_by_stage();
        SimFacts {
            cycles: m.cycles(),
            generated: m.generated(),
            injected: m.injected(),
            delivered: m.delivered(),
            discarded_entry: m.discarded_entry(),
            discarded_network: m.discarded_network(),
            latency_mean_clocks: m.mean_latency_clocks(),
            latency_p99_clocks: m.latency_percentile_clocks(0.99),
            delivered_throughput: m.delivered_throughput(),
            per_sink_delivered: m.per_sink_delivered().to_vec(),
            source_backlog: sim.source_backlog() as u64,
            in_flight: sim.packets_in_flight() as u64,
            recovery_held: sim.recovery_held() as u64,
            fault_ledger: [
                ledger.slots_killed,
                ledger.link_dropped,
                ledger.corrupt_dropped,
                ledger.misrouted,
                ledger.probe_invalidated,
            ],
            fault_drops: ledger.dropped(),
            idle_skipped: sim.idle_skipped_total() - skipped_before,
            switch_cycles: m.cycles() * (topology.stages() * topology.switches_per_stage()) as u64,
            route_queries: sim.route_plan().route_queries() - queries_before,
            hol_blocked: sim.aggregate_buffer_stats().hol_blocked() - hol_before,
            occupancy_mean: by_stage.iter().sum::<f64>() / by_stage.len() as f64,
        }
    }

    pub fn delivered_fraction(&self) -> f64 {
        self.delivered as f64 / self.generated.max(1) as f64
    }

    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for v in [
            self.cycles,
            self.generated,
            self.injected,
            self.delivered,
            self.discarded_entry,
            self.discarded_network,
        ] {
            h.u64(v);
        }
        h.f64_bits(self.latency_mean_clocks);
        h.f64_bits(self.latency_p99_clocks);
        self.per_sink_delivered.iter().for_each(|&v| h.u64(v));
        h.u64(self.source_backlog);
        h.u64(self.in_flight);
        h.u64(self.recovery_held);
        self.fault_ledger.iter().for_each(|&v| h.u64(v));
        h.finish()
    }

    /// Why the pass counts as failed, if it does.
    fn defect(&self) -> Option<String> {
        let finite = self.latency_mean_clocks.is_finite()
            && self.latency_p99_clocks.is_finite()
            && self.delivered_throughput.is_finite();
        if !finite {
            return Some("non-finite simulated statistic".to_owned());
        }
        (self.delivered == 0).then(|| "nothing was delivered".to_owned())
    }
}

/// What one sample of a unit produced.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// The two halves of a simulation's set-up, the host time before its
    /// first timed cycle (a sweep's set-up is measured by [`sweep_setup`]).
    /// Like every duration here, in seconds at the nominal core clock
    /// ([`Clock`]).
    pub build_s: f64,
    pub warmup_s: f64,
    /// One entry per timed piece of the pass: a window of a simulation; a
    /// cell of a sweep row, then the engine's own time around the cells.
    pub timed_s: Vec<f64>,
    /// Operations attempted: one pass, or the cells of a row.
    pub ops: u64,
    pub fingerprint: u64,
    pub error: Option<String>,
    pub facts: Option<SimFacts>,
    /// (value, reference) of each cell that has a paper value.
    pub cells: Vec<(f64, f64)>,
    /// Delivered and generated packets summed over a sweep row's cells (a
    /// simulation's are in `facts`).
    pub delivered_generated: (f64, f64),
    /// Allocations and bytes requested inside the timed windows.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// What a traced sample adds: spans, and every step's duration.
pub struct Tracing<'a> {
    pub trace: &'a mut Trace,
    pub step_ns: &'a mut Vec<f64>,
    /// Keep a span per step (one pass per unit) or only its duration.
    pub keep_steps: bool,
}

pub fn build_sim(unit: &SimUnit) -> Result<NetworkSim, String> {
    match &unit.faults {
        Some((seed, links, noise)) => {
            let plan = FaultPlan::generate(*seed, links)
                .merged(FaultPlan::generate(seed.rotate_left(17), noise));
            NetworkSim::with_faults(unit.config, plan)
        }
        None => NetworkSim::new(unit.config),
    }
    .map_err(|e| e.to_string())
}

/// Runs one pass of a simulated unit.
pub fn sim_pass(unit: &SimUnit, mut tracing: Option<Tracing<'_>>) -> Sample {
    let mut sample = Sample {
        ops: 1,
        ..Sample::default()
    };
    let open = |t: &mut Option<Tracing<'_>>, name| t.as_mut().map(|t| t.trace.open(name));
    let close = |t: &mut Option<Tracing<'_>>, id: Option<u32>| {
        if let (Some(t), Some(id)) = (t.as_mut(), id) {
            t.trace.close(id);
        }
    };

    let mut clock = Clock::start();
    let setup_span = open(&mut tracing, "setup");
    let span = open(&mut tracing, "net.build");
    let (sim, build_s) = clock.time(|| build_sim(unit));
    close(&mut tracing, span);
    let mut sim = match sim {
        Ok(sim) => sim,
        Err(e) => {
            close(&mut tracing, setup_span);
            sample.error = Some(e);
            return sample;
        }
    };
    let span = open(&mut tracing, "net.warmup");
    let ((), warmup_s) = clock.time(|| sim.warm_up(unit.warm_up));
    close(&mut tracing, span);
    close(&mut tracing, setup_span);
    sample.build_s = build_s;
    sample.warmup_s = warmup_s;

    let skipped = sim.idle_skipped_total();
    let queries = sim.route_plan().route_queries();
    let hol = sim.aggregate_buffer_stats().hol_blocked();
    let rep = open(&mut tracing, "rep");
    // Reserved up front so the runner's own bookkeeping stays out of the
    // window's allocation count.
    sample.timed_s.reserve(unit.windows);
    let before = alloc::snapshot();
    for _ in 0..unit.windows {
        let ((), secs) = match tracing.as_mut() {
            None => clock.time(|| sim.run(unit.window_cycles)),
            Some(t) => {
                let first_step = t.step_ns.len();
                let timed = clock.time(|| {
                    for _ in 0..unit.window_cycles {
                        let s = t.trace.now_ns();
                        sim.step();
                        let e = t.trace.now_ns();
                        t.step_ns.push((e - s) as f64);
                        if t.keep_steps {
                            t.trace.record("net.step", s, e);
                        }
                    }
                });
                for ns in &mut t.step_ns[first_step..] {
                    *ns *= clock.scale();
                }
                timed
            }
        };
        sample.timed_s.push(secs);
    }
    let after = alloc::snapshot();
    sample.allocs = after.allocs - before.allocs;
    sample.alloc_bytes = after.bytes - before.bytes;
    close(&mut tracing, rep);

    let facts = SimFacts::read(&sim, skipped, queries, hol);
    sample.error = sim.audit().err().map(|e| e.to_string()).or(facts.defect());
    sample.fingerprint = facts.fingerprint();
    sample.facts = Some(facts);
    sample
}

/// What a sweep workload has before its first cell runs: the paper's table
/// to compare with and the grid of every row. Building it is the sweep
/// workloads' set-up.
pub struct SweepPlan {
    pub reference: Reference,
    pub grids: Vec<Vec<Cell>>,
}

pub fn sweep_setup(workload: &Workload) -> SweepPlan {
    SweepPlan {
        reference: reference::load(workload.name == "table4_sweep"),
        grids: workload
            .units
            .iter()
            .map(|u| match u {
                Unit::Sweep(u) => u.grid(),
                Unit::Sim(_) => Vec::new(),
            })
            .collect(),
    }
}

/// One cell of a sweep row.
#[derive(Debug, Clone, Copy)]
pub enum Cell {
    Measure {
        config: NetworkConfig,
        warm_up: u64,
        window: u64,
        load: usize,
    },
    Saturation {
        config: NetworkConfig,
        options: SaturationOptions,
    },
    Markov {
        kind: BufferKind,
        slots: usize,
        traffic: f64,
    },
}

/// What a cell computed: the values its fingerprint covers, the one value
/// the paper has a number for, packets delivered and generated, and spans
/// of the layer calls it made (name, start, end).
struct CellOut {
    values: Vec<f64>,
    exact: bool,
    headline: f64,
    delivered_generated: (f64, f64),
    error: Option<String>,
    /// Start and end on the trace's clock, and nominal seconds in between.
    span: (u64, u64),
    secs: f64,
    calls: Vec<(&'static str, u64, u64)>,
}

impl SweepUnit {
    fn cells(&self) -> usize {
        self.grid().len()
    }

    fn grid(&self) -> Vec<Cell> {
        match *self {
            SweepUnit::Table4 {
                kind_index,
                base_seed,
                smoke,
            } => {
                let k = kind_index as u64;
                let base = NetworkConfig::new(64, 4)
                    .slots_per_buffer(4)
                    .flow_control(FlowControl::Blocking)
                    .buffer_kind(TABLE4_KINDS[kind_index]);
                let (warm_up, window) = if smoke { (100, 1_000) } else { (1_000, 10_000) };
                let mut cells: Vec<Cell> = (0..TABLE4_LOADS.len())
                    .map(|l| Cell::Measure {
                        config: base
                            .offered_load(TABLE4_LOADS[l])
                            .seed(sweep::cell_seed(base_seed, &[k, l as u64])),
                        warm_up,
                        window,
                        load: l,
                    })
                    .collect();
                let options = if smoke {
                    SaturationOptions {
                        warm_up: 50,
                        window: 200,
                        ..SaturationOptions::default()
                    }
                } else {
                    SaturationOptions::default()
                };
                cells.push(Cell::Saturation {
                    config: base.seed(sweep::cell_seed(base_seed, &[k, u64::MAX])),
                    options,
                });
                cells
            }
            SweepUnit::Table2 { kind, smoke } => {
                let slots = TABLE2_ROWS
                    .iter()
                    .find(|(k, _)| *k == kind)
                    .map_or(&[][..], |(_, slots)| slots);
                slots
                    .iter()
                    .filter(|&&s| !smoke || s <= 3)
                    .flat_map(|&slots| {
                        damq_bench::TABLE2_TRAFFIC
                            .iter()
                            .map(move |&traffic| Cell::Markov {
                                kind,
                                slots,
                                traffic,
                            })
                    })
                    .collect()
            }
        }
    }
}

fn markov_cell<M>(model: M, traffic: f64, now: &dyn Fn() -> u64, out: &mut CellOut)
where
    M: BufferModel2x2,
    Switch2x2<M>: MarkovModel<State = M::State>,
{
    let switch = Switch2x2::new(model, traffic, CycleOrder::ArrivalsFirst);
    let s = now();
    let chain = Chain::explore(&switch);
    let e = now();
    out.calls.push(("markov.explore", s, e));
    let solved = chain.steady_state(SolveOptions::default());
    out.calls.push(("markov.solve", e, now()));
    match solved {
        Ok(ss) => {
            let reward = chain.stationary_reward(&ss);
            let discard = if reward.arrivals > 0.0 {
                reward.discards / reward.arrivals
            } else {
                0.0
            };
            out.values = vec![discard, reward.departures];
            out.headline = discard;
            out.delivered_generated = (reward.arrivals - reward.discards, reward.arrivals);
            if !(0.0..=1.0).contains(&discard) {
                out.error = Some(format!("discard probability {discard} outside [0, 1]"));
            }
        }
        Err(e) => out.error = Some(e.to_string()),
    }
}

fn run_cell(cell: &Cell, now: &dyn Fn() -> u64) -> CellOut {
    let mut out = CellOut {
        values: Vec::new(),
        exact: true,
        headline: f64::NAN,
        delivered_generated: (0.0, 0.0),
        error: None,
        span: (0, 0),
        secs: 0.0,
        calls: Vec::new(),
    };
    match *cell {
        Cell::Measure {
            config,
            warm_up,
            window,
            ..
        } => {
            let s = now();
            let measured = measure(config, warm_up, window);
            out.calls.push(("net.measure", s, now()));
            match measured {
                Ok(m) => {
                    out.values = m.fields().iter().map(|&(_, v)| v).collect();
                    out.headline = m.latency_clocks;
                    out.delivered_generated = (m.delivered, m.offered);
                }
                Err(e) => out.error = Some(e.to_string()),
            }
        }
        Cell::Saturation { config, options } => {
            let s = now();
            let found = find_saturation(config, options);
            out.calls.push(("net.find_saturation", s, now()));
            match found {
                Ok(r) => {
                    out.values = vec![r.throughput, r.saturated_latency_clocks, r.probes as f64];
                    out.headline = r.throughput;
                }
                Err(e) => out.error = Some(e.to_string()),
            }
        }
        Cell::Markov {
            kind,
            slots,
            traffic,
        } => {
            out.exact = false;
            match kind {
                BufferKind::Fifo => markov_cell(FifoModel::new(slots), traffic, now, &mut out),
                BufferKind::Damq => markov_cell(DamqModel::new(slots), traffic, now, &mut out),
                BufferKind::Samq => markov_cell(SamqModel::new(slots), traffic, now, &mut out),
                BufferKind::Safc => markov_cell(SafcModel::new(slots), traffic, now, &mut out),
                BufferKind::Dafc => out.error = Some("Table 2 has no DAFC row".to_owned()),
            }
        }
    }
    if out.error.is_none() && out.values.iter().any(|v| !v.is_finite()) {
        out.error = Some("non-finite cell value".to_owned());
    }
    out
}

/// Runs one row of a sweep through the sweep engine on one worker.
pub fn sweep_pass(
    unit: &SweepUnit,
    grid: &[Cell],
    reference: &Reference,
    trace: Option<&mut Trace>,
) -> Sample {
    let origin = Instant::now();
    // Cells run on the engine's worker thread; their spans are stamped on
    // the trace's clock and attached after the engine returns.
    let offset = trace.as_ref().map_or(0, |t| t.now_ns());
    let now = move || offset + origin.elapsed().as_nanos() as u64;

    let run_start = now();
    let outs = sweep::run_with_workers(grid, 1, |cell| {
        let started = now();
        let (mut out, secs) = Clock::start().time(|| run_cell(cell, &now));
        out.span = (started, now());
        out.secs = secs;
        out
    });
    let run_end = now();
    let elapsed = (run_end - run_start) as f64 / 1e9;

    let mut sample = Sample {
        ops: grid.len() as u64,
        ..Sample::default()
    };
    let mut h = Fnv::new();
    if let Some(t) = trace {
        let run = t.open_at("sweep.run", run_start);
        for out in &outs {
            let cell = t.open_at("sweep.cell", out.span.0);
            for &(name, s, e) in &out.calls {
                t.record(name, s, e);
            }
            t.close_at(cell, out.span.1);
        }
        t.close_at(run, run_end);
    }
    for (out, cell) in outs.iter().zip(grid) {
        for &v in &out.values {
            if out.exact {
                h.f64_bits(v);
            } else {
                h.f64_rounded(v);
            }
        }
        if let Some(e) = &out.error {
            sample.error.get_or_insert_with(|| e.clone());
        }
        if let Some(paper) = reference.lookup(unit, cell) {
            sample.cells.push((out.headline, paper));
        }
        sample.delivered_generated.0 += out.delivered_generated.0;
        sample.delivered_generated.1 += out.delivered_generated.1;
        sample.timed_s.push(out.secs);
    }
    // The engine's own time is what the cells and their clock readings
    // leave of the whole, at the cells' mean clock.
    let in_cells: f64 = outs
        .iter()
        .map(|o| (o.span.1 - o.span.0) as f64 / 1e9)
        .sum();
    let scale = sample.timed_s.iter().sum::<f64>() / in_cells;
    sample.timed_s.push((elapsed - in_cells).max(0.0) * scale);
    sample.fingerprint = h.finish();
    sample
}

impl Reference {
    /// The paper's value for `cell` of `unit`, if the paper has one.
    fn lookup(&self, unit: &SweepUnit, cell: &Cell) -> Option<f64> {
        match (unit, cell) {
            (SweepUnit::Table4 { kind_index, .. }, Cell::Measure { load, .. }) => self.table4(
                TABLE4_KINDS[*kind_index].name(),
                reference::TABLE4_COLUMNS[*load],
            ),
            (SweepUnit::Table4 { kind_index, .. }, Cell::Saturation { .. }) => {
                self.table4(TABLE4_KINDS[*kind_index].name(), "sat_thr")
            }
            (
                _,
                Cell::Markov {
                    kind,
                    slots,
                    traffic,
                },
            ) => self.table2(kind.name(), *slots, *traffic),
            _ => None,
        }
    }
}
