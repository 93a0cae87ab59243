//! Stand-alone probes of single layers, timed from outside through their
//! public functions. Their work is fixed, so they cost the same few seconds
//! in every traced run, whatever the workload.

use std::hint::black_box;
use std::time::Instant;

use damq_bench::sweep;
use damq_core::{
    BufferConfig, BufferKind, FrontMeta, InputPort, NodeId, OutputPort, Packet, SwitchBuffer,
};
use damq_markov::{
    BufferModel2x2, Chain, CycleOrder, DamqModel, FifoModel, MarkovModel, SolveOptions, Switch2x2,
};
use damq_microarch::{Chip, ChipConfig, ChipEvent, RouteEntry};
use damq_net::{find_saturation, measure, NetworkConfig, NetworkSim, SaturationOptions};
use damq_rng::{rngs::StdRng, Rng, SeedableRng};
use damq_switch::{CycleSink, FlowControl, Switch, SwitchConfig};
use damq_telemetry::{LogHistogram, MemorySink};

use crate::clock::Clock;
use crate::stats;
use crate::workloads;

/// Metric name and value, in emission order.
pub type Metrics = Vec<(String, f64)>;

/// Nanoseconds per call of `f`: the fastest of `batches` batches of `ops`
/// calls, after one batch to warm up.
fn ns_per_op(batches: usize, ops: u64, mut f: impl FnMut()) -> f64 {
    let mut clock = Clock::start();
    let mut batch = || {
        let ((), secs) = clock.time(|| {
            for _ in 0..ops {
                f();
            }
        });
        secs * 1e9 / ops as f64
    };
    batch();
    let samples: Vec<f64> = (0..batches).map(|_| batch()).collect();
    stats::fast(&samples)
}

/// Runs every closure once per round, in turn, so all of them see the same
/// noise; returns each one's fastest time in seconds.
pub fn round_robin_fastest(runs: &mut [Box<dyn FnMut() + '_>], rounds: usize) -> Vec<f64> {
    let mut samples = vec![Vec::with_capacity(rounds); runs.len()];
    let mut clock = Clock::start();
    for _ in 0..rounds {
        for (run, samples) in runs.iter_mut().zip(&mut samples) {
            samples.push(clock.time(run).1);
        }
    }
    samples.iter().map(|s| stats::fast(s)).collect()
}

fn packet(bytes: usize) -> Packet {
    Packet::builder(NodeId::new(0), NodeId::new(1))
        .length_bytes(bytes)
        .build()
}

fn lower(kind: BufferKind) -> String {
    kind.name().to_lowercase()
}

/// `damq-core`: the buffer operations the cycle kernel is made of.
fn core(out: &mut Metrics) {
    const BATCHES: usize = 7;
    for kind in BufferKind::EXTENDED {
        let d = lower(kind);
        let build = || {
            BufferConfig::new(4, 4)
                .build_any(kind)
                .expect("4 slots suit every design")
        };
        let single = packet(8);

        let mut buf = build();
        let ns = ns_per_op(BATCHES, 20_000, || {
            for o in 0..4 {
                let stored = buf.try_enqueue(OutputPort::new(o), black_box(single.clone()));
                debug_assert!(stored.is_ok());
            }
            for o in 0..4 {
                black_box(buf.dequeue(OutputPort::new(o)));
            }
        });
        out.push((format!("core.enq_deq_ns.{d}"), ns / 4.0));

        // Every queue holds one packet, which fills all five designs.
        let mut buf = build();
        for o in 0..4 {
            buf.try_enqueue(OutputPort::new(o), single.clone())
                .expect("empty buffer has room");
        }
        let mut spare = Some(single.clone());
        let ns = ns_per_op(BATCHES, 80_000, || {
            let p = spare.take().expect("the rejected packet comes back");
            let rejected = buf
                .try_enqueue(OutputPort::new(0), p)
                .expect_err("buffer is full");
            spare = Some(rejected.into_packet());
        });
        out.push((format!("core.reject_ns.{d}"), ns));

        let ns = ns_per_op(BATCHES, 40_000, || {
            let buf = black_box(&buf);
            let mut acc = 0usize;
            for o in 0..4 {
                let o = OutputPort::new(o);
                acc += buf.front_meta(o).map_or(0, |m| m.length_bytes as usize);
                acc += buf.accept_capacity(o) + buf.queue_len(o);
            }
            black_box(acc);
        });
        out.push((format!("core.probe_ns.{d}"), ns));
    }
    for kind in [BufferKind::Fifo, BufferKind::Damq, BufferKind::Dafc] {
        let mut buf = BufferConfig::new(4, 12)
            .build_any(kind)
            .expect("12 slots suit these");
        let packets = [packet(32), packet(16), packet(8)];
        let ns = ns_per_op(BATCHES, 20_000, || {
            for (o, p) in packets.iter().enumerate() {
                let stored = buf.try_enqueue(OutputPort::new(o), black_box(p.clone()));
                debug_assert!(stored.is_ok());
            }
            for o in 0..3 {
                black_box(buf.dequeue(OutputPort::new(o)));
            }
        });
        out.push((format!("core.varlen_enq_deq_ns.{}", lower(kind)), ns / 3.0));
    }
}

/// A sink that lets every head go, or none, and counts departures.
struct CountingSink {
    accept: bool,
    departures: u64,
}

impl CycleSink for CountingSink {
    fn can_send(&mut self, _output: OutputPort, _front: FrontMeta) -> bool {
        self.accept
    }

    fn depart(&mut self, _input: InputPort, _output: OutputPort, packet: Packet) {
        self.departures += 1;
        black_box(packet);
    }
}

fn switch_of(kind: BufferKind) -> Switch {
    Switch::new(SwitchConfig::new(4).buffer_kind(kind).slots_per_buffer(4))
        .expect("4 slots suit every design")
}

/// `damq-switch`: one arbitration cycle of a 4×4 switch in each regime.
fn switch(out: &mut Metrics) {
    const BATCHES: usize = 7;
    let p = packet(8);
    let sink = |accept| CountingSink {
        accept,
        departures: 0,
    };
    for kind in BufferKind::EXTENDED {
        let mut sw = switch_of(kind);
        let mut all = sink(true);
        let mut shift = 0;
        let ns = ns_per_op(BATCHES, 20_000, || {
            // Each input gets a packet for a different output, so all four
            // leave this cycle.
            for i in 0..4 {
                let _ = sw.receive(
                    InputPort::new(i),
                    OutputPort::new((i + shift) % 4),
                    p.clone(),
                );
            }
            shift = (shift + 1) % 4;
            sw.transmit_cycle_with(&mut all);
        });
        out.push((format!("switch.busy_cycle_ns.{}", lower(kind)), ns));
    }

    // Every input wants output 0: one departs per cycle, the buffers stay
    // full and three of four refills are rejected.
    let mut sw = switch_of(BufferKind::Damq);
    let mut all = sink(true);
    let ns = ns_per_op(BATCHES, 20_000, || {
        for i in 0..4 {
            let _ = sw.receive(InputPort::new(i), OutputPort::new(0), p.clone());
        }
        sw.transmit_cycle_with(&mut all);
    });
    out.push(("switch.contended_cycle_ns".to_owned(), ns));
    // Untimed: the same cycles again, counting the heads that wanted to
    // leave against the ones that did.
    let (mut heads, departed) = (0u64, all.departures);
    for _ in 0..1_000 {
        for i in 0..4 {
            let _ = sw.receive(InputPort::new(i), OutputPort::new(0), p.clone());
            heads += u64::from(sw.buffer(InputPort::new(i)).queue_len(OutputPort::new(0)) > 0);
        }
        sw.transmit_cycle_with(&mut all);
    }
    out.push((
        "switch.grant_ratio".to_owned(),
        (all.departures - departed) as f64 / heads.max(1) as f64,
    ));

    let mut sw = switch_of(BufferKind::Damq);
    for i in 0..4 {
        for o in 0..4 {
            sw.receive(InputPort::new(i), OutputPort::new(o), p.clone())
                .expect("room for four");
        }
    }
    let mut none = sink(false);
    let ns = ns_per_op(BATCHES, 20_000, || sw.transmit_cycle_with(&mut none));
    out.push(("switch.blocked_cycle_ns".to_owned(), ns));

    let mut sw = switch_of(BufferKind::Damq);
    let mut all = sink(true);
    let ns = ns_per_op(BATCHES, 40_000, || sw.transmit_cycle_with(&mut all));
    out.push(("switch.empty_cycle_ns".to_owned(), ns));
    let ns = ns_per_op(BATCHES, 400_000, || black_box(&mut sw).note_idle_cycle());
    out.push(("switch.idle_note_ns".to_owned(), ns));

    // Receives alone: fill fresh switches, which are rebuilt outside the
    // timed part.
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut fresh: Vec<Switch> = (0..256).map(|_| switch_of(BufferKind::Damq)).collect();
            let ((), secs) = Clock::start().time(|| {
                for sw in &mut fresh {
                    for i in 0..4 {
                        for o in 0..4 {
                            let _ = sw.receive(InputPort::new(i), OutputPort::new(o), p.clone());
                        }
                    }
                }
            });
            black_box(&fresh);
            secs * 1e9 / (256.0 * 16.0)
        })
        .collect();
    out.push(("switch.receive_ns".to_owned(), stats::fast(&samples)));
}

/// `damq-shard` through `NetworkSim::with_threads`: does stepping one large
/// network on two lanes beat one, and where does the time go.
fn shard(config: NetworkConfig, out: &mut Metrics) {
    const WARM_UP: u64 = 100;
    const CHUNK: u64 = 50;
    const ROUNDS: usize = 4;
    let build = |threads: usize, timing: bool| {
        let sim = NetworkSim::new(config)
            .expect("valid config")
            .with_threads(threads);
        let mut sim = if timing { sim.with_phase_timing() } else { sim };
        sim.run(WARM_UP);
        sim
    };
    let (mut serial, mut two, mut timed) = (build(1, false), build(2, false), build(2, true));
    timed.phase_profile();
    let fastest = round_robin_fastest(
        &mut [
            Box::new(|| serial.run(CHUNK)),
            Box::new(|| two.run(CHUNK)),
            Box::new(|| timed.run(CHUNK)),
        ],
        ROUNDS,
    );
    let profile = timed.phase_profile();
    let total = profile.total_ns().max(1) as f64;
    out.push(("shard.t2_speedup".to_owned(), fastest[0] / fastest[1]));
    out.push((
        "shard.busy_share".to_owned(),
        profile.busy_ns() as f64 / total,
    ));
    out.push(("shard.barrier_share".to_owned(), profile.barrier_share()));
    out.push(("shard.merge_share".to_owned(), profile.merge_share()));
    out.push(("shard.phases".to_owned(), profile.phases as f64));
    out.push(("shard.timing_on_ratio".to_owned(), fastest[2] / fastest[1]));
}

/// The sweep engine on a small Table-4-shaped grid: two designs, two loads
/// measured and one quick saturation search each.
fn sweep_engine(seed: u64, out: &mut Metrics) {
    #[derive(Clone, Copy)]
    enum Cell {
        Measure(NetworkConfig),
        Saturation(NetworkConfig),
    }
    let base = NetworkConfig::new(64, 4)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Blocking);
    let mut grid = Vec::new();
    for (k, kind) in [BufferKind::Fifo, BufferKind::Damq].into_iter().enumerate() {
        for (l, load) in [0.3, 0.5].into_iter().enumerate() {
            let seed = sweep::cell_seed(seed, &[k as u64, l as u64]);
            grid.push(Cell::Measure(
                base.buffer_kind(kind).offered_load(load).seed(seed),
            ));
        }
        let seed = sweep::cell_seed(seed, &[k as u64, u64::MAX]);
        grid.push(Cell::Saturation(base.buffer_kind(kind).seed(seed)));
    }
    let quick = SaturationOptions {
        warm_up: 100,
        window: 400,
        resolution: 0.02,
        ..SaturationOptions::default()
    };
    // Runs the grid; per cell, whether it was a saturation search and its
    // wall-clock seconds.
    let run = |workers: usize| -> Vec<(bool, f64)> {
        sweep::run_with_workers(&grid, workers, |cell| {
            let start = Instant::now();
            let saturation = match *cell {
                Cell::Measure(config) => {
                    black_box(measure(config, 200, 1_500).expect("valid config"));
                    false
                }
                Cell::Saturation(config) => {
                    black_box(find_saturation(config, quick).expect("valid config"));
                    true
                }
            };
            (saturation, start.elapsed().as_secs_f64())
        })
    };
    let mut w1 = Vec::new();
    let mut w2 = Vec::new();
    let mut cells = Vec::new();
    let mut self_share = 0.0;
    let mut clock = Clock::start();
    for _ in 0..2 {
        w2.push(clock.time(|| run(2)).1);
        // Wall-clock here, to set against the cells' own wall-clock times.
        let start = Instant::now();
        let (ran, secs) = clock.time(|| run(1));
        let elapsed = start.elapsed().as_secs_f64();
        w1.push(secs);
        cells = ran;
        let in_cells: f64 = cells.iter().map(|c| c.1).sum();
        self_share = (elapsed - in_cells).max(0.0) / elapsed;
    }
    let in_cells: f64 = cells.iter().map(|c| c.1).sum();
    let slowest = cells.iter().map(|c| c.1).fold(0.0, f64::max);
    let saturation: f64 = cells.iter().filter(|c| c.0).map(|c| c.1).sum();
    let (w1, w2) = (stats::fast(&w1), stats::fast(&w2));
    out.push(("sweep.cells_per_sec_w1".to_owned(), grid.len() as f64 / w1));
    out.push(("sweep.cells_per_sec_w2".to_owned(), grid.len() as f64 / w2));
    out.push(("sweep.speedup_w2".to_owned(), w1 / w2));

    let trivial: Vec<u64> = (0..10_000).collect();
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let (results, secs) = clock.time(|| sweep::run_with_workers(&trivial, 1, |&c| c + 1));
            black_box(results);
            secs * 1e9 / trivial.len() as f64
        })
        .collect();
    out.push(("sweep.engine_ns_per_cell".to_owned(), stats::fast(&samples)));
    out.push(("sweep.self_share".to_owned(), self_share));
    out.push(("sweep.slowest_cell_share".to_owned(), slowest / in_cells));
    out.push(("sweep.saturation_share".to_owned(), saturation / in_cells));
}

/// Explore and solve times of one Table 2 chain, summed into `totals`
/// (explore, power iteration, Gauss-Seidel).
fn markov_chain<M>(name: &str, model: impl Fn() -> M, totals: &mut [f64; 3], out: &mut Metrics)
where
    M: BufferModel2x2,
    Switch2x2<M>: MarkovModel<State = M::State>,
{
    let options = SolveOptions::default();
    let mut samples = [Vec::new(), Vec::new(), Vec::new()];
    let mut states = 0;
    let mut clock = Clock::start();
    for _ in 0..3 {
        let switch = Switch2x2::new(model(), 0.99, CycleOrder::ArrivalsFirst);
        let (chain, secs) = clock.time(|| Chain::explore(&switch));
        samples[0].push(secs * 1e9);
        let (solved, secs) = clock.time(|| chain.steady_state(options));
        samples[1].push(secs * 1e9);
        black_box(solved.expect("Table 2 chains converge"));
        let (solved, secs) = clock.time(|| chain.steady_state_gauss_seidel(options));
        samples[2].push(secs * 1e9);
        black_box(solved.expect("Table 2 chains converge"));
        states = chain.state_count();
    }
    let fastest = samples.map(|s| stats::fast(&s));
    out.push((format!("markov.explore_ns.{name}_cap6"), fastest[0]));
    out.push((format!("markov.solve_ns.{name}_cap6"), fastest[1]));
    out.push((format!("markov.states.{name}_cap6"), states as f64));
    for (total, ns) in totals.iter_mut().zip(fastest) {
        *total += ns;
    }
}

/// `damq-markov`: exploring and solving the two largest Table 2 chains at
/// 99 % traffic.
fn markov(out: &mut Metrics) {
    let mut totals = [0.0; 3];
    markov_chain("fifo", || FifoModel::new(6), &mut totals, out);
    markov_chain("damq", || DamqModel::new(6), &mut totals, out);
    let [explore, solve, gauss_seidel] = totals;
    out.push((
        "markov.explore_share".to_owned(),
        explore / (explore + solve),
    ));
    out.push(("markov.gauss_seidel_ratio".to_owned(), gauss_seidel / solve));
}

fn streaming_chip() -> Chip {
    let mut chip = Chip::new(ChipConfig::comcobb());
    for input in 0..5 {
        let entry = RouteEntry {
            output: (input + 1) % 5,
            new_header: input as u8,
        };
        chip.program_route(input, input as u8, entry)
            .expect("valid route");
    }
    chip
}

/// `damq-microarch`: one ComCoBB clock, busy and idle, and the cut-through
/// latency of Table 1.
fn microarch(out: &mut Metrics) {
    const TICKS: u64 = 4_000;
    let mut chip = streaming_chip();
    // Enough packets on every wire to outlast all the timed ticks.
    for input in 0..5 {
        let mut at = 0;
        for _ in 0..1_000 {
            at = chip
                .input_wire_mut(input)
                .drive_packet(at, input as u8, &[0xAB; 32]);
        }
    }
    chip.set_trace_enabled(false);
    let ns = ns_per_op(5, TICKS, || chip.tick());
    out.push(("microarch.tick_busy_ns".to_owned(), ns));
    let mut idle = streaming_chip();
    idle.set_trace_enabled(false);
    let ns = ns_per_op(5, TICKS, || idle.tick());
    out.push(("microarch.tick_idle_ns".to_owned(), ns));

    let mut chip = Chip::new(ChipConfig::comcobb());
    let entry = RouteEntry {
        output: 2,
        new_header: 0x21,
    };
    chip.program_route(0, 0x20, entry).expect("valid route");
    chip.input_wire_mut(0)
        .drive_packet(0, 0x20, &[0xA, 0xB, 0xC, 0xD]);
    chip.run_to_quiescence(64);
    let cycle_of = |wanted: fn(&ChipEvent) -> bool| {
        chip.trace()
            .first(|e| wanted(&e.event))
            .map_or(0, |e| e.cycle)
    };
    let start_in = cycle_of(|e| matches!(e, ChipEvent::StartBitDetected));
    let start_out = cycle_of(|e| matches!(e, ChipEvent::StartBitSent));
    out.push((
        "microarch.cut_through_cycles".to_owned(),
        (start_out - start_in) as f64,
    ));
}

/// `damq-telemetry`: what instrumentation costs when it is switched on.
fn telemetry(config: NetworkConfig, out: &mut Metrics) {
    const WARM_UP: u64 = 1_000;
    const CHUNK: u64 = 400;
    const ROUNDS: usize = 4;
    let mut plain = NetworkSim::new(config).expect("valid config");
    let mut registry = NetworkSim::new(config)
        .expect("valid config")
        .with_metrics();
    let mut traced = NetworkSim::with_sink(config, MemorySink::new()).expect("valid config");
    plain.run(WARM_UP);
    registry.run(WARM_UP);
    traced.run(WARM_UP);
    let mut events = 0;
    let fastest = round_robin_fastest(
        &mut [
            Box::new(|| plain.run(CHUNK)),
            Box::new(|| registry.run(CHUNK)),
            Box::new(|| {
                // Cleared each round so the sink's memory stays flat.
                traced.sink_mut().clear();
                traced.run(CHUNK);
                events = traced.sink().len();
            }),
        ],
        ROUNDS,
    );
    out.push((
        "telemetry.registry_on_ratio".to_owned(),
        fastest[1] / fastest[0],
    ));
    out.push((
        "telemetry.memory_sink_ratio".to_owned(),
        fastest[2] / fastest[0],
    ));
    out.push((
        "telemetry.events_per_cycle".to_owned(),
        events as f64 / CHUNK as f64,
    ));

    let mut hist = LogHistogram::new();
    let mut value = 1u64;
    let ns = ns_per_op(7, 400_000, || {
        value = value
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        hist.observe(value >> 44);
    });
    black_box(hist.count());
    out.push(("telemetry.hist_record_ns".to_owned(), ns));
}

/// `damq-rng`: the generator behind every per-terminal generation draw.
fn rng(seed: u64, out: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ns = ns_per_op(7, 1_000_000, || {
        black_box(rng.next_u64());
    });
    out.push(("rng.u64_ns".to_owned(), ns));
    let ns = ns_per_op(7, 1_000_000, || {
        black_box(rng.next_f64());
    });
    out.push(("rng.f64_ns".to_owned(), ns));
}

/// Runs every stand-alone probe.
pub fn all(seed: u64, out: &mut Metrics) {
    core(out);
    switch(out);
    shard(workloads::large_config(seed), out);
    sweep_engine(seed, out);
    markov(out);
    microarch(out);
    telemetry(workloads::hot_spot_config(seed), out);
    rng(seed, out);
}
