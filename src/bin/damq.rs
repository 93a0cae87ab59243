//! `damq` — command-line front end to the simulators and analyses.
//!
//! ```text
//! damq sim        run one network simulation and print its metrics
//! damq saturation find a configuration's saturation throughput
//! damq sweep      sweep offered load, CSV output
//! damq markov     evaluate one Table-2 Markov point
//! damq help       this text
//! ```
//!
//! Examples:
//!
//! ```sh
//! damq sim --buffer damq --load 0.6 --cycles 5000
//! damq saturation --buffer fifo --slots 8
//! damq sweep --buffer all --from 0.1 --to 0.8 --step 0.1 > curve.csv
//! damq markov --buffer damq --slots 3 --traffic 0.95
//! ```

use std::ops::{Bound, RangeBounds};
use std::process::ExitCode;

use damq::buffers::BufferKind;
use damq::markov::discard_probability;
use damq::net::{
    find_saturation, measure, ArrivalProcess, NetworkConfig, NetworkSim, SaturationOptions,
    TopologyKind, TrafficPattern,
};
use damq::switch::{ArbiterPolicy, FlowControl};

const HELP: &str = "\
damq - multi-queue switch buffer simulators (Tamir & Frazier, ISCA 1988)

USAGE:
    damq <COMMAND> [OPTIONS]

COMMANDS:
    sim         run one network simulation and print its metrics
    saturation  find a configuration's saturation throughput
    sweep       sweep offered load and print a CSV latency/throughput curve
    markov      evaluate one 2x2-switch Markov analysis point (prints the
                matrix-vector products the steady-state solve took: 1,
                the residual check, when the chain is eliminated)
    help        print this text

NETWORK OPTIONS (sim, saturation, sweep):
    --size N          terminals (default 64; power of the radix)
    --radix K         switch radix (default 4)
    --topology T      omega | butterfly (default omega)
    --buffer B        fifo | samq | safc | damq | dafc | all (default damq)
    --slots S         slots per input buffer (default 4)
    --arbiter A       smart | dumb (default smart)
    --flow F          blocking | discarding (default blocking)
    --hot-spot H      fraction of traffic to terminal 0 (default: uniform)
    --burst B         mean burst length in cycles (on/off sources)
    --duty D          fraction of time sources are on (with --burst)
    --load L          offered load per terminal per cycle (default 0.5)
    --cycles C        measurement window in network cycles (default 5000)
    --warmup W        warm-up cycles (default 500)
    --seed X          RNG seed (default 51966)

SWEEP OPTIONS (with the network options):
    --from L          first offered load (default 0.05)
    --to L            last offered load (default 0.9)
    --step S          load increment (default 0.05)

MARKOV OPTIONS:
    --buffer B        fifo | samq | safc | damq | dafc (default damq)
    --slots S         packets per input buffer (default 4)
    --traffic T       per-input arrival probability (default 0.9)
";

/// The options every network command (`sim`, `saturation`, `sweep`) reads.
const NETWORK_OPTIONS: &[&str] = &[
    "size", "radix", "topology", "buffer", "slots", "arbiter", "flow", "hot-spot", "burst", "duty",
    "load", "cycles", "warmup", "seed",
];

/// The options `sweep` reads besides the network options: the load range.
const SWEEP_RANGE_OPTIONS: &[&str] = &["from", "to", "step"];

/// The options `markov` reads.
const MARKOV_OPTIONS: &[&str] = &["buffer", "slots", "traffic"];

/// Minimal `--key value` argument map.
struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Reads `--key value` pairs, refusing any key outside `declared`:
    /// a misspelled option is an error, not a silently used default.
    fn parse(argv: &[String], declared: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = argv.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected an option, found {key:?}"));
            };
            if !declared.contains(&name) {
                return Err(format!("unknown option --{name}; try `damq help`"));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("option --{name} needs a value"))?;
            pairs.push((name.to_owned(), value.clone()));
        }
        Ok(Args { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn parse_as<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for --{name}")),
        }
    }

    /// `--name` as a finite number inside `range` (`wanted` says it in
    /// words). The library builders assert these intervals; a number from
    /// the command line is checked here, before it reaches one.
    fn in_range(
        &self,
        name: &str,
        default: f64,
        range: impl RangeBounds<f64>,
        wanted: &str,
    ) -> Result<f64, String> {
        let v = self.parse_as(name, default)?;
        if v.is_finite() && range.contains(&v) {
            Ok(v)
        } else {
            Err(format!("--{name} must be {wanted}, got {v}"))
        }
    }
}

const PROBABILITY: &str = "a probability in [0, 1]";

fn buffer_kind(name: &str) -> Result<BufferKind, String> {
    match name {
        "fifo" => Ok(BufferKind::Fifo),
        "samq" => Ok(BufferKind::Samq),
        "safc" => Ok(BufferKind::Safc),
        "damq" => Ok(BufferKind::Damq),
        "dafc" => Ok(BufferKind::Dafc),
        other => Err(format!("unknown buffer kind {other:?}")),
    }
}

/// The designs `--buffer` selects, each checked against `base` by
/// building its network once: a configuration one design rejects (SAMQ
/// with a capacity the fanout does not divide) fails before any design
/// prints a row.
fn buffer_kinds(args: &Args, base: NetworkConfig) -> Result<Vec<BufferKind>, String> {
    let kinds = match args.get("buffer").unwrap_or("damq") {
        "all" => BufferKind::EXTENDED.to_vec(),
        one => vec![buffer_kind(one)?],
    };
    for &kind in &kinds {
        NetworkSim::new(base.buffer_kind(kind)).map_err(|e| format!("{kind}: {e}"))?;
    }
    Ok(kinds)
}

fn network_config(args: &Args) -> Result<NetworkConfig, String> {
    let size = args.parse_as("size", 64usize)?;
    let radix = args.parse_as("radix", 4usize)?;
    let mut cfg = NetworkConfig::new(size, radix)
        .slots_per_buffer(args.parse_as("slots", 4usize)?)
        .offered_load(args.in_range("load", 0.5, 0.0..=1.0, PROBABILITY)?)
        .seed(args.parse_as("seed", 0xCAFEu64)?);
    cfg = match args.get("topology").unwrap_or("omega") {
        "omega" => cfg.topology_kind(TopologyKind::Omega),
        "butterfly" => cfg.topology_kind(TopologyKind::Butterfly),
        other => return Err(format!("unknown topology {other:?}")),
    };
    cfg = match args.get("arbiter").unwrap_or("smart") {
        "smart" => cfg.arbiter_policy(ArbiterPolicy::Smart),
        "dumb" => cfg.arbiter_policy(ArbiterPolicy::Dumb),
        other => return Err(format!("unknown arbiter {other:?}")),
    };
    cfg = match args.get("flow").unwrap_or("blocking") {
        "blocking" => cfg.flow_control(FlowControl::Blocking),
        "discarding" => cfg.flow_control(FlowControl::Discarding),
        other => return Err(format!("unknown flow control {other:?}")),
    };
    if args.get("burst").is_some() || args.get("duty").is_some() {
        let mean_burst = args.in_range("burst", 12.0, 1.0.., "at least 1 cycle")?;
        let on_fraction = (Bound::Excluded(0.0), Bound::Included(1.0));
        let duty = args.in_range("duty", 0.5, on_fraction, "a fraction in (0, 1]")?;
        cfg = cfg.arrival_process(ArrivalProcess::OnOff { mean_burst, duty });
    }
    if args.get("hot-spot").is_some() {
        let fraction = args.in_range("hot-spot", 0.0, 0.0..=1.0, PROBABILITY)?;
        cfg = cfg.traffic(TrafficPattern::HotSpot {
            fraction,
            target: damq::buffers::NodeId::new(0),
        });
    }
    Ok(cfg)
}

fn cmd_sim(args: &Args) -> Result<(), String> {
    let base = network_config(args)?;
    let warmup = args.parse_as("warmup", 500u64)?;
    let cycles = args.parse_as("cycles", 5_000u64)?;
    for kind in buffer_kinds(args, base)? {
        let m = measure(base.buffer_kind(kind), warmup, cycles)
            .map_err(|e| format!("simulation failed: {e}"))?;
        // A percentile beyond the latency histogram's cap is a lower bound.
        let bound = |clipped| if clipped { ">=" } else { "" };
        println!(
            "{:<5} offered {:.3}  delivered {:.3}  latency {:.1} clk (p95 {}{:.0}, p99 {}{:.0})  \
             discards {:.2}%  backlog {}",
            kind.name(),
            m.offered,
            m.delivered,
            m.latency_clocks,
            bound(m.latency_p95_clipped),
            m.latency_p95_clocks,
            bound(m.latency_p99_clipped),
            m.latency_p99_clocks,
            m.discard_fraction * 100.0,
            m.source_backlog,
        );
    }
    Ok(())
}

fn cmd_saturation(args: &Args) -> Result<(), String> {
    let base = network_config(args)?;
    let options = SaturationOptions {
        warm_up: args.parse_as("warmup", 500u64)?,
        window: args.parse_as("cycles", 2_000u64)?,
        ..SaturationOptions::default()
    };
    for kind in buffer_kinds(args, base)? {
        let r = find_saturation(base.buffer_kind(kind), options)
            .map_err(|e| format!("search failed: {e}"))?;
        println!(
            "{:<5} saturation {:.2}  latency-at-knee {:.1} clk  ({} probes)",
            kind.name(),
            r.throughput,
            r.saturated_latency_clocks,
            r.probes,
        );
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let base = network_config(args)?;
    let warmup = args.parse_as("warmup", 500u64)?;
    let cycles = args.parse_as("cycles", 3_000u64)?;
    let from = args.in_range("from", 0.05, 0.0..=1.0, PROBABILITY)?;
    let to = args.in_range("to", 0.9, 0.0..=1.0, PROBABILITY)?;
    let step = args.parse_as("step", 0.05f64)?;
    if step <= 0.0 || to < from {
        return Err("need --from <= --to and --step > 0".into());
    }
    let kinds = buffer_kinds(args, base)?;
    println!("buffer,offered,delivered,latency_clocks,latency_p99_clocks,discard_fraction");
    let mut warned = false;
    for kind in kinds {
        let mut load = from;
        while load <= to + 1e-9 {
            // Accumulated steps may overshoot `--to 1` by an ulp.
            let config = base.buffer_kind(kind).offered_load(load.min(1.0));
            let m =
                measure(config, warmup, cycles).map_err(|e| format!("simulation failed: {e}"))?;
            println!(
                "{},{:.3},{:.4},{:.2},{:.1},{:.5}",
                kind.name(),
                load,
                m.delivered,
                m.latency_clocks,
                m.latency_p99_clocks,
                m.discard_fraction,
            );
            if m.latency_p99_clipped && !warned {
                warned = true;
                eprintln!(
                    "warning: latency_p99_clocks is clipped at the histogram cap \
                     ({:.0} clocks) from {} at load {load:.3} on; read it as a lower bound",
                    m.latency_p99_clocks,
                    kind.name(),
                );
            }
            load += step;
        }
    }
    Ok(())
}

fn cmd_markov(args: &Args) -> Result<(), String> {
    let kind = buffer_kind(args.get("buffer").unwrap_or("damq"))?;
    let slots = args.parse_as("slots", 4usize)?;
    if slots == 0 {
        return Err("--slots must be at least 1".into());
    }
    let traffic = args.in_range("traffic", 0.9, 0.0..=1.0, PROBABILITY)?;
    let p =
        discard_probability(kind, slots, traffic).map_err(|e| format!("analysis failed: {e}"))?;
    println!(
        "{} slots={slots} traffic={traffic}: discard {:.6}  throughput {:.4}/cycle  \
         occupancy {:.3} pkts  wait {:.3} cycles  ({} states, {} iterations)",
        kind.name(),
        p.discard_probability,
        p.throughput,
        p.mean_occupancy,
        p.mean_wait_cycles,
        p.states,
        p.iterations,
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().map(String::as_str) else {
        eprint!("{HELP}");
        return ExitCode::FAILURE;
    };
    // `--help` anywhere — `damq markov --help` — is a request for the
    // usage text, not an option missing its value.
    if command == "help" || argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }
    type Command = fn(&Args) -> Result<(), String>;
    let (run, declared): (Command, Vec<&str>) = match command {
        "sim" => (cmd_sim, NETWORK_OPTIONS.to_vec()),
        "saturation" => (cmd_saturation, NETWORK_OPTIONS.to_vec()),
        "sweep" => (cmd_sweep, [NETWORK_OPTIONS, SWEEP_RANGE_OPTIONS].concat()),
        "markov" => (cmd_markov, MARKOV_OPTIONS.to_vec()),
        other => {
            eprintln!("error: unknown command {other:?}; try `damq help`");
            return ExitCode::FAILURE;
        }
    };
    match Args::parse(&argv[1..], &declared).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
