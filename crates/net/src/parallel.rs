//! Sharded stepping: stage islands, the phase engine, and the
//! deterministic departure merge.
//!
//! [`NetworkSim::with_threads`](crate::NetworkSim::with_threads) splits
//! every pipeline stage into contiguous **islands** of switches
//! ([`IslandPartition`]) and steps each stage in two phases:
//!
//! * **Phase A (parallel)** — every island arbitrates its switches with
//!   [`Switch::transmit_cycle_with`], probing downstream space through
//!   `&self` reads, and parks each departure in its island's
//!   [`StageLane`] as a [`DepartRecord`].
//! * **Phase B (serial merge)** — the lanes drain in ascending island
//!   (and therefore switch) order, replaying the exact serial departure
//!   loop: misroute faults, route fallback, telemetry events, receives,
//!   metrics.
//!
//! # Determinism
//!
//! Phase A touches pairwise-disjoint state: each switch's buffers are
//! its own, and in these banyan-class topologies every downstream
//! `(switch, input port)` is wired to exactly one upstream
//! `(switch, output)` (pinned by the topology tests), so no island's
//! probes can observe another island's work — a stage's probes read only
//! *downstream* buffers, which no phase-A transmit mutates. Phase B is
//! the only writer of shared state (downstream buffers, metrics,
//! telemetry, fault counters) and always runs in the same order, so a
//! serial run and an N-thread run produce byte-identical traces and
//! metrics. See `docs/ARCHITECTURE.md` for the full argument.

use damq_core::{OutputPort, Packet, SwitchBuffer};
use damq_shard::PhasePool;
use damq_switch::Switch;

use crate::topology::HopRoute;

/// A contiguous split of one stage's switches into islands, one per
/// simulation lane.
///
/// Islands are as even as possible: `switches` mod `islands` leading
/// islands get one extra switch. The island count is clamped to
/// `1..=switches`, so both degenerate shapes — one island holding the
/// whole stage, and one island per switch — are valid partitions.
///
/// # Examples
///
/// ```
/// use damq_net::IslandPartition;
///
/// let p = IslandPartition::new(16, 4);
/// assert_eq!(p.islands(), 4);
/// assert_eq!(p.bounds(), &[0, 4, 8, 12, 16]);
/// assert_eq!(IslandPartition::new(5, 3).bounds(), &[0, 2, 4, 5]);
/// assert_eq!(IslandPartition::new(4, 99).islands(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IslandPartition {
    bounds: Vec<usize>,
}

impl IslandPartition {
    /// Partitions `switches` switches into at most `islands` contiguous
    /// islands (at least one; never more than there are switches).
    pub fn new(switches: usize, islands: usize) -> Self {
        let switches = switches.max(1);
        let islands = islands.clamp(1, switches);
        let base = switches / islands;
        let rem = switches % islands;
        let mut bounds = Vec::with_capacity(islands + 1);
        bounds.push(0);
        let mut at = 0;
        for i in 0..islands {
            at += base + usize::from(i < rem);
            bounds.push(at);
        }
        IslandPartition { bounds }
    }

    /// Number of islands.
    pub fn islands(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Island edges: island `i` owns switches
    /// `bounds()[i]..bounds()[i + 1]`.
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// The island that owns `switch`.
    ///
    /// # Panics
    ///
    /// Panics if `switch` is outside the partitioned range.
    pub fn island_of(&self, switch: usize) -> usize {
        self.bounds
            .windows(2)
            .position(|w| (w[0]..w[1]).contains(&switch))
            // lint: allow — contract documented above; bounds cover the range.
            .unwrap_or_else(|| panic!("switch {switch} outside partition"))
    }
}

/// Wall-clock phase breakdown drained from a sharded
/// [`NetworkSim`](crate::NetworkSim) by
/// [`NetworkSim::phase_profile`](crate::NetworkSim::phase_profile).
///
/// All values are nanoseconds of *harness* wall-clock — where the
/// stepping loop spends real time, never simulated cycles. Three
/// buckets decompose a sharded run: phase-A busy time per lane,
/// the submitting thread's barrier wait (its idle share while
/// stragglers finish), and the serial phase-B merge. The other three
/// complete the stepping thread's cycle at any lane count, one lane
/// included: `generate_ns + arbitrate_ns + merge_ns + inject_ns` is a
/// fault-free, uninstrumented [`step`](crate::NetworkSim::step).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Per-lane phase-A busy time (lane 0 is the stepping thread).
    pub lane_busy_ns: Vec<u64>,
    /// Stepping thread's time blocked at the phase-A barrier.
    pub barrier_wait_ns: u64,
    /// Serial phase-B merge time (departure apply, in switch order).
    pub merge_ns: u64,
    /// Phases executed while profiling was enabled.
    pub phases: u64,
    /// Serial packet generation (the arrival draws of every source).
    pub generate_ns: u64,
    /// Phase A as the stepping thread sees it: lane 0's busy time, its
    /// barrier wait, and the dispatch around them.
    pub arbitrate_ns: u64,
    /// Serial injection from the occupied sources.
    pub inject_ns: u64,
}

impl PhaseProfile {
    /// Total phase-A busy nanoseconds across all lanes.
    pub fn busy_ns(&self) -> u64 {
        self.lane_busy_ns.iter().sum()
    }

    /// Total accounted wall-clock: busy + barrier wait + merge.
    pub fn total_ns(&self) -> u64 {
        self.busy_ns() + self.barrier_wait_ns + self.merge_ns
    }

    /// Barrier-wait share of the accounted total, in `0.0..=1.0`
    /// (0 when nothing was profiled).
    pub fn barrier_share(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            return 0.0;
        }
        self.barrier_wait_ns as f64 / total as f64
    }

    /// Serial-merge share of the accounted total, in `0.0..=1.0`.
    pub fn merge_share(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            return 0.0;
        }
        self.merge_ns as f64 / total as f64
    }
}

/// One departure collected by phase A, applied by phase B.
///
/// `route` carries the backpressure probe's parked [`HopRoute`] under
/// the blocking protocol (so phase B routes each departure exactly once,
/// same as the serial loop); it is `None` under discarding flow control,
/// where only phase B routes.
#[derive(Debug)]
pub(crate) struct DepartRecord {
    /// Absolute switch index within the stage.
    pub(crate) sw: usize,
    /// The crossbar output the packet left through.
    pub(crate) output: OutputPort,
    /// The probe's parked route (blocking protocol only).
    pub(crate) route: Option<HopRoute>,
    /// The departing packet.
    pub(crate) packet: Packet,
}

/// Per-island working memory: the probe's route scratch and the
/// departure records the island collected this phase. Reused every
/// cycle, so steady-state stepping stays allocation-free.
#[derive(Debug)]
pub(crate) struct StageLane {
    /// Per-output parked probe routes (reset per switch).
    pub(crate) scratch: Vec<Option<HopRoute>>,
    /// Departures collected by this island, in switch order.
    pub(crate) records: Vec<DepartRecord>,
    /// Switches this island advanced with the quiescent fast path this
    /// phase (reset per phase; summed serially into `net.idle_skipped`).
    pub(crate) idle_skipped: u64,
}

/// The sharded stage engine owned by a
/// [`NetworkSim`](crate::NetworkSim): a [`PhasePool`], the island
/// partition (identical for every stage), and one [`StageLane`] per
/// island.
#[derive(Debug)]
pub(crate) struct ParallelEngine {
    pool: PhasePool,
    partition: IslandPartition,
    lanes: Vec<StageLane>,
}

impl ParallelEngine {
    pub(crate) fn new(threads: usize, per_stage: usize, radix: usize) -> Self {
        let partition = IslandPartition::new(per_stage, threads.max(1));
        let lanes = (0..partition.islands())
            .map(|_| StageLane {
                scratch: vec![None; radix],
                records: Vec::new(),
                idle_skipped: 0,
            })
            .collect();
        ParallelEngine {
            pool: PhasePool::new(threads.max(1)),
            partition,
            lanes,
        }
    }

    /// Number of simulation lanes (threads) phases run on.
    pub(crate) fn threads(&self) -> usize {
        self.pool.threads()
    }

    pub(crate) fn islands(&self) -> usize {
        self.partition.islands()
    }

    pub(crate) fn partition(&self) -> &IslandPartition {
        &self.partition
    }

    /// Phase A: runs `per_switch` over every switch of `row`, islands in
    /// parallel, collecting into each island's [`StageLane`]. Lanes are
    /// cleared first; the call returns only after every island finishes.
    pub(crate) fn collect<B, C, F>(&mut self, row: &mut [Switch<B>], ctx: &C, per_switch: &F)
    where
        B: SwitchBuffer,
        C: Sync,
        F: Fn(usize, &mut Switch<B>, &mut StageLane, &C) + Sync,
    {
        for lane in &mut self.lanes {
            lane.records.clear();
            lane.idle_skipped = 0;
        }
        self.pool.run_phase(
            row,
            self.partition.bounds(),
            &mut self.lanes,
            ctx,
            &|_, start, chunk, lane, ctx| {
                for (i, switch) in chunk.iter_mut().enumerate() {
                    per_switch(start + i, switch, lane, ctx);
                }
            },
        );
    }

    /// Quiescent switches advanced by the idle fast path in the most
    /// recent phase, summed over every island (read serially after
    /// [`collect`](ParallelEngine::collect) returns).
    pub(crate) fn idle_skipped_in_phase(&self) -> u64 {
        self.lanes.iter().map(|l| l.idle_skipped).sum()
    }

    /// Phase B: drains island `island`'s records, in the order phase A
    /// collected them (ascending switch, then crossbar grant order).
    pub(crate) fn lane_records(&mut self, island: usize) -> std::vec::Drain<'_, DepartRecord> {
        self.lanes[island].records.drain(..)
    }

    /// Turns the pool's wall-clock phase timer on or off.
    pub(crate) fn set_timing(&self, enabled: bool) {
        self.pool.set_timing(enabled);
    }

    /// Drains the pool's accumulated phase-timer totals.
    pub(crate) fn take_times(&self) -> damq_shard::PhaseTimes {
        self.pool.take_times()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_partition_single_island_holds_everything() {
        let p = IslandPartition::new(16, 1);
        assert_eq!(p.islands(), 1);
        assert_eq!(p.bounds(), &[0, 16]);
        assert_eq!(p.island_of(0), 0);
        assert_eq!(p.island_of(15), 0);
    }

    #[test]
    fn degenerate_partition_one_island_per_switch() {
        let p = IslandPartition::new(16, 16);
        assert_eq!(p.islands(), 16);
        for sw in 0..16 {
            assert_eq!(p.island_of(sw), sw);
            assert_eq!(p.bounds()[sw + 1] - p.bounds()[sw], 1);
        }
        // More islands than switches clamps to one per switch.
        assert_eq!(IslandPartition::new(16, 64), p);
    }

    #[test]
    fn partition_is_contiguous_even_and_exhaustive() {
        for switches in [1usize, 3, 5, 16, 256] {
            for islands in [1usize, 2, 3, 4, 8, 300] {
                check_partition_invariants(switches, islands);
            }
        }
    }

    /// The full partition contract, checked for one `(switches, islands)`
    /// request: bounds cover `0..switches` contiguously, no island is
    /// empty, sizes differ by at most one, the island count is the
    /// clamped request, and `island_of` agrees with `bounds`.
    fn check_partition_invariants(switches: usize, islands: usize) {
        let p = IslandPartition::new(switches, islands);
        let b = p.bounds();
        let effective_switches = switches.max(1);
        assert_eq!(
            p.islands(),
            islands.clamp(1, effective_switches),
            "{switches}/{islands}: island count is the clamped request"
        );
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().expect("nonempty"), effective_switches);
        let sizes: Vec<usize> = b.windows(2).map(|w| w[1] - w[0]).collect();
        let min = sizes.iter().min().expect("nonempty");
        let max = sizes.iter().max().expect("nonempty");
        assert!(max - min <= 1, "{switches}/{islands}: uneven {sizes:?}");
        assert!(
            sizes.iter().all(|&s| s >= 1),
            "{switches}/{islands}: empty island in {sizes:?}"
        );
        for sw in 0..effective_switches {
            let island = p.island_of(sw);
            assert!(
                (b[island]..b[island + 1]).contains(&sw),
                "{switches}/{islands}: island_of({sw}) = {island} disagrees with bounds"
            );
        }
    }

    #[test]
    fn partition_property_random_shapes() {
        // Seeded property sweep over arbitrary shapes, weighted toward
        // the degenerate corners the satellite task names: requests with
        // more islands than switches (clamped, one switch each),
        // single-switch stages, and tiny stages split many ways.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x0151_A4D5);
        for _ in 0..500 {
            let switches = rng.random_range(1..=300usize);
            let islands = rng.random_range(1..=64usize);
            check_partition_invariants(switches, islands);
        }
        for _ in 0..250 {
            // threads > switches: always clamps to one island per switch.
            let switches = rng.random_range(1..=8usize);
            let islands = switches + rng.random_range(1..=64usize);
            let p = IslandPartition::new(switches, islands);
            assert_eq!(p.islands(), switches);
            assert!(p.bounds().windows(2).all(|w| w[1] - w[0] == 1));
            check_partition_invariants(switches, islands);
        }
        for _ in 0..100 {
            // Single-switch stages swallow any thread count whole.
            let islands = rng.random_range(1..=1024usize);
            let p = IslandPartition::new(1, islands);
            assert_eq!(p.islands(), 1);
            assert_eq!(p.bounds(), &[0, 1]);
        }
    }

    #[test]
    fn partition_zero_requests_are_clamped_not_empty() {
        // `new` clamps a zero-switch stage to one switch and a
        // zero-island request to one island — an *empty* partition (or
        // an empty island) can never be constructed.
        check_partition_invariants(0, 0);
        check_partition_invariants(0, 7);
        check_partition_invariants(9, 0);
        assert_eq!(IslandPartition::new(0, 0).bounds(), &[0, 1]);
        assert_eq!(IslandPartition::new(5, 0).islands(), 1);
    }
}
