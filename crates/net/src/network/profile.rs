//! Where a cycle's wall-clock goes: the phase profile and the one timer
//! every step of [`NetworkSim::step`] runs under.

// lint: allow — the phase profiler measures *harness* wall-clock (the
// steps of the cycle), never simulation state; cycle time in the
// simulator is the logical `cycle` counter, not `Instant`.
use std::time::Instant;

use damq_core::SwitchBuffer;
use damq_telemetry::{Event, TelemetrySink};

use super::NetworkSim;

/// Wall-clock split of the cycle loop, drained from a [`NetworkSim`] by
/// [`NetworkSim::phase_profile`].
///
/// All values are nanoseconds of *harness* wall-clock — where the
/// stepping loop spends real time, never simulated cycles. The seven
/// buckets are the steps of [`step`](NetworkSim::step) in the order they
/// run; a step that did not run (no fault plan, recovery off, registry
/// and sink disabled) leaves its bucket at zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Stage advances executed while profiling was enabled (stages ×
    /// cycles).
    pub phases: u64,
    /// Applying the fault plan's due events.
    pub faults_ns: u64,
    /// Recovery's start-of-cycle service: link-health beliefs and
    /// retransmit timers.
    pub recovery_ns: u64,
    /// Packet generation (the arrival draws of every source).
    pub generate_ns: u64,
    /// Every stage's arbitration pass.
    pub arbitrate_ns: u64,
    /// Every stage's merge pass (departures applied in switch order).
    pub merge_ns: u64,
    /// Injection from the occupied sources.
    pub inject_ns: u64,
    /// The end-of-cycle occupancy scan and cycle sample (registry or
    /// sink enabled).
    pub observe_ns: u64,
}

impl PhaseProfile {
    /// Total accounted wall-clock: the sum of the seven buckets.
    pub fn total_ns(&self) -> u64 {
        self.faults_ns
            + self.recovery_ns
            + self.generate_ns
            + self.arbitrate_ns
            + self.merge_ns
            + self.inject_ns
            + self.observe_ns
    }

    /// Merge share of the accounted total, in `0.0..=1.0` (0 when
    /// nothing was profiled).
    pub fn merge_share(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            return 0.0;
        }
        self.merge_ns as f64 / total as f64
    }

    // Pinned by `benchmark/src/probes.rs` (frozen): the arbitrate bucket.
    #[doc(hidden)]
    pub fn busy_ns(&self) -> u64 {
        self.arbitrate_ns
    }

    // Pinned by `benchmark/src/probes.rs` (frozen): one lane never waits.
    #[doc(hidden)]
    pub fn barrier_share(&self) -> f64 {
        0.0
    }
}

impl<B: SwitchBuffer, S: TelemetrySink<Event>> NetworkSim<B, S> {
    /// Runs one step of the cycle, charging its wall-clock to `bucket`
    /// of the phase profile when that is on (one cold branch when off).
    pub(super) fn timed(
        &mut self,
        bucket: fn(&mut PhaseProfile) -> &mut u64,
        step: impl FnOnce(&mut Self),
    ) {
        // lint: allow — harness wall-clock, never simulation state.
        let start = self.phase_timing.then(Instant::now);
        step(self);
        if let Some(start) = start {
            *bucket(&mut self.profile) += start.elapsed().as_nanos() as u64;
        }
    }
}
