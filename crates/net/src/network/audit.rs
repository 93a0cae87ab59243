//! End-of-cycle invariant checks over a [`NetworkSim`]: buffer
//! structure in every switch, the quiescence map, the source occupancy
//! set, packet conservation against the lifetime ledger, and the fault
//! ledger against observable state. All read-only; `strict-audit` builds
//! run [`NetworkSim::audit`] after every cycle.

use damq_core::{AuditError, SwitchBuffer};
use damq_telemetry::{Event, TelemetrySink};

use super::NetworkSim;

impl<B: SwitchBuffer, S: TelemetrySink<Event>> NetworkSim<B, S> {
    /// Verifies end-of-cycle packet conservation against the lifetime
    /// ledger (which, unlike [`NetworkSim::metrics`], survives
    /// [`NetworkSim::warm_up`]): every packet ever generated is delivered,
    /// discarded, waiting at a source, resident in a buffer, or held in
    /// a hop's retransmit buffer — exactly one of the five. The ledger
    /// is the audit's own tally; the lifetime view of the window counters
    /// ([`NetMetrics::lifetime`](crate::NetMetrics::lifetime), carried +
    /// window) must tell the same story, so a window reset that loses
    /// counts is caught here too.
    ///
    /// # Errors
    ///
    /// Returns an [`AuditError`] naming the imbalance.
    pub fn audit_conservation(&self) -> Result<(), AuditError> {
        let (life, ledger) = (self.acct.metrics.lifetime(), self.acct.ledger);
        let discarded = life.discarded_entry + life.discarded_network;
        if (life.generated, life.delivered, discarded)
            != (ledger.generated, ledger.delivered, ledger.discarded)
        {
            let detail = format!("carried + window counts are {life:?} but the audit's {ledger:?}");
            return Err(AuditError::new("lifetime-counters", detail));
        }
        let accounted = self.acct.ledger.delivered
            + self.acct.ledger.discarded
            + self.source_backlog() as u64
            + self.packets_in_flight() as u64
            + self.recovery_held() as u64;
        if self.acct.ledger.generated != accounted {
            return Err(AuditError::new(
                "packet-conservation",
                format!(
                    "generated {} but delivered {} + discarded {} + backlog {} + in-flight {} + retransmit-held {} = {accounted}",
                    self.acct.ledger.generated,
                    self.acct.ledger.delivered,
                    self.acct.ledger.discarded,
                    self.source_backlog(),
                    self.packets_in_flight(),
                    self.recovery_held(),
                ),
            ));
        }
        Ok(())
    }

    /// Verifies the fault ledger against observable state: the drops the
    /// ledger declares never exceed the total discards of the base
    /// conservation ledger (faults lose packets only in admitted ways),
    /// and every slot kill is visible as a dead slot in some buffer.
    ///
    /// # Errors
    ///
    /// Returns an [`AuditError`] naming the mismatch.
    pub fn audit_fault_ledger(&self) -> Result<(), AuditError> {
        if self.acct.fault_ledger.dropped() > self.acct.ledger.discarded {
            return Err(AuditError::new(
                "fault-ledger",
                format!(
                    "fault ledger admits to {} drops but only {} packets were discarded",
                    self.acct.fault_ledger.dropped(),
                    self.acct.ledger.discarded,
                ),
            ));
        }
        let dead = self.dead_slots() as u64;
        if self.acct.fault_ledger.slots_killed != dead {
            return Err(AuditError::new(
                "fault-ledger",
                format!(
                    "ledger counts {} slot kills but the buffers report {dead} dead slots",
                    self.acct.fault_ledger.slots_killed,
                ),
            ));
        }
        Ok(())
    }

    /// Verifies the idle-skip quiescence map against ground truth: at end
    /// of cycle every bit must equal its switch's actual emptiness — a
    /// stale set bit would let the fast path freeze resident packets, a
    /// stale clear bit only costs speed, but both break the documented
    /// invariant.
    ///
    /// # Errors
    ///
    /// Returns an [`AuditError`] naming the stale bit.
    pub fn audit_quiescence(&self) -> Result<(), AuditError> {
        for (stage, row) in self.fabric.switches.iter().enumerate() {
            for (sw, switch) in row.iter().enumerate() {
                let bit = self.fabric.quiescent[self.fabric.wiring.switch(stage, sw)];
                if bit != switch.is_quiescent() {
                    return Err(AuditError::new(
                        "quiescence-map",
                        format!(
                            "stage {stage} switch {sw}: map bit {bit} but the \
                             switch holds {} packets",
                            switch.packets_resident(),
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Verifies the source occupancy set against the queues: bit `src`
    /// ⇔ queue `src` holds a packet — a stale clear bit would strand a
    /// waiting packet at its source forever.
    fn audit_source_occupancy(&self) -> Result<(), AuditError> {
        for (src, queue) in self.source_queues.iter().enumerate() {
            let bit = self.source_occupied[src / 64] >> (src % 64) & 1 == 1;
            if bit != (queue.len() > 0) {
                let detail = format!("source {src}: bit {bit}, {} packets queued", queue.len());
                return Err(AuditError::new("source-occupancy", detail));
            }
        }
        Ok(())
    }

    /// Full network audit: buffer structure in every switch, the
    /// quiescence map, the source occupancy set, packet conservation,
    /// and the fault ledger.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn audit(&self) -> Result<(), AuditError> {
        for sw in self.switches() {
            sw.audit()?;
        }
        self.audit_quiescence()?;
        self.audit_source_occupancy()?;
        self.audit_conservation()?;
        self.audit_fault_ledger()
    }

    /// Verifies buffer invariants in every switch (testing aid).
    ///
    /// # Panics
    ///
    /// Panics with a description on violation.
    pub fn check_invariants(&self) {
        for sw in self.switches() {
            sw.check_invariants();
        }
    }
}
