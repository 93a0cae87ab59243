//! Mutation tests: feed deliberately broken buffers to the model checker
//! and assert each defect is caught.
//!
//! A checker that never fires is worthless; these tests are the checker's
//! own regression suite. Each mutant wraps the real DAMQ implementation
//! and corrupts exactly one behaviour.

use damq_core::{
    AuditError, BufferConfig, BufferKind, BufferStats, ConfigError, OutputPort, Packet, Rejected,
    SwitchBuffer,
};
use damq_verify::check_with_factory;

/// Wraps a real buffer, delegating everything by default.
#[derive(Debug)]
struct Mutant {
    inner: Box<dyn SwitchBuffer>,
    defect: Defect,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Defect {
    /// Rejects enqueues one slot early (under-accepting).
    RejectsEarly,
    /// Claims one fewer resident packet than reality.
    LiesAboutPacketCount,
    /// Refuses to ever dequeue for output 1 (a stuck read port).
    StuckOutput,
}

fn mutant(defect: Defect) -> Result<Box<dyn SwitchBuffer>, ConfigError> {
    let inner = Box::new(BufferConfig::new(2, 2).build_any(BufferKind::Damq)?);
    Ok(Box::new(Mutant { inner, defect }))
}

impl SwitchBuffer for Mutant {
    fn kind(&self) -> BufferKind {
        self.inner.kind()
    }
    fn fanout(&self) -> usize {
        self.inner.fanout()
    }
    fn capacity_slots(&self) -> usize {
        self.inner.capacity_slots()
    }
    fn used_slots(&self) -> usize {
        self.inner.used_slots()
    }
    fn slot_bytes(&self) -> usize {
        self.inner.slot_bytes()
    }
    fn read_ports(&self) -> usize {
        self.inner.read_ports()
    }

    fn can_accept(&self, output: OutputPort, slots: usize) -> bool {
        match self.defect {
            Defect::RejectsEarly => self.inner.used_slots() + 1 < self.capacity_slots(),
            _ => self.inner.can_accept(output, slots),
        }
    }

    fn try_enqueue(&mut self, output: OutputPort, packet: Packet) -> Result<(), Rejected> {
        if self.defect == Defect::RejectsEarly && !self.can_accept(output, 1) {
            return Err(Rejected {
                packet,
                output,
                reason: damq_core::RejectReason::BufferFull,
            });
        }
        self.inner.try_enqueue(output, packet)
    }

    fn queue_len(&self, output: OutputPort) -> usize {
        self.inner.queue_len(output)
    }
    fn front(&self, output: OutputPort) -> Option<&Packet> {
        self.inner.front(output)
    }

    fn dequeue(&mut self, output: OutputPort) -> Option<Packet> {
        if self.defect == Defect::StuckOutput && output.index() == 1 {
            return None;
        }
        self.inner.dequeue(output)
    }

    fn packet_count(&self) -> usize {
        match self.defect {
            Defect::LiesAboutPacketCount => self.inner.packet_count().saturating_sub(1),
            _ => self.inner.packet_count(),
        }
    }

    fn stats(&self) -> &BufferStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
    fn audit(&self) -> Result<(), AuditError> {
        self.inner.audit()
    }
}

#[test]
fn stock_buffer_through_custom_factory_passes() {
    // Sanity: the factory indirection itself must not trip the checker.
    let factory = || -> Result<Box<dyn SwitchBuffer>, ConfigError> {
        Ok(Box::new(
            BufferConfig::new(2, 2).build_any(BufferKind::Damq)?,
        ))
    };
    check_with_factory(BufferKind::Damq, 2, &factory).expect("stock DAMQ is clean");
}

#[test]
fn early_rejection_is_caught_as_spec_disagreement() {
    let factory = || mutant(Defect::RejectsEarly);
    let violation =
        check_with_factory(BufferKind::Damq, 2, &factory).expect_err("mutant must be caught");
    assert!(
        violation.invariant == "spec-agreement" || violation.invariant == "materialise",
        "unexpected invariant: {violation}"
    );
}

#[test]
fn packet_count_lie_is_caught() {
    let factory = || mutant(Defect::LiesAboutPacketCount);
    let violation =
        check_with_factory(BufferKind::Damq, 2, &factory).expect_err("mutant must be caught");
    assert_eq!(violation.invariant, "spec-agreement", "{violation}");
}

#[test]
fn stuck_read_port_is_caught() {
    let factory = || mutant(Defect::StuckOutput);
    let violation =
        check_with_factory(BufferKind::Damq, 2, &factory).expect_err("mutant must be caught");
    assert_eq!(violation.invariant, "spec-agreement", "{violation}");
}
