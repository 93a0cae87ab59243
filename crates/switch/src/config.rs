//! Switch configuration.

use damq_core::{BufferConfig, BufferKind};

use crate::arbiter::ArbiterPolicy;

/// Complete description of an n×n switch: geometry, buffer design and
/// arbitration.
///
/// Nothing else is settable. A slot is [`damq_core::SLOT_BYTES`], fixed
/// hardware; flow control is the network's protocol, which the switch
/// learns each cycle from [`CycleSink::can_send`](crate::CycleSink::can_send).
///
/// Built incrementally ([C-BUILDER]) and consumed by
/// [`Switch::new`](crate::Switch::new).
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html#builders-enable-construction-of-complex-values-c-builder
///
/// # Examples
///
/// ```
/// use damq_core::BufferKind;
/// use damq_switch::{ArbiterPolicy, Switch, SwitchConfig};
///
/// let sw = Switch::new(
///     SwitchConfig::new(4)
///         .buffer_kind(BufferKind::Damq)
///         .slots_per_buffer(4)
///         .arbiter_policy(ArbiterPolicy::Smart),
/// )?;
/// assert_eq!(sw.ports(), 4);
/// # Ok::<(), damq_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchConfig {
    ports: usize,
    buffer_kind: BufferKind,
    slots_per_buffer: usize,
    arbiter_policy: ArbiterPolicy,
}

impl SwitchConfig {
    /// Starts a configuration for a `ports`×`ports` switch with the paper's
    /// defaults: DAMQ buffers of 4 slots, smart arbitration.
    pub fn new(ports: usize) -> Self {
        SwitchConfig {
            ports,
            buffer_kind: BufferKind::Damq,
            slots_per_buffer: 4,
            arbiter_policy: ArbiterPolicy::Smart,
        }
    }

    /// Selects the input-buffer design.
    #[must_use]
    pub fn buffer_kind(mut self, kind: BufferKind) -> Self {
        self.buffer_kind = kind;
        self
    }

    /// Sets the storage per input buffer, in slots.
    #[must_use]
    pub fn slots_per_buffer(mut self, slots: usize) -> Self {
        self.slots_per_buffer = slots;
        self
    }

    /// Selects the crossbar arbitration policy.
    #[must_use]
    pub fn arbiter_policy(mut self, policy: ArbiterPolicy) -> Self {
        self.arbiter_policy = policy;
        self
    }

    /// Number of input (and output) ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// The configured buffer design.
    pub fn kind(&self) -> BufferKind {
        self.buffer_kind
    }

    /// Storage per input buffer, in slots.
    pub fn slots(&self) -> usize {
        self.slots_per_buffer
    }

    /// The configured arbitration policy.
    pub fn policy(&self) -> ArbiterPolicy {
        self.arbiter_policy
    }

    /// The per-buffer configuration implied by this switch configuration.
    pub fn buffer_config(&self) -> BufferConfig {
        BufferConfig::new(self.ports, self.slots_per_buffer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_omega_setup() {
        let c = SwitchConfig::new(4);
        assert_eq!(c.ports(), 4);
        assert_eq!(c.kind(), BufferKind::Damq);
        assert_eq!(c.slots(), 4);
        assert_eq!(c.policy(), ArbiterPolicy::Smart);
    }

    #[test]
    fn builder_overrides_stick() {
        let c = SwitchConfig::new(2)
            .buffer_kind(BufferKind::Fifo)
            .slots_per_buffer(6)
            .arbiter_policy(ArbiterPolicy::Dumb);
        assert_eq!(c.kind(), BufferKind::Fifo);
        assert_eq!(c.slots(), 6);
        assert_eq!(c.policy(), ArbiterPolicy::Dumb);
        assert_eq!(c.buffer_config().capacity(), 6);
    }
}
