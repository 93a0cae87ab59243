//! Crossbar arbitration: *dumb* and *smart* round-robin (paper §4.2).
//!
//! Each cycle the central arbiter examines the input buffers one at a time,
//! in a rotating priority order, "transmitting packets from the longest
//! queue in the buffer which was not blocked". The two policies differ in
//! fairness bookkeeping:
//!
//! * [`ArbiterPolicy::Dumb`] rotates the starting buffer unconditionally
//!   every cycle.
//! * [`ArbiterPolicy::Smart`] rotates **only past buffers that actually
//!   transmitted** (a buffer that had priority but could send nothing keeps
//!   its priority), and breaks ties among a buffer's queues using a *stale
//!   count* — how many cycles a queue has held packets without being served
//!   — so that no queue starves inside its buffer.

use damq_core::{InlineArray, InputPort, OutputPort};

use crate::INLINE_MATRIX;

/// Which arbitration policy the switch uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ArbiterPolicy {
    /// Unconditional round-robin over buffers; longest queue within a buffer.
    Dumb,
    /// Round-robin that only charges buffers for cycles in which they
    /// transmitted, with stale counts for intra-buffer fairness.
    #[default]
    Smart,
}

impl ArbiterPolicy {
    /// Both policies, dumb first (the order of the paper's Table 3 columns).
    pub const ALL: [ArbiterPolicy; 2] = [ArbiterPolicy::Dumb, ArbiterPolicy::Smart];

    /// Short lower-case name ("dumb" / "smart").
    pub fn name(self) -> &'static str {
        match self {
            ArbiterPolicy::Dumb => "dumb",
            ArbiterPolicy::Smart => "smart",
        }
    }
}

impl std::fmt::Display for ArbiterPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A candidate transmission offered to the arbiter: a queue inside one
/// buffer with at least one sendable packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The queue's output port.
    pub output: OutputPort,
    /// Current length of that queue in packets.
    pub queue_len: usize,
}

/// Arbitration state carried across cycles: the priority pointer and the
/// per-(buffer, queue) stale counts.
#[derive(Debug, Clone)]
pub struct Arbiter {
    policy: ArbiterPolicy,
    ports: usize,
    fanout: usize,
    priority: usize,
    stale: InlineArray<u32, INLINE_MATRIX>, // ports x fanout, row-major
}

impl Arbiter {
    /// Creates an arbiter for a switch with `ports` input buffers of
    /// `fanout` queues each.
    ///
    /// # Panics
    ///
    /// Panics if `ports` or `fanout` is zero.
    pub fn new(policy: ArbiterPolicy, ports: usize, fanout: usize) -> Self {
        assert!(ports > 0, "arbiter needs at least one input buffer");
        assert!(fanout > 0, "arbiter needs at least one output queue");
        Arbiter {
            policy,
            ports,
            fanout,
            priority: 0,
            stale: InlineArray::new(0, ports * fanout),
        }
    }

    /// The policy this arbiter runs.
    pub fn policy(&self) -> ArbiterPolicy {
        self.policy
    }

    /// The buffer that will be examined first next cycle.
    pub fn priority_port(&self) -> InputPort {
        InputPort::new(self.priority)
    }

    /// The order in which buffers are examined this cycle.
    pub fn examination_order(&self) -> impl Iterator<Item = InputPort> + '_ {
        (0..self.ports).map(move |i| InputPort::new((self.priority + i) % self.ports))
    }

    /// Picks which of `candidates` (the not-blocked queues of one buffer)
    /// to serve. Returns `None` if there are no candidates.
    ///
    /// Dumb: longest queue, ties to the lowest output index. Smart: highest
    /// stale count first, then longest queue, then lowest index.
    pub fn select_queue(&self, input: InputPort, candidates: &[Candidate]) -> Option<Candidate> {
        candidates.iter().copied().max_by_key(|c| {
            let stale = match self.policy {
                ArbiterPolicy::Dumb => 0,
                ArbiterPolicy::Smart => self.stale_count(input, c.output),
            };
            // Reverse index so that max_by_key's tie-break prefers low index.
            (stale, c.queue_len, usize::MAX - c.output.index())
        })
    }

    /// Advances the priority pointer one port, wrapping by compare
    /// instead of `%` (`ports` is runtime, so the modulo is a divide).
    fn rotate_priority(&mut self) {
        self.priority += 1;
        if self.priority == self.ports {
            self.priority = 0;
        }
    }

    /// Stale count of queue `output` in buffer `input`.
    pub fn stale_count(&self, input: InputPort, output: OutputPort) -> u32 {
        self.stale[input.index() * self.fanout + output.index()]
    }

    /// Finishes a cycle.
    ///
    /// Both matrices are flat, row-major `ports x fanout` — the same layout
    /// as the switch's batched-kernel scratch, so no per-row indirection.
    /// `served[i * fanout + o]` must be true iff buffer `i`'s queue `o`
    /// transmitted; `occupied[i * fanout + o]` iff that queue still holds
    /// packets. Updates the priority pointer and (for smart) the stale
    /// counts.
    ///
    /// # Panics
    ///
    /// Panics if the matrices have the wrong shape.
    pub fn complete_cycle(&mut self, served: &[bool], occupied: &[bool]) {
        assert_eq!(
            served.len(),
            self.ports * self.fanout,
            "served matrix shape"
        );
        assert_eq!(
            occupied.len(),
            self.ports * self.fanout,
            "occupied matrix shape"
        );
        let row = self.priority * self.fanout;
        let first_transmitted = served[row..row + self.fanout].iter().any(|&s| s);
        match self.policy {
            ArbiterPolicy::Dumb => {
                self.rotate_priority();
            }
            ArbiterPolicy::Smart => {
                for ((stale, &served), &occupied) in self.stale.iter_mut().zip(served).zip(occupied)
                {
                    *stale = if !served && occupied {
                        stale.saturating_add(1)
                    } else {
                        0
                    };
                }
                if first_transmitted {
                    self.rotate_priority();
                }
            }
        }
    }

    /// Finishes a cycle in which the whole switch was quiescent — no queue
    /// held a packet, so nothing was served and nothing was occupied.
    ///
    /// Byte-identical to `complete_cycle(all-false, all-false)`: dumb
    /// rotates unconditionally; smart keeps its priority (nothing
    /// transmitted) and leaves the stale counts at zero, which they must
    /// already be, since a queue only accrues staleness while occupied and
    /// every queue was observed empty when the switch went quiescent.
    pub fn complete_idle_cycle(&mut self) {
        match self.policy {
            ArbiterPolicy::Dumb => {
                self.rotate_priority();
            }
            ArbiterPolicy::Smart => {
                debug_assert!(
                    self.stale.iter().all(|&s| s == 0),
                    "quiescent switch carried a nonzero stale count"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(o: usize, len: usize) -> Candidate {
        Candidate {
            output: OutputPort::new(o),
            queue_len: len,
        }
    }

    fn no_service(ports: usize, fanout: usize) -> Vec<bool> {
        vec![false; ports * fanout]
    }

    #[test]
    fn dumb_picks_longest_queue() {
        let a = Arbiter::new(ArbiterPolicy::Dumb, 4, 4);
        let picked = a
            .select_queue(InputPort::new(0), &[cand(0, 1), cand(2, 3), cand(3, 2)])
            .unwrap();
        assert_eq!(picked.output, OutputPort::new(2));
    }

    #[test]
    fn ties_go_to_lowest_output_index() {
        let a = Arbiter::new(ArbiterPolicy::Dumb, 4, 4);
        let picked = a
            .select_queue(InputPort::new(0), &[cand(3, 2), cand(1, 2)])
            .unwrap();
        assert_eq!(picked.output, OutputPort::new(1));
    }

    #[test]
    fn empty_candidates_yield_none() {
        let a = Arbiter::new(ArbiterPolicy::Dumb, 2, 2);
        assert!(a.select_queue(InputPort::new(0), &[]).is_none());
    }

    #[test]
    fn dumb_rotates_unconditionally() {
        let mut a = Arbiter::new(ArbiterPolicy::Dumb, 3, 2);
        assert_eq!(a.priority_port(), InputPort::new(0));
        a.complete_cycle(&no_service(3, 2), &no_service(3, 2));
        assert_eq!(a.priority_port(), InputPort::new(1));
        a.complete_cycle(&no_service(3, 2), &no_service(3, 2));
        assert_eq!(a.priority_port(), InputPort::new(2));
        a.complete_cycle(&no_service(3, 2), &no_service(3, 2));
        assert_eq!(a.priority_port(), InputPort::new(0));
    }

    #[test]
    fn smart_keeps_priority_when_first_buffer_sent_nothing() {
        let mut a = Arbiter::new(ArbiterPolicy::Smart, 3, 2);
        // Paper: "that buffer will be the first one examined again".
        a.complete_cycle(&no_service(3, 2), &no_service(3, 2));
        assert_eq!(a.priority_port(), InputPort::new(0));
        let mut served = no_service(3, 2);
        served[1] = true; // buffer 0, queue 1
        a.complete_cycle(&served, &no_service(3, 2));
        assert_eq!(a.priority_port(), InputPort::new(1));
    }

    #[test]
    fn stale_counts_accumulate_and_reset() {
        let mut a = Arbiter::new(ArbiterPolicy::Smart, 2, 2);
        let mut occupied = no_service(2, 2);
        occupied[0] = true; // buffer 0, queue 0
        occupied[1] = true; // buffer 0, queue 1
                            // Queue (0,1) passed over twice.
        a.complete_cycle(&no_service(2, 2), &occupied);
        a.complete_cycle(&no_service(2, 2), &occupied);
        assert_eq!(a.stale_count(InputPort::new(0), OutputPort::new(1)), 2);
        // Serving it resets the count.
        let mut served = no_service(2, 2);
        served[1] = true; // buffer 0, queue 1
        a.complete_cycle(&served, &occupied);
        assert_eq!(a.stale_count(InputPort::new(0), OutputPort::new(1)), 0);
        assert_eq!(a.stale_count(InputPort::new(0), OutputPort::new(0)), 3);
    }

    #[test]
    fn smart_selects_stalest_queue_over_longest() {
        let mut a = Arbiter::new(ArbiterPolicy::Smart, 1, 3);
        let mut occupied = no_service(1, 3);
        occupied[2] = true; // buffer 0, queue 2
        a.complete_cycle(&no_service(1, 3), &occupied);
        // Queue 2 is stale (count 1); queue 0 is longer but fresh.
        let picked = a
            .select_queue(InputPort::new(0), &[cand(0, 5), cand(2, 1)])
            .unwrap();
        assert_eq!(picked.output, OutputPort::new(2));
    }

    #[test]
    fn idle_cycle_matches_all_false_complete_cycle() {
        for policy in ArbiterPolicy::ALL {
            let mut full = Arbiter::new(policy, 3, 2);
            let mut fast = Arbiter::new(policy, 3, 2);
            for _ in 0..5 {
                full.complete_cycle(&no_service(3, 2), &no_service(3, 2));
                fast.complete_idle_cycle();
                assert_eq!(full.priority_port(), fast.priority_port(), "{policy}");
            }
        }
    }

    #[test]
    fn emptied_queue_loses_its_stale_count() {
        let mut a = Arbiter::new(ArbiterPolicy::Smart, 1, 2);
        let mut occupied = no_service(1, 2);
        occupied[0] = true; // buffer 0, queue 0
        a.complete_cycle(&no_service(1, 2), &occupied);
        assert_eq!(a.stale_count(InputPort::new(0), OutputPort::new(0)), 1);
        // Queue drains (e.g. the packet was dropped): stale count clears.
        a.complete_cycle(&no_service(1, 2), &no_service(1, 2));
        assert_eq!(a.stale_count(InputPort::new(0), OutputPort::new(0)), 0);
    }
}
