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

/// How strongly a sendable queue competes for its buffer's read port:
/// stale count first (always 0 under the dumb policy), then queue length.
/// Compared as a whole; the higher rank wins and equal ranks go to the
/// lower output index.
pub type Rank = (u32, usize);

/// Arbitration state: the priority pointer and the per-(buffer, queue)
/// stale counts carried across cycles, plus whether the buffer holding
/// priority has transmitted in the current one.
#[derive(Debug, Clone)]
pub struct Arbiter {
    policy: ArbiterPolicy,
    ports: usize,
    fanout: usize,
    priority: usize,
    stale: InlineArray<u32, INLINE_MATRIX>, // ports x fanout, row-major
    /// Whether the priority buffer was granted a transmission this cycle;
    /// `false` between cycles.
    priority_transmitted: bool,
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
            priority_transmitted: false,
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

    /// The rank of queue `output` of buffer `input`, holding `queue_len`
    /// packets, among that buffer's not-blocked queues.
    ///
    /// Dumb: longest queue. Smart: highest stale count first, then longest
    /// queue. Ties go to the lowest output index — walk the outputs in
    /// ascending order and keep a queue only when its rank is strictly
    /// higher than the best so far.
    pub fn rank(&self, input: InputPort, output: OutputPort, queue_len: usize) -> Rank {
        let stale = match self.policy {
            ArbiterPolicy::Dumb => 0,
            ArbiterPolicy::Smart => self.stale_count(input, output),
        };
        (stale, queue_len)
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

    /// Records that buffer `input` transmitted a packet this cycle.
    pub fn grant(&mut self, input: InputPort) {
        self.priority_transmitted |= input.index() == self.priority;
    }

    /// Ends buffer `input`'s turn: `waiting[o]` is the number of packets
    /// its queue `o` still holds after this cycle's dequeues, or 0 if the
    /// queue transmitted. Under the smart policy every queue left waiting
    /// grows one cycle staler and every other count of the row resets.
    ///
    /// Call once per cycle for each buffer that held a packet when its
    /// turn came, after its last [`grant`](Arbiter::grant) — a buffer is
    /// examined once per cycle, so no later selection reads the row. A
    /// buffer that was empty needs no call: a queue only accrues staleness
    /// while occupied and only transmission removes packets, so its whole
    /// row is already zero.
    ///
    /// # Panics
    ///
    /// Panics if `waiting` does not hold one count per queue.
    pub fn settle_input(&mut self, input: InputPort, waiting: &[u16]) {
        assert_eq!(waiting.len(), self.fanout, "one count per queue");
        if self.policy == ArbiterPolicy::Dumb {
            return;
        }
        let row = input.index() * self.fanout;
        let stale = &mut self.stale[row..row + self.fanout];
        for (stale, &waiting) in stale.iter_mut().zip(waiting) {
            *stale = if waiting > 0 {
                stale.saturating_add(1)
            } else {
                0
            };
        }
    }

    /// Finishes a cycle: dumb rotates the priority pointer
    /// unconditionally, smart only if the buffer that held priority
    /// transmitted.
    pub fn complete_cycle(&mut self) {
        if self.policy == ArbiterPolicy::Dumb || self.priority_transmitted {
            self.rotate_priority();
        }
        self.priority_transmitted = false;
    }

    /// Finishes a cycle in which the whole switch was quiescent — no queue
    /// held a packet, so nothing was served and nothing was occupied.
    ///
    /// Byte-identical to [`complete_cycle`](Arbiter::complete_cycle) with
    /// no grant and no buffer to settle: dumb rotates unconditionally;
    /// smart keeps its priority (nothing transmitted) and leaves the stale
    /// counts at zero, which they must already be, since a queue only
    /// accrues staleness while occupied and every queue was observed empty
    /// when the switch went quiescent.
    pub fn complete_idle_cycle(&mut self) {
        debug_assert!(!self.priority_transmitted, "grant outside a cycle");
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

    /// Whether every stale count of buffer `input` is zero (the kernel's
    /// debug check on the buffers it does not examine).
    pub(crate) fn row_is_fresh(&self, input: InputPort) -> bool {
        let row = input.index() * self.fanout;
        self.stale[row..row + self.fanout].iter().all(|&s| s == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernel's selection, spelled out: ascending walk, strictly
    /// higher rank displaces.
    fn pick(a: &Arbiter, input: usize, queues: &[(usize, usize)]) -> Option<usize> {
        let mut sorted = queues.to_vec();
        sorted.sort_unstable();
        let mut best: Option<(Rank, usize)> = None;
        for (o, len) in sorted {
            let rank = a.rank(InputPort::new(input), OutputPort::new(o), len);
            if best.is_none_or(|(top, _)| rank > top) {
                best = Some((rank, o));
            }
        }
        best.map(|(_, o)| o)
    }

    /// One cycle in which buffer `input` is the only non-empty one:
    /// `served` of its queues transmit and `lens` is what remains.
    fn cycle(a: &mut Arbiter, input: usize, served: &[usize], lens: &[u16]) {
        let mut waiting = lens.to_vec();
        for &o in served {
            a.grant(InputPort::new(input));
            waiting[o] = 0;
        }
        a.settle_input(InputPort::new(input), &waiting);
        a.complete_cycle();
    }

    #[test]
    fn dumb_picks_longest_queue() {
        let a = Arbiter::new(ArbiterPolicy::Dumb, 4, 4);
        assert_eq!(pick(&a, 0, &[(0, 1), (2, 3), (3, 2)]), Some(2));
    }

    #[test]
    fn ties_go_to_lowest_output_index() {
        let a = Arbiter::new(ArbiterPolicy::Dumb, 4, 4);
        assert_eq!(pick(&a, 0, &[(3, 2), (1, 2)]), Some(1));
    }

    #[test]
    fn no_sendable_queue_yields_none() {
        let a = Arbiter::new(ArbiterPolicy::Dumb, 2, 2);
        assert_eq!(pick(&a, 0, &[]), None);
    }

    #[test]
    fn dumb_rotates_unconditionally() {
        let mut a = Arbiter::new(ArbiterPolicy::Dumb, 3, 2);
        assert_eq!(a.priority_port(), InputPort::new(0));
        a.complete_cycle();
        assert_eq!(a.priority_port(), InputPort::new(1));
        a.complete_cycle();
        assert_eq!(a.priority_port(), InputPort::new(2));
        a.complete_cycle();
        assert_eq!(a.priority_port(), InputPort::new(0));
    }

    #[test]
    fn smart_keeps_priority_when_first_buffer_sent_nothing() {
        let mut a = Arbiter::new(ArbiterPolicy::Smart, 3, 2);
        // Paper: "that buffer will be the first one examined again".
        a.complete_cycle();
        assert_eq!(a.priority_port(), InputPort::new(0));
        // Another buffer transmitting does not move it either.
        cycle(&mut a, 1, &[0], &[0, 0]);
        assert_eq!(a.priority_port(), InputPort::new(0));
        cycle(&mut a, 0, &[1], &[0, 0]);
        assert_eq!(a.priority_port(), InputPort::new(1));
    }

    #[test]
    fn stale_counts_accumulate_and_reset() {
        let mut a = Arbiter::new(ArbiterPolicy::Smart, 2, 2);
        // Both queues of buffer 0 occupied; queue (0,1) passed over twice.
        cycle(&mut a, 0, &[], &[1, 1]);
        cycle(&mut a, 0, &[], &[1, 1]);
        assert_eq!(a.stale_count(InputPort::new(0), OutputPort::new(1)), 2);
        // Serving it resets the count.
        cycle(&mut a, 0, &[1], &[1, 1]);
        assert_eq!(a.stale_count(InputPort::new(0), OutputPort::new(1)), 0);
        assert_eq!(a.stale_count(InputPort::new(0), OutputPort::new(0)), 3);
        assert!(a.row_is_fresh(InputPort::new(1)));
        assert!(!a.row_is_fresh(InputPort::new(0)));
    }

    #[test]
    fn dumb_never_counts_staleness() {
        let mut a = Arbiter::new(ArbiterPolicy::Dumb, 2, 2);
        cycle(&mut a, 0, &[], &[1, 1]);
        assert!(a.row_is_fresh(InputPort::new(0)));
    }

    #[test]
    fn smart_selects_stalest_queue_over_longest() {
        let mut a = Arbiter::new(ArbiterPolicy::Smart, 1, 3);
        cycle(&mut a, 0, &[], &[0, 0, 1]);
        // Queue 2 is stale (count 1); queue 0 is longer but fresh.
        assert_eq!(pick(&a, 0, &[(0, 5), (2, 1)]), Some(2));
    }

    #[test]
    fn idle_cycle_matches_an_empty_complete_cycle() {
        for policy in ArbiterPolicy::ALL {
            let mut full = Arbiter::new(policy, 3, 2);
            let mut fast = Arbiter::new(policy, 3, 2);
            for _ in 0..5 {
                full.complete_cycle();
                fast.complete_idle_cycle();
                assert_eq!(full.priority_port(), fast.priority_port(), "{policy}");
            }
        }
    }

    #[test]
    fn emptied_queue_loses_its_stale_count() {
        let mut a = Arbiter::new(ArbiterPolicy::Smart, 1, 2);
        cycle(&mut a, 0, &[], &[1, 0]);
        assert_eq!(a.stale_count(InputPort::new(0), OutputPort::new(0)), 1);
        // The queue is served and drains: its stale count clears.
        cycle(&mut a, 0, &[0], &[0, 0]);
        assert_eq!(a.stale_count(InputPort::new(0), OutputPort::new(0)), 0);
    }
}
