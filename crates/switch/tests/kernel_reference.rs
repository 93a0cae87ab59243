//! Reference-kernel differential: the occupancy-aware arbitration kernel
//! against the examination walk it replaced.
//!
//! [`Reference`] is the previous `Switch::transmit_cycle_with`, kept here
//! line for line as a model: every buffer's queue lengths prefetched into
//! a `ports x ports` matrix, each buffer's sendable queues gathered into
//! a candidate list and handed to a `max_by_key` selection, `bool`
//! served/occupied matrices refilled every cycle, rows of buffers that
//! dequeued re-read before the stale sweep, head-of-line blocking summed
//! over all buffers at the end. It is a reference the tests compare
//! against, not a second data path — nothing outside this file runs it.
//!
//! Both kernels are driven through the same seeded fill/refuse sequences
//! (five designs x {dumb, smart} x radix {2, 4, 8, 16}) and must agree,
//! cycle by cycle, on the departures and their order, on the exact
//! sequence of `can_send(output, FrontMeta)` questions put to a refusing
//! sink (in the network each one is a route query), on the arbiter's
//! priority pointer and every stale count, on the switch's `BufferStats`
//! (which the reference counts from its own receives, departures and
//! head-of-line sums, not from the switch's bookkeeping) and on both
//! head-of-line counts.
//! Whenever the switch drains, the real one takes `note_idle_cycle` while
//! the reference arbitrates empty, so the idle fast path is held to the
//! same standard.
//!
//! The last two tests show the differential bites: each seeds one
//! plausible slip into the reference — the FIFO row not re-read after a
//! dequeue; ties broken toward the high output index — and the comparison
//! must fail wherever that slip can matter.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use damq_core::{
    AnyBuffer, BufferConfig, BufferKind, BufferStats, FrontMeta, InputPort, NodeId, OutputPort,
    Packet, PacketId, SwitchBuffer,
};
use damq_switch::{ArbiterPolicy, CycleSink, Switch, SwitchConfig};

/// A seeded slip in the reference walk.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mutation {
    /// Rows of buffers that dequeued are not re-read before the stale
    /// sweep, so a FIFO's new head is taken to wait on the old output.
    SkipFifoReread,
    /// Equal (stale, length) candidates go to the highest output index.
    TiesToHighIndex,
}

/// The replaced kernel as a model switch (see the module docs).
struct Reference {
    ports: usize,
    policy: ArbiterPolicy,
    buffers: Vec<AnyBuffer>,
    priority: usize,
    stale: Vec<u32>,
    hol_last: u64,
    /// Counted from this model's own operations.
    stats: BufferStats,
    mutation: Option<Mutation>,
}

impl Reference {
    fn new(
        ports: usize,
        kind: BufferKind,
        slots: usize,
        policy: ArbiterPolicy,
        mutation: Option<Mutation>,
    ) -> Self {
        Reference {
            ports,
            policy,
            buffers: (0..ports)
                .map(|_| BufferConfig::new(ports, slots).build_any(kind).unwrap())
                .collect(),
            priority: 0,
            stale: vec![0; ports * ports],
            hol_last: 0,
            stats: BufferStats::new(),
            mutation,
        }
    }

    fn receive(&mut self, input: usize, output: usize, packet: Packet) -> bool {
        let slots = packet.slots_needed();
        let buffer = &mut self.buffers[input];
        let stored = buffer.try_enqueue(OutputPort::new(output), packet).is_ok();
        if stored {
            self.stats.record_accepted(slots);
        } else {
            // Every output exists here, so every refusal was an offer.
            self.stats.record_rejected();
        }
        // Occupancy only grows on an accept, so observing it after every
        // receive gives the same high-water mark.
        self.stats.observe_used_slots(buffer.used_slots());
        stored
    }

    fn transmit_cycle(
        &mut self,
        mut can_send: impl FnMut(OutputPort, FrontMeta) -> bool,
    ) -> Vec<(usize, usize, Packet)> {
        let ports = self.ports;
        let mut departures = Vec::new();
        let mut served = vec![false; ports * ports];
        let mut dirty = vec![false; ports];
        let mut free = vec![true; ports];
        let mut lens = vec![0u16; ports * ports];
        for (b, row) in self.buffers.iter().zip(lens.chunks_exact_mut(ports)) {
            b.queue_lens_into(row);
        }

        let mut i = self.priority;
        for _ in 0..ports {
            let row = i * ports;
            for _ in 0..self.buffers[i].read_ports() {
                let mut candidates = Vec::new();
                for o in 0..ports {
                    if !free[o] {
                        continue;
                    }
                    let queue_len = lens[row + o] as usize;
                    if queue_len == 0 {
                        continue;
                    }
                    let out = OutputPort::new(o);
                    let front = self.buffers[i]
                        .front_meta(out)
                        .expect("nonempty queue has a front");
                    if can_send(out, front) {
                        candidates.push((o, queue_len));
                    }
                }
                let pick = candidates.iter().copied().max_by_key(|&(o, queue_len)| {
                    let stale = match self.policy {
                        ArbiterPolicy::Dumb => 0,
                        ArbiterPolicy::Smart => self.stale[row + o],
                    };
                    // Reverse index so that max_by_key's tie-break (the
                    // last maximum) prefers the low index.
                    let tie = match self.mutation {
                        Some(Mutation::TiesToHighIndex) => o,
                        _ => usize::MAX - o,
                    };
                    (stale, queue_len, tie)
                });
                let Some((o, _)) = pick else {
                    break;
                };
                free[o] = false;
                let mut packet = self.buffers[i]
                    .dequeue(OutputPort::new(o))
                    .expect("candidate queue was nonempty");
                packet.record_hop();
                served[row + o] = true;
                lens[row + o] -= 1;
                dirty[i] = true;
                self.stats.record_forwarded();
                departures.push((i, o, packet));
            }
            i = (i + 1) % ports;
        }

        if self.mutation != Some(Mutation::SkipFifoReread) {
            for (i, b) in self.buffers.iter().enumerate() {
                if dirty[i] {
                    b.queue_lens_into(&mut lens[i * ports..(i + 1) * ports]);
                }
            }
        }
        let first_transmitted = served[self.priority * ports..(self.priority + 1) * ports]
            .iter()
            .any(|&s| s);
        match self.policy {
            ArbiterPolicy::Dumb => self.priority = (self.priority + 1) % ports,
            ArbiterPolicy::Smart => {
                for (q, stale) in self.stale.iter_mut().enumerate() {
                    *stale = if !served[q] && lens[q] > 0 {
                        stale.saturating_add(1)
                    } else {
                        0
                    };
                }
                if first_transmitted {
                    self.priority = (self.priority + 1) % ports;
                }
            }
        }
        self.hol_last = self.buffers.iter().map(|b| b.note_hol_blocked()).sum();
        self.stats.record_hol_blocked(self.hol_last);
        departures
    }

    fn resident(&self) -> usize {
        self.buffers.iter().map(|b| b.packet_count()).sum()
    }
}

/// One `can_send` question: output, destination, length.
type Ask = (usize, usize, u32);
/// One departure: input, output, packet serial, hops.
type Sent = (usize, usize, u64, u32);

/// The flow-control verdict both kernels are given: a pure function of
/// the run, the cycle and the question, so the two sides get the same
/// answer to the same question even if a mutation makes them ask
/// different ones. Refuses about three questions in ten.
fn admits(seed: u64, cycle: u64, ask: Ask) -> bool {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for word in [cycle, ask.0 as u64, ask.1 as u64, u64::from(ask.2)] {
        h = (h ^ word)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(23);
    }
    h % 10 >= 3
}

/// The real switch's side of a cycle.
struct Script<'a> {
    seed: u64,
    cycle: u64,
    never_refuses: bool,
    asked: &'a mut Vec<Ask>,
    sent: &'a mut Vec<Sent>,
}

impl CycleSink for Script<'_> {
    fn can_send(&mut self, output: OutputPort, front: FrontMeta) -> bool {
        let ask = (output.index(), front.dest.index(), front.length_bytes);
        self.asked.push(ask);
        self.never_refuses || admits(self.seed, self.cycle, ask)
    }

    fn depart(&mut self, input: InputPort, output: OutputPort, packet: Packet) {
        self.sent.push((
            input.index(),
            output.index(),
            packet.id().serial(),
            packet.hops(),
        ));
    }

    fn never_refuses(&self) -> bool {
        self.never_refuses
    }
}

#[derive(Debug, Clone, Copy)]
struct Case {
    seed: u64,
    ports: usize,
    kind: BufferKind,
    policy: ArbiterPolicy,
    /// The sink never refuses (and so must never be asked) instead of
    /// refusing by [`admits`].
    never_refuses: bool,
}

const CYCLES: u64 = 500;

/// Runs both kernels through one seeded sequence; `Err` names the first
/// cycle and fact they disagree on.
fn differential(case: Case, mutation: Option<Mutation>) -> Result<(), String> {
    let Case {
        seed,
        ports,
        kind,
        policy,
        never_refuses,
    } = case;
    // Two slots per queue's worth of storage: divisible for the static
    // designs, room for the one- and two-slot packets below.
    let slots = 2 * ports;
    let config = SwitchConfig::new(ports)
        .buffer_kind(kind)
        .slots_per_buffer(slots)
        .arbiter_policy(policy);
    let mut real = Switch::new(config).unwrap();
    let mut model = Reference::new(ports, kind, slots, policy, mutation);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut serial = 0u64;
    let mut idle_cycles = 0u64;
    for cycle in 0..CYCLES {
        // Arrival rate by epoch — bursts that fill the buffers, trickles,
        // and silences long enough to drain the switch — so full, sparse
        // and empty inputs all occur.
        let rate = [9, 0, 3, 0, 6, 1, 0, 10][(cycle / 25) as usize % 8];
        for i in 0..ports {
            if rng.random_range(0..10usize) >= rate {
                continue;
            }
            let o = rng.random_range(0..ports);
            let packet = Packet::builder(NodeId::new(i), NodeId::new(rng.random_range(0..64usize)))
                .id(PacketId::new(serial))
                .length_bytes([8, 8, 16][rng.random_range(0..3usize)])
                .build();
            serial += 1;
            let stored = real
                .receive(InputPort::new(i), OutputPort::new(o), packet.clone())
                .is_ok();
            if stored != model.receive(i, o, packet) {
                return Err(format!("cycle {cycle}: receive({i}, {o}) verdicts differ"));
            }
        }

        let (mut asked, mut sent) = (Vec::new(), Vec::new());
        if real.is_quiescent() {
            real.note_idle_cycle();
            idle_cycles += 1;
        } else {
            real.transmit_cycle_with(&mut Script {
                seed,
                cycle,
                never_refuses,
                asked: &mut asked,
                sent: &mut sent,
            });
        }
        let mut model_asked = Vec::new();
        let model_sent: Vec<Sent> = model
            .transmit_cycle(|output, front| {
                if never_refuses {
                    return true;
                }
                let ask = (output.index(), front.dest.index(), front.length_bytes);
                model_asked.push(ask);
                admits(seed, cycle, ask)
            })
            .into_iter()
            .map(|(i, o, p)| (i, o, p.id().serial(), p.hops()))
            .collect();

        let differ = |what: &str, real: String, model: String| {
            Err(format!(
                "cycle {cycle}: {what}: kernel {real}, reference {model}"
            ))
        };
        if sent != model_sent {
            return differ("departures", format!("{sent:?}"), format!("{model_sent:?}"));
        }
        if asked != model_asked {
            return differ(
                "can_send sequence",
                format!("{asked:?}"),
                format!("{model_asked:?}"),
            );
        }
        let priority = real.arbiter().priority_port().index();
        if priority != model.priority {
            return differ("priority", priority.to_string(), model.priority.to_string());
        }
        let stale: Vec<u32> = (0..ports * ports)
            .map(|q| {
                real.arbiter()
                    .stale_count(InputPort::new(q / ports), OutputPort::new(q % ports))
            })
            .collect();
        if stale != model.stale {
            return differ(
                "stale counts",
                format!("{stale:?}"),
                format!("{:?}", model.stale),
            );
        }
        let stats = real.aggregate_stats();
        if stats != model.stats {
            return differ("buffer stats", stats.to_string(), model.stats.to_string());
        }
        let hol = (real.hol_blocked_last_cycle(), real.hol_blocked_total());
        let model_hol = (model.hol_last, model.stats.hol_blocked());
        if hol != model_hol {
            return differ("HOL counts", format!("{hol:?}"), format!("{model_hol:?}"));
        }
        if real.packets_resident() != model.resident() {
            let model_resident = model.resident().to_string();
            return differ(
                "resident",
                real.packets_resident().to_string(),
                model_resident,
            );
        }
    }
    real.check_invariants();
    // The sequence is only a test of the idle path and of sparse inputs
    // if the switch really drained, and of the kernel if packets moved.
    assert!(idle_cycles > 0, "{case:?} never went quiescent");
    assert!(real.aggregate_stats().packets_forwarded() > 100, "{case:?}");
    Ok(())
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for ports in [2usize, 4, 8, 16] {
        for kind in BufferKind::EXTENDED {
            for policy in ArbiterPolicy::ALL {
                for never_refuses in [false, true] {
                    cases.push(Case {
                        seed: 0xD1FF_0000 + 97 * cases.len() as u64,
                        ports,
                        kind,
                        policy,
                        never_refuses,
                    });
                }
            }
        }
    }
    cases
}

#[test]
fn kernel_matches_the_reference_walk_on_every_design_policy_and_radix() {
    let mut run = 0;
    for case in cases() {
        differential(case, None).unwrap_or_else(|e| panic!("{case:?}: {e}"));
        run += 1;
    }
    assert_eq!(run, 4 * 5 * 2 * 2);
}

#[test]
fn kernel_matches_the_reference_walk_past_one_crossbar_word() {
    // 72 outputs: the crossbar's driven bits spill past their first
    // 64-bit word, which no radix up to 16 reaches.
    for (kind, policy) in [
        (BufferKind::Damq, ArbiterPolicy::Smart),
        (BufferKind::Safc, ArbiterPolicy::Dumb),
        (BufferKind::Fifo, ArbiterPolicy::Smart),
    ] {
        let case = Case {
            seed: 0xD1FF_0072,
            ports: 72,
            kind,
            policy,
            never_refuses: false,
        };
        differential(case, None).unwrap_or_else(|e| panic!("{case:?}: {e}"));
    }
}

#[test]
fn a_never_refusing_sink_is_never_asked() {
    // `differential` compares the question log with the reference's,
    // which stays empty in this mode — so this holds iff the kernel asked
    // nothing. Spelled out once on its own for the reader.
    let case = Case {
        seed: 7,
        ports: 4,
        kind: BufferKind::Safc,
        policy: ArbiterPolicy::Smart,
        never_refuses: true,
    };
    differential(case, None).unwrap();
}

#[test]
fn mutation_skipped_fifo_reread_has_teeth() {
    for case in cases().into_iter().filter(|c| !c.never_refuses) {
        let verdict = differential(case, Some(Mutation::SkipFifoReread));
        // The slip needs a design whose row a dequeue reshapes and a
        // policy that reads the row afterwards.
        if case.kind == BufferKind::Fifo && case.policy == ArbiterPolicy::Smart {
            let e = verdict.expect_err("a stale FIFO row must be caught");
            assert!(e.contains("stale counts"), "{case:?}: caught as: {e}");
        } else {
            verdict.unwrap_or_else(|e| panic!("{case:?}: harmless here, yet: {e}"));
        }
    }
}

#[test]
fn mutation_ties_to_the_high_index_has_teeth() {
    for case in cases() {
        let verdict = differential(case, Some(Mutation::TiesToHighIndex));
        // A FIFO offers one queue at a time, so it has no ties to break.
        if case.kind == BufferKind::Fifo {
            verdict.unwrap_or_else(|e| panic!("{case:?}: harmless here, yet: {e}"));
        } else {
            let e = verdict.expect_err("a flipped tie-break must be caught");
            assert!(e.contains("departures"), "{case:?}: caught as: {e}");
        }
    }
}
