//! Butterfly (k-ary n-fly) topology: a second MIN wiring.
//!
//! The paper evaluates an Omega network, but its buffer conclusions are
//! about switches, not wiring. The butterfly is the other classic
//! delta-class MIN: same `k^n` terminals, same `n` stages of `N/k`
//! switches, same destination-digit routing, different inter-stage
//! permutations (digit exchanges instead of rotations). Having both lets
//! the harness demonstrate that the DAMQ advantage is
//! topology-independent.
//!
//! Wiring (base-`k` digits `d_{n-1}…d_0` of a line number): sources enter
//! stage 0 directly; between stage `t` and `t+1` the line permutation
//! swaps digit 0 with digit `n-1-t`. Routing at stage `t` selects the
//! output named by digit `n-1-t` of the destination (most significant
//! first), so after the final stage the line number *is* the destination.

use damq_core::{InputPort, NodeId, OutputPort};

use crate::topology::{stage_count, TopologyError};

/// The wiring of an `N`-terminal butterfly built from `k`×`k` switches.
///
/// # Examples
///
/// ```
/// use damq_net::ButterflyTopology;
///
/// let topo = ButterflyTopology::new(64, 4)?;
/// assert_eq!(topo.stages(), 3);
/// assert_eq!(topo.switches_per_stage(), 16);
/// # Ok::<(), damq_net::TopologyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ButterflyTopology {
    size: usize,
    radix: usize,
    stages: usize,
}

impl ButterflyTopology {
    /// Creates the topology for `size` terminals and `radix`×`radix`
    /// switches.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] unless `size` is a positive power of
    /// `radix` and `2 <= radix <= 256`.
    pub fn new(size: usize, radix: usize) -> Result<Self, TopologyError> {
        Ok(ButterflyTopology {
            size,
            radix,
            stages: stage_count(size, radix)?,
        })
    }

    /// Number of source/sink terminals.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Switch radix `k`.
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// Number of switch stages (`log_k N`).
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Switches per stage (`N / k`).
    pub fn switches_per_stage(&self) -> usize {
        self.size / self.radix
    }

    /// Swaps base-`k` digit 0 with digit `pos` of `line`.
    fn swap_digit0(&self, line: usize, pos: usize) -> usize {
        let k = self.radix;
        let weight = k.pow(pos as u32);
        let d0 = line % k;
        let dp = (line / weight) % k;
        line - d0 - dp * weight + dp + d0 * weight
    }

    /// Where source terminal `source` enters stage 0 (directly: switch
    /// `source / k`, port `source mod k`).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn source_entry(&self, source: NodeId) -> (usize, InputPort) {
        assert!(source.index() < self.size, "source out of range");
        (
            source.index() / self.radix,
            InputPort::new(source.index() % self.radix),
        )
    }

    /// Where a packet leaving stage `stage` (not the last) through
    /// (`switch`, `output`) enters stage `stage + 1`: the butterfly digit
    /// exchange.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is the last stage or any index is out of range.
    pub fn next_hop(&self, stage: usize, switch: usize, output: OutputPort) -> (usize, InputPort) {
        assert!(stage + 1 < self.stages, "no stage after the last");
        assert!(switch < self.switches_per_stage(), "switch out of range");
        assert!(output.index() < self.radix, "output out of range");
        let line = switch * self.radix + output.index();
        let line = self.swap_digit0(line, self.stages - 1 - stage);
        (line / self.radix, InputPort::new(line % self.radix))
    }

    /// The output port a packet for `dest` takes at stage `stage` (most
    /// significant digit first, as in the Omega network).
    ///
    /// # Panics
    ///
    /// Panics if `stage` or `dest` is out of range.
    pub fn route_output(&self, stage: usize, dest: NodeId) -> OutputPort {
        assert!(stage < self.stages, "stage out of range");
        assert!(dest.index() < self.size, "destination out of range");
        OutputPort::new(dest.route_digit(stage, self.radix, self.stages))
    }

    /// The sink terminal reached from the last stage's (`switch`,
    /// `output`).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn sink_of(&self, switch: usize, output: OutputPort) -> NodeId {
        assert!(switch < self.switches_per_stage(), "switch out of range");
        assert!(output.index() < self.radix, "output out of range");
        NodeId::new(switch * self.radix + output.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(topo: &ButterflyTopology, s: usize, d: usize) -> NodeId {
        let (mut switch, _) = topo.source_entry(NodeId::new(s));
        for stage in 0..topo.stages() {
            let out = topo.route_output(stage, NodeId::new(d));
            if stage + 1 < topo.stages() {
                let (next, _) = topo.next_hop(stage, switch, out);
                switch = next;
            } else {
                return topo.sink_of(switch, out);
            }
        }
        unreachable!("loop returns at the last stage")
    }

    #[test]
    fn full_access_for_all_pairs() {
        for (size, radix) in [(8usize, 2usize), (16, 4), (64, 4), (27, 3)] {
            let topo = ButterflyTopology::new(size, radix).unwrap();
            for s in 0..size {
                for d in 0..size {
                    assert_eq!(
                        trace(&topo, s, d),
                        NodeId::new(d),
                        "{s}->{d} misrouted in {size}/{radix}"
                    );
                }
            }
        }
    }

    #[test]
    fn digit_swap_is_an_involution() {
        let topo = ButterflyTopology::new(64, 4).unwrap();
        for line in 0..64 {
            for pos in 1..3 {
                assert_eq!(topo.swap_digit0(topo.swap_digit0(line, pos), pos), line);
            }
        }
    }

    #[test]
    fn inter_stage_wiring_is_a_permutation() {
        let topo = ButterflyTopology::new(64, 4).unwrap();
        for stage in 0..2 {
            let mut seen = [false; 64];
            for sw in 0..16 {
                for o in 0..4 {
                    let (nsw, np) = topo.next_hop(stage, sw, OutputPort::new(o));
                    let line = nsw * 4 + np.index();
                    assert!(!seen[line], "collision at stage {stage}");
                    seen[line] = true;
                }
            }
        }
    }

    #[test]
    fn dimensions_match_omega() {
        let b = ButterflyTopology::new(64, 4).unwrap();
        assert_eq!(b.stages(), 3);
        assert_eq!(b.switches_per_stage(), 16);
        assert!(ButterflyTopology::new(12, 4).is_err());
    }
}
