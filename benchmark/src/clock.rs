//! Host time at a nominal core clock.
//!
//! On the reference host the core clock itself moves: a register-only loop
//! of fixed length took anything from 0.72 to 0.93 ms over four minutes, and
//! the 64-terminal simulator's time moved with it (spread over twenty 12 s
//! runs: 21 % in seconds, 0.9 % in units of that loop). Wall-clock seconds
//! are therefore the wrong unit to compare two runs in. Every timed piece of
//! work is bracketed by a short dependent-chain loop whose length in core
//! clock ticks is fixed, and its duration is reported as the seconds it
//! would have taken had the clock stood at [`NOMINAL_NS_PER_STEP`] throughout.
//!
//! What this does not remove is time lost to a neighbour on the shared core
//! or cache (the loop barely notices that; the simulator does), which is
//! what the fast quantile over short windows is for, nor the share of a
//! memory-bound workload's time that does not scale with the core clock.

use std::hint::black_box;
use std::time::Instant;

/// Steps of the loop per reading: about 0.2 ms.
const STEPS: u32 = 120_000;

/// What one step takes at the reference host's usual clock. Any constant
/// would do; this one keeps the reported seconds close to real ones there.
const NOMINAL_NS_PER_STEP: f64 = 1.64;

/// One xorshift step: six dependent one-tick operations, nothing for the
/// memory system or a second issue port to help with.
fn step(x: u64) -> u64 {
    let x = x ^ (x << 13);
    let x = x ^ (x >> 7);
    x ^ (x << 17)
}

/// Nanoseconds per step right now: the faster of two half-length readings,
/// so one interrupt cannot inflate it.
fn ns_per_step() -> f64 {
    let reading = || {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..STEPS / 2 {
            x = black_box(step(x));
        }
        start.elapsed().as_nanos() as f64 / f64::from(STEPS / 2)
    };
    reading().min(reading())
}

/// Times pieces of work that follow one another, reading the core clock
/// between them.
#[derive(Debug)]
pub struct Clock {
    /// The reading taken after the previous piece.
    last: f64,
}

impl Clock {
    pub fn start() -> Self {
        Clock {
            last: ns_per_step(),
        }
    }

    /// Runs `work` and returns its result with its duration in nominal
    /// seconds: wall-clock time scaled by the mean of the clock readings on
    /// either side of it.
    pub fn time<R>(&mut self, work: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let result = work();
        let raw = start.elapsed().as_secs_f64();
        let after = ns_per_step();
        let scale = NOMINAL_NS_PER_STEP / (0.5 * (self.last + after));
        self.last = after;
        (result, raw * scale)
    }

    /// Nominal seconds per wall-clock second at the last reading, for
    /// durations measured some other way inside the piece just timed.
    pub fn scale(&self) -> f64 {
        NOMINAL_NS_PER_STEP / self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_seconds_track_real_ones_within_the_clocks_range() {
        let mut clock = Clock::start();
        let ((), nominal) = clock.time(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        // A debug build's loop is slower than the nominal step, so only the
        // order of magnitude is pinned here.
        assert!(nominal > 0.0005 && nominal < 0.5, "{nominal}");
        assert!(clock.scale() > 0.0);
    }
}
