//! Fingerprints pinned per (size, seed, workload, unit) in
//! `benchmark/pins.tsv`, so a change that alters what is simulated fails
//! the run even though it repeats itself faithfully.
//!
//! A seed without a pin still checks every sample of a unit against the
//! unit's first. Regenerate the file with `damq-benchmark pin` — in a
//! change that means to alter simulated results, and says so.

const PINS_TSV: &str = include_str!("../pins.tsv");

#[derive(Debug, Default)]
pub struct Pins(Vec<(bool, u64, String, String, u64)>);

impl Pins {
    /// Parses the committed file.
    ///
    /// # Panics
    ///
    /// Panics on a malformed row: the file is part of the benchmark.
    pub fn load() -> Pins {
        Pins::parse(PINS_TSV)
    }

    pub fn parse(tsv: &str) -> Pins {
        let rows = tsv
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| {
                let f: Vec<&str> = l.split('\t').collect();
                assert_eq!(f.len(), 5, "pin row `{l}` has five fields");
                let smoke = match f[0] {
                    "smoke" => true,
                    "full" => false,
                    other => panic!("pin size `{other}` is `full` or `smoke`"),
                };
                let seed = f[1].parse().expect("pin seed is an integer");
                let digest = u64::from_str_radix(f[4], 16).expect("pin is 16 hex digits");
                (smoke, seed, f[2].to_owned(), f[3].to_owned(), digest)
            })
            .collect();
        Pins(rows)
    }

    pub fn get(&self, smoke: bool, seed: u64, workload: &str, unit: &str) -> Option<u64> {
        self.0
            .iter()
            .find(|p| p.0 == smoke && p.1 == seed && p.2 == workload && p.3 == unit)
            .map(|p| p.4)
    }

    pub fn row(smoke: bool, seed: u64, workload: &str, unit: &str, digest: u64) -> String {
        let size = if smoke { "smoke" } else { "full" };
        format!("{size}\t{seed}\t{workload}\t{unit}\t{digest:016x}")
    }
}
