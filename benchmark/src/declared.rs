//! What `BENCHMARK.json` declares, compiled in so the binary and the file
//! cannot drift apart unnoticed.

use damq_bench::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Declared {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn text(obj: &Json, key: &str) -> Result<String, String> {
    match obj.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(format!("`{key}` is not a string")),
    }
}

fn list<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match doc.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("`{key}` is not a list")),
    }
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<Metric>, String> {
    list(doc, key)?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better: match text(m, "better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("`better` is `{other}`")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Declared {
    pub fn load() -> Result<Declared, String> {
        let doc = Json::parse(BENCHMARK_JSON).map_err(|e| e.to_string())?;
        Ok(Declared {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("`run_seconds` is not a number")?,
            workloads: list(&doc, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// The metrics a run of this kind prints.
    pub fn metrics(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    pub fn unit(&self, name: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.unit.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn benchmark_json_keeps_the_contract() {
        let d = Declared::load().expect("BENCHMARK.json parses");
        assert_eq!(d.workloads, crate::workloads::NAMES);
        assert!((2..=8).contains(&d.workloads.len()));
        assert!((1..=16).contains(&d.end_to_end.len()));
        assert!((1..=128).contains(&d.per_layer.len()));
        assert!((1.0..=60.0).contains(&d.run_seconds) && d.run_seconds.fract() == 0.0);
        let mut names: Vec<&str> = d
            .workloads
            .iter()
            .map(String::as_str)
            .chain(
                d.end_to_end
                    .iter()
                    .chain(&d.per_layer)
                    .map(|m| m.name.as_str()),
            )
            .collect();
        assert!(
            names.iter().all(|n| valid_name(n)),
            "a name breaks the pattern"
        );
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for m in &d.end_to_end {
            let bound = m.bound.expect("end-to-end metrics have a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        let setup = d
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
    }

    /// `benchmark/metrics.tsv` carries what `BENCHMARK.json` has no key for:
    /// each per-layer metric's layer and the end-to-end metric and workload
    /// it is predicted to move. The two must list the same metrics.
    #[test]
    fn every_per_layer_metric_has_its_prediction() {
        let d = Declared::load().expect("BENCHMARK.json parses");
        let tsv = include_str!("../metrics.tsv");
        let rows: Vec<Vec<&str>> = tsv
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| l.split('\t').collect())
            .collect();
        assert_eq!(rows.len(), d.per_layer.len());
        for (row, m) in rows.iter().zip(&d.per_layer) {
            assert_eq!(row.len(), 5, "{row:?}");
            assert_eq!(row[0], m.name);
            assert_eq!(
                row[0].split('.').next(),
                Some(row[1]),
                "layer of {}",
                m.name
            );
            assert_eq!(row[2], m.unit, "unit of {}", m.name);
            assert_eq!(
                row[3] == "higher",
                m.higher_is_better,
                "direction of {}",
                m.name
            );
            assert!(!row[4].is_empty(), "prediction of {}", m.name);
        }
    }

    /// The benchmark must measure the machine code users run.
    #[test]
    fn release_profile_matches_the_root_manifest() {
        let profile = |manifest: &str| -> Vec<String> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.split('#').next().unwrap_or("").trim().to_owned())
                .filter(|l| !l.is_empty())
                .collect()
        };
        let root = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
            .expect("root manifest");
        let own = include_str!("../Cargo.toml");
        assert!(!profile(&root).is_empty());
        assert_eq!(profile(&root), profile(own));
    }
}
