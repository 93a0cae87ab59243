//! The committed throughput record, `BENCH_throughput.json` at the
//! workspace root, written by the `sim_throughput` bench.
//!
//! A run replaces the sections it sets and keeps the rest (the committed
//! `baseline` above all), so the file must be *read* before it is
//! written — and a file that exists but cannot be read or parsed (a
//! merge-conflict marker, a truncated write) must never be mistaken for
//! an absent one: starting fresh there would silently discard the
//! baseline. [`BenchRecord::open`] starts fresh only when the file is not
//! there; anything else is reported, the file is left untouched, and the
//! process exits non-zero.

use std::path::{Path, PathBuf};

use crate::json::Json;

/// `BENCH_throughput.json` held in memory between its read and its write.
#[derive(Debug)]
pub struct BenchRecord {
    path: PathBuf,
    sections: Vec<(String, Json)>,
}

impl BenchRecord {
    /// Opens the committed record (resolved from this crate's manifest,
    /// so it works from any working directory). Call it before measuring:
    /// a record that cannot be merged into fails the run up front.
    #[expect(clippy::print_stderr, reason = "the harness status channel")]
    pub fn open() -> BenchRecord {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_throughput.json");
        BenchRecord::open_at(path).unwrap_or_else(|problem| {
            eprintln!("error: {problem}; left untouched");
            std::process::exit(1)
        })
    }

    fn open_at(path: PathBuf) -> Result<BenchRecord, String> {
        let sections = match std::fs::read_to_string(&path) {
            Ok(text) => match Json::parse(&text) {
                Ok(Json::Obj(sections)) => sections,
                Ok(_) => return Err(format!("{} is not a JSON object", path.display())),
                Err(e) => return Err(format!("{}: {e}", path.display())),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                vec![("bench".to_owned(), Json::from("sim_throughput"))]
            }
            Err(e) => return Err(format!("could not read {}: {e}", path.display())),
        };
        Ok(BenchRecord { path, sections })
    }

    /// The section stored under `key`, if any.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.sections.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Replaces the section under `key`, or appends it.
    pub fn set(&mut self, key: &str, value: Json) {
        match self.sections.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = value,
            None => self.sections.push((key.to_owned(), value)),
        }
    }

    /// Writes the record back, announcing the path on stderr.
    ///
    /// # Errors
    ///
    /// The I/O error of the write, with the record's path; the caller
    /// fails the run on it rather than leave a stale record behind.
    #[expect(clippy::print_stderr, reason = "the harness status channel")]
    pub fn save(&self) -> Result<(), String> {
        let doc = Json::Obj(self.sections.clone());
        std::fs::write(&self.path, doc.render_pretty())
            .map_err(|e| format!("could not write {}: {e}", self.path.display()))?;
        eprintln!("wrote {}", self.path.display());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("damq_record_{tag}_{}.json", std::process::id()))
    }

    #[test]
    fn a_missing_record_starts_fresh_and_sections_merge() {
        let path = temp_path("fresh");
        let _ = std::fs::remove_file(&path);
        let mut record = BenchRecord::open_at(path.clone()).unwrap();
        assert_eq!(record.get("bench"), Some(&Json::from("sim_throughput")));
        record.set("current", Json::from(1i64));
        record.save().unwrap();

        // A second run replaces the sections it sets and keeps the rest.
        let mut record = BenchRecord::open_at(path.clone()).unwrap();
        record.set("baseline", Json::from(2i64));
        record.set("current", Json::from(3i64));
        record.save().unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\n  \"bench\": \"sim_throughput\",\n  \"current\": 3,\n  \"baseline\": 2\n}\n"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_record_that_cannot_be_written_is_an_error_naming_its_path() {
        // A regular file where the record's directory should be.
        let blocker = temp_path("blocker");
        std::fs::write(&blocker, "not a directory").unwrap();
        let path = blocker.join("BENCH_throughput.json");
        let record = BenchRecord {
            path: path.clone(),
            sections: Vec::new(),
        };
        let problem = record.save().unwrap_err();
        assert!(problem.contains(&path.display().to_string()), "{problem}");
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn an_unparsable_record_is_refused_and_left_byte_for_byte_intact() {
        let path = temp_path("conflict");
        let damaged = "{\n<<<<<<< HEAD\n  \"current\": {}\n=======\n";
        for contents in [damaged, "[1, 2]"] {
            std::fs::write(&path, contents).unwrap();
            let problem = BenchRecord::open_at(path.clone()).unwrap_err();
            assert!(problem.contains(&path.display().to_string()), "{problem}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), contents);
        }
        let _ = std::fs::remove_file(&path);
    }
}
