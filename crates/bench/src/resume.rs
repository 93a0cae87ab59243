//! Checkpoint/resume for sweep harnesses: never lose a finished cell.
//!
//! Long fault-degradation sweeps record every completed cell to a sidecar
//! file — `results/json/<name>.cells.jsonl`, one `{"key": .., "cell": ..}`
//! object per line — *as the cell finishes*, under a mutex, so a crash or
//! interrupt loses at most the cells still in flight. A harness launched
//! with `--resume` reloads the sidecar and re-runs only the missing cells;
//! a fresh launch truncates it.
//!
//! The sidecar is append-only JSONL precisely because appends are the only
//! write that survives being interrupted halfway: on reload, a torn final
//! line fails to parse and is dropped, and every complete line before it
//! is kept.
//!
//! [`run`] is the whole pipeline a resumable harness needs — checkpoint,
//! pending cells, isolated execution, grid-order assembly — so the
//! binaries supply only their grid and their cell function ([`run_with`]
//! when they also bring their own isolation runner).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::grid::{Cell, Grid, Results};
use crate::json::{robustness_json, Json};
use crate::sweep::{run_isolated, CellOutcome, IsolationOptions, Watchdog};

/// The set of already-completed sweep cells, backed by an append-only
/// JSONL sidecar file.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    done: Mutex<BTreeMap<String, Json>>,
}

impl Checkpoint {
    /// Loads the sidecar for experiment `name` from the standard results
    /// directory, keeping every parseable line. Use for `--resume` runs.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the file not existing (an absent
    /// sidecar is an empty checkpoint).
    pub fn load(name: &str) -> io::Result<Checkpoint> {
        Checkpoint::load_in(crate::results_dir().join("json"), name)
    }

    /// Truncates any existing sidecar for `name` in the standard results
    /// directory and starts empty. Use for fresh (non-resume) runs so
    /// stale cells from an earlier grid cannot leak in.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or file removal.
    pub fn fresh(name: &str) -> io::Result<Checkpoint> {
        Checkpoint::fresh_in(crate::results_dir().join("json"), name)
    }

    /// [`Checkpoint::load`] against an explicit directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the file not existing.
    pub fn load_in(dir: impl Into<PathBuf>, name: &str) -> io::Result<Checkpoint> {
        let path = sidecar_path(dir, name);
        let mut done = BTreeMap::new();
        // Whether the sidecar carries lines the reload does not keep —
        // a torn tail, unparseable garbage, or duplicate keys from
        // interleaved crash/resume generations. Those lines are dead
        // weight that would otherwise accumulate across resumes, so the
        // load compacts them away below.
        let mut dead_lines = false;
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                for line in text.lines() {
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    // A torn tail line (crash mid-append) fails to parse:
                    // drop it and everything after — those cells re-run.
                    let Ok(entry) = Json::parse(line) else {
                        dead_lines = true;
                        break;
                    };
                    let (Some(Json::Str(key)), Some(cell)) = (entry.get("key"), entry.get("cell"))
                    else {
                        dead_lines = true;
                        break;
                    };
                    if done.insert(key.clone(), cell.clone()).is_some() {
                        // A later generation re-recorded the key: last
                        // write wins, and the earlier line is dead.
                        dead_lines = true;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        if dead_lines {
            compact(&path, &done)?;
        }
        Ok(Checkpoint {
            path,
            done: Mutex::new(done),
        })
    }

    /// [`Checkpoint::fresh`] against an explicit directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or file removal.
    pub fn fresh_in(dir: impl Into<PathBuf>, name: &str) -> io::Result<Checkpoint> {
        let path = sidecar_path(dir, name);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        match std::fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(Checkpoint {
            path,
            done: Mutex::new(BTreeMap::new()),
        })
    }

    /// The sidecar file backing this checkpoint.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether `key`'s cell is already recorded.
    pub fn contains(&self, key: &str) -> bool {
        self.done
            .lock()
            .expect("checkpoint poisoned")
            .contains_key(key)
    }

    /// The recorded cell for `key`, if any.
    pub fn get(&self, key: &str) -> Option<Json> {
        self.done
            .lock()
            .expect("checkpoint poisoned")
            .get(key)
            .cloned()
    }

    /// Completed cells recorded so far.
    pub fn len(&self) -> usize {
        self.done.lock().expect("checkpoint poisoned").len()
    }

    /// Whether no cells are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records one completed cell, appending it to the sidecar before
    /// updating the in-memory set. Safe to call from parallel sweep
    /// workers; recording an already-present key is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the append. The in-memory set is only
    /// updated on a successful write, so a failed append leaves the cell
    /// eligible to re-run.
    pub fn record(&self, key: &str, cell: &Json) -> io::Result<()> {
        let mut done = self.done.lock().expect("checkpoint poisoned");
        if done.contains_key(key) {
            return Ok(());
        }
        if let Some(parent) = self.path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let entry = Json::obj([("key", Json::from(key)), ("cell", cell.clone())]);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        writeln!(file, "{}", entry.render())?;
        done.insert(key.to_owned(), cell.clone());
        Ok(())
    }
}

/// Runs `grid` through the self-healing harness with per-cell
/// checkpointing under experiment `name`.
///
/// With `resume` the sidecar of an earlier run is reloaded and only the
/// cells missing from it execute; otherwise it is truncated and every
/// cell runs. Each pending cell goes through [`run_isolated`] — panic
/// boundary, cycle-budget watchdog, bounded retry, `f` seeing the attempt
/// index so it can reseed — and its record is appended to the sidecar the
/// moment it completes, so a crash later in the sweep loses nothing that
/// already finished.
///
/// Returns the records in grid order (the placeholder
/// `{"failed": true}` for a cell whose every attempt failed, so the
/// report still accounts for it) and the report's `robustness` section:
/// the outcomes of the cells that ran, plus how many were `resumed` from
/// the sidecar instead.
///
/// # Panics
///
/// Panics if the sidecar cannot be read, truncated or appended to.
pub fn run(
    name: &str,
    resume: bool,
    grid: Grid,
    opts: IsolationOptions,
    f: impl Fn(&Cell, &Watchdog, u32) -> Json + Sync,
) -> (Results<Json>, Json) {
    run_with(name, resume, grid, |pending, checkpoint| {
        let reports = run_isolated(pending, opts, |cell, watchdog, attempt| {
            checkpoint(cell, f(cell, watchdog, attempt));
        });
        reports.into_iter().map(|r| r.outcome).collect()
    })
}

/// [`run`] with the isolation left to the caller: `isolate` receives the
/// pending cells and a `checkpoint(cell, record)` callback to invoke from
/// inside each cell as it completes, and returns one outcome per pending
/// cell. This is how `chaos_soak` runs the same pipeline under
/// [`crate::sweep::run_isolated_recorded`].
///
/// # Panics
///
/// Panics if the sidecar cannot be read, truncated or appended to.
pub fn run_with(
    name: &str,
    resume: bool,
    grid: Grid,
    isolate: impl FnOnce(&[&Cell], &(dyn Fn(&Cell, Json) + Sync)) -> Vec<CellOutcome>,
) -> (Results<Json>, Json) {
    let checkpoint = if resume {
        Checkpoint::load(name)
    } else {
        Checkpoint::fresh(name)
    }
    .expect("checkpoint sidecar must be readable/writable");
    // A cell's sidecar key is its labels: stable across runs of the same
    // grid, distinct across cells.
    let key = |cell: &Cell| -> String {
        let labels = grid.labels(cell);
        let values: Vec<String> = labels.iter().map(|(_, v)| v.render()).collect();
        values.join("|")
    };

    let (done, pending): (Vec<&Cell>, Vec<&Cell>) = grid
        .cells()
        .iter()
        .partition(|cell| checkpoint.contains(&key(cell)));
    let outcomes = isolate(&pending, &|cell, record| {
        checkpoint
            .record(&key(cell), &record)
            .expect("checkpoint append must succeed");
    });
    let mut robustness = match robustness_json(&outcomes) {
        Json::Obj(pairs) => pairs,
        _ => unreachable!("the robustness section is always an object"),
    };
    robustness.push(("resumed".to_owned(), Json::from(done.len())));

    let failed = || Json::obj([("failed", Json::from(true))]);
    let records = grid.cells().iter().map(|c| checkpoint.get(&key(c)));
    let records = records.map(|r| r.unwrap_or_else(failed)).collect();
    (grid.with_values(records), Json::Obj(robustness))
}

fn sidecar_path(dir: impl Into<PathBuf>, name: &str) -> PathBuf {
    dir.into().join(format!("{name}.cells.jsonl"))
}

/// Rewrites the sidecar to exactly the surviving cells, one line per
/// key, via a temporary file and an atomic rename — an interrupted
/// compaction leaves either the old sidecar or the new one, never a
/// half-written mix. Keeps sidecar size proportional to the number of
/// *distinct* completed cells no matter how many crash/resume
/// generations appended to it.
fn compact(path: &Path, done: &BTreeMap<String, Json>) -> io::Result<()> {
    let tmp = path.with_extension("jsonl.tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        for (key, cell) in done {
            let entry = Json::obj([("key", Json::from(key.as_str())), ("cell", cell.clone())]);
            writeln!(file, "{}", entry.render())?;
        }
        // No fsync: if the rename is lost to a crash the old sidecar
        // simply survives un-compacted, which the next load fixes.
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("damq_checkpoint_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn record_and_reload_round_trip() {
        let dir = temp_dir("round_trip");
        let ck = Checkpoint::fresh_in(&dir, "exp").unwrap();
        assert!(ck.is_empty());
        let cell = Json::obj([("delivered", Json::from(0.5))]);
        ck.record("DAMQ|0.1", &cell).unwrap();
        ck.record("DAMQ|0.1", &cell).unwrap(); // idempotent
        ck.record("SAMQ|0.1", &Json::from(7i64)).unwrap();
        assert_eq!(ck.len(), 2);

        let reloaded = Checkpoint::load_in(&dir, "exp").unwrap();
        assert_eq!(reloaded.len(), 2);
        assert!(reloaded.contains("DAMQ|0.1"));
        assert_eq!(reloaded.get("DAMQ|0.1"), Some(cell));
        assert_eq!(reloaded.get("missing"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_truncates_and_missing_file_loads_empty() {
        let dir = temp_dir("fresh");
        let ck = Checkpoint::fresh_in(&dir, "exp").unwrap();
        ck.record("k", &Json::Null).unwrap();
        let ck = Checkpoint::fresh_in(&dir, "exp").unwrap();
        assert!(ck.is_empty());
        assert!(Checkpoint::load_in(&dir, "never_written")
            .unwrap()
            .is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn sidecar_lines(dir: &Path, name: &str) -> Vec<String> {
        std::fs::read_to_string(sidecar_path(dir, name))
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn load_compacts_duplicate_keys_and_keeps_the_last_write() {
        let dir = temp_dir("dup");
        let path = sidecar_path(&dir, "exp");
        std::fs::write(
            &path,
            "{\"key\":\"a\",\"cell\":1}\n{\"key\":\"b\",\"cell\":2}\n{\"key\":\"a\",\"cell\":3}\n",
        )
        .unwrap();
        let ck = Checkpoint::load_in(&dir, "exp").unwrap();
        assert_eq!(ck.len(), 2);
        assert_eq!(ck.get("a"), Some(Json::from(3i64)), "last write wins");
        // The sidecar itself was rewritten to one line per key.
        assert_eq!(sidecar_lines(&dir, "exp").len(), 2);
        // A clean sidecar reloads without touching the file.
        let before = std::fs::read_to_string(&path).unwrap();
        let ck = Checkpoint::load_in(&dir, "exp").unwrap();
        assert_eq!(ck.len(), 2);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_compacted_away_on_reload() {
        let dir = temp_dir("torn_compact");
        let path = sidecar_path(&dir, "exp");
        std::fs::write(
            &path,
            "{\"key\":\"good\",\"cell\":{\"v\":1}}\n{\"key\":\"torn\",\"ce",
        )
        .unwrap();
        let ck = Checkpoint::load_in(&dir, "exp").unwrap();
        assert_eq!(ck.len(), 1);
        let lines = sidecar_lines(&dir, "exp");
        assert_eq!(lines.len(), 1, "the torn tail is gone from disk");
        assert!(lines[0].contains("\"good\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ten_thousand_crash_resume_attempts_keep_the_sidecar_bounded() {
        // Every generation appends a duplicate of an existing cell
        // (simulating a crash after the append raced an earlier
        // generation's line) and then resumes. Compaction on load must
        // keep the sidecar proportional to the *distinct* cells, not
        // the attempt count.
        let dir = temp_dir("bounded");
        let ck = Checkpoint::fresh_in(&dir, "exp").unwrap();
        for k in 0..4 {
            ck.record(&format!("cell{k}"), &Json::from(k as i64))
                .unwrap();
        }
        let path = sidecar_path(&dir, "exp").to_path_buf();
        for attempt in 0..10_000u64 {
            // Simulated crash leftover: a stale duplicate line.
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            writeln!(file, "{{\"key\":\"cell0\",\"cell\":{attempt}}}").unwrap();
            drop(file);
            let ck = Checkpoint::load_in(&dir, "exp").unwrap();
            assert_eq!(ck.len(), 4, "attempt {attempt}");
            assert!(
                sidecar_lines(&dir, "exp").len() <= 4,
                "attempt {attempt}: sidecar grew past the distinct-cell count"
            );
        }
        let ck = Checkpoint::load_in(&dir, "exp").unwrap();
        assert_eq!(
            ck.get("cell0"),
            Some(Json::from(9_999i64)),
            "last write wins"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_line_is_dropped_on_reload() {
        let dir = temp_dir("torn");
        let path = sidecar_path(&dir, "exp");
        std::fs::write(
            &path,
            "{\"key\":\"good\",\"cell\":{\"v\":1}}\n{\"key\":\"torn\",\"ce",
        )
        .unwrap();
        let ck = Checkpoint::load_in(&dir, "exp").unwrap();
        assert_eq!(ck.len(), 1);
        assert!(ck.contains("good"));
        assert!(!ck.contains("torn"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
