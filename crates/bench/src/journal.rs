//! The crash-resumable sweep journal.
//!
//! Every sweep transport (local, and the coordinator behind `--server`
//! and `--cluster`) appends one JSON record per per-point event —
//! `attempt`, `done`, `failed` — to an fsync'd journal under
//! `<out>/cache/journal/`, keyed by a content hash of the sweep's work
//! list. A sweep killed mid-run leaves behind a journal whose `done`
//! records name exactly the points that were fully published;
//! `--resume` reads it back and re-dispatches only the rest,
//! producing the same bytes on disk as an undisturbed run (each point's
//! cache entry is content-addressed, so "skip what finished" composes
//! with "recompute what didn't" without any merge step).
//!
//! # Damage model
//!
//! The journal is append-only and fsync'd per record, so the only
//! expected damage from a crash is a torn *final* line — tolerated and
//! ignored on recovery, exactly like a half-written cache temp file.
//! Damage anywhere earlier means something other than a crash rewrote
//! history; the whole journal is then quarantined to `<name>.corrupt`
//! (the same convention as [`crate::store`] entries) and recovery starts
//! empty, which is always safe — at worst a finished point recomputes.
//!
//! A `done` record is written only *after* the point's store entry is
//! durably published, so "in journal but not on disk" can only mean
//! external deletion; resume double-checks the entry file and
//! re-dispatches when it is missing.
//!
//! Journal I/O deliberately bypasses the fault-injection seam
//! ([`crate::faults`]): the journal is the recovery mechanism under
//! test, and its own damage handling is exercised by corrupting journal
//! bytes directly.

use std::collections::HashSet;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// One journal line. Flat by design (the vendored serde derive handles
/// no enum tagging): `event` is `"attempt"`, `"done"` or `"failed"`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Record {
    event: String,
    /// The point's cache-file name — its content-addressed identity.
    key: String,
    /// Human-readable point label (attempt records).
    #[serde(default)]
    label: String,
    /// Failure description (failed records).
    #[serde(default)]
    error: String,
}

/// What recovery found in a pre-existing journal.
#[derive(Debug, Default)]
pub struct JournalRecovery {
    /// Cache-file names of points the journal records as published.
    pub completed: HashSet<String>,
    /// Points that permanently failed before the crash, as
    /// `(key, error)`; informational — resume re-dispatches them.
    pub failed: Vec<(String, String)>,
    /// `true` when interior damage forced a quarantine (recovery is then
    /// empty).
    pub quarantined: bool,
}

/// An open, append-only sweep journal.
#[derive(Debug)]
pub struct SweepJournal {
    file: Mutex<fs::File>,
    path: PathBuf,
}

/// Journal directory for an output dir: `<out>/cache/journal/`.
pub fn journal_dir(out_dir: &Path) -> PathBuf {
    out_dir.join("cache").join("journal")
}

/// Content-hash identity of a sweep's work list: seeded FNV-1a over the
/// sorted point cache-file names. Geometry- and transport-independent,
/// so `--resume` finds the journal of any earlier invocation covering
/// the same points.
pub fn sweep_key(names: &[String]) -> u64 {
    let mut sorted: Vec<&str> = names.iter().map(String::as_str).collect();
    sorted.sort_unstable();
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ 0x9e37_79b9_7f4a_7c15;
    for name in sorted {
        for &b in name.as_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash ^= 0xff; // name separator
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl SweepJournal {
    /// Open the journal for `sweep_key` under `out_dir`.
    ///
    /// With `resume` true, a pre-existing journal is parsed into the
    /// returned [`JournalRecovery`] (tolerating a torn final line,
    /// quarantining interior damage); otherwise any pre-existing journal
    /// is discarded and the run starts a fresh history.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the journal directory or file.
    pub fn open(out_dir: &Path, key: u64, resume: bool) -> io::Result<(Self, JournalRecovery)> {
        let dir = journal_dir(out_dir);
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("sweep-{key:016x}.jnl"));
        let recovery = if resume {
            recover(&path)
        } else {
            let _ = fs::remove_file(&path);
            JournalRecovery::default()
        };
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok((
            SweepJournal {
                file: Mutex::new(file),
                path,
            },
            recovery,
        ))
    }

    /// Record that `key` is about to be dispatched.
    pub fn attempt(&self, key: &str, label: &str) {
        self.append(Record {
            event: "attempt".into(),
            key: key.into(),
            label: label.into(),
            error: String::new(),
        });
    }

    /// Record that `key`'s result is durably published. Call only after
    /// the store entry landed — the resume contract depends on it.
    pub fn done(&self, key: &str) {
        self.append(Record {
            event: "done".into(),
            key: key.into(),
            label: String::new(),
            error: String::new(),
        });
    }

    /// Record that `key` failed permanently.
    pub fn failed(&self, key: &str, error: &str) {
        self.append(Record {
            event: "failed".into(),
            key: key.into(),
            label: String::new(),
            error: error.into(),
        });
    }

    /// Append one record and fsync it. Best-effort: a journal write
    /// failure must not fail the sweep it protects, so errors are
    /// reported to stderr and the run continues (it merely loses
    /// resumability for this point).
    fn append(&self, record: Record) {
        let line = match serde_json::to_string(&record) {
            Ok(json) => json + "\n",
            Err(e) => {
                eprintln!("[journal] cannot encode record: {e}");
                return;
            }
        };
        let mut file = self.file.lock().unwrap_or_else(|p| p.into_inner());
        if let Err(e) = file
            .write_all(line.as_bytes())
            .and_then(|_| file.sync_data())
        {
            eprintln!("[journal] append failed ({}): {e}", self.path.display());
        }
    }

    /// The sweep completed: the journal has served its purpose; remove
    /// it so a later `--resume` of the same matrix starts clean.
    pub fn finish(self) {
        let _ = fs::remove_file(&self.path);
    }

    /// The journal file's path (tests and diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Parse a pre-existing journal, tolerating a torn final line and
/// quarantining interior damage.
fn recover(path: &Path) -> JournalRecovery {
    let content = match fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return JournalRecovery::default(),
        Err(e) => {
            eprintln!(
                "[journal] unreadable ({}): {e}; starting fresh",
                path.display()
            );
            quarantine(path);
            return JournalRecovery {
                quarantined: true,
                ..JournalRecovery::default()
            };
        }
    };
    let lines: Vec<&str> = content.split('\n').collect();
    let mut recovery = JournalRecovery::default();
    for (i, line) in lines.iter().enumerate() {
        if line.is_empty() {
            continue;
        }
        let last = i + 1 == lines.len() || (i + 2 == lines.len() && lines[i + 1].is_empty());
        match serde_json::from_str::<Record>(line) {
            Ok(r) => match r.event.as_str() {
                "done" => {
                    recovery.completed.insert(r.key);
                }
                "failed" => recovery.failed.push((r.key, r.error)),
                _ => {}
            },
            // A torn tail is the expected crash signature: the record
            // was cut mid-write, so the point simply counts as not done.
            Err(_) if last => break,
            Err(e) => {
                eprintln!(
                    "[journal] damaged at line {} ({}): {e}; quarantining",
                    i + 1,
                    path.display()
                );
                quarantine(path);
                return JournalRecovery {
                    quarantined: true,
                    ..JournalRecovery::default()
                };
            }
        }
    }
    recovery
}

/// Move a damaged journal aside (same convention as store entries).
fn quarantine(path: &Path) {
    let target = PathBuf::from(format!("{}.corrupt", path.display()));
    if fs::rename(path, &target).is_err() {
        // Renaming failed (exotic filesystems): fall back to removal so
        // the fresh journal is not re-poisoned.
        let _ = fs::remove_file(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("btbx-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn done_records_survive_reopen_and_failed_are_reported() {
        let dir = fresh_dir("roundtrip");
        let key = sweep_key(&["a.json".into(), "b.json".into()]);
        {
            let (j, rec) = SweepJournal::open(&dir, key, false).unwrap();
            assert!(rec.completed.is_empty());
            j.attempt("a.json", "client/conv");
            j.done("a.json");
            j.attempt("b.json", "client/btbx");
            j.failed("b.json", "node exploded");
        }
        let (_j, rec) = SweepJournal::open(&dir, key, true).unwrap();
        assert!(rec.completed.contains("a.json"));
        assert!(!rec.completed.contains("b.json"));
        assert_eq!(rec.failed, vec![("b.json".into(), "node exploded".into())]);
        assert!(!rec.quarantined);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn without_resume_history_is_discarded() {
        let dir = fresh_dir("fresh");
        let key = sweep_key(&["p.json".into()]);
        {
            let (j, _) = SweepJournal::open(&dir, key, false).unwrap();
            j.done("p.json");
        }
        let (_j, rec) = SweepJournal::open(&dir, key, false).unwrap();
        assert!(rec.completed.is_empty(), "fresh open truncates");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_is_tolerated() {
        let dir = fresh_dir("torn");
        let key = sweep_key(&["x.json".into()]);
        let path;
        {
            let (j, _) = SweepJournal::open(&dir, key, false).unwrap();
            j.done("x.json");
            path = j.path().to_path_buf();
        }
        // Simulate a crash mid-append: a torn, unparsable tail.
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"event\":\"done\",\"ke").unwrap();
        drop(f);
        let (_j, rec) = SweepJournal::open(&dir, key, true).unwrap();
        assert!(rec.completed.contains("x.json"), "prefix survives");
        assert!(!rec.quarantined, "a torn tail is not damage");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interior_damage_quarantines_the_journal() {
        let dir = fresh_dir("damage");
        let key = sweep_key(&["y.json".into()]);
        let path;
        {
            let (j, _) = SweepJournal::open(&dir, key, false).unwrap();
            j.done("y.json");
            j.done("z.json");
            path = j.path().to_path_buf();
        }
        let good = fs::read_to_string(&path).unwrap();
        fs::write(&path, good.replacen("{\"event\"", "garbage", 1)).unwrap();
        let (_j, rec) = SweepJournal::open(&dir, key, true).unwrap();
        assert!(rec.completed.is_empty(), "damaged history is not trusted");
        assert!(rec.quarantined);
        assert!(
            fs::metadata(format!("{}.corrupt", path.display())).is_ok(),
            "damaged journal is preserved for inspection"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_removes_the_journal() {
        let dir = fresh_dir("finish");
        let key = sweep_key(&["k.json".into()]);
        let (j, _) = SweepJournal::open(&dir, key, false).unwrap();
        j.done("k.json");
        let path = j.path().to_path_buf();
        j.finish();
        assert!(fs::metadata(&path).is_err(), "journal gone after finish");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_key_ignores_order_and_separates_names() {
        let a = sweep_key(&["one.json".into(), "two.json".into()]);
        let b = sweep_key(&["two.json".into(), "one.json".into()]);
        assert_eq!(a, b, "order-independent");
        let c = sweep_key(&["one.jsontwo".into(), ".json".into()]);
        assert_ne!(a, c, "names are separated, not concatenated");
        assert_ne!(a, sweep_key(&["one.json".into()]));
    }
}
