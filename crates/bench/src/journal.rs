//! A per-point, append-only record file, kept for the benchmark harness
//! that times one fsync'd append.
//!
//! No sweep writes it: the content-addressed [`crate::store`] is the
//! whole recovery record. A sweep killed mid-run has published exactly
//! the points it finished, each by an atomic rename; rerunning the same
//! command finds them in the cache probe (`[name] N/M cached`) and
//! recomputes only the rest.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::Serialize;

/// One journal line. Flat by design (the vendored serde derive handles
/// no enum tagging): `event` is `"attempt"`, `"done"` or `"failed"`.
#[derive(Serialize)]
struct Record {
    event: String,
    /// The point's cache-file name — its content-addressed identity.
    key: String,
    /// Human-readable point label (attempt records).
    label: String,
    /// Failure description (failed records).
    error: String,
}

/// What [`SweepJournal::open`] recovered: always nothing, because
/// nothing reads a journal back.
#[derive(Debug, Default)]
pub struct JournalRecovery;

/// An open, append-only journal file.
#[derive(Debug)]
pub struct SweepJournal {
    file: Mutex<fs::File>,
    path: PathBuf,
}

/// Content-hash identity of a sweep's work list: seeded FNV-1a over the
/// sorted point cache-file names, so the same points name the same file
/// whatever their order.
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
    /// Open a fresh journal for `key` at
    /// `<out_dir>/cache/journal/sweep-<key>.jnl`, discarding any earlier
    /// file of that name. `resume` is ignored.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the journal directory or file.
    pub fn open(out_dir: &Path, key: u64, _resume: bool) -> io::Result<(Self, JournalRecovery)> {
        let dir = out_dir.join("cache").join("journal");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("sweep-{key:016x}.jnl"));
        let _ = fs::remove_file(&path);
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok((
            SweepJournal {
                file: Mutex::new(file),
                path,
            },
            JournalRecovery,
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

    /// Record that `key`'s result is published.
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

    /// Append one record and fsync it. Best-effort: a write failure is
    /// reported to stderr and the caller carries on.
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

    /// Remove the journal file.
    pub fn finish(self) {
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_append_and_finish_removes_the_file() {
        let dir = std::env::temp_dir().join(format!("btbx-journal-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let key = sweep_key(&["k.json".into()]);
        let (j, _) = SweepJournal::open(&dir, key, true).unwrap();
        j.attempt("k.json", "client/conv");
        j.done("k.json");
        j.failed("k.json", "node exploded");
        let path = j.path.clone();
        let lines = fs::read_to_string(&path).unwrap();
        assert_eq!(lines.lines().count(), 3, "{lines}");
        assert!(lines.contains("\"failed\"") && lines.contains("node exploded"));
        // Reopening starts a fresh file, whatever `resume` says.
        drop(j);
        let (j, _) = SweepJournal::open(&dir, key, true).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "");
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
