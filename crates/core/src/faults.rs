//! Deterministic fault injection behind the workspace's I/O seam.
//!
//! Every durable-state layer in the stack (the result store, the warm
//! snapshot cache, `.btbt` containers) routes its filesystem operations
//! through the thin wrappers in this module. With no plan armed the
//! wrappers are a single relaxed atomic load in front of the real
//! `std::fs` call — nothing allocates, nothing locks — so production
//! binaries pay effectively zero cost. Arming a
//! [`FaultPlan`] (tests, the chaos suite, `BTBX_FAULT_PLAN` in CI) turns
//! selected operations into injected failures: `ENOSPC` on a cache
//! publish, a torn temp-file write, a rename that never lands, a stalled
//! read.
//!
//! # Determinism
//!
//! A plan is a *schedule*, not a dice roll: each [`FaultRule`] names an
//! operation kind, a path substring, and the 1-based index of the first
//! matching operation to fire on (`nth`). Rules with `nth = 0` derive
//! their trigger index from the plan's `seed` and the rule's position, so
//! a proptest-generated `(seed, rules)` pair replays the exact same fault
//! sequence on every run. Matching is counted per rule with atomic
//! counters; the wrappers never consult wall-clock time or OS randomness.
//!
//! # Sites
//!
//! The path a wrapper matches against is the real filesystem path for
//! file operations and the stream name for container-writer sinks
//! (which write through a generic `Write + Seek` and have no path).

use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What an injected fault does to the matched operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrKind {
    /// The device is full: `ErrorKind::StorageFull`.
    Enospc,
    /// A generic I/O error.
    Eio,
    /// Write a prefix of the payload, then fail — the classic
    /// crash-mid-publish torn write.
    TornWrite,
    /// The rename never lands: `ErrorKind::PermissionDenied`.
    RenameFail,
    /// The read succeeds after an injected delay.
    SlowRead,
    /// The operation stalls for the rule's delay, then proceeds.
    Stall,
}

/// Which seam operation a rule matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultOp {
    /// Opening a file for reading.
    Open,
    /// Reading file contents (whole-file reads and container block reads).
    Read,
    /// Writing file contents (temp files, container sinks).
    Write,
    /// Renaming (atomic publishes, quarantines).
    Rename,
    /// Creating a directory tree.
    CreateDir,
}

/// One scheduled fault: "the `nth` `op` touching a path containing
/// `path` fails as `kind`, for `count` consecutive matches".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRule {
    /// Operation kind to match.
    pub op: FaultOp,
    /// Failure to inject.
    pub kind: ErrKind,
    /// Substring the operation's path must contain (empty matches all).
    #[serde(default)]
    pub path: String,
    /// 1-based index of the first matching operation to fire on;
    /// 0 derives a small deterministic index from the plan seed.
    #[serde(default)]
    pub nth: u64,
    /// Consecutive matches to fire on once triggered (0 = forever,
    /// default 1).
    #[serde(default = "default_count")]
    pub count: u64,
    /// Injected delay in milliseconds for `SlowRead`/`Stall` (default 10).
    #[serde(default = "default_delay_ms")]
    pub delay_ms: u64,
}

fn default_count() -> u64 {
    1
}

fn default_delay_ms() -> u64 {
    10
}

/// A seeded schedule of fault rules. Serializable so plans travel as
/// JSON through `BTBX_FAULT_PLAN` and proptest shrinks them
/// structurally.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    /// Seed for rules with `nth = 0`; also recorded so a failing chaos
    /// case names its schedule.
    #[serde(default)]
    pub seed: u64,
    /// The schedule, evaluated in order; the first rule that triggers on
    /// an operation wins.
    #[serde(default)]
    pub rules: Vec<FaultRule>,
}

struct ArmedRule {
    rule: FaultRule,
    /// Resolved 1-based trigger index (seed-derived when `nth` was 0).
    fire_at: u64,
    /// Operations this rule has matched so far.
    matches: AtomicU64,
    /// Faults this rule has injected so far.
    fired: AtomicU64,
}

struct ArmedPlan {
    rules: Vec<ArmedRule>,
    injected: AtomicU64,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<Arc<ArmedPlan>>> = Mutex::new(None);

/// Keeps a plan armed; dropping it disarms the seam (tests arm
/// per-case, binaries hold the guard for the process lifetime).
pub struct FaultGuard {
    plan: Arc<ArmedPlan>,
}

impl FaultGuard {
    /// Total faults injected since this plan was armed.
    pub fn injected(&self) -> u64 {
        self.plan.injected.load(Ordering::Relaxed)
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// Arm `plan` process-wide, replacing any armed plan. Returns a guard
/// whose drop disarms the seam.
pub fn arm(plan: FaultPlan) -> FaultGuard {
    let armed = Arc::new(ArmedPlan {
        rules: plan
            .rules
            .into_iter()
            .enumerate()
            .map(|(i, rule)| {
                let fire_at = if rule.nth == 0 {
                    // Small deterministic trigger index from the seed:
                    // splitmix-style mix of seed and rule position.
                    let mut x = plan
                        .seed
                        .wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    x ^= x >> 30;
                    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    x ^= x >> 27;
                    1 + (x % 4)
                } else {
                    rule.nth
                };
                ArmedRule {
                    rule,
                    fire_at,
                    matches: AtomicU64::new(0),
                    fired: AtomicU64::new(0),
                }
            })
            .collect(),
        injected: AtomicU64::new(0),
    });
    *PLAN.lock().unwrap() = Some(Arc::clone(&armed));
    ARMED.store(true, Ordering::SeqCst);
    FaultGuard { plan: armed }
}

/// Disarm the seam (idempotent).
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    *PLAN.lock().unwrap() = None;
}

/// `true` when a plan is armed — the one branch production I/O pays.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// What an armed rule told a wrapper to do.
enum Action {
    /// Fail with this error.
    Fail(io::Error),
    /// Write only this many payload bytes, then fail (torn write).
    Torn(io::Error),
    /// Sleep, then proceed normally.
    Delay(Duration),
}

fn error_for(kind: ErrKind) -> io::Error {
    match kind {
        ErrKind::Enospc => io::Error::new(io::ErrorKind::StorageFull, "injected ENOSPC"),
        ErrKind::Eio => io::Error::other("injected EIO"),
        ErrKind::TornWrite => io::Error::other("injected torn write"),
        ErrKind::RenameFail => {
            io::Error::new(io::ErrorKind::PermissionDenied, "injected rename failure")
        }
        // Delay kinds never produce an error; keep the mapping total.
        ErrKind::SlowRead | ErrKind::Stall => io::Error::other("injected delay"),
    }
}

/// Consult the armed plan for `op` on `path`. Slow path only — callers
/// check [`armed`] first.
fn consult(op: FaultOp, path: &str) -> Option<Action> {
    let plan = PLAN.lock().unwrap().as_ref().cloned()?;
    for r in &plan.rules {
        if r.rule.op != op || !path.contains(&r.rule.path) {
            continue;
        }
        let seen = r.matches.fetch_add(1, Ordering::Relaxed) + 1;
        let within = seen >= r.fire_at && (r.rule.count == 0 || seen < r.fire_at + r.rule.count);
        if !within {
            continue;
        }
        r.fired.fetch_add(1, Ordering::Relaxed);
        plan.injected.fetch_add(1, Ordering::Relaxed);
        return Some(match r.rule.kind {
            ErrKind::SlowRead | ErrKind::Stall => {
                Action::Delay(Duration::from_millis(r.rule.delay_ms))
            }
            ErrKind::TornWrite => Action::Torn(error_for(ErrKind::TornWrite)),
            kind => Action::Fail(error_for(kind)),
        });
    }
    None
}

/// Apply the plan to a non-write operation: fail, delay, or pass.
fn gate(op: FaultOp, path: &str) -> io::Result<()> {
    if !armed() {
        return Ok(());
    }
    match consult(op, path) {
        Some(Action::Fail(e)) | Some(Action::Torn(e)) => Err(e),
        Some(Action::Delay(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        None => Ok(()),
    }
}

/// Fault-aware `fs::write`: a torn-write rule persists a prefix of
/// `contents` before failing, exactly like a crash mid-`write(2)`.
pub fn write(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    let contents = contents.as_ref();
    if armed() {
        match consult(FaultOp::Write, &path.to_string_lossy()) {
            Some(Action::Fail(e)) => return Err(e),
            Some(Action::Torn(e)) => {
                let torn = &contents[..contents.len() / 2];
                let _ = fs::write(path, torn);
                return Err(e);
            }
            Some(Action::Delay(d)) => std::thread::sleep(d),
            None => {}
        }
    }
    fs::write(path, contents)
}

/// Fault-aware `fs::read`.
pub fn read(path: impl AsRef<Path>) -> io::Result<Vec<u8>> {
    let path = path.as_ref();
    gate(FaultOp::Read, &path.to_string_lossy())?;
    fs::read(path)
}

/// Fault-aware `fs::read_to_string`.
pub fn read_to_string(path: impl AsRef<Path>) -> io::Result<String> {
    let path = path.as_ref();
    gate(FaultOp::Read, &path.to_string_lossy())?;
    fs::read_to_string(path)
}

/// Fault-aware `fs::rename`; rules match against either endpoint.
pub fn rename(from: impl AsRef<Path>, to: impl AsRef<Path>) -> io::Result<()> {
    let (from, to) = (from.as_ref(), to.as_ref());
    if armed() {
        let site = format!("{}\u{0}{}", from.to_string_lossy(), to.to_string_lossy());
        gate(FaultOp::Rename, &site)?;
    }
    fs::rename(from, to)
}

/// Fault-aware `fs::create_dir_all`.
pub fn create_dir_all(path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref();
    gate(FaultOp::CreateDir, &path.to_string_lossy())?;
    fs::create_dir_all(path)
}

/// Fault-aware `File::open`.
pub fn open(path: impl AsRef<Path>) -> io::Result<fs::File> {
    let path = path.as_ref();
    gate(FaultOp::Open, &path.to_string_lossy())?;
    fs::File::open(path)
}

/// Gate a read on an already-open stream (container block reads); `site`
/// is the stream name or path.
pub fn check_read(site: &str) -> io::Result<()> {
    gate(FaultOp::Read, site)
}

/// Gate a write on an already-open sink (container writers); `site` is
/// the stream name.
pub fn check_write(site: &str) -> io::Result<()> {
    gate(FaultOp::Write, site)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The armed plan is process-global; serialize the tests that arm it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("btbx-faults-{tag}-{}", std::process::id()))
    }

    #[test]
    fn unarmed_wrappers_pass_through() {
        let _l = lock();
        disarm();
        let path = tmp("pass");
        write(&path, b"hello").unwrap();
        assert_eq!(read(&path).unwrap(), b"hello");
        assert_eq!(read_to_string(&path).unwrap(), "hello");
        let dst = tmp("pass-2");
        rename(&path, &dst).unwrap();
        assert!(open(&dst).is_ok());
        let _ = fs::remove_file(&dst);
    }

    #[test]
    fn nth_write_fails_enospc_and_scope_is_path_limited() {
        let _l = lock();
        let guard = arm(FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                op: FaultOp::Write,
                kind: ErrKind::Enospc,
                path: "scoped".into(),
                nth: 2,
                count: 1,
                delay_ms: 0,
            }],
        });
        let scoped = tmp("scoped");
        let other = tmp("other");
        write(&other, b"x").unwrap();
        write(&scoped, b"1").unwrap();
        let err = write(&scoped, b"2").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        write(&scoped, b"3").unwrap();
        assert_eq!(guard.injected(), 1);
        drop(guard);
        for p in [scoped, other] {
            let _ = fs::remove_file(p);
        }
    }

    #[test]
    fn torn_write_persists_a_prefix() {
        let _l = lock();
        let guard = arm(FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                op: FaultOp::Write,
                kind: ErrKind::TornWrite,
                path: "torn".into(),
                nth: 1,
                count: 1,
                delay_ms: 0,
            }],
        });
        let path = tmp("torn");
        let err = write(&path, b"0123456789").unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        assert_eq!(fs::read(&path).unwrap(), b"01234", "half the payload");
        drop(guard);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rename_fail_matches_either_endpoint_and_count_zero_is_forever() {
        let _l = lock();
        let guard = arm(FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                op: FaultOp::Rename,
                kind: ErrKind::RenameFail,
                path: "dest-side".into(),
                nth: 1,
                count: 0,
                delay_ms: 0,
            }],
        });
        let src = tmp("rn-src");
        fs::write(&src, b"x").unwrap();
        let dst = tmp("rn-dest-side");
        for _ in 0..3 {
            let err = rename(&src, &dst).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        }
        assert_eq!(guard.injected(), 3);
        assert!(fs::read(&src).is_ok(), "source untouched");
        drop(guard);
        let _ = fs::remove_file(&src);
    }

    #[test]
    fn seed_derived_nth_is_deterministic() {
        let _l = lock();
        let fire_at = |seed: u64| {
            let guard = arm(FaultPlan {
                seed,
                rules: vec![FaultRule {
                    op: FaultOp::Read,
                    kind: ErrKind::Eio,
                    path: "seeded".into(),
                    nth: 0,
                    count: 1,
                    delay_ms: 0,
                }],
            });
            let mut at = 0;
            for i in 1..=8 {
                if check_read("seeded").is_err() {
                    at = i;
                    break;
                }
            }
            drop(guard);
            at
        };
        let a = fire_at(7);
        assert_eq!(a, fire_at(7), "same seed, same schedule");
        assert!((1..=4).contains(&a));
    }

    #[test]
    fn plan_json_round_trips_through_serde() {
        let plan = FaultPlan {
            seed: 42,
            rules: vec![FaultRule {
                op: FaultOp::Read,
                kind: ErrKind::SlowRead,
                path: "cache".into(),
                nth: 3,
                count: 2,
                delay_ms: 5,
            }],
        };
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
