//! Command-line options shared by every `btbx` subcommand.

use std::path::PathBuf;

/// Harness options parsed from `std::env::args`.
///
/// The paper warms for 50 M instructions and measures 50 M; the defaults
/// here are scaled to interactive hardware and can be raised with
/// `--warmup`/`--measure`. Not every figure shape survives the smaller
/// windows: at 14.5 KB the server-average BTB-X/PDede MPKI ratio reads
/// 1.03 at `--quick`, 0.97 at the defaults and 0.94 at 2M/4M, with PDede
/// ahead on 26, 21 and 17 of 35 servers (EXPERIMENTS.md, "Window-size
/// guidance").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessOpts {
    /// Warm-up instructions per simulation.
    pub warmup: u64,
    /// Measured instructions per simulation.
    pub measure: u64,
    /// Instructions per workload for offset-distribution studies.
    pub offset_instrs: u64,
    /// Ignore cached simulation results and re-run (the cache is still
    /// refreshed with the new results).
    pub fresh: bool,
    /// Output directory for CSV/JSON artifacts and the simulation cache.
    pub out_dir: PathBuf,
    /// Worker threads: points simulated (or, under `btbx serve`,
    /// requests handled) at once.
    pub threads: usize,
    /// Read nowhere: every simulation runs serially. Kept only so struct
    /// literals that set it still compile.
    pub shards: usize,
    /// Replay this `.btbt` trace container instead of the synthetic
    /// suites (`sweep` substitutes it for the selected suite).
    pub trace: Option<PathBuf>,
    /// Read nowhere: every sweep runs its cache-missing points in
    /// [`plan_batches`](crate::sweep::plan_batches) groups that share one
    /// trace source. Kept only so struct literals that set it still
    /// compile.
    pub batch: bool,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            warmup: 500_000,
            measure: 1_000_000,
            offset_instrs: 1_000_000,
            fresh: false,
            out_dir: PathBuf::from("results"),
            threads: std::thread::available_parallelism()
                .map(|n| n.get().min(MAX_THREADS))
                .unwrap_or(2),
            shards: 1,
            trace: None,
            batch: true,
        }
    }
}

/// Largest `--threads` value accepted. `btbx serve` starts every worker
/// up front, so the bound keeps a typo from asking the OS for a hundred
/// thousand threads.
pub const MAX_THREADS: usize = 1024;

/// A command-line parse failure, formatted for terminal display.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptError {
    /// A flag that is not part of the option grammar.
    UnknownFlag(String),
    /// A flag whose value is missing or not a number.
    BadValue {
        /// The flag, e.g. `--warmup`.
        flag: String,
        /// What was found instead of a value.
        found: Option<String>,
    },
    /// `--help` was requested; the caller should print usage and exit 0.
    HelpRequested,
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptError::UnknownFlag(flag) => {
                write!(f, "unknown option `{flag}` (try --help)")
            }
            OptError::BadValue {
                flag,
                found: Some(v),
            } if flag == "--threads" => {
                write!(f, "{flag} expects a number in 1..={MAX_THREADS}, got `{v}`")
            }
            OptError::BadValue {
                flag,
                found: Some(v),
            } => {
                write!(f, "{flag} expects a number, got `{v}`")
            }
            OptError::BadValue { flag, found: None } => {
                write!(f, "{flag} expects a value")
            }
            OptError::HelpRequested => f.write_str("help requested"),
        }
    }
}

impl std::error::Error for OptError {}

/// Usage text for the shared options (each subcommand prepends its own).
pub const OPTIONS_USAGE: &str = "\
options:
  --warmup N         warm-up instructions per simulation   [500000]
  --measure N        measured instructions per simulation  [1000000]
  --offset-instrs N  instructions per offset study         [1000000]
  --quick            preset: 150k warm-up / 300k measured windows
  --threads N        worker threads, 1-1024                [all cores]
  --trace FILE       replay a .btbt trace container instead of the
                     synthetic suites (see `btbx trace --help`)
  --fresh            re-simulate even when cached results exist
                     (a crashed sweep resumes by rerunning it without
                     --fresh: finished points are cache hits)
  --out DIR          artifact directory; results cache in
                     DIR/cache                             [results]
  -h, --help         show this help

environment:
  BTBX_FAULT_PLAN    inline JSON or a file path: arm a fault-injection
                     plan for the run (chaos testing; see EXPERIMENTS.md)";

impl HarnessOpts {
    /// Parse from an iterator of arguments (without the program name).
    ///
    /// # Errors
    ///
    /// [`OptError`] on unknown flags or malformed values;
    /// [`OptError::HelpRequested`] when `--help`/`-h` is present.
    pub fn try_parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, OptError> {
        let mut opts = HarnessOpts::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut take = |flag: &str| -> Result<u64, OptError> {
                let found = it.next();
                found
                    .as_deref()
                    .and_then(|v| v.parse().ok())
                    .ok_or(OptError::BadValue {
                        flag: flag.to_string(),
                        found,
                    })
            };
            match arg.as_str() {
                "--warmup" => opts.warmup = take("--warmup")?,
                "--measure" => opts.measure = take("--measure")?,
                "--offset-instrs" => opts.offset_instrs = take("--offset-instrs")?,
                "--threads" => {
                    let n = take("--threads")?;
                    if !(1..=MAX_THREADS as u64).contains(&n) {
                        return Err(OptError::BadValue {
                            flag: "--threads".to_string(),
                            found: Some(n.to_string()),
                        });
                    }
                    opts.threads = n as usize;
                }
                "--quick" => {
                    opts.warmup = 150_000;
                    opts.measure = 300_000;
                    opts.offset_instrs = 300_000;
                }
                "--fresh" => opts.fresh = true,
                "--trace" => {
                    let file = it.next().ok_or(OptError::BadValue {
                        flag: "--trace".to_string(),
                        found: None,
                    })?;
                    opts.trace = Some(PathBuf::from(file));
                }
                "--out" => {
                    let dir = it.next().ok_or(OptError::BadValue {
                        flag: "--out".to_string(),
                        found: None,
                    })?;
                    opts.out_dir = PathBuf::from(dir);
                }
                "--help" | "-h" => return Err(OptError::HelpRequested),
                other => return Err(OptError::UnknownFlag(other.to_string())),
            }
        }
        Ok(opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessOpts, OptError> {
        HarnessOpts::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.warmup, 500_000);
        assert!(!o.fresh);
    }

    #[test]
    fn numeric_flags() {
        let o = parse(&["--warmup", "1000", "--measure", "2000", "--threads", "4"]).unwrap();
        assert_eq!(o.warmup, 1000);
        assert_eq!(o.measure, 2000);
        assert_eq!(o.threads, 4);
    }

    #[test]
    fn threads_must_be_between_1_and_1024() {
        assert_eq!(parse(&["--threads", "1"]).unwrap().threads, 1);
        assert_eq!(parse(&["--threads", "1024"]).unwrap().threads, MAX_THREADS);
        for bad in ["0", "1025", "100000", "18446744073709551615"] {
            let err = parse(&["--threads", bad]).unwrap_err();
            assert_eq!(
                err,
                OptError::BadValue {
                    flag: "--threads".to_string(),
                    found: Some(bad.to_string()),
                }
            );
            assert!(err.to_string().contains("1..=1024"), "{err}");
        }
        assert!(HarnessOpts::default().threads <= MAX_THREADS);
    }

    #[test]
    fn quick_scales_down() {
        let o = parse(&["--quick"]).unwrap();
        assert!(o.measure < HarnessOpts::default().measure);
    }

    #[test]
    fn out_dir() {
        let o = parse(&["--out", "/tmp/x", "--fresh"]).unwrap();
        assert_eq!(o.out_dir, PathBuf::from("/tmp/x"));
        assert!(o.fresh);
    }

    #[test]
    fn trace_file() {
        assert_eq!(parse(&[]).unwrap().trace, None);
        let o = parse(&["--trace", "/tmp/t.btbt"]).unwrap();
        assert_eq!(o.trace, Some(PathBuf::from("/tmp/t.btbt")));
        assert!(parse(&["--trace"]).is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert_eq!(
            parse(&["--bogus"]),
            Err(OptError::UnknownFlag("--bogus".to_string()))
        );
        // Every point runs serially; the old sharding flag is gone.
        assert_eq!(
            parse(&["--shards", "2"]),
            Err(OptError::UnknownFlag("--shards".to_string()))
        );
        // A crashed sweep resumes by rerunning it; the cache is the
        // record of what finished.
        assert_eq!(
            parse(&["--resume"]),
            Err(OptError::UnknownFlag("--resume".to_string()))
        );
        // No option makes an outbound HTTP request.
        assert_eq!(
            parse(&["--http-timeout-ms", "2500"]),
            Err(OptError::UnknownFlag("--http-timeout-ms".to_string()))
        );
        // The cache is always `<out>/cache`; `--out` places it.
        assert_eq!(
            parse(&["--store", "dir:///tmp/cache"]),
            Err(OptError::UnknownFlag("--store".to_string()))
        );
        // `BTBX_FAULT_PLAN` is the one way to arm a fault plan.
        assert_eq!(
            parse(&["--fault-plan", "/tmp/plan.json"]),
            Err(OptError::UnknownFlag("--fault-plan".to_string()))
        );
    }

    #[test]
    fn missing_and_malformed_values_are_errors() {
        assert_eq!(
            parse(&["--warmup"]),
            Err(OptError::BadValue {
                flag: "--warmup".to_string(),
                found: None
            })
        );
        assert_eq!(
            parse(&["--measure", "lots"]),
            Err(OptError::BadValue {
                flag: "--measure".to_string(),
                found: Some("lots".to_string())
            })
        );
        assert!(parse(&["--out"]).is_err());
    }

    #[test]
    fn help_is_reported_not_exited() {
        assert_eq!(parse(&["--help"]), Err(OptError::HelpRequested));
        assert_eq!(parse(&["-h"]), Err(OptError::HelpRequested));
    }

    #[test]
    fn errors_render_usefully() {
        let e = parse(&["--bogus"]).unwrap_err();
        assert!(e.to_string().contains("--bogus"));
        let e = parse(&["--warmup", "x"]).unwrap_err();
        assert!(e.to_string().contains("expects a number"));
    }
}
