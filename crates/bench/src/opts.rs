//! Command-line options shared by every `btbx` subcommand.

use std::path::PathBuf;

/// Harness options parsed from `std::env::args`.
///
/// The paper warms for 50 M instructions and measures 50 M; the defaults
/// here are scaled to interactive hardware and can be raised with
/// `--warmup`/`--measure` for higher-fidelity runs (shapes are stable
/// well below the paper's window sizes because the synthetic workloads
/// cycle their working sets quickly).
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
    /// Worker threads; through `--server`/`--cluster`, the coordinator's
    /// bound on requests in flight.
    pub threads: usize,
    /// Read nowhere: every simulation runs serially. Kept only so struct
    /// literals that set it still compile.
    pub shards: usize,
    /// Replay this `.btbt` trace container instead of the synthetic
    /// suites (`sweep` substitutes it for the selected suite).
    pub trace: Option<PathBuf>,
    /// HTTP client timeout in milliseconds for `--server`/`--cluster`
    /// transports, applied per phase (connect, write, read) so a wedged
    /// node cannot stall a sweep indefinitely.
    pub http_timeout_ms: u64,
    /// Read nowhere: every sweep runs its cache-missing points in
    /// [`plan_batches`](crate::sweep::plan_batches) groups that share one
    /// trace source. Kept only so struct literals that set it still
    /// compile.
    pub batch: bool,
    /// Arm this JSON fault plan (a `btbx_bench::faults::FaultPlan`) for
    /// the whole run — chaos testing only.
    pub fault_plan: Option<PathBuf>,
    /// Where content-addressed cache blobs (results, trace containers)
    /// live. `None` keeps today's default: a `dir://` store under
    /// `<out>/cache`.
    pub store: Option<StoreUrl>,
}

/// Where a run's content-addressed blobs live, parsed from `--store`.
///
/// | Form | Backend |
/// |------|---------|
/// | `dir://<path>` (or a bare path) | local directory — the default layout |
/// | `mem://` | in-process map (tests) |
/// | `http://<host>:<port>` | a peer serve node's `GET/PUT /blob/<key>` endpoints |
///
/// Unknown schemes are loud parse errors, never silently treated as
/// paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreUrl {
    /// `dir://<path>`: the local-directory layout (today's default).
    Dir(PathBuf),
    /// `mem://`: an in-process map (tests).
    Mem,
    /// `http://<host>:<port>`: a remote blob endpoint.
    Http(String),
}

impl StoreUrl {
    /// Parse a store URL, rejecting unknown schemes loudly.
    ///
    /// # Errors
    ///
    /// A human-readable reason (scheme unknown, location missing or
    /// malformed); the caller wraps it in [`OptError::BadStore`].
    pub fn parse(s: &str) -> Result<Self, String> {
        if let Some(rest) = s.strip_prefix("dir://") {
            if rest.is_empty() {
                return Err("dir:// needs a path, e.g. dir://results/cache".to_string());
            }
            return Ok(StoreUrl::Dir(PathBuf::from(rest)));
        }
        if let Some(rest) = s.strip_prefix("mem://") {
            if !rest.is_empty() {
                return Err(format!("mem:// takes no location, got `{rest}`"));
            }
            return Ok(StoreUrl::Mem);
        }
        if let Some(rest) = s.strip_prefix("http://") {
            return Ok(StoreUrl::Http(parse_http_addr(rest)?));
        }
        if let Some((scheme, _)) = s.split_once("://") {
            return Err(format!(
                "unknown store scheme `{scheme}://` (expected dir://, mem:// or http://)"
            ));
        }
        if s.is_empty() {
            return Err("empty store URL".to_string());
        }
        // A bare path is a directory store, same as `--out` paths.
        Ok(StoreUrl::Dir(PathBuf::from(s)))
    }
}

/// Validate the `<host>:<port>` part of an `http://` store URL.
fn parse_http_addr(rest: &str) -> Result<String, String> {
    let addr = rest.trim_end_matches('/');
    if addr.contains('/') {
        return Err(format!(
            "http:// store takes `<host>:<port>` only (no path), got `{rest}`"
        ));
    }
    let (host, port) = addr
        .rsplit_once(':')
        .ok_or_else(|| format!("http:// store needs `<host>:<port>`, got `{rest}`"))?;
    if host.is_empty() {
        return Err(format!("http:// store needs a host, got `{rest}`"));
    }
    if port.parse::<u16>().is_err() {
        return Err(format!("http:// store port must be 1-65535, got `{port}`"));
    }
    Ok(addr.to_string())
}

impl std::fmt::Display for StoreUrl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreUrl::Dir(path) => write!(f, "dir://{}", path.display()),
            StoreUrl::Mem => f.write_str("mem://"),
            StoreUrl::Http(addr) => write!(f, "http://{addr}"),
        }
    }
}

/// Default [`HarnessOpts::http_timeout_ms`]: generous enough for the
/// largest single simulation a node might compute synchronously, small
/// enough that a truly wedged peer is eventually abandoned.
pub const DEFAULT_HTTP_TIMEOUT_MS: u64 = 600_000;

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            warmup: 500_000,
            measure: 1_000_000,
            offset_instrs: 1_000_000,
            fresh: false,
            out_dir: PathBuf::from("results"),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
            shards: 1,
            trace: None,
            http_timeout_ms: DEFAULT_HTTP_TIMEOUT_MS,
            batch: true,
            fault_plan: None,
            store: None,
        }
    }
}

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
    /// `--store` was given an unparseable or unknown-scheme URL.
    BadStore {
        /// What was passed.
        found: String,
        /// Why it was rejected.
        why: String,
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
            } => {
                write!(f, "{flag} expects a number, got `{v}`")
            }
            OptError::BadValue { flag, found: None } => {
                write!(f, "{flag} expects a value")
            }
            OptError::BadStore { found, why } => {
                write!(f, "--store: {why} (got `{found}`)")
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
  --threads N        worker threads (with --server or      [all cores]
                     --cluster: requests in flight)
  --trace FILE       replay a .btbt trace container instead of the
                     synthetic suites (see `btbx trace --help`)
  --http-timeout-ms N  per-phase HTTP timeout for --server/--cluster
                     transports                           [600000]
  --fresh            re-simulate even when cached results exist
                     (a crashed sweep resumes by rerunning it without
                     --fresh: finished points are cache hits)
  --fault-plan FILE  arm a JSON fault-injection plan for the run
                     (chaos testing; see EXPERIMENTS.md)
  --store URL        content-addressed store for cache blobs:
                     dir://PATH [default: <out>/cache], mem://, or
                     http://HOST:PORT (a peer's /blob endpoints)
  --out DIR          artifact + cache directory            [results]
  -h, --help         show this help";

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
                "--threads" => opts.threads = take("--threads")? as usize,
                "--http-timeout-ms" => {
                    opts.http_timeout_ms = take("--http-timeout-ms")?.max(1);
                }
                "--quick" => {
                    opts.warmup = 150_000;
                    opts.measure = 300_000;
                    opts.offset_instrs = 300_000;
                }
                "--fresh" => opts.fresh = true,
                "--fault-plan" => {
                    let file = it.next().ok_or(OptError::BadValue {
                        flag: "--fault-plan".to_string(),
                        found: None,
                    })?;
                    opts.fault_plan = Some(PathBuf::from(file));
                }
                "--trace" => {
                    let file = it.next().ok_or(OptError::BadValue {
                        flag: "--trace".to_string(),
                        found: None,
                    })?;
                    opts.trace = Some(PathBuf::from(file));
                }
                "--store" => {
                    let url = it.next().ok_or(OptError::BadValue {
                        flag: "--store".to_string(),
                        found: None,
                    })?;
                    opts.store = Some(
                        StoreUrl::parse(&url)
                            .map_err(|why| OptError::BadStore { found: url, why })?,
                    );
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

    /// The HTTP client timeout as a [`std::time::Duration`], clamped to
    /// the sane range (see [`sane_timeout`]).
    pub fn http_timeout(&self) -> std::time::Duration {
        sane_timeout(std::time::Duration::from_millis(self.http_timeout_ms))
    }
}

/// Longest timeout any network phase is allowed: a full day. Anything
/// larger is a unit mistake (or an overflow feeding `Instant` math) and
/// behaves like "forever" in practice.
pub const MAX_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(24 * 60 * 60);

/// Clamp a timeout into the sane range `[1 ms, 24 h]`.
///
/// Every socket timeout in the codebase goes through this one helper:
/// `TcpStream::connect_timeout` panics on a zero duration, and
/// arithmetic on huge durations (backoff multiplication, deadline
/// addition to `Instant`) can overflow — both classes of bug are cut off
/// here instead of at each call site.
pub fn sane_timeout(timeout: std::time::Duration) -> std::time::Duration {
    timeout.clamp(std::time::Duration::from_millis(1), MAX_TIMEOUT)
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
    fn http_timeout_parses_and_clamps() {
        assert_eq!(parse(&[]).unwrap().http_timeout_ms, DEFAULT_HTTP_TIMEOUT_MS);
        let o = parse(&["--http-timeout-ms", "2500"]).unwrap();
        assert_eq!(o.http_timeout_ms, 2500);
        assert_eq!(o.http_timeout(), std::time::Duration::from_millis(2500));
        let o = parse(&["--http-timeout-ms", "0"]).unwrap();
        assert_eq!(o.http_timeout_ms, 1, "zero would panic connect_timeout");
        assert!(parse(&["--http-timeout-ms", "soon"]).is_err());
    }

    #[test]
    fn fault_plan_flag() {
        assert_eq!(parse(&[]).unwrap().fault_plan, None);
        let o = parse(&["--fault-plan", "/tmp/plan.json"]).unwrap();
        assert_eq!(o.fault_plan, Some(PathBuf::from("/tmp/plan.json")));
        assert!(parse(&["--fault-plan"]).is_err());
    }

    #[test]
    fn sane_timeout_clamps_both_ends() {
        use std::time::Duration;
        assert_eq!(sane_timeout(Duration::ZERO), Duration::from_millis(1));
        assert_eq!(
            sane_timeout(Duration::from_secs(5)),
            Duration::from_secs(5),
            "in-range timeouts pass through"
        );
        assert_eq!(sane_timeout(Duration::MAX), MAX_TIMEOUT);
        // The overflow class this guards: Duration::MAX would panic
        // `Instant::now() + timeout`; the clamped value must not.
        let _ = std::time::Instant::now() + sane_timeout(Duration::MAX);
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

    #[test]
    fn store_url_parses_every_scheme() {
        assert_eq!(
            StoreUrl::parse("dir:///tmp/cache").unwrap(),
            StoreUrl::Dir(PathBuf::from("/tmp/cache"))
        );
        assert_eq!(
            StoreUrl::parse("results/cache").unwrap(),
            StoreUrl::Dir(PathBuf::from("results/cache")),
            "a bare path is a directory store"
        );
        assert_eq!(StoreUrl::parse("mem://").unwrap(), StoreUrl::Mem);
        assert_eq!(
            StoreUrl::parse("http://127.0.0.1:8080").unwrap(),
            StoreUrl::Http("127.0.0.1:8080".to_string())
        );
        assert_eq!(
            StoreUrl::parse("http://node:9000/").unwrap(),
            StoreUrl::Http("node:9000".to_string()),
            "trailing slash is tolerated"
        );
    }

    #[test]
    fn store_url_rejects_malformed_forms_loudly() {
        // (input, fragment the error must mention), so every rejection
        // path keeps a useful message.
        let cases: &[(&str, &str)] = &[
            ("", "empty"),
            ("dir://", "needs a path"),
            ("mem://extra", "takes no location"),
            ("s3://bucket", "unknown store scheme `s3://`"),
            ("ftp://x", "unknown store scheme `ftp://`"),
            ("http://", "needs `<host>:<port>`"),
            ("http://nohost", "needs `<host>:<port>`"),
            ("http://:8080", "needs a host"),
            ("http://host:notaport", "port must be"),
            ("http://host:99999", "port must be"),
            ("http://host:80/path", "no path"),
        ];
        for (input, fragment) in cases {
            let err = StoreUrl::parse(input).expect_err(input);
            assert!(
                err.contains(fragment),
                "`{input}` error `{err}` must mention `{fragment}`"
            );
        }
    }

    #[test]
    fn the_tiered_scheme_is_unknown() {
        let e = parse(&["--store", "tiered://local/cache,http://node:9000"]).unwrap_err();
        assert!(matches!(e, OptError::BadStore { .. }), "{e:?}");
        assert!(
            e.to_string().contains("unknown store scheme `tiered://`"),
            "{e}"
        );
    }

    #[test]
    fn store_url_display_round_trips() {
        let urls = [
            StoreUrl::Dir(PathBuf::from("/tmp/c")),
            StoreUrl::Mem,
            StoreUrl::Http("h:1234".to_string()),
        ];
        for url in urls {
            assert_eq!(StoreUrl::parse(&url.to_string()).unwrap(), url, "{url}");
        }
    }

    #[test]
    fn store_flag_wires_through() {
        assert_eq!(parse(&[]).unwrap().store, None, "default is no override");
        let o = parse(&["--store", "http://127.0.0.1:7700"]).unwrap();
        assert_eq!(o.store, Some(StoreUrl::Http("127.0.0.1:7700".to_string())));
        assert_eq!(
            parse(&["--store"]),
            Err(OptError::BadValue {
                flag: "--store".to_string(),
                found: None
            })
        );
        let e = parse(&["--store", "gopher://x"]).unwrap_err();
        assert!(matches!(e, OptError::BadStore { .. }), "{e:?}");
        assert!(
            e.to_string().contains("gopher://"),
            "the offending scheme must be named: {e}"
        );
    }
}
