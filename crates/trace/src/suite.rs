//! Named workload suites mirroring the paper's evaluation inputs.
//!
//! * [`Suite::Ipc1Client`] / [`Suite::Ipc1Server`] — stand-ins for the
//!   Qualcomm IPC-1 traces. The paper evaluates 8 client and 35 server
//!   traces named `client_001..008` and `server_001..004,009..039`
//!   (server_005–008 do not exist in IPC-1; the naming gap is preserved).
//!   Server footprints vary widely; traces `server_023..035` are the very
//!   large ones that dominate Figure 9's right half.
//! * [`Suite::Cvp1`] — a 48-member family standing in for the 750+ CVP-1
//!   server traces of Figure 12 (only offset CDFs are needed there).
//! * [`Suite::X86Apps`] — the five x86 server applications of Figure 13:
//!   Wordpress, Mediawiki, Drupal, Kafka and Finagle-HTTP.

use crate::any::{AnySource, TraceOpenError};
use crate::container::{self, PackedFileSource};
use crate::synth::{ProgramImage, SynthParams, SyntheticTrace};
use btbx_core::types::Arch;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// The four workload families of the paper, plus on-disk trace files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Suite {
    /// IPC-1 client traces (small footprints).
    Ipc1Client,
    /// IPC-1 server traces (large footprints).
    Ipc1Server,
    /// CVP-1 server traces (offset-distribution study, Figure 12).
    Cvp1,
    /// x86 server applications (Figure 13).
    X86Apps,
    /// A real trace file (`.btbt` container) rather than a synthetic
    /// family — how genuine IPC-1-style traces enter the harness.
    TraceFile,
}

impl Suite {
    /// Human-readable suite name.
    pub const fn name(self) -> &'static str {
        match self {
            Suite::Ipc1Client => "ipc1-client",
            Suite::Ipc1Server => "ipc1-server",
            Suite::Cvp1 => "cvp1",
            Suite::X86Apps => "x86-apps",
            Suite::TraceFile => "trace-file",
        }
    }
}

/// Reference to an on-disk `.btbt` trace container.
///
/// The `content_hash` (from the container header) is the trace's
/// identity: result caches key on it, never on `path`, so moving or
/// renaming a container keeps its cached results, while swapping the
/// file's contents under the same path invalidates them (and is caught
/// at open by [`WorkloadSpec::build_source`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRef {
    /// Where the container currently lives. Not part of the trace's
    /// identity.
    pub path: PathBuf,
    /// Content hash from the container header.
    pub content_hash: u64,
}

/// A fully specified workload: a synthetic generator configuration, or a
/// reference to a trace container when [`trace`](Self::trace) is set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name (`server_032`, `wordpress`, a trace's stream name…).
    pub name: String,
    /// Owning suite.
    pub suite: Suite,
    /// Generator seed (image and walker derive from it; unused for
    /// file-backed workloads).
    pub seed: u64,
    /// Generator parameters. For file-backed workloads only
    /// `params.arch` is meaningful (taken from the container header).
    pub params: SynthParams,
    /// Set for file-backed workloads: the container this spec replays.
    #[serde(default)]
    pub trace: Option<TraceRef>,
}

impl WorkloadSpec {
    /// Describe the `.btbt` container at `path` as a workload: reads the
    /// header for the stream name, architecture and content hash.
    ///
    /// # Errors
    ///
    /// [`TraceOpenError`] when the file is not a readable container.
    pub fn from_container(path: impl AsRef<Path>) -> Result<WorkloadSpec, TraceOpenError> {
        let path = path.as_ref();
        let info = container::read_info(path).map_err(TraceOpenError::Container)?;
        let mut params = SynthParams::server(100);
        params.arch = info.arch;
        Ok(WorkloadSpec {
            name: info.name,
            suite: Suite::TraceFile,
            seed: 0,
            params,
            trace: Some(TraceRef {
                path: path.to_path_buf(),
                content_hash: info.content_hash,
            }),
        })
    }

    /// Generate the program image for this workload.
    ///
    /// # Panics
    ///
    /// Panics for file-backed workloads, which have no generator image.
    pub fn build_image(&self) -> ProgramImage {
        assert!(
            self.trace.is_none(),
            "file-backed workload `{}` has no synthetic image",
            self.name
        );
        ProgramImage::generate(&self.params, self.seed)
    }

    /// Generate the executable trace for this workload.
    ///
    /// # Panics
    ///
    /// Panics for file-backed workloads; use
    /// [`build_source`](Self::build_source), which covers both kinds.
    pub fn build_trace(&self) -> SyntheticTrace {
        SyntheticTrace::new(self.build_image(), self.name.clone(), self.seed)
    }

    /// Build the trace stream for this workload — the entry point that
    /// covers synthetic and file-backed workloads alike, and the one a
    /// sweep group clones per member.
    ///
    /// # Errors
    ///
    /// [`TraceOpenError`] when a referenced container is missing,
    /// invalid, or its content hash no longer matches the reference
    /// (the file was swapped since the spec was made).
    pub fn build_source(&self) -> Result<AnySource, TraceOpenError> {
        match &self.trace {
            None => Ok(AnySource::Synth(self.build_trace())),
            Some(tref) => {
                let source =
                    PackedFileSource::open(&tref.path).map_err(TraceOpenError::Container)?;
                if source.info().content_hash != tref.content_hash {
                    return Err(TraceOpenError::Container(
                        crate::container::ContainerError::Corrupt(
                            "container content changed since the workload spec was made \
                             (content hash mismatch)",
                        ),
                    ));
                }
                Ok(AnySource::Packed(source))
            }
        }
    }

    /// `true` for server-class workloads (used when aggregating figures
    /// into server/client groups). File-backed traces count as server
    /// workloads: the paper's trace-driven inputs are server traces.
    pub fn is_server(&self) -> bool {
        matches!(
            self.suite,
            Suite::Ipc1Server | Suite::Cvp1 | Suite::X86Apps | Suite::TraceFile
        )
    }
}

/// The 8 IPC-1 client workloads.
pub fn ipc1_client() -> Vec<WorkloadSpec> {
    (1..=8u64)
        .map(|i| {
            let funcs = 55 + (i as usize) * 16; // 71..183 functions
            let mut params = SynthParams::client(funcs);
            // Slight per-trace personality: loopier vs callier clients.
            params.mean_loop_trips = 6.0 + (i % 4) as f64 * 2.0;
            params.zipf_s = 0.95 + (i % 3) as f64 * 0.08;
            WorkloadSpec {
                name: format!("client_{i:03}"),
                suite: Suite::Ipc1Client,
                seed: 0xC11E_0000 + i,
                params,
                trace: None,
            }
        })
        .collect()
}

/// IPC-1 server trace numbers: 001–004 and 009–039 (035 total).
pub const IPC1_SERVER_IDS: [u32; 35] = [
    1, 2, 3, 4, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29,
    30, 31, 32, 33, 34, 35, 36, 37, 38, 39,
];

/// Footprint class for one server trace id, shaping Figure 9's profile:
/// moderate working sets for 001–022, very large for 023–035, medium for
/// 036–039.
fn server_funcs(id: u32) -> usize {
    match id {
        1..=4 => 500 + (id as usize * 157) % 400,
        9..=22 => 600 + ((id as usize * 83) % 13) * 70,
        23..=35 => 1600 + (id as usize - 23) * 130,
        _ => 900 + ((id as usize * 31) % 7) * 70,
    }
}

/// The 35 IPC-1 server workloads.
pub fn ipc1_server() -> Vec<WorkloadSpec> {
    IPC1_SERVER_IDS
        .iter()
        .map(|&id| {
            let mut params = SynthParams::server(server_funcs(id));
            // Big-footprint traces touch more pages (harder for PDede)
            // and spread execution across more handlers.
            if (23..=35).contains(&id) {
                params.big_gap_fraction = 0.08;
                params.zipf_s = 0.35;
            }
            WorkloadSpec {
                name: format!("server_{id:03}"),
                suite: Suite::Ipc1Server,
                seed: 0x5E4E_0000 + id as u64,
                params,
                trace: None,
            }
        })
        .collect()
}

/// All 43 IPC-1 workloads in the paper's figure order (clients first).
pub fn ipc1_all() -> Vec<WorkloadSpec> {
    let mut v = ipc1_client();
    v.extend(ipc1_server());
    v
}

/// A CVP-1-like family of `n` server workloads (default 48) used for the
/// Figure 12 offset study.
pub fn cvp1(n: usize) -> Vec<WorkloadSpec> {
    (0..n as u64)
        .map(|i| {
            let funcs = 220 + ((i * 97) % 29) as usize * 74; // 220..2293
            let mut params = SynthParams::server(funcs);
            params.zipf_s = 0.6 + (i % 5) as f64 * 0.1;
            WorkloadSpec {
                name: format!("cvp_{:03}", i + 1),
                suite: Suite::Cvp1,
                seed: 0xC4B1_0000 + i,
                params,
                trace: None,
            }
        })
        .collect()
}

/// The five x86 server applications of Figure 13.
pub fn x86_apps() -> Vec<WorkloadSpec> {
    let spec = |name: &str, seed: u64, funcs: usize, zipf: f64| {
        let mut params = SynthParams::server(funcs);
        params.arch = Arch::X86;
        params.zipf_s = zipf;
        WorkloadSpec {
            name: name.to_string(),
            suite: Suite::X86Apps,
            seed,
            params,
            trace: None,
        }
    };
    vec![
        spec("wordpress", 0x8600_0001, 1500, 0.72),
        spec("mediawiki", 0x8600_0002, 1350, 0.75),
        spec("drupal", 0x8600_0003, 1600, 0.70),
        spec("kafka", 0x8600_0004, 1100, 0.82),
        spec("finagle-http", 0x8600_0005, 900, 0.85),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::TraceSource;

    #[test]
    fn client_suite_has_eight_named_traces() {
        let c = ipc1_client();
        assert_eq!(c.len(), 8);
        assert_eq!(c[0].name, "client_001");
        assert_eq!(c[7].name, "client_008");
        assert!(c.iter().all(|w| !w.is_server()));
    }

    #[test]
    fn server_suite_matches_paper_numbering() {
        let s = ipc1_server();
        assert_eq!(s.len(), 35);
        assert_eq!(s[0].name, "server_001");
        assert_eq!(s[4].name, "server_009", "ids 005–008 do not exist");
        assert_eq!(s[34].name, "server_039");
    }

    #[test]
    fn big_servers_have_bigger_footprints() {
        // server_023..035 must dwarf server_001..004 (Figure 9 shape).
        assert!(server_funcs(30) > 2 * server_funcs(2));
    }

    #[test]
    fn seeds_are_unique_across_ipc1() {
        let all = ipc1_all();
        let mut seeds: Vec<u64> = all.iter().map(|w| w.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), all.len());
    }

    #[test]
    fn cvp_family_size_is_configurable() {
        assert_eq!(cvp1(48).len(), 48);
        assert_eq!(cvp1(3).len(), 3);
    }

    #[test]
    fn x86_apps_are_x86() {
        let apps = x86_apps();
        assert_eq!(apps.len(), 5);
        for a in &apps {
            assert_eq!(a.params.arch, Arch::X86);
        }
        assert!(apps.iter().any(|a| a.name == "wordpress"));
        assert!(apps.iter().any(|a| a.name == "finagle-http"));
    }

    #[test]
    fn specs_build_running_traces() {
        let spec = &ipc1_client()[0];
        let mut t = spec.build_trace();
        for _ in 0..1000 {
            assert!(t.next_instr().is_some());
        }
        assert_eq!(t.source_name(), "client_001");
    }

    #[test]
    fn file_backed_specs_describe_and_replay_containers() {
        use crate::container::write_container;
        use crate::record::TraceInstr;
        use crate::source::VecSource;

        let path = std::env::temp_dir().join(format!("btbx-suite-file-{}", std::process::id()));
        let instrs: Vec<TraceInstr> = (0..300).map(|i| TraceInstr::other(i * 4, 4)).collect();
        let mut src = VecSource::new("real_server_trace", instrs.clone());
        let summary = write_container(
            std::fs::File::create(&path).unwrap(),
            "real_server_trace",
            Arch::X86,
            &mut src,
            u64::MAX,
        )
        .unwrap();

        let spec = WorkloadSpec::from_container(&path).unwrap();
        assert_eq!(spec.name, "real_server_trace");
        assert_eq!(spec.suite, Suite::TraceFile);
        assert_eq!(spec.params.arch, Arch::X86);
        assert!(spec.is_server());
        let tref = spec.trace.as_ref().unwrap();
        assert_eq!(tref.content_hash, summary.content_hash);

        let mut source = spec.build_source().unwrap();
        assert_eq!(source.source_name(), "real_server_trace");
        assert_eq!(source.next_instr().unwrap(), instrs[0]);

        // Survives serde (how sweeps persist specs).
        let json = serde_json::to_string(&spec).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);

        // A swapped file under the same path is refused.
        let mut other = VecSource::new("real_server_trace", instrs[..100].to_vec());
        write_container(
            std::fs::File::create(&path).unwrap(),
            "real_server_trace",
            Arch::X86,
            &mut other,
            u64::MAX,
        )
        .unwrap();
        assert!(spec.build_source().is_err(), "content hash must mismatch");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn synthetic_specs_parse_without_a_trace_field() {
        // Pre-container sweeps serialized WorkloadSpec without `trace`;
        // they must keep parsing (defaulted to None).
        let spec = &ipc1_client()[0];
        let mut json = serde_json::to_string(spec).unwrap();
        json = json
            .replace("\"trace\":null,", "")
            .replace(",\"trace\":null", "");
        assert!(!json.contains("trace"), "legacy form: {json}");
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, *spec);
        assert!(matches!(
            back.build_source().unwrap(),
            crate::any::AnySource::Synth(_)
        ));
    }

    #[test]
    #[should_panic(expected = "no synthetic image")]
    fn file_backed_specs_refuse_to_build_images() {
        let spec = WorkloadSpec {
            name: "f".into(),
            suite: Suite::TraceFile,
            seed: 0,
            params: SynthParams::server(100),
            trace: Some(TraceRef {
                path: PathBuf::from("/nonexistent.btbt"),
                content_hash: 1,
            }),
        };
        let _ = spec.build_image();
    }

    #[test]
    fn client_footprint_smaller_than_server() {
        let c = ipc1_client()[4].build_image();
        let s = ipc1_server()[20].build_image();
        assert!(s.static_branches() > 4 * c.static_branches());
    }
}
