//! [`AnySource`]: the one trace entry point every consumer replays
//! through.
//!
//! `AnySource` unifies the two replayable stream kinds — the synthetic
//! walker and `.btbt` packed containers — behind one concrete type that
//! is `Clone + Send`, so a sweep group hands every member a clone of one
//! source whatever the workload kind.
//!
//! `.btbt` is the only trace file format that replays. Raw ChampSim
//! traces are an import format: `btbx trace convert` turns them into
//! containers, and [`AnySource::open`] refuses them with
//! [`ContainerError::BadMagic`], whose message names that command. Files
//! carrying the `BTBX` magic of the retired varint codec get their own
//! typed error.

use crate::container::{ContainerError, PackedFileSource};
use crate::packed::PackedBuf;
use crate::record::TraceInstr;
use crate::source::TraceSource;
use crate::synth::SyntheticTrace;
use std::fs::File;
use std::io::Read;
use std::path::Path;

/// Leading magic of the retired varint trace codec; such files are
/// refused by [`AnySource::open`].
const LEGACY_CODEC_MAGIC: &[u8; 4] = b"BTBX";

/// A trace stream of any replayable kind; see the module docs.
#[derive(Debug, Clone)]
pub enum AnySource {
    /// The synthetic walker.
    Synth(SyntheticTrace),
    /// A `.btbt` indexed packed container.
    Packed(PackedFileSource),
}

/// Why a trace file could not be opened as an [`AnySource`].
#[derive(Debug)]
pub enum TraceOpenError {
    /// An I/O failure while sniffing or opening.
    Io(std::io::Error),
    /// The file is a stream of the retired varint `BTBX` codec, which
    /// this crate no longer reads.
    LegacyCodec,
    /// A file that is not a valid `.btbt` container (raw ChampSim
    /// traces land here as [`ContainerError::BadMagic`]).
    Container(ContainerError),
}

impl std::fmt::Display for TraceOpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceOpenError::Io(e) => write!(f, "opening trace: {e}"),
            TraceOpenError::LegacyCodec => write!(
                f,
                "BTBX varint codec traces are no longer supported; use a \
                 .btbt container (`btbx trace convert` makes one from a \
                 ChampSim trace)"
            ),
            TraceOpenError::Container(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TraceOpenError {}

impl From<std::io::Error> for TraceOpenError {
    fn from(e: std::io::Error) -> Self {
        TraceOpenError::Io(e)
    }
}

impl AnySource {
    /// Open a `.btbt` container. Retired varint codec streams are
    /// recognised by their magic and refused.
    ///
    /// # Errors
    ///
    /// [`TraceOpenError`] when the file is unreadable, in the retired
    /// codec format, or not a valid container — a raw ChampSim trace is
    /// [`ContainerError::BadMagic`].
    pub fn open(path: impl AsRef<Path>) -> Result<AnySource, TraceOpenError> {
        let path = path.as_ref();
        let mut magic = [0u8; 4];
        let n = File::open(path)?.read(&mut magic)?;
        if n >= 4 && &magic == LEGACY_CODEC_MAGIC {
            return Err(TraceOpenError::LegacyCodec);
        }
        PackedFileSource::open(path)
            .map(AnySource::Packed)
            .map_err(TraceOpenError::Container)
    }

    /// Remaining instructions for finite sources; `None` for the
    /// infinite synthetic walker.
    pub fn len_instrs(&self) -> Option<u64> {
        match self {
            AnySource::Synth(_) => None,
            AnySource::Packed(s) => Some(s.info().total_events),
        }
    }
}

impl From<SyntheticTrace> for AnySource {
    fn from(s: SyntheticTrace) -> Self {
        AnySource::Synth(s)
    }
}

impl From<PackedFileSource> for AnySource {
    fn from(s: PackedFileSource) -> Self {
        AnySource::Packed(s)
    }
}

impl TraceSource for AnySource {
    fn next_instr(&mut self) -> Option<TraceInstr> {
        match self {
            AnySource::Synth(s) => s.next_instr(),
            AnySource::Packed(s) => s.next_instr(),
        }
    }

    fn source_name(&self) -> &str {
        match self {
            AnySource::Synth(s) => s.source_name(),
            AnySource::Packed(s) => s.source_name(),
        }
    }

    fn error(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnySource::Synth(s) => s.error(),
            AnySource::Packed(s) => s.error(),
        }
    }

    fn fill_block(&mut self, block: &mut PackedBuf, max: usize) -> usize {
        // One dispatch per block refill; the concrete fill loops stay
        // monomorphic, so per-event cost is unchanged.
        match self {
            AnySource::Synth(s) => s.fill_block(block, max),
            AnySource::Packed(s) => s.fill_block(block, max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::champsim::write_champsim;
    use crate::container::write_container;
    use crate::source::VecSource;
    use btbx_core::types::Arch;
    use std::path::{Path, PathBuf};

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("btbx-any-{tag}-{}", std::process::id()))
    }

    fn sample() -> Vec<TraceInstr> {
        (0..500u64).map(|i| TraceInstr::other(i * 4, 4)).collect()
    }

    fn write_btbt(path: &Path, instrs: Vec<TraceInstr>) {
        let mut src = VecSource::new("w", instrs);
        write_container(
            File::create(path).unwrap(),
            "w",
            Arch::Arm64,
            &mut src,
            u64::MAX,
        )
        .unwrap();
    }

    #[test]
    fn open_sniffs_containers_and_champsim() {
        let instrs = sample();

        let btbt = temp_path("sniff.btbt");
        write_btbt(&btbt, instrs.clone());
        let opened = AnySource::open(&btbt).unwrap();
        assert!(matches!(opened, AnySource::Packed(_)));
        assert_eq!(opened.len_instrs(), Some(500));

        let champ = temp_path("sniff.champsim");
        let mut bytes = Vec::new();
        write_champsim(&mut bytes, instrs).unwrap();
        std::fs::write(&champ, &bytes).unwrap();
        // Raw ChampSim is an import format: refused, with a pointer to
        // the converter.
        let err = AnySource::open(&champ).unwrap_err();
        assert!(
            matches!(err, TraceOpenError::Container(ContainerError::BadMagic)),
            "{err:?}"
        );
        assert!(err.to_string().contains("btbx trace convert"), "{err}");

        let codec = temp_path("sniff.codec");
        std::fs::write(&codec, b"BTBX rest does not matter").unwrap();
        assert!(matches!(
            AnySource::open(&codec),
            Err(TraceOpenError::LegacyCodec)
        ));

        for p in [btbt, champ, codec] {
            let _ = std::fs::remove_file(&p);
        }
        assert!(matches!(
            AnySource::open(temp_path("gone")),
            Err(TraceOpenError::Io(_))
        ));
    }
}
