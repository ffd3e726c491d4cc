//! [`AnySource`]: the one trace entry point every consumer shards
//! through.
//!
//! Before this module, only the synthetic walker implemented
//! [`SeekableSource`], so `btbx_uarch::ParallelSession`'s streaming
//! shards were synthetic-only. `AnySource` closes that gap: it unifies
//! the three replayable stream kinds — the synthetic walker, raw
//! ChampSim files, and `.btbt` packed containers — behind one concrete
//! type that is `Clone + Send` and fully seekable, so a shard factory
//! (`Fn() -> AnySource`) works identically for every workload kind and
//! one checkpoint type ([`AnyCheckpoint`]) serves them all.
//!
//! [`AnySource::open`] sniffs the file kind by magic: `BTBT` means a
//! packed container; anything else whose length is a whole number of
//! 64-byte records is treated as a raw ChampSim trace. Files carrying the
//! `BTBX` magic of the retired varint codec are rejected with a typed
//! error rather than misparsed as ChampSim records.

use crate::champsim::{ChampSimCheckpoint, ChampSimError, ChampSimFileSource};
use crate::container::{ContainerError, FileCheckpoint, PackedFileSource};
use crate::packed::PackedBuf;
use crate::record::TraceInstr;
use crate::source::{SeekableSource, TraceSource};
use crate::synth::{SynthCheckpoint, SyntheticTrace};
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
    /// A raw 64-byte-record ChampSim trace file.
    ChampSim(ChampSimFileSource),
    /// A `.btbt` indexed packed container.
    Packed(PackedFileSource),
}

/// Snapshot of an [`AnySource`], tagged by stream kind. Restoring a
/// checkpoint onto a source of a different kind is a logic error and
/// panics, mirroring each inner source's foreign-checkpoint guards.
#[derive(Debug, Clone)]
pub enum AnyCheckpoint {
    /// Snapshot of a synthetic walker.
    Synth(SynthCheckpoint),
    /// Snapshot of a ChampSim file source.
    ChampSim(ChampSimCheckpoint),
    /// Snapshot of a packed container source.
    Packed(FileCheckpoint),
}

/// Why a trace file could not be opened as an [`AnySource`].
#[derive(Debug)]
pub enum TraceOpenError {
    /// An I/O failure while sniffing or opening.
    Io(std::io::Error),
    /// The file is a stream of the retired varint `BTBX` codec, which
    /// this crate no longer reads.
    LegacyCodec,
    /// A `.btbt` container that failed to open or validate.
    Container(ContainerError),
    /// A ChampSim file that failed to open (typically a truncated tail).
    ChampSim(ChampSimError),
}

impl std::fmt::Display for TraceOpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceOpenError::Io(e) => write!(f, "opening trace: {e}"),
            TraceOpenError::LegacyCodec => write!(
                f,
                "BTBX varint codec traces are no longer supported; use a \
                 .btbt container or a ChampSim trace"
            ),
            TraceOpenError::Container(e) => write!(f, "{e}"),
            TraceOpenError::ChampSim(e) => write!(f, "{e}"),
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
    /// Open a trace file, sniffing its kind by magic bytes: `.btbt`
    /// containers and raw ChampSim traces are accepted; retired varint
    /// codec streams are rejected.
    ///
    /// # Errors
    ///
    /// [`TraceOpenError`] when the file is unreadable, in the retired
    /// codec format, or structurally invalid for its detected kind.
    pub fn open(path: impl AsRef<Path>) -> Result<AnySource, TraceOpenError> {
        let path = path.as_ref();
        let mut magic = [0u8; 4];
        let n = File::open(path)?.read(&mut magic)?;
        if n >= 4 && &magic == crate::container::MAGIC {
            return PackedFileSource::open(path)
                .map(AnySource::Packed)
                .map_err(TraceOpenError::Container);
        }
        if n >= 4 && &magic == LEGACY_CODEC_MAGIC {
            return Err(TraceOpenError::LegacyCodec);
        }
        ChampSimFileSource::open(path)
            .map(AnySource::ChampSim)
            .map_err(TraceOpenError::ChampSim)
    }

    /// Remaining instructions for finite sources; `None` for the
    /// infinite synthetic walker.
    pub fn len_instrs(&self) -> Option<u64> {
        match self {
            AnySource::Synth(_) => None,
            AnySource::ChampSim(s) => Some(s.len_instrs()),
            AnySource::Packed(s) => Some(s.info().total_events),
        }
    }
}

impl From<SyntheticTrace> for AnySource {
    fn from(s: SyntheticTrace) -> Self {
        AnySource::Synth(s)
    }
}

impl From<ChampSimFileSource> for AnySource {
    fn from(s: ChampSimFileSource) -> Self {
        AnySource::ChampSim(s)
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
            AnySource::ChampSim(s) => s.next_instr(),
            AnySource::Packed(s) => s.next_instr(),
        }
    }

    fn source_name(&self) -> &str {
        match self {
            AnySource::Synth(s) => s.source_name(),
            AnySource::ChampSim(s) => s.source_name(),
            AnySource::Packed(s) => s.source_name(),
        }
    }

    fn advance(&mut self, n: u64) -> u64 {
        match self {
            AnySource::Synth(s) => s.advance(n),
            AnySource::ChampSim(s) => s.advance(n),
            AnySource::Packed(s) => s.advance(n),
        }
    }

    fn fill_block(&mut self, block: &mut PackedBuf, max: usize) -> usize {
        // One dispatch per block refill; the concrete fill loops stay
        // monomorphic, so per-event cost is unchanged.
        match self {
            AnySource::Synth(s) => s.fill_block(block, max),
            AnySource::ChampSim(s) => s.fill_block(block, max),
            AnySource::Packed(s) => s.fill_block(block, max),
        }
    }
}

impl SeekableSource for AnySource {
    type Checkpoint = AnyCheckpoint;

    fn position(&self) -> u64 {
        match self {
            AnySource::Synth(s) => s.position(),
            AnySource::ChampSim(s) => SeekableSource::position(s),
            AnySource::Packed(s) => SeekableSource::position(s),
        }
    }

    fn checkpoint(&self) -> AnyCheckpoint {
        match self {
            AnySource::Synth(s) => AnyCheckpoint::Synth(s.checkpoint()),
            AnySource::ChampSim(s) => AnyCheckpoint::ChampSim(s.checkpoint()),
            AnySource::Packed(s) => AnyCheckpoint::Packed(s.checkpoint()),
        }
    }

    fn restore(&mut self, cp: &AnyCheckpoint) {
        match (self, cp) {
            (AnySource::Synth(s), AnyCheckpoint::Synth(c)) => s.restore(c),
            (AnySource::ChampSim(s), AnyCheckpoint::ChampSim(c)) => s.restore(c),
            (AnySource::Packed(s), AnyCheckpoint::Packed(c)) => s.restore(c),
            _ => panic!("checkpoint from a different source kind"),
        }
    }

    fn seek(&mut self, n: u64) -> u64 {
        match self {
            AnySource::Synth(s) => s.seek(n),
            AnySource::ChampSim(s) => s.seek(n),
            AnySource::Packed(s) => s.seek(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::champsim::write_champsim;
    use crate::container::write_container;
    use crate::source::VecSource;
    use crate::synth::{ProgramImage, SynthParams};
    use btbx_core::types::Arch;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("btbx-any-{tag}-{}", std::process::id()))
    }

    fn sample() -> Vec<TraceInstr> {
        (0..500u64).map(|i| TraceInstr::other(i * 4, 4)).collect()
    }

    #[test]
    fn open_sniffs_containers_and_champsim() {
        let instrs = sample();

        let btbt = temp_path("sniff.btbt");
        let mut src = VecSource::new("w", instrs.clone());
        write_container(
            File::create(&btbt).unwrap(),
            "w",
            Arch::Arm64,
            &mut src,
            u64::MAX,
        )
        .unwrap();
        let opened = AnySource::open(&btbt).unwrap();
        assert!(matches!(opened, AnySource::Packed(_)));
        assert_eq!(opened.len_instrs(), Some(500));

        let champ = temp_path("sniff.champsim");
        let mut bytes = Vec::new();
        write_champsim(&mut bytes, instrs).unwrap();
        std::fs::write(&champ, &bytes).unwrap();
        let opened = AnySource::open(&champ).unwrap();
        assert!(matches!(opened, AnySource::ChampSim(_)));
        assert_eq!(opened.len_instrs(), Some(500));

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

    #[test]
    fn seek_contract_holds_for_every_kind() {
        // seek(k) == step()×k across all variants, including the synth
        // walker wrapped in AnySource.
        let instrs = sample();
        let btbt = temp_path("contract.btbt");
        let mut src = VecSource::new("w", instrs.clone());
        write_container(
            File::create(&btbt).unwrap(),
            "w",
            Arch::Arm64,
            &mut src,
            u64::MAX,
        )
        .unwrap();
        let champ = temp_path("contract.champsim");
        let mut bytes = Vec::new();
        write_champsim(&mut bytes, instrs).unwrap();
        std::fs::write(&champ, &bytes).unwrap();

        let params = SynthParams::client(40);
        let synth = SyntheticTrace::new(ProgramImage::generate(&params, 7), "synth", 7);

        for mut source in [
            AnySource::from(synth),
            AnySource::open(&btbt).unwrap(),
            AnySource::open(&champ).unwrap(),
        ] {
            let mut stepped = source.clone();
            for _ in 0..123 {
                stepped.next_instr();
            }
            source.seek(123);
            assert_eq!(SeekableSource::position(&source), 123);
            let cp = source.checkpoint();
            let a = source.next_instr();
            assert_eq!(a, stepped.next_instr(), "{}", source.source_name());
            source.restore(&cp);
            assert_eq!(source.next_instr(), a, "restore rewinds one step");
        }
        let _ = std::fs::remove_file(&btbt);
        let _ = std::fs::remove_file(&champ);
    }

    #[test]
    #[should_panic(expected = "different source kind")]
    fn cross_kind_checkpoints_panic() {
        let params = SynthParams::client(40);
        let synth = AnySource::from(SyntheticTrace::new(
            ProgramImage::generate(&params, 7),
            "synth",
            7,
        ));
        let champ = temp_path("cross.champsim");
        let mut bytes = Vec::new();
        write_champsim(&mut bytes, sample()).unwrap();
        std::fs::write(&champ, &bytes).unwrap();
        let mut file_backed = AnySource::open(&champ).unwrap();
        let cp = synth.checkpoint();
        let _ = std::fs::remove_file(&champ);
        file_backed.restore(&cp);
    }
}
