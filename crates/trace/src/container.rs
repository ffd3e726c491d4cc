//! The `.btbt` indexed packed trace container: the on-disk form of
//! [`crate::packed`]'s 16-byte-per-event SoA blocks, built so file-backed
//! workloads replay through the streaming simulator exactly like
//! synthetic ones.
//!
//! A container holds one instruction stream as fixed-size packed blocks
//! plus two side sections: a **block index** mapping start-instruction
//! offsets to byte offsets (so `seek` is an index binary-search plus one
//! block read, never a scan) and an **escape table** holding the rare
//! records that do not fit the canonical 48-bit packing — the same
//! lossless escape mechanism [`PackedBuf`](crate::packed::PackedBuf)
//! uses in memory.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header (64 bytes, then the stream name):
//!   0..4    magic "BTBT"
//!   4..6    version u16 (currently 1)
//!   6       arch u8 (0 = Arm64, 1 = x86)
//!   7       reserved
//!   8..16   total_events u64
//!   16..20  block_events u32   events per full block (last may be short)
//!   20..24  block_count u32
//!   24..32  escape_count u64
//!   32..40  content_hash u64   FNV-1a over the event stream (see below)
//!   40..48  index_offset u64   byte offset of the index section
//!   48..56  escape_offset u64  byte offset of the escape table
//!   56..58  name_len u16
//!   58..64  reserved
//!   64..    name bytes (UTF-8)
//! blocks:  per block, the lo column then the hi column (u64 each)
//! escapes: escape_count records of 32 bytes:
//!          pc u64 | payload u64 | event_pc u64 | size u8 | kind u8 |
//!          taken u8 | 5 reserved bytes
//! index:   block_count entries of 24 bytes:
//!          start_instr u64 | byte_offset u64 | events u32 | reserved u32
//! ```
//!
//! The **content hash** folds every event's canonical bytes (packed words
//! for canonical records, the 32-byte escape record otherwise) into a
//! seeded FNV-1a. It identifies the *stream*, not the file: two
//! containers written from the same events hash identically wherever
//! they live on disk, which is what lets the sweep cache key on it (see
//! `btbx_bench::sweep`).
//!
//! [`PackedFileSource`] replays a container as a
//! [`TraceSource`] + [`SeekableSource`]: a checkpoint is just the
//! absolute instruction position (block id and intra-block offset are
//! derived from the index), so `checkpoint`/`restore`/`seek` are all
//! O(1) plus one lazy block read — cheaper than the synthetic walker's
//! O(state) snapshots. Clones share the file handle and the loaded index
//! behind `Arc`s, so handing every member of a sweep group its own
//! source is allocation-cheap and never re-reads the header.

use crate::packed::{PackedInstr, KIND_ESCAPE, KIND_SHIFT};
use crate::record::{MemAccess, Op, TraceInstr};
use crate::source::{SeekableSource, TraceSource};
use btbx_core::faults;
use btbx_core::types::{Arch, BranchClass, BranchEvent};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Magic bytes identifying a packed trace container.
pub const MAGIC: &[u8; 4] = b"BTBT";
/// Current container format version.
pub const VERSION: u16 = 1;
/// Events per full block: 4096 × 16 B = 64 KiB of payload, the unit a
/// [`PackedFileSource`] reads and a seek decodes.
pub const BLOCK_EVENTS: usize = 4096;

const HEADER_BYTES: usize = 64;
const ESCAPE_BYTES: usize = 32;
const INDEX_ENTRY_BYTES: usize = 24;

const KIND_OTHER: u8 = 0;
const KIND_LOAD: u8 = 1;
const KIND_STORE: u8 = 2;
const KIND_BRANCH0: u8 = 3;

/// Why a container cannot be opened or trusted.
#[derive(Debug)]
pub enum ContainerError {
    /// An I/O failure from the underlying file.
    Io(io::Error),
    /// The file does not start with the `BTBT` magic (a raw ChampSim
    /// trace, for one, must be converted first).
    BadMagic,
    /// A container version this build does not understand.
    BadVersion(u16),
    /// An architecture byte outside the known set.
    BadArch(u8),
    /// A structural invariant does not hold (truncated sections,
    /// non-monotonic index, event counts that do not add up, …).
    Corrupt(&'static str),
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::Io(e) => write!(f, "container I/O error: {e}"),
            ContainerError::BadMagic => write!(
                f,
                "not a .btbt container (bad magic); convert a raw ChampSim \
                 trace with `btbx trace convert IN -o OUT.btbt`"
            ),
            ContainerError::BadVersion(v) => write!(f, "unsupported container version {v}"),
            ContainerError::BadArch(a) => write!(f, "unknown architecture byte {a}"),
            ContainerError::Corrupt(what) => write!(f, "corrupt container: {what}"),
        }
    }
}

impl std::error::Error for ContainerError {}

impl From<io::Error> for ContainerError {
    fn from(e: io::Error) -> Self {
        ContainerError::Io(e)
    }
}

/// Everything the fixed header records about a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerInfo {
    /// Stream name recorded at write time (workload name or file stem).
    pub name: String,
    /// Instruction-set architecture of the trace.
    pub arch: Arch,
    /// Total instructions stored.
    pub total_events: u64,
    /// Events per full block.
    pub block_events: u32,
    /// Number of blocks.
    pub block_count: u32,
    /// Records in the escape table.
    pub escape_count: u64,
    /// Seeded FNV-1a over the event stream; the container's identity.
    pub content_hash: u64,
}

/// What [`ContainerWriter::finish`] reports about the written file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerSummary {
    /// Instructions written.
    pub events: u64,
    /// Blocks written.
    pub blocks: u32,
    /// Escape records written.
    pub escapes: u64,
    /// Content hash of the stream.
    pub content_hash: u64,
    /// Total file bytes including header, sections and name.
    pub bytes: u64,
}

/// Seeded 64-bit FNV-1a, fed incrementally. Same constants as the sweep
/// cache's hasher so the two stay recognizably one family.
#[derive(Debug, Clone, Copy)]
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        // Seed folded like `btbx_bench::sweep::fnv1a(bytes, seed)` with
        // the container version as the seed.
        Fnv1a(0xcbf2_9ce4_8422_2325 ^ (VERSION as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn arch_to_byte(arch: Arch) -> u8 {
    match arch {
        Arch::Arm64 => 0,
        Arch::X86 => 1,
    }
}

fn arch_from_byte(b: u8) -> Result<Arch, ContainerError> {
    match b {
        0 => Ok(Arch::Arm64),
        1 => Ok(Arch::X86),
        other => Err(ContainerError::BadArch(other)),
    }
}

/// Encode one non-packable record as a 32-byte escape entry.
fn encode_escape(instr: &TraceInstr) -> [u8; ESCAPE_BYTES] {
    let mut rec = [0u8; ESCAPE_BYTES];
    rec[0..8].copy_from_slice(&instr.pc.to_le_bytes());
    let (kind, taken, payload, event_pc) = match instr.op {
        Op::Other => (KIND_OTHER, 0u8, 0u64, 0u64),
        Op::Mem(MemAccess::Load(a)) => (KIND_LOAD, 0, a, 0),
        Op::Mem(MemAccess::Store(a)) => (KIND_STORE, 0, a, 0),
        Op::Branch(ev) => (
            KIND_BRANCH0 + ev.class as u8,
            ev.taken as u8,
            ev.target,
            ev.pc,
        ),
    };
    rec[8..16].copy_from_slice(&payload.to_le_bytes());
    rec[16..24].copy_from_slice(&event_pc.to_le_bytes());
    rec[24] = instr.size;
    rec[25] = kind;
    rec[26] = taken;
    rec
}

fn decode_escape(rec: &[u8; ESCAPE_BYTES]) -> Result<TraceInstr, ContainerError> {
    let u64le = |o: usize| u64::from_le_bytes(rec[o..o + 8].try_into().unwrap());
    let pc = u64le(0);
    let payload = u64le(8);
    let event_pc = u64le(16);
    let size = rec[24];
    let op = match rec[25] {
        KIND_OTHER => Op::Other,
        KIND_LOAD => Op::Mem(MemAccess::Load(payload)),
        KIND_STORE => Op::Mem(MemAccess::Store(payload)),
        k => {
            let class = (k - KIND_BRANCH0) as usize;
            if class >= BranchClass::ALL.len() {
                return Err(ContainerError::Corrupt("escape record kind out of range"));
            }
            Op::Branch(BranchEvent {
                pc: event_pc,
                target: payload,
                class: BranchClass::ALL[class],
                taken: rec[26] != 0,
            })
        }
    };
    Ok(TraceInstr { pc, size, op })
}

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    start_instr: u64,
    byte_offset: u64,
    events: u32,
}

/// Streaming `.btbt` writer over any `Write + Seek` sink.
///
/// Events are appended with [`push`](Self::push); the header is written
/// as a placeholder up front and patched by [`finish`](Self::finish)
/// once the block index and escape table are known, so arbitrarily long
/// traces stream through in O(block) memory.
pub struct ContainerWriter<W: Write + Seek> {
    out: W,
    arch: Arch,
    /// Stream name; also the fault-seam site for this sink, which writes
    /// through a generic `Write + Seek` and has no filesystem path.
    name: String,
    lo: Vec<u64>,
    hi: Vec<u64>,
    index: Vec<IndexEntry>,
    escapes: Vec<u8>,
    escape_count: u64,
    total: u64,
    hash: Fnv1a,
    byte_offset: u64,
}

impl<W: Write + Seek> ContainerWriter<W> {
    /// Start a container: writes the placeholder header and the name.
    ///
    /// # Errors
    ///
    /// Any I/O error from the sink; names longer than `u16::MAX` bytes
    /// are rejected as `InvalidInput`.
    pub fn create(mut out: W, name: &str, arch: Arch) -> io::Result<Self> {
        if name.len() > u16::MAX as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "container name longer than 65535 bytes",
            ));
        }
        out.write_all(&[0u8; HEADER_BYTES])?;
        out.write_all(name.as_bytes())?;
        Ok(ContainerWriter {
            out,
            arch,
            name: name.to_string(),
            lo: Vec::with_capacity(BLOCK_EVENTS),
            hi: Vec::with_capacity(BLOCK_EVENTS),
            index: Vec::new(),
            escapes: Vec::new(),
            escape_count: 0,
            total: 0,
            hash: Fnv1a::new(),
            byte_offset: (HEADER_BYTES + name.len()) as u64,
        })
    }

    /// Append one instruction.
    ///
    /// # Errors
    ///
    /// Any I/O error from flushing a completed block.
    pub fn push(&mut self, instr: TraceInstr) -> io::Result<()> {
        match PackedInstr::encode(&instr) {
            Some(p) => {
                self.hash.update(&p.lo.to_le_bytes());
                self.hash.update(&p.hi.to_le_bytes());
                self.lo.push(p.lo);
                self.hi.push(p.hi);
            }
            None => {
                let rec = encode_escape(&instr);
                self.hash.update(&rec);
                self.lo.push(KIND_ESCAPE << KIND_SHIFT);
                self.hi.push(self.escape_count);
                self.escapes.extend_from_slice(&rec);
                self.escape_count += 1;
            }
        }
        self.total += 1;
        if self.lo.len() == BLOCK_EVENTS {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.lo.is_empty() {
            return Ok(());
        }
        faults::check_write(&self.name)?;
        let events = self.lo.len() as u32;
        self.index.push(IndexEntry {
            start_instr: self.total - events as u64,
            byte_offset: self.byte_offset,
            events,
        });
        for word in self.lo.drain(..).chain(self.hi.drain(..)) {
            self.out.write_all(&word.to_le_bytes())?;
        }
        self.byte_offset += events as u64 * 16;
        Ok(())
    }

    /// Flush the trailing block, write the escape table and index, and
    /// patch the header.
    ///
    /// # Errors
    ///
    /// Any I/O error from the sink; more than `u32::MAX` blocks is
    /// rejected as `InvalidInput` (that is > 17 × 10¹² events).
    pub fn finish(mut self) -> io::Result<ContainerSummary> {
        self.flush_block()?;
        faults::check_write(&self.name)?;
        if self.index.len() > u32::MAX as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "container exceeds u32::MAX blocks",
            ));
        }
        let escape_offset = self.byte_offset;
        self.out.write_all(&self.escapes)?;
        let index_offset = escape_offset + self.escapes.len() as u64;
        for e in &self.index {
            self.out.write_all(&e.start_instr.to_le_bytes())?;
            self.out.write_all(&e.byte_offset.to_le_bytes())?;
            self.out.write_all(&e.events.to_le_bytes())?;
            self.out.write_all(&0u32.to_le_bytes())?;
        }
        let bytes = index_offset + (self.index.len() * INDEX_ENTRY_BYTES) as u64;

        let mut header = [0u8; HEADER_BYTES];
        header[0..4].copy_from_slice(MAGIC);
        header[4..6].copy_from_slice(&VERSION.to_le_bytes());
        header[6] = arch_to_byte(self.arch);
        header[8..16].copy_from_slice(&self.total.to_le_bytes());
        header[16..20].copy_from_slice(&(BLOCK_EVENTS as u32).to_le_bytes());
        header[20..24].copy_from_slice(&(self.index.len() as u32).to_le_bytes());
        header[24..32].copy_from_slice(&self.escape_count.to_le_bytes());
        header[32..40].copy_from_slice(&self.hash.0.to_le_bytes());
        header[40..48].copy_from_slice(&index_offset.to_le_bytes());
        header[48..56].copy_from_slice(&escape_offset.to_le_bytes());
        header[56..58].copy_from_slice(&(self.name.len() as u16).to_le_bytes());
        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(&header)?;
        self.out.flush()?;
        Ok(ContainerSummary {
            events: self.total,
            blocks: self.index.len() as u32,
            escapes: self.escape_count,
            content_hash: self.hash.0,
            bytes,
        })
    }
}

/// Drain up to `limit` instructions from `source` into a container on
/// `out`. Returns the summary of the written file.
///
/// # Errors
///
/// Any I/O error from the sink.
pub fn write_container<W: Write + Seek, S: TraceSource + ?Sized>(
    out: W,
    name: &str,
    arch: Arch,
    source: &mut S,
    limit: u64,
) -> io::Result<ContainerSummary> {
    let mut writer = ContainerWriter::create(out, name, arch)?;
    let mut remaining = limit;
    while remaining > 0 {
        match source.next_instr() {
            Some(i) => writer.push(i)?,
            None => break,
        }
        remaining -= 1;
    }
    writer.finish()
}

/// Read just the header of a container file (cheap: one small read).
///
/// # Errors
///
/// [`ContainerError`] when the file is unreadable or not a valid
/// container.
pub fn read_info(path: &Path) -> Result<ContainerInfo, ContainerError> {
    let mut file = faults::open(path)?;
    read_header(&mut file).map(|(info, _, _)| info)
}

/// Parse the fixed header + name; returns the info and the two section
/// offsets (index, escapes).
fn read_header<R: Read>(input: &mut R) -> Result<(ContainerInfo, u64, u64), ContainerError> {
    let mut header = [0u8; HEADER_BYTES];
    input
        .read_exact(&mut header)
        .map_err(|_| ContainerError::BadMagic)?;
    if &header[0..4] != MAGIC {
        return Err(ContainerError::BadMagic);
    }
    let u64le = |o: usize| u64::from_le_bytes(header[o..o + 8].try_into().unwrap());
    let u32le = |o: usize| u32::from_le_bytes(header[o..o + 4].try_into().unwrap());
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(ContainerError::BadVersion(version));
    }
    let arch = arch_from_byte(header[6])?;
    let name_len = u16::from_le_bytes([header[56], header[57]]) as usize;
    let mut name = vec![0u8; name_len];
    input
        .read_exact(&mut name)
        .map_err(|_| ContainerError::Corrupt("name truncated"))?;
    let name = String::from_utf8(name).map_err(|_| ContainerError::Corrupt("name not UTF-8"))?;
    let info = ContainerInfo {
        name,
        arch,
        total_events: u64le(8),
        block_events: u32le(16),
        block_count: u32le(20),
        escape_count: u64le(24),
        content_hash: u64le(32),
    };
    Ok((info, u64le(40), u64le(48)))
}

/// A [`TraceSource`] + [`SeekableSource`] replaying a `.btbt` container
/// straight off disk, one 64 KiB block at a time.
///
/// The index and escape table live in memory behind `Arc`s; the file
/// handle is shared (`Arc<Mutex<File>>`) so clones — one per member of
/// a sweep group — cost an allocation, not an `open(2)`, and position
/// independently. Peak event memory is one decoded block per live
/// instance, whatever the trace length.
#[derive(Debug)]
pub struct PackedFileSource {
    file: Arc<Mutex<File>>,
    info: ContainerInfo,
    index: Arc<[IndexEntry]>,
    escapes: Arc<[TraceInstr]>,
    pos: u64,
    /// Index of the loaded block, or `usize::MAX` when none is.
    block: usize,
    block_start: u64,
    lo: Vec<u64>,
    hi: Vec<u64>,
    /// The block read that ended the stream early, if one failed.
    error: Option<Arc<ContainerError>>,
}

/// Snapshot of a [`PackedFileSource`]: the absolute instruction position
/// plus the container's content hash, so restoring onto a source over a
/// *different* container is detected instead of silently replaying the
/// wrong trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileCheckpoint {
    pos: u64,
    content_hash: u64,
}

impl PackedFileSource {
    /// Open a container file: reads and validates the header, index and
    /// escape table, then streams blocks on demand.
    ///
    /// # Errors
    ///
    /// [`ContainerError`] when the file is unreadable, not a container,
    /// or structurally inconsistent.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ContainerError> {
        let mut file = faults::open(path.as_ref())?;
        let (info, index_offset, escape_offset) = read_header(&mut file)?;

        file.seek(SeekFrom::Start(escape_offset))?;
        let mut escapes = Vec::with_capacity(info.escape_count as usize);
        let mut rec = [0u8; ESCAPE_BYTES];
        for _ in 0..info.escape_count {
            file.read_exact(&mut rec)
                .map_err(|_| ContainerError::Corrupt("escape table truncated"))?;
            escapes.push(decode_escape(&rec)?);
        }

        file.seek(SeekFrom::Start(index_offset))?;
        let mut index = Vec::with_capacity(info.block_count as usize);
        let mut entry = [0u8; INDEX_ENTRY_BYTES];
        let mut covered = 0u64;
        for _ in 0..info.block_count {
            file.read_exact(&mut entry)
                .map_err(|_| ContainerError::Corrupt("index truncated"))?;
            let e = IndexEntry {
                start_instr: u64::from_le_bytes(entry[0..8].try_into().unwrap()),
                byte_offset: u64::from_le_bytes(entry[8..16].try_into().unwrap()),
                events: u32::from_le_bytes(entry[16..20].try_into().unwrap()),
            };
            if e.start_instr != covered || e.events == 0 {
                return Err(ContainerError::Corrupt("index is not a partition"));
            }
            covered += e.events as u64;
            index.push(e);
        }
        if covered != info.total_events {
            return Err(ContainerError::Corrupt("index does not cover the stream"));
        }
        Ok(PackedFileSource {
            file: Arc::new(Mutex::new(file)),
            info,
            index: index.into(),
            escapes: escapes.into(),
            pos: 0,
            block: usize::MAX,
            block_start: 0,
            lo: Vec::new(),
            hi: Vec::new(),
            error: None,
        })
    }

    /// The container header this source replays.
    pub fn info(&self) -> &ContainerInfo {
        &self.info
    }

    /// `true` when the loaded block covers absolute position `pos`.
    #[inline]
    fn block_loaded_for(&self, pos: u64) -> bool {
        self.block != usize::MAX
            && pos >= self.block_start
            && pos - self.block_start < self.lo.len() as u64
    }

    /// Load the block containing absolute position `pos` (which must be
    /// in range). One seek + one contiguous read under the shared lock.
    ///
    /// A read that fails *after* open (the file shrank or the device
    /// errored) ends the stream: the index promised these bytes and
    /// replay cannot continue soundly without them. The failure is kept
    /// for [`TraceSource::error`], the cursor jumps to the end, and this
    /// returns `false`.
    fn load_block_for(&mut self, pos: u64) -> bool {
        let block = self.index.partition_point(|e| e.start_instr <= pos) - 1;
        if block == self.block {
            return true;
        }
        let entry = self.index[block];
        let n = entry.events as usize;
        let mut payload = vec![0u8; n * 16];
        let read = faults::check_read(&self.info.name).and_then(|()| {
            let mut file = self.file.lock().unwrap();
            file.seek(SeekFrom::Start(entry.byte_offset))?;
            file.read_exact(&mut payload)
        });
        if let Err(e) = read {
            self.error = Some(Arc::new(ContainerError::Io(e)));
            self.pos = self.info.total_events;
            return false;
        }
        let word = |i: usize| u64::from_le_bytes(payload[i * 8..i * 8 + 8].try_into().unwrap());
        self.lo.clear();
        self.hi.clear();
        self.lo.extend((0..n).map(word));
        self.hi.extend((n..2 * n).map(word));
        self.block = block;
        self.block_start = entry.start_instr;
        true
    }

    /// Decode the event at the cursor; the containing block must be
    /// loaded.
    #[inline]
    fn decode_at(&self, pos: u64) -> TraceInstr {
        let i = (pos - self.block_start) as usize;
        let lo = self.lo[i];
        if lo >> KIND_SHIFT == KIND_ESCAPE {
            self.escapes[self.hi[i] as usize]
        } else {
            PackedInstr { lo, hi: self.hi[i] }.decode()
        }
    }
}

impl Clone for PackedFileSource {
    /// Clones share the file handle, index and escape table; the cursor
    /// and any recorded read failure are copied but the block cache
    /// starts empty (the clone reloads its own block on first read).
    fn clone(&self) -> Self {
        PackedFileSource {
            file: Arc::clone(&self.file),
            info: self.info.clone(),
            index: Arc::clone(&self.index),
            escapes: Arc::clone(&self.escapes),
            pos: self.pos,
            block: usize::MAX,
            block_start: 0,
            lo: Vec::new(),
            hi: Vec::new(),
            error: self.error.clone(),
        }
    }
}

impl TraceSource for PackedFileSource {
    fn next_instr(&mut self) -> Option<TraceInstr> {
        if self.pos >= self.info.total_events {
            return None;
        }
        if !self.block_loaded_for(self.pos) && !self.load_block_for(self.pos) {
            return None;
        }
        let i = self.decode_at(self.pos);
        self.pos += 1;
        Some(i)
    }

    fn source_name(&self) -> &str {
        &self.info.name
    }

    fn error(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.error.as_deref().map(|e| e as _)
    }

    fn advance(&mut self, n: u64) -> u64 {
        let left = self.info.total_events - self.pos;
        let skipped = n.min(left);
        self.pos += skipped;
        skipped
    }

    fn fill_block(&mut self, block: &mut crate::packed::PackedBuf, max: usize) -> usize {
        let mut filled = 0;
        while filled < max && self.pos < self.info.total_events {
            if !self.block_loaded_for(self.pos) && !self.load_block_for(self.pos) {
                break;
            }
            let block_end = self.block_start + self.lo.len() as u64;
            let run = (max - filled).min((block_end - self.pos) as usize);
            for _ in 0..run {
                block.push(self.decode_at(self.pos));
                self.pos += 1;
            }
            filled += run;
        }
        filled
    }
}

impl SeekableSource for PackedFileSource {
    type Checkpoint = FileCheckpoint;

    fn position(&self) -> u64 {
        self.pos
    }

    fn checkpoint(&self) -> FileCheckpoint {
        FileCheckpoint {
            pos: self.pos,
            content_hash: self.info.content_hash,
        }
    }

    fn restore(&mut self, cp: &FileCheckpoint) {
        assert_eq!(
            cp.content_hash, self.info.content_hash,
            "checkpoint from a different container (content hash mismatch)"
        );
        assert!(
            cp.pos <= self.info.total_events,
            "checkpoint beyond the container: not from this stream"
        );
        self.pos = cp.pos;
    }

    fn seek(&mut self, n: u64) -> u64 {
        self.pos = n.min(self.info.total_events);
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecSource;
    use std::io::Cursor;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("btbx-container-{tag}-{}", std::process::id()))
    }

    /// A stream crossing several block boundaries, with escapes mixed in.
    fn mixed_stream(n: u64) -> Vec<TraceInstr> {
        (0..n)
            .map(|i| match i % 7 {
                0 => TraceInstr::mem(0x1000 + i * 4, 4, MemAccess::Load(0x9000 + i)),
                1 => TraceInstr::branch(
                    0x2000 + i * 4,
                    4,
                    BranchEvent::taken(0x2000 + i * 4, 0x3000, BranchClass::CallDirect),
                ),
                // Non-canonical: 56-bit pc, must escape.
                2 if i % 63 == 2 => TraceInstr::other((1 << 55) + i, 4),
                _ => TraceInstr::other(0x1000 + i * 4, 4),
            })
            .collect()
    }

    fn write_to(path: &Path, instrs: &[TraceInstr], name: &str) -> ContainerSummary {
        let file = File::create(path).unwrap();
        let mut source = VecSource::new(name, instrs.to_vec());
        write_container(file, name, Arch::Arm64, &mut source, u64::MAX).unwrap()
    }

    #[test]
    fn round_trips_across_block_boundaries() {
        let instrs = mixed_stream(BLOCK_EVENTS as u64 * 2 + 500);
        let path = temp_path("roundtrip");
        let summary = write_to(&path, &instrs, "mix");
        assert_eq!(summary.events, instrs.len() as u64);
        assert_eq!(summary.blocks, 3);
        assert!(summary.escapes > 0, "the stream plants escape records");

        let source = PackedFileSource::open(&path).unwrap();
        assert_eq!(source.source_name(), "mix");
        assert_eq!(source.info().total_events, instrs.len() as u64);
        assert_eq!(source.info().content_hash, summary.content_hash);
        let back: Vec<TraceInstr> = source.into_iter_instrs().collect();
        assert_eq!(back, instrs);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn seek_restore_match_stepping() {
        let instrs = mixed_stream(BLOCK_EVENTS as u64 + 100);
        let path = temp_path("seek");
        write_to(&path, &instrs, "seek");
        let mut s = PackedFileSource::open(&path).unwrap();

        // Seek into the second block, behind the cursor, and past the end.
        s.seek(BLOCK_EVENTS as u64 + 3);
        assert_eq!(s.next_instr().unwrap(), instrs[BLOCK_EVENTS + 3]);
        s.seek(5);
        assert_eq!(s.next_instr().unwrap(), instrs[5], "seek rewinds");
        assert_eq!(s.seek(u64::MAX), instrs.len() as u64, "clamped to end");
        assert!(s.next_instr().is_none());

        let mut t = PackedFileSource::open(&path).unwrap();
        t.advance(40);
        let cp = t.checkpoint();
        let tail_a: Vec<TraceInstr> = t.clone().into_iter_instrs().take(50).collect();
        t.advance(500);
        t.restore(&cp);
        let tail_b: Vec<TraceInstr> = t.into_iter_instrs().take(50).collect();
        assert_eq!(tail_a, tail_b);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn clones_share_the_file_but_not_the_cursor() {
        let instrs = mixed_stream(600);
        let path = temp_path("clone");
        write_to(&path, &instrs, "clone");
        let mut a = PackedFileSource::open(&path).unwrap();
        a.advance(100);
        let mut b = a.clone();
        assert_eq!(a.next_instr(), b.next_instr());
        a.advance(50);
        assert_eq!(b.position(), 101);
        assert_eq!(a.position(), 151);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn content_hash_identifies_the_stream_not_the_name() {
        let instrs = mixed_stream(300);
        let path_a = temp_path("hash-a");
        let path_b = temp_path("hash-b");
        let a = write_to(&path_a, &instrs, "name-one");
        let b = write_to(&path_b, &instrs, "name-two");
        assert_eq!(a.content_hash, b.content_hash, "same events, same hash");

        let mut changed = instrs.clone();
        changed[17] = TraceInstr::other(0xdead, 4);
        let path_c = temp_path("hash-c");
        let c = write_to(&path_c, &changed, "name-one");
        assert_ne!(a.content_hash, c.content_hash, "one event differs");
        for p in [path_a, path_b, path_c] {
            let _ = std::fs::remove_file(&p);
        }
    }

    #[test]
    #[should_panic(expected = "content hash mismatch")]
    fn foreign_checkpoints_are_rejected() {
        let path_a = temp_path("foreign-a");
        let path_b = temp_path("foreign-b");
        write_to(&path_a, &mixed_stream(100), "a");
        write_to(&path_b, &mixed_stream(101), "b");
        let a = PackedFileSource::open(&path_a).unwrap();
        let mut b = PackedFileSource::open(&path_b).unwrap();
        let cp = a.checkpoint();
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
        b.restore(&cp);
    }

    #[test]
    fn malformed_files_are_typed_errors() {
        let path = temp_path("bad");
        std::fs::write(&path, b"definitely not a container").unwrap();
        assert!(matches!(
            PackedFileSource::open(&path),
            Err(ContainerError::BadMagic)
        ));

        // A valid container with a corrupted version field.
        let instrs = mixed_stream(10);
        write_to(&path, &instrs, "v");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 0xEE;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            PackedFileSource::open(&path),
            Err(ContainerError::BadVersion(_))
        ));

        // Truncated mid-index.
        write_to(&path, &instrs, "v");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
        assert!(matches!(
            PackedFileSource::open(&path),
            Err(ContainerError::Corrupt(_))
        ));
        let _ = std::fs::remove_file(&path);

        assert!(matches!(
            PackedFileSource::open(temp_path("missing")),
            Err(ContainerError::Io(_))
        ));
    }

    #[test]
    fn writer_streams_through_cursor_sinks() {
        // `Cursor<Vec<u8>>` satisfies Write + Seek: the header patch at
        // finish() must land at offset 0.
        let instrs = mixed_stream(50);
        let mut sink = Cursor::new(Vec::new());
        let mut src = VecSource::new("cursor", instrs.clone());
        let summary = write_container(&mut sink, "cursor", Arch::X86, &mut src, 30).unwrap();
        assert_eq!(summary.events, 30, "limit respected");
        let bytes = sink.into_inner();
        assert_eq!(&bytes[0..4], MAGIC);
        assert_eq!(bytes.len() as u64, summary.bytes);

        let path = temp_path("cursor");
        std::fs::write(&path, &bytes).unwrap();
        let info = read_info(&path).unwrap();
        assert_eq!(info.arch, Arch::X86);
        assert_eq!(info.total_events, 30);
        let back: Vec<TraceInstr> = PackedFileSource::open(&path)
            .unwrap()
            .into_iter_instrs()
            .collect();
        assert_eq!(&back[..], &instrs[..30]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fill_block_crosses_container_blocks() {
        let instrs = mixed_stream(BLOCK_EVENTS as u64 + 64);
        let path = temp_path("fill");
        write_to(&path, &instrs, "fill");
        let mut s = PackedFileSource::open(&path).unwrap();
        s.advance(BLOCK_EVENTS as u64 - 10);
        let mut buf = crate::packed::PackedBuf::new();
        assert_eq!(s.fill_block(&mut buf, 40), 40, "spans the block boundary");
        for (i, want) in instrs[BLOCK_EVENTS - 10..BLOCK_EVENTS + 30]
            .iter()
            .enumerate()
        {
            assert_eq!(buf.get(i), *want, "event {i}");
        }
        assert_eq!(s.fill_block(&mut buf, 1 << 20), 34, "trace end");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_failed_block_read_is_recorded_and_ends_the_stream() {
        let instrs = mixed_stream(BLOCK_EVENTS as u64 * 2);
        let path = temp_path("shrunk");
        write_to(&path, &instrs, "shrunk");
        let mut source = PackedFileSource::open(&path).unwrap();
        assert_eq!(source.next_instr(), Some(instrs[0]));
        assert!(source.error().is_none());
        // The file shrinks under an open source: the next block is gone.
        File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(64)
            .unwrap();
        source.seek(BLOCK_EVENTS as u64);
        let mut block = crate::packed::PackedBuf::with_capacity(16);
        assert_eq!(source.fill_block(&mut block, 16), 0, "the stream ends");
        assert_eq!(source.next_instr(), None);
        let error = source.error().expect("the failure is recorded").to_string();
        assert!(error.contains("I/O"), "{error}");
        assert!(source.clone().error().is_some(), "clones keep the failure");
        let _ = std::fs::remove_file(&path);
    }
}
