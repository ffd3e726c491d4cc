//! Deterministic binary snapshot codec for microarchitectural state.
//!
//! A simulation resumed mid-window (see `btbx_uarch::run_resumed`)
//! restores *warmed* microarchitectural state instead of replaying a
//! warm-up prefix. That requires every stateful model — each
//! [`crate::OrgKind`]'s BTB, the direction predictor, the return-address
//! stack, the cache hierarchy — to serialize into bytes that are
//! **byte-deterministic** (the same state always produces the same bytes,
//! so snapshots can be content-hashed and cached like `.btbt` containers)
//! and **versioned** (a snapshot taken by one build of the simulator must
//! never be silently restored into an incompatible one).
//!
//! The codec is intentionally primitive: little-endian fixed-width
//! integers, length-prefixed byte strings, `u8` enum discriminants, no
//! self-description. Every [`Snapshot`] implementation writes its own
//! geometry (set counts, way counts, capacities) ahead of its state and
//! validates it on restore, so restoring into a differently configured
//! model fails loudly with [`SnapError::Corrupt`] instead of corrupting
//! the simulation.
//!
//! [`seal`]/[`unseal`] wrap a payload in the versioned envelope used for
//! anything that leaves the process: a magic tag, the codec version, a
//! caller-chosen identity key (org + spec + config + warm-up), and an
//! FNV-1a content hash over the whole record — the same integrity scheme
//! `.btbt` containers use.

use std::fmt;

/// Codec version written into every sealed snapshot. Bump whenever any
/// [`Snapshot`] implementation changes its byte layout.
pub const SNAP_VERSION: u32 = 1;

const SNAP_MAGIC: [u8; 4] = *b"btbS";

/// Why a snapshot could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the state was fully read.
    Truncated,
    /// Bytes were left over after the state was fully read.
    Trailing(usize),
    /// A structural invariant failed (geometry mismatch, bad
    /// discriminant, invalid field value). The message names the check.
    Corrupt(&'static str),
    /// The sealed envelope was written for a different identity key.
    KeyMismatch { expected: String, found: String },
    /// The sealed envelope was written by a different codec version.
    VersionMismatch { expected: u32, found: u32 },
    /// The sealed envelope's content hash does not match its bytes.
    HashMismatch,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::Trailing(n) => write!(f, "snapshot has {n} trailing bytes"),
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapError::KeyMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot key mismatch: expected `{expected}`, found `{found}`"
                )
            }
            SnapError::VersionMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot version mismatch: expected {expected}, found {found}"
                )
            }
            SnapError::HashMismatch => write!(f, "snapshot content hash mismatch"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Serializes state into a deterministic little-endian byte stream.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    pub fn new() -> Self {
        SnapWriter::default()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn i8(&mut self, v: i8) {
        self.buf.push(v as u8);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Deserializes state written by [`SnapWriter`], validating as it goes.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
}

impl<'a> SnapReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.buf.len() < n {
            return Err(SnapError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool discriminant")),
        }
    }

    pub fn i8(&mut self) -> Result<i8, SnapError> {
        Ok(self.u8()? as i8)
    }

    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn u128(&mut self) -> Result<u128, SnapError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.u64()? as usize;
        self.take(len)
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Corrupt("utf-8 string"))
    }

    /// Read a `u64` and require it to equal `expected` — the geometry
    /// guard every structural field uses on restore.
    pub fn expect_u64(&mut self, expected: u64, what: &'static str) -> Result<(), SnapError> {
        if self.u64()? != expected {
            return Err(SnapError::Corrupt(what));
        }
        Ok(())
    }

    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Require the stream to be fully consumed.
    pub fn done(&self) -> Result<(), SnapError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(SnapError::Trailing(self.buf.len()))
        }
    }
}

/// State that can round-trip through the snapshot codec.
///
/// Contract: `save_state` followed by `restore_state` on a freshly
/// constructed value *with the same configuration/geometry* must
/// reproduce the saved value exactly — every subsequent operation
/// (lookups, updates, statistics) behaves bit-identically to the
/// original. `restore_state` must validate geometry and reject bytes
/// written for a differently shaped instance.
pub trait Snapshot {
    fn save_state(&self, w: &mut SnapWriter);
    fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError>;
}

/// 64-bit FNV-1a over `bytes` — the same hash `.btbt` containers and the
/// sweep cache keys use for content addressing.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Wrap `payload` in the versioned, content-hashed snapshot envelope.
///
/// `key` is the caller's identity string (org, spec, config, warm-up —
/// whatever must match for a restore to be meaningful); [`unseal`]
/// refuses payloads sealed under a different key.
pub fn seal(key: &str, payload: &[u8]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.buf.extend_from_slice(&SNAP_MAGIC);
    w.u32(SNAP_VERSION);
    w.str(key);
    w.bytes(payload);
    let hash = fnv64(&w.buf);
    w.u64(hash);
    w.into_vec()
}

/// Validate a sealed envelope (magic, version, key, content hash) and
/// return its payload.
pub fn unseal<'a>(bytes: &'a [u8], key: &str) -> Result<&'a [u8], SnapError> {
    if bytes.len() < 8 {
        return Err(SnapError::Truncated);
    }
    let (body, hash_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(hash_bytes.try_into().unwrap());
    if fnv64(body) != stored {
        return Err(SnapError::HashMismatch);
    }
    let mut r = SnapReader::new(body);
    let magic = r.take(4)?;
    if magic != SNAP_MAGIC {
        return Err(SnapError::Corrupt("snapshot magic"));
    }
    let version = r.u32()?;
    if version != SNAP_VERSION {
        return Err(SnapError::VersionMismatch {
            expected: SNAP_VERSION,
            found: version,
        });
    }
    let found = r.str()?;
    if found != key {
        return Err(SnapError::KeyMismatch {
            expected: key.to_string(),
            found,
        });
    }
    let payload = r.bytes()?;
    r.done()?;
    Ok(payload)
}

/// Serialize `state` and seal it under `key`.
pub fn save_sealed<T: Snapshot + ?Sized>(key: &str, state: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    state.save_state(&mut w);
    seal(key, &w.into_vec())
}

/// Unseal `bytes` under `key` and restore `state` from the payload,
/// requiring the payload to be fully consumed.
pub fn restore_sealed<T: Snapshot + ?Sized>(
    state: &mut T,
    key: &str,
    bytes: &[u8],
) -> Result<(), SnapError> {
    let payload = unseal(bytes, key)?;
    let mut r = SnapReader::new(payload);
    state.restore_state(&mut r)?;
    r.done()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(0xab);
        w.bool(true);
        w.bool(false);
        w.i8(-5);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.u128(u128::MAX / 3);
        w.bytes(b"payload");
        w.str("a string");
        let bytes = w.into_vec();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.i8().unwrap(), -5);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.bytes().unwrap(), b"payload");
        assert_eq!(r.str().unwrap(), "a string");
        r.done().unwrap();
    }

    #[test]
    fn truncated_and_trailing_are_detected() {
        let mut w = SnapWriter::new();
        w.u64(7);
        let bytes = w.into_vec();
        let mut r = SnapReader::new(&bytes[..4]);
        assert_eq!(r.u64(), Err(SnapError::Truncated));
        let r = SnapReader::new(&bytes);
        assert_eq!(r.done(), Err(SnapError::Trailing(8)));
    }

    #[test]
    fn bad_bool_is_corrupt() {
        let mut r = SnapReader::new(&[2]);
        assert!(matches!(r.bool(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn seal_round_trips_and_validates() {
        let sealed = seal("conv/1k/w8000", b"state bytes");
        assert_eq!(unseal(&sealed, "conv/1k/w8000").unwrap(), b"state bytes");

        assert!(matches!(
            unseal(&sealed, "pdede/1k/w8000"),
            Err(SnapError::KeyMismatch { .. })
        ));

        let mut flipped = sealed.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert_eq!(
            unseal(&flipped, "conv/1k/w8000"),
            Err(SnapError::HashMismatch)
        );

        assert_eq!(
            unseal(&sealed[..6], "conv/1k/w8000"),
            Err(SnapError::Truncated)
        );
    }

    #[test]
    fn sealing_is_deterministic() {
        assert_eq!(seal("k", b"abc"), seal("k", b"abc"));
        assert_ne!(seal("k", b"abc"), seal("k", b"abd"));
        assert_ne!(seal("k1", b"abc"), seal("k2", b"abc"));
    }

    #[test]
    fn expect_u64_guards_geometry() {
        let mut w = SnapWriter::new();
        w.u64(64);
        let bytes = w.into_vec();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            r.expect_u64(32, "set count"),
            Err(SnapError::Corrupt("set count"))
        );
    }
}
