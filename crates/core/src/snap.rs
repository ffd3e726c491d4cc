//! The FNV-1a content hash, and a [`save_sealed`] that seals nothing.
//!
//! No run hands warm state across a boundary: every point warms up and
//! measures in one serial simulation (Section VI-A), so no simulator
//! state is serialized. [`save_sealed`] exists only because the
//! benchmark harness under `perfbench/` names it. A study that needs to
//! fork warm state should clone the simulator, not serialize it.

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

/// Returns an empty byte string whatever `state` is. Callers that
/// measure a seal (perfbench's `snap.seal_ms` and `snap.bytes`) time a
/// no-op and read 0 bytes.
pub fn save_sealed<T: ?Sized>(_key: &str, _state: &T) -> Vec<u8> {
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_the_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn save_sealed_seals_nothing() {
        assert!(save_sealed("key", &42u64).is_empty());
        assert!(save_sealed("key", "unsized state").is_empty());
    }
}
