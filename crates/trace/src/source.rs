//! Streaming abstraction over instruction traces.
//!
//! [`TraceSource`] is the interface the simulator pulls from. Synthetic
//! generators are infinite sources; file-backed traces are finite. The
//! simulator warms up and then measures over one stream (Section VI-A
//! warms for 50 M and measures 50 M instructions); `take` bounds a
//! stream, for example to write a container of a fixed length.
//!
//! [`SeekableSource`] is the one extra capability a stream may have: an
//! absolute reposition. Only `.btbt` containers implement it, as an O(1)
//! index lookup.

use crate::packed::PackedBuf;
use crate::record::TraceInstr;
use std::sync::Arc;

/// A stream of dynamic instructions.
pub trait TraceSource {
    /// Produce the next instruction, or `None` at end of trace.
    fn next_instr(&mut self) -> Option<TraceInstr>;

    /// Descriptive name (workload name or file stem).
    fn source_name(&self) -> &str;

    /// The failure that ended this stream early, if one did. A source
    /// that loses bytes mid-stream (a failed container block read)
    /// records the error here and then reports end of trace, so a
    /// consumer can tell a truncated stream from a complete one. The
    /// default is `None`: in-memory and synthetic streams cannot fail.
    fn error(&self) -> Option<&(dyn std::error::Error + 'static)> {
        None
    }

    /// Append up to `max` instructions to `block`; returns how many were
    /// appended (less than `max` only at end of trace). The block is the
    /// packed staging buffer the simulator's hot loop consumes — one
    /// refill amortizes the per-event pull over a whole batch.
    fn fill_block(&mut self, block: &mut PackedBuf, max: usize) -> usize {
        for filled in 0..max {
            match self.next_instr() {
                Some(i) => block.push(i),
                None => return filled,
            }
        }
        max
    }

    /// Limit the stream to `n` instructions.
    fn take_instrs(self, n: u64) -> Take<Self>
    where
        Self: Sized,
    {
        Take {
            inner: self,
            remaining: n,
        }
    }

    /// Adapt into a standard [`Iterator`].
    fn into_iter_instrs(self) -> IntoIterInstrs<Self>
    where
        Self: Sized,
    {
        IntoIterInstrs { inner: self }
    }
}

/// A trace source that repositions to an absolute instruction index
/// without replaying the prefix.
pub trait SeekableSource: TraceSource {
    /// Reposition to absolute instruction index `n`, behind or ahead of
    /// the cursor: the next instruction is then the one a fresh source
    /// emits after `n` calls to [`TraceSource::next_instr`]. Returns the
    /// resulting position (short of `n` only at end of trace).
    fn seek(&mut self, n: u64) -> u64;
}

/// A source backed by a shared, immutable instruction buffer (used by
/// tests and by in-memory replays). Cloning is O(1): the buffer is
/// behind an [`Arc`] and only the cursor is per-instance.
#[derive(Debug, Clone)]
pub struct VecSource {
    name: String,
    instrs: Arc<[TraceInstr]>,
    pos: usize,
}

impl VecSource {
    /// Wrap a vector of instructions.
    pub fn new(name: impl Into<String>, instrs: Vec<TraceInstr>) -> Self {
        VecSource {
            name: name.into(),
            instrs: instrs.into(),
            pos: 0,
        }
    }
}

impl TraceSource for VecSource {
    fn next_instr(&mut self) -> Option<TraceInstr> {
        let i = self.instrs.get(self.pos).copied()?;
        self.pos += 1;
        Some(i)
    }

    fn source_name(&self) -> &str {
        &self.name
    }
}

/// See [`TraceSource::take_instrs`].
#[derive(Debug, Clone)]
pub struct Take<S> {
    inner: S,
    remaining: u64,
}

impl<S: TraceSource> TraceSource for Take<S> {
    fn next_instr(&mut self) -> Option<TraceInstr> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.inner.next_instr()
    }

    fn source_name(&self) -> &str {
        self.inner.source_name()
    }

    fn error(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.inner.error()
    }
}

/// See [`TraceSource::into_iter_instrs`].
#[derive(Debug, Clone)]
pub struct IntoIterInstrs<S> {
    inner: S,
}

impl<S: TraceSource> Iterator for IntoIterInstrs<S> {
    type Item = TraceInstr;

    fn next(&mut self) -> Option<TraceInstr> {
        self.inner.next_instr()
    }
}

impl<S: TraceSource + ?Sized> TraceSource for Box<S> {
    fn next_instr(&mut self) -> Option<TraceInstr> {
        (**self).next_instr()
    }

    fn source_name(&self) -> &str {
        (**self).source_name()
    }

    fn error(&self) -> Option<&(dyn std::error::Error + 'static)> {
        (**self).error()
    }

    fn fill_block(&mut self, block: &mut PackedBuf, max: usize) -> usize {
        (**self).fill_block(block, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: u64) -> VecSource {
        VecSource::new("seq", (0..n).map(|i| TraceInstr::other(i * 4, 4)).collect())
    }

    #[test]
    fn vec_source_streams_in_order() {
        let mut s = seq(3);
        assert_eq!(s.next_instr().unwrap().pc, 0);
        assert_eq!(s.next_instr().unwrap().pc, 4);
        assert_eq!(s.next_instr().unwrap().pc, 8);
        assert!(s.next_instr().is_none());
    }

    #[test]
    fn take_limits() {
        let mut s = seq(10).take_instrs(2);
        assert!(s.next_instr().is_some());
        assert!(s.next_instr().is_some());
        assert!(s.next_instr().is_none());
    }

    #[test]
    fn boxed_source_works() {
        let mut s: Box<dyn TraceSource> = Box::new(seq(1));
        assert!(s.next_instr().is_some());
        assert_eq!(s.source_name(), "seq");
    }

    #[test]
    fn clones_share_the_buffer_but_not_the_cursor() {
        let mut a = seq(6);
        a.next_instr();
        let mut b = a.clone();
        assert_eq!(a.next_instr().unwrap().pc, 4);
        a.next_instr();
        assert_eq!(b.next_instr().unwrap().pc, 4, "the clone kept its cursor");
        assert_eq!(a.next_instr().unwrap().pc, 12);
    }

    #[test]
    fn fill_block_batches_and_stops_at_end() {
        let mut s = seq(5);
        let mut block = PackedBuf::new();
        assert_eq!(s.fill_block(&mut block, 3), 3);
        assert_eq!(block.len(), 3);
        assert_eq!(block.get(2).pc, 8);
        assert_eq!(s.fill_block(&mut block, 10), 2, "trace end");
        assert_eq!(block.len(), 5);
    }
}
