//! Streaming abstraction over instruction traces.
//!
//! [`TraceSource`] is the interface the simulator pulls from. Synthetic
//! generators are infinite sources; file-backed traces are finite. The
//! combinators mirror the paper's methodology: `skip` the warm-up window,
//! `take` the measurement window (Section VI-A warms for 50 M and measures
//! 50 M instructions).
//!
//! Two extensions exist for cheap, massively repeated replay:
//!
//! * [`TraceSource::advance`] skips records without yielding them, letting
//!   sources with cheap repositioning (an index bump for [`VecSource`], a
//!   materialization-free skip loop for the synthetic walker) fast-forward
//!   past a prefix;
//! * [`SeekableSource`] adds snapshot/restore of the full generator state,
//!   so a position reached once — by anyone — never has to be re-derived
//!   by stepping again. `btbx_uarch::run_resumed` pairs these
//!   checkpoints with warm simulator snapshots.

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

    /// Skip up to `n` instructions without yielding them; returns the
    /// number actually skipped (less than `n` only at end of trace).
    ///
    /// The default steps the stream and discards the records; sources
    /// with cheaper repositioning override it.
    fn advance(&mut self, n: u64) -> u64 {
        for skipped in 0..n {
            if self.next_instr().is_none() {
                return skipped;
            }
        }
        n
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

    /// Drop the first `n` instructions (warm-up style fast-forward is the
    /// caller's business; this just discards records).
    fn skip_instrs(self, n: u64) -> Skip<Self>
    where
        Self: Sized,
    {
        Skip {
            inner: self,
            to_skip: n,
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

/// A trace source whose full dynamic state can be snapshotted and
/// restored, making any previously visited position reachable in O(state)
/// instead of O(position).
///
/// The contract, pinned by `synth_seek.rs` property tests: for any
/// checkpoint taken at position `k`, a source restored from it emits
/// exactly the instructions a fresh source emits after `k` calls to
/// [`TraceSource::next_instr`] — `seek(k)` ≡ `step()×k`.
pub trait SeekableSource: TraceSource {
    /// Opaque snapshot of the source's dynamic state.
    type Checkpoint: Clone + Send + 'static;

    /// Instructions emitted so far (0 for a fresh source).
    fn position(&self) -> u64;

    /// Snapshot the current state; `position()` is part of the snapshot.
    fn checkpoint(&self) -> Self::Checkpoint;

    /// Restore a state previously captured by [`checkpoint`]
    /// (`Self::checkpoint`) on a source over the same underlying stream.
    /// Restoring a foreign checkpoint is a logic error; implementations
    /// detect shape mismatches on a best-effort basis.
    fn restore(&mut self, cp: &Self::Checkpoint);

    /// Reposition to absolute instruction index `n`: rewind by restoring
    /// the start-of-stream state when `n` is behind the cursor, then
    /// [`advance`](TraceSource::advance). Returns the resulting position
    /// (short of `n` only at end of trace).
    fn seek(&mut self, n: u64) -> u64;
}

/// A source backed by a shared, immutable instruction buffer (used by
/// tests and by in-memory replays). Cloning and checkpointing are O(1):
/// the buffer is behind an [`Arc`] and only the cursor is per-instance.
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

    fn advance(&mut self, n: u64) -> u64 {
        let left = (self.instrs.len() - self.pos) as u64;
        let skipped = n.min(left);
        self.pos += skipped as usize;
        skipped
    }
}

impl SeekableSource for VecSource {
    type Checkpoint = u64;

    fn position(&self) -> u64 {
        self.pos as u64
    }

    fn checkpoint(&self) -> u64 {
        self.pos as u64
    }

    fn restore(&mut self, cp: &u64) {
        assert!(
            *cp <= self.instrs.len() as u64,
            "checkpoint beyond the buffer: not from this stream"
        );
        self.pos = *cp as usize;
    }

    fn seek(&mut self, n: u64) -> u64 {
        self.pos = (n as usize).min(self.instrs.len());
        self.pos as u64
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

    fn advance(&mut self, n: u64) -> u64 {
        let skipped = self.inner.advance(n.min(self.remaining));
        self.remaining -= skipped;
        skipped
    }
}

/// See [`TraceSource::skip_instrs`].
#[derive(Debug, Clone)]
pub struct Skip<S> {
    inner: S,
    to_skip: u64,
}

impl<S: TraceSource> TraceSource for Skip<S> {
    fn next_instr(&mut self) -> Option<TraceInstr> {
        if self.to_skip > 0 {
            self.inner.advance(self.to_skip);
            self.to_skip = 0;
        }
        self.inner.next_instr()
    }

    fn source_name(&self) -> &str {
        self.inner.source_name()
    }

    fn error(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.inner.error()
    }

    fn advance(&mut self, n: u64) -> u64 {
        let prefix = std::mem::take(&mut self.to_skip);
        let skipped = self.inner.advance(prefix + n);
        // The prefix never counts toward the caller's skip.
        skipped.saturating_sub(prefix)
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

    fn advance(&mut self, n: u64) -> u64 {
        (**self).advance(n)
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
    fn skip_discards_prefix() {
        let mut s = seq(10).skip_instrs(4);
        assert_eq!(s.next_instr().unwrap().pc, 16);
    }

    #[test]
    fn skip_take_compose_like_the_methodology() {
        // Warm up 3, measure 2.
        let collected: Vec<u64> = seq(10)
            .skip_instrs(3)
            .take_instrs(2)
            .into_iter_instrs()
            .map(|i| i.pc)
            .collect();
        assert_eq!(collected, vec![12, 16]);
    }

    #[test]
    fn skip_past_end_yields_none() {
        let mut s = seq(2).skip_instrs(5);
        assert!(s.next_instr().is_none());
    }

    #[test]
    fn boxed_source_works() {
        let mut s: Box<dyn TraceSource> = Box::new(seq(1));
        assert!(s.next_instr().is_some());
        assert_eq!(s.source_name(), "seq");
    }

    #[test]
    fn advance_skips_and_reports_shortfall() {
        let mut s = seq(10);
        assert_eq!(s.advance(4), 4);
        assert_eq!(s.next_instr().unwrap().pc, 16);
        assert_eq!(s.advance(100), 5, "only 5 instructions remained");
        assert!(s.next_instr().is_none());
    }

    #[test]
    fn advance_through_take_counts_against_the_limit() {
        let mut s = seq(10).take_instrs(5);
        assert_eq!(s.advance(3), 3);
        assert_eq!(s.next_instr().unwrap().pc, 12);
        assert_eq!(s.advance(10), 1, "take window exhausted");
        assert!(s.next_instr().is_none());
    }

    #[test]
    fn advance_through_skip_excludes_the_prefix() {
        let mut s = seq(10).skip_instrs(3);
        assert_eq!(s.advance(2), 2, "prefix skip does not count");
        assert_eq!(s.next_instr().unwrap().pc, 20);
    }

    #[test]
    fn vec_source_checkpoint_restore_round_trips() {
        let mut s = seq(8);
        s.advance(3);
        let cp = s.checkpoint();
        assert_eq!(s.position(), 3);
        let tail_a: Vec<u64> = s.clone().into_iter_instrs().map(|i| i.pc).collect();
        s.advance(4);
        s.restore(&cp);
        let tail_b: Vec<u64> = s.into_iter_instrs().map(|i| i.pc).collect();
        assert_eq!(tail_a, tail_b);
    }

    #[test]
    fn vec_source_seek_is_absolute() {
        let mut s = seq(8);
        s.seek(5);
        assert_eq!(s.next_instr().unwrap().pc, 20);
        s.seek(1);
        assert_eq!(s.next_instr().unwrap().pc, 4, "seek rewinds");
        assert_eq!(s.seek(100), 8, "clamped to end");
        assert!(s.next_instr().is_none());
    }

    #[test]
    fn clones_share_the_buffer_but_not_the_cursor() {
        let mut a = seq(6);
        a.advance(2);
        let mut b = a.clone();
        assert_eq!(a.next_instr().unwrap().pc, b.next_instr().unwrap().pc);
        a.advance(2);
        assert_eq!(b.position(), 3);
        assert_eq!(a.position(), 5);
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
