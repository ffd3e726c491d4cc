//! Test-only event-counting trace wrapper.
//!
//! [`CountingSource`] forwards every call to the source it wraps and adds
//! the number of events each `next_instr`/`fill_block`/`advance` call
//! pulled to a counter shared by all its clones. Tests use the count to
//! pin how often a run traverses its trace — a deterministic property,
//! where a wall-clock share would only be a noisy proxy for it.
//! Positioning (`checkpoint`/`restore`/`seek`) is forwarded uncounted.

use btbx_trace::packed::PackedBuf;
use btbx_trace::source::{SeekableSource, TraceSource};
use btbx_trace::TraceInstr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A trace source that counts the events pulled through it.
#[derive(Clone)]
pub struct CountingSource<S> {
    inner: S,
    pulled: Arc<AtomicU64>,
}

impl<S> CountingSource<S> {
    /// Wrap `inner`, adding every pulled event to `pulled`.
    pub fn new(inner: S, pulled: Arc<AtomicU64>) -> Self {
        CountingSource { inner, pulled }
    }

    fn add(&self, events: u64) {
        self.pulled.fetch_add(events, Ordering::Relaxed);
    }
}

impl<S: TraceSource> TraceSource for CountingSource<S> {
    fn next_instr(&mut self) -> Option<TraceInstr> {
        let instr = self.inner.next_instr();
        self.add(instr.is_some() as u64);
        instr
    }

    fn source_name(&self) -> &str {
        self.inner.source_name()
    }

    fn advance(&mut self, n: u64) -> u64 {
        let skipped = self.inner.advance(n);
        self.add(skipped);
        skipped
    }

    fn fill_block(&mut self, block: &mut PackedBuf, max: usize) -> usize {
        let filled = self.inner.fill_block(block, max);
        self.add(filled as u64);
        filled
    }
}

impl<S: SeekableSource> SeekableSource for CountingSource<S> {
    type Checkpoint = S::Checkpoint;

    fn position(&self) -> u64 {
        self.inner.position()
    }

    fn checkpoint(&self) -> S::Checkpoint {
        self.inner.checkpoint()
    }

    fn restore(&mut self, cp: &S::Checkpoint) {
        self.inner.restore(cp);
    }

    fn seek(&mut self, n: u64) -> u64 {
        self.inner.seek(n)
    }
}
