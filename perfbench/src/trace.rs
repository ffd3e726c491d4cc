//! Spans recorded around the calls this benchmark makes into each layer.
//! They stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
struct Span {
    parent: Option<usize>,
    /// `<layer>.<operation>`.
    name: &'static str,
    /// The cache key of the point the call served, if any.
    key: String,
    start_ns: u64,
    end_ns: u64,
}

/// Collects spans from any number of threads.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name` under `parent`; `f` receives the
    /// new span's id so it can open child spans.
    pub fn span<R>(
        &self,
        parent: Option<usize>,
        name: &'static str,
        key: &str,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = {
            let mut spans = self.spans.lock().expect("span lock");
            spans.push(Span {
                parent,
                name,
                key: key.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now_ns();
        self.spans.lock().expect("span lock")[id].end_ns = end;
        out
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span lock");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-6)
            .collect()
    }

    /// The spans as JSON lines, tagged with the workload and seed.
    pub fn to_jsonl(&self, workload: &str, seed: u64) -> String {
        let spans = self.spans.lock().expect("span lock");
        let mut out = String::new();
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"seed\":{seed},\"id\":{id},\"parent\":{parent},\
                 \"name\":\"{}\",\"key\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.name,
                s.key,
                s.start_ns as f64 * 1e-3,
                (s.end_ns - s.start_ns) as f64 * 1e-3
            );
        }
        out
    }

    /// Self time per layer: each span's duration minus the part of it
    /// its child spans cover, summed by the span name's layer prefix.
    /// Returns (layer, total seconds, self seconds, spans), largest self
    /// time first.
    pub fn self_times(&self) -> Vec<(String, f64, f64, usize)> {
        let spans = self.spans.lock().expect("span lock");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut layers: BTreeMap<String, (u64, u64, usize)> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            let total = s.end_ns - s.start_ns;
            let covered = union_length(kids);
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            let entry = layers.entry(layer).or_default();
            entry.0 += total;
            entry.1 += total.saturating_sub(covered);
            entry.2 += 1;
        }
        let mut rows: Vec<_> = layers
            .into_iter()
            .map(|(layer, (total, own, n))| (layer, total as f64 * 1e-9, own as f64 * 1e-9, n))
            .collect();
        rows.sort_by(|a, b| b.2.total_cmp(&a.2));
        rows
    }
}

/// Length of the union of `intervals` (sorted in place).
fn union_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}
