//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, start, end and parent. The tracer always
//! measures (the end-to-end samples are span durations), but it keeps
//! the spans only when tracing is on, so an untraced run allocates
//! nothing per call. A span's layer is its name up to the first `.`:
//! `checkpoint.state_at` belongs to `checkpoint`, `op.seek` to `op`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are seconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `stream.decode`.
    pub name: &'static str,
    /// Start, seconds since the tracer's epoch.
    pub start: f64,
    /// End, seconds since the tracer's epoch.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    /// The layer the span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A stack of open spans plus, when tracing, every closed one.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    keep: bool,
    spans: Vec<Span>,
    /// Open spans: index into `spans` (when kept) and start time.
    open: Vec<(Option<usize>, f64)>,
}

impl Tracer {
    /// A tracer that keeps spans when `keep` is set.
    pub fn new(keep: bool) -> Self {
        Self {
            epoch: Instant::now(),
            keep,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start = self.now();
        let slot = self.keep.then(|| {
            let parent = self.open.last().and_then(|&(i, _)| i);
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent,
            });
            self.spans.len() - 1
        });
        self.open.push((slot, start));
    }

    /// Closes the innermost open span and returns its duration in
    /// seconds.
    pub fn exit(&mut self) -> f64 {
        let end = self.now();
        let (slot, start) = self.open.pop().expect("exit matches an earlier enter");
        if let Some(i) = slot {
            self.spans[i].end = end;
        }
        end - start
    }

    /// Runs `f` inside a span with no children.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Every kept span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every kept span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time (duration minus the time its children cover) summed
    /// by layer, for each kept root span called `root`: one map per
    /// root, in order.
    pub fn self_times(&self, root: &str) -> Vec<BTreeMap<&'static str, f64>> {
        let mut child_secs = vec![0.0; self.spans.len()];
        let mut root_of = vec![None; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            root_of[i] = match s.parent {
                Some(p) => {
                    child_secs[p] += s.secs();
                    root_of[p]
                }
                None => (s.name == root).then_some(i),
            };
        }
        let mut per_root: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(r) = root_of[i] {
                if r != i {
                    *per_root.entry(r).or_default().entry(s.layer()).or_default() +=
                        s.secs() - child_secs[i];
                }
            }
        }
        per_root.into_values().collect()
    }

    /// Writes the kept spans as JSON lines:
    /// `{"id":..,"name":..,"parent":..,"start_s":..,"end_s":..}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_groups_by_root() {
        let mut t = Tracer::new(true);
        for _ in 0..2 {
            t.enter("round");
            t.enter("op.replay");
            t.leaf("chunk.replay", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.exit();
            t.exit();
        }
        t.leaf("chunk.run", || ());
        let rounds = t.self_times("round");
        assert_eq!(rounds.len(), 2);
        for r in &rounds {
            assert!(r["chunk"] >= 0.002);
            assert!(r["op"] >= 0.0 && r["op"] < r["chunk"]);
            assert!(!r.contains_key("round"));
        }
        assert_eq!(t.durations("chunk.replay").len(), 2);
        assert_eq!(t.spans()[2].parent, Some(1));
    }

    #[test]
    fn untraced_tracer_keeps_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        t.enter("op.record");
        let secs = t.exit();
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
