//! In-memory spans around calls into the program's public functions.
//!
//! Spans are recorded only by the traced run, kept in memory, and written
//! out as JSON lines when the run ends. The untraced run that produces the
//! end-to-end metrics never touches this module.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The call, e.g. `sim.run` or `core.rrm_build`.
    pub name: &'static str,
    /// The subject: a cell id, a graph name or a workload name.
    pub subject: String,
    /// Unique id within the run.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Start, relative to the recorder's creation.
    pub start: Duration,
    /// End, relative to the recorder's creation.
    pub end: Duration,
}

impl Span {
    /// The span's length.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A thread-safe span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    next_id: AtomicU64,
    records: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            records: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    /// Times `f` as span `name` over `subject`; `f` receives the new span's
    /// id so nested calls can name it as their parent.
    pub fn time<T>(
        &self,
        name: &'static str,
        subject: &str,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        // Ids only need to be unique; nothing is published through them.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed();
        let out = f(id);
        let end = self.origin.elapsed();
        self.records
            .lock()
            .expect("span recorder poisoned by a panicking cell")
            .push(Span {
                name,
                subject: subject.to_string(),
                id,
                parent,
                start,
                end,
            });
        out
    }

    /// Every recorded span, ordered by start time.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut spans = self
            .records
            .lock()
            .expect("span recorder poisoned by a panicking cell")
            .clone();
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.snapshot()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64())
            .sum()
    }

    /// Summed duration of the spans named `name` over `subject`, in seconds.
    pub fn subject_s(&self, name: &str, subject: &str) -> f64 {
        self.snapshot()
            .iter()
            .filter(|s| s.name == name && s.subject == subject)
            .map(|s| s.duration().as_secs_f64())
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.snapshot().iter().filter(|s| s.name == name).count()
    }

    /// The spans as JSON lines, in start order.
    pub fn to_jsonl(&self) -> String {
        self.snapshot()
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"subject\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                    s.name,
                    s.subject,
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start.as_nanos(),
                    s.end.as_nanos(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_totals() {
        let spans = Spans::default();
        let inner_parent = spans.time("outer", "w", None, |id| {
            spans.time("inner", "a", Some(id), |_| ());
            spans.time("inner", "b", Some(id), |_| ());
            id
        });
        let all = spans.snapshot();
        assert_eq!(all.len(), 3);
        assert_eq!(spans.count("inner"), 2);
        assert!(all
            .iter()
            .filter(|s| s.name == "inner")
            .all(|s| s.parent == Some(inner_parent)));
        assert!(spans.total_s("outer") >= spans.total_s("inner"));
        assert_eq!(spans.to_jsonl().lines().count(), 3);
    }
}
