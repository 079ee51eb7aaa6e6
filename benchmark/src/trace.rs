//! In-memory spans recorded by the benchmark's own code around calls
//! into the repository's public functions.
//!
//! A span is `{name, thread, start_ns, end_ns, parent, op_id}`. Spans
//! live in one pre-allocated `Vec` and are written out once, when the
//! run ends. A layer's self time is its span's duration minus the part
//! its child spans on the same thread cover. A disabled tracer reads no
//! clock and takes no lock, which is what the untraced pass runs with.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent of a span nothing else caused.
pub const ROOT: u32 = u32::MAX;

/// Spans pre-allocated per traced run; recording past it is dropped and
/// counted, never reallocated mid-measurement.
const CAPACITY: usize = 1 << 20;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op_id: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU32,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// This thread's number and its stack of open span indices.
    static THREAD: (u32, RefCell<Vec<u32>>) =
        (NEXT_THREAD.fetch_add(1, Ordering::Relaxed), RefCell::new(Vec::new()));
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: Option<u32>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let end = self.tracer.now_ns();
        THREAD.with(|(_, stack)| {
            stack.borrow_mut().pop();
        });
        let mut spans = self.tracer.spans.lock().unwrap_or_else(|e| e.into_inner());
        spans[index as usize].end_ns = end;
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(if enabled { CAPACITY } else { 0 })),
            dropped: AtomicU32::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since this tracer was made, as spans record them.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under this thread's innermost open span.
    pub fn span(&self, name: &'static str, op_id: u64) -> Guard<'_> {
        let parent = THREAD.with(|(_, stack)| stack.borrow().last().copied().unwrap_or(ROOT));
        self.span_under(name, op_id, parent)
    }

    /// Open a span caused by `parent`, which may be open on another
    /// thread (a client thread's request under the round that spawned it).
    pub fn span_under(&self, name: &'static str, op_id: u64, parent: u32) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                index: None,
            };
        }
        let start_ns = self.now_ns();
        let index = THREAD.with(|(thread, stack)| {
            let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
            if spans.len() == CAPACITY {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            let index = spans.len() as u32;
            spans.push(Span {
                name,
                thread: *thread,
                start_ns,
                end_ns: start_ns,
                parent,
                op_id,
            });
            stack.borrow_mut().push(index);
            Some(index)
        });
        Guard {
            tracer: self,
            index,
        }
    }

    /// Index of this thread's innermost open span, to hand to threads it
    /// spawns.
    pub fn current(&self) -> u32 {
        THREAD.with(|(_, stack)| stack.borrow().last().copied().unwrap_or(ROOT))
    }

    /// Run `f` inside a span.
    pub fn time<T>(&self, name: &'static str, op_id: u64, f: impl FnOnce() -> T) -> T {
        let _guard = self.span(name, op_id);
        f()
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    pub fn dropped(&self) -> u32 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Per span name: how many, total duration and total self time, seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// Each span's self time in nanoseconds: its duration minus the part its
/// child spans on the same thread cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != ROOT && spans[span.parent as usize].thread == span.thread {
            child_ns[span.parent as usize] += span.end_ns - span.start_ns;
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, child)| (s.end_ns - s.start_ns).saturating_sub(child))
        .collect()
}

/// Fold spans that started at or after `from_ns` into per-name totals.
pub fn totals(spans: &[Span], from_ns: u64) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_ns(spans)) {
        if span.start_ns < from_ns {
            continue;
        }
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_s += (span.end_ns - span.start_ns) as f64 / 1e9;
        entry.self_s += own as f64 / 1e9;
    }
    out
}

/// The calling thread's number as spans record it.
pub fn this_thread() -> u32 {
    THREAD.with(|(thread, _)| *thread)
}

/// The trace as one JSON document: a name table and one row per span,
/// `[name, thread, start_ns, end_ns, parent, op_id]`, parent −1 for none.
pub fn to_json(workload: &str, spans: &[Span], dropped: u32) -> String {
    use std::fmt::Write;
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let mut out = String::with_capacity(64 + spans.len() * 48);
    write!(out, "{{\"workload\":\"{workload}\",\"dropped\":{dropped},\"columns\":[\"name\",\"thread\",\"start_ns\",\"end_ns\",\"parent\",\"op_id\"],\"names\":[").unwrap();
    for (i, name) in names.iter().enumerate() {
        write!(out, "{}\"{name}\"", if i > 0 { "," } else { "" }).unwrap();
    }
    out.push_str("],\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        let name = names
            .binary_search(&s.name)
            .expect("name is in its own table");
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        write!(
            out,
            "{}[{name},{},{},{},{parent},{}]",
            if i > 0 { "," } else { "" },
            s.thread,
            s.start_ns,
            s.end_ns,
            s.op_id
        )
        .unwrap();
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_on_the_same_thread() {
        let spans = vec![
            Span {
                name: "outer",
                thread: 0,
                start_ns: 0,
                end_ns: 100,
                parent: ROOT,
                op_id: 1,
            },
            Span {
                name: "inner",
                thread: 0,
                start_ns: 10,
                end_ns: 40,
                parent: 0,
                op_id: 1,
            },
            Span {
                name: "remote",
                thread: 1,
                start_ns: 10,
                end_ns: 90,
                parent: 0,
                op_id: 1,
            },
        ];
        let t = totals(&spans, 0);
        assert_eq!(t["outer"].self_s, 70e-9);
        assert_eq!(t["inner"].self_s, 30e-9);
        assert_eq!(t["remote"].count, 1);
        assert_eq!(self_ns(&spans), vec![70, 30, 80]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        tracer.time("x", 0, || ());
        assert!(tracer.snapshot().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let tracer = Tracer::new(true);
        {
            let _a = tracer.span("a", 7);
            tracer.time("b", 7, || ());
        }
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, 0);
        assert!(to_json("w", &spans, 0).contains("\"names\":[\"a\",\"b\"]"));
    }
}
