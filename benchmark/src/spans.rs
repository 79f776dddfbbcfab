//! Host-time spans around the harness's calls into each layer.
//!
//! Recording is off unless a traced pass enables it, so the end-to-end
//! numbers never pay for it. Spans live in per-thread vectors (rank
//! bodies run on threads the launcher owns) and are merged into one
//! list when each thread ends; nothing is written until the pass is over.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. `parent` is the span that caused this one: the
/// enclosing span on the same thread, or — for the outermost span of a
/// rank thread — the driver thread's span that launched the world.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub rep: u64,
    pub thread: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
/// The repetition being measured and the driver-thread span that other
/// threads' outermost spans hang under (0 = none).
static CURRENT_REP: AtomicU64 = AtomicU64::new(0);
static LAUNCH_SPAN: AtomicU64 = AtomicU64::new(0);
static MERGED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct Local {
    thread: u64,
    stack: Vec<u64>,
    done: Vec<Span>,
}

impl Drop for Local {
    fn drop(&mut self) {
        if !self.done.is_empty() {
            // A poisoned list only means another thread panicked while
            // merging; the spans themselves are still whole.
            let mut merged = MERGED.lock().unwrap_or_else(|e| e.into_inner());
            merged.append(&mut self.done);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        done: Vec::new(),
    });
}

/// Turn recording on or off (off discards nothing already recorded).
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn set_rep(rep: u64) {
    CURRENT_REP.store(rep, Ordering::SeqCst);
}

/// An open span; records itself when dropped.
pub struct Guard {
    open: Option<(u64, Option<u64>, String, u64)>,
}

/// Open a span named `name` on the calling thread.
pub fn enter(name: &str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().copied().or_else(|| {
            let launch = LAUNCH_SPAN.load(Ordering::SeqCst);
            (launch != 0).then_some(launch)
        });
        l.stack.push(id);
        parent
    });
    let start = epoch().elapsed().as_nanos() as u64;
    Guard {
        open: Some((id, parent, name.to_string(), start)),
    }
}

impl Guard {
    /// Make this span the parent of the outermost spans other threads
    /// open until it ends (the span around a world launch).
    pub fn adopt_threads(self) -> Self {
        if let Some((id, ..)) = &self.open {
            LAUNCH_SPAN.store(*id, Ordering::SeqCst);
        }
        self
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.open.take() else {
            return;
        };
        let end_ns = epoch().elapsed().as_nanos() as u64;
        // Only the launching span ever holds this slot, so a failed
        // exchange just means this span was not the launcher.
        let _ = LAUNCH_SPAN.compare_exchange(id, 0, Ordering::SeqCst, Ordering::SeqCst);
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.stack.retain(|&open| open != id);
            let thread = l.thread;
            l.done.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
                rep: CURRENT_REP.load(Ordering::SeqCst),
                thread,
            });
        });
    }
}

/// Take every span recorded so far (the calling thread's included;
/// other threads' spans arrive when those threads end).
pub fn drain() -> Vec<Span> {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let mut merged = MERGED.lock().unwrap_or_else(|e| e.into_inner());
        merged.append(&mut l.done);
        let mut all = std::mem::take(&mut *merged);
        all.sort_by_key(|s| (s.start_ns, s.id));
        all
    })
}

/// Per-name totals of one traced pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration not covered by child spans.
    pub self_ns: u64,
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Aggregate spans by name. A span's self time is its duration minus the
/// part of its interval that its child spans (on any thread) cover.
pub fn totals(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let kids = children.remove(&s.id).unwrap_or_default();
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered(kids, s.start_ns, s.end_ns);
    }
    out
}

/// Chrome `trace_events` JSON (complete events, µs timestamps).
pub fn chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"rep\": {}}}}}",
                s.name,
                layer_of(&s.name),
                s.thread,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                parent,
                s.rep
            )
        })
        .collect();
    format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
}

/// The layer (crate) a span name belongs to: the part before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
            rep: 0,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (parallel rank threads) and one that
        // sticks out past the parent's end.
        let spans = vec![
            span(1, None, "rep", 0, 100),
            span(2, Some(1), "minimpi.run_world", 10, 90),
            span(3, Some(2), "clmpi.new", 20, 50),
            span(4, Some(2), "clmpi.new", 40, 70),
            span(5, Some(2), "clmpi.shutdown", 80, 95),
        ];
        let t = totals(&spans);
        assert_eq!(t["rep"].self_ns, 20);
        assert_eq!(t["minimpi.run_world"].self_ns, 80 - (50 + 10));
        assert_eq!(t["clmpi.new"].count, 2);
        assert_eq!(t["clmpi.new"].total_ns, 60);
        assert_eq!(t["clmpi.new"].self_ns, 60);
    }

    /// The only test that turns recording on: spans of a thread the
    /// harness does not own hang under the span that adopted them, and
    /// arrive when that thread ends.
    #[test]
    fn recorder_links_other_threads_to_the_launching_span() {
        set_enabled(true);
        set_rep(7);
        {
            let _outer = enter("test.launch").adopt_threads();
            std::thread::spawn(|| {
                let _rank = enter("test.rank");
                let _inner = enter("test.rank.inner");
            })
            .join()
            .unwrap();
        }
        drop(enter("test.after"));
        set_enabled(false);
        drop(enter("test.disabled"));
        let spans = drain();
        let by_name = |name: &str| spans.iter().find(|s| s.name == name);
        let launch = by_name("test.launch").expect("launch span recorded");
        let rank = by_name("test.rank").expect("rank span arrived at thread end");
        let inner = by_name("test.rank.inner").expect("inner span recorded");
        assert_eq!(rank.parent, Some(launch.id));
        assert_eq!(inner.parent, Some(rank.id));
        assert_ne!(rank.thread, launch.thread);
        assert_eq!((launch.parent, launch.rep), (None, 7));
        assert!(launch.start_ns <= rank.start_ns && rank.end_ns <= launch.end_ns);
        // Once the launching span has ended nothing is adopted any more.
        assert_eq!(by_name("test.after").expect("recorded").parent, None);
        assert!(by_name("test.disabled").is_none());
    }

    #[test]
    fn chrome_export_is_well_formed_json() {
        let spans = vec![
            span(1, None, "rep", 0, 1500),
            span(2, Some(1), "obs.summary", 100, 900),
        ];
        let json = chrome_json(&spans);
        clmpi::obs::validate_json(&json).expect("chrome trace must be well-formed");
        assert!(json.contains("\"cat\": \"obs\""));
        assert_eq!(layer_of("clmpi.enqueue.send"), "clmpi");
        assert_eq!(layer_of("rep"), "rep");
    }
}
