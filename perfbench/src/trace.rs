//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer, timed from outside the layer: its
//! name, start, end, the thread that ran it, the span that caused it, and
//! the stream position of the query it serves. Spans stay in per-thread
//! buffers until [`drain`] reads them, when the run ends. With recording
//! off (the untraced run) a call costs one atomic load and records
//! nothing.
//!
//! Calls into the two leaf layers ([`CARD`], [`COST`]) come by the
//! million, at well under a microsecond each, so they are not kept one by
//! one: consecutive calls of one leaf layer under the same parent on the
//! same thread are summed into a [`LeafSum`] (calls and nanoseconds).
//! That keeps the per-layer totals and every parent's self time exact.
//!
//! Parents: a call's parent is the innermost open span on its own
//! thread. Work a layer fans out onto pool worker threads has no open
//! span there, so it takes the *ambient* parent instead: the innermost
//! open span that was opened with [`ambient`] (a planner call).
//!
//! Self time: the part of a span's interval, on the thread that ran it,
//! that its children on that thread do not cover. Children fanned out
//! to other threads count in their own layer's time but cover nothing
//! on the parent's thread, which meanwhile runs its own share (a child
//! on that thread) or waits; the waiting belongs to the parent.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// No parent / no query.
pub const NONE: u32 = u32::MAX;

/// The leaf layers, by index.
pub const CARD: usize = 0;
pub const COST: usize = 1;
pub const LEAF_NAMES: [&str; 2] = ["card.histogram", "cost.expert"];

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub thread: u32,
    pub query: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Consecutive calls of one leaf layer made directly under `parent` on
/// `thread`. `parent` is [`NONE`] for calls nested inside another leaf
/// call (their time is already inside that call's) or made outside any
/// span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafSum {
    pub parent: u32,
    pub thread: u32,
    pub layer: usize,
    pub calls: u64,
    pub ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(0);
static AMBIENT: AtomicU32 = AtomicU32::new(NONE);
static QUERY: AtomicU32 = AtomicU32::new(NONE);
static THREADS: Mutex<Vec<Arc<Shared>>> = Mutex::new(Vec::new());

/// The open leaf run of one layer on one thread. Written only by its
/// thread; read by [`drain`] while no traced work runs (the pool's own
/// hand-off orders the worker's writes before the read).
#[derive(Default)]
struct Run {
    parent: AtomicU32,
    calls: AtomicU64,
    ns: AtomicU64,
}

/// One thread's recorded data, shared with [`drain`].
struct Shared {
    thread: u32,
    spans: Mutex<Vec<Span>>,
    leaves: Mutex<Vec<LeafSum>>,
    runs: [Run; 2],
}

impl Shared {
    fn take_run(&self, layer: usize) -> Option<LeafSum> {
        let run = &self.runs[layer];
        let calls = run.calls.swap(0, Ordering::Relaxed);
        let ns = run.ns.swap(0, Ordering::Relaxed);
        (calls > 0).then(|| LeafSum {
            parent: run.parent.load(Ordering::Relaxed),
            thread: self.thread,
            layer,
            calls,
            ns,
        })
    }
}

struct Local {
    shared: Arc<Shared>,
    /// Open spans on this thread, innermost last.
    stack: Vec<u32>,
    /// Open leaf calls on this thread.
    leaf_depth: u32,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let local = slot.get_or_insert_with(|| {
            let mut threads = THREADS
                .lock()
                .expect("trace registry poisoned by a panicking thread");
            let shared = Arc::new(Shared {
                thread: threads.len() as u32,
                spans: Mutex::default(),
                leaves: Mutex::default(),
                runs: Default::default(),
            });
            threads.push(shared.clone());
            Local {
                shared,
                stack: Vec::new(),
                leaf_depth: 0,
            }
        });
        f(local)
    })
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tags later spans with the stream position of the query being served.
pub fn set_query(q: u32) {
    QUERY.store(q, Ordering::Relaxed);
}

/// An open span; records itself when dropped.
pub struct Guard {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    prev_ambient: Option<u32>,
}

/// Opens a span named `name`, or returns `None` when recording is off.
pub fn span(name: &'static str) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = with_local(|l| {
        let p = l.stack.last().copied();
        l.stack.push(id);
        p
    })
    .unwrap_or_else(|| AMBIENT.load(Ordering::Relaxed));
    Some(Guard {
        id,
        parent,
        name,
        start_ns: now_ns(),
        prev_ambient: None,
    })
}

/// Opens a span that also becomes the parent of calls made on pool
/// worker threads until it closes.
pub fn ambient(name: &'static str) -> Option<Guard> {
    let mut g = span(name)?;
    g.prev_ambient = Some(AMBIENT.swap(g.id, Ordering::Relaxed));
    Some(g)
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        if let Some(prev) = self.prev_ambient {
            AMBIENT.store(prev, Ordering::Relaxed);
        }
        with_local(|l| {
            l.stack.pop();
            let s = Span {
                id: self.id,
                parent: self.parent,
                thread: l.shared.thread,
                query: QUERY.load(Ordering::Relaxed),
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
            };
            // Never panic in drop: a poisoned buffer just loses the span.
            if let Ok(mut b) = l.shared.spans.lock() {
                b.push(s);
            }
        });
    }
}

/// An open leaf call; adds itself to its thread's run when dropped.
pub struct LeafGuard {
    layer: usize,
    nested: bool,
    start_ns: u64,
}

/// Opens a call into leaf layer `layer`, or returns `None` when
/// recording is off.
pub fn leaf(layer: usize) -> Option<LeafGuard> {
    if !enabled() {
        return None;
    }
    let nested = with_local(|l| {
        l.leaf_depth += 1;
        l.leaf_depth > 1
    });
    Some(LeafGuard {
        layer,
        nested,
        start_ns: now_ns(),
    })
}

impl Drop for LeafGuard {
    fn drop(&mut self) {
        let ns = now_ns().saturating_sub(self.start_ns);
        with_local(|l| {
            l.leaf_depth -= 1;
            let parent = if self.nested {
                NONE
            } else {
                l.stack
                    .last()
                    .copied()
                    .unwrap_or_else(|| AMBIENT.load(Ordering::Relaxed))
            };
            let run = &l.shared.runs[self.layer];
            if run.parent.load(Ordering::Relaxed) != parent {
                if let Some(done) = l.shared.take_run(self.layer) {
                    if let Ok(mut b) = l.shared.leaves.lock() {
                        b.push(done);
                    }
                }
                run.parent.store(parent, Ordering::Relaxed);
            }
            run.calls.fetch_add(1, Ordering::Relaxed);
            run.ns.fetch_add(ns, Ordering::Relaxed);
        });
    }
}

/// Takes everything recorded so far, from all threads: spans sorted by
/// id, and leaf sums.
pub fn drain() -> (Vec<Span>, Vec<LeafSum>) {
    let threads = THREADS
        .lock()
        .expect("trace registry poisoned by a panicking thread");
    let (mut spans, mut leaves) = (Vec::new(), Vec::new());
    for t in threads.iter() {
        spans.append(&mut t.spans.lock().expect("trace buffer poisoned"));
        leaves.append(&mut t.leaves.lock().expect("trace buffer poisoned"));
        leaves.extend((0..LEAF_NAMES.len()).filter_map(|layer| t.take_run(layer)));
    }
    spans.sort_by_key(|s| s.id);
    (spans, leaves)
}

/// Per-layer totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub calls: u64,
    /// Summed call durations (busy time across threads), seconds.
    pub secs: f64,
    /// Summed self time, seconds (see the module docs). Leaf layers
    /// record no children, so theirs equals `secs`.
    pub self_secs: f64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Sums calls, time and self time per layer name.
pub fn totals(spans: &[Span], leaves: &[LeafSum]) -> HashMap<&'static str, LayerTotals> {
    let thread_of: HashMap<u32, u32> = spans.iter().map(|s| (s.id, s.thread)).collect();
    let mut child_iv: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if thread_of.get(&s.parent) == Some(&s.thread) {
            child_iv
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut leaf_ns: HashMap<u32, u64> = HashMap::new();
    let mut out: HashMap<&'static str, LayerTotals> = HashMap::new();
    for l in leaves {
        if thread_of.get(&l.parent) == Some(&l.thread) {
            *leaf_ns.entry(l.parent).or_default() += l.ns;
        }
        let t = out.entry(LEAF_NAMES[l.layer]).or_default();
        t.calls += l.calls;
        t.secs += l.ns as f64 * 1e-9;
        t.self_secs += l.ns as f64 * 1e-9;
    }
    for s in spans {
        // Leaf calls directly under a span never sit inside one of its
        // child spans (those would be their parent), so on one thread the
        // two kinds of cover add.
        let cov = child_iv
            .get_mut(&s.id)
            .map_or(0, |iv| covered_ns(s.start_ns, s.end_ns, iv))
            + leaf_ns.get(&s.id).copied().unwrap_or(0);
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.secs += s.dur_ns() as f64 * 1e-9;
        t.self_secs += s.dur_ns().saturating_sub(cov) as f64 * 1e-9;
    }
    out
}

/// Writes spans and leaf sums as tab-separated text with a header.
pub fn write_tsv(
    spans: &[Span],
    leaves: &[LeafSum],
    out: &mut impl std::io::Write,
) -> std::io::Result<()> {
    let opt = |v: u32| {
        if v == NONE {
            "-".to_string()
        } else {
            v.to_string()
        }
    };
    writeln!(
        out,
        "kind\tid\tparent\tthread\tquery\tname\tstart_ns\tend_ns\tcalls\tns"
    )?;
    for s in spans {
        writeln!(
            out,
            "span\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t1\t{}",
            s.id,
            opt(s.parent),
            s.thread,
            opt(s.query),
            s.name,
            s.start_ns,
            s.end_ns,
            s.dur_ns()
        )?;
    }
    for l in leaves {
        writeln!(
            out,
            "leaf\t-\t{}\t{}\t-\t{}\t-\t-\t{}\t{}",
            opt(l.parent),
            l.thread,
            LEAF_NAMES[l.layer],
            l.calls,
            l.ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, thread: u32, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            thread,
            query: 0,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    fn lf(parent: u32, thread: u32, layer: usize, ns: u64) -> LeafSum {
        LeafSum {
            parent,
            thread,
            layer,
            calls: 2,
            ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_on_the_same_thread() {
        // Thread 0: root [0,100) with child a [10,40) (grandchild g
        // [20,30)), child b [30,60) overlapping a, child c [90,120)
        // running past root's end. Thread 1: worker child w [0,100)
        // fanned out by root, which covers nothing on thread 0.
        let spans = [
            sp(0, NONE, 0, "root", 0, 100),
            sp(1, 0, 0, "a", 10, 40),
            sp(2, 1, 0, "g", 20, 30),
            sp(3, 0, 0, "b", 30, 60),
            sp(4, 0, 0, "c", 90, 120),
            sp(5, 0, 1, "w", 0, 100),
        ];
        // Leaf calls: 5ns directly under root on thread 0 (inside
        // [60,90), covered by no child), 7ns under root on the worker
        // thread (no cover), 3ns nested in another leaf (no parent), 4ns
        // under w.
        let leaves = [
            lf(0, 0, CARD, 5),
            lf(0, 1, CARD, 7),
            lf(NONE, 0, CARD, 3),
            lf(5, 1, COST, 4),
        ];
        let t = totals(&spans, &leaves);
        let ns = |x: f64| (x * 1e9).round() as u64;
        // Root: [10,60) ∪ [90,100) = 60 covered by spans + 5 by leaves.
        assert_eq!(ns(t["root"].secs), 100);
        assert_eq!(ns(t["root"].self_secs), 35);
        assert_eq!(ns(t["a"].self_secs), 20);
        assert_eq!(ns(t["g"].self_secs), 10);
        assert_eq!(ns(t["b"].self_secs), 30);
        assert_eq!(ns(t["w"].self_secs), 96);
        assert_eq!(t["c"].calls, 1);
        assert_eq!(t["card.histogram"].calls, 6);
        assert_eq!(ns(t["card.histogram"].secs), 15);
        assert_eq!(ns(t["cost.expert"].secs), 4);
    }

    #[test]
    fn union_handles_disjoint_touching_and_contained_intervals() {
        let mut iv = vec![(5, 10), (0, 3), (3, 4), (6, 8), (20, 30)];
        assert_eq!(covered_ns(0, 25, &mut iv), 3 + 1 + 5 + 5);
        let mut none: Vec<(u64, u64)> = vec![];
        assert_eq!(covered_ns(0, 10, &mut none), 0);
    }

    /// The one test that records: it owns the global recorder state.
    #[test]
    fn recorder_links_nested_worker_and_leaf_calls() {
        set_enabled(true);
        set_query(7);
        {
            let _outer = ambient("t.outer");
            {
                let _inner = span("t.inner");
                let _l = leaf(CARD);
                let _nested = leaf(COST);
            }
            let _l = leaf(CARD);
            std::thread::spawn(|| {
                let _w = span("t.worker");
                drop(_w);
                let _l = leaf(COST);
            })
            .join()
            .unwrap();
        }
        set_enabled(false);
        assert!(span("t.off").is_none() && leaf(CARD).is_none());
        let (spans, leaves) = drain();
        let outer = spans.iter().find(|s| s.name == "t.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "t.inner").unwrap();
        let worker = spans.iter().find(|s| s.name == "t.worker").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(worker.parent, outer.id);
        assert_ne!(worker.thread, outer.thread);
        assert!(spans.iter().all(|s| s.query == 7));
        let find = |parent: u32, layer: usize| {
            leaves
                .iter()
                .filter(|l| l.parent == parent && l.layer == layer)
                .map(|l| l.calls)
                .sum::<u64>()
        };
        assert_eq!(find(inner.id, CARD), 1);
        assert_eq!(find(outer.id, CARD), 1);
        assert_eq!(find(NONE, COST), 1);
        assert_eq!(
            find(outer.id, COST),
            1,
            "worker leaf takes the ambient parent"
        );
        let t = totals(&spans, &leaves);
        assert!(t["t.outer"].self_secs <= t["t.outer"].secs);
    }
}
