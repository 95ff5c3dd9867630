//! The traced run's span recorder and the attribution of node-side spans to
//! the client operations that caused them.
//!
//! Spans are appended to per-thread buffers (an uncontended lock each) and
//! kept in memory until the run ends. Client spans carry the id of their op;
//! spans recorded on node threads or inside worker processes do not know
//! their op, so [`attribute`] assigns each to the client span on the same
//! object group whose interval contains it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// What a span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    ClientInvoke,
    ClientMove,
    ClientEnd,
    ObjInvoke,
    ObjLinearize,
    ObjDelinearize,
    PolicyMove,
    PolicyInstalled,
    PolicyEnd,
    PolicyRenew,
    PolicyOther,
    SimPoint,
}

impl Kind {
    /// Client calls: the spans node-side spans are attributed to.
    pub fn is_client(self) -> bool {
        matches!(
            self,
            Kind::ClientInvoke | Kind::ClientMove | Kind::ClientEnd
        )
    }

    pub fn is_policy(self) -> bool {
        matches!(
            self,
            Kind::PolicyMove
                | Kind::PolicyInstalled
                | Kind::PolicyEnd
                | Kind::PolicyRenew
                | Kind::PolicyOther
        )
    }
}

/// Group of a span with no object (e.g. a lease sweep).
pub const NO_GROUP: u32 = u32::MAX;

/// One timed interval, in nanoseconds since the process's trace epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    /// The object group the span worked on: the object itself, or its
    /// alliance when the workload moves alliances.
    pub group: u32,
    pub start: u64,
    pub end: u64,
    /// Kind-specific extra: bytes for linearize/delinearize, 1 for a
    /// granted move decision.
    pub aux: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Spans kept per run; beyond this the recorder counts drops instead of
/// growing (about 64 MiB).
const MAX_SPANS: u64 = 2 << 20;

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static BUFFERS: Mutex<Vec<Arc<Mutex<Vec<Span>>>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Arc<Mutex<Vec<Span>>> = {
        let buf = Arc::new(Mutex::new(Vec::new()));
        BUFFERS.lock().expect("span registry poisoned").push(Arc::clone(&buf));
        buf
    };
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the trace epoch.
pub fn now() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Whether the span store reached its cap; later spans are dropped.
pub fn full() -> bool {
    RECORDED.load(Ordering::Relaxed) >= MAX_SPANS
}

pub fn record(span: Span) {
    if RECORDED.fetch_add(1, Ordering::Relaxed) >= MAX_SPANS {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    LOCAL.with(|b| b.lock().expect("span buffer poisoned").push(span));
}

/// Runs `f`, recording a span around it when tracing is on.
pub fn timed<R>(kind: Kind, group: u32, aux: impl FnOnce(&R) -> u32, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let start = now();
    let r = f();
    record(Span {
        kind,
        group,
        start,
        end: now(),
        aux: aux(&r),
    });
    r
}

/// Drains every thread's buffer; returns the spans and how many were
/// dropped at the cap.
pub fn take_all() -> (Vec<Span>, u64) {
    let mut all = Vec::new();
    for buf in BUFFERS.lock().expect("span registry poisoned").iter() {
        all.append(&mut buf.lock().expect("span buffer poisoned"));
    }
    RECORDED.store(0, Ordering::Relaxed);
    (all, DROPPED.swap(0, Ordering::Relaxed))
}

/// The result of attributing node-side spans to client spans.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Per client span kind: (spans, summed duration ns, summed self time
    /// ns). Self time is the span minus the union of its children.
    pub client: HashMap<Kind, (u64, u64, u64)>,
    /// Node-side spans placed under a client span.
    pub attributed: u64,
    /// Node-side spans no client span contains (work a client call
    /// triggered but did not wait for, such as an end-request's handling).
    pub unattributed: u64,
    /// Whether every child lay inside its parent and no parent's covered
    /// time exceeded its duration.
    pub consistent: bool,
}

/// How far back among a group's client spans (by start) to look for one
/// containing a node-side span. Two clients keep at most two calls open
/// per group, so the container is among the last few started.
const LOOKBACK: usize = 8;

pub fn attribute(spans: &[Span]) -> Attribution {
    let mut by_group: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.kind.is_client() {
            by_group.entry(s.group).or_default().push(i);
        }
    }
    for list in by_group.values_mut() {
        list.sort_unstable_by_key(|&i| spans[i].start);
    }
    let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    let mut out = Attribution {
        consistent: true,
        ..Attribution::default()
    };
    for s in spans
        .iter()
        .filter(|s| !s.kind.is_client() && s.kind != Kind::SimPoint)
    {
        let parent = by_group.get(&s.group).and_then(|list| {
            let upto = list.partition_point(|&i| spans[i].start <= s.start);
            list[..upto]
                .iter()
                .rev()
                .take(LOOKBACK)
                .copied()
                .find(|&i| spans[i].end >= s.end)
        });
        match parent {
            Some(p) => {
                out.attributed += 1;
                children.entry(p).or_default().push((s.start, s.end));
            }
            None => out.unattributed += 1,
        }
    }
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.kind.is_client()) {
        let covered = children.get_mut(&i).map_or(0, |c| {
            if c.iter().any(|&(a, b)| a < s.start || b > s.end) {
                out.consistent = false;
            }
            union_len(c)
        });
        if covered > s.dur() {
            out.consistent = false;
        }
        let e = out.client.entry(s.kind).or_default();
        e.0 += 1;
        e.1 += s.dur();
        e.2 += s.dur().saturating_sub(covered);
    }
    out
}

/// Total length covered by a set of intervals.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, group: u32, start: u64, end: u64) -> Span {
        Span {
            kind,
            group,
            start,
            end,
            aux: 0,
        }
    }

    #[test]
    fn children_go_to_the_containing_span_of_their_group() {
        let spans = [
            span(Kind::ClientInvoke, 1, 0, 100),
            span(Kind::ClientInvoke, 2, 10, 50),
            span(Kind::ObjInvoke, 1, 20, 60),
            span(Kind::ObjInvoke, 1, 40, 70),
            span(Kind::ObjInvoke, 2, 20, 30),
            span(Kind::PolicyEnd, 2, 60, 65),
        ];
        let a = attribute(&spans);
        assert!(a.consistent);
        assert_eq!(a.attributed, 3);
        assert_eq!(a.unattributed, 1);
        let (n, dur, self_ns) = a.client[&Kind::ClientInvoke];
        assert_eq!((n, dur), (2, 140));
        // group 1: 100 - union(20..70) = 50; group 2: 40 - 10 = 30
        assert_eq!(self_ns, 80);
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&mut []), 0);
    }
}
