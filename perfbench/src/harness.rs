//! The closed-loop load generator shared by every workload: client threads
//! that each wait for one operation before issuing the next, a warm-up the
//! metrics skip, and — in a traced run — alternating untraced and traced
//! phases over the same cluster, so the tracing overhead is measured on one
//! set-up.

use crate::spans::{self, Kind, Span};
use crate::stats::Hist;
use oml_runtime::RuntimeError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Client-side latency classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lat {
    /// One whole op, as the workload defines it.
    Op = 0,
    /// `Cluster::invoke` / `MultiProcCluster::invoke`.
    Invoke = 1,
    /// `Cluster::move_block_in` / `MultiProcCluster::migrate`.
    Move = 2,
    /// `MoveGuard::try_end`.
    End = 3,
}

const LATS: usize = 4;

/// Which part of the run an op started in: the warm-up, the traced phase,
/// an untraced window (`UNTRACED + index`), or the end.
const WARMUP: u32 = 0;
const TRACED: u32 = 1;
const UNTRACED: u32 = 2;
const STOP: u32 = u32::MAX;
/// Clients hold still between phases while the `between` hook runs.
const PAUSE: u32 = u32::MAX - 1;

/// How often a paused client, or the controller waiting for one, looks again.
const PAUSE_POLL: Duration = Duration::from_millis(1);

/// Untraced measurement window. End-to-end figures are medians over
/// windows, so a burst of other work on the host moves one window, not
/// the run's figure.
const WINDOW: Duration = Duration::from_secs(1);

/// Phase length in a traced run, which alternates untraced and traced
/// phases: short enough that drift in the host's speed hits both alike.
const PHASE: Duration = Duration::from_millis(500);

/// How often a traced phase checks whether the span store filled up.
const FULL_POLL: Duration = Duration::from_millis(10);

/// One untraced window's op latencies and completions.
#[derive(Clone, Default)]
pub struct Window {
    pub op: Hist,
    pub ok: u64,
    pub units: u64,
    pub seconds: f64,
    /// CPU time the system under test and its load used in the window.
    pub cpu_seconds: f64,
}

/// What one phase (untraced or traced) measured.
#[derive(Clone, Default)]
pub struct PhaseStats {
    pub lat: [Hist; LATS],
    pub attempted: u64,
    pub failed: u64,
    /// Failures by `RuntimeError` variant.
    pub errors: BTreeMap<&'static str, u64>,
    /// Workload-defined work units (simulator events for the simulator).
    pub units: u64,
    pub seconds: f64,
}

impl PhaseStats {
    fn merge(&mut self, o: &PhaseStats) {
        for (a, b) in self.lat.iter_mut().zip(&o.lat) {
            a.merge(b);
        }
        self.attempted += o.attempted;
        self.failed += o.failed;
        for (k, v) in &o.errors {
            *self.errors.entry(k).or_default() += v;
        }
        self.units += o.units;
    }

    pub fn ok_ops(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn lat(&self, l: Lat) -> &Hist {
        &self.lat[l as usize]
    }
}

/// The recorder a workload's op function reports into.
pub struct Rec {
    phase: u32,
    /// Index 0 = untraced, 1 = traced.
    stats: [PhaseStats; 2],
    windows: Vec<Window>,
}

impl Rec {
    fn slot(&mut self) -> Option<&mut PhaseStats> {
        match self.phase {
            WARMUP | STOP | PAUSE => None,
            // ops that start once the span store is full have no spans;
            // leave them out so per-op layer figures stay unbiased
            TRACED if spans::full() => None,
            TRACED => Some(&mut self.stats[1]),
            _ => Some(&mut self.stats[0]),
        }
    }

    fn window(&mut self) -> Option<&mut Window> {
        if self.phase == STOP || self.phase == PAUSE {
            return None;
        }
        let i = self.phase.checked_sub(UNTRACED)? as usize;
        if self.windows.len() <= i {
            self.windows.resize(i + 1, Window::default());
        }
        Some(&mut self.windows[i])
    }

    /// Times one client call: latency into `lat`, and a client span on
    /// `group` when the op started in a traced phase.
    pub fn call<T>(
        &mut self,
        lat: Lat,
        kind: Kind,
        group: u32,
        f: impl FnOnce() -> Result<T, RuntimeError>,
    ) -> Result<T, RuntimeError> {
        let start = spans::now();
        let r = f();
        let end = spans::now();
        if self.phase == TRACED {
            spans::record(Span {
                kind,
                group,
                start,
                end,
                aux: 0,
            });
        }
        if let Some(s) = self.slot() {
            s.lat[lat as usize].record(end - start);
        }
        r
    }

    /// Adds workload work units (e.g. simulator events) to the current phase.
    pub fn units(&mut self, n: u64) {
        if let Some(s) = self.slot() {
            s.units += n;
        }
        if let Some(w) = self.window() {
            w.units += n;
        }
    }

    pub fn traced(&self) -> bool {
        self.phase == TRACED
    }

    /// Whether the current op counts toward the untraced measurement.
    pub fn untraced(&self) -> bool {
        self.phase >= UNTRACED && self.phase != STOP && self.phase != PAUSE
    }
}

/// The stable name of a runtime error's variant.
pub fn error_kind(e: &RuntimeError) -> &'static str {
    match e {
        RuntimeError::UnknownObject(_) => "UnknownObject",
        RuntimeError::UnknownNode(_) => "UnknownNode",
        RuntimeError::UnknownType(_) => "UnknownType",
        RuntimeError::MethodFailed { .. } => "MethodFailed",
        RuntimeError::TooManyHops(_) => "TooManyHops",
        RuntimeError::ShuttingDown => "ShuttingDown",
        RuntimeError::Timeout { .. } => "Timeout",
        RuntimeError::NodeDown(_) => "NodeDown",
        RuntimeError::NotDead(_) => "NotDead",
        RuntimeError::ArityMismatch { .. } => "ArityMismatch",
    }
}

/// The load's outcome: the untraced and traced phases, merged over
/// clients, and the untraced windows.
pub struct Load {
    pub untraced: PhaseStats,
    pub traced: PhaseStats,
    pub windows: Vec<Window>,
}

impl Load {
    /// Median over untraced windows of completed ops (or work units) per
    /// second.
    pub fn rate(&self, units: bool) -> f64 {
        let rates: Vec<f64> = self
            .windows
            .iter()
            .map(|w| if units { w.units } else { w.ok } as f64 / w.seconds)
            .collect();
        crate::stats::median(&rates)
    }

    /// CPU µs per completed op in each untraced window.
    pub fn window_cpu_us_per_op(&self) -> Vec<f64> {
        self.windows
            .iter()
            .map(|w| w.cpu_seconds * 1e6 / w.ok.max(1) as f64)
            .collect()
    }

    /// Median over untraced windows of CPU µs per completed op.
    pub fn cpu_us_per_op(&self) -> f64 {
        crate::stats::median(&self.window_cpu_us_per_op())
    }

    /// Median over untraced windows of the op latency's `q`-quantile in µs;
    /// `None` when a window lacks the samples for it.
    pub fn op_quantile_us(&self, q: f64) -> Option<f64> {
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.op.quantile_us(q))
            .collect::<Option<_>>()?;
        (!per_window.is_empty()).then(|| crate::stats::median(&per_window))
    }
}

/// Runs `op` in a closed loop on one thread per client state until
/// `seconds` of measurement have passed (after a warm-up of a tenth of that,
/// at most one second). With `trace`, the measurement alternates untraced
/// and traced phases and the span recorder is on during traced ones.
///
/// `cpu` reads the CPU seconds used so far by this process and any worker
/// processes; windows record its increase. `between`, if given, runs after
/// every window or phase while all clients are paused between ops; the
/// measured seconds leave those pauses out.
pub fn closed_loop<S: Send>(
    clients: &mut [S],
    seconds: f64,
    trace: bool,
    cpu: impl Fn() -> f64,
    mut between: Option<&mut dyn FnMut()>,
    op: impl Fn(&mut S, &mut Rec) -> Result<(), RuntimeError> + Sync,
) -> Load {
    let phase = AtomicU32::new(WARMUP);
    let paused = AtomicU32::new(0);
    let n_clients = clients.len() as u32;
    let mut elapsed = [0.0f64; 2];
    let mut window_secs: Vec<(f64, f64)> = Vec::new();
    let recs: Vec<Rec> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|state| {
                let (phase, paused, op) = (&phase, &paused, &op);
                scope.spawn(move || {
                    let mut rec = Rec {
                        phase: WARMUP,
                        stats: Default::default(),
                        windows: Vec::new(),
                    };
                    loop {
                        rec.phase = phase.load(Ordering::SeqCst);
                        if rec.phase == STOP {
                            return rec;
                        }
                        if rec.phase == PAUSE {
                            paused.fetch_add(1, Ordering::SeqCst);
                            while phase.load(Ordering::SeqCst) == PAUSE {
                                std::thread::sleep(PAUSE_POLL);
                            }
                            paused.fetch_sub(1, Ordering::SeqCst);
                            continue;
                        }
                        let start = spans::now();
                        let result = op(state, &mut rec);
                        let ns = spans::now() - start;
                        if let Some(s) = rec.slot() {
                            s.lat[Lat::Op as usize].record(ns);
                            s.attempted += 1;
                            if let Err(e) = &result {
                                s.failed += 1;
                                *s.errors.entry(error_kind(e)).or_default() += 1;
                            }
                        }
                        if let Some(w) = rec.window() {
                            w.op.record(ns);
                            w.ok += u64::from(result.is_ok());
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64((seconds / 10.0).min(1.0)));
        let measure = Duration::from_secs_f64(seconds);
        let mut measured = Duration::ZERO;
        let mut traced = false;
        while measured < measure {
            let step = if trace { PHASE } else { WINDOW };
            let step = step.min(measure - measured);
            spans::set_enabled(traced);
            let code = if traced {
                TRACED
            } else {
                UNTRACED + window_secs.len() as u32
            };
            phase.store(code, Ordering::SeqCst);
            let (t, cpu_start) = (Instant::now(), cpu());
            if traced {
                // a traced phase ends early once the span store is full
                while t.elapsed() < step && !spans::full() {
                    std::thread::sleep(FULL_POLL.min(step - t.elapsed()));
                }
            } else {
                std::thread::sleep(step);
            }
            let secs = t.elapsed().as_secs_f64();
            measured += t.elapsed();
            elapsed[usize::from(traced)] += secs;
            if !traced {
                window_secs.push((secs, cpu() - cpu_start));
            }
            traced = trace && !traced && !spans::full();
            if let Some(hook) = between.as_mut() {
                spans::set_enabled(false);
                phase.store(PAUSE, Ordering::SeqCst);
                while paused.load(Ordering::SeqCst) < n_clients {
                    std::thread::sleep(PAUSE_POLL);
                }
                hook();
            }
        }
        phase.store(STOP, Ordering::SeqCst);
        spans::set_enabled(false);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut load = Load {
        untraced: PhaseStats::default(),
        traced: PhaseStats::default(),
        windows: window_secs
            .iter()
            .map(|&(seconds, cpu_seconds)| Window {
                seconds,
                cpu_seconds,
                ..Window::default()
            })
            .collect(),
    };
    for rec in &recs {
        load.untraced.merge(&rec.stats[0]);
        load.traced.merge(&rec.stats[1]);
        for (w, r) in load.windows.iter_mut().zip(&rec.windows) {
            w.op.merge(&r.op);
            w.ok += r.ok;
            w.units += r.units;
        }
    }
    // a short last window says little; keep it out of the medians
    if load.windows.len() > 1
        && load
            .windows
            .last()
            .is_some_and(|w| w.seconds < 0.5 * WINDOW.as_secs_f64())
    {
        load.windows.pop();
    }
    load.untraced.seconds = elapsed[0];
    load.traced.seconds = elapsed[1];
    load
}

/// Builds the system under test `reps` times, tearing down all but the
/// last; returns it with the median build time in seconds.
pub fn setup_median<T>(
    reps: usize,
    mut build: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for i in 0..reps {
        let t = Instant::now();
        let built = build();
        times.push(t.elapsed().as_secs_f64());
        if i + 1 < reps {
            teardown(built);
        } else {
            last = Some(built);
        }
    }
    (
        last.expect("at least one set-up"),
        crate::stats::median(&times),
    )
}

/// CPU seconds (user + system, all threads) used so far by this process
/// and the processes `pids`, from `/proc/<pid>/stat` in clock ticks of
/// 1/100 s (Linux's `USER_HZ`).
pub fn cpu_seconds(pids: &[u32]) -> f64 {
    let read = |pid: &str| -> f64 {
        std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .ok()
            .and_then(|s| {
                let fields: Vec<&str> = s[s.rfind(')')? + 1..].split_whitespace().collect();
                let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok();
                Some(ticks(11)? + ticks(12)?)
            })
            .unwrap_or(0.0)
            / 100.0
    };
    read("self") + pids.iter().map(|p| read(&p.to_string())).sum::<f64>()
}

/// CPU time the calling thread has run, in ns (`CLOCK_THREAD_CPUTIME_ID`,
/// which, unlike `/proc/thread-self/schedstat`, includes the running
/// thread's current slice).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_ns() -> Option<u64> {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` has the C layout of `struct timespec` on this target and
    // outlives the call, which writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// Without a known `struct timespec` layout there is no thread CPU clock,
/// and the workloads that need one fail their check.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_ns() -> Option<u64> {
    None
}

/// Peak resident set of process `pid` (`self` for this one) in MiB, from
/// `/proc/<pid>/status`.
pub fn peak_rss_mib(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_p50_needs_every_window_to_have_one() {
        let window = |n: u64| {
            let mut w = Window::default();
            for v in 0..n {
                w.op.record(1_000 * (v + 1));
            }
            w
        };
        let mut load = Load {
            untraced: PhaseStats::default(),
            traced: PhaseStats::default(),
            windows: vec![window(100), window(300), window(100)],
        };
        let p50 = load.op_quantile_us(0.5).expect("every window has a p50");
        assert!((p50 - 50.0).abs() < 50.0 * 0.04, "{p50}");
        load.windows.push(window(5));
        assert_eq!(load.op_quantile_us(0.5), None);
        load.windows.clear();
        assert_eq!(load.op_quantile_us(0.5), None);
    }
}
