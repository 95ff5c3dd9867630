//! `sim_fig16x`: the fig16x grid (7 client counts × 7 policy/attachment
//! series) through `oml_workload::run_scenario` at quick precision, each
//! point on one thread, from two client threads. Each point runs under the
//! experiment's own fixed per-point seed, so every point's event count and
//! metrics fingerprint must equal the values this benchmark recorded on its
//! seed commit; the workload seed only orders each client's passes.

use crate::harness::{self, Lat};
use crate::report::{ratio, Outcome};
use crate::rng::Rng;
use crate::spans::{self, Kind, Span};
use crate::stats::median;
use oml_core::attach::AttachmentMode;
use oml_core::policy::PolicyKind;
use oml_experiments::RunOptions;
use oml_sim::metrics::MetricsRow;
use oml_workload::{build_scenario, run_scenario, ScenarioConfig};
use std::hint::black_box;

const CLIENT_COUNTS: [u32; 7] = [1, 2, 4, 6, 8, 10, 12];
const SERIES: [(PolicyKind, AttachmentMode); 7] = [
    (PolicyKind::Sedentary, AttachmentMode::Unrestricted),
    (
        PolicyKind::ConventionalMigration,
        AttachmentMode::Unrestricted,
    ),
    (
        PolicyKind::ConventionalMigration,
        AttachmentMode::ATransitive,
    ),
    (PolicyKind::TransientPlacement, AttachmentMode::Unrestricted),
    (PolicyKind::TransientPlacement, AttachmentMode::ATransitive),
    (PolicyKind::ConventionalMigration, AttachmentMode::Exclusive),
    (PolicyKind::TransientPlacement, AttachmentMode::Exclusive),
];
/// Closed-loop clients, each running whole points on its own thread.
const CLIENTS: u64 = 2;
/// Blocks of grid set-ups (configs and every point's simulation world) made
/// before the load; one more follows every window. `setup_s` is the lowest
/// block median.
const SETUP_BLOCKS: usize = 10;
const SETUPS_PER_BLOCK: usize = 101;

/// `(events, metrics fingerprint)` per grid point in (client count, series)
/// order, recorded on the seed commit.
const GOLDEN: [(u64, u64); 49] = [
    (26109, 0x5da93c0914627144),
    (27983, 0x3f6963b42daa1bb5),
    (28181, 0x19de89725356035a),
    (28002, 0xc69f0d36f62823ac),
    (660475, 0x263acb1fa9ee60bf),
    (27961, 0x373f9bfc85246cbd),
    (27762, 0x65a3f12293e19f99),
    (26319, 0x4999afb579f1ba68),
    (185115, 0xad34cf784f9e19e1),
    (190274, 0xa75dbe57f197876f),
    (226134, 0x67b370a49208c6c7),
    (220368, 0xb78ddf0dbbd7e1be),
    (190290, 0xf80d0b6b092c73f2),
    (187338, 0x570ee1f505c44607),
    (26735, 0xca802039fb8b26a2),
    (117179, 0x32ab9f0cd0d1abe5),
    (133389, 0x5ec6f102180deb8d),
    (113088, 0x770571890b3b0a66),
    (119336, 0xe0da60650f1b7927),
    (127538, 0xca36541ff18a0100),
    (127448, 0xed7687a384a943a3),
    (27599, 0x13e6314444aca86f),
    (59197, 0x020b2859d8a2fbf3),
    (151557, 0xf24d822dfb30b2df),
    (83787, 0x4cf128d70cab72d8),
    (131086, 0x80dfbe628399c6b4),
    (109320, 0x5f81331e0ecec68f),
    (50282, 0xbc6aadc449089596),
    (27964, 0xb84628e0b4d308c2),
    (84368, 0x02f05ba3f8cabfa1),
    (79022, 0x2468dbe54d856c7c),
    (58994, 0x4c9ce566d8bdb813),
    (115028, 0x0bdda83687209019),
    (82281, 0xa3d529951eab7071),
    (31234, 0xcba2b6bf208473d4),
    (28943, 0x1e9b0b061504cc65),
    (121093, 0xc1935bfd589dedfa),
    (111005, 0x699cff61f01475d0),
    (71485, 0x30457ab064a9f595),
    (67880, 0x63f5f269c3b6b374),
    (87992, 0xb3656564b84b3b7c),
    (36700, 0x9d9f51744278fcc6),
    (29097, 0x9a44af4fdfd56c15),
    (66290, 0xf1f78da48784f604),
    (140890, 0x5da8a1b0a7d3ad27),
    (106271, 0x0b2c2047db0a476c),
    (76946, 0x2f76f27e1b1e003c),
    (78049, 0xf2fa755520b31a4c),
    (43464, 0x638f499a844c59a6),
];

struct Point {
    config: ScenarioConfig,
    policy: PolicyKind,
    mode: AttachmentMode,
    seed: u64,
}

fn grid() -> Vec<Point> {
    let opts = RunOptions::quick();
    let mut points = Vec::with_capacity(CLIENT_COUNTS.len() * SERIES.len());
    for (pi, &c) in CLIENT_COUNTS.iter().enumerate() {
        for (si, &(policy, mode)) in SERIES.iter().enumerate() {
            points.push(Point {
                config: ScenarioConfig::fig16(c),
                policy,
                mode,
                // the fig16x experiment's per-point seed derivation
                seed: opts
                    .seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((pi as u64) << 8)
                    .wrapping_add(si as u64),
            });
        }
    }
    points
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// A bit-exact digest of one point's result row.
pub fn fingerprint(row: &MetricsRow) -> u64 {
    [
        row.comm_time.to_bits(),
        row.call_time.to_bits(),
        row.migration_time.to_bits(),
        row.control_time.to_bits(),
        row.transfer_load.to_bits(),
        row.call_p95.to_bits(),
        row.ci_half_width.unwrap_or(-1.0).to_bits(),
        row.denial_rate.to_bits(),
        row.mean_closure.to_bits(),
        row.calls,
    ]
    .iter()
    .fold(FNV_OFFSET, |h, v| fnv1a(h, &v.to_le_bytes()))
}

/// Compares each run point's `(events, fingerprint)` with the golden table.
pub fn check_points(golden: &[(u64, u64)], seen: &[(usize, u64, u64)]) -> Result<(), String> {
    let bad: Vec<String> = seen
        .iter()
        .filter(|&&(i, ev, fp)| golden.get(i) != Some(&(ev, fp)))
        .take(5)
        .map(|&(i, ev, fp)| {
            let expected = golden.get(i).map_or("no such point".to_owned(), |&(e, f)| {
                format!("events {e} fingerprint {f:016x}")
            });
            format!("point {i}: events {ev} fingerprint {fp:016x}, expected {expected}")
        })
        .collect();
    if seen.is_empty() {
        Err("no grid point completed".into())
    } else if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}

/// `op_p50_us` and `cpu_us_per_op` take each grid point's least time in an
/// untraced run (`u64::MAX` if it has none), so every point must have one.
pub fn check_every_point_timed(least_ns: &[u64]) -> Result<(), String> {
    let missing = least_ns.iter().filter(|&&ns| ns == u64::MAX).count();
    if missing == 0 {
        Ok(())
    } else {
        Err(format!("{missing} grid points have no untraced time"))
    }
}

struct Client {
    rng: Rng,
    order: Vec<usize>,
    next: usize,
    /// `(point, events, fingerprint)` of every point run.
    seen: Vec<(usize, u64, u64)>,
    /// The current pass: its points' summed wall ns, its events so far, and
    /// whether every
    /// point of it so far ran in the untraced measurement.
    pass: (u64, u64, bool),
    /// Events per second of each whole pass inside the untraced measurement.
    pass_rates: Vec<f64>,
    /// Each point's fastest untraced run and its least CPU time in an
    /// untraced run, in ns.
    fastest: Vec<u64>,
    least_cpu: Vec<u64>,
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let stopping = RunOptions::quick().stopping;
    // On a shared host this allocation-heavy set-up flips between a fast
    // state and one about 1.8 times slower, each lasting from tens of
    // milliseconds to several seconds, so the median of set-ups made in one stretch lands
    // on either state. Set-ups run in blocks: some before the load and one
    // in each pause between windows, spread over the whole run; the figure
    // is the fastest block's median.
    let setup_block = || {
        harness::setup_median(
            SETUPS_PER_BLOCK,
            || {
                for p in grid() {
                    black_box(build_scenario(
                        &p.config, p.policy, p.mode, stopping, p.seed,
                    ));
                }
            },
            drop,
        )
        .1
    };
    let mut block_medians: Vec<f64> = (0..SETUP_BLOCKS).map(|_| setup_block()).collect();
    let points = grid();
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|i| Client {
            rng: Rng::for_client(seed, i),
            order: Vec::new(),
            next: 0,
            seen: Vec::new(),
            pass: (0, 0, false),
            pass_rates: Vec::new(),
            fastest: vec![u64::MAX; GOLDEN.len()],
            least_cpu: vec![u64::MAX; GOLDEN.len()],
        })
        .collect();
    let mut between = || block_medians.push(setup_block());
    let load = harness::closed_loop(
        &mut clients,
        seconds,
        trace,
        || harness::cpu_seconds(&[]),
        Some(&mut between),
        |c, rec| {
            if c.next == c.order.len() {
                let (wall_ns, events, whole) = c.pass;
                if whole && rec.untraced() {
                    c.pass_rates.push(events as f64 * 1e9 / wall_ns as f64);
                }
                c.order = c.rng.permutation(points.len());
                c.next = 0;
                c.pass = (0, 0, rec.untraced());
            }
            let i = c.order[c.next];
            c.next += 1;
            let p = &points[i];
            let cpu_start = harness::thread_cpu_ns();
            let start = spans::now();
            let out = run_scenario(&p.config, p.policy, p.mode, stopping, p.seed);
            let wall = spans::now() - start;
            if rec.untraced() {
                c.fastest[i] = c.fastest[i].min(wall);
                if let (Some(a), Some(b)) = (cpu_start, harness::thread_cpu_ns()) {
                    c.least_cpu[i] = c.least_cpu[i].min(b - a);
                }
            }
            if rec.traced() {
                spans::record(Span {
                    kind: Kind::SimPoint,
                    group: i as u32,
                    start,
                    end: spans::now(),
                    aux: 0,
                });
            }
            rec.units(out.events);
            c.pass.0 += wall;
            c.pass.1 += out.events;
            c.pass.2 &= rec.untraced();
            c.seen
                .push((i, out.events, fingerprint(&MetricsRow::from(&out.metrics))));
            Ok(())
        },
    );
    let rss = harness::peak_rss_mib("self");
    let mut out = Outcome::default();
    out.check(
        "points_match_seed_commit",
        check_points(
            &GOLDEN,
            &clients
                .iter()
                .flat_map(|c| c.seen.iter().copied())
                .collect::<Vec<_>>(),
        ),
    );
    let u = &load.untraced;
    let measured = if trace { &load.traced } else { u };
    out.attempted = measured.attempted;
    out.failed = measured.failed;
    let setup_s = block_medians.iter().copied().fold(f64::INFINITY, f64::min);
    out.e2e("setup_s", setup_s);
    out.notes
        .push(format!(
            "setup_s is the lowest median of {} blocks of {SETUPS_PER_BLOCK} set-ups; the median block's median {} s",
            block_medians.len(),
            median(&block_medians)
        ));
    // An op of the simulator is one event for the rates and one grid
    // point for the latencies. Every pass runs the same 49 points, so whole
    // passes are repeated measurements of one amount of work; 1-s windows
    // would mix different points.
    // each client's whole-pass rate, summed over the clients
    let rates: Vec<f64> = clients.iter().map(|c| median(&c.pass_rates)).collect();
    let passes: usize = clients.iter().map(|c| c.pass_rates.len()).sum();
    let events_per_s = if passes < clients.len() {
        load.rate(true)
    } else {
        rates.iter().sum()
    };
    let point = u.lat(Lat::Op);
    let least = |f: fn(&Client) -> &Vec<u64>| -> Vec<u64> {
        (0..GOLDEN.len())
            .map(|i| clients.iter().map(|c| f(c)[i]).min().unwrap_or(u64::MAX))
            .collect()
    };
    let fastest = least(|c| &c.fastest);
    let least_cpu = least(|c| &c.least_cpu);
    out.check("every_point_timed", check_every_point_timed(&fastest));
    out.check("every_point_cpu_timed", check_every_point_timed(&least_cpu));
    // a point is a fixed computation: the host's slow spells lengthen some
    // of its runs and shorten none, so its fastest run is its steadiest
    // figure
    let fastest_us: Vec<f64> = fastest.iter().map(|&ns| ns as f64 / 1e3).collect();
    out.e2e("op_p50_us", median(&fastest_us));
    // per event: the median over the grid of each point's least CPU time
    // per event, for the same reason as its fastest run above
    let cpu_per_event: Vec<f64> = least_cpu
        .iter()
        .zip(&GOLDEN)
        .map(|(&ns, &(events, _))| ns as f64 / 1e3 / events as f64)
        .collect();
    out.e2e("cpu_us_per_op", median(&cpu_per_event));
    let cpu: f64 = load.windows.iter().map(|w| w.cpu_seconds).sum();
    out.notes.push(format!(
        "cpu us per event over the whole untraced measurement: {}",
        ratio(cpu * 1e6, u.units as f64)
    ));
    out.e2e("peak_rss_mb", rss);
    out.notes.push(format!(
        "events_per_s {events_per_s} events/s (per-client medians over {} whole passes, summed), p50 of all untraced points {} us, op_p99_us {} us; {} points ({} events) untraced in {:.3} s",
        passes,
        point.quantile_us(0.5).map_or("n/a".to_owned(), |v| v.to_string()),
        point.quantile_us(0.99).map_or("n/a (too few samples)".to_owned(), |v| v.to_string()),
        u.attempted,
        u.units,
        u.seconds
    ));
    if trace {
        let (spans, _) = spans::take_all();
        let walls: Vec<f64> = spans
            .iter()
            .filter(|s| s.kind == Kind::SimPoint)
            .map(|s| s.dur() as f64 / 1e9)
            .collect();
        let t = &load.traced;
        out.layer(
            "sim.point_wall_s.p50",
            t.lat(Lat::Op).quantile_us(0.5).unwrap_or(0.0) / 1e6,
        );
        out.layer(
            "sim.point_wall_s.max",
            walls.iter().copied().fold(0.0, f64::max),
        );
        out.layer(
            "sim.events_per_point",
            ratio(t.units as f64, t.attempted as f64),
        );
        out.layer(
            "trace.overhead_frac",
            1.0 - ratio(
                ratio(t.units as f64, t.seconds),
                ratio(u.units as f64, u.seconds),
            ),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_check_rejects_a_changed_result() {
        let golden = [(10, 0xaa), (20, 0xbb)];
        assert!(check_points(&golden, &[(1, 20, 0xbb), (0, 10, 0xaa)]).is_ok());
        assert!(check_points(&golden, &[(1, 21, 0xbb)]).is_err());
        assert!(check_points(&golden, &[(0, 10, 0xab)]).is_err());
        assert!(check_points(&golden, &[(2, 10, 0xaa)]).is_err());
        assert!(check_points(&golden, &[]).is_err());
    }

    #[test]
    fn every_point_needs_an_untraced_run() {
        assert!(check_every_point_timed(&[5, 7]).is_ok());
        assert!(check_every_point_timed(&[5, u64::MAX]).is_err());
    }

    #[test]
    fn fingerprint_sees_every_field() {
        let row = MetricsRow {
            comm_time: 1.0,
            call_time: 0.5,
            migration_time: 0.25,
            control_time: 0.25,
            ci_half_width: Some(0.01),
            calls: 100,
            denial_rate: 0.1,
            mean_closure: 2.0,
            transfer_load: 0.3,
            call_p95: 1.5,
        };
        let mut other = row.clone();
        other.calls += 1;
        assert_ne!(fingerprint(&row), fingerprint(&other));
        other = row.clone();
        other.mean_closure = 2.5;
        assert_ne!(fingerprint(&row), fingerprint(&other));
    }
}
