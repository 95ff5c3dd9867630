//! The in-process workloads, `invoke_mesh` and `move_closure`: a 4-node
//! `Cluster` over the channel mesh with the failure detector and 2-way
//! checkpoint replication on (the production configuration).

use crate::harness::{self, Lat, Load};
use crate::object::{self, BenchObj};
use crate::policy::{Groups, TimedPolicy};
use crate::replay;
use crate::report::{ratio, Outcome};
use crate::rng::{Rng, Zipf};
use crate::spans::{self, Kind, Span};
use oml_core::attach::AttachmentMode;
use oml_core::ids::{AllianceId, NodeId, ObjectId};
use oml_runtime::{Cluster, ClusterStats, RuntimeError};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const NODES: u32 = 4;
const CLIENTS: u64 = 2;
/// Set-ups per run, whose median is `setup_s` (about 2 s of set-ups in
/// either workload).
const MESH_SETUPS: usize = 81;
const CLOSURE_SETUPS: usize = 201;

const MESH_OBJECTS: u32 = 1024;
const MESH_STATE: usize = 256;
const MESH_PUT_PERCENT: u64 = 20;

const ALLIANCES: u32 = 64;
const MEMBERS_EVEN: u32 = 7;
const CLOSURE_STATE: usize = 4096;
const INVOKES_PER_BLOCK: u32 = 4;
/// Zipf exponent of alliance popularity: hot roots see both clients, so
/// some moves are denied.
const ALLIANCE_SKEW: f64 = 1.0;
/// Moves logged for the closure replay.
const MAX_LOGGED_MOVES: usize = 50_000;

/// A built cluster and its objects, grouped: group `g` is
/// `objects[g]`, whose first entry is the object moves name.
struct World {
    cluster: Cluster,
    groups: Vec<Vec<ObjectId>>,
    alliances: Vec<Option<AllianceId>>,
    /// `(member, root, alliance index)` attach calls, for the mirror graph.
    attaches: Vec<(ObjectId, ObjectId, usize)>,
}

fn build_cluster(mode: AttachmentMode, groups: Groups) -> Cluster {
    let cluster = Cluster::builder()
        .nodes(NODES)
        .failure_detector(50, 6)
        .replication(2)
        .attachment_mode(mode)
        .policy_custom(TimedPolicy::new(groups))
        .build();
    cluster.register_type(object::TYPE_TAG, object::delinearize);
    cluster
}

fn publish_groups(handle: &Groups, groups: &[Vec<ObjectId>]) {
    let max = groups
        .iter()
        .flatten()
        .map(|o| o.as_u32())
        .max()
        .unwrap_or(0);
    let mut map = vec![spans::NO_GROUP; max as usize + 1];
    for (g, members) in groups.iter().enumerate() {
        for o in members {
            map[o.as_u32() as usize] = g as u32;
        }
    }
    handle.set(map).expect("groups published once per cluster");
}

fn build_mesh_world() -> World {
    let handle = Groups::default();
    let cluster = build_cluster(AttachmentMode::Unrestricted, handle.clone());
    let groups: Vec<Vec<ObjectId>> = (0..MESH_OBJECTS)
        .map(|i| {
            let obj = BenchObj::new(i, MESH_STATE);
            vec![cluster
                .create(NodeId::new(i % NODES), Box::new(obj))
                .expect("create object")]
        })
        .collect();
    publish_groups(&handle, &groups);
    World {
        cluster,
        alliances: vec![None; groups.len()],
        groups,
        attaches: Vec::new(),
    }
}

fn build_closure_world() -> World {
    let handle = Groups::default();
    let cluster = build_cluster(AttachmentMode::ATransitive, handle.clone());
    let mut groups = Vec::new();
    let mut alliances = Vec::new();
    let mut attaches = Vec::new();
    for a in 0..ALLIANCES {
        let node = NodeId::new(a % NODES);
        let alliance = cluster.create_alliance(&format!("alliance-{a}"));
        let size = if a % 2 == 0 { 1 + MEMBERS_EVEN } else { 1 };
        let members: Vec<ObjectId> = (0..size)
            .map(|_| {
                let o = cluster
                    .create(node, Box::new(BenchObj::new(a, CLOSURE_STATE)))
                    .expect("create object");
                cluster.join_alliance(alliance, o).expect("join alliance");
                o
            })
            .collect();
        for &m in &members[1..] {
            cluster
                .attach(m, members[0], Some(alliance))
                .expect("attach member to root");
            attaches.push((m, members[0], a as usize));
        }
        groups.push(members);
        alliances.push(Some(alliance));
    }
    publish_groups(&handle, &groups);
    World {
        cluster,
        groups,
        alliances,
        attaches,
    }
}

/// Per-client load state: its op stream and its shadow of the writes.
struct Client {
    rng: Rng,
    /// Per group member: sum of acknowledged `put` deltas.
    acked: HashMap<ObjectId, u64>,
    /// Per object: sum of `put` deltas whose outcome is unknown (failed).
    unsure: HashMap<ObjectId, u64>,
    invokes_acked: u64,
    invokes_failed: u64,
    ops: u64,
    moves_granted_logged: Vec<(ObjectId, usize)>,
}

impl Client {
    fn new(seed: u64, i: u64) -> Client {
        Client {
            rng: Rng::for_client(seed, i),
            acked: HashMap::new(),
            unsure: HashMap::new(),
            invokes_acked: 0,
            invokes_failed: 0,
            ops: 0,
            moves_granted_logged: Vec::new(),
        }
    }

    fn count_invoke(
        &mut self,
        object: ObjectId,
        delta: u64,
        r: Result<(), RuntimeError>,
    ) -> Result<(), RuntimeError> {
        let into = if r.is_ok() {
            self.invokes_acked += 1;
            &mut self.acked
        } else {
            self.invokes_failed += 1;
            &mut self.unsure
        };
        *into.entry(object).or_default() += delta;
        r
    }
}

/// One drawn op: its group, the node a move-block moves the group's root
/// to (none in `invoke_mesh`), and its invocations as `(member index, put
/// delta)`, a delta of 0 being a `get`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    group: usize,
    move_to: Option<u32>,
    invokes: Vec<(usize, u64)>,
}

/// Draws a client's next op; `sizes[g]` is group `g`'s object count.
fn draw(rng: &mut Rng, closure: bool, popularity: &Zipf, sizes: &[usize]) -> Op {
    if !closure {
        let group = rng.below(sizes.len() as u64) as usize;
        let delta = if rng.percent(MESH_PUT_PERCENT) {
            1 + rng.below(255)
        } else {
            0
        };
        return Op {
            group,
            move_to: None,
            invokes: vec![(0, delta)],
        };
    }
    // popularity rank r is alliance r: closures of 8 and of 1 alternate
    // down the ranks, so every seed draws the same mix of sizes
    let group = popularity.sample(rng);
    let move_to = Some(rng.below(u64::from(NODES)) as u32);
    let invokes = (0..INVOKES_PER_BLOCK)
        .map(|_| (rng.below(sizes[group] as u64) as usize, 1 + rng.below(255)))
        .collect();
    Op {
        group,
        move_to,
        invokes,
    }
}

/// Checks that every object's counter is at least its acknowledged writes
/// and at most those plus the writes whose outcome is unknown.
pub fn check_counters(expected: &[(u64, u64)], observed: &[Option<u64>]) -> Result<(), String> {
    if expected.len() != observed.len() {
        return Err(format!(
            "{} objects read, {} expected",
            observed.len(),
            expected.len()
        ));
    }
    let bad: Vec<String> = expected
        .iter()
        .zip(observed)
        .enumerate()
        .filter(|(_, (&(lo, hi), got))| !got.is_some_and(|v| lo <= v && v <= hi))
        .take(5)
        .map(|(i, ((lo, hi), got))| format!("object #{i}: {got:?} not in [{lo}, {hi}]"))
        .collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}

/// Checks a quiesced placement: every object exactly once, nothing else.
pub fn check_placement(
    objects: &[ObjectId],
    placement: &[(ObjectId, NodeId)],
) -> Result<(), String> {
    let mut seen: HashMap<ObjectId, u32> = HashMap::new();
    for (o, _) in placement {
        *seen.entry(*o).or_default() += 1;
    }
    if let Some((o, n)) = seen.iter().find(|(_, &n)| n != 1) {
        return Err(format!("{o} placed {n} times"));
    }
    if let Some(o) = objects.iter().find(|o| !seen.contains_key(o)) {
        return Err(format!("{o} has no placement"));
    }
    if seen.len() != objects.len() {
        return Err(format!("{} placed, {} created", seen.len(), objects.len()));
    }
    Ok(())
}

/// Checks that the runtime executed exactly the acknowledged invocations,
/// plus at most a retried execution for each failed one.
pub fn check_invocations(
    executed: u64,
    acked: u64,
    failed: u64,
    retries: u64,
) -> Result<(), String> {
    let most = acked + failed * (retries + 1);
    if (acked..=most).contains(&executed) {
        Ok(())
    } else {
        Err(format!(
            "{executed} invocations executed, {acked} acknowledged (+{failed} failed)"
        ))
    }
}

fn delta(a: &ClusterStats, b: &ClusterStats) -> ClusterStats {
    ClusterStats {
        invocations: b.invocations - a.invocations,
        moves_granted: b.moves_granted - a.moves_granted,
        moves_denied: b.moves_denied - a.moves_denied,
        objects_migrated: b.objects_migrated - a.objects_migrated,
        forwards: b.forwards - a.forwards,
        timeouts: b.timeouts - a.timeouts,
        retries: b.retries - a.retries,
        leases_expired: b.leases_expired - a.leases_expired,
        suspicions: b.suspicions - a.suspicions,
        false_suspicions: b.false_suspicions - a.false_suspicions,
        reinstantiations: b.reinstantiations - a.reinstantiations,
        fenced_stale: b.fenced_stale - a.fenced_stale,
        breaker_opens: b.breaker_opens - a.breaker_opens,
        checkpoint_refreshes: b.checkpoint_refreshes - a.checkpoint_refreshes,
        quorum_refreshes: b.quorum_refreshes - a.quorum_refreshes,
        quorum_refresh_failures: b.quorum_refresh_failures - a.quorum_refresh_failures,
        repairs: b.repairs - a.repairs,
    }
}

pub fn invoke_mesh(seed: u64, seconds: f64, trace: bool) -> Outcome {
    run(false, seed, seconds, trace)
}

pub fn move_closure(seed: u64, seconds: f64, trace: bool) -> Outcome {
    run(true, seed, seconds, trace)
}

fn run(closure: bool, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (build, reps): (fn() -> World, _) = if closure {
        (build_closure_world, CLOSURE_SETUPS)
    } else {
        (build_mesh_world, MESH_SETUPS)
    };
    let (world, setup_s) = harness::setup_median(reps, build, |w| w.cluster.shutdown());
    let World {
        cluster,
        groups,
        alliances,
        attaches,
    } = world;
    let popularity = Zipf::new(groups.len(), ALLIANCE_SKEW);
    let mut clients: Vec<Client> = (0..CLIENTS).map(|i| Client::new(seed, i)).collect();

    let before = cluster.stats();
    let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
    let load = harness::closed_loop(
        &mut clients,
        seconds,
        trace,
        || harness::cpu_seconds(&[]),
        None,
        |c, rec| {
            c.ops += 1;
            let op = draw(&mut c.rng, closure, &popularity, &sizes);
            let g = op.group;
            let guard = match op.move_to {
                Some(to) => Some(rec.call(Lat::Move, Kind::ClientMove, g as u32, || {
                    cluster.move_block_in(groups[g][0], NodeId::new(to), alliances[g])
                })?),
                None => None,
            };
            if guard.as_ref().is_some_and(|gd| gd.granted())
                && rec.traced()
                && c.moves_granted_logged.len() < MAX_LOGGED_MOVES
            {
                c.moves_granted_logged.push((groups[g][0], g));
            }
            let mut result = Ok(());
            for (member, delta) in op.invokes {
                let object = groups[g][member];
                let payload = object::put_payload(delta);
                let (method, payload) = if delta > 0 {
                    ("put", &payload[..])
                } else {
                    ("get", &[][..])
                };
                let r = rec.call(Lat::Invoke, Kind::ClientInvoke, g as u32, || {
                    cluster.invoke(object, method, payload)
                });
                result = result.and(c.count_invoke(object, delta, r.map(|_| ())));
            }
            if let Some(guard) = guard {
                result =
                    result.and(rec.call(Lat::End, Kind::ClientEnd, g as u32, || guard.try_end()));
            }
            result
        },
    );

    let mut out = Outcome::default();
    // quiesce: end-requests are one-way, so wait for their locks to go
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cluster.held_locks().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = delta(&before, &cluster.stats());
    let all: Vec<ObjectId> = groups.iter().flatten().copied().collect();
    let acked: u64 = clients.iter().map(|c| c.invokes_acked).sum();
    let failed: u64 = clients.iter().map(|c| c.invokes_failed).sum();
    out.check(
        "invocations_match_acknowledged",
        check_invocations(stats.invocations, acked, failed, 2),
    );
    if closure {
        out.check(
            "placement_holds_each_object_once",
            check_placement(&all, &cluster.placement_snapshot()),
        );
        let locks = cluster.held_locks();
        out.check(
            "no_locks_held_at_quiesce",
            if locks.is_empty() {
                Ok(())
            } else {
                Err(format!("{} locks held: {locks:?}", locks.len()))
            },
        );
    }
    let expected: Vec<(u64, u64)> = all
        .iter()
        .map(|o| {
            let lo: u64 = clients
                .iter()
                .map(|c| c.acked.get(o).copied().unwrap_or(0))
                .sum();
            let unsure: u64 = clients
                .iter()
                .map(|c| c.unsure.get(o).copied().unwrap_or(0))
                .sum();
            (lo, lo + unsure)
        })
        .collect();
    let observed: Vec<Option<u64>> = all
        .iter()
        .map(|&o| {
            cluster
                .invoke(o, "get", &[])
                .ok()
                .and_then(|r| object::read_counter(&r))
        })
        .collect();
    out.check(
        "counters_match_acknowledged_puts",
        check_counters(&expected, &observed),
    );
    let rss = harness::peak_rss_mib("self");
    cluster.shutdown();

    let ops_all: u64 = clients.iter().map(|c| c.ops).sum();
    fill_common(&mut out, &load, (setup_s, reps), rss, trace);
    if trace {
        let logged: Vec<(ObjectId, usize)> = clients
            .iter()
            .flat_map(|c| c.moves_granted_logged.iter().copied())
            .collect();
        layers(
            &mut out,
            &load,
            &stats,
            ops_all,
            closure,
            &attaches,
            alliances.len(),
            &logged,
        );
    }
    out.notes.push(format!(
        "cluster: {} invocations, {} moves granted, {} denied, {} objects shipped, {} forwards, {} checkpoint refreshes, {} timeouts",
        stats.invocations,
        stats.moves_granted,
        stats.moves_denied,
        stats.objects_migrated,
        stats.forwards,
        stats.checkpoint_refreshes,
        stats.timeouts
    ));
    out
}

/// End-to-end metrics and the per-call latency notes every runtime
/// workload shares.
pub fn fill_common(out: &mut Outcome, load: &Load, setup: (f64, usize), rss: f64, trace: bool) {
    let measured = if trace { &load.traced } else { &load.untraced };
    let u = &load.untraced;
    out.attempted = measured.attempted;
    out.failed = measured.failed;
    out.errors = measured.errors.clone();
    out.e2e("setup_s", setup.0);
    out.notes
        .push(format!("setup_s is the median of {} set-ups", setup.1));
    let op_p50 = load.op_quantile_us(0.5);
    out.check(
        "every_window_has_a_p50",
        op_p50.map(|_| ()).ok_or_else(|| {
            format!(
                "an untraced window has too few ops for a p50 ({} windows)",
                load.windows.len()
            )
        }),
    );
    out.e2e("op_p50_us", op_p50.unwrap_or(0.0));
    out.e2e("cpu_us_per_op", load.cpu_us_per_op());
    out.e2e("peak_rss_mb", rss);
    out.notes.push(format!(
        "ops_per_s {} ops/s, op_p99_us {} us (medians over {} untraced windows)",
        load.rate(false),
        load.op_quantile_us(0.99)
            .map_or("n/a (too few samples)".to_owned(), |v| v.to_string()),
        load.windows.len()
    ));
    for (name, lat) in [
        ("op", Lat::Op),
        ("invoke", Lat::Invoke),
        ("move", Lat::Move),
        ("end", Lat::End),
    ] {
        let h = u.lat(lat);
        if h.count() == 0 {
            continue;
        }
        let fmt = |q| {
            h.quantile_us(q)
                .map_or("n/a (too few samples)".to_owned(), |v| format!("{v}"))
        };
        out.notes.push(format!(
            "{name}_p50_us {} us, {name}_p99_us {} us ({} samples, untraced)",
            fmt(0.5),
            fmt(0.99),
            h.count()
        ));
    }
    let rates: Vec<String> = load
        .windows
        .iter()
        .map(|w| format!("{:.0}", w.ok as f64 / w.seconds))
        .collect();
    out.notes
        .push(format!("untraced window ops/s: {}", rates.join(" ")));
    let p50s: Vec<String> = load
        .windows
        .iter()
        .map(|w| {
            w.op.quantile_us(0.5)
                .map_or("-".to_owned(), |v| format!("{v:.0}"))
        })
        .collect();
    out.notes
        .push(format!("untraced window op p50 us: {}", p50s.join(" ")));
    let cpu: Vec<String> = load
        .window_cpu_us_per_op()
        .iter()
        .map(|v| format!("{v:.1}"))
        .collect();
    out.notes
        .push(format!("untraced window cpu us/op: {}", cpu.join(" ")));
    out.notes.push(format!(
        "untraced: {} ops in {:.3} s; traced: {} ops in {:.3} s",
        u.attempted, u.seconds, load.traced.attempted, load.traced.seconds
    ));
}

/// Aggregates of the traced phase's spans shared by the runtime workloads.
pub struct SpanSums {
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanSums {
    pub fn take() -> SpanSums {
        let (spans, dropped) = spans::take_all();
        SpanSums { spans, dropped }
    }

    /// (count, summed ns, summed aux) of spans matching `pred`.
    pub fn sum(&self, pred: impl Fn(Kind) -> bool) -> (u64, u64, u64) {
        self.spans
            .iter()
            .filter(|s| pred(s.kind))
            .fold((0, 0, 0), |(n, d, a), s| {
                (n + 1, d + s.dur(), a + u64::from(s.aux))
            })
    }
}

/// Client-layer and paper-view metrics from the traced phase's client
/// spans and their attributed children.
pub fn client_layers(out: &mut Outcome, load: &Load, sums: &SpanSums) {
    let t = &load.traced;
    for (name, lat) in [
        ("client.invoke.p50_us", Lat::Invoke),
        ("client.move.p50_us", Lat::Move),
        ("client.end.p50_us", Lat::End),
    ] {
        out.layer(name, t.lat(lat).quantile_us(0.5).unwrap_or(0.0));
    }
    let attribution = spans::attribute(&sums.spans);
    let (mut n, mut self_ns) = (0u64, 0u64);
    for (cnt, _, own) in attribution.client.values() {
        n += cnt;
        self_ns += own;
    }
    out.layer("client.residual_us", ratio(self_ns as f64 / 1e3, n as f64));
    let total = (attribution.attributed + attribution.unattributed) as f64;
    out.layer(
        "trace.unattributed_frac",
        ratio(attribution.unattributed as f64, total),
    );
    out.check(
        "trace_children_within_client_spans",
        if attribution.consistent {
            Ok(())
        } else {
            Err("an attributed child exceeds its client span".into())
        },
    );
    let invokes = t.lat(Lat::Invoke).count() as f64;
    out.layer("paper.call_us", ratio(t.lat(Lat::Invoke).sum_us(), invokes));
    out.layer(
        "paper.migration_us",
        ratio(t.lat(Lat::Move).sum_us(), invokes),
    );
    out.layer("paper.control_us", ratio(t.lat(Lat::End).sum_us(), invokes));
    out.layer(
        "trace.overhead_frac",
        1.0 - ratio(
            ratio(t.ok_ops() as f64, t.seconds),
            ratio(load.untraced.ok_ops() as f64, load.untraced.seconds),
        ),
    );
    if sums.dropped > 0 {
        out.notes.push(format!(
            "trace: {} spans dropped at the in-memory cap",
            sums.dropped
        ));
    }
}

/// Object-layer metrics from `(count, summed ns, summed aux)` per span
/// kind, over `ops` ops.
pub fn object_layers(out: &mut Outcome, sum: impl Fn(Kind) -> (u64, u64, u64), ops: f64) {
    let mean = |k| {
        let (n, ns, _) = sum(k);
        ratio(ns as f64 / 1e3, n as f64)
    };
    out.layer("object.invoke_us", mean(Kind::ObjInvoke));
    out.layer("object.linearize_us", mean(Kind::ObjLinearize));
    out.layer("object.delinearize_us", mean(Kind::ObjDelinearize));
    let (_, _, bytes) = sum(Kind::ObjLinearize);
    out.layer("object.bytes_linearized_per_op", ratio(bytes as f64, ops));
}

#[allow(clippy::too_many_arguments)]
fn layers(
    out: &mut Outcome,
    load: &Load,
    stats: &ClusterStats,
    ops_all: u64,
    closure: bool,
    attaches: &[(ObjectId, ObjectId, usize)],
    alliances: usize,
    logged_moves: &[(ObjectId, usize)],
) {
    let sums = SpanSums::take();
    let traced_ops = load.traced.attempted as f64;
    let ops = ops_all as f64;
    client_layers(out, load, &sums);
    object_layers(out, |k| sums.sum(|x| x == k), traced_ops);
    out.layer("client.timeouts", stats.timeouts as f64);
    out.layer("client.retries", stats.retries as f64);
    // mesh messages: invoke requests and their forwards, move requests,
    // installs, end-requests, and a put plus an ack per remote replica of
    // each checkpoint refresh (k = 2: at most one replica is the host)
    let ends = if closure { ops } else { 0.0 };
    let hops = stats.invocations as f64
        + stats.forwards as f64
        + (stats.moves_granted + stats.moves_denied) as f64
        + stats.objects_migrated as f64
        + ends
        + 2.0 * stats.checkpoint_refreshes as f64;
    out.layer("mesh.hops_per_op", ratio(hops, ops));
    let traced_hops = (ratio(hops, ops) * traced_ops) as u64;
    let state = if closure { CLOSURE_STATE } else { MESH_STATE };
    out.layer("mesh.hop_us", replay::mesh_hop(traced_hops, state));
    out.layer(
        "node.objects_shipped_per_move",
        ratio(stats.objects_migrated as f64, stats.moves_granted as f64),
    );
    out.layer("node.forwards_per_op", ratio(stats.forwards as f64, ops));
    let (calls, busy_ns, _) = sums.sum(Kind::is_policy);
    out.layer(
        "policy.busy_us_per_op",
        ratio(busy_ns as f64 / 1e3, traced_ops),
    );
    out.layer("policy.calls_per_op", ratio(calls as f64, traced_ops));
    let (decisions, _, grants) = sums.sum(|k| k == Kind::PolicyMove);
    out.layer("policy.grant_ratio", ratio(grants as f64, decisions as f64));
    let (closure_us, closure_size) = replay::attach_closure(attaches, alliances, logged_moves);
    out.layer("attach.closure_us", closure_us);
    out.layer("attach.closure_size_mean", closure_size);
    out.layer(
        "recovery.refreshes_per_op",
        ratio(stats.checkpoint_refreshes as f64, ops),
    );
    out.layer(
        "recovery.quorum_ratio",
        ratio(
            stats.quorum_refreshes as f64,
            stats.checkpoint_refreshes as f64,
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops() {
        let popularity = Zipf::new(ALLIANCES as usize, ALLIANCE_SKEW);
        let sizes: Vec<usize> = (0..ALLIANCES)
            .map(|a| if a % 2 == 0 { 8 } else { 1 })
            .collect();
        for closure in [false, true] {
            let ops = |seed| {
                let mut rng = Rng::for_client(seed, 1);
                (0..1000)
                    .map(|_| draw(&mut rng, closure, &popularity, &sizes))
                    .collect::<Vec<_>>()
            };
            assert_eq!(ops(42), ops(42));
            assert_ne!(ops(42), ops(43));
            assert!(ops(42)
                .iter()
                .all(|op| op.invokes.iter().all(|&(m, _)| m < sizes[op.group])));
        }
    }

    #[test]
    fn counter_check_rejects_a_lost_or_invented_write() {
        let expected = [(5, 5), (3, 10)];
        assert!(check_counters(&expected, &[Some(5), Some(7)]).is_ok());
        assert!(check_counters(&expected, &[Some(4), Some(7)]).is_err());
        assert!(check_counters(&expected, &[Some(5), Some(11)]).is_err());
        assert!(check_counters(&expected, &[Some(5), None]).is_err());
        assert!(check_counters(&expected, &[Some(5)]).is_err());
    }

    #[test]
    fn placement_check_rejects_duplicates_and_losses() {
        let o = |i| ObjectId::new(i);
        let n = |i| NodeId::new(i);
        let objects = [o(0), o(1)];
        assert!(check_placement(&objects, &[(o(0), n(0)), (o(1), n(2))]).is_ok());
        assert!(check_placement(&objects, &[(o(0), n(0)), (o(0), n(1)), (o(1), n(2))]).is_err());
        assert!(check_placement(&objects, &[(o(0), n(0))]).is_err());
        assert!(check_placement(&objects, &[(o(0), n(0)), (o(1), n(1)), (o(2), n(1))]).is_err());
    }

    #[test]
    fn invocation_check_allows_only_retried_failures() {
        assert!(check_invocations(10, 10, 0, 2).is_ok());
        assert!(check_invocations(9, 10, 0, 2).is_err());
        assert!(check_invocations(11, 10, 0, 2).is_err());
        assert!(check_invocations(13, 10, 1, 2).is_ok());
        assert!(check_invocations(14, 10, 1, 2).is_err());
    }
}
