//! Deterministic, seeded fault injection for the threads-and-channels
//! runtime.
//!
//! A [`FaultPlan`] describes which message faults to inject — drops, delays,
//! duplicates, node-pair partitions, plus a dedicated knob for losing
//! `end`-requests (the paper's placement locks are released by end-requests,
//! so losing them is *the* interesting failure for lease recovery). The
//! plan is installed through `ClusterBuilder::faults`.
//!
//! # Fault model
//!
//! * **Control messages** — invocations, move-requests and end-requests —
//!   are subject to every configured fault, whichever link they travel
//!   (client → node or node → node for forwarded traffic).
//! * **State transfer** — `Create`, `Install` and `Surrender` — is always
//!   reliable, modelling a retransmitting bulk channel: dropping a
//!   linearized object would not be a *message* fault but data loss, which
//!   is out of scope (the paper assumes objects survive migration).
//! * **Partitions** sever node pairs for control traffic in both
//!   directions; the client is not a partitionable endpoint.
//!
//! # Determinism
//!
//! Every decision is a pure hash of `(seed, from, to, link sequence
//! number)`: link counters are incremented under a lock at send time, so a
//! sequential caller produces an identical fault schedule — and an identical
//! [`FaultInjector::trace`] — on every run with the same seed.

use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::fmt;

use oml_core::ids::NodeId;

/// The virtual "node id" used for messages originating at the client facade
/// (which is not a cluster node but still owns lossy links to every node).
pub(crate) const CLIENT: u32 = u32::MAX;

/// A seeded description of the faults to inject into a cluster.
///
/// The default plan (any seed, all probabilities zero) injects nothing.
///
/// # Example
///
/// ```
/// use oml_runtime::FaultPlan;
///
/// let plan = FaultPlan::seeded(42)
///     .drop_probability(0.05)
///     .delay_probability(0.2, 10)
///     .duplicate_probability(0.05)
///     .drop_end_requests(0.25);
/// assert_eq!(plan.seed(), 42);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop: f64,
    duplicate: f64,
    delay: f64,
    max_delay_ms: u64,
    drop_end_requests: f64,
    checkpoint_drop: f64,
    checkpoint_duplicate: f64,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            max_delay_ms: 0,
            drop_end_requests: 0.0,
            checkpoint_drop: 0.0,
            checkpoint_duplicate: 0.0,
        }
    }

    /// The plan's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn check(p: f64, what: &str) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "{what} probability {p} outside [0, 1]"
        );
        p
    }

    /// Probability that a control message is silently dropped.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1]`.
    #[must_use]
    pub fn drop_probability(mut self, p: f64) -> Self {
        self.drop = Self::check(p, "drop");
        self
    }

    /// Probability that a control message is delivered twice.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1]`.
    #[must_use]
    pub fn duplicate_probability(mut self, p: f64) -> Self {
        self.duplicate = Self::check(p, "duplicate");
        self
    }

    /// Probability that a control message is delayed, and the maximum delay
    /// in milliseconds (the actual delay is hash-uniform in
    /// `1..=max_delay_ms`).
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1]`, or if `p > 0` with a zero maximum.
    #[must_use]
    pub fn delay_probability(mut self, p: f64, max_delay_ms: u64) -> Self {
        self.delay = Self::check(p, "delay");
        assert!(
            p == 0.0 || max_delay_ms > 0,
            "delaying with a zero maximum delay is a no-op"
        );
        self.max_delay_ms = max_delay_ms;
        self
    }

    /// Probability that an `end`-request (specifically) is dropped —
    /// overriding the generic drop probability for end-requests. This is the
    /// knob that exercises lease recovery: a lost end-request leaves its
    /// placement lock held until the lease expires.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1]`.
    #[must_use]
    pub fn drop_end_requests(mut self, p: f64) -> Self {
        self.drop_end_requests = Self::check(p, "end-request drop");
        self
    }

    /// Probabilities that replica traffic (`CheckpointPut` and
    /// `CheckpointAck`) is dropped or duplicated. Checkpoint faults use their
    /// own decision stream so enabling them never perturbs the control-
    /// message fault schedule of an existing seed, and they are never
    /// delayed (a late refresh is just a fresh-enough refresh).
    ///
    /// # Panics
    ///
    /// Panics unless both probabilities are in `[0, 1]`.
    #[must_use]
    pub fn checkpoint_faults(mut self, drop_p: f64, duplicate_p: f64) -> Self {
        self.checkpoint_drop = Self::check(drop_p, "checkpoint drop");
        self.checkpoint_duplicate = Self::check(duplicate_p, "checkpoint duplicate");
        self
    }

    fn is_noop(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.delay == 0.0
            && self.drop_end_requests == 0.0
    }
}

/// Which nodes a correlated-failure schedule kills in one sweep — the
/// durability experiment's independent variable alongside the replication
/// factor `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailurePattern {
    /// Crash only the object's current host.
    SingleNode,
    /// Crash the object's host and its home node in the same detector sweep
    /// — the double-crash that defeats a single home-node checkpoint.
    HostAndHome,
    /// Crash every member of the object's replica set except one, plus the
    /// host if it lies outside the set — the worst correlated loss `k = f+1`
    /// is designed to survive.
    ReplicaSetMinusOne,
}

impl FailurePattern {
    /// Short label for tables and CSV output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FailurePattern::SingleNode => "single-node",
            FailurePattern::HostAndHome => "host+home",
            FailurePattern::ReplicaSetMinusOne => "replica-set-minus-one",
        }
    }
}

impl std::fmt::Display for FailurePattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What the injector decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Delivery {
    /// Deliver `copies` copies (1 normally, 2 when duplicated), after
    /// `delay_ms` milliseconds (0 = immediately).
    Deliver { copies: u8, delay_ms: u64 },
    /// The message is lost.
    Drop,
}

/// The per-cluster fault decision engine. All state is internally
/// synchronized; workers and the client facade share one injector.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    /// Per-(from, to) link sequence counters.
    seqs: Mutex<HashMap<(u32, u32), u64>>,
    /// Separate link counters for checkpoint traffic — refresh fan-out is
    /// timing-dependent (lease sweeps), so it must not consume control-
    /// message sequence numbers or the control fault schedule would stop
    /// being reproducible per seed.
    ckpt_seqs: Mutex<HashMap<(u32, u32), u64>>,
    /// Severed node pairs, stored normalized (low, high).
    partitions: Mutex<HashSet<(u32, u32)>>,
    /// Human-readable fault events, in decision order.
    trace: Mutex<Vec<String>>,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            seqs: Mutex::new(HashMap::new()),
            ckpt_seqs: Mutex::new(HashMap::new()),
            partitions: Mutex::new(HashSet::new()),
            trace: Mutex::new(Vec::new()),
        }
    }

    fn normalize(a: NodeId, b: NodeId) -> (u32, u32) {
        let (a, b) = (a.as_u32(), b.as_u32());
        (a.min(b), a.max(b))
    }

    pub(crate) fn partition(&self, a: NodeId, b: NodeId) {
        self.partitions.lock().insert(Self::normalize(a, b));
        self.note(format!("partition {a}<->{b}"));
    }

    pub(crate) fn heal(&self, a: NodeId, b: NodeId) {
        if self.partitions.lock().remove(&Self::normalize(a, b)) {
            self.note(format!("heal {a}<->{b}"));
        }
    }

    pub(crate) fn heal_all(&self) {
        let mut parts = self.partitions.lock();
        if !parts.is_empty() {
            parts.clear();
            self.note("heal all".to_owned());
        }
    }

    pub(crate) fn is_partitioned(&self, from: u32, to: u32) -> bool {
        if from == CLIENT {
            return false;
        }
        self.partitions
            .lock()
            .contains(&Self::normalize(NodeId::new(from), NodeId::new(to)))
    }

    /// Whether `node` is an endpoint of any active partition — the failure
    /// detector's view: a partitioned node is *suspected* (its peers stop
    /// hearing from it) but never declared dead (it is still running).
    pub(crate) fn is_isolated(&self, node: u32) -> bool {
        self.partitions
            .lock()
            .iter()
            .any(|&(a, b)| a == node || b == node)
    }

    /// Appends a free-form line to the fault trace (crashes, restarts,
    /// partitions — scripted events that are part of the reproducible
    /// schedule).
    pub(crate) fn note(&self, line: String) {
        self.trace.lock().push(line);
    }

    pub(crate) fn trace(&self) -> Vec<String> {
        self.trace.lock().clone()
    }

    /// Decides the fate of one control message on the `from → to` link.
    /// `msg`'s debug rendering is recorded with any fault, and built only
    /// then.
    pub(crate) fn decide(
        &self,
        from: u32,
        to: u32,
        is_end: bool,
        msg: &dyn fmt::Debug,
    ) -> Delivery {
        let clean = Delivery::Deliver {
            copies: 1,
            delay_ms: 0,
        };
        if self.plan.is_noop() && self.partitions.lock().is_empty() {
            return clean;
        }
        let seq = {
            let mut seqs = self.seqs.lock();
            let c = seqs.entry((from, to)).or_insert(0);
            let seq = *c;
            *c += 1;
            seq
        };
        let link = |f: u32| {
            if f == CLIENT {
                "client".to_owned()
            } else {
                format!("n{f}")
            }
        };
        if self.is_partitioned(from, to) {
            self.note(format!(
                "drop(partition) {}->n{to} #{seq} {msg:?}",
                link(from)
            ));
            return Delivery::Drop;
        }
        let p_drop = if is_end {
            self.plan.drop_end_requests
        } else {
            self.plan.drop
        };
        if self.chance(from, to, seq, 1, p_drop) {
            self.note(format!("drop {}->n{to} #{seq} {msg:?}", link(from)));
            return Delivery::Drop;
        }
        let copies = if self.chance(from, to, seq, 2, self.plan.duplicate) {
            self.note(format!("duplicate {}->n{to} #{seq} {msg:?}", link(from)));
            2
        } else {
            1
        };
        let delay_ms = if self.chance(from, to, seq, 3, self.plan.delay) {
            let d = 1 + self.hash(from, to, seq, 4) % self.plan.max_delay_ms.max(1);
            self.note(format!("delay({d}ms) {}->n{to} #{seq} {msg:?}", link(from)));
            d
        } else {
            0
        };
        Delivery::Deliver { copies, delay_ms }
    }

    /// Decides the fate of one checkpoint message (`CheckpointPut` or
    /// `CheckpointAck`) on the `from → to` link. Unlike [`Self::decide`]
    /// this is *silent* — checkpoint traffic is driven by lease-sweep timing,
    /// so recording it would make the fault trace (which reproducibility
    /// tests compare bit-for-bit) timing-dependent. Partitions still apply;
    /// drops and duplicates come from the dedicated checkpoint knobs.
    pub(crate) fn decide_checkpoint(&self, from: u32, to: u32) -> Delivery {
        if self.is_partitioned(from, to) {
            return Delivery::Drop;
        }
        if self.plan.checkpoint_drop == 0.0 && self.plan.checkpoint_duplicate == 0.0 {
            return Delivery::Deliver {
                copies: 1,
                delay_ms: 0,
            };
        }
        let seq = {
            let mut seqs = self.ckpt_seqs.lock();
            let c = seqs.entry((from, to)).or_insert(0);
            let seq = *c;
            *c += 1;
            seq
        };
        if self.chance(from, to, seq, 11, self.plan.checkpoint_drop) {
            return Delivery::Drop;
        }
        let copies = if self.chance(from, to, seq, 12, self.plan.checkpoint_duplicate) {
            2
        } else {
            1
        };
        Delivery::Deliver {
            copies,
            delay_ms: 0,
        }
    }

    fn hash(&self, from: u32, to: u32, seq: u64, salt: u64) -> u64 {
        // SplitMix64 over the combined identity: decisions depend only on
        // the seed and the message's link coordinates, never on wall-clock
        // interleaving.
        let mut x = self
            .plan
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(from) << 32 | u64::from(to))
            .wrapping_add(seq.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(salt.wrapping_mul(0x94d0_49bb_1331_11eb));
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        x
    }

    fn chance(&self, from: u32, to: u32, seq: u64, salt: u64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let unit = (self.hash(from, to, seq, salt) >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_transparent() {
        let inj = FaultInjector::new(FaultPlan::seeded(7));
        for i in 0..100 {
            assert_eq!(
                inj.decide(CLIENT, 0, false, &format!("m{i}")),
                Delivery::Deliver {
                    copies: 1,
                    delay_ms: 0
                }
            );
        }
        assert!(inj.trace().is_empty());
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_seq() {
        let run = |seed: u64| {
            let inj = FaultInjector::new(
                FaultPlan::seeded(seed)
                    .drop_probability(0.2)
                    .duplicate_probability(0.2)
                    .delay_probability(0.2, 10),
            );
            (0..200)
                .map(|i| inj.decide(0, 1, false, &format!("m{i}")))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn drop_rate_tracks_the_probability() {
        let inj = FaultInjector::new(FaultPlan::seeded(11).drop_probability(0.3));
        let n = 10_000;
        let dropped = (0..n)
            .filter(|_| inj.decide(0, 1, false, &"m") == Delivery::Drop)
            .count();
        let rate = dropped as f64 / f64::from(n);
        assert!((rate - 0.3).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn end_requests_use_their_own_drop_probability() {
        let inj = FaultInjector::new(FaultPlan::seeded(5).drop_end_requests(1.0));
        // non-end messages sail through…
        assert_ne!(inj.decide(CLIENT, 0, false, &"Invoke"), Delivery::Drop);
        // …end-requests always drop
        assert_eq!(inj.decide(CLIENT, 0, true, &"End"), Delivery::Drop);
    }

    #[test]
    fn partitions_cut_both_directions_and_heal() {
        let inj = FaultInjector::new(FaultPlan::seeded(0));
        inj.partition(NodeId::new(0), NodeId::new(1));
        assert_eq!(inj.decide(0, 1, false, &"m"), Delivery::Drop);
        assert_eq!(inj.decide(1, 0, false, &"m"), Delivery::Drop);
        // other links unaffected; the client cannot be partitioned
        assert_ne!(inj.decide(0, 2, false, &"m"), Delivery::Drop);
        assert_ne!(inj.decide(CLIENT, 1, false, &"m"), Delivery::Drop);
        inj.heal(NodeId::new(1), NodeId::new(0)); // order-insensitive
        assert_ne!(inj.decide(0, 1, false, &"m"), Delivery::Drop);
    }

    #[test]
    fn isolation_tracks_partition_membership() {
        let inj = FaultInjector::new(FaultPlan::seeded(0));
        assert!(!inj.is_isolated(0));
        inj.partition(NodeId::new(0), NodeId::new(2));
        assert!(inj.is_isolated(0));
        assert!(inj.is_isolated(2));
        assert!(!inj.is_isolated(1));
        inj.heal_all();
        assert!(!inj.is_isolated(0));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn probabilities_are_validated() {
        let _ = FaultPlan::seeded(0).drop_probability(1.5);
    }

    #[test]
    fn checkpoint_faults_are_silent_and_independent() {
        let inj = FaultInjector::new(FaultPlan::seeded(9).checkpoint_faults(0.5, 0.0));
        let n = 2_000;
        let dropped = (0..n)
            .filter(|_| inj.decide_checkpoint(0, 1) == Delivery::Drop)
            .count();
        let rate = dropped as f64 / f64::from(n);
        assert!((rate - 0.5).abs() < 0.05, "rate {rate}");
        // silent: nothing was recorded in the fault trace
        assert!(inj.trace().is_empty());
        // independent stream: control decisions are untouched by the
        // checkpoint knobs (no control faults configured)
        assert_ne!(inj.decide(0, 1, false, &"m"), Delivery::Drop);
    }

    #[test]
    fn checkpoint_traffic_respects_partitions() {
        let inj = FaultInjector::new(FaultPlan::seeded(0));
        inj.partition(NodeId::new(0), NodeId::new(1));
        assert_eq!(inj.decide_checkpoint(0, 1), Delivery::Drop);
        assert_eq!(inj.decide_checkpoint(1, 0), Delivery::Drop);
        assert_ne!(inj.decide_checkpoint(0, 2), Delivery::Drop);
    }

    #[test]
    fn checkpoint_duplication_delivers_two_copies() {
        let inj = FaultInjector::new(FaultPlan::seeded(1).checkpoint_faults(0.0, 1.0));
        assert_eq!(
            inj.decide_checkpoint(0, 1),
            Delivery::Deliver {
                copies: 2,
                delay_ms: 0
            }
        );
    }

    #[test]
    fn failure_pattern_labels_are_distinct() {
        let labels = [
            FailurePattern::SingleNode.label(),
            FailurePattern::HostAndHome.label(),
            FailurePattern::ReplicaSetMinusOne.label(),
        ];
        let set: HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
        assert_eq!(FailurePattern::HostAndHome.to_string(), "host+home");
    }
}
