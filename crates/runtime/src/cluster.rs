//! The cluster facade: public API over the node workers.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::transport::channel::{ChannelMesh, MeshConfig};
use crate::transport::{Transport, TransportError};
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError};
use oml_check::event::{EventKind, ReleaseCause, TraceEvent, CLIENT_PROCESS};
use oml_core::alliance::AllianceRegistry;
use oml_core::attach::{AttachOutcome, AttachmentGraph, AttachmentMode};
use oml_core::error::AttachError;
use oml_core::ids::{AllianceId, BlockId, NodeId, ObjectId};
use oml_core::object::Mobility;
use oml_core::policy::{MovePolicy, PolicyKind};

use crate::error::RuntimeError;
use crate::fault::{self, Delivery, FaultInjector, FaultPlan};
use crate::message::{Envelope, Message, MAX_HOPS};
use crate::node::NodeWorker;
use crate::object::{Delinearizer, MobileObject, TypeRegistry};
use crate::recovery::{
    preference_order, Admission, DetectorConfig, Mutation, NodeHealth, PendingRefresh,
    RecoveryState, ReplicaCheckpoint, ReplicationInfo,
};
use crate::schedule::{FreeRun, ScheduleSource, SendAction};
use crate::store::{CheckpointStore, FsyncPolicy};
use crate::trace::{OrderedMutex, OrderedRwLock, TraceCollector};
use crate::wire::CheckpointFrame;

/// Monotone activity counters, readable while the cluster runs.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) invocations: AtomicU64,
    pub(crate) moves_granted: AtomicU64,
    pub(crate) moves_denied: AtomicU64,
    pub(crate) objects_migrated: AtomicU64,
    pub(crate) forwards: AtomicU64,
    pub(crate) timeouts: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) leases_expired: AtomicU64,
    pub(crate) suspicions: AtomicU64,
    pub(crate) false_suspicions: AtomicU64,
    pub(crate) reinstantiations: AtomicU64,
    pub(crate) fenced_stale: AtomicU64,
    pub(crate) breaker_opens: AtomicU64,
    pub(crate) checkpoint_refreshes: AtomicU64,
    pub(crate) quorum_refreshes: AtomicU64,
    pub(crate) quorum_refresh_failures: AtomicU64,
    pub(crate) repairs: AtomicU64,
}

/// A point-in-time snapshot of a cluster's activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterStats {
    /// Invocations executed (at any node).
    pub invocations: u64,
    /// Move-requests granted.
    pub moves_granted: u64,
    /// Move-requests denied.
    pub moves_denied: u64,
    /// Objects shipped between nodes (closure members count individually).
    pub objects_migrated: u64,
    /// Messages forwarded because their object had moved on.
    pub forwards: u64,
    /// Blocking client calls whose deadline elapsed (per attempt).
    pub timeouts: u64,
    /// Invocation attempts re-sent after a timeout.
    pub retries: u64,
    /// Placement locks released by lease expiry (the recovery path).
    pub leases_expired: u64,
    /// Nodes the failure detector began suspecting (missed beats or
    /// partitions). Zero without a detector.
    pub suspicions: u64,
    /// Suspicions that were later revoked (the node was merely slow or
    /// partitioned and came back).
    pub false_suspicions: u64,
    /// Objects reinstantiated from their checkpoints after their host was
    /// declared dead.
    pub reinstantiations: u64,
    /// Messages rejected by epoch fencing (stale sender incarnations and
    /// stale object-epoch installs).
    pub fenced_stale: u64,
    /// Circuit-breaker open transitions (suspicion, death, failed probes).
    pub breaker_opens: u64,
    /// Checkpoint refreshes issued to the replica sets (create-time seeding
    /// is not counted — it writes synchronously, without a quorum round).
    pub checkpoint_refreshes: u64,
    /// Refreshes that collected a write quorum of replica acks.
    pub quorum_refreshes: u64,
    /// Refreshes superseded before reaching their quorum (dropped puts or
    /// acks, partitioned replicas) — the durability-margin warning light.
    pub quorum_refresh_failures: u64,
    /// Checkpoint copies re-sent by the anti-entropy repair sweep.
    pub repairs: u64,
}

/// One object's durability margin, from [`Cluster::checkpoint_health`]:
/// how many live replicas hold its passive copy and how stale they may be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointHealth {
    /// The object.
    pub object: ObjectId,
    /// Live (non-dead, non-crashed) nodes currently holding a copy.
    pub replicas: u32,
    /// Milliseconds since the last refresh (or creation) was issued.
    pub refresh_age_ms: u64,
    /// Freshest `(object_epoch, seq)` known to have reached a write quorum;
    /// `None` until the first quorum-acknowledged refresh completes.
    pub quorum: Option<(u64, u64)>,
}

/// The cluster's notion of lease time: wall-clock milliseconds since build,
/// or a hand-advanced counter for deterministic tests.
pub(crate) enum RuntimeClock {
    Wall(Instant),
    Manual(AtomicU64),
}

/// One object stranded by a crashed worker: its host node, identity, live
/// instance and object epoch at stash time, parked until that node restarts.
/// A restart only reclaims entries whose epoch is still current — an object
/// reinstantiated elsewhere while the node was down stays where it is.
pub(crate) type StashedObject = (NodeId, ObjectId, Box<dyn MobileObject>, u64);

/// State shared by every node worker and the cluster facade.
pub(crate) struct Shared {
    /// The in-process transport: bounded per-node inboxes behind the
    /// [`Transport`] seam. The mesh (not the worker) owns each channel, so
    /// queued messages survive a worker crash and are drained by the
    /// restarted incarnation — the pre-trait behaviour, preserved.
    mesh: ChannelMesh<Envelope>,
    directory: OrderedRwLock<HashMap<ObjectId, NodeId>>,
    mobility: OrderedRwLock<HashMap<ObjectId, Mobility>>,
    pub(crate) policy: OrderedMutex<Box<dyn MovePolicy>>,
    pub(crate) attachments: OrderedMutex<AttachmentGraph>,
    pub(crate) alliances: OrderedMutex<AllianceRegistry>,
    pub(crate) registry: TypeRegistry,
    pub(crate) counters: Counters,
    pub(crate) injector: FaultInjector,
    /// The scheduling seam: decides message hand-off timing and worker
    /// ticks. [`FreeRun`] unless a test harness installed a custom source.
    pub(crate) schedule: Arc<dyn ScheduleSource>,
    /// Objects stranded by a crashed worker, waiting for its restart.
    pub(crate) stash: OrderedMutex<Vec<StashedObject>>,
    /// The crash-recovery subsystem; `None` unless a failure detector was
    /// configured, in which case the runtime behaves exactly as before.
    pub(crate) recovery: Option<RecoveryState>,
    pub(crate) clock: RuntimeClock,
    /// Protocol trace collection (disabled unless built with
    /// [`ClusterBuilder::trace`]).
    pub(crate) trace: TraceCollector,
    call_timeout: Duration,
    invoke_retries: u32,
    /// SplitMix64 state for retry-backoff jitter (seeded from the fault
    /// plan, so even the jitter is reproducible).
    jitter: OrderedMutex<u64>,
    next_object: AtomicU32,
    next_block: AtomicU32,
    /// Shutdown has been initiated: new client operations are refused, but
    /// sends still flow so queued end-requests can be flushed.
    closing: AtomicBool,
    /// Workers have been joined: sends now fail with `ShuttingDown` instead
    /// of silently queueing into dead channels.
    down: AtomicBool,
}

impl Shared {
    /// Routes one message to `to`, applying the fault plan. `from` is the
    /// sending node together with its incarnation epoch (stamped on the
    /// envelope for fencing), or `None` for the client facade.
    ///
    /// Control messages (invocations, move-requests, end-requests) are
    /// subject to drops, duplicates, delays and partitions; state transfer
    /// (`Create`/`Install`/`Surrender`) and control sentinels are always
    /// reliable — see [`crate::fault`] for the model.
    ///
    /// A faithfully *lost* message still returns `Ok` (the sender cannot
    /// observe a drop — that is what deadlines are for); `Err(ShuttingDown)`
    /// means the cluster's workers are gone and the message can never be
    /// processed.
    pub(crate) fn send_from(
        &self,
        from: Option<(NodeId, u64)>,
        to: NodeId,
        msg: Message,
    ) -> Result<(), RuntimeError> {
        if self.down.load(Ordering::Acquire) {
            return Err(RuntimeError::ShuttingDown);
        }
        let (from_raw, epoch) = from.map_or((fault::CLIENT, 0), |(n, e)| (n.as_u32(), e));
        let is_checkpoint = matches!(
            msg,
            Message::CheckpointPut { .. } | Message::CheckpointAck { .. }
        );
        if is_checkpoint && from_raw != fault::CLIENT {
            // replica traffic between nodes has its own (silent) decision
            // stream: drops and duplicates, never delays. Client-originated
            // checkpoint traffic (creation seeding, repair) is reliable.
            return match self.injector.decide_checkpoint(from_raw, to.as_u32()) {
                Delivery::Drop => Ok(()),
                Delivery::Deliver { copies, .. } => {
                    let mut msgs = Vec::with_capacity(copies as usize);
                    if copies > 1 {
                        if let Some(dup) = clone_control(&msg) {
                            msgs.push(self.trace_envelope(from_raw, epoch, to, dup));
                        }
                    }
                    msgs.push(self.trace_envelope(from_raw, epoch, to, msg));
                    for m in msgs {
                        let _ = self.mesh.send(to.as_u32(), m);
                    }
                    Ok(())
                }
            };
        }
        let faultable = matches!(
            msg,
            Message::Invoke { .. } | Message::MoveRequest { .. } | Message::EndRequest { .. }
        );
        if !faultable {
            let env = self.trace_envelope(from_raw, epoch, to, msg);
            return self.mesh.send(to.as_u32(), env).map_err(map_mesh_err);
        }
        let is_end = matches!(msg, Message::EndRequest { .. });
        match self.injector.decide(from_raw, to.as_u32(), is_end, &msg) {
            Delivery::Drop => Ok(()),
            Delivery::Deliver { copies, delay_ms } => {
                // the scheduling seam sees every surviving control message;
                // its delay composes with the fault plan's by taking the max
                let delay_ms = match self.schedule.on_send(from_raw, to) {
                    SendAction::Deliver => delay_ms,
                    SendAction::Delay(d) => {
                        delay_ms.max(u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
                    }
                };
                let mut msgs = Vec::with_capacity(copies as usize);
                if copies > 1 {
                    if let Some(dup) = clone_control(&msg) {
                        msgs.push(self.trace_envelope(from_raw, epoch, to, dup));
                    }
                }
                msgs.push(self.trace_envelope(from_raw, epoch, to, msg));
                let tx = self.mesh.sender(to.as_u32());
                if delay_ms > 0 {
                    // deliver later from a detached thread; a message landing
                    // after shutdown sits in a queue nobody reads — harmless
                    std::thread::spawn(move || {
                        std::thread::sleep(Duration::from_millis(delay_ms));
                        for m in msgs {
                            let _ = tx.send(m);
                        }
                    });
                } else {
                    for m in msgs {
                        let _ = tx.send(m);
                    }
                }
                Ok(())
            }
        }
    }

    /// Wraps a message for the wire, assigning it a trace id and emitting
    /// the matching `Send` event in the sender's program order. A duplicated
    /// message passes through twice and gets two ids — two physical copies,
    /// two sends, exactly what the happens-before construction expects.
    fn trace_envelope(&self, from: u32, epoch: u64, to: NodeId, msg: Message) -> Envelope {
        if !self.trace.is_enabled() {
            let mut env = Envelope::untraced(msg);
            env.from = from;
            env.epoch = epoch;
            return env;
        }
        let msg_id = self.trace.next_msg_id();
        self.trace.emit(
            from,
            EventKind::Send {
                msg_id,
                to: to.as_u32(),
                desc: format!("{msg:?}"),
            },
        );
        Envelope {
            trace_id: msg_id,
            from,
            epoch,
            msg,
        }
    }

    pub(crate) fn directory_get(&self, object: ObjectId) -> Option<NodeId> {
        self.directory.read().get(&object).copied()
    }

    pub(crate) fn directory_set(&self, object: ObjectId, node: NodeId) {
        self.directory.write().insert(object, node);
    }

    pub(crate) fn is_movable(&self, object: ObjectId) -> bool {
        self.mobility
            .read()
            .get(&object)
            .copied()
            .unwrap_or_default()
            .is_movable()
    }

    /// Milliseconds on the cluster's lease clock.
    pub(crate) fn now_ms(&self) -> u64 {
        match &self.clock {
            RuntimeClock::Wall(epoch) => epoch.elapsed().as_millis() as u64,
            RuntimeClock::Manual(t) => t.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn is_closing(&self) -> bool {
        self.closing.load(Ordering::Acquire)
    }

    fn next_jitter_ms(&self, bound_ms: u64) -> u64 {
        let mut state = self.jitter.lock();
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = *state;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        x % bound_ms.max(1)
    }

    // ---- crash-recovery plumbing (all no-ops without a detector) ----

    /// Whether the crash-recovery subsystem is active at all — workers use
    /// this to skip checkpoint linearization entirely when it is not.
    pub(crate) fn detector_enabled(&self) -> bool {
        self.recovery.is_some()
    }

    /// Whether epoch fencing is active.
    pub(crate) fn fenced(&self) -> bool {
        self.recovery
            .as_ref()
            .is_some_and(|r| r.mutation != Some(Mutation::Unfenced))
    }

    /// The current incarnation of `node` (raw id); 1 without a detector.
    pub(crate) fn incarnation(&self, node: u32) -> u64 {
        self.recovery
            .as_ref()
            .map_or(1, |r| r.incarnation(node as usize))
    }

    /// Records a heartbeat from incarnation `epoch` of `node`.
    pub(crate) fn beat(&self, node: NodeId, epoch: u64) {
        if let Some(rec) = &self.recovery {
            rec.beat(node.index(), epoch, self.now_ms());
        }
    }

    /// The object's current epoch (0 without a detector or before any
    /// reinstantiation).
    pub(crate) fn object_epoch(&self, object: ObjectId) -> u64 {
        self.recovery.as_ref().map_or(0, |r| {
            r.object_epochs.read().get(&object).copied().unwrap_or(0)
        })
    }

    /// The object's current replica-set targets: the first `k` available
    /// nodes in its placement preference order.
    fn replica_targets(&self, object: ObjectId, home: NodeId) -> Vec<NodeId> {
        let Some(rec) = &self.recovery else {
            return Vec::new();
        };
        preference_order(object, home, self.mesh.peers() as usize)
            .into_iter()
            .filter(|n| rec.replica_available(n.index()))
            .take(rec.replica_k)
            .collect()
    }

    /// Seeds the replicated checkpoint at creation: records the home node
    /// and writes the birth state synchronously into the replica set's
    /// stores (creation blocks on the Create reply anyway, so there is no
    /// quorum round to wait for — every replica starts at `(0, 0)`).
    pub(crate) fn checkpoint_init(
        &self,
        object: ObjectId,
        home: NodeId,
        type_tag: String,
        state: Bytes,
    ) {
        let Some(rec) = &self.recovery else {
            return;
        };
        let now = self.now_ms();
        rec.replication.lock().insert(
            object,
            ReplicationInfo {
                home,
                seq: 0,
                pending: None,
                last_quorum: None,
                last_refresh_at_ms: now,
            },
        );
        let frame = CheckpointFrame {
            type_tag,
            state,
            object_epoch: 0,
            seq: 0,
        };
        for target in self.replica_targets(object, home) {
            self.store_replica(target, object, &frame);
        }
    }

    /// Refreshes the replicated checkpoint (install / end / lease events —
    /// the points where a consistent linearized copy is in hand anyway):
    /// assigns the next refresh sequence, fans a `CheckpointPut` out to the
    /// replica set and starts counting acks against a majority write quorum.
    /// `host` is the node holding the live object (it stores its copy
    /// locally and self-acks; an unacked previous refresh is superseded and
    /// counted as a quorum failure).
    pub(crate) fn checkpoint_refresh(
        &self,
        object: ObjectId,
        type_tag: &str,
        state: Bytes,
        host: NodeId,
        host_epoch: u64,
    ) {
        let Some(rec) = &self.recovery else {
            return;
        };
        let object_epoch = self.object_epoch(object);
        let now = self.now_ms();
        let (seq, targets) = {
            let mut repl = rec.replication.lock();
            let Some(info) = repl.get_mut(&object) else {
                return; // detector configured after the object was created
            };
            if info.pending.take().is_some() {
                self.counters
                    .quorum_refresh_failures
                    .fetch_add(1, Ordering::Relaxed);
            }
            info.seq += 1;
            let seq = info.seq;
            let targets = self.replica_targets(object, info.home);
            if targets.is_empty() {
                return;
            }
            info.pending = Some(PendingRefresh {
                object_epoch,
                seq,
                quorum: targets.len() / 2 + 1,
                acked: HashSet::new(),
            });
            info.last_refresh_at_ms = now;
            (seq, targets)
        };
        self.counters
            .checkpoint_refreshes
            .fetch_add(1, Ordering::Relaxed);
        let frame = CheckpointFrame {
            type_tag: type_tag.to_owned(),
            state,
            object_epoch,
            seq,
        };
        let encoded = frame.encode();
        for target in targets {
            if target == host {
                // the host's own store needs no message round-trip
                self.store_replica(target, object, &frame);
                self.checkpoint_ack(object, object_epoch, seq, target, host.as_u32());
            } else {
                let _ = self.send_from(
                    Some((host, host_epoch)),
                    target,
                    Message::CheckpointPut {
                        object,
                        frame: encoded.clone(),
                    },
                );
            }
        }
    }

    /// Writes `frame` into `at`'s replica store if it is fresher than the
    /// copy already there (lexicographic `(object_epoch, seq)`); returns
    /// whether it was applied.
    pub(crate) fn store_replica(
        &self,
        at: NodeId,
        object: ObjectId,
        frame: &CheckpointFrame,
    ) -> bool {
        let Some(rec) = &self.recovery else {
            return false;
        };
        let (applied, wal) = {
            let mut stores = rec.replica_stores.lock();
            let store = &mut stores[at.index()];
            match store.get(object) {
                Some(existing) if existing.version() >= (frame.object_epoch, frame.seq) => {
                    (false, None)
                }
                _ => {
                    let compactions = store.wal_stats().compactions;
                    // the put (and its fsync, per policy) completes before
                    // any ack is sent — acks never outrun durability
                    match store.put(
                        object,
                        ReplicaCheckpoint {
                            type_tag: frame.type_tag.clone(),
                            state: frame.state.clone(),
                            object_epoch: frame.object_epoch,
                            seq: frame.seq,
                        },
                    ) {
                        Ok(durability) => {
                            let wal = store.durable_backed().then(|| {
                                let stats = store.wal_stats();
                                let compacted = (stats.compactions > compactions)
                                    .then_some((stats.generation, store.len() as u64));
                                (durability.is_durable(), compacted)
                            });
                            (true, wal)
                        }
                        Err(_) => (false, None), // a failed write is no write
                    }
                }
            }
        };
        if let Some((durable, compacted)) = wal {
            self.trace.emit(
                at.as_u32(),
                EventKind::WalAppended {
                    node: at.as_u32(),
                    object,
                    object_epoch: frame.object_epoch,
                    seq: frame.seq,
                    durable,
                },
            );
            if let Some((generation, records)) = compacted {
                self.trace.emit(
                    at.as_u32(),
                    EventKind::SnapshotCompacted {
                        node: at.as_u32(),
                        generation,
                        records,
                    },
                );
            }
        }
        if applied {
            self.trace.emit(
                at.as_u32(),
                EventKind::CheckpointStored {
                    object,
                    replica: at,
                    object_epoch: frame.object_epoch,
                    seq: frame.seq,
                },
            );
        }
        applied
    }

    /// Applies an incoming `CheckpointPut` at node `at` and (for node-to-
    /// node puts) acks back to the sender. Undecodable frames are dropped;
    /// with fencing, a put linearized under a superseded object epoch is
    /// *quietly* ignored — it is not a protocol violation, just a refresh
    /// that lost a race with a reinstantiation, and the repair sweep will
    /// re-replicate under the current epoch.
    pub(crate) fn apply_checkpoint_put(
        &self,
        at: NodeId,
        at_epoch: u64,
        object: ObjectId,
        frame: &Bytes,
        from: u32,
        ack: bool,
    ) {
        if self.recovery.is_none() {
            return;
        }
        let Ok(frame) = CheckpointFrame::decode(frame) else {
            return;
        };
        if self.fenced() && frame.object_epoch < self.object_epoch(object) {
            return;
        }
        self.store_replica(at, object, &frame);
        // re-ack even when the copy was not fresher: the sender may be
        // retrying a refresh whose previous ack was lost
        if ack && from != fault::CLIENT {
            let _ = self.send_from(
                Some((at, at_epoch)),
                NodeId::new(from),
                Message::CheckpointAck {
                    object,
                    object_epoch: frame.object_epoch,
                    seq: frame.seq,
                    replica: at,
                },
            );
        }
    }

    /// Counts one replica's ack toward the pending refresh's write quorum.
    /// Acks are deduplicated by replica id (duplicated or re-sent acks
    /// count once) and acks for any other `(object_epoch, seq)` than the
    /// pending write are ignored.
    pub(crate) fn checkpoint_ack(
        &self,
        object: ObjectId,
        object_epoch: u64,
        seq: u64,
        replica: NodeId,
        process: u32,
    ) {
        let Some(rec) = &self.recovery else {
            return;
        };
        let quorum_reached = {
            let mut repl = rec.replication.lock();
            let Some(info) = repl.get_mut(&object) else {
                return;
            };
            let Some(pending) = info.pending.as_mut() else {
                return;
            };
            if pending.object_epoch != object_epoch || pending.seq != seq {
                return;
            }
            if !pending.acked.insert(replica.as_u32()) {
                return; // duplicate ack: already counted
            }
            let quorum = pending.quorum;
            self.trace.emit(
                process,
                EventKind::CheckpointAcked {
                    object,
                    object_epoch,
                    seq,
                    replica,
                    quorum: quorum as u32,
                },
            );
            if pending.acked.len() >= quorum {
                info.pending = None;
                info.last_quorum = Some((object_epoch, seq));
                true
            } else {
                false
            }
        };
        if quorum_reached {
            self.counters
                .quorum_refreshes
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The circuit breaker's verdict on calling `node`: `Err(NodeDown)` to
    /// fail fast, `Ok` to proceed (possibly as the half-open probe — report
    /// the outcome with [`Shared::settle_call`]).
    pub(crate) fn admit(&self, node: NodeId) -> Result<(), RuntimeError> {
        if let Some(rec) = &self.recovery {
            if matches!(rec.admit(node.index()), Admission::FailFast) {
                return Err(RuntimeError::NodeDown(node));
            }
        }
        Ok(())
    }

    /// Reports a call's transport outcome to the breaker (only a half-open
    /// probe actually transitions), counting and tracing a reopen.
    pub(crate) fn settle_call(&self, node: NodeId, success: bool) {
        if let Some(rec) = &self.recovery {
            if rec.settle(node.index(), success) {
                self.counters.breaker_opens.fetch_add(1, Ordering::Relaxed);
                self.trace
                    .emit(CLIENT_PROCESS, EventKind::BreakerOpen { node });
            }
        }
    }

    /// Marks the node's worker as gone (crash stash path).
    pub(crate) fn mark_crashed(&self, node: NodeId) {
        if let Some(rec) = &self.recovery {
            rec.mark_crashed(node.index());
        }
    }

    /// Re-admits a restarting node under a fresh incarnation: marks it
    /// alive and healthy and gives an open breaker a probe slot. Returns the
    /// new incarnation the respawned worker must stamp its messages with.
    pub(crate) fn rejoin(&self, node: NodeId) -> u64 {
        let Some(rec) = &self.recovery else {
            return 1;
        };
        // the epoch lock serializes this against a concurrent declare-dead:
        // whichever runs second sees the other's verdict and stays consistent
        let _guard = rec.epoch_lock.lock();
        let epoch = rec.bump_incarnation(node.index());
        rec.mark_alive(node.index(), self.now_ms());
        rec.set_health(node.index(), NodeHealth::Up);
        rec.half_open_breaker(node.index());
        epoch
    }

    /// Refreshes every live node's heartbeat to the current clock — called
    /// when the manual clock jumps, standing in for the beats the workers
    /// would have produced continuously across the (instantaneous) jump.
    pub(crate) fn refresh_beats(&self) {
        if let Some(rec) = &self.recovery {
            rec.refresh_alive_beats(self.now_ms());
        }
    }

    /// One failure-detector sweep: suspects silent or partitioned nodes,
    /// clears suspicions (and half-opens breakers) when beats resume, and
    /// declares dead the nodes whose workers are actually gone.
    pub(crate) fn detector_sweep(&self) {
        let Some(rec) = &self.recovery else {
            return;
        };
        let now = self.now_ms();
        let window = rec.config.suspicion_after_ms();
        for i in 0..self.mesh.peers() as usize {
            if rec.health(i) == NodeHealth::Dead {
                continue;
            }
            let node = NodeId::new(i as u32);
            let missed = now.saturating_sub(rec.last_beat(i)) > window;
            let isolated = self.injector.is_isolated(i as u32);
            if missed && !rec.is_alive(i) {
                // silent *and* its worker is gone: this is a real death
                self.declare_dead(node);
                continue;
            }
            match rec.health(i) {
                NodeHealth::Up if missed || isolated => {
                    rec.set_health(i, NodeHealth::Suspected);
                    self.counters.suspicions.fetch_add(1, Ordering::Relaxed);
                    self.trace
                        .emit(CLIENT_PROCESS, EventKind::Suspected { node });
                    if rec.open_breaker(i) {
                        self.counters.breaker_opens.fetch_add(1, Ordering::Relaxed);
                        self.trace
                            .emit(CLIENT_PROCESS, EventKind::BreakerOpen { node });
                    }
                    self.injector.note(format!("suspect {node}"));
                }
                NodeHealth::Suspected if !missed && !isolated => {
                    rec.set_health(i, NodeHealth::Up);
                    self.counters
                        .false_suspicions
                        .fetch_add(1, Ordering::Relaxed);
                    rec.half_open_breaker(i);
                    self.injector.note(format!("clear-suspect {node}"));
                }
                NodeHealth::Up => {
                    // beating normally: an open breaker (e.g. after a failed
                    // probe or a transient timeout) gets a fresh probe slot
                    rec.half_open_breaker(i);
                }
                _ => {}
            }
        }
        self.repair_sweep();
    }

    /// One anti-entropy pass over the replica stores: for every object,
    /// re-send the freshest available copy to replica-set members that are
    /// missing it or hold an older version — healing under-replication after
    /// deaths and divergence after dropped refresh traffic. The sweep marker
    /// is emitted even when repair is disabled ([`Mutation::NoRepair`])
    /// so the checker can tell "under-replicated after repair quiesced" from
    /// "repair never ran".
    fn repair_sweep(&self) {
        let Some(rec) = &self.recovery else {
            return;
        };
        self.trace.emit(CLIENT_PROCESS, EventKind::RepairSweep);
        if rec.mutation == Some(Mutation::NoRepair) {
            return;
        }
        let mut objects: Vec<(ObjectId, NodeId)> = {
            let repl = rec.replication.lock();
            repl.iter().map(|(&o, info)| (o, info.home)).collect()
        };
        objects.sort_unstable_by_key(|&(o, _)| o);
        // epoch snapshot before the stores lock (the two are never nested)
        let epochs: HashMap<ObjectId, u64> = {
            let epochs = rec.object_epochs.read();
            objects
                .iter()
                .map(|&(o, _)| (o, epochs.get(&o).copied().unwrap_or(0)))
                .collect()
        };
        let mut puts: Vec<(NodeId, ObjectId, CheckpointFrame)> = Vec::new();
        {
            let stores = rec.replica_stores.lock();
            for &(object, home) in &objects {
                let current_epoch = epochs.get(&object).copied().unwrap_or(0);
                let mut freshest: Option<&ReplicaCheckpoint> = None;
                for (n, store) in stores.iter().enumerate() {
                    if !rec.replica_available(n) {
                        continue;
                    }
                    if let Some(ckpt) = store.get(object) {
                        if freshest.is_none_or(|f| ckpt.version() > f.version()) {
                            freshest = Some(ckpt);
                        }
                    }
                }
                let Some(freshest) = freshest else {
                    continue; // no surviving copy — nothing to replicate from
                };
                if freshest.object_epoch < current_epoch {
                    // a reinstantiation is in flight: its install will issue
                    // a refresh under the new epoch; replicating the old one
                    // would only be fenced on arrival
                    continue;
                }
                for target in self.replica_targets(object, home) {
                    let needs = match stores[target.index()].get(object) {
                        None => true,
                        Some(c) => c.version() < freshest.version(),
                    };
                    if needs {
                        puts.push((
                            target,
                            object,
                            CheckpointFrame {
                                type_tag: freshest.type_tag.clone(),
                                state: freshest.state.clone(),
                                object_epoch: freshest.object_epoch,
                                seq: freshest.seq,
                            },
                        ));
                    }
                }
            }
        }
        for (target, object, frame) in puts {
            self.counters.repairs.fetch_add(1, Ordering::Relaxed);
            // client-originated: reliable, no quorum round — repair is
            // convergence, not a new write
            let _ = self.send_from(
                None,
                target,
                Message::CheckpointPut {
                    object,
                    frame: frame.encode(),
                },
            );
        }
    }

    /// Declares `node` dead: fences its incarnation, bumps the epochs of the
    /// objects it hosted, releases their placement locks and reinstantiates
    /// them from their checkpoints at live nodes.
    fn declare_dead(&self, node: NodeId) {
        let Some(rec) = &self.recovery else {
            return;
        };
        let i = node.index();
        // Epoch arithmetic under the epoch lock; everything that sends (or
        // takes the policy lock) happens after it is released.
        let reinstated: Vec<(ObjectId, u64)> = {
            let _guard = rec.epoch_lock.lock();
            if rec.is_alive(i) || rec.health(i) == NodeHealth::Dead {
                // restarted concurrently, or a racing sweep got here first
                return;
            }
            rec.set_health(i, NodeHealth::Dead);
            rec.bump_incarnation(i);
            let stranded: Vec<ObjectId> = {
                let dir = self.directory.read();
                dir.iter()
                    .filter(|&(_, &n)| n == node)
                    .map(|(&o, _)| o)
                    .collect()
            };
            let mut epochs = rec.object_epochs.write();
            stranded
                .iter()
                .map(|&o| {
                    let e = epochs.entry(o).or_insert(0);
                    *e += 1;
                    (o, *e)
                })
                .collect()
        };
        if rec.open_breaker(i) {
            self.counters.breaker_opens.fetch_add(1, Ordering::Relaxed);
            self.trace
                .emit(CLIENT_PROCESS, EventKind::BreakerOpen { node });
        }
        self.injector.note(format!("declare-dead {node}"));
        self.trace
            .emit(CLIENT_PROCESS, EventKind::DeclaredDead { node });
        let stranded: Vec<ObjectId> = reinstated.iter().map(|&(o, _)| o).collect();
        if !stranded.is_empty() {
            // idempotent against crash_node's own release: locks already
            // released yield nothing here
            let mut policy = self.policy.lock();
            for (object, block) in policy.release_locks_for(&stranded) {
                self.trace.emit(
                    CLIENT_PROCESS,
                    EventKind::LockReleased {
                        object,
                        block,
                        cause: ReleaseCause::Crash,
                    },
                );
            }
        }
        // the dead node's replica holdings died with it
        // a clear() persists a tombstone record on WAL-backed stores;
        // epoch floors survive it by the store contract
        let _ = rec.replica_stores.lock()[i].clear();
        // persist the bumped epochs as floors at every surviving store, so
        // a cold restart cannot reinstantiate below them
        if !reinstated.is_empty() {
            let mut stores = rec.replica_stores.lock();
            for (n, store) in stores.iter_mut().enumerate() {
                if n == i {
                    continue;
                }
                for &(object, epoch) in &reinstated {
                    let _ = store.note_epoch(object, epoch);
                }
            }
        }
        for (object, epoch) in reinstated {
            let home = {
                let repl = rec.replication.lock();
                repl.get(&object).map(|info| info.home)
            };
            let Some(home) = home else {
                continue; // no replication record (object predates the detector)
            };
            // reinstantiate from the freshest surviving replica, ordered by
            // (object epoch, refresh sequence); `Mutation::StalePromotion`
            // inverts the choice for negative testing
            let source = {
                let stores = rec.replica_stores.lock();
                let mut best: Option<(NodeId, ReplicaCheckpoint)> = None;
                for (n, store) in stores.iter().enumerate() {
                    if !rec.replica_available(n) {
                        continue;
                    }
                    if let Some(ckpt) = store.get(object) {
                        let better = best.as_ref().is_none_or(|(_, b)| {
                            if rec.mutation == Some(Mutation::StalePromotion) {
                                ckpt.version() < b.version()
                            } else {
                                ckpt.version() > b.version()
                            }
                        });
                        if better {
                            best = Some((NodeId::new(n as u32), ckpt.clone()));
                        }
                    }
                }
                best
            };
            let Some((replica, ckpt)) = source else {
                continue; // every copy died too — lost until a node restart
            };
            self.trace.emit(
                CLIENT_PROCESS,
                EventKind::PromotedFrom {
                    object,
                    replica,
                    object_epoch: ckpt.object_epoch,
                    seq: ckpt.seq,
                },
            );
            let Some(target) = self.pick_target(home, node) else {
                continue; // no live node to host it — stays lost until a restart
            };
            // directory first: invocations park at the target until the
            // Install drains, exactly like creation
            self.directory_set(object, target);
            self.trace.emit(
                CLIENT_PROCESS,
                EventKind::Reinstantiated {
                    object,
                    at: target,
                    epoch,
                },
            );
            self.counters
                .reinstantiations
                .fetch_add(1, Ordering::Relaxed);
            self.injector
                .note(format!("reinstantiate {object} at {target}"));
            let _ = self.send_from(
                None,
                target,
                Message::Install {
                    object,
                    type_tag: ckpt.type_tag,
                    state: ckpt.state,
                    object_epoch: epoch,
                    install_for: None,
                },
            );
        }
    }

    /// Where to reinstantiate: the object's home if it is live and healthy,
    /// else the lowest-indexed live healthy node.
    fn pick_target(&self, home: NodeId, dead: NodeId) -> Option<NodeId> {
        let rec = self.recovery.as_ref()?;
        let usable = |n: NodeId| {
            n != dead && rec.is_alive(n.index()) && rec.health(n.index()) == NodeHealth::Up
        };
        if usable(home) {
            return Some(home);
        }
        (0..self.mesh.peers()).map(NodeId::new).find(|&n| usable(n))
    }
}

/// Clones the faultable control messages (the only ones that can be
/// duplicated); state transfer is never cloned.
fn clone_control(msg: &Message) -> Option<Message> {
    match msg {
        Message::Invoke {
            object,
            method,
            payload,
            hops,
            reply,
        } => Some(Message::Invoke {
            object: *object,
            method: method.clone(),
            payload: payload.clone(),
            hops: *hops,
            reply: reply.clone(),
        }),
        Message::MoveRequest {
            object,
            to,
            block,
            context,
            hops,
            expires,
            reply,
        } => Some(Message::MoveRequest {
            object: *object,
            to: *to,
            block: *block,
            context: *context,
            hops: *hops,
            expires: *expires,
            reply: reply.clone(),
        }),
        Message::EndRequest {
            object,
            block,
            from,
            was_granted,
            context,
            hops,
        } => Some(Message::EndRequest {
            object: *object,
            block: *block,
            from: *from,
            was_granted: *was_granted,
            context: *context,
            hops: *hops,
        }),
        Message::CheckpointPut { object, frame } => Some(Message::CheckpointPut {
            object: *object,
            frame: frame.clone(),
        }),
        Message::CheckpointAck {
            object,
            object_epoch,
            seq,
            replica,
        } => Some(Message::CheckpointAck {
            object: *object,
            object_epoch: *object_epoch,
            seq: *seq,
            replica: *replica,
        }),
        _ => None,
    }
}

/// Configures a [`Cluster`].
///
/// See the crate-level documentation for a full example.
#[derive(Debug)]
pub struct ClusterBuilder {
    nodes: u32,
    policy: PolicyKind,
    custom_policy: Option<Box<dyn MovePolicy>>,
    attachment_mode: AttachmentMode,
    fault_plan: Option<FaultPlan>,
    call_timeout: Duration,
    invoke_retries: u32,
    lease_ms: Option<u64>,
    manual_clock: bool,
    trace: bool,
    detector: Option<DetectorConfig>,
    replication_k: usize,
    mutation: Option<Mutation>,
    store_dir: Option<std::path::PathBuf>,
    store_fsync: FsyncPolicy,
    schedule: Arc<dyn ScheduleSource>,
}

impl ClusterBuilder {
    /// Number of nodes (worker threads). Defaults to 2.
    #[must_use]
    pub fn nodes(mut self, n: u32) -> Self {
        assert!(n > 0, "a cluster needs at least one node");
        self.nodes = n;
        self
    }

    /// The migration policy interpreting `move()`-requests. Defaults to
    /// transient placement.
    #[must_use]
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self.custom_policy = None;
        self
    }

    /// Installs a user-defined migration policy (any
    /// [`oml_core::policy::MovePolicy`]) instead of a built-in.
    #[must_use]
    pub fn policy_custom(mut self, policy: impl MovePolicy + 'static) -> Self {
        self.custom_policy = Some(Box::new(policy));
        self
    }

    /// The attachment semantics. Defaults to unrestricted.
    #[must_use]
    pub fn attachment_mode(mut self, mode: AttachmentMode) -> Self {
        self.attachment_mode = mode;
        self
    }

    /// Installs a seeded fault plan: drops, delays, duplicates and
    /// partitions for control messages. Without one the cluster is
    /// fault-free (but partitions and crashes are still available).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The deadline for each blocking client call (per attempt). Defaults
    /// to 5 seconds.
    ///
    /// # Panics
    ///
    /// Panics on a zero timeout.
    #[must_use]
    pub fn call_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "a zero call timeout cannot succeed");
        self.call_timeout = timeout;
        self
    }

    /// How many times a timed-out invocation is re-sent (invocations are
    /// the only idempotent-by-contract call; moves and creates are never
    /// retried). Defaults to 2.
    #[must_use]
    pub fn invoke_retries(mut self, retries: u32) -> Self {
        self.invoke_retries = retries;
        self
    }

    /// Makes placement locks leases expiring after `ttl_ms` of inactivity
    /// (see [`oml_core::lease::LeaseTable`]). Without this, locks are held
    /// until their end-request arrives — forever, if it never does.
    ///
    /// # Panics
    ///
    /// Panics if `ttl_ms` is zero.
    #[must_use]
    pub fn lease_ms(mut self, ttl_ms: u64) -> Self {
        assert!(ttl_ms > 0, "a lease needs a positive duration");
        self.lease_ms = Some(ttl_ms);
        self
    }

    /// Replaces the wall-clock lease clock with a counter advanced only by
    /// [`Cluster::advance_clock`] — deterministic lease expiry for tests.
    #[must_use]
    pub fn manual_clock(mut self) -> Self {
        self.manual_clock = true;
        self
    }

    /// Enables the failure detector — and with it the whole crash-recovery
    /// subsystem: heartbeats, suspicion after `k_missed * heartbeat_ms` of
    /// silence, epoch fencing, passive home checkpoints, reinstantiation of
    /// a dead node's objects, and per-node circuit breakers (calls to
    /// suspected or dead nodes fail fast with
    /// [`RuntimeError::NodeDown`]). Without this call the runtime behaves
    /// exactly as before.
    ///
    /// Under a wall clock a monitor thread sweeps the detector every
    /// `heartbeat_ms`; under [`ClusterBuilder::manual_clock`] call
    /// [`Cluster::detector_sweep`] after advancing the clock.
    ///
    /// # Panics
    ///
    /// Panics if `heartbeat_ms` or `k_missed` is zero.
    #[must_use]
    pub fn failure_detector(mut self, heartbeat_ms: u64, k_missed: u32) -> Self {
        assert!(heartbeat_ms > 0, "a zero heartbeat interval cannot beat");
        assert!(k_missed > 0, "suspicion needs at least one missed beat");
        self.detector = Some(DetectorConfig {
            heartbeat_ms,
            k_missed,
        });
        self
    }

    /// Sets the checkpoint replication factor `k = f + 1`: how many nodes
    /// hold each object's passive copy (home-preferred, rendezvous-hashed;
    /// clamped to the number of *available* nodes at placement time). The
    /// default of 2 survives any single-node failure, including the host;
    /// `k` survives any `k - 1` simultaneous failures once a refresh has
    /// reached its quorum. `k = 1` reproduces the old single-home-checkpoint
    /// behaviour — and its host+home double-crash data loss. Meaningless
    /// without [`ClusterBuilder::failure_detector`].
    ///
    /// # Panics
    ///
    /// Panics on `k = 0` (an unreplicated checkpoint is no checkpoint).
    #[must_use]
    pub fn replication(mut self, k: usize) -> Self {
        assert!(k > 0, "replication factor must be at least 1");
        self.replication_k = k;
        self
    }

    /// Runs the recovery protocol under `mutation`, a deliberately broken
    /// variant that a negative control uses to prove an `oml-check`
    /// invariant bites: [`Mutation::Unfenced`] must trip
    /// `StaleIncarnation`, [`Mutation::NoRepair`] must trip
    /// `ReplicationFactorViolation`, and [`Mutation::StalePromotion`] must
    /// trip `StaleReplicaPromoted`. Meaningless without
    /// [`ClusterBuilder::failure_detector`].
    #[must_use]
    pub fn mutation(mut self, mutation: Mutation) -> Self {
        self.mutation = Some(mutation);
        self
    }

    /// Backs every node's replica store with an on-disk [`crate::WalStore`]
    /// at `dir/node-<i>` under `fsync`: checkpoint puts are acknowledged
    /// only once the record is durable per policy, and a cold restart of
    /// the whole cluster (same `dir`) replays snapshot + WAL, truncates
    /// torn tails and seeds the object-epoch table from the persisted
    /// floors so fencing survives the restart. Meaningless without
    /// [`ClusterBuilder::failure_detector`].
    #[must_use]
    pub fn durable_store(mut self, dir: impl Into<std::path::PathBuf>, fsync: FsyncPolicy) -> Self {
        self.store_dir = Some(dir.into());
        self.store_fsync = fsync;
        self
    }

    /// Installs a custom [`ScheduleSource`]: every surviving control-message
    /// hand-off and every worker idle tick is decided by it instead of the
    /// free-running default. This is the seam a deterministic scheduler (or
    /// a schedule-perturbing test harness) plugs into — see
    /// [`crate::schedule`].
    #[must_use]
    pub fn schedule_source(mut self, source: Arc<dyn ScheduleSource>) -> Self {
        self.schedule = source;
        self
    }

    /// Enables protocol trace collection: every node (and the client
    /// facade) records the structured events `oml-check` replays —
    /// sends/receives with message ids, residency transitions, move
    /// decisions, lock and lease activity, closure transfers, crashes.
    /// Drain the trace with [`Cluster::take_trace`] and feed it to
    /// [`oml_check::check_trace`].
    #[must_use]
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Spawns the node threads and returns the running cluster.
    #[must_use]
    pub fn build(self) -> Cluster {
        let mesh = ChannelMesh::new(self.nodes, MeshConfig::default());
        let policy = match (self.custom_policy, self.lease_ms) {
            (Some(p), _) => p,
            (None, Some(ttl)) => self.policy.build_with_lease(ttl),
            (None, None) => self.policy.build(),
        };
        let plan = self.fault_plan.unwrap_or_else(|| FaultPlan::seeded(0));
        let jitter_seed = plan.seed();
        // per-node cold-recovery outcomes (WAL-backed stores only), traced
        // once the collector exists
        type NodeRecovery = (u32, Vec<(ObjectId, u64, u64)>, bool, bool);
        let mut recovered: Vec<NodeRecovery> = Vec::new();
        let recovery = self.detector.map(|cfg| {
            let stores: Vec<Box<dyn CheckpointStore>> = match &self.store_dir {
                Some(dir) => (0..self.nodes)
                    .map(|i| {
                        let cfg = crate::store::WalStoreConfig::with_fsync(
                            dir.join(format!("node-{i}")),
                            self.store_fsync,
                        );
                        let (store, report) = crate::store::WalStore::open(cfg)
                            .unwrap_or_else(|e| panic!("durable store node-{i}: {e}"));
                        let mut versions: Vec<(ObjectId, u64, u64)> = store
                            .objects()
                            .iter()
                            .filter_map(|&o| store.get(o).map(|c| (o, c.object_epoch, c.seq)))
                            .collect();
                        versions.sort_unstable_by_key(|&(o, _, _)| o);
                        recovered.push((i, versions, report.torn_bytes > 0, report.corrupt));
                        Box::new(store) as Box<dyn CheckpointStore>
                    })
                    .collect(),
                None => (0..self.nodes)
                    .map(|_| Box::new(crate::store::MemStore::new()) as Box<dyn CheckpointStore>)
                    .collect(),
            };
            RecoveryState::new(
                self.nodes as usize,
                cfg,
                self.mutation,
                self.replication_k,
                stores,
            )
        });
        let shared = Arc::new(Shared {
            mesh,
            directory: OrderedRwLock::new("shared.directory", HashMap::new()),
            mobility: OrderedRwLock::new("shared.mobility", HashMap::new()),
            policy: OrderedMutex::new("shared.policy", policy),
            attachments: OrderedMutex::new(
                "shared.attachments",
                AttachmentGraph::new(self.attachment_mode),
            ),
            alliances: OrderedMutex::new("shared.alliances", AllianceRegistry::new()),
            registry: TypeRegistry::new(),
            counters: Counters::default(),
            injector: FaultInjector::new(plan),
            schedule: self.schedule,
            stash: OrderedMutex::new("shared.stash", Vec::new()),
            recovery,
            clock: if self.manual_clock {
                RuntimeClock::Manual(AtomicU64::new(0))
            } else {
                RuntimeClock::Wall(Instant::now())
            },
            trace: TraceCollector::new(self.trace),
            call_timeout: self.call_timeout,
            invoke_retries: self.invoke_retries,
            jitter: OrderedMutex::new("shared.jitter", jitter_seed),
            next_object: AtomicU32::new(0),
            next_block: AtomicU32::new(0),
            closing: AtomicBool::new(false),
            down: AtomicBool::new(false),
        });
        if shared.recovery.is_some() {
            // one-shot configuration marker: arms the checker's replication
            // invariants (a trace without it is checked as before)
            shared.trace.emit(
                CLIENT_PROCESS,
                EventKind::ReplicationFactor {
                    k: self.replication_k as u32,
                    nodes: self.nodes,
                },
            );
            // cold-recovery markers: arm the checker's durability
            // invariants and record the recovered epoch floors
            for (node, versions, torn, corrupt) in recovered {
                shared.trace.emit(
                    node,
                    EventKind::ColdRecovered {
                        node,
                        recovered: versions,
                        torn,
                        corrupt,
                    },
                );
            }
        }
        let handles = (0..self.nodes as usize)
            .map(|i| Some(spawn_worker(&shared, NodeId::new(i as u32), 1)))
            .collect();
        // under a wall clock the detector needs someone to sweep it; under a
        // manual clock tests drive Cluster::detector_sweep themselves
        let monitor = match (&shared.recovery, self.manual_clock) {
            (Some(rec), false) => {
                let hb = rec.config.heartbeat_ms;
                let monitor_shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("oml-monitor".to_owned())
                        .spawn(move || {
                            // short steps so shutdown is prompt even with
                            // long heartbeat intervals
                            let step = Duration::from_millis(hb.clamp(1, 10));
                            let mut last_sweep = 0u64;
                            while !monitor_shared.is_closing() {
                                std::thread::sleep(step);
                                let now = monitor_shared.now_ms();
                                if now.saturating_sub(last_sweep) >= hb {
                                    last_sweep = now;
                                    monitor_shared.detector_sweep();
                                }
                            }
                        })
                        .expect("spawn detector monitor"),
                )
            }
            _ => None,
        };
        Cluster {
            shared,
            handles: OrderedMutex::new("cluster.handles", handles),
            monitor: OrderedMutex::new("cluster.monitor", monitor),
        }
    }
}

/// Maps a mesh-transport failure onto the runtime's error surface:
/// backpressure (the bounded inbox stayed full past the send deadline)
/// is a timeout the caller can retry; everything else means shutdown.
fn map_mesh_err(e: TransportError) -> RuntimeError {
    match e {
        TransportError::Backpressure { waited_ms } | TransportError::Timeout { waited_ms } => {
            RuntimeError::Timeout { waited_ms }
        }
        _ => RuntimeError::ShuttingDown,
    }
}

fn spawn_worker(shared: &Arc<Shared>, id: NodeId, epoch: u64) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let rx = shared.mesh.endpoint(id.as_u32());
    std::thread::Builder::new()
        .name(format!("oml-node-{}", id.index()))
        .spawn(move || NodeWorker::new(id, shared, rx, epoch).run())
        .expect("spawn node worker")
}

/// A running multi-node object system.
pub struct Cluster {
    shared: Arc<Shared>,
    /// One slot per node; `None` while that node is crashed.
    handles: OrderedMutex<Vec<Option<JoinHandle<()>>>>,
    /// The failure-detector sweep thread (wall-clock detectors only).
    monitor: OrderedMutex<Option<JoinHandle<()>>>,
}

impl Cluster {
    /// Starts configuring a cluster.
    #[must_use]
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder {
            nodes: 2,
            policy: PolicyKind::TransientPlacement,
            custom_policy: None,
            attachment_mode: AttachmentMode::Unrestricted,
            fault_plan: None,
            call_timeout: Duration::from_secs(5),
            invoke_retries: 2,
            lease_ms: None,
            manual_clock: false,
            trace: false,
            detector: None,
            replication_k: 2,
            mutation: None,
            store_dir: None,
            store_fsync: FsyncPolicy::Always,
            schedule: Arc::new(FreeRun),
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> u32 {
        self.shared.mesh.peers()
    }

    /// Registers the delinearizer for a type tag. Must happen before any
    /// object of that type migrates (migrations of unregistered types are
    /// refused rather than losing the object).
    pub fn register_type(&self, tag: &str, f: Delinearizer) {
        self.shared.registry.register(tag, f);
    }

    /// Creates `instance` at `node` and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownNode`] for an out-of-range node,
    /// [`RuntimeError::ShuttingDown`] if the cluster is stopping,
    /// [`RuntimeError::NodeDown`] immediately when the failure detector has
    /// the node suspected or dead, and [`RuntimeError::Timeout`] when the
    /// deadline elapses (e.g. the node is crashed without a detector).
    pub fn create(
        &self,
        node: NodeId,
        instance: Box<dyn MobileObject>,
    ) -> Result<ObjectId, RuntimeError> {
        self.check_node(node)?;
        self.check_live()?;
        self.shared.admit(node)?;
        let object = ObjectId::new(self.shared.next_object.fetch_add(1, Ordering::Relaxed));
        // the directory knows the object before the Create lands, so early
        // invocations park at the right node
        self.shared.directory_set(object, node);
        // the home checkpoint starts as the object's birth state
        self.shared.checkpoint_init(
            object,
            node,
            instance.type_tag().to_owned(),
            Bytes::from(instance.linearize()),
        );
        let (reply, rx) = bounded(1);
        self.shared.send_from(
            None,
            node,
            Message::Create {
                object,
                instance,
                reply,
            },
        )?;
        let res = self.await_reply(&rx);
        self.shared.settle_call(node, res.is_ok());
        res??;
        Ok(object)
    }

    /// Invokes `method` on the object, wherever it currently is. Blocks
    /// until the result message returns or the deadline elapses; a timed-out
    /// attempt is retried (with exponential backoff and seeded jitter, and a
    /// fresh directory lookup per attempt) up to
    /// [`ClusterBuilder::invoke_retries`] times — an invocation that timed
    /// out may still have executed, so callers get at-least-once semantics
    /// under faults.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`]: unknown object, method failure,
    /// forwarding exhaustion, shutdown, [`RuntimeError::NodeDown`] when
    /// every attempt was failed fast by the circuit breaker, or
    /// [`RuntimeError::Timeout`] once every attempt's deadline elapsed.
    pub fn invoke(
        &self,
        object: ObjectId,
        method: &str,
        payload: &[u8],
    ) -> Result<Vec<u8>, RuntimeError> {
        self.check_live()?;
        let timeout = self.shared.call_timeout;
        let attempts = self.shared.invoke_retries.saturating_add(1);
        let mut waited_ms = 0u64;
        let mut backoff_ms = 2u64;
        let mut fast_fail: Option<RuntimeError> = None;
        for attempt in 0..attempts {
            // re-resolve: the object may have moved (or its node restarted,
            // or the object been reinstantiated elsewhere) since the lost
            // attempt
            let node = self
                .shared
                .directory_get(object)
                .ok_or(RuntimeError::UnknownObject(object))?;
            if let Err(down) = self.shared.admit(node) {
                // fail fast without touching the wire (no fault-plan
                // sequence is consumed, so seeded runs stay reproducible);
                // back off and re-resolve — a reinstantiation may land
                fast_fail = Some(down);
                if attempt + 1 < attempts {
                    self.shared.counters.retries.fetch_add(1, Ordering::Relaxed);
                    let jitter = self.shared.next_jitter_ms(backoff_ms);
                    std::thread::sleep(Duration::from_millis(backoff_ms + jitter));
                    backoff_ms = backoff_ms.saturating_mul(2);
                }
                continue;
            }
            fast_fail = None;
            let (reply, rx) = bounded(1);
            self.shared.send_from(
                None,
                node,
                Message::Invoke {
                    object,
                    method: method.to_owned(),
                    payload: Bytes::copy_from_slice(payload),
                    hops: MAX_HOPS,
                    reply,
                },
            )?;
            match rx.recv_timeout(timeout) {
                Ok(res) => {
                    self.shared.settle_call(node, true);
                    return Ok(res?.to_vec());
                }
                Err(_) => {
                    // Timeout, or the worker crashed holding our reply
                    // channel — both mean "no answer within the deadline"
                    self.shared.settle_call(node, false);
                    waited_ms += timeout.as_millis() as u64;
                    self.shared
                        .counters
                        .timeouts
                        .fetch_add(1, Ordering::Relaxed);
                    if attempt + 1 < attempts {
                        self.shared.counters.retries.fetch_add(1, Ordering::Relaxed);
                        let jitter = self.shared.next_jitter_ms(backoff_ms);
                        std::thread::sleep(Duration::from_millis(backoff_ms + jitter));
                        backoff_ms = backoff_ms.saturating_mul(2);
                    }
                }
            }
        }
        if self.shared.is_closing() {
            Err(RuntimeError::ShuttingDown)
        } else if let Some(down) = fast_fail {
            Err(down)
        } else {
            Err(RuntimeError::Timeout { waited_ms })
        }
    }

    /// Opens a move-block: requests migration of `object` (and its
    /// attachment closure) to `to` and returns an RAII guard whose `Drop`
    /// issues the `end`-request. Check [`MoveGuard::granted`] — under
    /// transient placement a concurrent holder leads to a denial, in which
    /// case invocations simply stay remote.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`].
    pub fn move_block(&self, object: ObjectId, to: NodeId) -> Result<MoveGuard<'_>, RuntimeError> {
        self.move_block_in(object, to, None)
    }

    /// Like [`Cluster::move_block`], with an explicit cooperation context:
    /// the migration drags the A-transitive closure of that alliance (§3.4).
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`].
    pub fn move_block_in(
        &self,
        object: ObjectId,
        to: NodeId,
        context: Option<AllianceId>,
    ) -> Result<MoveGuard<'_>, RuntimeError> {
        self.check_node(to)?;
        self.check_live()?;
        let node = self
            .shared
            .directory_get(object)
            .ok_or(RuntimeError::UnknownObject(object))?;
        // both ends must be admitted: the host processes the request, the
        // destination receives the object
        self.shared.admit(node)?;
        if let Err(down) = self.shared.admit(to) {
            // hand back the probe slot admit(node) may have claimed
            self.shared.settle_call(node, false);
            return Err(down);
        }
        let block = BlockId::new(self.shared.next_block.fetch_add(1, Ordering::Relaxed));
        self.shared.trace.emit(
            CLIENT_PROCESS,
            EventKind::MoveRequested { object, to, block },
        );
        let (reply, rx) = bounded(1);
        self.shared.send_from(
            None,
            node,
            Message::MoveRequest {
                object,
                to,
                block,
                context,
                hops: MAX_HOPS,
                // the request carries the same deadline await_reply enforces:
                // a node that sees it later than this denies it, so a move
                // this caller gave up on can never be granted behind its back
                expires: Instant::now() + self.shared.call_timeout,
                reply,
            },
        )?;
        // one attempt only: a move is not idempotent (re-sending could
        // grant twice under two blocks)
        let res = self.await_reply(&rx);
        self.shared.settle_call(node, res.is_ok());
        self.shared.settle_call(to, res.is_ok());
        let granted = res??;
        Ok(MoveGuard {
            cluster: self,
            object,
            block,
            from: to,
            context,
            granted,
            migrate_back: None,
            ended: false,
        })
    }

    /// A `visit`-block (§2.3): a move combined with a migrate-back — on drop
    /// the guard issues the end-request and sends the object home.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`].
    pub fn visit_block(&self, object: ObjectId, to: NodeId) -> Result<MoveGuard<'_>, RuntimeError> {
        let origin = self.shared.directory_get(object);
        let mut guard = self.move_block_in(object, to, None)?;
        if guard.granted {
            guard.migrate_back = origin.filter(|&o| o != to);
        }
        Ok(guard)
    }

    /// Executes an operation declared with `move`/`visit` parameter modes
    /// (§2.3, Fig. 1): call-by-move / call-by-visit.
    ///
    /// Each `move` argument is migrated to the callee's node for the
    /// duration of the invocation and stays there; each `visit` argument
    /// migrates back afterwards; `ref` arguments are untouched. Whether a
    /// parameter migration is honoured is, as always, up to the installed
    /// policy — under transient placement a locked argument simply stays
    /// remote and the call proceeds anyway.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ArityMismatch`] if `args` does not match the
    /// declaration, plus everything [`Cluster::invoke`] can report.
    pub fn invoke_with_decl(
        &self,
        callee: ObjectId,
        decl: &oml_core::lang::OperationDecl,
        args: &[ObjectId],
        payload: &[u8],
    ) -> Result<Vec<u8>, RuntimeError> {
        use oml_core::lang::ParamMode;

        if args.len() != decl.params.len() {
            return Err(RuntimeError::ArityMismatch {
                expected: decl.params.len(),
                got: args.len(),
            });
        }
        let callee_node = self
            .shared
            .directory_get(callee)
            .ok_or(RuntimeError::UnknownObject(callee))?;

        // open the parameter move-blocks; the guards end them (and run the
        // visit migrate-backs) when the invocation completes
        let mut guards = Vec::new();
        for (&arg, mode) in args.iter().zip(decl.modes()) {
            match mode {
                ParamMode::Ref => {}
                ParamMode::Move => guards.push(self.move_block(arg, callee_node)?),
                ParamMode::Visit => guards.push(self.visit_block(arg, callee_node)?),
            }
        }
        let result = self.invoke(callee, &decl.name, payload);
        drop(guards);
        result
    }

    /// Where the object currently is (per the directory).
    #[must_use]
    pub fn location_of(&self, object: ObjectId) -> Option<NodeId> {
        self.shared.directory_get(object)
    }

    /// A snapshot of every object's current location, in id order — the
    /// operator's view of the placement the policies produced.
    #[must_use]
    pub fn placement_snapshot(&self) -> Vec<(ObjectId, NodeId)> {
        let dir = self.shared.directory.read();
        let mut v: Vec<(ObjectId, NodeId)> = dir.iter().map(|(&o, &n)| (o, n)).collect();
        v.sort_unstable_by_key(|&(o, _)| o);
        v
    }

    /// How many objects each node currently hosts (index = node id) — a
    /// quick load-balance view.
    #[must_use]
    pub fn occupancy(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.shared.mesh.peers() as usize];
        for (_, node) in self.placement_snapshot() {
            counts[node.index()] += 1;
        }
        counts
    }

    /// A snapshot of the cluster's activity counters.
    #[must_use]
    pub fn stats(&self) -> ClusterStats {
        use std::sync::atomic::Ordering::Relaxed;
        let c = &self.shared.counters;
        ClusterStats {
            invocations: c.invocations.load(Relaxed),
            moves_granted: c.moves_granted.load(Relaxed),
            moves_denied: c.moves_denied.load(Relaxed),
            objects_migrated: c.objects_migrated.load(Relaxed),
            forwards: c.forwards.load(Relaxed),
            timeouts: c.timeouts.load(Relaxed),
            retries: c.retries.load(Relaxed),
            leases_expired: c.leases_expired.load(Relaxed),
            suspicions: c.suspicions.load(Relaxed),
            false_suspicions: c.false_suspicions.load(Relaxed),
            reinstantiations: c.reinstantiations.load(Relaxed),
            fenced_stale: c.fenced_stale.load(Relaxed),
            breaker_opens: c.breaker_opens.load(Relaxed),
            checkpoint_refreshes: c.checkpoint_refreshes.load(Relaxed),
            quorum_refreshes: c.quorum_refreshes.load(Relaxed),
            quorum_refresh_failures: c.quorum_refresh_failures.load(Relaxed),
            repairs: c.repairs.load(Relaxed),
        }
    }

    /// Per-object checkpoint durability margins, in object-id order: live
    /// replica count, refresh age and the freshest quorum-acked write.
    /// Empty without a failure detector.
    #[must_use]
    pub fn checkpoint_health(&self) -> Vec<CheckpointHealth> {
        let Some(rec) = &self.shared.recovery else {
            return Vec::new();
        };
        let now = self.shared.now_ms();
        // sequential acquisition (stores, then replication) — never nested
        let counts: HashMap<ObjectId, u32> = {
            let stores = rec.replica_stores.lock();
            let mut m = HashMap::new();
            for (n, store) in stores.iter().enumerate() {
                if !rec.replica_available(n) {
                    continue;
                }
                for o in store.objects() {
                    *m.entry(o).or_insert(0) += 1;
                }
            }
            m
        };
        let mut v: Vec<CheckpointHealth> = {
            let repl = rec.replication.lock();
            repl.iter()
                .map(|(&object, info)| CheckpointHealth {
                    object,
                    replicas: counts.get(&object).copied().unwrap_or(0),
                    refresh_age_ms: now.saturating_sub(info.last_refresh_at_ms),
                    quorum: info.last_quorum,
                })
                .collect()
        };
        v.sort_unstable_by_key(|h| h.object);
        v
    }

    /// The object's current replica set: the first `k` *available* nodes in
    /// its deterministic placement preference order (home first, then
    /// rendezvous-hashed). `None` without a detector or for an unknown
    /// object.
    #[must_use]
    pub fn replica_set(&self, object: ObjectId) -> Option<Vec<NodeId>> {
        let rec = self.shared.recovery.as_ref()?;
        let home = {
            let repl = rec.replication.lock();
            repl.get(&object)?.home
        };
        Some(
            preference_order(object, home, self.shared.mesh.peers() as usize)
                .into_iter()
                .filter(|n| rec.replica_available(n.index()))
                .take(rec.replica_k)
                .collect(),
        )
    }

    /// The object's current epoch: 0 at birth, bumped by every
    /// reinstantiation. Always 0 without a failure detector.
    #[must_use]
    pub fn object_epoch(&self, object: ObjectId) -> u64 {
        self.shared.object_epoch(object)
    }

    /// Whether the object is currently resident at `node`.
    #[must_use]
    pub fn is_resident(&self, object: ObjectId, node: NodeId) -> bool {
        self.location_of(object) == Some(node)
    }

    /// `fix()` — transiently pins the object (§2.2).
    pub fn fix(&self, object: ObjectId) {
        self.shared
            .mobility
            .write()
            .entry(object)
            .or_default()
            .fix();
    }

    /// `unfix()` — lifts a transient fix.
    pub fn unfix(&self, object: ObjectId) {
        self.shared
            .mobility
            .write()
            .entry(object)
            .or_default()
            .unfix();
    }

    /// `refix()` — re-establishes a transient fix.
    pub fn refix(&self, object: ObjectId) {
        self.shared
            .mobility
            .write()
            .entry(object)
            .or_default()
            .refix();
    }

    /// `attach(object, to)` in an optional cooperation context.
    ///
    /// # Errors
    ///
    /// Propagates [`AttachError`] (self-attachment, unknown alliance,
    /// non-member endpoints).
    pub fn attach(
        &self,
        object: ObjectId,
        to: ObjectId,
        context: Option<AllianceId>,
    ) -> Result<AttachOutcome, AttachError> {
        let outcome = {
            let alliances = self.shared.alliances.lock();
            self.shared
                .attachments
                .lock()
                .attach_checked(object, to, context, &alliances)
        };
        if outcome.is_ok() {
            self.shared
                .trace
                .emit(CLIENT_PROCESS, EventKind::Attach { a: object, b: to });
        }
        outcome
    }

    /// `detach(object, to)`; returns whether an edge was removed.
    pub fn detach(&self, object: ObjectId, to: ObjectId) -> bool {
        let removed = self.shared.attachments.lock().detach(object, to);
        if removed {
            self.shared
                .trace
                .emit(CLIENT_PROCESS, EventKind::Detach { a: object, b: to });
        }
        removed
    }

    /// Creates an alliance.
    pub fn create_alliance(&self, name: &str) -> AllianceId {
        self.shared.alliances.lock().create(name)
    }

    /// Adds an object to an alliance.
    ///
    /// # Errors
    ///
    /// Propagates [`oml_core::error::AllianceError`].
    pub fn join_alliance(
        &self,
        alliance: AllianceId,
        object: ObjectId,
    ) -> Result<(), oml_core::error::AllianceError> {
        self.shared.alliances.lock().join(alliance, object)
    }

    /// Crashes `node`: its worker stashes the hosted objects (they survive
    /// the "machine", like disk state) and exits without draining its
    /// queue. Messages keep queueing for the node and are processed after
    /// [`Cluster::restart_node`]; until then, calls against its objects
    /// time out. Idempotent — crashing a crashed node is a no-op.
    ///
    /// Placement locks on the stashed objects were *volatile* state of the
    /// dead host: the blocks holding them ran there and their end-requests
    /// can never arrive, so the policy releases them here instead of leaving
    /// the objects locked until lease expiry (or forever, without a TTL).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownNode`] for an out-of-range node.
    pub fn crash_node(&self, node: NodeId) -> Result<(), RuntimeError> {
        self.check_node(node)?;
        let handle = self.handles.lock()[node.index()].take();
        let Some(handle) = handle else {
            return Ok(());
        };
        // the crash command bypasses the injector: it is scripted, not a
        // message fault
        // raw (deadline-free) sender: the scripted crash command must reach
        // the worker even through a full inbox
        let _ = self
            .shared
            .mesh
            .sender(node.as_u32())
            .send(Envelope::untraced(Message::Crash));
        let _ = handle.join();
        self.shared.injector.note(format!("crash {node}"));
        self.shared
            .trace
            .emit(CLIENT_PROCESS, EventKind::Crash { node });
        // the worker has stashed its objects (join() ordered that before
        // this read); release the locks their dead blocks held
        let stranded: Vec<ObjectId> = {
            let stash = self.shared.stash.lock();
            stash
                .iter()
                .filter(|(home, _, _, _)| *home == node)
                .map(|(_, object, _, _)| *object)
                .collect()
        };
        if !stranded.is_empty() {
            // emitted under the policy guard: lock-state events are ordered
            // by the policy mutex so the trace mirrors the lock table
            let mut policy = self.shared.policy.lock();
            for (object, block) in policy.release_locks_for(&stranded) {
                self.shared.trace.emit(
                    CLIENT_PROCESS,
                    EventKind::LockReleased {
                        object,
                        block,
                        cause: ReleaseCause::Crash,
                    },
                );
            }
        }
        Ok(())
    }

    /// Restarts a crashed node: a fresh worker resumes on the node's
    /// (still-queued) channel and reclaims the stashed objects.
    ///
    /// With a failure detector the node rejoins under a **fresh
    /// incarnation**: its old epoch stays fenced, and reclamation skips any
    /// stashed object that was reinstantiated elsewhere while the node was
    /// down — the restarted node does not reclaim what it no longer owns.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownNode`] for an out-of-range node;
    /// [`RuntimeError::NotDead`] if the node's worker is still running —
    /// restarting a live node would bump its incarnation out from under the
    /// live worker and re-seed its health inconsistently, so only crashed
    /// (or fenced-zombie-exited) nodes can be restarted. `NotDead` is also
    /// returned transiently while a fenced zombie is still winding down;
    /// retry after it exits.
    pub fn restart_node(&self, node: NodeId) -> Result<(), RuntimeError> {
        self.check_node(node)?;
        let mut handles = self.handles.lock();
        if let Some(handle) = &handles[node.index()] {
            if !handle.is_finished() {
                return Err(RuntimeError::NotDead(node));
            }
            // a fenced zombie exited on its own; reap it and respawn
            if let Some(handle) = handles[node.index()].take() {
                let _ = handle.join();
            }
        }
        self.shared.injector.note(format!("restart {node}"));
        self.shared
            .trace
            .emit(CLIENT_PROCESS, EventKind::Restart { node });
        let epoch = self.shared.rejoin(node);
        handles[node.index()] = Some(spawn_worker(&self.shared, node, epoch));
        Ok(())
    }

    /// Fault-injection hook: restarts a crashed node under its **old**
    /// incarnation — a "zombie" that believes it still owns its stashed
    /// objects. With fencing (the default) the zombie notices the newer
    /// epoch and exits without reclaiming anything; built
    /// with [`Mutation::Unfenced`], it double-installs state the cluster
    /// already reinstantiated elsewhere — the corruption `oml-check`'s
    /// stale-incarnation invariant flags. Idempotent on a running node.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownNode`] for an out-of-range node.
    pub fn zombie_restart_node(&self, node: NodeId) -> Result<(), RuntimeError> {
        self.check_node(node)?;
        let mut handles = self.handles.lock();
        if let Some(handle) = &handles[node.index()] {
            if !handle.is_finished() {
                return Ok(());
            }
            if let Some(handle) = handles[node.index()].take() {
                let _ = handle.join();
            }
        }
        // the incarnation it crashed with: one before the current fence
        let stale_epoch = self
            .shared
            .incarnation(node.as_u32())
            .saturating_sub(1)
            .max(1);
        self.shared.injector.note(format!("zombie-restart {node}"));
        self.shared
            .trace
            .emit(CLIENT_PROCESS, EventKind::Restart { node });
        handles[node.index()] = Some(spawn_worker(&self.shared, node, stale_epoch));
        Ok(())
    }

    /// Runs one failure-detector sweep at the current clock: suspects
    /// silent or partitioned nodes, clears suspicions whose beats resumed,
    /// and declares dead (reinstantiating their objects) the silent nodes
    /// whose workers are actually gone. Under a wall clock the monitor
    /// thread calls this every heartbeat; manual-clock tests call it
    /// directly after [`Cluster::advance_clock`]. A no-op without a
    /// detector.
    pub fn detector_sweep(&self) {
        self.shared.detector_sweep();
    }

    /// The failure detector's current verdict on `node`; `None` without a
    /// detector or for an out-of-range node.
    #[must_use]
    pub fn node_health(&self, node: NodeId) -> Option<NodeHealth> {
        if node.index() >= self.shared.mesh.peers() as usize {
            return None;
        }
        self.shared
            .recovery
            .as_ref()
            .map(|rec| rec.health(node.index()))
    }

    /// Severs the link between two nodes (both directions) for control
    /// messages until [`Cluster::heal`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownNode`] for an out-of-range node.
    pub fn partition(&self, a: NodeId, b: NodeId) -> Result<(), RuntimeError> {
        self.check_node(a)?;
        self.check_node(b)?;
        self.shared.injector.partition(a, b);
        Ok(())
    }

    /// Heals a partition created by [`Cluster::partition`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownNode`] for an out-of-range node.
    pub fn heal(&self, a: NodeId, b: NodeId) -> Result<(), RuntimeError> {
        self.check_node(a)?;
        self.check_node(b)?;
        self.shared.injector.heal(a, b);
        Ok(())
    }

    /// Heals every partition.
    pub fn heal_all(&self) {
        self.shared.injector.heal_all();
    }

    /// The fault events injected so far (drops, duplicates, delays,
    /// partitions, crashes, restarts) in decision order. With a seeded
    /// plan and a sequential caller, identical runs produce identical
    /// traces.
    #[must_use]
    pub fn fault_trace(&self) -> Vec<String> {
        self.shared.injector.trace()
    }

    /// Whether protocol tracing is enabled ([`ClusterBuilder::trace`]).
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.shared.trace.is_enabled()
    }

    /// Drains the protocol trace collected so far — the structured event
    /// stream [`oml_check::check_trace`] verifies. Call after quiescing the
    /// cluster ([`Cluster::shutdown`]) for a complete picture; each process's
    /// slice of the returned vector is that process's program order.
    #[must_use]
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        self.shared.trace.take()
    }

    /// The placement locks the policy currently holds — for invariant
    /// checks ("no leaked locks after quiescence").
    #[must_use]
    pub fn held_locks(&self) -> Vec<(ObjectId, BlockId)> {
        self.shared.policy.lock().held_locks()
    }

    /// Forces a lease sweep at the current clock, returning the locks it
    /// expired. Workers sweep on their idle ticks anyway; this is for tests
    /// that want the sweep *now*.
    pub fn sweep_leases(&self) -> Vec<(ObjectId, BlockId)> {
        let now = self.shared.now_ms();
        let expired = {
            let mut policy = self.shared.policy.lock();
            let expired = policy.expire_leases(now);
            for &(object, block) in &expired {
                self.shared.trace.emit(
                    CLIENT_PROCESS,
                    EventKind::LockReleased {
                        object,
                        block,
                        cause: ReleaseCause::LeaseExpiry,
                    },
                );
            }
            expired
        };
        self.shared
            .counters
            .leases_expired
            .fetch_add(expired.len() as u64, Ordering::Relaxed);
        expired
    }

    /// Advances the manual lease clock by `ms` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics unless the cluster was built with
    /// [`ClusterBuilder::manual_clock`].
    pub fn advance_clock(&self, ms: u64) {
        match &self.shared.clock {
            RuntimeClock::Manual(t) => {
                t.fetch_add(ms, Ordering::Relaxed);
                // the jump is instantaneous for the workers: credit every
                // live node with the beats it would have produced across it
                // (a crashed node's silence is exactly what must remain)
                self.shared.refresh_beats();
            }
            RuntimeClock::Wall(_) => {
                panic!("advance_clock requires ClusterBuilder::manual_clock")
            }
        }
    }

    /// Stops all node threads and waits for them. Pending end-requests
    /// already queued are flushed (workers drain their queues, answering
    /// any still-waiting callers with [`RuntimeError::ShuttingDown`]); once
    /// the workers are joined, further sends fail explicitly instead of
    /// queueing into dead channels. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&self) {
        if self.shared.closing.swap(true, Ordering::AcqRel) {
            return;
        }
        // raw senders: Shutdown must be deliverable through full inboxes
        for i in 0..self.shared.mesh.peers() {
            let _ = self
                .shared
                .mesh
                .sender(i)
                .send(Envelope::untraced(Message::Shutdown));
        }
        for handle in self.handles.lock().iter_mut().filter_map(Option::take) {
            let _ = handle.join();
        }
        if let Some(monitor) = self.monitor.lock().take() {
            let _ = monitor.join();
        }
        self.shared.mesh.shutdown();
        self.shared.down.store(true, Ordering::Release);
    }

    fn check_node(&self, node: NodeId) -> Result<(), RuntimeError> {
        if node.index() < self.shared.mesh.peers() as usize {
            Ok(())
        } else {
            Err(RuntimeError::UnknownNode(node))
        }
    }

    fn check_live(&self) -> Result<(), RuntimeError> {
        if self.shared.is_closing() {
            Err(RuntimeError::ShuttingDown)
        } else {
            Ok(())
        }
    }

    /// Waits for a reply under the call deadline. The outer `Result` is the
    /// transport's verdict (timeout / shutdown), the inner one the reply.
    fn await_reply<T>(
        &self,
        rx: &Receiver<Result<T, RuntimeError>>,
    ) -> Result<Result<T, RuntimeError>, RuntimeError> {
        let timeout = self.shared.call_timeout;
        match rx.recv_timeout(timeout) {
            Ok(res) => Ok(res),
            // A disconnect outside shutdown means the worker crashed while
            // holding our reply channel — same contract as a timeout.
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                self.shared
                    .counters
                    .timeouts
                    .fetch_add(1, Ordering::Relaxed);
                if self.shared.is_closing() {
                    Err(RuntimeError::ShuttingDown)
                } else {
                    Err(RuntimeError::Timeout {
                        waited_ms: timeout.as_millis() as u64,
                    })
                }
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes())
            .field("objects", &self.shared.directory.read().len())
            .finish()
    }
}

/// An open move-block (§2.3). Dropping it issues the `end`-request — and,
/// for [`Cluster::visit_block`], the migrate-back.
#[derive(Debug)]
pub struct MoveGuard<'c> {
    cluster: &'c Cluster,
    object: ObjectId,
    block: BlockId,
    /// The requester's node (where the object was moved to).
    from: NodeId,
    context: Option<AllianceId>,
    granted: bool,
    migrate_back: Option<NodeId>,
    ended: bool,
}

impl MoveGuard<'_> {
    /// Whether the move was granted (vs denied by a conflicting holder).
    #[must_use]
    pub fn granted(&self) -> bool {
        self.granted
    }

    /// The object this block works on.
    #[must_use]
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// Ends the block explicitly (equivalent to dropping the guard).
    pub fn end(mut self) {
        let _ = self.finish();
    }

    /// Ends the block, surfacing whether the end-request could be sent —
    /// `Err(ShuttingDown)` when the cluster's workers are already gone (a
    /// plain drop swallows that; under leases the lock still expires).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShuttingDown`] if the end-request had no live
    /// cluster to go to.
    pub fn try_end(mut self) -> Result<(), RuntimeError> {
        self.finish()
    }

    fn finish(&mut self) -> Result<(), RuntimeError> {
        if self.ended {
            return Ok(());
        }
        self.ended = true;
        let shared = &self.cluster.shared;
        let mut sent = Ok(());
        if let Some(node) = shared.directory_get(self.object) {
            sent = shared.send_from(
                None,
                node,
                Message::EndRequest {
                    object: self.object,
                    block: self.block,
                    from: self.from,
                    was_granted: self.granted,
                    context: self.context,
                    hops: MAX_HOPS,
                },
            );
        }
        if let Some(origin) = self.migrate_back.take() {
            // the visit's migrate-back: an ordinary (best-effort) move
            if let Ok(guard) = self
                .cluster
                .move_block_in(self.object, origin, self.context)
            {
                let mut guard = guard;
                // immediately release: the visit's return is not a block
                let _ = guard.finish();
            }
        }
        sent
    }
}

impl Drop for MoveGuard<'_> {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}
