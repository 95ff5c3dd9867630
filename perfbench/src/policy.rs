//! A [`MovePolicy`] wrapper that delegates every trait method to transient
//! placement and records a policy-layer span around each call while tracing
//! is on. The cluster runs it in untraced runs too, so both run the same
//! configuration.

use crate::spans::{self, Kind, NO_GROUP};
use oml_core::ids::{BlockId, NodeId, ObjectId};
use oml_core::policy::{EndAction, EndRequest, MoveDecision, MovePolicy, MoveRequest, PolicyKind};
use std::sync::{Arc, OnceLock};

/// Object id (as index) to span group, filled in once the objects exist.
pub type Groups = Arc<OnceLock<Vec<u32>>>;

pub fn group_of(groups: &Groups, object: ObjectId) -> u32 {
    groups
        .get()
        .and_then(|g| g.get(object.as_u32() as usize).copied())
        .unwrap_or(NO_GROUP)
}

#[derive(Debug)]
pub struct TimedPolicy {
    inner: Box<dyn MovePolicy>,
    groups: Groups,
}

impl TimedPolicy {
    pub fn new(groups: Groups) -> TimedPolicy {
        TimedPolicy {
            inner: PolicyKind::TransientPlacement.build(),
            groups,
        }
    }

    fn group(&self, object: ObjectId) -> u32 {
        group_of(&self.groups, object)
    }
}

impl MovePolicy for TimedPolicy {
    fn kind(&self) -> PolicyKind {
        spans::timed(Kind::PolicyOther, NO_GROUP, |_| 0, || self.inner.kind())
    }

    fn uses_move_requests(&self) -> bool {
        spans::timed(
            Kind::PolicyOther,
            NO_GROUP,
            |_| 0,
            || self.inner.uses_move_requests(),
        )
    }

    fn on_move(&mut self, req: &MoveRequest) -> MoveDecision {
        let group = self.group(req.object);
        spans::timed(
            Kind::PolicyMove,
            group,
            |d| u32::from(*d == MoveDecision::Grant),
            || self.inner.on_move(req),
        )
    }

    fn on_installed(&mut self, object: ObjectId, node: NodeId, block: BlockId) {
        let group = self.group(object);
        spans::timed(
            Kind::PolicyInstalled,
            group,
            |_| 0,
            || {
                self.inner.on_installed(object, node, block);
            },
        );
    }

    fn on_end(&mut self, req: &EndRequest) -> EndAction {
        let group = self.group(req.object);
        spans::timed(Kind::PolicyEnd, group, |_| 0, || self.inner.on_end(req))
    }

    fn on_arrival(&mut self, object: ObjectId, node: NodeId) {
        let group = self.group(object);
        spans::timed(
            Kind::PolicyOther,
            group,
            |_| 0,
            || {
                self.inner.on_arrival(object, node);
            },
        );
    }

    fn is_pinned(&self, object: ObjectId) -> bool {
        let group = self.group(object);
        spans::timed(
            Kind::PolicyOther,
            group,
            |_| 0,
            || self.inner.is_pinned(object),
        )
    }

    fn renew_lease(&mut self, object: ObjectId, now_ms: u64) {
        let group = self.group(object);
        spans::timed(
            Kind::PolicyRenew,
            group,
            |_| 0,
            || {
                self.inner.renew_lease(object, now_ms);
            },
        );
    }

    fn expire_leases(&mut self, now_ms: u64) -> Vec<(ObjectId, BlockId)> {
        spans::timed(
            Kind::PolicyOther,
            NO_GROUP,
            |_| 0,
            || self.inner.expire_leases(now_ms),
        )
    }

    fn lease_ttl_ms(&self) -> Option<u64> {
        spans::timed(
            Kind::PolicyOther,
            NO_GROUP,
            |_| 0,
            || self.inner.lease_ttl_ms(),
        )
    }

    fn release_locks_for(&mut self, objects: &[ObjectId]) -> Vec<(ObjectId, BlockId)> {
        spans::timed(
            Kind::PolicyOther,
            NO_GROUP,
            |_| 0,
            || self.inner.release_locks_for(objects),
        )
    }

    fn held_locks(&self) -> Vec<(ObjectId, BlockId)> {
        spans::timed(
            Kind::PolicyOther,
            NO_GROUP,
            |_| 0,
            || self.inner.held_locks(),
        )
    }
}
