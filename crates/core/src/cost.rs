//! The analytical cost model of §3.2.
//!
//! Let `C` be the cost of one remote invocation *message*, `N` the number of
//! calls to the object inside a move-block, and `M` the cost of a migration
//! (`M > C`, since the object's state dwarfs a call frame). A move-block is
//! *sensible* when `N·C > M` — the paper assumes programmers only write
//! sensible blocks, and the workload generators enforce it.
//!
//! For the two-mover conflict of Fig. 4 the paper derives:
//!
//! * **place-policy**: `M + (2N + 1)·C` — one migration, the loser performs
//!   its `N` invocations remotely (call + result each) plus one denial
//!   indication message;
//! * **conventional move (worst case)**: `2M + (2N + 2)·C` — the object
//!   migrates twice, the first mover's `N` calls all happen remotely after
//!   the steal, and both move-requests cost a message.
//!
//! Placement therefore always saves `M + C` in this scenario, which is the
//! seed of the simulation results in §4.2.

/// The §3.2 cost parameters.
///
/// # Example
///
/// ```
/// use oml_core::cost::CostModel;
///
/// // The paper's simulation defaults: M = 6, C = 1 (normalized).
/// let model = CostModel::new(6.0, 1.0);
/// assert!(model.is_sensible_block(8));
/// assert!(model.placement_conflict(8) < model.conventional_conflict_worst(8));
/// assert_eq!(model.placement_advantage(8), 6.0 + 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    migration: f64,
    message: f64,
}

impl CostModel {
    /// Creates a model with migration cost `m` and message cost `c`.
    ///
    /// # Panics
    ///
    /// Panics unless both costs are finite and positive; the paper further
    /// assumes `M > C` ("naturally M > C"), which is asserted as well.
    #[must_use]
    pub fn new(m: f64, c: f64) -> Self {
        assert!(m.is_finite() && m > 0.0, "migration cost must be positive");
        assert!(c.is_finite() && c > 0.0, "message cost must be positive");
        assert!(m > c, "a migration must cost more than a message (M > C)");
        CostModel {
            migration: m,
            message: c,
        }
    }

    /// The paper's normalized simulation parameters: `M = 6`, `C = 1`.
    #[must_use]
    pub fn paper() -> Self {
        CostModel::new(6.0, 1.0)
    }

    /// Migration cost `M`.
    #[must_use]
    pub fn migration(&self) -> f64 {
        self.migration
    }

    /// Message cost `C`.
    #[must_use]
    pub fn message(&self) -> f64 {
        self.message
    }

    /// Whether a block of `n` invocations satisfies the sensibility
    /// criterion `N·C > M`.
    #[must_use]
    pub fn is_sensible_block(&self, n: u64) -> bool {
        n as f64 * self.message > self.migration
    }

    /// The smallest call count that makes a move-block sensible.
    #[must_use]
    pub fn min_sensible_calls(&self) -> u64 {
        // smallest integer n with n·C > M
        (self.migration / self.message).floor() as u64 + 1
    }

    /// Cost of executing a block of `n` invocations purely remotely (no
    /// migration at all): `2N·C`.
    #[must_use]
    pub fn remote_block(&self, n: u64) -> f64 {
        2.0 * n as f64 * self.message
    }

    /// Cost of an uncontended, granted move-block: one move-request message,
    /// one migration, `n` local calls: `M + C`.
    #[must_use]
    pub fn uncontended_move(&self, _n: u64) -> f64 {
        self.migration + self.message
    }

    /// §3.2, place-policy under the two-mover conflict: `M + (2N + 1)·C`.
    #[must_use]
    pub fn placement_conflict(&self, n: u64) -> f64 {
        self.migration + (2 * n + 1) as f64 * self.message
    }

    /// §3.2, conventional move worst case under the two-mover conflict:
    /// `2M + (2N + 2)·C`.
    #[must_use]
    pub fn conventional_conflict_worst(&self, n: u64) -> f64 {
        2.0 * self.migration + (2 * n + 2) as f64 * self.message
    }

    /// How much placement saves over the conventional worst case: always
    /// `M + C`, independent of `N`.
    #[must_use]
    pub fn placement_advantage(&self, n: u64) -> f64 {
        self.conventional_conflict_worst(n) - self.placement_conflict(n)
    }

    /// Cost of migrating an attachment closure of `k` objects (each of unit
    /// size): `k·M`. This is the quantity a mover *underestimates* when other
    /// applications have silently enlarged the transitive closure (§2.4).
    #[must_use]
    pub fn closure_migration(&self, k: usize) -> f64 {
        k as f64 * self.migration
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper()
    }
}

/// Closed-form predictions for the sedentary baseline, used to anchor the
/// simulator (§4.2.1's "the mean duration of a call for sedentary nodes is
/// 4/3" sanity check, generalized).
///
/// A client picks uniformly among `servers`; `local` of them sit on the
/// client's own node. A local call is free, a remote one costs a call plus a
/// result message (2·C):
///
/// ```
/// use oml_core::cost::sedentary_call_time;
///
/// // the paper's Fig. 8 world: 3 servers, 1 per node → 4/3
/// assert!((sedentary_call_time(3, 1, 1.0) - 4.0 / 3.0).abs() < 1e-12);
/// // the Fig. 12 world: servers and clients mostly apart → 2
/// assert_eq!(sedentary_call_time(3, 0, 1.0), 2.0);
/// ```
///
/// # Panics
///
/// Panics if `servers == 0`, `local > servers`, or `message_cost` is not
/// finite and positive.
#[must_use]
pub fn sedentary_call_time(servers: u32, local: u32, message_cost: f64) -> f64 {
    assert!(servers > 0, "a client needs servers");
    assert!(local <= servers, "more local servers than servers");
    assert!(
        message_cost.is_finite() && message_cost > 0.0,
        "message cost must be positive"
    );
    let p_remote = 1.0 - f64::from(local) / f64::from(servers);
    2.0 * message_cost * p_remote
}

/// Closed-form prediction for the *uncontended* migrating client in the
/// steady state: once the object lives at the client's node, a block only
/// pays when it picks a server that is not already local. With one client
/// and `servers` servers kept at the client's node by its own moves, the
/// steady-state cost per call tends to `0`; with the servers initially
/// spread one per node, the transient per-block cost is `(M + C)·p_remote`
/// amortized over `n` calls.
#[must_use]
pub fn uncontended_block_cost_per_call(model: &CostModel, n: u64, p_remote: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p_remote), "p_remote is a probability");
    p_remote * (model.migration() + model.message()) / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers() {
        let m = CostModel::paper();
        assert_eq!(m.migration(), 6.0);
        assert_eq!(m.message(), 1.0);
        // the worked example in §3.2 with N = 8:
        assert_eq!(m.placement_conflict(8), 6.0 + 17.0);
        assert_eq!(m.conventional_conflict_worst(8), 12.0 + 18.0);
    }

    #[test]
    fn placement_always_beats_conventional_worst_case() {
        for &(m, c) in &[(6.0, 1.0), (2.0, 1.0), (100.0, 0.5), (1.5, 1.0)] {
            let model = CostModel::new(m, c);
            for n in 1..200 {
                assert!(
                    model.placement_conflict(n) < model.conventional_conflict_worst(n),
                    "m={m} c={c} n={n}"
                );
                assert!((model.placement_advantage(n) - (m + c)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sensibility_threshold() {
        let m = CostModel::paper();
        assert!(!m.is_sensible_block(6)); // 6·1 = 6, not > 6
        assert!(m.is_sensible_block(7));
        assert_eq!(m.min_sensible_calls(), 7);
    }

    #[test]
    fn min_sensible_calls_is_tight() {
        for &(mig, msg) in &[(6.0, 1.0), (5.5, 1.0), (10.0, 3.0)] {
            let m = CostModel::new(mig, msg);
            let n = m.min_sensible_calls();
            assert!(m.is_sensible_block(n));
            assert!(!m.is_sensible_block(n - 1));
        }
    }

    #[test]
    fn closure_migration_scales_linearly() {
        let m = CostModel::paper();
        assert_eq!(m.closure_migration(0), 0.0);
        assert_eq!(m.closure_migration(1), 6.0);
        assert_eq!(m.closure_migration(12), 72.0);
    }

    #[test]
    fn remote_block_is_two_messages_per_call() {
        let m = CostModel::paper();
        assert_eq!(m.remote_block(8), 16.0);
    }

    #[test]
    #[should_panic(expected = "M > C")]
    fn message_dearer_than_migration_is_rejected() {
        let _ = CostModel::new(0.5, 1.0);
    }

    #[test]
    #[should_panic(expected = "migration cost must be positive")]
    fn nonpositive_migration_rejected() {
        let _ = CostModel::new(0.0, 1.0);
    }

    #[test]
    fn sedentary_predictions() {
        assert!((sedentary_call_time(3, 1, 1.0) - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(sedentary_call_time(1, 1, 1.0), 0.0);
        assert_eq!(sedentary_call_time(4, 0, 0.5), 1.0);
    }

    #[test]
    #[should_panic(expected = "more local servers")]
    fn sedentary_rejects_impossible_locality() {
        let _ = sedentary_call_time(2, 3, 1.0);
    }

    #[test]
    fn uncontended_block_cost_scales() {
        let m = CostModel::paper();
        // 2/3 remote picks, M + C = 7 per migration, 8 calls per block
        let v = uncontended_block_cost_per_call(&m, 8, 2.0 / 3.0);
        assert!((v - 7.0 * 2.0 / 3.0 / 8.0).abs() < 1e-12);
        assert_eq!(uncontended_block_cost_per_call(&m, 0, 0.5), 3.5);
    }
}
