//! Scenario configurations: Table 1's parameters plus each figure's values.

use std::error::Error;
use std::fmt;

/// The complete parameterization of one simulated world (Table 1).
///
/// | Field | Table 1 | Meaning |
/// |---|---|---|
/// | `nodes` | D | number of nodes (fixed) |
/// | `clients` | C | number of clients (fixed) |
/// | `servers1` | S₁ | first-layer servers (fixed) |
/// | `servers2` | S₂ | second-layer servers (fixed) |
/// | `migration_duration` | M | migration duration for servers (fixed) |
/// | `mean_calls` | N | calls per move-block (exponential) |
/// | `mean_think` | t_i | time between two calls in a block (exponential) |
/// | `mean_gap` | t_m | time between two move-blocks (exponential) |
///
/// The remote-call duration is fixed by normalization: exponential with
/// mean 1 (§4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Human-readable scenario name.
    pub name: String,
    /// `D` — number of nodes.
    pub nodes: u32,
    /// `C` — number of clients.
    pub clients: u32,
    /// `S₁` — first-layer servers.
    pub servers1: u32,
    /// `S₂` — second-layer servers (0 for the basic Fig. 6 structure).
    pub servers2: u32,
    /// `M` — migration duration of a unit-size server.
    pub migration_duration: f64,
    /// `N` — mean calls per move-block.
    pub mean_calls: f64,
    /// `t_i` — mean think time between calls.
    pub mean_think: f64,
    /// `t_m` — mean gap between move-blocks.
    pub mean_gap: f64,
    /// Size `w` of each first-layer server's second-layer working set;
    /// adjacent working sets overlap when `w > 1` (§3.4's hazard).
    pub working_set: u32,
    /// Simulated warm-up time excluded from metrics.
    pub warmup_time: f64,
    /// Probability that one remote message transmission is lost (each lost
    /// attempt costs [`ScenarioConfig::retransmit_timeout`]); 0 = the
    /// paper's reliable network.
    pub loss_probability: f64,
    /// Sender's retransmission timeout, in normalized message-time units.
    pub retransmit_timeout: f64,
}

impl ScenarioConfig {
    /// Figs. 8–11 (parameters of Fig. 9): `D=3, C=3, S₁=3, S₂=0, M=6,
    /// N~exp(8), t_i~exp(1)`, `t_m` swept along the x-axis.
    #[must_use]
    pub fn fig8(mean_gap: f64) -> Self {
        ScenarioConfig {
            name: format!("fig8(t_m={mean_gap})"),
            nodes: 3,
            clients: 3,
            servers1: 3,
            servers2: 0,
            migration_duration: 6.0,
            mean_calls: 8.0,
            mean_think: 1.0,
            mean_gap,
            working_set: 0,
            warmup_time: 500.0,
            loss_probability: 0.0,
            retransmit_timeout: 0.0,
        }
    }

    /// Figs. 12–13: `D=27, S₁=3, S₂=0, M=6, N~exp(8), t_i~exp(1),
    /// t_m~exp(30)`, the client count swept along the x-axis.
    #[must_use]
    pub fn fig12(clients: u32) -> Self {
        ScenarioConfig {
            name: format!("fig12(C={clients})"),
            nodes: 27,
            clients,
            servers1: 3,
            servers2: 0,
            migration_duration: 6.0,
            mean_calls: 8.0,
            mean_think: 1.0,
            mean_gap: 30.0,
            working_set: 0,
            warmup_time: 500.0,
            loss_probability: 0.0,
            retransmit_timeout: 0.0,
        }
    }

    /// Figs. 14–15 (dynamic policies): like Fig. 12 but on the small
    /// three-node world (`D=3`).
    #[must_use]
    pub fn fig14(clients: u32) -> Self {
        ScenarioConfig {
            name: format!("fig14(C={clients})"),
            nodes: 3,
            clients,
            servers1: 3,
            servers2: 0,
            migration_duration: 6.0,
            mean_calls: 8.0,
            mean_think: 1.0,
            mean_gap: 30.0,
            working_set: 0,
            warmup_time: 500.0,
            loss_probability: 0.0,
            retransmit_timeout: 0.0,
        }
    }

    /// Figs. 16–17 (attachments): `D=24, S₁=6, S₂=6, M=6, N~exp(6),
    /// t_i~exp(1), t_m~exp(30)`, overlapping working sets of size 2.
    #[must_use]
    pub fn fig16(clients: u32) -> Self {
        ScenarioConfig {
            name: format!("fig16(C={clients})"),
            nodes: 24,
            clients,
            servers1: 6,
            servers2: 6,
            migration_duration: 6.0,
            mean_calls: 6.0,
            mean_think: 1.0,
            mean_gap: 30.0,
            working_set: 2,
            warmup_time: 500.0,
            loss_probability: 0.0,
            retransmit_timeout: 0.0,
        }
    }

    /// Builder-style: degrade the network with message loss — each remote
    /// transmission is lost with probability `loss` and retransmitted after
    /// `retransmit_timeout` normalized time units (see
    /// [`oml_net::FaultConfig`]).
    #[must_use]
    pub fn with_loss(mut self, loss: f64, retransmit_timeout: f64) -> Self {
        self.loss_probability = loss;
        self.retransmit_timeout = retransmit_timeout;
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] naming the first violated constraint.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.nodes == 0 {
            return Err(ScenarioError("a scenario needs at least one node"));
        }
        if self.clients == 0 {
            return Err(ScenarioError("a scenario needs at least one client"));
        }
        if self.servers1 == 0 {
            return Err(ScenarioError("a scenario needs first-layer servers"));
        }
        if self.working_set > 0 && self.servers2 == 0 {
            return Err(ScenarioError("working sets require second-layer servers"));
        }
        if self.working_set as usize > self.servers2.max(1) as usize {
            return Err(ScenarioError("working sets cannot exceed the second layer"));
        }
        if !(self.migration_duration.is_finite() && self.migration_duration > 0.0) {
            return Err(ScenarioError("migration duration must be positive"));
        }
        for (v, what) in [
            (self.mean_calls, "mean calls"),
            (self.mean_think, "mean think time"),
            (self.mean_gap, "mean gap"),
            (self.warmup_time, "warm-up time"),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(ScenarioError(match what {
                    "mean calls" => "mean calls must be non-negative",
                    "mean think time" => "mean think time must be non-negative",
                    "mean gap" => "mean gap must be non-negative",
                    _ => "warm-up time must be non-negative",
                }));
            }
        }
        // The paper's sensibility requirement is "mean N bigger than M"
        // (§4.1) — yet its own Fig. 17 parameters use N = mean(6) with
        // M = 6, so `≥` is what the paper actually enforces.
        if self.mean_calls > 0.0 && self.mean_calls < self.migration_duration {
            return Err(ScenarioError(
                "move-blocks must be sensible: mean calls must reach the migration duration",
            ));
        }
        // mirror oml_net::FaultConfig::new's rules so a config file fails
        // here, not when the network is built
        if !(0.0..1.0).contains(&self.loss_probability) {
            return Err(ScenarioError("loss probability must lie in [0, 1)"));
        }
        if !(self.retransmit_timeout.is_finite() && self.retransmit_timeout >= 0.0) {
            return Err(ScenarioError("retransmit timeout must be non-negative"));
        }
        if self.loss_probability > 0.0 && self.retransmit_timeout == 0.0 {
            return Err(ScenarioError(
                "a lossy network needs a positive retransmit timeout",
            ));
        }
        Ok(())
    }
}

impl ScenarioConfig {
    /// Serializes to a simple `key = value` text format (one key per line,
    /// `#` comments) — a dependency-free way to keep scenarios in files.
    ///
    /// # Example
    ///
    /// ```
    /// use oml_workload::ScenarioConfig;
    ///
    /// let cfg = ScenarioConfig::fig16(8);
    /// let text = cfg.to_config_text();
    /// let back = ScenarioConfig::from_config_text(&text).unwrap();
    /// assert_eq!(cfg, back);
    /// ```
    #[must_use]
    pub fn to_config_text(&self) -> String {
        format!(
            "# oml scenario (Table 1 parameters)\n\
             name = {}\n\
             nodes = {}\n\
             clients = {}\n\
             servers1 = {}\n\
             servers2 = {}\n\
             migration_duration = {}\n\
             mean_calls = {}\n\
             mean_think = {}\n\
             mean_gap = {}\n\
             working_set = {}\n\
             warmup_time = {}\n\
             loss_probability = {}\n\
             retransmit_timeout = {}\n",
            self.name,
            self.nodes,
            self.clients,
            self.servers1,
            self.servers2,
            self.migration_duration,
            self.mean_calls,
            self.mean_think,
            self.mean_gap,
            self.working_set,
            self.warmup_time,
            self.loss_probability,
            self.retransmit_timeout,
        )
    }

    /// Parses the `key = value` format written by
    /// [`ScenarioConfig::to_config_text`]. Unknown keys are rejected,
    /// missing keys fall back to the Fig. 8 defaults, and the result is
    /// validated.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] for malformed lines, unknown keys, bad
    /// numbers or an inconsistent scenario.
    pub fn from_config_text(text: &str) -> Result<ScenarioConfig, ScenarioError> {
        let mut cfg = ScenarioConfig::fig8(30.0);
        cfg.name = "custom".to_owned();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or(ScenarioError("expected `key = value`"))?;
            let (key, value) = (key.trim(), value.trim());
            let parse_u32 = |v: &str| {
                v.parse::<u32>()
                    .map_err(|_| ScenarioError("bad integer value"))
            };
            let parse_f64 = |v: &str| {
                v.parse::<f64>()
                    .map_err(|_| ScenarioError("bad numeric value"))
            };
            match key {
                "name" => cfg.name = value.to_owned(),
                "nodes" => cfg.nodes = parse_u32(value)?,
                "clients" => cfg.clients = parse_u32(value)?,
                "servers1" => cfg.servers1 = parse_u32(value)?,
                "servers2" => cfg.servers2 = parse_u32(value)?,
                "migration_duration" => cfg.migration_duration = parse_f64(value)?,
                "mean_calls" => cfg.mean_calls = parse_f64(value)?,
                "mean_think" => cfg.mean_think = parse_f64(value)?,
                "mean_gap" => cfg.mean_gap = parse_f64(value)?,
                "working_set" => cfg.working_set = parse_u32(value)?,
                "warmup_time" => cfg.warmup_time = parse_f64(value)?,
                "loss_probability" => cfg.loss_probability = parse_f64(value)?,
                "retransmit_timeout" => cfg.retransmit_timeout = parse_f64(value)?,
                _ => return Err(ScenarioError("unknown scenario key")),
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

/// A scenario-consistency violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioError(&'static str);

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl Error for ScenarioError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_constructors_match_the_parameter_boxes() {
        let f8 = ScenarioConfig::fig8(42.0);
        assert_eq!(
            (f8.nodes, f8.clients, f8.servers1, f8.servers2),
            (3, 3, 3, 0)
        );
        assert_eq!(f8.migration_duration, 6.0);
        assert_eq!(f8.mean_calls, 8.0);
        assert_eq!(f8.mean_gap, 42.0);

        let f12 = ScenarioConfig::fig12(10);
        assert_eq!((f12.nodes, f12.clients, f12.servers1), (27, 10, 3));
        assert_eq!(f12.mean_gap, 30.0);

        let f14 = ScenarioConfig::fig14(7);
        assert_eq!((f14.nodes, f14.clients), (3, 7));

        let f16 = ScenarioConfig::fig16(12);
        assert_eq!((f16.nodes, f16.servers1, f16.servers2), (24, 6, 6));
        assert_eq!(f16.mean_calls, 6.0);
        assert_eq!(f16.working_set, 2);
    }

    #[test]
    fn all_figure_configs_validate() {
        for cfg in [
            ScenarioConfig::fig8(0.0),
            ScenarioConfig::fig8(100.0),
            ScenarioConfig::fig12(25),
            ScenarioConfig::fig14(24),
            ScenarioConfig::fig16(12),
        ] {
            cfg.validate().expect("figure configs are valid");
        }
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut c = ScenarioConfig::fig8(10.0);
        c.clients = 0;
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::fig8(10.0);
        c.mean_calls = 3.0; // not sensible vs M = 6
        assert!(c.validate().unwrap_err().to_string().contains("sensible"));

        let mut c = ScenarioConfig::fig16(3);
        c.working_set = 9; // exceeds S2 = 6
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::fig8(10.0);
        c.servers2 = 0;
        c.working_set = 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn loss_parameters_validate_and_round_trip() {
        let cfg = ScenarioConfig::fig8(30.0).with_loss(0.1, 4.0);
        cfg.validate().unwrap();
        let back = ScenarioConfig::from_config_text(&cfg.to_config_text()).unwrap();
        assert_eq!(cfg, back);

        assert!(ScenarioConfig::fig8(30.0)
            .with_loss(1.0, 4.0)
            .validate()
            .is_err());
        assert!(ScenarioConfig::fig8(30.0)
            .with_loss(-0.1, 4.0)
            .validate()
            .is_err());
        let err = ScenarioConfig::fig8(30.0)
            .with_loss(0.1, 0.0)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("retransmit"), "{err}");
    }

    #[test]
    fn config_text_round_trips_every_preset() {
        for cfg in [
            ScenarioConfig::fig8(42.0),
            ScenarioConfig::fig12(7),
            ScenarioConfig::fig14(3),
            ScenarioConfig::fig16(5).with_loss(0.05, 6.0),
        ] {
            let text = cfg.to_config_text();
            let back = ScenarioConfig::from_config_text(&text).unwrap();
            assert_eq!(cfg, back, "{text}");
        }
    }

    #[test]
    fn config_text_accepts_comments_and_partial_keys() {
        let cfg = ScenarioConfig::from_config_text(
            "# my scenario\n\
             clients = 5\n\
             \n\
             mean_gap = 12.5\n",
        )
        .unwrap();
        assert_eq!(cfg.clients, 5);
        assert_eq!(cfg.mean_gap, 12.5);
        // everything else keeps the fig8 defaults
        assert_eq!(cfg.nodes, 3);
        assert_eq!(cfg.mean_calls, 8.0);
    }

    #[test]
    fn config_text_rejects_garbage() {
        assert!(ScenarioConfig::from_config_text("nonsense line").is_err());
        assert!(ScenarioConfig::from_config_text("wibble = 3").is_err());
        assert!(ScenarioConfig::from_config_text("clients = many").is_err());
        // parses but fails validation (insensible block)
        assert!(ScenarioConfig::from_config_text("mean_calls = 1").is_err());
    }
}
