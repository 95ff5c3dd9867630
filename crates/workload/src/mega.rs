//! The `mega` standing scale scenario: millions of objects, thousands of
//! nodes, one sharded multi-core world.
//!
//! This scenario exists to exercise the scale axis the paper could not: a
//! [`ShardedEngine`] world with **≥ 1M objects on ≥ 1000 nodes**, driven by
//!
//! * **Zipf object popularity** — callers pick targets by rank through
//!   [`crate::zipf::Zipf`], so a hot head of objects sees most traffic
//!   while a huge cold tail mostly sits in memory (which is the point:
//!   peak RSS is part of the report),
//! * **diurnal traffic phases** — tick rates are modulated by a sinusoid,
//!   so the world breathes through busy and quiet phases instead of
//!   holding one stationary load,
//! * **migration domains** — nodes are partitioned into shards (contiguous
//!   blocks); objects migrate freely *within* their domain while calls and
//!   replies cross domains as network messages. Cross-shard messages ride
//!   a shifted-exponential latency whose offset is the engine's
//!   conservative lookahead (`Network::min_remote_delay` semantics — a
//!   bare exponential would have lookahead 0 and no parallelism).
//!
//! Everything is seeded: per-shard RNG streams derive from the scenario
//! seed via [`oml_des::stats::replication_seed`], and the sharded engine's
//! window protocol keeps results bit-identical at any thread count.

use oml_des::shard::{ShardCtx, ShardHandler, ShardedEngine};
use oml_des::stats::{replication_seed, OnlineStats};
use oml_des::{SimRng, SimTime};

use crate::zipf::Zipf;

/// Parameters of the mega scenario.
#[derive(Debug, Clone)]
pub struct MegaConfig {
    /// Total objects in the world (the standing target is ≥ 1M).
    pub objects: u64,
    /// Nodes, partitioned evenly into `shards` migration domains.
    pub nodes: u32,
    /// Shards (= event queues = maximum useful worker threads).
    pub shards: usize,
    /// Zipf popularity exponent over object ranks.
    pub zipf_exponent: f64,
    /// Mean think time between an node's consecutive ticks at base load.
    pub mean_gap: f64,
    /// Period of the diurnal load sinusoid (simulated time units).
    pub diurnal_period: f64,
    /// Relative amplitude of the diurnal modulation, in `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// Minimum network latency — the offset of the shifted-exponential
    /// message delay and the engine's conservative lookahead.
    pub latency_offset: f64,
    /// Mean of the exponential tail on top of the offset.
    pub latency_tail: f64,
    /// Probability that serving a call migrates the object inside its domain.
    pub migrate_probability: f64,
    /// Extra service delay a migration adds to the reply.
    pub migration_duration: f64,
    /// Simulated duration of the run.
    pub duration: f64,
}

impl MegaConfig {
    /// The standing scale target: 2²⁰ objects on 1024 nodes in 64 domains.
    #[must_use]
    pub fn standing() -> Self {
        MegaConfig {
            objects: 1 << 20,
            nodes: 1024,
            shards: 64,
            zipf_exponent: 1.0,
            mean_gap: 1.0,
            diurnal_period: 500.0,
            diurnal_amplitude: 0.5,
            latency_offset: 0.5,
            latency_tail: 0.5,
            migrate_probability: 0.02,
            migration_duration: 6.0,
            duration: 2_500.0,
        }
    }

    /// A miniature world with the same shape, for tests and smokes.
    #[must_use]
    pub fn smoke() -> Self {
        MegaConfig {
            objects: 20_000,
            nodes: 64,
            shards: 8,
            duration: 60.0,
            ..MegaConfig::standing()
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.objects == 0 {
            return Err("objects must be positive".into());
        }
        if self.shards == 0 || self.nodes == 0 {
            return Err("nodes and shards must be positive".into());
        }
        if !(self.nodes as usize).is_multiple_of(self.shards) {
            return Err(format!(
                "shards ({}) must divide nodes ({}) evenly",
                self.shards, self.nodes
            ));
        }
        if !(self.zipf_exponent.is_finite() && self.zipf_exponent > 0.0) {
            return Err("zipf exponent must be positive".into());
        }
        if !(self.latency_offset.is_finite() && self.latency_offset > 0.0) {
            return Err("latency offset must be positive: it is the lookahead".into());
        }
        if !(0.0..1.0).contains(&self.diurnal_amplitude) {
            return Err("diurnal amplitude must be in [0, 1)".into());
        }
        if !(0.0..=1.0).contains(&self.migrate_probability) {
            return Err("migrate probability must be in [0, 1]".into());
        }
        Ok(())
    }
}

/// Events of the mega world.
#[derive(Debug)]
enum MegaEvent {
    /// A node's traffic source fires: pick an object, issue a call.
    Tick { node: u32 },
    /// A call arrives at the target object's home domain.
    Call { rank: u64, caller: u32, issued: f64 },
    /// The result arrives back at the caller.
    Reply { issued: f64 },
}

/// Per-domain counters, merged across shards at the end of a run.
#[derive(Debug, Clone, Default)]
struct DomainStats {
    ticks: u64,
    calls_issued: u64,
    calls_completed: u64,
    local_calls: u64,
    migrations: u64,
    response: OnlineStats,
}

/// One migration domain: a block of nodes and the objects homed on them.
struct Domain {
    cfg: MegaConfig,
    /// First node of this domain's contiguous block.
    node_lo: u32,
    /// Nodes per domain (`nodes / shards`).
    span: u32,
    rng: SimRng,
    zipf: Zipf,
    /// Current node of every object homed here, indexed by local slot.
    location: Vec<u32>,
    stats: DomainStats,
}

impl Domain {
    /// Local slot of object rank `rank` (homed in this domain).
    fn slot(&self, rank: u64) -> usize {
        let o = rank - 1;
        let node = (o % u64::from(self.cfg.nodes)) as u32;
        let row = o / u64::from(self.cfg.nodes);
        (row * u64::from(self.span) + u64::from(node - self.node_lo)) as usize
    }

    /// Domain (= shard) of a node.
    fn domain_of(&self, node: u32) -> usize {
        (node / self.span) as usize
    }

    /// Home node of an object rank.
    fn home_of(&self, rank: u64) -> u32 {
        ((rank - 1) % u64::from(self.cfg.nodes)) as u32
    }

    /// Diurnal load factor at time `t` (mean 1 over a full period).
    fn load(&self, t: f64) -> f64 {
        1.0 + self.cfg.diurnal_amplitude
            * (std::f64::consts::TAU * t / self.cfg.diurnal_period).sin()
    }

    /// One network latency draw (offset + exponential tail ≥ lookahead).
    fn net_delay(&mut self) -> f64 {
        self.cfg.latency_offset + self.rng.exp(self.cfg.latency_tail)
    }
}

impl ShardHandler for Domain {
    type Event = MegaEvent;

    fn handle(&mut self, now: SimTime, event: MegaEvent, ctx: &mut ShardCtx<'_, MegaEvent>) {
        match event {
            MegaEvent::Tick { node } => {
                self.stats.ticks += 1;
                // breathe: the gap shrinks in busy phases, grows at night
                let gap = self.rng.exp(self.cfg.mean_gap) / self.load(now.as_f64());
                ctx.schedule_in(gap, MegaEvent::Tick { node });

                let rank = self.zipf.sample(&mut self.rng);
                self.stats.calls_issued += 1;
                let home = self.home_of(rank);
                let dest = self.domain_of(home);
                if dest == ctx.shard() {
                    let cur = self.location[self.slot(rank)];
                    if cur == node {
                        // same node: local actions are free (§4.1)
                        self.stats.local_calls += 1;
                        self.stats.calls_completed += 1;
                        self.stats.response.push(0.0);
                        return;
                    }
                }
                let delay = self.net_delay();
                let call = MegaEvent::Call {
                    rank,
                    caller: node,
                    issued: now.as_f64(),
                };
                ctx.send(dest, delay, call);
            }
            MegaEvent::Call {
                rank,
                caller,
                issued,
            } => {
                let slot = self.slot(rank);
                let mut service = 0.0;
                if self.rng.unit() < self.cfg.migrate_probability {
                    // migrate within the domain — pulled toward the caller
                    // if it lives here, otherwise to a random domain node
                    let target = if self.domain_of(caller) == ctx.shard() {
                        caller
                    } else {
                        self.node_lo + self.rng.below(self.span as usize) as u32
                    };
                    if target != self.location[slot] {
                        self.location[slot] = target;
                        self.stats.migrations += 1;
                        service = self.cfg.migration_duration;
                    }
                }
                let delay = service + self.net_delay();
                ctx.send(self.domain_of(caller), delay, MegaEvent::Reply { issued });
            }
            MegaEvent::Reply { issued } => {
                self.stats.calls_completed += 1;
                self.stats.response.push(now.as_f64() - issued);
            }
        }
    }
}

/// The result of one mega run — everything BENCH_03's mega section needs.
#[derive(Debug, Clone)]
pub struct MegaReport {
    /// Objects in the world.
    pub objects: u64,
    /// Nodes in the world.
    pub nodes: u32,
    /// Shards (migration domains).
    pub shards: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Simulated duration.
    pub sim_time: f64,
    /// Events the sharded engine delivered.
    pub events: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Delivered events per wall-clock second.
    pub events_per_sec: f64,
    /// Traffic-source firings.
    pub ticks: u64,
    /// Calls issued.
    pub calls_issued: u64,
    /// Calls completed (issued minus in-flight at the horizon).
    pub calls_completed: u64,
    /// Calls answered on the caller's own node, for free.
    pub local_calls: u64,
    /// Intra-domain migrations performed.
    pub migrations: u64,
    /// Mean call response time.
    pub mean_response: f64,
    /// Peak resident set size of this process, in bytes (0 if unknown).
    pub peak_rss_bytes: u64,
}

/// Builds and runs the mega scenario.
///
/// Deterministic for a given `(cfg, seed)` at any `threads`; wall time and
/// events/s are the only fields that vary across thread counts.
///
/// # Panics
///
/// Panics if the configuration is invalid.
#[must_use]
pub fn run_mega(cfg: &MegaConfig, seed: u64, threads: usize) -> MegaReport {
    cfg.validate().expect("invalid mega config");
    let span = cfg.nodes / cfg.shards as u32;
    let rows = cfg.objects.div_ceil(u64::from(cfg.nodes));

    let domains: Vec<Domain> = (0..cfg.shards)
        .map(|s| {
            let node_lo = s as u32 * span;
            let mut location = vec![0u32; (rows * u64::from(span)) as usize];
            for (slot, loc) in location.iter_mut().enumerate() {
                // every object starts at its home node
                *loc = node_lo + (slot as u32 % span);
            }
            Domain {
                cfg: cfg.clone(),
                node_lo,
                span,
                rng: SimRng::seed_from(replication_seed(seed, s as u64)),
                zipf: Zipf::new(cfg.objects, cfg.zipf_exponent),
                location,
                stats: DomainStats::default(),
            }
        })
        .collect();

    let mut engine = ShardedEngine::new(domains, cfg.latency_offset, threads);
    for node in 0..cfg.nodes {
        // deterministic stagger spreads the sources across the first gaps
        let at = SimTime::new(f64::from(node % 101) * cfg.mean_gap / 101.0);
        engine.schedule((node / span) as usize, at, MegaEvent::Tick { node });
    }

    let start = std::time::Instant::now();
    engine.run_until(SimTime::new(cfg.duration));
    let wall_s = start.elapsed().as_secs_f64();

    let events = engine.events_handled();
    let mut merged = DomainStats::default();
    for d in engine.handlers() {
        merged.ticks += d.stats.ticks;
        merged.calls_issued += d.stats.calls_issued;
        merged.calls_completed += d.stats.calls_completed;
        merged.local_calls += d.stats.local_calls;
        merged.migrations += d.stats.migrations;
        merged.response.merge(&d.stats.response);
    }

    MegaReport {
        objects: cfg.objects,
        nodes: cfg.nodes,
        shards: cfg.shards,
        threads,
        sim_time: cfg.duration,
        events,
        wall_s,
        events_per_sec: if wall_s > 0.0 {
            events as f64 / wall_s
        } else {
            0.0
        },
        ticks: merged.ticks,
        calls_issued: merged.calls_issued,
        calls_completed: merged.calls_completed,
        local_calls: merged.local_calls,
        migrations: merged.migrations,
        mean_response: merged.response.mean(),
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// Peak resident set size of the current process, in bytes.
///
/// Reads `VmHWM` from `/proc/self/status` on Linux; returns 0 where that
/// is unavailable (no extra dependencies, no unsafe).
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_world_produces_traffic() {
        let report = run_mega(&MegaConfig::smoke(), 0x5eed, 1);
        assert!(report.ticks > 1_000, "ticks: {}", report.ticks);
        assert!(report.calls_completed > 1_000);
        assert!(report.migrations > 0, "some calls must migrate objects");
        assert!(report.local_calls > 0, "the Zipf head hits home nodes");
        assert!(report.mean_response > 0.0);
        assert!(report.events > report.ticks);
    }

    #[test]
    fn mega_is_thread_count_invariant() {
        let one = run_mega(&MegaConfig::smoke(), 7, 1);
        for threads in [2, 4] {
            let many = run_mega(&MegaConfig::smoke(), 7, threads);
            assert_eq!(many.events, one.events, "threads = {threads}");
            assert_eq!(many.ticks, one.ticks);
            assert_eq!(many.calls_completed, one.calls_completed);
            assert_eq!(many.migrations, one.migrations);
            assert_eq!(
                many.mean_response.to_bits(),
                one.mean_response.to_bits(),
                "metrics must be bit-identical, not just close"
            );
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_mega(&MegaConfig::smoke(), 1, 1);
        let b = run_mega(&MegaConfig::smoke(), 2, 1);
        assert_ne!(a.calls_completed, b.calls_completed);
    }

    #[test]
    fn validation_rejects_ragged_sharding() {
        let mut cfg = MegaConfig::smoke();
        cfg.shards = 7; // does not divide 64 nodes
        assert!(cfg.validate().is_err());
        cfg.shards = 8;
        cfg.latency_offset = 0.0; // zero lookahead: no conservative window
        assert!(cfg.validate().is_err());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_observable() {
        assert!(peak_rss_bytes() > 0);
    }
}
