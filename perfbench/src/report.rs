//! The benchmark's metric sets and its output: a human-readable report,
//! then one JSON object as the last line of standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
/// Every workload defines all of them (see `README.md` for what an op is
/// on each). Throughput and the p99 are in the report lines instead: on a
/// shared 2-vCPU host they move by a third between runs of the same code.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("client.invoke.p50_us", "us"),
    ("client.move.p50_us", "us"),
    ("client.end.p50_us", "us"),
    ("client.residual_us", "us"),
    ("client.timeouts", "count"),
    ("client.retries", "count"),
    ("mesh.hop_us", "us"),
    ("mesh.hops_per_op", "count/op"),
    ("node.objects_shipped_per_move", "count/move"),
    ("node.forwards_per_op", "count/op"),
    ("object.invoke_us", "us"),
    ("object.linearize_us", "us"),
    ("object.delinearize_us", "us"),
    ("object.bytes_linearized_per_op", "B/op"),
    ("policy.busy_us_per_op", "us/op"),
    ("policy.calls_per_op", "count/op"),
    ("policy.grant_ratio", "ratio"),
    ("attach.closure_us", "us"),
    ("attach.closure_size_mean", "count"),
    ("recovery.refreshes_per_op", "count/op"),
    ("recovery.quorum_ratio", "ratio"),
    ("store.appends_per_op", "count/op"),
    ("store.records_per_sync", "count"),
    ("store.bytes_per_op", "B/op"),
    ("store.put_us", "us"),
    ("socket.deliveries_per_op", "count/op"),
    ("frame.codec_us", "us"),
    ("socket.residual_us", "us"),
    ("sim.point_wall_s.p50", "s"),
    ("sim.point_wall_s.max", "s"),
    ("sim.events_per_point", "count"),
    ("paper.call_us", "us"),
    ("paper.migration_us", "us"),
    ("paper.control_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: BTreeMap<&'static str, u64>,
    /// Named output checks; any `Err` makes the run incorrect.
    pub checks: Vec<(&'static str, Result<(), String>)>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Further lines for the human-readable report (ungated metrics
    /// such as invoke and move percentiles with their sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, result: Result<(), String>) {
        self.checks.push((name, result));
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|&(n, _)| n == name),
            "unknown metric {name}"
        );
        self.end_to_end.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unknown metric {name}"
        );
        self.layers
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Every check passed, and the run attempted at least one op.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.checks.iter().all(|(_, r)| r.is_ok())
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// The report lines followed by the result object (the last line).
pub fn render(workload: &str, trace: bool, o: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {workload} ({})",
        if trace { "traced" } else { "untraced" }
    );
    for note in &o.notes {
        let _ = writeln!(out, "  {note}");
    }
    let _ = writeln!(
        out,
        "  error_frac {} ratio ({} failed of {} attempted)",
        ratio(o.failed as f64, o.attempted as f64),
        o.failed,
        o.attempted
    );
    for (kind, n) in &o.errors {
        let _ = writeln!(out, "    errors.{kind} {n} count");
    }
    if o.attempted == 0 {
        let _ = writeln!(out, "  check ops_attempted: FAILED: no op was attempted");
    }
    for (name, result) in &o.checks {
        match result {
            Ok(()) => {
                let _ = writeln!(out, "  check {name}: ok");
            }
            Err(why) => {
                let _ = writeln!(out, "  check {name}: FAILED: {why}");
            }
        }
    }
    let set: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let values = if trace { &o.layers } else { &o.end_to_end };
    let mut metrics = Vec::new();
    for &(name, unit) in set {
        let v = values.get(name).copied().unwrap_or(0.0);
        let _ = writeln!(out, "  {name} {v} {unit}");
        // names and units are plain ASCII constants (see the test against
        // BENCHMARK.json), so they need no JSON escaping
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(v)
        ));
    }
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).expect("key") + key.len() + 2;
                    let rest = &entry[at..];
                    let open = rest.find('"').expect("value") + 1;
                    let close = open + rest[open..].find('"').expect("value end");
                    rest[open..close].to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let own = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_is_the_last_line_and_lists_the_metric_set() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.e2e("op_p50_us", 12.5);
        o.check("fine", Ok(()));
        let text = render("w", false, &o);
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(last.contains("\"op_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}"));
        assert_eq!(last.matches("\"unit\"").count(), END_TO_END.len());
        o.attempted = 0;
        let empty = render("w", false, &o);
        assert!(empty.contains("check ops_attempted: FAILED"));
        assert!(empty
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 0,"));
        o.attempted = 10;
        o.check("broken", Err("x".into()));
        assert!(render("w", true, &o)
            .lines()
            .last()
            .unwrap()
            .contains("\"correct\": false"));
    }
}
