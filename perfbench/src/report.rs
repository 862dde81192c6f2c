//! Metric collection, correctness checks, and the result line.
//!
//! Every run prints each metric it measured as one human-readable line
//! (name, value, unit, sample count or note), then the correctness
//! verdict, then — as the last line of standard output — one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. An
//! untraced run puts every [`END_TO_END`] metric in `metrics`; a traced
//! run puts every [`PER_LAYER`] metric there, with 0 for a layer the
//! workload does not exercise.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload measures every
/// one of them, and none is ever 0 on a healthy run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("slices_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
];

/// Per-layer metrics: `(name, unit)`, prefixed by the crate/module
/// they measure. `METRICS.md` records, for each, the end-to-end metric
/// and workload it should move and where it should stay flat.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Workload-level quantities the end-to-end set cannot carry on
    // every workload, or not steadily enough to gate on.
    ("failed_frac", "ratio"),
    ("latency_samples", "count"),
    ("data_rtt_p50_us", "us"),
    ("data_rtt_p99_us", "us"),
    ("data_rtt_samples", "count"),
    ("admit_rtt_p50_us", "us"),
    ("admit_rtt_samples", "count"),
    ("sweep_s", "s"),
    ("gen.lag_us.p99", "us"),
    ("gen.lag_us.max", "us"),
    ("gen.late_batches", "count"),
    // The resident phase of a traced run: 250 000 CBR sessions on one
    // free-running shard.
    ("ns_per_session_slot", "ns"),
    ("slot_p50_ms", "ms"),
    ("slot_p90_ms", "ms"),
    ("slot_samples", "count"),
    ("rss_bytes_per_session", "B"),
    ("snapshot_s", "s"),
    ("restore_s", "s"),
    // smoothd control plane.
    ("smoothd.daemon.admit_batch_ns_per_session", "ns"),
    ("smoothd.daemon.residency_wait_s", "s"),
    ("smoothd.daemon.restore_ns_per_session", "ns"),
    // smoothd shard workers, read through the telemetry registry.
    ("smoothd.worker.process_ns.count", "count"),
    ("smoothd.worker.process_ns.mean", "ns"),
    ("smoothd.worker.process_ns.p50", "ns"),
    ("smoothd.worker.busy_frac", "ratio"),
    ("smoothd.worker.cpu_ns_per_session_slot", "ns"),
    ("smoothd.worker.admit_ns.count", "count"),
    ("smoothd.worker.admit_ns.p50", "ns"),
    ("smoothd.worker.admit_ns.p99", "ns"),
    ("smoothd.worker.admit_ns.max", "ns"),
    ("smoothd.worker.retire_ns.count", "count"),
    ("smoothd.worker.retire_ns.p50", "ns"),
    ("smoothd.worker.deadline_misses", "count"),
    ("smoothd.worker.lateness_ns.max", "ns"),
    // Single-threaded replay of the resident population.
    ("smoothd.shard.process_slot_ns", "ns"),
    ("smoothd.shard.residual_ns", "ns"),
    ("smoothd.shard.replay_over_worker", "ratio"),
    ("smoothd.session.begin_slot_ns", "ns"),
    ("smoothd.session.step_ns", "ns"),
    // Snapshot format.
    ("smoothd.snapshot.encode_ns_per_session", "ns"),
    ("smoothd.snapshot.bytes_per_session", "B"),
    ("smoothd.snapshot.decode_ns_per_session", "ns"),
    // Wire ingest.
    ("smoothd.ingest.decode_ns.count", "count"),
    ("smoothd.ingest.decode_ns.p50", "ns"),
    ("smoothd.ingest.decode_ns.p99", "ns"),
    ("smoothd.ingest.rejects.capacity", "count"),
    ("smoothd.ingest.rejects.infeasible", "count"),
    ("smoothd.ingest.rejects.zero_rate", "count"),
    ("smoothd.ingest.rejects.backpressure", "count"),
    ("smoothd.ingest.rejects.unknown_session", "count"),
    ("smoothd.ingest.rejects.protocol", "count"),
    // The shared daemon lock and the telemetry scrape under it.
    ("smoothd.control.lock_wait_ns.count", "count"),
    ("smoothd.control.lock_wait_ns.p50", "ns"),
    ("smoothd.control.lock_wait_ns.p99", "ns"),
    ("smoothd.telemetry.scrape_ns.p50", "ns"),
    // Final ledgers: useful work over attempted work.
    ("smoothd.ledger.played_byte_frac", "ratio"),
    ("smoothd.ledger.server_drop_byte_frac", "ratio"),
    // Section 5 engines.
    ("rts-stream.gen_s", "s"),
    ("rts-sim.simulate_ns_per_slice.tail", "ns"),
    ("rts-sim.simulate_ns_per_slice.greedy", "ns"),
    ("rts-sim.server_only_ns_per_slice.tail", "ns"),
    ("rts-sim.server_only_ns_per_slice.greedy", "ns"),
    ("rts-offline.unit_chain_ns_per_slice", "ns"),
    ("rts-offline.sweep_analyze_s", "s"),
    ("rts-offline.sweep_ns_per_point", "ns"),
    ("rts-offline.frame_dp_ns_per_frame", "ns"),
    ("rts-mux.wfq_ns_per_slice", "ns"),
    // The tracer itself.
    ("trace.spans", "count"),
    ("trace.record_ns", "ns"),
    ("trace.overhead_frac", "ratio"),
];

/// The unit a metric name is declared with, if it is declared.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    order: Vec<(&'static str, String)>,
    checks: Vec<(String, bool)>,
    /// Operations the workload attempted.
    pub attempted: u64,
    /// Operations that failed (refused, missed, or wrong).
    pub failed: u64,
}

impl Report {
    /// Records a declared metric with a note (sample count, context).
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name or a non-finite value: both are
    /// benchmark bugs, never measurements.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        if self.values.insert(name, value).is_none() {
            self.order.push((name, note.into()));
        } else if let Some(entry) = self.order.iter_mut().find(|(n, _)| *n == name) {
            entry.1 = note.into();
        }
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records one correctness check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// True when every recorded check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Human-readable metric and check lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, note) in &self.order {
            let value = self.values[name];
            let unit = unit_of(name).unwrap_or("");
            let _ = writeln!(out, "metric {name:<44} {value:>18} {unit:<6} {note}");
        }
        for (what, ok) in &self.checks {
            let verdict = if *ok { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "check {verdict} {what}");
        }
        let _ = writeln!(
            out,
            "attempted {} failed {} failed_frac {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        out
    }

    /// The result line: end-to-end metrics when untraced, per-layer
    /// metrics (0 for a layer this workload does not exercise) when
    /// traced.
    ///
    /// # Panics
    ///
    /// Panics when an untraced run failed to measure an end-to-end
    /// metric (a benchmark bug).
    pub fn json(&self, traced: bool) -> String {
        let set = if traced { PER_LAYER } else { END_TO_END };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in set.iter().enumerate() {
            let value = match self.get(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let doc = include_str!("../../BENCHMARK.json");
        let declared = |name: &str| doc.matches(&format!("\"name\": \"{name}\"")).count();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert_eq!(declared(name), 1, "{name} must be declared once");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                doc.contains(&entry),
                "{name} must be declared with unit {unit}"
            );
        }
        let entries = doc.matches("\"unit\":").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn traced_json_fills_unexercised_layers_with_zero() {
        let mut r = Report::default();
        r.set("sweep_s", 1.25, "");
        r.attempted = 3;
        let line = r.json(true);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"sweep_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"snapshot_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
    }
}
