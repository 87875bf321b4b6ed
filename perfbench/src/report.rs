//! The metric catalogue and the one-line JSON result.
//!
//! The two lists below are the benchmark's contract with `BENCHMARK.json`
//! (a test checks they agree): a run with `--trace 0` prints exactly the
//! end-to-end metrics, a run with `--trace 1` exactly the per-layer ones.

use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off.  `step1..3` name the three
/// timed steps of each workload's closed-loop iteration (see README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("step1_ms_p50", "ms"),
    ("step2_ms_p50", "ms"),
    ("step3_ms_p50", "ms"),
    ("msgs_per_op", "count"),
    ("kb_per_op", "KB"),
    ("push_coverage", "ratio"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics, measured by the separate traced run.  A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("modular.mod_pow_pub_us", "us"),
    ("modular.mod_pow_priv_us", "us"),
    ("rsa.sign_us", "us"),
    ("rsa.verify_us", "us"),
    ("envelope.seal_us.256", "us"),
    ("envelope.seal_us.64k", "us"),
    ("envelope.open_us.256", "us"),
    ("envelope.open_us.64k", "us"),
    ("sha2.sha256_mb_s", "MB/s"),
    ("aes.cbc_mb_s", "MB/s"),
    ("sigcache.hit_ratio", "ratio"),
    ("parser.parse_us", "us"),
    ("dsig.verify_us", "us"),
    ("credential.issue_us", "us"),
    ("credential.verify_us", "us"),
    ("signed_adv.sign_us", "us"),
    ("signed_adv.validate_us", "us"),
    ("secure_client.connect_ms", "ms"),
    ("secure_client.login_ms", "ms"),
    ("secure_client.send_ms", "ms"),
    ("secure_client.receive_ms", "ms"),
    ("client.publish_ms", "ms"),
    ("client.push_wait_ms", "ms"),
    ("client.lookup_ms", "ms"),
    ("message.encode_us.256", "us"),
    ("message.encode_us.64k", "us"),
    ("message.encode_us.sync", "us"),
    ("message.decode_us.256", "us"),
    ("message.decode_us.64k", "us"),
    ("message.decode_us.sync", "us"),
    ("broker.decode_preverify_us.cold", "us"),
    ("broker.decode_preverify_us.warm", "us"),
    ("broker.apply_publish_us", "us"),
    ("net.msgs_per_op", "count"),
    ("net.bytes_per_op", "B"),
    ("net.overflow_dropped", "count"),
    ("federation.syncs_per_publish", "count"),
    ("federation.rejected", "count"),
    ("plumtree.pump_ms_p50", "ms"),
    ("plumtree.eager_per_publish", "count"),
    ("plumtree.ihaves_per_publish", "count"),
    ("plumtree.grafts_per_publish", "count"),
    ("plumtree.prunes_per_publish", "count"),
    ("plumtree.graft_misses", "count"),
    ("plumtree.empty_eager_brokers", "count"),
    ("plumtree.complete_after_tick", "ratio"),
    ("broker.repair_tick_ms_p50", "ms"),
    ("broker.repair_msgs_per_tick", "count"),
    ("broker.repair_kb_per_tick", "KB"),
    ("broker.entries_repaired_per_tick", "count"),
    ("broker.repair_pages_per_tick", "count"),
    ("membership.interconnect_ms", "ms"),
    ("swim.probes_per_tick", "count"),
    ("swim.suspicions", "count"),
    ("tail.step1_ms_p90", "ms"),
    ("tail.step2_ms_p90", "ms"),
    ("host.peak_rss_mb", "MB"),
    ("host.probe_us_p50", "us"),
    ("host.slow_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("raw.setup_s", "s"),
    ("raw.ops_per_s", "1/s"),
    ("raw.step1_ms_p50", "ms"),
    ("raw.step1_ms_p90", "ms"),
    ("raw.step2_ms_p50", "ms"),
    ("raw.step2_ms_p90", "ms"),
    ("raw.step3_ms_p50", "ms"),
];

/// The result of one run: the last line of standard output.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Set when a check that is not a per-operation failure broke (a
    /// federation that never converges, a metric that is not finite).
    pub broken: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.broken.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Renders the metrics of `catalogue` as the result line.  A catalogue
    /// metric the workload never set is 0 (per-layer: layer not exercised);
    /// a non-finite value marks the run incorrect.
    pub fn render(&mut self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut metrics = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() {
                value
            } else {
                self.broken.push(format!("metric {name} is not finite"));
                0.0
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
