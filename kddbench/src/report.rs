//! Metric declarations and the result line.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`: a plain run emits exactly [`END_TO_END`], a traced
//! run exactly [`PER_LAYER`], in this order. A self-test checks that the
//! JSON file declares the same names and units.

use crate::inputs::Workload;

/// End-to-end metrics `(name, unit)`: what a user of the system sees, and
/// steady enough run to run to carry a regression bound.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_resp_mean_us", "us"),
    ("sim_resp_tail_us", "us"),
    ("ssd_bytes_per_user_byte", "B/B"),
    ("raid_ios_per_op", "io/op"),
    ("setup_s", "s"),
    ("mem_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, grouped by layer (outside in).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.read_hit_us", "us"),
    ("engine.read_miss_us", "us"),
    ("engine.write_hit_us", "us"),
    ("engine.write_miss_us", "us"),
    ("engine.clean_call_us", "us"),
    ("engine.clean_calls_per_kop", "count"),
    ("engine.evict_call_us", "us"),
    ("engine.unexplained_frac", "ratio"),
    ("engine.ssd_fallbacks_per_kop", "count"),
    ("cleaner.inline_call_us", "us"),
    ("cleaner.calls_per_kop", "count"),
    ("cleaner.rows_per_call", "count"),
    ("cache.read_hit_ratio", "ratio"),
    ("cache.write_hit_ratio", "ratio"),
    ("cache.evictions_per_op", "count"),
    ("cache.lookup_ns", "ns"),
    ("cache.insert_ns", "ns"),
    ("cache.count_state_ns", "ns"),
    ("delta.xor_ns", "ns"),
    ("delta.compress_ns", "ns"),
    ("delta.decompress_ns", "ns"),
    ("delta.ratio", "ratio"),
    ("delta.incompressible_frac", "ratio"),
    ("raid.write_rmw_us", "us"),
    ("raid.write_no_parity_us", "us"),
    ("raid.parity_update_row_us", "us"),
    ("raid.read_us", "us"),
    ("raid.gf256_mul_4k_ns", "ns"),
    ("raid.member_reads_per_op", "count"),
    ("raid.member_writes_per_op", "count"),
    ("raid.parity_rows_per_kop", "count"),
    ("ssd.read_us", "us"),
    ("ssd.write_us", "us"),
    ("ssd.waf", "ratio"),
    ("ssd.erases_per_kop", "count"),
    ("ssd.data_pages_per_op", "count"),
    ("ssd.delta_pages_per_op", "count"),
    ("ssd.meta_pages_per_op", "count"),
    ("metalog.push_group_ns", "ns"),
    ("staging.hits_per_dez_page", "count"),
    ("policy.access_us", "us"),
    ("policy.access_p99_us", "us"),
    ("policy.dez_commit_access_us", "us"),
    ("policy.idle_tick_share", "ratio"),
    ("sim.queue_wait_us", "us"),
    ("trace.generate_s", "s"),
    ("bench.payload_gen_s", "s"),
    ("engine.build_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("host.ops_per_s", "1/s"),
    ("host.read_p50_us", "us"),
    ("host.read_tail_us", "us"),
    ("host.write_p50_us", "us"),
    ("host.write_tail_us", "us"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Value in the declared unit.
    pub value: f64,
    /// Declared unit.
    pub unit: &'static str,
    /// Samples behind the value (repeats for medians, calls for means).
    pub samples: u64,
}

/// The outcome of one invocation.
#[derive(Debug)]
pub struct Report {
    /// Workload run.
    pub workload: Workload,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Metrics set so far.
    pub metrics: Vec<Metric>,
    /// Operations attempted (page ops, read-back reads, model requests).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Content checks made (reads compared with the expected version).
    pub checks: u64,
    /// Content checks that returned the wrong bytes.
    pub mismatches: u64,
    /// Failed self-checks (determinism, oracles, I/O-count identities).
    pub problems: Vec<String>,
    /// Human-readable lines printed before the result (tables, notes).
    pub lines: Vec<String>,
    /// Measured repeats.
    pub repeats: u64,
    /// Wall time of the whole invocation.
    pub wall_s: f64,
}

impl Report {
    /// An empty report.
    pub fn new(workload: Workload, traced: bool) -> Report {
        Report {
            workload,
            traced,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            checks: 0,
            mismatches: 0,
            problems: Vec::new(),
            lines: Vec::new(),
            repeats: 0,
            wall_s: 0.0,
        }
    }

    fn declared(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Set a declared metric (later sets win).
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let Some(&(name, unit)) = self.declared().iter().find(|(n, _)| *n == name) else {
            self.problems.push(format!("metric {name} is not declared for this mode"));
            return;
        };
        if !value.is_finite() {
            self.problems.push(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, value, unit, samples });
    }

    /// Record a failed self-check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// The value of a metric set earlier.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// No failed op, no wrong byte, no failed self-check, every declared
    /// metric present.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.mismatches == 0
            && self.problems.is_empty()
            && self.declared().iter().all(|(n, _)| self.get(n).is_some())
    }

    /// Failed ops per op attempted.
    pub fn failed_op_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// Wrong reads per content check.
    pub fn verify_mismatch_frac(&self) -> f64 {
        crate::stats::ratio(self.mismatches as f64, self.checks as f64)
    }

    /// The human-readable block: notes, then every metric by name, value,
    /// unit and sample count, then the correctness counters.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mode = if self.traced { "traced" } else { "plain" };
        out.push_str(&format!(
            "# kddbench {} ({mode}): {} repeats, {:.2} s wall\n",
            self.workload.name(),
            self.repeats,
            self.wall_s
        ));
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        for (name, _) in self.declared() {
            match self.metrics.iter().find(|m| m.name == *name) {
                Some(m) => out.push_str(&format!(
                    "{:<30} {:>16.6} {:<6} n={}\n",
                    m.name, m.value, m.unit, m.samples
                )),
                None => out.push_str(&format!("{name:<30} {:>16} (missing)\n", "-")),
            }
        }
        out.push_str(&format!(
            "{:<30} {:>16.6} {:<6} n={}\n",
            "failed_op_frac",
            self.failed_op_frac(),
            "ratio",
            self.attempted
        ));
        out.push_str(&format!(
            "{:<30} {:>16.6} {:<6} n={}\n",
            "verify_mismatch_frac",
            self.verify_mismatch_frac(),
            "ratio",
            self.checks
        ));
        for p in &self.problems {
            out.push_str(&format!("PROBLEM: {p}\n"));
        }
        out
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn render_json(&self) -> String {
        let metrics: Vec<String> = self
            .declared()
            .iter()
            .filter_map(|(n, _)| self.metrics.iter().find(|m| m.name == *n))
            .map(|m| {
                // `{:?}` prints the shortest string that round-trips
                // (`1.0`, `1.5e-7`): every digit, always valid JSON.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
