//! Metric names and units, summary statistics, correctness tallies and
//! the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported with tracing off: `(name, unit)`.
/// Host time unless the name says otherwise.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("record_s", "s"),
    ("replay_s", "s"),
    ("replay_functional_s", "s"),
    ("replay_parallel_s", "s"),
    ("analyze_s", "s"),
    ("checkpoint_s", "s"),
    ("seek_open_s", "s"),
    ("seek_p50_s", "s"),
    ("seek_tail_s", "s"),
    ("window_replay_s", "s"),
    ("peak_rss_mb", "MB"),
    ("log_file_bits_pki", "bit/kinst"),
    ("index_bytes", "B"),
    ("sim_cycles", "cycles"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("isa.programs_s", "s"),
    ("chunk.run_s", "s"),
    ("chunk.host_ns_per_inst", "ns"),
    ("chunk.commits", "count"),
    ("chunk.squashes", "count"),
    ("chunk.commit_frac", "ratio"),
    ("chunk.squashed_inst_frac", "ratio"),
    ("chunk.truncations", "count"),
    ("mem.traffic_bytes", "B"),
    ("sim.stall_cycles", "cycles"),
    ("arbiter.grants", "count"),
    ("arbiter.avg_committing", "chunks"),
    ("arbiter.token_wait_cycles", "cycles"),
    ("stream.encode_s", "s"),
    ("stream.file_bytes", "B"),
    ("stream.logical_log_bits", "bit"),
    ("stream.file_to_logical", "ratio"),
    ("stream.open_s", "s"),
    ("stream.decode_s", "s"),
    ("stream.segments", "count"),
    ("stream.checksums_verified", "count"),
    ("compress.encode_s", "s"),
    ("compress.decode_s", "s"),
    ("compress.bytes_in", "B"),
    ("compress.bytes_out", "B"),
    ("inspect.run_s", "s"),
    ("inspect.commits", "count"),
    ("parallel.jobs1_s", "s"),
    ("parallel.jobs2_s", "s"),
    ("parallel.rounds", "count"),
    ("parallel.speculated_chunks", "count"),
    ("parallel.spec_retire_frac", "ratio"),
    ("parallel.conflicts", "count"),
    ("checkpoint.index_s", "s"),
    ("checkpoint.encode_s", "s"),
    ("checkpoint.decode_s", "s"),
    ("checkpoint.validate_s", "s"),
    ("checkpoint.entries", "count"),
    ("checkpoint.sidecar_bytes", "B"),
    ("checkpoint.state_at_s", "s"),
    ("checkpoint.rollforward_commits", "count"),
    ("analyze.static_s", "s"),
    ("analyze.races_s", "s"),
    ("analyze.lint_s", "s"),
    ("analyze.deps_s", "s"),
    ("self.op_s", "s"),
    ("self.bench_s", "s"),
    ("self.chunk_s", "s"),
    ("self.stream_s", "s"),
    ("self.parallel_s", "s"),
    ("self.analyze_s", "s"),
    ("self.checkpoint_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// Median of `xs` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest of the percentiles 99, 95, 90, 80, 75 and 50 that has
/// at least ten samples above it, by nearest rank: `(percentile,
/// value, samples above)`. With fewer than twenty samples no
/// percentile qualifies and the maximum is returned as percentile 100.
pub fn tail(xs: &[f64]) -> Option<(u32, f64, usize)> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    for p in [99u32, 95, 90, 80, 75, 50] {
        let rank = (p as usize * n).div_ceil(100).max(1);
        let above = n - rank;
        if above >= 10 {
            return Some((p, v[rank - 1], above));
        }
    }
    Some((100, v[n - 1], 0))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Operations attempted and failed, plus the exact-repeat register:
/// every deterministic count must read the same each time it is seen.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    seen: BTreeMap<String, u64>,
}

impl Checks {
    /// Counts one operation; a failure is reported on standard error
    /// and counted, never skipped.
    pub fn op(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}: {e}");
        }
    }

    /// Fails unless `value` equals the first value recorded under
    /// `key`.
    pub fn repeat(&mut self, key: &str, value: u64) -> Result<(), String> {
        let first = *self.seen.entry(key.to_string()).or_insert(value);
        if first == value {
            Ok(())
        } else {
            Err(format!(
                "{key} is {value}, but {first} on its first reading"
            ))
        }
    }

    /// Adds another tally's attempted and failed operations to this
    /// one.
    pub fn add(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }
}

/// Fails with `msg` unless `ok`.
pub fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// `(name, unit, value)` in table order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    /// Builds the outcome for the metrics in `table`, taking values
    /// from `values`. A metric missing from `values`, or not finite,
    /// counts as one more failed operation and reads 0.
    pub fn new(
        checks: &Checks,
        table: &[(&'static str, &'static str)],
        values: &BTreeMap<&'static str, f64>,
    ) -> Self {
        let mut failed = checks.failed();
        let mut attempted = checks.attempted();
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let v = values.get(name).copied().filter(|v| v.is_finite());
                if v.is_none() {
                    attempted += 1;
                    failed += 1;
                    eprintln!("perfbench: FAILED metric {name}: no finite value measured");
                }
                (name, unit, v.unwrap_or(0.0))
            })
            .collect();
        Self {
            attempted: attempted.max(1),
            failed,
            metrics,
        }
    }

    /// The one-line JSON result.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 by nearest rank is the 90th value; ten lie above it.
        assert_eq!(tail(&xs), Some((90, 90.0, 10)));
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&few), Some((100, 12.0, 0)));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), Some((50, 10.0, 10)));
    }

    #[test]
    fn repeat_register_flags_a_changed_count() {
        let mut c = Checks::default();
        assert!(c.repeat("commits", 7).is_ok());
        assert!(c.repeat("commits", 7).is_ok());
        assert!(c.repeat("commits", 8).is_err());
    }

    #[test]
    fn missing_metric_fails_the_run() {
        let mut values = BTreeMap::new();
        values.insert("a_s", 1.5);
        let out = Outcome::new(&Checks::default(), &[("a_s", "s"), ("b_s", "s")], &values);
        assert_eq!(out.failed, 1);
        assert_eq!(
            out.to_json_line(),
            "{\"correct\":false,\"attempted\":1,\"failed\":1,\"metrics\":{\"a_s\":{\"value\":1.5,\"unit\":\"s\"},\"b_s\":{\"value\":0,\"unit\":\"s\"}}}"
        );
    }
}
