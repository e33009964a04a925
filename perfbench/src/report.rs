//! Metric names, statistics helpers and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
///
/// The names are shared by all workloads so that every run reports every metric;
/// what "the operation" is depends on the workload (see `perfbench/README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("quality", "ratio"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("text.serialize_s", "s"),
    ("pretrain.s", "s"),
    ("pretrain.records_per_s", "1/s"),
    ("encoder.embed_s", "s"),
    ("encoder.embed_records_per_s", "1/s"),
    ("index.build_s", "s"),
    ("index.join_s", "s"),
    ("index.join_pairs_per_s", "1/s"),
    ("index.join_gflops", "GFLOP/s"),
    ("index.shards_visited", "count"),
    ("index.shards_pruned", "count"),
    ("index.prune_ratio", "ratio"),
    ("index.spill_faults", "count"),
    ("index.quant_scans", "count"),
    ("index.rescored_rows", "count"),
    ("pseudo.s", "s"),
    ("pseudo.labels", "count"),
    ("pseudo.tpr", "ratio"),
    ("pseudo.tnr", "ratio"),
    ("matcher.finetune_s", "s"),
    ("matcher.finetune_pairs_per_s", "1/s"),
    ("matcher.predict_s", "s"),
    ("matcher.predict_pairs_per_s", "1/s"),
    ("snapshot.index_load_s", "s"),
    ("snapshot.model_load_s", "s"),
    ("snapshot.index_bytes", "bytes"),
    ("snapshot.model_bytes", "bytes"),
    ("serve.knn.sent", "count"),
    ("serve.knn.ok", "count"),
    ("serve.knn.failed", "count"),
    ("serve.embed.sent", "count"),
    ("serve.embed.ok", "count"),
    ("serve.embed.failed", "count"),
    ("serve.match.sent", "count"),
    ("serve.match.ok", "count"),
    ("serve.match.failed", "count"),
    ("serve.busy_rejections", "count"),
    ("serve.knn_joins", "count"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.gen_late_p99_ms", "ms"),
    ("serve.knn_overhead_ms", "ms"),
    ("serve.knn_p99_ms", "ms"),
    ("serve.embed_p50_ms", "ms"),
    ("serve.match_p50_ms", "ms"),
    ("serve.max_rps", "1/s"),
    ("serve.failed_frac", "ratio"),
    ("stage.pretrain_s", "s"),
    ("stage.embed_s", "s"),
    ("stage.block_s", "s"),
    ("stage.finetune_s", "s"),
    ("stage.match_s", "s"),
    ("stage.sum_over_wall", "ratio"),
    ("text.self_s", "s"),
    ("pretrain.self_s", "s"),
    ("encoder.self_s", "s"),
    ("index.self_s", "s"),
    ("pseudo.self_s", "s"),
    ("matcher.self_s", "s"),
    ("snapshot.self_s", "s"),
    ("serve.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.f1_delta", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// What one run found: operation counts, check failures, metrics and notes.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Why a per-layer metric reads 0 on this workload.
    pub absent: BTreeMap<&'static str, String>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

impl Report {
    /// Counts one operation or output check; a failure is recorded with its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Marks the per-layer metrics starting with `prefix` as not measured here.
    pub fn absent(&mut self, prefix: &str, reason: &str) {
        for &(name, _) in PER_LAYER {
            if name.starts_with(prefix) && !self.metrics.contains_key(name) {
                self.absent.insert(name, reason.to_string());
            }
        }
    }

    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}` with every
    /// metric of `spec`. A metric that is neither measured nor marked absent, or that
    /// is not a finite number, fails the run.
    pub fn result_line(&mut self, spec: &[(&'static str, &'static str)]) -> String {
        let mut metrics = String::new();
        for (i, &(name, unit)) in spec.iter().enumerate() {
            let value = match self.metrics.get(name).copied() {
                Some(v) if v.is_finite() => v,
                Some(v) => {
                    self.check(false, || format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None if self.absent.contains_key(name) => 0.0,
                None => {
                    self.check(false, || format!("metric {name} was not measured"));
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}
