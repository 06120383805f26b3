//! Metric definitions, sample statistics and the result line.

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and better direction.
pub type Def = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// The end-to-end metrics, printed by every untraced run of every
/// workload. See `README.md` for what each means on each workload.
pub const END_TO_END: [Def; 8] = [
    ("setup_s", "s", Lower),
    ("jobs_per_s", "1/s", Higher),
    ("latency_p50_s", "s", Lower),
    ("ok_fraction", "fraction", Higher),
    ("peak_rss_mib", "MiB", Lower),
    ("mean_coverage", "fraction", Higher),
    ("mean_loaded_fraction", "fraction", Lower),
    ("mean_storage_ratio", "fraction", Lower),
];

/// The per-layer metrics, printed by every traced run of every workload
/// (0 where the workload does not exercise the layer).
pub const PER_LAYER: [Def; 41] = [
    ("tgen.generate_s", "s", Lower),
    ("tgen.t0_len", "count", Lower),
    ("cache.hit_ratio", "fraction", Higher),
    ("cache.fill_s", "s", Lower),
    ("cache.resident_bytes", "bytes", Lower),
    ("cache.evictions", "count", Lower),
    ("cache.circuit.miss", "count", Lower),
    ("cache.tape.miss", "count", Lower),
    ("cache.compiled.miss", "count", Lower),
    ("cache.fault.miss", "count", Lower),
    ("cache.t0.miss", "count", Lower),
    ("engine.queue_wait_s", "s", Lower),
    ("engine.exec_s", "s", Lower),
    ("engine.busy_fraction", "fraction", Higher),
    ("engine.retries", "count", Lower),
    ("netlist.tape_compile_s", "s", Lower),
    ("netlist.optimize_s", "s", Lower),
    ("sim.collapse_s", "s", Lower),
    ("sim.sweep_s", "s", Lower),
    ("sim.vectors", "count", Lower),
    ("sim.ns_per_vector", "ns", Lower),
    ("sim.early_exit_ratio", "fraction", Higher),
    ("sim.tape_patches", "count", Lower),
    ("sim.chunk_early_exits", "count", Higher),
    ("core.procedure1_s", "s", Lower),
    ("core.postprocess_s", "s", Lower),
    ("core.t0_sim_s", "s", Lower),
    ("session.verify_s", "s", Lower),
    ("session.fault_sim_s", "s", Lower),
    ("session.t0_s", "s", Lower),
    ("serve.accept_s", "s", Lower),
    ("serve.queue_s", "s", Lower),
    ("serve.rejected", "count", Lower),
    ("serve.metrics_scrape_s", "s", Lower),
    ("jsonl.write_s", "s", Lower),
    ("jsonl.bytes", "bytes", Lower),
    ("obs.overhead_fraction", "fraction", Lower),
    ("host.steal_ticks", "count", Lower),
    ("host.cpu_wall_ratio", "ratio", Higher),
    ("host.calib_before_ms", "ms", Lower),
    ("host.calib_after_ms", "ms", Lower),
];

/// The per-layer counts that must repeat exactly across two traced runs
/// with one seed.
pub const EXACT_COUNTS: [&str; 10] = [
    "sim.vectors",
    "sim.tape_patches",
    "sim.chunk_early_exits",
    "cache.circuit.miss",
    "cache.tape.miss",
    "cache.compiled.miss",
    "cache.fault.miss",
    "cache.t0.miss",
    "tgen.t0_len",
    "jsonl.bytes",
];

/// Per-layer values of one traced pass, keyed by [`PER_LAYER`] name.
#[derive(Debug, Clone, Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    /// Every [`PER_LAYER`] metric at 0.
    #[must_use]
    pub fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|&(name, _, _)| (name, 0.0)).collect())
    }

    /// Sets a metric (panics on a name outside [`PER_LAYER`], which is a
    /// bug in the benchmark).
    pub fn set(&mut self, name: &'static str, value: f64) {
        *self.0.get_mut(name).unwrap_or_else(|| panic!("unknown per-layer metric `{name}`")) =
            value;
    }

    /// Adds to a metric.
    pub fn add(&mut self, name: &'static str, value: f64) {
        let current = self.get(name);
        self.set(name, current + value);
    }

    /// A metric's value.
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `samples` (0 when
/// empty).
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The geometric mean over groups of each group's median, for samples
/// tagged `(group, value)` (0 when empty). Every group moves it, whatever
/// its share of the samples, and a group's own median keeps it off the
/// gaps between groups of unequal size.
#[must_use]
pub fn geomean_of_medians(samples: &[(&str, f64)]) -> f64 {
    let mut groups: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for &(group, value) in samples {
        groups.entry(group).or_default().push(value);
    }
    if groups.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = groups.values().map(|v| median(v).ln()).sum();
    (log_sum / groups.len() as f64).exp()
}

/// Renders a finite number for JSON with all its digits.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: the last line the benchmark prints.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let rendered: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(*value))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        rendered.join(", ")
    )
}
