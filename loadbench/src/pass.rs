//! What one pass of a workload measured, and the helpers the workloads
//! share to fill it.

use crate::metrics::Layers;
use bist_batch::{BatchError, CampaignOutcome, CampaignSummary, JobRecord, ReportSink};
use bist_obs::MetricsSnapshot;
use std::time::Instant;

/// The paper's outcome metrics, accumulated job-weighted over every
/// campaign a pass completed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// (jobs, mean coverage, mean loaded fraction, mean storage ratio) of
    /// each per-circuit summary line.
    lines: Vec<[f64; 4]>,
}

impl Outcome {
    /// Adds a campaign summary's per-circuit lines.
    pub fn add(&mut self, summary: &CampaignSummary) {
        for line in &summary.circuits {
            self.lines.push([
                line.jobs as f64,
                line.mean_coverage,
                line.mean_loaded_fraction,
                line.mean_storage_ratio,
            ]);
        }
    }

    /// (mean coverage, mean loaded fraction, mean storage ratio). The
    /// lines are summed in a fixed order, so the means are bit-identical
    /// whatever order the campaigns ran in.
    #[must_use]
    pub fn means(&self) -> (f64, f64, f64) {
        let mut lines = self.lines.clone();
        lines.sort_by_key(|line| line.map(f64::to_bits));
        let mut sums = [0.0; 4];
        for [jobs, coverage, loaded, storage] in lines {
            sums[0] += jobs;
            sums[1] += jobs * coverage;
            sums[2] += jobs * loaded;
            sums[3] += jobs * storage;
        }
        let jobs = sums[0].max(1.0);
        (sums[1] / jobs, sums[2] / jobs, sums[3] / jobs)
    }
}

/// One pass: optional repeated set-ups, one timed phase, verification.
#[derive(Debug, Default)]
pub struct Pass {
    /// Duration of each set-up (seconds).
    pub setup_times: Vec<f64>,
    /// Jobs and requests attempted.
    pub attempted: u64,
    /// Jobs and requests that failed or did not verify.
    pub failed: u64,
    /// What went wrong (capped).
    pub violations: Vec<String>,
    /// Jobs that completed and verified.
    pub jobs_ok: u64,
    /// Wall seconds of the timed phase.
    pub wall_s: f64,
    /// Foreground campaign latencies: (group, seconds). `latency_p50_s`
    /// is the geometric mean of the groups' medians.
    pub latencies: Vec<(&'static str, f64)>,
    /// serve-mixed: batch-client campaign latencies (seconds).
    pub batch_latencies: Vec<f64>,
    /// Outcome metrics.
    pub outcome: Outcome,
    /// `VmHWM` right after the timed phase (MiB).
    pub peak_rss_mib: f64,
    /// Per-layer metrics (filled only by a traced pass).
    pub layers: Layers,
    /// Engine execute seconds already recorded when the timed phase
    /// started (set-up campaigns), excluded from the busy fraction.
    pub exec_before_s: f64,
}

impl Pass {
    /// A pass with every per-layer metric at 0.
    #[must_use]
    pub fn new() -> Pass {
        Pass { layers: Layers::new(), ..Pass::default() }
    }

    /// Records `units` failed jobs or requests and why.
    pub fn fail(&mut self, units: u64, why: String) {
        self.failed += units;
        if self.violations.len() < 20 {
            self.violations.push(why);
        }
    }

    /// Jobs completed per wall second of the timed phase.
    #[must_use]
    pub fn jobs_per_s(&self) -> f64 {
        self.jobs_ok as f64 / self.wall_s.max(1e-9)
    }

    /// Gate for one offline campaign run: every job ran, is `Ok` and
    /// verified. Records the outcome metrics.
    pub fn check_offline(
        &mut self,
        label: &str,
        result: Result<CampaignOutcome, BatchError>,
        jobs: usize,
    ) {
        self.attempted += jobs as u64;
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => return self.fail(jobs as u64, format!("{label}: campaign failed: {e}")),
        };
        let mut ok = 0u64;
        for job in &outcome.outcomes {
            match &job.result {
                Ok(report) if report.verified() == Some(true) => ok += 1,
                Ok(report) => self.fail(
                    1,
                    format!("{label}: job {} verified = {:?}", job.spec.id, report.verified()),
                ),
                Err(e) => self.fail(1, format!("{label}: job {} failed: {e}", job.spec.id)),
            }
        }
        let missing = jobs as u64 - outcome.outcomes.len() as u64;
        if missing > 0 {
            self.fail(missing, format!("{label}: {missing} jobs never ran"));
        }
        self.jobs_ok += ok;
        self.outcome.add(&outcome.summary);
    }

    /// Fills the per-layer metrics the program exports through its
    /// metrics registry: the sweep, Procedure 1, session stages, worker
    /// pool and artifact-cache counters, over the whole pass. `workers`
    /// and the timed phase's wall time give the pool's busy fraction.
    pub fn record_registry(&mut self, snap: &MetricsSnapshot, workers: usize) {
        let seconds = |name: &str| snap.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e6);
        let count = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        let l = &mut self.layers;
        let sweep = seconds("sim.shard_busy_us");
        let vectors = count("sim.vectors");
        let chunks = count("sim.chunks");
        l.set("sim.sweep_s", sweep);
        l.set("sim.vectors", vectors);
        l.set("sim.ns_per_vector", if vectors > 0.0 { sweep * 1e9 / vectors } else { 0.0 });
        l.set(
            "sim.early_exit_ratio",
            if chunks > 0.0 { count("sim.chunk_early_exits") / chunks } else { 0.0 },
        );
        l.set("sim.tape_patches", count("sim.tape_patches"));
        l.set("sim.chunk_early_exits", count("sim.chunk_early_exits"));
        l.set("core.procedure1_s", seconds("core.procedure1_us"));
        l.set("core.postprocess_s", seconds("core.postprocess_us"));
        l.set("core.t0_sim_s", seconds("core.t0_sim_us"));
        l.set("session.verify_s", seconds("session.verify_us"));
        l.set("session.fault_sim_s", seconds("session.fault_sim_us"));
        l.set("session.t0_s", seconds("session.t0_us"));
        l.set("engine.queue_wait_s", seconds("pool.queue_wait_us"));
        l.set("engine.exec_s", seconds("pool.exec_us"));
        let timed_exec = seconds("pool.exec_us") - self.exec_before_s;
        l.set("engine.busy_fraction", timed_exec / (workers as f64 * self.wall_s).max(1e-9));
        l.set("engine.retries", count("pool.retries"));
        l.add("cache.fill_s", seconds("job.artifacts_us"));
        let (mut hits, mut misses, mut evictions) = (0.0, 0.0, 0.0);
        for (shelf, name) in [
            ("circuit", "cache.circuit.miss"),
            ("tape", "cache.tape.miss"),
            ("compiled", "cache.compiled.miss"),
            ("fault", "cache.fault.miss"),
            ("t0", "cache.t0.miss"),
        ] {
            let miss = count(&format!("cache.{shelf}.miss"));
            l.set(name, miss);
            misses += miss;
            hits += count(&format!("cache.{shelf}.hit"));
            evictions += count(&format!("cache.{shelf}.evictions"));
        }
        l.set("cache.hit_ratio", hits / (hits + misses).max(1.0));
        l.set("cache.evictions", evictions);
    }
}

/// A [`ReportSink`] that times every call into the sink it wraps.
pub struct TimedSink<S> {
    inner: S,
    /// Seconds spent inside the wrapped sink.
    pub seconds: f64,
}

impl<S> TimedSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedSink { inner, seconds: 0.0 }
    }
}

impl<S: ReportSink> ReportSink for TimedSink<S> {
    fn accept(&mut self, record: &JobRecord) -> Result<(), BatchError> {
        let started = Instant::now();
        let result = self.inner.accept(record);
        self.seconds += started.elapsed().as_secs_f64();
        result
    }

    fn finish(&mut self) -> Result<(), BatchError> {
        let started = Instant::now();
        let result = self.inner.finish();
        self.seconds += started.elapsed().as_secs_f64();
        result
    }
}

/// Bytes of the JSONL journals directly under `dir`, with each row's
/// three timing values (`seconds`, `queue_seconds`, `exec_seconds`)
/// counted as one byte each: the count then depends only on what the
/// journal layer wrote, not on how many digits a job's wall time needed.
#[must_use]
pub fn journal_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(Result::ok)
        .filter_map(|e| std::fs::read_to_string(e.path()).ok())
        .flat_map(|text| text.lines().map(|line| timing_free_len(line) + 1).collect::<Vec<_>>())
        .sum::<usize>() as u64
}

/// Length of a JSONL row with every timing value shrunk to one byte.
fn timing_free_len(row: &str) -> usize {
    let mut len = row.len();
    for key in ["\"seconds\": ", "\"queue_seconds\": ", "\"exec_seconds\": "] {
        if let Some(at) = row.find(key) {
            let value = &row[at + key.len()..];
            let digits = value.find([',', '}']).unwrap_or(value.len());
            len = len + 1 - digits;
        }
    }
    len
}

#[cfg(test)]
mod tests {
    use super::timing_free_len;

    #[test]
    fn timing_digits_do_not_count() {
        let fast = r#"{"job": 1, "seconds": 0.250000, "queue_seconds": 0.000010, "exec_seconds": 0.249990, "t0_len": 64}"#;
        let slow = r#"{"job": 1, "seconds": 12.250000, "queue_seconds": 10.000010, "exec_seconds": 2.249990, "t0_len": 64}"#;
        assert_eq!(timing_free_len(fast), timing_free_len(slow));
        assert_eq!(timing_free_len(fast), fast.len() - 3 * 7);
    }
}
