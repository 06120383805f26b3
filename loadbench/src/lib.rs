//! # loadbench — the repository's end-to-end benchmark
//!
//! Two seeded workloads drive the program through its public entry
//! points — `CampaignEngine::run`, `ArtifactCache` and `CampaignServer`
//! over loopback TCP — check every output, and report the end-to-end
//! metrics (untraced run) or the per-layer metrics (traced run). See
//! `README.md` next to this crate for the metrics, the workloads and why
//! each exists.

#![forbid(unsafe_code)]

pub mod host;
pub mod http;
pub mod metrics;
pub mod pass;
pub mod plan;
pub mod serve;
pub mod warm;

use metrics::{geomean_of_medians, median, quantile, END_TO_END, PER_LAYER};
use pass::Pass;
use plan::{Plan, Workload};
use std::path::Path;

/// Runs `setup` `count` times (at least once), recording each duration in
/// `times`; returns the last set-up. Each call gets its repetition index.
///
/// # Errors
///
/// The first failing set-up's error.
pub fn repeat_setup<T>(
    count: usize,
    times: &mut Vec<f64>,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    for rep in 0..count.max(1) {
        // Release the previous set-up before the next one starts.
        drop(last.take());
        let started = std::time::Instant::now();
        last = Some(setup(rep)?);
        times.push(started.elapsed().as_secs_f64());
    }
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// One run's options.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Target length of the timed phase (sizes the work list).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output checked out.
    pub correct: bool,
    /// Jobs and requests attempted.
    pub attempted: u64,
    /// Jobs and requests that failed or did not verify.
    pub failed: u64,
    /// The metrics of the result line: (name, value, unit).
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result line.
    pub details: Vec<String>,
    /// What went wrong.
    pub violations: Vec<String>,
    /// (mean coverage, mean loaded fraction, mean storage ratio) of the
    /// measured pass.
    pub outcome: (f64, f64, f64),
}

impl RunResult {
    /// A metric's value by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| *n == name).map(|&(_, v, _)| v)
    }
}

/// Runs one pass of `plan` per entry of `traced` (a traced pass when
/// `true`), each set up `setups` times.
fn passes(plan: &Plan, traced: &[bool], setups: usize, dir: &Path) -> Result<Vec<Pass>, String> {
    match plan.workload {
        Workload::WarmSweep => traced
            .iter()
            .enumerate()
            .map(|(i, &traced)| warm::pass(plan, traced, setups, &dir.join(format!("pass-{i}"))))
            .collect(),
        Workload::ServeMixed => serve::passes(plan, traced, setups, dir),
    }
}

/// Runs the benchmark once. `scratch` is an empty directory the run may
/// write to.
///
/// An untraced run sets up [`Workload::setup_repeats`] times, reports
/// their median as `setup_s`, and measures the full plan once. A traced run on warm-sweep plans for a third of `seconds`
/// and measures it three times, untraced, traced and untraced again: the
/// traced pass gives the per-layer metrics, and its throughput against
/// the mean of the two around it gives the tracing overhead with any
/// linear drift of the host cancelled. serve-mixed has no untraced mode
/// (the server always records its metrics registry), so its traced run
/// measures the full plan once, traced, and reports no overhead.
///
/// # Errors
///
/// Set-up failures; a wrong output is not an error but `correct: false`.
pub fn run(options: &Options, scratch: &Path) -> Result<RunResult, String> {
    let order: &[bool] = match (options.trace, options.workload) {
        (false, _) => &[false],
        (true, Workload::WarmSweep) => &[false, true, false],
        (true, Workload::ServeMixed) => &[true],
    };
    let plan = Plan::new(options.workload, options.seed, options.seconds / order.len() as f64);
    let setups = if options.trace { 1 } else { options.workload.setup_repeats() };
    let probe = host::HostProbe::start();
    let passes = passes(&plan, order, setups, scratch)?;
    let host = probe.finish();
    let measured_at = order.iter().position(|&t| t == options.trace).expect("a measured pass");
    let measured = &passes[measured_at];

    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let violations: Vec<String> =
        passes.iter().flat_map(|p| p.violations.iter().cloned()).collect();
    let correct = failed == 0 && violations.is_empty() && attempted > 0;

    let (coverage, loaded, storage) = measured.outcome.means();
    let pooled: Vec<f64> = measured.latencies.iter().map(|&(_, l)| l).collect();
    let latency = geomean_of_medians(&measured.latencies);
    let mut groups: Vec<&str> = measured.latencies.iter().map(|&(g, _)| g).collect();
    groups.sort_unstable();
    groups.dedup();
    let group_medians: Vec<String> = groups
        .iter()
        .map(|g| {
            let v: Vec<f64> =
                measured.latencies.iter().filter(|(h, _)| h == g).map(|&(_, l)| l).collect();
            format!("{g}={:.4}s/{}", median(&v), v.len())
        })
        .collect();
    let setup_times: Vec<String> = measured.setup_times.iter().map(|t| format!("{t:.4}")).collect();
    let mut details = vec![
        format!(
            "loadbench: workload={} seed={} seconds={} trace={} campaigns={} batch_campaigns={} jobs={} set-ups (s)={}",
            options.workload.name(),
            options.seed,
            options.seconds,
            u8::from(options.trace),
            plan.campaigns.len(),
            plan.batch.len(),
            plan.jobs(),
            setup_times.join(","),
        ),
        format!(
            "latency: p50 (geometric mean of group medians)={latency:.4}s | pooled p50={:.4}s p90={:.4}s n={} | batch p50={:.4}s n={} | timed phase {:.2}s",
            median(&pooled),
            quantile(&pooled, 0.9),
            pooled.len(),
            median(&measured.batch_latencies),
            measured.batch_latencies.len(),
            measured.wall_s,
        ),
        format!("group medians: {}", group_medians.join(" ")),
        format!(
            "host: steal_ticks={} cpu_wall_ratio={:.3} calib_before_ms={:.2} calib_after_ms={:.2}",
            host.steal_ticks, host.cpu_wall_ratio, host.calib_before_ms, host.calib_after_ms
        ),
    ];
    let deciles: Vec<String> =
        (1..10).map(|d| format!("{:.3}", quantile(&pooled, f64::from(d) / 10.0))).collect();
    details.push(format!("latency deciles: {}", deciles.join(" ")));
    details.push(format!(
        "outcome: coverage={coverage} loaded_fraction={loaded} storage_ratio={storage}"
    ));

    let metrics = if options.trace {
        let mut layers = measured.layers.clone();
        let untraced: Vec<f64> =
            order.iter().zip(&passes).filter(|(&t, _)| !t).map(|(_, p)| p.jobs_per_s()).collect();
        let traced = measured.jobs_per_s();
        let overhead = if untraced.is_empty() || traced <= 0.0 {
            0.0
        } else {
            untraced.iter().sum::<f64>() / untraced.len() as f64 / traced - 1.0
        };
        layers.set("obs.overhead_fraction", overhead);
        layers.set("host.steal_ticks", host.steal_ticks as f64);
        layers.set("host.cpu_wall_ratio", host.cpu_wall_ratio);
        layers.set("host.calib_before_ms", host.calib_before_ms);
        layers.set("host.calib_after_ms", host.calib_after_ms);
        PER_LAYER.iter().map(|&(name, unit, _)| (name, layers.get(name), unit)).collect()
    } else {
        let attempted_f = attempted.max(1) as f64;
        let values = [
            median(&measured.setup_times),
            measured.jobs_per_s(),
            latency,
            (attempted_f - failed as f64) / attempted_f,
            measured.peak_rss_mib,
            coverage,
            loaded,
            storage,
        ];
        END_TO_END.iter().zip(values).map(|(&(name, unit, _), v)| (name, v, unit)).collect()
    };
    let outcome = (coverage, loaded, storage);
    Ok(RunResult { correct, attempted, failed, metrics, details, violations, outcome })
}
