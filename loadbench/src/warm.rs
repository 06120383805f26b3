//! `warm-sweep`: one long-lived artifact cache, filled during set-up
//! through the cache's public functions, then one closed-loop client with
//! 1 engine worker submitting small campaigns, each with a JSONL journal
//! attached. Every timed campaign must hit the cache on every shelf, so
//! the timed phase is Procedure 1, compaction, the fault-simulation
//! sweeps and expansion verification.

use crate::metrics::Layers;
use crate::pass::{journal_bytes, Pass, TimedSink};
use crate::plan::Plan;
use bist_batch::{
    campaign_from_spec, ArtifactCache, CacheStats, Campaign, CampaignEngine, CircuitSpec, JsonlSink,
};
use bist_obs::{Obs, Registry};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use subseq_bist::tgen::TgenConfig;
use subseq_bist::CompileOptions;

const WORKERS: usize = 1;
/// Threads filling the cache during set-up (set-up is not the client).
const SETUP_THREADS: usize = 2;

/// Runs one pass of `plan`, writing journals under `dir`.
///
/// # Errors
///
/// Set-up failures: bad specs, an artifact that cannot be built, or an
/// unwritable journal directory.
pub fn pass(plan: &Plan, traced: bool, setups: usize, dir: &Path) -> Result<Pass, String> {
    let mut pass = Pass::new();
    let registry = Arc::new(Registry::new());
    let obs = if traced { Obs::with_registry(Arc::clone(&registry)) } else { Obs::noop() };
    let (campaigns, cache, layers) =
        crate::repeat_setup(setups, &mut pass.setup_times, |_| setup(plan, &obs))?;
    pass.layers = layers;

    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let engine = CampaignEngine::new().threads(WORKERS).obs(obs).shared_cache(Arc::clone(&cache));
    let mut write_s = 0.0;
    let started = Instant::now();
    for (i, (campaign, spec)) in campaigns.iter().zip(&plan.campaigns).enumerate() {
        let path = dir.join(format!("warm-{i}.jsonl"));
        let journal = JsonlSink::create(&path).map_err(|e| e.to_string())?;
        let mut sink = TimedSink::new(journal.with_fingerprint(campaign.fingerprint()));
        let before = cache.stats();
        let submitted = Instant::now();
        let result = engine.run(campaign, &mut [&mut sink]);
        pass.latencies.push((spec.circuits[0], submitted.elapsed().as_secs_f64()));
        write_s += sink.seconds;
        let misses = total_misses(&cache.stats()) - total_misses(&before);
        if misses > 0 {
            pass.fail(0, format!("campaign {i}: {misses} cache misses in the timed phase"));
        }
        pass.check_offline(&format!("campaign {i}"), result, spec.jobs());
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass.peak_rss_mib = crate::host::peak_rss_mib().unwrap_or(0.0);

    // Each journal must hold exactly one schema-valid row per job.
    for (i, spec) in plan.campaigns.iter().enumerate() {
        let path = dir.join(format!("warm-{i}.jsonl"));
        let rows = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| bist_batch::jsonl::validate_jsonl(&text));
        match rows {
            Ok(rows) if rows == spec.jobs() => {}
            Ok(rows) => pass.fail(
                0,
                format!("journal {} has {rows} rows, expected {}", path.display(), spec.jobs()),
            ),
            Err(e) => pass.fail(0, format!("journal {} is invalid: {e}", path.display())),
        }
    }
    if traced {
        pass.record_registry(&registry.snapshot(), WORKERS);
        pass.layers.set("cache.resident_bytes", cache.residency().total_approx_bytes() as f64);
        pass.layers.set("jsonl.write_s", write_s);
        pass.layers.set("jsonl.bytes", journal_bytes(dir) as f64);
    }
    Ok(pass)
}

fn total_misses(s: &CacheStats) -> usize {
    s.circuit_misses + s.tape_misses + s.compiled_misses + s.fault_misses + s.t0_misses
}

/// The artifacts one circuit needs: its `T0`s and staged compiles.
#[derive(Default)]
struct CircuitNeeds {
    t0s: BTreeMap<(u64, String), TgenConfig>,
    compiles: BTreeMap<String, CompileOptions>,
}

/// Parses the campaigns and fills a fresh cache with every artifact they
/// will ask for, timing each call into the cache by the layer its miss
/// path runs: netlist tape compile, fault collapse (`sim`), `T0`
/// generation (`tgen`) and the staged compile (`netlist`).
fn setup(plan: &Plan, obs: &Obs) -> Result<(Vec<Campaign>, Arc<ArtifactCache>, Layers), String> {
    let campaigns: Vec<Campaign> = plan
        .campaigns
        .iter()
        .map(|spec| campaign_from_spec(&spec.to_json()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut needs: BTreeMap<String, CircuitNeeds> = BTreeMap::new();
    for campaign in &campaigns {
        for job in campaign.expand().map_err(|e| e.to_string())? {
            let entry = needs.entry(job.circuit.key()).or_default();
            let tgen = campaign.tgen_config().clone();
            entry.t0s.insert((job.seed, format!("{tgen:?}")), tgen);
            let options = campaign.optimize_options();
            if !options.is_none() {
                entry.compiles.insert(options.key(), options);
            }
        }
    }
    // Largest circuits first, so the two set-up threads finish together.
    let mut circuits: Vec<(String, CircuitNeeds)> = needs.into_iter().collect();
    circuits.sort_by_key(|(name, _)| std::cmp::Reverse(gates(name)));

    let cache = Arc::new(ArtifactCache::with_obs(obs));
    let next = AtomicUsize::new(0);
    let merged = Mutex::new(Layers::new());
    let errors = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..SETUP_THREADS {
            scope.spawn(|| {
                while let Some((name, needs)) = circuits.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let mut local = Layers::new();
                    if let Err(e) = fill(&cache, name, needs, &mut local) {
                        errors.lock().expect("errors lock").push(e);
                    }
                    let mut merged = merged.lock().expect("layers lock");
                    for (&metric, &value) in &local.0 {
                        merged.add(metric, value);
                    }
                }
            });
        }
    });
    if let Some(e) = errors.into_inner().expect("errors lock").into_iter().next() {
        return Err(e);
    }
    Ok((campaigns, cache, merged.into_inner().expect("layers lock")))
}

/// Fills one circuit's artifacts, timing each call.
fn fill(
    cache: &ArtifactCache,
    name: &str,
    needs: &CircuitNeeds,
    layers: &mut Layers,
) -> Result<(), String> {
    let spec = CircuitSpec::Suite(name.to_string());
    let timed = |layers: &mut Layers, metric: &'static str, started: Instant| {
        let seconds = started.elapsed().as_secs_f64();
        layers.add(metric, seconds);
        layers.add("cache.fill_s", seconds);
    };
    let started = Instant::now();
    let circuit = cache.circuit(&spec).map_err(|e| e.to_string())?;
    layers.add("cache.fill_s", started.elapsed().as_secs_f64());
    let started = Instant::now();
    let tape = cache.tape(&spec, &circuit).map_err(|e| e.to_string())?;
    timed(layers, "netlist.tape_compile_s", started);
    let started = Instant::now();
    let faults = cache.faults(&spec, &circuit).map_err(|e| e.to_string())?;
    timed(layers, "sim.collapse_s", started);
    for ((seed, _), tgen) in &needs.t0s {
        let started = Instant::now();
        let t0 = cache
            .generated_t0(&spec, *seed, tgen, &circuit, &faults, &tape)
            .map_err(|e| e.to_string())?;
        timed(layers, "tgen.generate_s", started);
        layers.add("tgen.t0_len", t0.sequence.len() as f64);
    }
    for options in needs.compiles.values() {
        let started = Instant::now();
        cache.compiled(&spec, *options, &circuit, &tape).map_err(|e| e.to_string())?;
        timed(layers, "netlist.optimize_s", started);
    }
    Ok(())
}

fn gates(name: &str) -> usize {
    subseq_bist::netlist::benchmarks::suite().iter().find(|e| e.name == name).map_or(0, |e| e.gates)
}
