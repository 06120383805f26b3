//! `serve-mixed`: an in-process `CampaignServer` with 1 engine worker,
//! driven over loopback TCP by two closed-loop clients. The interactive
//! client submits tiny warm campaigns with a seeded think time between
//! them; the batch client submits cold campaigns back to back. Each
//! client streams `/results`, then reads `/summary`.

use crate::http;
use crate::pass::{journal_bytes, Pass};
use crate::plan::{Plan, Spec};
use bist_batch::jsonl::parse_record;
use bist_batch::{
    campaign_from_spec, ArtifactCache, CampaignEngine, CampaignServer, CampaignSummary, JobStatus,
    ServeConfig,
};
use bist_obs::Registry;
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const WORKERS: usize = 1;
/// Campaigns a client may have queued before the server answers `429`.
/// Two closed-loop clients never have more than two pending.
const MAX_PENDING: usize = 16;
/// The traced interactive client scrapes `/metrics` after every this many
/// campaigns.
const SCRAPE_EVERY: usize = 10;

/// A running in-process server; dropping it shuts it down.
struct Server {
    addr: SocketAddr,
    registry: Arc<Registry>,
    thread: Option<JoinHandle<Result<(), bist_batch::BatchError>>>,
    journal_dir: PathBuf,
}

impl Server {
    /// Drains the server and waits for it to exit.
    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else { return Ok(()) };
        let response = http::request(self.addr, "POST", "/shutdown", "loadbench", "")
            .map_err(|e| format!("shutdown: {e}"))?;
        if response.status != 200 {
            return Err(format!("shutdown answered {}", response.status));
        }
        match thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// One served campaign as a client saw it.
#[derive(Debug, Clone)]
struct Served {
    /// The submitted spec.
    spec: Spec,
    /// Submitted by the batch client.
    batch: bool,
    /// `POST /campaigns` to the end of `/summary` (seconds).
    latency: f64,
    /// `POST /campaigns` round trip (seconds).
    accept: f64,
    /// Acceptance to the first streamed row (seconds).
    queue: f64,
    /// Streamed JSONL rows.
    rows: Vec<String>,
    /// The summary digest.
    digest: Option<String>,
    /// What went wrong on the wire, if anything.
    error: Option<String>,
}

/// Runs one pass of `plan` per entry of `traced` (a traced pass when
/// `true`), each against a fresh server whose journals go under its own
/// directory of `dir`, then checks every served campaign with [`verify`].
///
/// # Errors
///
/// Set-up failures: bind, warm-up or shutdown errors.
pub fn passes(
    plan: &Plan,
    traced: &[bool],
    setups: usize,
    dir: &Path,
) -> Result<Vec<Pass>, String> {
    let mut done = Vec::with_capacity(traced.len());
    for (i, &traced) in traced.iter().enumerate() {
        done.push(pass(plan, traced, setups, &dir.join(format!("pass-{i}")))?);
    }
    verify(&mut done);
    Ok(done.into_iter().map(|(pass, _)| pass).collect())
}

/// Runs one pass of `plan` against a fresh server whose journals go under
/// `dir`; returns it with every timed campaign it served. Correctness is
/// final only after [`verify`].
fn pass(
    plan: &Plan,
    traced: bool,
    setups: usize,
    dir: &Path,
) -> Result<(Pass, Vec<Served>), String> {
    let mut pass = Pass::new();
    // Dropping an earlier set-up's server shuts it down.
    let mut server = crate::repeat_setup(setups, &mut pass.setup_times, |rep| {
        setup(plan, &dir.join(format!("setup-{rep}")))
    })?;

    pass.exec_before_s =
        server.registry.snapshot().histogram("pool.exec_us").map_or(0.0, |h| h.sum as f64 / 1e6);
    let scrape_s = Mutex::new(0.0);
    let pacing = Pacing::default();
    let started = Instant::now();
    let (interactive, batch) = std::thread::scope(|scope| {
        let interactive = scope.spawn(|| {
            let mut served = Vec::with_capacity(plan.campaigns.len());
            for (i, spec) in plan.campaigns.iter().enumerate() {
                pacing.wait_for(BATCH, i + 1, plan.batch.len());
                std::thread::sleep(Duration::from_millis(plan.think_ms[i]));
                served.push(submit(server.addr, "interactive", spec, false, || {
                    pacing.submitted(INTERACTIVE);
                }));
                if traced && (i + 1) % SCRAPE_EVERY == 0 {
                    let scraped = Instant::now();
                    let ok = http::request(server.addr, "GET", "/metrics", "interactive", "")
                        .is_ok_and(|r| r.status == 200);
                    *scrape_s.lock().expect("scrape lock") += scraped.elapsed().as_secs_f64();
                    if !ok {
                        served
                            .last_mut()
                            .expect("just pushed")
                            .error
                            .get_or_insert_with(|| "metrics scrape failed".to_string());
                    }
                }
            }
            served
        });
        let batch = scope.spawn(|| {
            let mut served = Vec::with_capacity(plan.batch.len());
            for (b, spec) in plan.batch.iter().enumerate() {
                pacing.wait_for(INTERACTIVE, b, plan.campaigns.len());
                served.push(submit(server.addr, "batch", spec, true, || pacing.submitted(BATCH)));
            }
            served
        });
        (
            interactive.join().expect("interactive client panicked"),
            batch.join().expect("batch client panicked"),
        )
    });
    pass.wall_s = started.elapsed().as_secs_f64();
    pass.peak_rss_mib = crate::host::peak_rss_mib().unwrap_or(0.0);

    let registry = Arc::clone(&server.registry);
    let journal_dir = server.journal_dir.clone();
    server.shutdown()?;
    let served: Vec<Served> = interactive.into_iter().chain(batch).collect();
    for s in &served {
        if s.batch {
            pass.batch_latencies.push(s.latency);
        } else {
            pass.latencies.push(("interactive", s.latency));
        }
    }
    if traced {
        let snapshot = registry.snapshot();
        pass.record_registry(&snapshot, WORKERS);
        let resident: i64 = snapshot
            .gauges
            .iter()
            .filter(|(n, _)| n.ends_with(".resident_bytes"))
            .map(|&(_, v)| v)
            .sum();
        let l = &mut pass.layers;
        l.set("cache.resident_bytes", resident as f64);
        l.set("serve.accept_s", served.iter().map(|s| s.accept).sum());
        l.set("serve.queue_s", served.iter().map(|s| s.queue).sum());
        l.set("serve.rejected", snapshot.counter("serve.campaigns.rejected").unwrap_or(0) as f64);
        l.set("serve.metrics_scrape_s", scrape_s.into_inner().expect("scrape lock"));
        l.set("jsonl.bytes", journal_bytes(&journal_dir) as f64);
        let mut t0_len: BTreeMap<(String, u64, usize, usize), usize> = BTreeMap::new();
        for s in &served {
            for row in &s.rows {
                if let Ok(parsed) = parse_record(row) {
                    if let Some(m) = parsed.record.metrics {
                        t0_len.insert(
                            (
                                parsed.record.circuit,
                                parsed.record.seed,
                                s.spec.t0_cap,
                                s.spec.t0_budget,
                            ),
                            m.t0_len,
                        );
                    }
                }
            }
        }
        l.set("tgen.t0_len", t0_len.values().sum::<usize>() as f64);
    }
    Ok((pass, served))
}

/// Binds a server whose journals go to `journal_dir`, starts it, and
/// warms its cache with every interactive (circuit, `T0` seed) of the plan.
fn setup(plan: &Plan, journal_dir: &Path) -> Result<Server, String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: WORKERS,
        max_pending: MAX_PENDING,
        journal_dir: journal_dir.to_path_buf(),
        ..ServeConfig::default()
    };
    let server = CampaignServer::bind(config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let registry = server.registry();
    let thread = std::thread::Builder::new()
        .name("campaign-server".to_string())
        .spawn(move || server.run())
        .map_err(|e| format!("spawning the server: {e}"))?;
    let server =
        Server { addr, registry, thread: Some(thread), journal_dir: journal_dir.to_path_buf() };
    // One campaign per interactive (circuit, `T0` seed) fills the cache.
    let mut warmed = BTreeSet::new();
    for spec in &plan.campaigns {
        if warmed.insert((spec.circuits.clone(), spec.seeds.clone())) {
            let warm_up = Spec { ns: vec![1], ..spec.clone() };
            if let Some(e) = submit(addr, "warm-up", &warm_up, false, || ()).error {
                return Err(format!("warm-up campaign {}: {e}", warm_up.to_json()));
            }
        }
    }
    Ok(server)
}

const INTERACTIVE: usize = 0;
const BATCH: usize = 1;

/// Keeps the two clients in step: batch campaign `b` is submitted only
/// after interactive campaign `b - 1`, and interactive campaign `i` only
/// after batch campaign `i`. Each client stays a closed loop, but neither
/// can finish its list early and leave the other alone with the server,
/// so every interactive campaign meets the same batch load.
#[derive(Default)]
struct Pacing {
    submitted: Mutex<[usize; 2]>,
    changed: Condvar,
}

impl Pacing {
    /// Blocks until `client` has submitted `count` campaigns (or all of
    /// its `total`).
    fn wait_for(&self, client: usize, count: usize, total: usize) {
        let mut submitted = self.submitted.lock().expect("pacing lock");
        while submitted[client] < count.min(total) {
            submitted = self.changed.wait(submitted).expect("pacing lock");
        }
    }

    /// Records one submission by `client`.
    fn submitted(&self, client: usize) {
        self.submitted.lock().expect("pacing lock")[client] += 1;
        self.changed.notify_all();
    }
}

/// Submits one campaign, streams its rows and reads its summary.
/// `on_submitted` runs once the `POST` has been answered (or failed).
fn submit(
    addr: SocketAddr,
    client: &str,
    spec: &Spec,
    batch: bool,
    on_submitted: impl FnOnce(),
) -> Served {
    let mut served = Served {
        spec: spec.clone(),
        batch,
        latency: 0.0,
        accept: 0.0,
        queue: 0.0,
        rows: Vec::new(),
        digest: None,
        error: None,
    };
    let started = Instant::now();
    let result = (|| -> Result<(), String> {
        let response = http::request(addr, "POST", "/campaigns", client, &spec.to_json());
        on_submitted();
        let response = response.map_err(|e| e.to_string())?;
        let accepted = Instant::now();
        served.accept = accepted.duration_since(started).as_secs_f64();
        if response.status != 200 {
            return Err(format!("POST /campaigns answered {}: {}", response.status, response.body));
        }
        let id = http::json_field(&response.body, "id").ok_or("no campaign id")?.to_string();
        let streamed = http::stream_rows(addr, &format!("/campaigns/{id}/results"), client)
            .map_err(|e| e.to_string())?;
        if streamed.status != 200 {
            return Err(format!("/results answered {}", streamed.status));
        }
        served.queue = streamed.first_row.map_or(0.0, |t| t.duration_since(accepted).as_secs_f64());
        served.rows = streamed.rows;
        let summary = http::request(addr, "GET", &format!("/campaigns/{id}/summary"), client, "")
            .map_err(|e| e.to_string())?;
        if summary.status != 200 {
            return Err(format!("/summary answered {}: {}", summary.status, summary.body));
        }
        served.digest = http::json_field(&summary.body, "digest").map(str::to_string);
        Ok(())
    })();
    served.latency = started.elapsed().as_secs_f64();
    served.error = result.err();
    served
}

/// Finishes the correctness gate of serve-mixed passes: every request
/// succeeded, every streamed row is an `Ok`, verified job, and every
/// served digest equals the digest of an offline `CampaignEngine::run`
/// of the same spec. The offline references run here, after the timed
/// phase, on 2 worker threads; they also give the outcome metrics.
fn verify(passes: &mut [(Pass, Vec<Served>)]) {
    let distinct: BTreeSet<String> =
        passes.iter().flat_map(|(_, served)| served.iter().map(|s| s.spec.to_json())).collect();
    let references = reference_summaries(distinct.into_iter().collect());
    for (pass, served) in passes.iter_mut() {
        for (i, s) in served.iter().enumerate() {
            let label = format!("{} campaign {i}", if s.batch { "batch" } else { "interactive" });
            let jobs = s.spec.jobs() as u64;
            pass.attempted += 1 + jobs;
            if let Some(e) = &s.error {
                pass.fail(1 + jobs, format!("{label}: {e}"));
                continue;
            }
            let mut ok = 0u64;
            for row in &s.rows {
                match parse_record(row) {
                    Ok(p)
                        if p.record.status == JobStatus::Ok
                            && p.record.metrics.as_ref().and_then(|m| m.verified) == Some(true) =>
                    {
                        ok += 1;
                    }
                    Ok(p) => pass
                        .fail(1, format!("{label}: job {} is {:?}", p.record.job, p.record.status)),
                    Err(e) => pass.fail(1, format!("{label}: bad row: {e}")),
                }
            }
            if (s.rows.len() as u64) < jobs {
                pass.fail(
                    jobs - s.rows.len() as u64,
                    format!("{label}: {} of {jobs} rows streamed", s.rows.len()),
                );
            }
            pass.jobs_ok += ok;
            match references.get(&s.spec.to_json()) {
                Some(Ok(reference))
                    if s.digest.as_deref()
                        == Some(format!("{:016x}", reference.digest()).as_str()) =>
                {
                    pass.outcome.add(reference);
                }
                Some(Ok(reference)) => pass.fail(
                    1,
                    format!(
                        "{label}: served digest {:?}, offline {:016x}",
                        s.digest,
                        reference.digest()
                    ),
                ),
                Some(Err(e)) => pass.fail(1, format!("{label}: offline reference failed: {e}")),
                None => pass.fail(1, format!("{label}: no offline reference")),
            }
        }
    }
}

/// Offline summaries of `specs`, two campaigns at a time over one shared
/// cache.
fn reference_summaries(specs: Vec<String>) -> BTreeMap<String, Result<CampaignSummary, String>> {
    let cache = Arc::new(ArtifactCache::new());
    let queue = Mutex::new(specs);
    let done = Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let engine = CampaignEngine::new().threads(1).shared_cache(Arc::clone(&cache));
                loop {
                    let Some(json) = queue.lock().expect("queue lock").pop() else { break };
                    let summary = campaign_from_spec(&json)
                        .and_then(|campaign| engine.run(&campaign, &mut []))
                        .map(|outcome| outcome.summary)
                        .map_err(|e| e.to_string());
                    done.lock().expect("done lock").insert(json, summary);
                }
            });
        }
    });
    done.into_inner().expect("done lock")
}
