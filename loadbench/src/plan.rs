//! Seeded workload plans: the fixed list of campaign specs a run submits.
//!
//! The workload seed drives a small self-contained generator
//! (`splitmix64`), so a plan never depends on the program under test, and
//! the program only ever sees the rendered campaign specs. The same
//! (workload, seed, seconds) always renders byte-identical specs.

use std::fmt::Write as _;

/// `splitmix64`: tiny, fast and fully specified, so plans stay stable
/// across toolchains and across versions of the program.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The workloads the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small campaigns on one warmed, long-lived artifact cache.
    WarmSweep,
    /// An in-process campaign server driven by an interactive and a
    /// batch client over loopback TCP.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 2] = [Workload::WarmSweep, Workload::ServeMixed];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmSweep => "warm-sweep",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Set-ups of an untraced run, whose median is `setup_s`: enough that
    /// the set-ups add up to a few seconds (warm-sweep's takes about 3 s,
    /// serve-mixed's about 0.13 s).
    #[must_use]
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::WarmSweep => 3,
            Workload::ServeMixed => 15,
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The `T0` generator defaults of the `run` CLI (cap, compaction budget).
pub const T0_DEFAULT: (usize, usize) = (1024, 300);
/// The reduced `T0` configuration of the largest warm-sweep circuit.
pub const T0_LARGE: (usize, usize) = (256, 100);
/// The short `T0` of the interactive serve-mixed client.
pub const T0_INTERACTIVE: (usize, usize) = (64, 20);
/// The `T0` of the batch serve-mixed client's cold campaigns.
pub const T0_SERVE_BATCH: (usize, usize) = (160, 40);

const WARM_CIRCUITS: [&str; 6] = ["a298", "a344", "a382", "a400", "a526", "a1423"];
const INTERACTIVE_CIRCUITS: [&str; 2] = ["s27", "a298"];
const SERVE_BATCH_CIRCUITS: [&str; 3] = ["a298", "a382", "a400"];
/// Warm `T0` seeds per interactive circuit: enough that the outcome
/// metrics average over many `T0`s, few enough to warm in a blink.
const INTERACTIVE_SEEDS: usize = 6;
/// `T0` seeds are pinned, not drawn from the workload seed: `T0` cost
/// varies up to 7× across seeds (a344: 0.34–2.25 s per job), and a 30-s
/// run holds too few `T0`s to average that out. The workload seed draws
/// the campaign mix, order and think times instead.
///
/// The pinned `T0` seed of the warm caches (the `run` CLI's default).
pub const WARM_T0_SEED: u64 = 1999;
/// First `T0` seed of serve-mixed's batch campaigns (one per campaign).
pub const SERVE_BATCH_T0_SEED: u64 = 3000;

/// Work-list sizes per second of `--seconds`, measured on a 2-vCPU host
/// so that a run's timed phase lasts about `--seconds` (warm-sweep then
/// rounds to whole cycles: 288 campaigns, about 40 s, at 30 s). They size
/// the list once; the run then does exactly that list, however long it
/// takes.
const WARM_CAMPAIGNS_PER_S: f64 = 7.2;
/// serve-mixed runs one interactive campaign per batch campaign.
const SERVE_PAIRS_PER_S: f64 = 3.6;
/// Think time of the interactive client, spread evenly over this range
/// (ms): shorter than a batch campaign, so the interactive campaign lands
/// at a seeded point inside the batch campaign it must wait for.
const THINK_MS: (u64, u64) = (5, 80);

/// One campaign spec in the JSON vocabulary of `POST /campaigns`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// Suite circuit names.
    pub circuits: Vec<&'static str>,
    /// Backend labels in the `parse_backend` syntax.
    pub backends: Vec<&'static str>,
    /// `T0` seeds.
    pub seeds: Vec<u64>,
    /// Repetition counts `n`.
    pub ns: Vec<usize>,
    /// Whether the §3.2 static compaction runs.
    pub postprocess: bool,
    /// Staged-compiler passes, if any.
    pub optimize: Option<&'static str>,
    /// `T0` length cap.
    pub t0_cap: usize,
    /// `T0` static-compaction budget.
    pub t0_budget: usize,
}

impl Spec {
    fn new(
        circuits: Vec<&'static str>,
        seeds: Vec<u64>,
        ns: Vec<usize>,
        t0: (usize, usize),
    ) -> Spec {
        Spec {
            circuits,
            backends: vec!["packed"],
            seeds,
            ns,
            postprocess: true,
            optimize: None,
            t0_cap: t0.0,
            t0_budget: t0.1,
        }
    }

    /// Number of jobs the spec expands to (circuits × backends × seeds;
    /// one scheme).
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.circuits.len() * self.backends.len() * self.seeds.len()
    }

    /// The spec as the JSON body of `POST /campaigns` (also parsed by
    /// `bist_batch::campaign_from_spec` for the offline workloads).
    #[must_use]
    pub fn to_json(&self) -> String {
        fn list<T: std::fmt::Display>(items: &[T], quote: bool) -> String {
            let q = if quote { "\"" } else { "" };
            let inner: Vec<String> = items.iter().map(|i| format!("{q}{i}{q}")).collect();
            format!("[{}]", inner.join(", "))
        }
        let mut out = format!(
            "{{\"circuits\": {}, \"backends\": {}, \"seeds\": {}, \"ns\": {}, \"postprocess\": {}, \
             \"verify\": true, \"t0_cap\": {}, \"t0_budget\": {}",
            list(&self.circuits, true),
            list(&self.backends, true),
            list(&self.seeds, false),
            list(&self.ns, false),
            self.postprocess,
            self.t0_cap,
            self.t0_budget,
        );
        if let Some(passes) = self.optimize {
            let _ = write!(out, ", \"optimize\": \"{passes}\"");
        }
        out.push('}');
        out
    }
}

/// A workload's complete, seeded work list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Foreground campaigns: every campaign of the offline workloads, the
    /// interactive client's campaigns on serve-mixed.
    pub campaigns: Vec<Spec>,
    /// serve-mixed: think time (ms) before each interactive campaign.
    pub think_ms: Vec<u64>,
    /// serve-mixed: the batch client's cold campaigns.
    pub batch: Vec<Spec>,
}

fn count(per_second: f64, seconds: f64, min: usize) -> usize {
    ((per_second * seconds).round() as usize).max(min)
}

impl Plan {
    /// The plan of `workload` for `seed`, sized for a timed phase of about
    /// `seconds` on the reference host.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Plan {
        // Decorrelate workloads that share a seed.
        let mut rng = Rng::new(seed ^ (workload as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
        match workload {
            Workload::WarmSweep => warm_sweep(&mut rng, seconds),
            Workload::ServeMixed => serve_mixed(&mut rng, seconds),
        }
    }

    /// Every spec of the plan, one per line, in submission order, with
    /// the think times: the bytes a seed must reproduce exactly.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, spec) in self.campaigns.iter().enumerate() {
            match self.think_ms.get(i) {
                Some(think) => {
                    let _ = writeln!(out, "fg think={think} {}", spec.to_json());
                }
                None => {
                    let _ = writeln!(out, "fg {}", spec.to_json());
                }
            }
        }
        for spec in &self.batch {
            let _ = writeln!(out, "bg {}", spec.to_json());
        }
        out
    }

    /// Jobs in the whole plan.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.campaigns.iter().chain(&self.batch).map(Spec::jobs).sum()
    }
}

/// The warm cache holds one `T0` per circuit, generated from the pinned
/// [`WARM_T0_SEED`], so the cache contents and the set-up are the same for
/// every workload seed. Circuits are dealt in shuffled rounds of one
/// campaign each. Each circuit walks through every combination of the
/// other axes (`n` pair × backend × postprocess) twice, once per
/// `--optimize` setting, in a seeded order that alternates `--optimize`
/// off and on. A plan of at least one such cycle per circuit is rounded
/// to whole cycles, so every run holds the same multiset of campaigns and
/// the workload seed decides only their order.
fn warm_sweep(rng: &mut Rng, seconds: f64) -> Plan {
    const NS: [[usize; 2]; 3] = [[2, 4], [2, 8], [4, 8]];
    const BACKENDS: [&str; 2] = ["packed", "sharded:1:256"];
    let combos: Vec<(usize, usize, bool)> = (0..NS.len())
        .flat_map(|n| (0..BACKENDS.len()).flat_map(move |b| [(n, b, true), (n, b, false)]))
        .collect();
    // Per circuit: the upcoming campaigns, popped from the back.
    let mut queues: Vec<Vec<(usize, usize, bool, bool)>> = vec![Vec::new(); WARM_CIRCUITS.len()];
    let cycle = WARM_CIRCUITS.len() * 2 * combos.len();
    let mut n = count(WARM_CAMPAIGNS_PER_S, seconds, WARM_CIRCUITS.len());
    if n >= cycle {
        n = (n + cycle / 2) / cycle * cycle;
    }
    let mut campaigns = Vec::with_capacity(n);
    let mut round: Vec<usize> = Vec::new();
    while campaigns.len() < n {
        if round.is_empty() {
            round = (0..WARM_CIRCUITS.len()).collect();
            rng.shuffle(&mut round);
        }
        let c = round.pop().expect("refilled above");
        if queues[c].is_empty() {
            let mut plain = combos.clone();
            let mut optimized = combos.clone();
            rng.shuffle(&mut plain);
            rng.shuffle(&mut optimized);
            // Interleaved so that popping from the back alternates
            // `--optimize` off, on, off, ...
            queues[c] = optimized
                .into_iter()
                .zip(plain)
                .flat_map(|(on, off)| [(on.0, on.1, on.2, true), (off.0, off.1, off.2, false)])
                .collect();
        }
        let (ns, backend, postprocess, optimize) = queues[c].pop().expect("refilled above");
        let circuit = WARM_CIRCUITS[c];
        let t0 = if circuit == "a1423" { T0_LARGE } else { T0_DEFAULT };
        let mut spec = Spec::new(vec![circuit], vec![WARM_T0_SEED], NS[ns].to_vec(), t0);
        spec.backends = vec![BACKENDS[backend]];
        spec.postprocess = postprocess;
        spec.optimize = optimize.then_some("xfds");
        campaigns.push(spec);
    }
    Plan { workload: Workload::WarmSweep, campaigns, think_ms: Vec::new(), batch: Vec::new() }
}

/// The interactive client cycles through every warm spec of a pinned pool
/// (two circuits × [`INTERACTIVE_SEEDS`] `T0` seeds × the three non-empty
/// `n` sets ⊆ {1, 2}) in seeded order, with think times spread evenly over
/// [`THINK_MS`] and shuffled. The batch client's campaigns each have their
/// own pinned seed, so each misses the server's `T0` shelf; their order is
/// seeded. At the configured length every run holds the same multiset of
/// campaigns and think times.
fn serve_mixed(rng: &mut Rng, seconds: f64) -> Plan {
    let pool: Vec<Spec> = INTERACTIVE_CIRCUITS
        .iter()
        .flat_map(|&c| (0..INTERACTIVE_SEEDS as u64).map(move |k| (c, WARM_T0_SEED + k)))
        .flat_map(|(c, seed)| {
            [vec![1], vec![2], vec![1, 2]]
                .map(|ns| Spec::new(vec![c], vec![seed], ns, T0_INTERACTIVE))
        })
        .collect();
    let n = count(SERVE_PAIRS_PER_S, seconds, 4);
    let mut campaigns = Vec::with_capacity(n);
    while campaigns.len() < n {
        let mut cycle = pool.clone();
        rng.shuffle(&mut cycle);
        campaigns.extend(cycle.into_iter().take(n - campaigns.len()));
    }
    let span = (THINK_MS.1 - THINK_MS.0) as f64;
    let mut think_ms: Vec<u64> =
        (0..n).map(|k| THINK_MS.0 + (span * (k as f64 + 0.5) / n as f64) as u64).collect();
    rng.shuffle(&mut think_ms);
    let mut batch: Vec<Spec> = (0..n)
        .map(|k| {
            let circuit = SERVE_BATCH_CIRCUITS[k % SERVE_BATCH_CIRCUITS.len()];
            Spec::new(
                vec![circuit],
                vec![SERVE_BATCH_T0_SEED + k as u64],
                vec![2, 4, 8],
                T0_SERVE_BATCH,
            )
        })
        .collect();
    rng.shuffle(&mut batch);
    Plan { workload: Workload::ServeMixed, campaigns, think_ms, batch }
}
