//! Host-noise probes, kept apart from the program's metrics so a noisy
//! verdict can be traced to the machine rather than to the program.

use std::time::Instant;

/// Steal ticks of the whole machine (`/proc/stat`, the 8th field of the
/// `cpu` line): time the hypervisor ran someone else while this VM
/// wanted the CPU. `None` where `/proc` is unavailable.
#[must_use]
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// User + system CPU seconds of this process (`/proc/self/stat`, in
/// clock ticks of 1/100 s).
#[must_use]
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A fixed integer workload that touches no repository code: the median
/// of five timings of 4 Mi rounds of an xorshift-multiply chain, in
/// milliseconds. Compared before and after a run, it shows whether the
/// machine itself got slower while the program was measured.
#[must_use]
pub fn calibrate_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|round| {
            let started = Instant::now();
            let mut x: u64 = 0x2545_f491_4f6c_dd1d ^ round;
            for _ in 0..(4 << 20) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            }
            std::hint::black_box(x);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}

/// The host-noise record of one run.
#[derive(Debug, Clone, Copy)]
pub struct HostRecord {
    /// Steal ticks accumulated during the measured phase.
    pub steal_ticks: u64,
    /// Process CPU seconds over wall seconds during the measured phase.
    pub cpu_wall_ratio: f64,
    /// Calibration loop before the measured phase (ms).
    pub calib_before_ms: f64,
    /// Calibration loop after the measured phase (ms).
    pub calib_after_ms: f64,
}

/// Brackets a measured phase: [`HostProbe::start`] before,
/// [`HostProbe::finish`] after.
#[derive(Debug)]
pub struct HostProbe {
    calib_before_ms: f64,
    steal: Option<u64>,
    cpu: Option<f64>,
    started: Instant,
}

impl HostProbe {
    /// Runs the calibration loop and snapshots the counters.
    #[must_use]
    pub fn start() -> HostProbe {
        let calib_before_ms = calibrate_ms();
        HostProbe {
            calib_before_ms,
            steal: steal_ticks(),
            cpu: process_cpu_seconds(),
            started: Instant::now(),
        }
    }

    /// Closes the bracket and runs the calibration loop again.
    #[must_use]
    pub fn finish(self) -> HostRecord {
        let wall = self.started.elapsed().as_secs_f64();
        let cpu = match (self.cpu, process_cpu_seconds()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        };
        let steal = match (self.steal, steal_ticks()) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        };
        HostRecord {
            steal_ticks: steal,
            cpu_wall_ratio: cpu / wall.max(1e-9),
            calib_before_ms: self.calib_before_ms,
            calib_after_ms: calibrate_ms(),
        }
    }
}
