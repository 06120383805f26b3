//! Fault-site-mapped simulation over a staged compile.
//!
//! An optimized [`GateTape`](bist_netlist::GateTape) no longer carries a
//! patch point for every original fault site, so faults cannot be
//! injected blindly by node index. [`detection_times_mapped`] is the
//! routing layer between a fault list (defined on the *original*
//! circuit) and the two tapes of a [`CompiledCircuit`]: each fault's
//! [`SiteRoute`] decides where — and whether — it is simulated, and the
//! per-route results are scattered back into original fault order, so a
//! mapped run is bit-identical to running every fault on the unoptimized
//! baseline.
//!
//! * [`Direct`](SiteRoute::Direct) faults run on the optimized tape
//!   unchanged.
//! * [`Redirect`](SiteRoute::Redirect) stem faults run on the optimized
//!   tape rewritten as input-pin faults at their sole surviving consumer.
//! * [`Pinned`](SiteRoute::Pinned) faults run on the baseline tape.
//! * [`Untestable`](SiteRoute::Untestable) faults are reported undetected
//!   without simulating anything.

use crate::backend::SimBackend;
use crate::{Fault, FaultSite, SimError};
use bist_expand::VectorSource;
use bist_netlist::{CompiledCircuit, SiteRoute};
use bist_obs::Obs;

/// First detection time of every fault in `faults` under the replayable
/// `source`, routing each fault through `compiled`'s
/// [`SiteMap`](bist_netlist::SiteMap). Results are indexed like `faults`.
///
/// For an identity compile this is exactly
/// [`SimBackend::detection_times_tape`] on the (shared) tape; otherwise
/// the fault list is partitioned by route, simulated in at most two
/// passes (`source` is replayed for the pinned pass) and merged.
///
/// # Errors
///
/// Width mismatch / empty stream, from the underlying engine.
pub fn detection_times_mapped(
    backend: &dyn SimBackend,
    compiled: &CompiledCircuit,
    source: &dyn VectorSource,
    faults: &[Fault],
) -> Result<Vec<Option<usize>>, SimError> {
    detection_times_mapped_obs(backend, compiled, source, faults, &Obs::noop())
}

/// [`detection_times_mapped`] with a telemetry sink threaded through to
/// the engine passes
/// ([`SimBackend::detection_times_tape_obs`]). Observation-only: results
/// are bit-identical to the uninstrumented call.
///
/// # Errors
///
/// Width mismatch / empty stream, from the underlying engine.
pub fn detection_times_mapped_obs(
    backend: &dyn SimBackend,
    compiled: &CompiledCircuit,
    source: &dyn VectorSource,
    faults: &[Fault],
    obs: &Obs,
) -> Result<Vec<Option<usize>>, SimError> {
    let map = compiled.site_map();
    if map.is_identity() {
        return backend.detection_times_tape_obs(compiled.tape(), source, faults, obs);
    }
    let mut direct: Vec<Fault> = Vec::new();
    let mut direct_idx: Vec<usize> = Vec::new();
    let mut pinned: Vec<Fault> = Vec::new();
    let mut pinned_idx: Vec<usize> = Vec::new();
    for (i, &f) in faults.iter().enumerate() {
        let route = match f.site {
            FaultSite::Output(node) => map.output_route(node),
            FaultSite::Input { node, .. } => map.input_route(node),
        };
        match route {
            SiteRoute::Direct => {
                direct.push(f);
                direct_idx.push(i);
            }
            SiteRoute::Redirect { node, pin } => {
                direct.push(Fault::input(node, pin, f.stuck));
                direct_idx.push(i);
            }
            SiteRoute::Pinned => {
                pinned.push(f);
                pinned_idx.push(i);
            }
            SiteRoute::Untestable => {}
        }
    }
    let mut results = vec![None; faults.len()];
    if direct.is_empty() && pinned.is_empty() {
        // Nothing to simulate, but keep the engine's argument checking
        // (width mismatch, empty stream) observable.
        backend.detection_times_tape_obs(compiled.tape(), source, &[], obs)?;
        return Ok(results);
    }
    if !direct.is_empty() {
        let times = backend.detection_times_tape_obs(compiled.tape(), source, &direct, obs)?;
        for (k, t) in times.into_iter().enumerate() {
            results[direct_idx[k]] = t;
        }
    }
    if !pinned.is_empty() {
        let times = backend.detection_times_tape_obs(compiled.baseline(), source, &pinned, obs)?;
        for (k, t) in times.into_iter().enumerate() {
            results[pinned_idx[k]] = t;
        }
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ShardedBackend;
    use crate::{collapse, fault_universe};
    use bist_expand::TestSequence;
    use bist_netlist::{benchmarks, compile_staged, CompileOptions};

    fn table2_t0() -> TestSequence {
        "0111 1001 0111 1001 0100 1011 1001 0000 0000 1011".parse().unwrap()
    }

    #[test]
    fn mapped_s27_matches_baseline_on_every_route() {
        let c = benchmarks::s27();
        let compiled = compile_staged(&c, CompileOptions::all());
        let faults = fault_universe(&c);
        let t0 = table2_t0();
        let backend = ShardedBackend::packed64();
        let baseline = backend.detection_times_tape(compiled.baseline(), &t0, &faults).unwrap();
        let mapped = detection_times_mapped(&backend, &compiled, &t0, &faults).unwrap();
        assert_eq!(mapped, baseline);
        let reps = collapse(&c, &faults).representatives().to_vec();
        let mapped_reps = detection_times_mapped(&backend, &compiled, &t0, &reps).unwrap();
        assert_eq!(mapped_reps.iter().filter(|t| t.is_some()).count(), 32);
    }

    #[test]
    fn identity_compile_short_circuits() {
        let c = benchmarks::s27();
        let compiled = compile_staged(&c, CompileOptions::none());
        let faults = fault_universe(&c);
        let t0 = table2_t0();
        let backend = ShardedBackend::packed64();
        assert_eq!(
            detection_times_mapped(&backend, &compiled, &t0, &faults).unwrap(),
            backend.detection_times_tape(compiled.tape(), &t0, &faults).unwrap()
        );
    }

    #[test]
    fn errors_surface_even_with_no_routable_faults() {
        let c = benchmarks::s27();
        let compiled = compile_staged(&c, CompileOptions::all());
        let bad: TestSequence = "000 000".parse().unwrap();
        let err = detection_times_mapped(&ShardedBackend::packed64(), &compiled, &bad, &[]);
        assert!(matches!(err, Err(SimError::WidthMismatch { .. })));
    }
}
