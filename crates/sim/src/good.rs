//! Fault-free (good-machine) and single-faulty-machine scalar simulation.
//!
//! All walks execute the compiled [`GateTape`] — the flat, cache-linear
//! instruction form of a [`Circuit`] — never the node graph itself. The
//! public entry points compile the tape on the fly (compilation is
//! `O(nodes)`, trivial next to any simulation pass); the `pub(crate)`
//! `*_tape` cores take a caller-supplied tape so the engines and facades
//! that simulate repeatedly compile exactly once.

use crate::{Fault, FaultSite, Logic, SimError};
use bist_expand::{TestSequence, VectorSource};
use bist_netlist::{Circuit, GateTape};

/// The fault-free response of a circuit to a test sequence, starting from
/// the all-unknown state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoodTrace {
    /// `po[t][i]` = value of the `i`-th primary output at time unit `t`.
    pub po: Vec<Vec<Logic>>,
    /// Flip-flop values after the last vector (circuit DFF order).
    pub final_state: Vec<Logic>,
}

impl GoodTrace {
    /// Number of simulated time units.
    #[must_use]
    pub fn len(&self) -> usize {
        self.po.len()
    }

    /// True if no time units were simulated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.po.is_empty()
    }

    /// First time unit at which *every* primary output is binary, if any —
    /// the earliest point from which a MISR can start compacting without
    /// capturing unknowns.
    #[must_use]
    pub fn first_fully_binary_time(&self) -> Option<usize> {
        self.po.iter().position(|outs| outs.iter().all(|v| v.is_binary()))
    }
}

/// Simulates the fault-free circuit under `seq` from the all-`X` state.
///
/// # Errors
///
/// [`SimError::WidthMismatch`] if the sequence width differs from the
/// circuit's primary input count; [`SimError::EmptySequence`] for an empty
/// sequence.
pub fn simulate_good(circuit: &Circuit, seq: &TestSequence) -> Result<GoodTrace, SimError> {
    simulate_good_tape(&GateTape::compile(circuit), seq)
}

/// [`simulate_good`] over a caller-compiled tape — the path the
/// [`FaultSimulator`](crate::FaultSimulator) facade uses so repeated
/// `good()` calls never recompile.
pub(crate) fn simulate_good_tape(
    tape: &GateTape,
    seq: &TestSequence,
) -> Result<GoodTrace, SimError> {
    simulate_machine(tape, seq, None)
}

/// Simulates the circuit with a single stuck-at fault injected, from the
/// all-`X` state — the faulty machine a MISR would observe.
///
/// # Errors
///
/// Same as [`simulate_good`].
pub fn simulate_faulty(
    circuit: &Circuit,
    seq: &TestSequence,
    fault: Fault,
) -> Result<GoodTrace, SimError> {
    simulate_machine(&GateTape::compile(circuit), seq, Some(fault))
}

/// The single-fault injection hooks a scalar tape walk needs, decomposed
/// from a [`Fault`] once up front — the one definition of scalar force
/// semantics, shared by every scalar walk in this crate (streams here,
/// the stepped simulator, the scalar backend).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScalarForce {
    out: Option<(usize, Logic)>,
    input: Option<(usize, u32, Logic)>,
}

impl ScalarForce {
    pub(crate) fn of(fault: Option<Fault>) -> Self {
        let out = match fault {
            Some(Fault { site: FaultSite::Output(n), stuck }) => {
                Some((n.index(), Logic::from_bool(stuck)))
            }
            _ => None,
        };
        let input = match fault {
            Some(Fault { site: FaultSite::Input { node, pin }, stuck }) => {
                Some((node.index(), pin, Logic::from_bool(stuck)))
            }
            _ => None,
        };
        ScalarForce { out, input }
    }

    #[inline]
    pub(crate) fn read(&self, values: &[Logic], consumer: usize, pin: u32, src: usize) -> Logic {
        match self.input {
            Some((n, p, v)) if n == consumer && p == pin => v,
            _ => values[src],
        }
    }

    #[inline]
    pub(crate) fn force_out(&self, node: usize, v: Logic) -> Logic {
        match self.out {
            Some((n, f)) if n == node => f,
            _ => v,
        }
    }
}

/// One combinational sweep of the tape over a scalar value table, with
/// `force` applied — the single definition of scalar gate-tape execution
/// shared by every scalar walk in this crate.
#[inline]
fn sweep_tape(tape: &GateTape, values: &mut [Logic], force: &ScalarForce) {
    let ops = tape.ops();
    let outs = tape.gate_out();
    let starts = tape.fanin_start();
    let fanin = tape.fanin();
    for g in 0..ops.len() {
        let out = outs[g] as usize;
        let s = starts[g] as usize;
        let e = starts[g + 1] as usize;
        let v = crate::eval::eval_scalar_fold(
            ops[g],
            fanin[s..e]
                .iter()
                .enumerate()
                .map(|(p, &f)| force.read(values, out, p as u32, f as usize)),
        );
        values[out] = force.force_out(out, v);
    }
}

/// Streams one machine (fault-free or single-fault) over a vector source,
/// delivering the primary-output values of each time unit to `on_po`.
/// The visitor returns `true` to continue; returning `false` stops the
/// stream early. Returns the flip-flop state after the last simulated
/// vector.
pub(crate) fn stream_machine_tape(
    tape: &GateTape,
    source: &dyn VectorSource,
    fault: Option<Fault>,
    on_po: &mut dyn FnMut(usize, &[Logic]) -> bool,
) -> Result<Vec<Logic>, SimError> {
    validate_width(tape.num_inputs(), source)?;
    let force = ScalarForce::of(fault);

    let mut values = vec![Logic::X; tape.num_nodes()];
    let mut state = vec![Logic::X; tape.num_dffs()];
    let mut po_scratch: Vec<Logic> = Vec::with_capacity(tape.num_outputs());

    source.visit(&mut |t, vector| {
        // Drive sources.
        for (i, &pi) in tape.inputs().iter().enumerate() {
            let pi = pi as usize;
            values[pi] = force.force_out(pi, Logic::from_bool(vector.get(i)));
        }
        for (k, &dff) in tape.dffs().iter().enumerate() {
            let dff = dff as usize;
            values[dff] = force.force_out(dff, state[k]);
        }
        // Combinational sweep.
        sweep_tape(tape, &mut values, &force);
        // Observe.
        po_scratch.clear();
        po_scratch.extend(tape.outputs().iter().map(|&o| values[o as usize]));
        let go_on = on_po(t, &po_scratch);
        // Clock (with D-pin injection).
        for (k, (&dff, &src)) in tape.dffs().iter().zip(tape.dff_src()).enumerate() {
            state[k] = force.read(&values, dff as usize, 0, src as usize);
        }
        go_on
    });

    Ok(state)
}

/// Width/emptiness validation shared by every simulation engine: rejects
/// mismatched and empty streams before anything runs, so all backends
/// fail identically on bad input — including with an empty fault list.
pub(crate) fn validate_width(num_inputs: usize, source: &dyn VectorSource) -> Result<(), SimError> {
    if source.width() != num_inputs {
        return Err(SimError::WidthMismatch {
            circuit_inputs: num_inputs,
            sequence_width: source.width(),
        });
    }
    if source.is_empty() {
        return Err(SimError::EmptySequence);
    }
    Ok(())
}

/// Visitor of the fused pair walk: receives the time unit, the fault-free
/// primary outputs and the faulty primary outputs; returns `true` to keep
/// streaming.
pub(crate) type PairVisitor<'v> = dyn FnMut(usize, &[Logic], &[Logic]) -> bool + 'v;

/// Streams the fault-free machine and one faulty machine in lockstep over
/// the tape, delivering both primary-output slices per time unit — the
/// fused good-machine walk of the scalar reference backend. Nothing is
/// collected: detection is O(1) in stream length.
pub(crate) fn stream_machine_fused_tape(
    tape: &GateTape,
    source: &dyn VectorSource,
    fault: Fault,
    on_po: &mut PairVisitor<'_>,
) -> Result<(), SimError> {
    validate_width(tape.num_inputs(), source)?;
    let force = ScalarForce::of(Some(fault));

    let n = tape.num_nodes();
    let mut good = vec![Logic::X; n];
    let mut bad = vec![Logic::X; n];
    let mut good_state = vec![Logic::X; tape.num_dffs()];
    let mut bad_state = vec![Logic::X; tape.num_dffs()];
    let mut good_po: Vec<Logic> = Vec::with_capacity(tape.num_outputs());
    let mut bad_po: Vec<Logic> = Vec::with_capacity(tape.num_outputs());

    source.visit(&mut |t, vector| {
        // Drive sources on both machines.
        for (i, &pi) in tape.inputs().iter().enumerate() {
            let pi = pi as usize;
            let v = Logic::from_bool(vector.get(i));
            good[pi] = v;
            bad[pi] = force.force_out(pi, v);
        }
        for (k, &dff) in tape.dffs().iter().enumerate() {
            let dff = dff as usize;
            good[dff] = good_state[k];
            bad[dff] = force.force_out(dff, bad_state[k]);
        }
        // One combinational sweep over both value tables: each gate's
        // metadata (opcode, CSR window) is read once and drives both
        // machines, the scalar analogue of the packed engine's fused
        // good lane.
        let ops = tape.ops();
        let outs = tape.gate_out();
        let starts = tape.fanin_start();
        let fanin = tape.fanin();
        for g in 0..ops.len() {
            let out = outs[g] as usize;
            let window = &fanin[starts[g] as usize..starts[g + 1] as usize];
            good[out] =
                crate::eval::eval_scalar_fold(ops[g], window.iter().map(|&f| good[f as usize]));
            let v = crate::eval::eval_scalar_fold(
                ops[g],
                window
                    .iter()
                    .enumerate()
                    .map(|(p, &f)| force.read(&bad, out, p as u32, f as usize)),
            );
            bad[out] = force.force_out(out, v);
        }
        // Observe both machines.
        good_po.clear();
        good_po.extend(tape.outputs().iter().map(|&o| good[o as usize]));
        bad_po.clear();
        bad_po.extend(tape.outputs().iter().map(|&o| bad[o as usize]));
        let go_on = on_po(t, &good_po, &bad_po);
        // Clock both machines (with D-pin injection on the faulty one).
        for (k, (&dff, &src)) in tape.dffs().iter().zip(tape.dff_src()).enumerate() {
            good_state[k] = good[src as usize];
            bad_state[k] = force.read(&bad, dff as usize, 0, src as usize);
        }
        go_on
    });

    Ok(())
}

fn simulate_machine(
    tape: &GateTape,
    seq: &TestSequence,
    fault: Option<Fault>,
) -> Result<GoodTrace, SimError> {
    let mut po = Vec::with_capacity(seq.len());
    let final_state = stream_machine_tape(tape, seq, fault, &mut |_, outs| {
        po.push(outs.to_vec());
        true
    })?;
    Ok(GoodTrace { po, final_state })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_expand::TestSequence;
    use bist_netlist::benchmarks;

    fn seq(s: &str) -> TestSequence {
        s.parse().unwrap()
    }

    #[test]
    fn shift_register_propagates_after_unknown_flush() {
        let c = benchmarks::shift_register3();
        // din=1,en=1 for 5 cycles: q2 = X,X,X then 1s.
        let t = simulate_good(&c, &seq("11 11 11 11 11")).unwrap();
        assert_eq!(t.po[0][0], Logic::X);
        assert_eq!(t.po[1][0], Logic::X);
        assert_eq!(t.po[2][0], Logic::X);
        assert_eq!(t.po[3][0], Logic::One);
        assert_eq!(t.po[4][0], Logic::One);
        assert_eq!(t.first_fully_binary_time(), Some(3));
    }

    #[test]
    fn shift_register_delays_by_three() {
        let c = benchmarks::shift_register3();
        // Pattern 1,0,1,1,0 on din with en=1: q2 at t = din at t-3.
        let t = simulate_good(&c, &seq("11 01 11 11 01 01 01 01")).unwrap();
        let dins = [true, false, true, true, false];
        for (i, &d) in dins.iter().enumerate() {
            assert_eq!(t.po[i + 3][0], Logic::from_bool(d), "t={}", i + 3);
        }
    }

    #[test]
    fn toggle_counts() {
        let c = benchmarks::toggle();
        // en=1 first cycle resolves nothing (q unknown: X xor 1 = X).
        let t = simulate_good(&c, &seq("1 1 1")).unwrap();
        assert_eq!(t.po[0][0], Logic::X);
        assert_eq!(t.po[2][0], Logic::X, "toggle never self-synchronizes from X");
    }

    #[test]
    fn comb_mix_truth() {
        let c = benchmarks::comb_mix();
        // inputs a,b,c = 1,1,0: maj=1, par=0, out=NAND(1,0)=1.
        let t = simulate_good(&c, &seq("110")).unwrap();
        assert_eq!(t.po[0], vec![Logic::One, Logic::Zero, Logic::One]);
        // 1,1,1: maj=1, par=1, out=0.
        let t = simulate_good(&c, &seq("111")).unwrap();
        assert_eq!(t.po[0], vec![Logic::One, Logic::One, Logic::Zero]);
    }

    #[test]
    fn s27_synchronizes() {
        // The s27 state is fully determined after a few vectors of the
        // paper's Table 2 sequence.
        let c = benchmarks::s27();
        let t0 = seq("0111 1001 0111 1001 0100 1011 1001 0000 0000 1011");
        let t = simulate_good(&c, &t0).unwrap();
        assert_eq!(t.len(), 10);
        assert!(t.first_fully_binary_time().is_some());
        assert!(t.final_state.iter().all(|v| v.is_binary()));
    }

    #[test]
    fn width_mismatch_rejected() {
        let c = benchmarks::s27();
        assert_eq!(
            simulate_good(&c, &seq("000")),
            Err(SimError::WidthMismatch { circuit_inputs: 4, sequence_width: 3 })
        );
    }

    #[test]
    fn final_state_feeds_forward() {
        let c = benchmarks::shift_register3();
        let t = simulate_good(&c, &seq("11 11 11 11")).unwrap();
        assert_eq!(t.final_state, vec![Logic::One; 3]);
    }

    #[test]
    fn faulty_trace_differs_where_simulator_detects() {
        use crate::{Fault, FaultSimulator};
        let c = benchmarks::shift_register3();
        let q2 = c.find("q2").unwrap();
        let f = Fault::output(q2, false);
        let s = seq("11 11 11 11 11");
        let good = simulate_good(&c, &s).unwrap();
        let bad = simulate_faulty(&c, &s, f).unwrap();
        // Detection time from the packed simulator must be exactly the
        // first time the scalar traces differ with binary values.
        let t = FaultSimulator::new(&c).first_detection(&s, f).unwrap().unwrap();
        assert_ne!(good.po[t], bad.po[t]);
        for u in 0..t {
            let observable = good.po[u]
                .iter()
                .zip(&bad.po[u])
                .any(|(g, b)| g.is_binary() && b.is_binary() && g != b);
            assert!(!observable, "difference before detection time at u={u}");
        }
    }

    #[test]
    fn fused_pair_matches_separate_machines() {
        use crate::Fault;
        let c = benchmarks::s27();
        let tape = GateTape::compile(&c);
        let t0 = seq("0111 1001 0111 1001 0100 1011 1001 0000 0000 1011");
        let g8 = c.find("G8").unwrap();
        let g5 = c.dffs()[0];
        for fault in
            [Fault::output(g8, true), Fault::input(g8, 0, false), Fault::input(g5, 0, true)]
        {
            let good = simulate_good(&c, &t0).unwrap();
            let bad = simulate_faulty(&c, &t0, fault).unwrap();
            let mut steps = 0usize;
            stream_machine_fused_tape(&tape, &t0, fault, &mut |t, g, b| {
                assert_eq!(g, &good.po[t][..], "good PO at t={t} for {fault}");
                assert_eq!(b, &bad.po[t][..], "faulty PO at t={t} for {fault}");
                steps += 1;
                true
            })
            .unwrap();
            assert_eq!(steps, t0.len());
        }
    }

    #[test]
    fn fused_pair_validates_input() {
        use crate::Fault;
        let c = benchmarks::s27();
        let tape = GateTape::compile(&c);
        let g8 = c.find("G8").unwrap();
        let err = stream_machine_fused_tape(
            &tape,
            &seq("000"),
            Fault::output(g8, true),
            &mut |_, _, _| panic!("must not run"),
        );
        assert_eq!(err, Err(SimError::WidthMismatch { circuit_inputs: 4, sequence_width: 3 }));
    }

    #[test]
    fn faulty_trace_with_input_pin_fault() {
        use crate::Fault;
        let c = benchmarks::s27();
        let g17 = c.find("G17").unwrap();
        let s = seq("0111 1001 0111 1001 0100 1011 1001 0000 0000 1011");
        let good = simulate_good(&c, &s).unwrap();
        let bad = simulate_faulty(&c, &s, Fault::input(g17, 0, true)).unwrap();
        assert_ne!(good.po, bad.po, "branch fault must perturb the PO trace");
    }
}
