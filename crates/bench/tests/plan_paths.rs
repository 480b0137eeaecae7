//! Engine-level agreement and determinism for the compiled-plan hot path.
//!
//! The query-plan layer promises bit-identical behaviour along every
//! integration seam: `do_action` vs `do_action_indexed` (with and without a
//! prebuilt per-state index), `legal_assignments` vs its indexed twin, and
//! whole-engine runs (`rcycl`, `det_abstraction`, `explore_det`) at 1, 2,
//! 4, and 8 worker threads with plans and indexes enabled throughout.
//! These tests pin that promise on the paper's travel-request system and a
//! parameterised synthetic system.

use dcds_abstraction::{det_abstraction_opts, rcycl_opts, AbsOptions};
use dcds_bench::{synthetic, travel};
use dcds_core::explore::{CommitmentOracle, Limits};
use dcds_core::{
    do_action, do_action_indexed, explore_det_opts, legal_assignments, legal_assignments_indexed,
    state_index, Dcds,
};
use dcds_folang::Var;

/// All per-state query entry points agree with and without a per-state
/// index (plan over scans, plan over index) on every reachable state of
/// the travel-request pruning.
#[test]
fn do_and_legal_agree_on_all_rcycl_states() {
    let dcds = travel::request_system_small();
    let ((pe, te), (pr, tr)) = dcds.plans().coverage();
    assert!(pe > 0 && pr > 0, "no plans compiled: {pe}/{te}, {pr}/{tr}");

    let res = rcycl_opts(&dcds, 5000, 1);
    assert!(res.complete, "travel pruning should saturate");
    for s in res.ts.state_ids() {
        let inst = res.ts.db(s);
        let idx = state_index(&dcds, inst);

        let legal = legal_assignments(&dcds, inst);
        assert_eq!(legal, legal_assignments_indexed(&dcds, inst, None));
        assert_eq!(legal, legal_assignments_indexed(&dcds, inst, Some(&idx)));

        for (action, sigma) in &legal {
            let base = do_action(&dcds, inst, *action, sigma);
            assert_eq!(base, do_action_indexed(&dcds, inst, *action, sigma, None));
            assert_eq!(
                base,
                do_action_indexed(&dcds, inst, *action, sigma, Some(&idx))
            );
        }
    }
}

/// `DO` ignores σ keys that are not parameters of the action: a σ padded
/// with a spurious key gives exactly the pre-instance of the legal σ, with
/// and without a per-state index. (The name is historical: such a σ once
/// took a separate evaluator; now every σ runs the compiled plan.)
#[test]
fn non_parameter_sigma_takes_identical_fallback() {
    let dcds = travel::request_system_small();
    let inst = &dcds.data.initial;
    let idx = state_index(&dcds, inst);
    let spurious = dcds.data.pool.get("readyForRequest").unwrap();
    let legal = legal_assignments(&dcds, inst);
    assert!(!legal.is_empty());
    for (action, sigma) in legal {
        let mut padded = sigma.clone();
        padded.insert(Var::new("__not_a_param"), spurious);
        let base = do_action(&dcds, inst, action, &sigma);
        assert_eq!(base, do_action(&dcds, inst, action, &padded));
        assert_eq!(
            base,
            do_action_indexed(&dcds, inst, action, &padded, Some(&idx))
        );
    }
}

fn assert_thread_invariant_rcycl(dcds: &Dcds, max_states: usize) {
    let baseline = rcycl_opts(dcds, max_states, 1);
    for threads in [2usize, 4, 8] {
        let run = rcycl_opts(dcds, max_states, threads);
        assert_eq!(baseline.ts, run.ts, "rcycl ts differs at {threads} threads");
        assert_eq!(baseline.complete, run.complete);
        assert_eq!(baseline.used_values, run.used_values);
        assert_eq!(baseline.triples_processed, run.triples_processed);
    }
}

/// RCYCL output is identical at 1/2/4/8 threads with plans + indexes on.
#[test]
fn rcycl_thread_count_invariant_with_plans() {
    assert_thread_invariant_rcycl(&travel::request_system_small(), 5000);
    assert_thread_invariant_rcycl(&synthetic::accumulator(2), 400);
}

/// Deterministic abstraction output is identical at 1/2/4/8 threads.
#[test]
fn det_abstraction_thread_count_invariant_with_plans() {
    let dcds = travel::audit_system_small();
    let baseline = det_abstraction_opts(
        &dcds,
        2000,
        AbsOptions {
            threads: 1,
            ..AbsOptions::default()
        },
    );
    for threads in [2usize, 4, 8] {
        let run = det_abstraction_opts(
            &dcds,
            2000,
            AbsOptions {
                threads,
                ..AbsOptions::default()
            },
        );
        assert_eq!(
            baseline.ts, run.ts,
            "det_abs ts differs at {threads} threads"
        );
        assert_eq!(baseline.states, run.states);
    }
}

/// Concrete exploration is identical at 1/2/4/8 threads (the oracle is
/// reseeded per run; `CommitmentOracle` is deterministic by construction).
#[test]
fn explore_det_thread_count_invariant_with_plans() {
    let dcds = synthetic::service_chain(4);
    let limits = Limits {
        max_states: 500,
        ..Limits::default()
    };
    let baseline = explore_det_opts(&dcds, limits, &mut CommitmentOracle, 1);
    for threads in [2usize, 4, 8] {
        let run = explore_det_opts(&dcds, limits, &mut CommitmentOracle, threads);
        assert_eq!(
            baseline.ts, run.ts,
            "explore_det ts differs at {threads} threads"
        );
        assert_eq!(baseline.outcome, run.outcome);
    }
}
