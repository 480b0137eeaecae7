//! Empirical run-/state-boundedness observation.
//!
//! Run-boundedness and state-boundedness are *undecidable* semantic
//! properties (Theorems 4.6 and 5.5); the static analyses of
//! `dcds-analysis` give sufficient conditions. These monitors complement
//! them on the semantic side: they explore bounded portions of the concrete
//! systems and report the witnessed bounds — useful for experiments
//! (EXPERIMENTS.md plots observed growth against the static verdicts) and
//! for sanity-checking that an allegedly (un)bounded example behaves as
//! the paper claims, within the horizon.

use dcds_core::det::{det_successors_by_commitment, DetState};
use dcds_core::nondet::nondet_successors_by_commitment;
use dcds_core::Dcds;
use dcds_reldata::Value;
use std::collections::BTreeSet;

/// What a bounded exploration observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundObservation {
    /// Largest witnessed measure (per-run values for run-boundedness,
    /// per-state active-domain size for state-boundedness).
    pub max_observed: usize,
    /// True when exploration exhausted every branch within the horizon —
    /// the observation is then exact for that horizon, *not* a proof of
    /// boundedness.
    pub exhausted: bool,
    /// Number of runs / states examined.
    pub examined: usize,
}

/// Observe the run bound of a DCDS with deterministic services: the
/// maximum, over all commitment-representative runs of length ≤ `depth`,
/// of the number of distinct values met along the run.
pub fn observe_run_bound(dcds: &Dcds, depth: usize, max_runs: usize) -> BoundObservation {
    let mut pool = dcds.working_pool();
    let s0 = DetState::initial(dcds);
    let mut seen_values: BTreeSet<Value> = s0.instance.active_domain();
    let mut obs = BoundObservation {
        max_observed: seen_values.len(),
        exhausted: true,
        examined: 0,
    };
    let mut runs = 0usize;
    dfs_det(
        dcds,
        &s0,
        &mut seen_values,
        depth,
        &mut runs,
        max_runs,
        &mut obs,
        &mut pool,
    );
    obs.examined = runs;
    obs
}

#[allow(clippy::too_many_arguments)]
fn dfs_det(
    dcds: &Dcds,
    state: &DetState,
    values_on_run: &mut BTreeSet<Value>,
    depth: usize,
    runs: &mut usize,
    max_runs: usize,
    obs: &mut BoundObservation,
    pool: &mut dcds_reldata::ConstantPool,
) {
    obs.max_observed = obs.max_observed.max(values_on_run.len());
    if depth == 0 {
        *runs += 1;
        return;
    }
    if *runs >= max_runs {
        obs.exhausted = false;
        return;
    }
    let succs = det_successors_by_commitment(dcds, state, pool);
    if succs.is_empty() {
        *runs += 1;
        return;
    }
    for (_, _, _, next) in succs {
        let added: Vec<Value> = next
            .instance
            .active_domain()
            .into_iter()
            .filter(|v| values_on_run.insert(*v))
            .collect();
        dfs_det(
            dcds,
            &next,
            values_on_run,
            depth - 1,
            runs,
            max_runs,
            obs,
            pool,
        );
        for v in added {
            values_on_run.remove(&v);
        }
        if *runs >= max_runs {
            obs.exhausted = false;
            return;
        }
    }
}

/// Observe the state bound of a DCDS with nondeterministic services: the
/// maximum per-state active-domain size over commitment-representative
/// states reachable within `depth` steps.
pub fn observe_state_bound(dcds: &Dcds, depth: usize, max_states: usize) -> BoundObservation {
    let mut pool = dcds.working_pool();
    let mut frontier = vec![dcds.data.initial.clone()];
    let mut examined = 0usize;
    let mut max_observed = dcds.data.initial.active_domain().len();
    let mut exhausted = true;
    for _ in 0..depth {
        let mut next_frontier = Vec::new();
        for inst in &frontier {
            if examined >= max_states {
                exhausted = false;
                break;
            }
            examined += 1;
            for (_, _, _, next) in nondet_successors_by_commitment(dcds, inst, &mut pool) {
                max_observed = max_observed.max(next.active_domain().len());
                next_frontier.push(next);
            }
        }
        frontier = next_frontier;
        if frontier.is_empty() {
            break;
        }
    }
    BoundObservation {
        max_observed,
        exhausted,
        examined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_core::{DcdsBuilder, ServiceKind};

    fn example_4_3(kind: ServiceKind) -> Dcds {
        DcdsBuilder::new()
            .relation("R", 1)
            .relation("Q", 1)
            .service("f", 1, kind)
            .init_fact("R", &["a"])
            .action("alpha", &[], |a| {
                a.effect("R(X)", "Q(f(X))");
                a.effect("Q(X)", "R(X)");
            })
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    fn example_5_2() -> Dcds {
        DcdsBuilder::new()
            .relation("R", 1)
            .relation("Q", 1)
            .service("f", 1, ServiceKind::Nondeterministic)
            .init_fact("R", &["a"])
            .action("alpha", &[], |a| {
                a.effect("R(X)", "R(X)");
                a.effect("R(X)", "Q(f(X))");
                a.effect("Q(X)", "Q(X)");
            })
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    #[test]
    fn run_unbounded_example_grows_with_depth() {
        let dcds = example_4_3(ServiceKind::Deterministic);
        let shallow = observe_run_bound(&dcds, 2, 10_000);
        let deep = observe_run_bound(&dcds, 6, 10_000);
        assert!(deep.max_observed > shallow.max_observed);
    }

    #[test]
    fn state_bounded_example_stays_flat() {
        let dcds = example_4_3(ServiceKind::Nondeterministic);
        let obs = observe_state_bound(&dcds, 5, 10_000);
        assert_eq!(obs.max_observed, 1);
    }

    #[test]
    fn state_unbounded_example_grows() {
        let dcds = example_5_2();
        let obs = observe_state_bound(&dcds, 4, 10_000);
        assert!(obs.max_observed >= 3, "got {}", obs.max_observed);
    }

    #[test]
    fn exhaustion_flag_reports_budget() {
        let dcds = example_5_2();
        let obs = observe_state_bound(&dcds, 6, 3);
        assert!(!obs.exhausted);
    }
}
