//! Pruning validation (Appendix C.3).
//!
//! A finite system `Θ` is a *pruning* of the concrete `Υ` when (i) it
//! contains `I₀`, (ii) every equality commitment represented among a
//! state's successors in `Υ` is represented among its successors in `Θ`,
//! and (iii) branching is finite. (iii) is structural; (i) is trivial; this
//! module machine-checks (ii): for every state and every legal `ασ`, every
//! *satisfiable* equality commitment must have a `Θ`-successor realising
//! its isomorphism type.

use dcds_core::nondet::nondet_successors_by_commitment;
use dcds_core::{Dcds, Ts};
use dcds_reldata::Facts;
use std::collections::BTreeSet;

/// Check commitment coverage of a candidate pruning: for each state `I` of
/// `ts`, each commitment-representative successor `I_rep` of `I` (computed
/// from the semantics) must be matched by some `ts`-successor isomorphic to
/// `I_rep` fixing the rigid constants *and* the values of `ADOM(I)`
/// (the commitment speaks about identity w.r.t. the current state's
/// values).
pub fn commitment_coverage_holds(dcds: &Dcds, ts: &Ts) -> bool {
    let rigid = dcds.rigid_constants();
    let mut pool = dcds.working_pool();
    for s in ts.state_ids() {
        let inst = ts.db(s);
        let reps = nondet_successors_by_commitment(dcds, inst, &mut pool);
        for (_, _, _, rep) in &reps {
            // Fix rigid constants and the current state's adom pointwise.
            let mut fixed: BTreeSet<_> = rigid.clone();
            fixed.extend(inst.active_domain());
            let rep_facts = Facts::from_instance(rep);
            let covered = ts
                .successors(s)
                .iter()
                .any(|&t| Facts::from_instance(ts.db(t)).isomorphic(&rep_facts, &fixed));
            if !covered {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rcycl::rcycl;
    use dcds_core::{DcdsBuilder, ServiceKind, Ts};

    fn example_5_1() -> Dcds {
        DcdsBuilder::new()
            .relation("R", 1)
            .relation("Q", 1)
            .service("f", 1, ServiceKind::Nondeterministic)
            .init_fact("R", &["a"])
            .action("alpha", &[], |a| {
                a.effect("R(X)", "Q(f(X))");
                a.effect("Q(X)", "R(X)");
            })
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    #[test]
    fn rcycl_output_covers_all_commitments() {
        let dcds = example_5_1();
        let res = rcycl(&dcds, 100);
        assert!(res.complete);
        assert!(commitment_coverage_holds(&dcds, &res.ts));
    }

    #[test]
    fn dropping_a_branch_breaks_coverage() {
        let dcds = example_5_1();
        let res = rcycl(&dcds, 100);
        // Rebuild the system with one state's edges removed, reusing the
        // original's shared state handles: O(states), no instance copies.
        let mut broken = Ts::new_shared(res.ts.db_shared(res.ts.initial()));
        let mut map = vec![broken.initial(); res.ts.num_states()];
        for s in res.ts.state_ids().skip(1) {
            map[s.index()] = broken.add_state_shared(res.ts.db_shared(s));
        }
        let mut first = true;
        for s in res.ts.state_ids() {
            for &t in res.ts.successors(s) {
                if first {
                    // Drop the first edge found.
                    first = false;
                    continue;
                }
                broken.add_edge(map[s.index()], map[t.index()]);
            }
        }
        assert!(!commitment_coverage_holds(&dcds, &broken));
    }
}
