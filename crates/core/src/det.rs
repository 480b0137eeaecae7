//! Deterministic service semantics (Section 4.1).
//!
//! States of the concrete transition system are pairs `⟨I, M⟩` of an
//! instance and a *service-call map* `M : SC → C` recording every result
//! returned so far; determinism is exactly the persistence of `M` across
//! steps. `EXECS` relates `⟨I, M⟩` to `⟨I', M'⟩` when some legal `ασ`
//! produces `M' = SERVICECALLS(I, ασ, M)` (old entries kept, new calls bound
//! to arbitrary values) and `I' = M'(DO(I, ασ))` satisfies the constraints.
//!
//! The successor space is infinite (new calls can return anything); this
//! module exposes (i) point successors under an explicit choice of values
//! ([`det_step`]) and (ii) the finitely many *commitment representatives*
//! ([`det_successors_by_commitment`]), which is what the abstract transition
//! system of Theorem 4.3 retains.

use crate::action::ActionId;
use crate::commitment::{enumerate_commitments, CommitTarget, Commitment};
use crate::dcds::Dcds;
use crate::do_op::{do_action, legal_assignments, resolve_with_map};
use crate::service::FuncId;
use crate::term::ServiceCall;
use dcds_folang::Assignment;
use dcds_reldata::{ConstantPool, Facts, Instance, RelId, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A state of the deterministic concrete transition system: `⟨I, M⟩`.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DetState {
    /// The current database `I`.
    pub instance: Instance,
    /// The service-call map `M` accumulated so far.
    pub call_map: BTreeMap<ServiceCall, Value>,
}

impl DetState {
    /// The initial state `⟨I₀, ∅⟩`.
    pub fn initial(dcds: &Dcds) -> Self {
        DetState {
            instance: dcds.data.initial.clone(),
            call_map: BTreeMap::new(),
        }
    }

    /// All values the state *remembers*: the active domain plus every
    /// argument and result recorded in the call map.
    pub fn known_values(&self) -> BTreeSet<Value> {
        let mut out = self.instance.active_domain();
        for (call, result) in &self.call_map {
            out.extend(call.args.iter().copied());
            out.insert(*result);
        }
        out
    }

    /// Encode the full state (instance + call map) as a colored fact set for
    /// isomorphism checking / canonicalisation. Relation facts keep their
    /// relation index as color; the entry `f(v₁..vₙ) ↦ r` becomes a fact of
    /// color `num_rels + f` with tuple `(v₁..vₙ, r)`.
    pub fn to_facts(&self, num_rels: usize) -> Facts {
        let mut facts = Facts::from_instance(&self.instance);
        for (call, result) in &self.call_map {
            let mut t: Vec<Value> = call.args.clone();
            t.push(*result);
            facts.insert((num_rels + call.func.index()) as u32, Tuple::from(t));
        }
        facts
    }

    /// Decode a [`DetState::to_facts`] encoding — its exact inverse: colors
    /// below `num_rels` are database facts, every other fact is the
    /// call-map entry `f(v₁..vₙ) ↦ r` of service `color − num_rels`.
    pub fn from_facts(facts: &Facts, num_rels: usize) -> Self {
        let mut state = DetState::default();
        for (color, t) in facts.iter() {
            let color = color as usize;
            if color < num_rels {
                state.instance.insert(RelId::from_index(color), t.clone());
            } else {
                let (result, args) = t
                    .values()
                    .split_last()
                    .expect("a call-map fact ends with the call's result");
                let call = ServiceCall {
                    func: FuncId::from_index(color - num_rels),
                    args: args.to_vec(),
                };
                state.call_map.insert(call, *result);
            }
        }
        state
    }
}

/// One concrete execution step `⟨⟨I,M⟩, ασ, ⟨I',M'⟩⟩ ∈ EXECS` under an
/// explicit assignment of values to the *new* calls. Returns `None` when
/// the resulting instance violates the constraints (condition 4 of EXECS) or
/// when `choice` contradicts `M` / misses a call.
pub fn det_step(
    dcds: &Dcds,
    state: &DetState,
    action: ActionId,
    sigma: &Assignment,
    choice: &BTreeMap<ServiceCall, Value>,
) -> Option<DetState> {
    let pre = do_action(dcds, &state.instance, action, sigma);
    det_step_with_pre(dcds, state, &pre, choice)
}

/// [`det_step`] for a caller that has already computed `DO(I, ασ)`.
///
/// The parallel frontier expansion computes each `PreInstance` once per
/// legal `ασ` and then evaluates every commitment of that `ασ` against it,
/// instead of re-running `DO` (a full query-evaluation pass) per
/// commitment as the pointwise API does.
pub fn det_step_with_pre(
    dcds: &Dcds,
    state: &DetState,
    pre: &crate::do_op::PreInstance,
    choice: &BTreeMap<ServiceCall, Value>,
) -> Option<DetState> {
    let mut new_map = state.call_map.clone();
    for call in pre.calls() {
        if let Some(&v) = state.call_map.get(&call) {
            // Determinism: a previously-answered call must not be re-chosen
            // differently.
            if let Some(&w) = choice.get(&call) {
                if w != v {
                    return None;
                }
            }
            let _ = v;
        } else {
            let v = *choice.get(&call)?;
            new_map.insert(call, v);
        }
    }
    let inst = resolve_with_map(pre, &new_map)?;
    if !dcds.data.satisfies_constraints(&inst) {
        return None;
    }
    Some(DetState {
        instance: inst,
        call_map: new_map,
    })
}

/// The commitment-representative successors of a deterministic state: for
/// every legal `ασ` and every equality commitment of the new calls against
/// the state's known values (and `ADOM(I₀)`), one successor whose fresh
/// cells are instantiated with freshly minted constants.
///
/// Constraint-violating representatives are dropped (the paper's
/// "filtering it away if this is not the case").
pub fn det_successors_by_commitment(
    dcds: &Dcds,
    state: &DetState,
    pool: &mut ConstantPool,
) -> Vec<(ActionId, Assignment, Commitment, DetState)> {
    let mut out = Vec::new();
    let rigid = dcds.rigid_constants();
    for (action, sigma) in legal_assignments(dcds, &state.instance) {
        let pre = do_action(dcds, &state.instance, action, &sigma);
        let new_calls: Vec<ServiceCall> = pre
            .calls()
            .into_iter()
            .filter(|c| !state.call_map.contains_key(c))
            .collect();
        let mut known: BTreeSet<Value> = state.known_values();
        known.extend(rigid.iter().copied());
        let known: Vec<Value> = known.into_iter().collect();
        for commitment in enumerate_commitments(&new_calls, &known) {
            let cells = crate::commitment::fresh_cell_count(&commitment);
            let fresh: Vec<Value> = (0..cells).map(|_| pool.mint("v")).collect();
            let choice: BTreeMap<ServiceCall, Value> = commitment
                .iter()
                .map(|(c, t)| {
                    let v = match t {
                        CommitTarget::Known(v) => *v,
                        CommitTarget::Fresh(cell) => fresh[*cell],
                    };
                    (c.clone(), v)
                })
                .collect();
            if let Some(next) = det_step_with_pre(dcds, state, &pre, &choice) {
                out.push((action, sigma.clone(), commitment, next));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DcdsBuilder;
    use crate::service::ServiceKind;

    fn example_4_1() -> Dcds {
        DcdsBuilder::new()
            .relation("Q", 2)
            .relation("P", 1)
            .relation("R", 1)
            .service("f", 1, ServiceKind::Deterministic)
            .service("g", 1, ServiceKind::Deterministic)
            .init_fact("P", &["a"])
            .init_fact("Q", &["a", "a"])
            .action("alpha", &[], |a| {
                a.effect("Q(a,a) & P(X)", "R(X)");
                a.effect("P(X)", "P(X), Q(f(X), g(X))");
            })
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    fn example_4_2() -> Dcds {
        DcdsBuilder::new()
            .relation("Q", 2)
            .relation("P", 1)
            .relation("R", 1)
            .service("f", 1, ServiceKind::Deterministic)
            .service("g", 1, ServiceKind::Deterministic)
            .init_fact("P", &["a"])
            .init_fact("Q", &["a", "a"])
            .constraint("P(X) & Q(Y, Z) -> X = Y")
            .action("alpha", &[], |a| {
                a.effect("Q(a,a) & P(X)", "R(X)");
                a.effect("P(X)", "P(X), Q(f(X), g(X))");
            })
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    #[test]
    fn step_records_calls_deterministically() {
        let dcds = example_4_1();
        let alpha = dcds.action_id("alpha").unwrap();
        let mut pool = dcds.working_pool();
        let b = pool.mint("v");
        let s0 = DetState::initial(&dcds);
        let pre = do_action(&dcds, &s0.instance, alpha, &Assignment::new());
        let choice: BTreeMap<ServiceCall, Value> =
            pre.calls().into_iter().map(|c| (c, b)).collect();
        let s1 = det_step(&dcds, &s0, alpha, &Assignment::new(), &choice).unwrap();
        assert_eq!(s1.call_map.len(), 2);
        // Second step: P still holds only a, so the issued calls f(a), g(a)
        // are already answered by M — determinism means no new choices.
        let pre2 = do_action(&dcds, &s1.instance, alpha, &Assignment::new());
        let new: Vec<_> = pre2
            .calls()
            .into_iter()
            .filter(|c| !s1.call_map.contains_key(c))
            .collect();
        assert!(new.is_empty());
        // And the deterministic step is now unique: passing an empty choice
        // succeeds and reuses the recorded results. R(a) is dropped (its
        // guard Q(a,a) no longer holds), P(a) and Q(b,b) are reproduced.
        let s2 = det_step(&dcds, &s1, alpha, &Assignment::new(), &BTreeMap::new()).unwrap();
        let r = dcds.data.schema.rel_id("R").unwrap();
        assert_eq!(s2.instance.cardinality(r), 0);
        assert_eq!(s2.instance.len(), 2);
        assert_eq!(s2.call_map, s1.call_map);
    }

    #[test]
    fn contradicting_choice_rejected() {
        let dcds = example_4_1();
        let alpha = dcds.action_id("alpha").unwrap();
        let mut pool = dcds.working_pool();
        let b = pool.mint("v");
        let c = pool.mint("v");
        let s0 = DetState::initial(&dcds);
        let pre = do_action(&dcds, &s0.instance, alpha, &Assignment::new());
        let choice: BTreeMap<ServiceCall, Value> =
            pre.calls().into_iter().map(|cl| (cl, b)).collect();
        let s1 = det_step(&dcds, &s0, alpha, &Assignment::new(), &choice).unwrap();
        // Re-answering f(a) with a different value must be rejected.
        let bad: BTreeMap<ServiceCall, Value> = s1
            .call_map
            .keys()
            .cloned()
            .map(|k| (k, c))
            .chain(
                do_action(&dcds, &s1.instance, alpha, &Assignment::new())
                    .calls()
                    .into_iter()
                    .map(|k| (k, c)),
            )
            .collect();
        assert!(det_step(&dcds, &s1, alpha, &Assignment::new(), &bad).is_none());
    }

    #[test]
    fn commitment_successors_of_example_4_1() {
        // From I0 the two new calls f(a), g(a) against known {a} give
        // (K,K), (K,F0), (F0,K), (F0,F0), (F0,F1): 5 successors.
        let dcds = example_4_1();
        let mut pool = dcds.working_pool();
        let s0 = DetState::initial(&dcds);
        let succs = det_successors_by_commitment(&dcds, &s0, &mut pool);
        assert_eq!(succs.len(), 5);
    }

    #[test]
    fn equality_constraint_prunes_successors() {
        // Example 4.2: the constraint forces f(a) = a, so only commitments
        // with f(a) ↦ Known(a) survive: g(a) ∈ {a, fresh} → 2 successors.
        let dcds = example_4_2();
        let mut pool = dcds.working_pool();
        let s0 = DetState::initial(&dcds);
        let succs = det_successors_by_commitment(&dcds, &s0, &mut pool);
        assert_eq!(succs.len(), 2);
        let a = dcds.data.pool.get("a").unwrap();
        for (_, _, commitment, _) in &succs {
            let f_call = commitment
                .keys()
                .find(|c| dcds.process.services.name(c.func) == "f")
                .unwrap();
            assert_eq!(commitment[f_call], CommitTarget::Known(a));
        }
    }

    #[test]
    fn known_values_include_call_map() {
        let dcds = example_4_1();
        let alpha = dcds.action_id("alpha").unwrap();
        let mut pool = dcds.working_pool();
        let b = pool.mint("v");
        let s0 = DetState::initial(&dcds);
        let pre = do_action(&dcds, &s0.instance, alpha, &Assignment::new());
        let choice: BTreeMap<ServiceCall, Value> =
            pre.calls().into_iter().map(|c| (c, b)).collect();
        let s1 = det_step(&dcds, &s0, alpha, &Assignment::new(), &choice).unwrap();
        assert!(s1.known_values().contains(&b));
    }

    #[test]
    fn to_facts_distinguishes_call_maps() {
        let dcds = example_4_1();
        let n = dcds.data.schema.len();
        let s0 = DetState::initial(&dcds);
        let mut s0b = s0.clone();
        let a = dcds.data.pool.get("a").unwrap();
        s0b.call_map.insert(
            ServiceCall {
                func: crate::service::FuncId::from_index(0),
                args: vec![a],
            },
            a,
        );
        assert_ne!(s0.to_facts(n), s0b.to_facts(n));
    }

    #[test]
    fn from_facts_inverts_to_facts() {
        // A state after one step of Example 4.1: a non-empty instance and a
        // call map holding both `f(a)` and `g(a)`.
        let dcds = example_4_1();
        let n = dcds.data.schema.len();
        let alpha = dcds.action_id("alpha").unwrap();
        let mut pool = dcds.working_pool();
        let b = pool.mint("v");
        let s0 = DetState::initial(&dcds);
        let pre = do_action(&dcds, &s0.instance, alpha, &Assignment::new());
        let choice: BTreeMap<ServiceCall, Value> =
            pre.calls().into_iter().map(|c| (c, b)).collect();
        let s1 = det_step(&dcds, &s0, alpha, &Assignment::new(), &choice).unwrap();
        assert_eq!(s1.call_map.len(), 2);
        for s in [s0, s1] {
            assert_eq!(DetState::from_facts(&s.to_facts(n), n), s);
        }
    }
}
