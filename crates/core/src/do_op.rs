//! The `DO` operator and legal parameter assignments.
//!
//! `DO(I, ασ)` (Section 4.1) unions, over every effect `q⁺ ∧ Q⁻ ⇝ E` of α
//! and every answer θ of `(q⁺ ∧ Q⁻)σ` over `I`, the grounded head facts
//! `Eσθ`. The result is a *pre-instance*: a set of facts whose terms are
//! values or ground service calls awaiting resolution (deterministic
//! resolution in [`crate::det`], nondeterministic in [`crate::nondet`]).
//!
//! Every `q⁺` is answered by its compiled plan from the system's
//! [`PlanCache`]; validation guarantees one exists. The join-based
//! `dcds_folang::eval_ucq` is not on this path: it survives only as the
//! oracle and baseline the plan differential tests and benchmarks compare
//! against.

use crate::action::ActionId;
use crate::dcds::Dcds;
use crate::term::{GTerm, ServiceCall};
use dcds_folang::{holds, Assignment, CompiledPlan, EvalCtx, PlanStats, Ucq, Var};
use dcds_reldata::{AccessPath, Instance, InstanceIndex, RelId, Tuple};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;

/// A set of facts over ground terms (values and unresolved service calls).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PreInstance {
    facts: BTreeSet<(RelId, Vec<GTerm>)>,
}

impl PreInstance {
    /// Empty pre-instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a fact.
    pub fn insert(&mut self, rel: RelId, terms: Vec<GTerm>) -> bool {
        self.facts.insert((rel, terms))
    }

    /// Iterate over facts.
    pub fn facts(&self) -> impl Iterator<Item = (RelId, &[GTerm])> {
        self.facts.iter().map(|(r, ts)| (*r, ts.as_slice()))
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True when no facts are present.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// `CALLS(·)`: the set of ground service calls occurring in the facts.
    pub fn calls(&self) -> BTreeSet<ServiceCall> {
        let mut out = BTreeSet::new();
        for (_, terms) in self.facts() {
            for t in terms {
                if let GTerm::Call(c) = t {
                    out.insert(c.clone());
                }
            }
        }
        out
    }

    /// Resolve every call through `lookup`, producing a relational instance.
    /// Returns `None` if some call is not covered.
    pub fn resolve(
        &self,
        lookup: &dyn Fn(&ServiceCall) -> Option<dcds_reldata::Value>,
    ) -> Option<Instance> {
        let mut out = Instance::new();
        for (rel, terms) in self.facts() {
            let mut vals = Vec::with_capacity(terms.len());
            for t in terms {
                match t {
                    GTerm::Val(v) => vals.push(*v),
                    GTerm::Call(c) => vals.push(lookup(c)?),
                }
            }
            out.insert(rel, Tuple::from(vals));
        }
        Some(out)
    }
}

/// Compiled query plans for a DCDS: one [`CompiledPlan`] per effect `q⁺`
/// (with the action parameters as pre-bound inputs) and one per rule
/// condition that is recognisably a UCQ. Built once per system — see
/// [`Dcds::plans`] — and shared across the whole exploration. Every `q⁺`
/// of a validated system compiles; a rule condition outside the compilable
/// fragment keeps `None` and is answered by the reference active-domain
/// evaluator, with bit-identical results.
#[derive(Debug, Default)]
pub struct PlanCache {
    /// `effect_plans[action][effect]`.
    effect_plans: Vec<Vec<Option<CompiledPlan>>>,
    /// One optional plan per condition–action rule.
    rule_plans: Vec<Option<CompiledPlan>>,
    /// Union of the access paths every compiled plan probes — what a
    /// per-state [`InstanceIndex`] must cover.
    paths: Vec<AccessPath>,
    /// Evaluation counters (plan evals, index probes vs scans, fallbacks).
    pub stats: PlanStats,
}

impl PlanCache {
    /// Compile every effect `q⁺` and every UCQ-shaped rule condition.
    pub fn build(dcds: &Dcds) -> PlanCache {
        let mut paths: BTreeSet<AccessPath> = BTreeSet::new();
        let mut effect_plans = Vec::with_capacity(dcds.process.actions.len());
        for action in &dcds.process.actions {
            let params: BTreeSet<Var> = action.params.iter().cloned().collect();
            let mut per_effect = Vec::with_capacity(action.effects.len());
            for effect in &action.effects {
                let plan = CompiledPlan::compile(&effect.qplus, &params).ok();
                if let Some(p) = &plan {
                    paths.extend(p.access_paths());
                }
                per_effect.push(plan);
            }
            effect_plans.push(per_effect);
        }
        let mut rule_plans = Vec::with_capacity(dcds.process.rules.len());
        for rule in &dcds.process.rules {
            let plan = Ucq::from_formula(&rule.condition)
                .and_then(|ucq| CompiledPlan::compile(&ucq, &BTreeSet::new()).ok());
            if let Some(p) = &plan {
                paths.extend(p.access_paths());
            }
            rule_plans.push(plan);
        }
        PlanCache {
            effect_plans,
            rule_plans,
            paths: paths.into_iter().collect(),
            stats: PlanStats::default(),
        }
    }

    /// The plan for one effect of one action, if it compiled.
    pub fn effect_plan(&self, action: ActionId, effect: usize) -> Option<&CompiledPlan> {
        self.effect_plans.get(action.index())?.get(effect)?.as_ref()
    }

    /// The plan for a rule condition, if it compiled.
    pub fn rule_plan(&self, rule: usize) -> Option<&CompiledPlan> {
        self.rule_plans.get(rule)?.as_ref()
    }

    /// The access paths a per-state index should cover.
    pub fn access_paths(&self) -> &[AccessPath] {
        &self.paths
    }

    /// How many effects (resp. rules) compiled, out of how many.
    pub fn coverage(&self) -> ((usize, usize), (usize, usize)) {
        let effects: Vec<&Option<CompiledPlan>> = self.effect_plans.iter().flatten().collect();
        (
            (
                effects.iter().filter(|p| p.is_some()).count(),
                effects.len(),
            ),
            (
                self.rule_plans.iter().filter(|p| p.is_some()).count(),
                self.rule_plans.len(),
            ),
        )
    }
}

/// Build the per-state hash index covering every access path the system's
/// compiled plans probe. Engines build one per frontier state and reuse it
/// across all actions, parameter assignments, and effects evaluated there.
pub fn state_index(dcds: &Dcds, inst: &Instance) -> InstanceIndex {
    InstanceIndex::build(inst, dcds.plans().access_paths().iter().cloned())
}

/// Snapshot of the plan-cache counters, for delta publication around a run.
pub fn query_stats_snapshot(dcds: &Dcds) -> [(&'static str, u64); 4] {
    dcds.plans().stats.snapshot()
}

/// Publish the growth of the plan-cache counters since `before` into the
/// observability registry under `query.*`. The totals depend only on the
/// work performed, not on the thread count, and this is called from serial
/// engine code — so the registry stays bit-identical at every thread count.
pub fn publish_query_stats_delta(
    dcds: &Dcds,
    obs: &dcds_obs::Obs,
    before: &[(&'static str, u64); 4],
) {
    if !obs.is_enabled() {
        return;
    }
    for ((name, after), (_, b)) in dcds.plans().stats.snapshot().iter().zip(before) {
        obs.counter_add(format!("query.{name}"), after.saturating_sub(*b));
    }
}

/// `DO(I, ασ)`: apply the action under the parameter assignment, producing
/// the pre-instance of grounded effect heads.
///
/// σ must bind every parameter of the action; keys that are not parameters
/// are ignored. Panics if σ misses a parameter.
pub fn do_action(
    dcds: &Dcds,
    inst: &Instance,
    action: ActionId,
    sigma: &Assignment,
) -> PreInstance {
    do_action_indexed(dcds, inst, action, sigma, None)
}

/// [`do_action`] evaluating `q⁺` through the cached compiled plans, probing
/// `index` when one is supplied (see [`state_index`]).
///
/// Validation ([`Dcds::validate`]) makes every `q⁺` range-restricted modulo
/// the action parameters, so every effect of a validated system has a
/// plan. Panics on an effect without one — possible only for a system
/// assembled unvalidated with [`Dcds::from_parts`] — and, like
/// [`do_action`], on a σ that misses a parameter.
pub fn do_action_indexed(
    dcds: &Dcds,
    inst: &Instance,
    action: ActionId,
    sigma: &Assignment,
    index: Option<&InstanceIndex>,
) -> PreInstance {
    let cache = dcds.plans();
    let action_id = action;
    let action = dcds.process.action(action);
    // σ restricted to the parameters: the input slots the plans were
    // compiled with.
    let sigma: Assignment = action
        .params
        .iter()
        .map(|p| {
            let v = sigma.get(p).unwrap_or_else(|| {
                panic!(
                    "σ binds no value to parameter {} of action {}",
                    p.name(),
                    action.name
                )
            });
            (p.clone(), *v)
        })
        .collect();
    let mut out = PreInstance::new();
    for (eix, effect) in action.effects.iter().enumerate() {
        let plan = cache.effect_plan(action_id, eix).unwrap_or_else(|| {
            panic!(
                "effect #{eix} of action {} has no compiled q+ plan (unvalidated system)",
                action.name
            )
        });
        let mut ctx = match index {
            Some(ix) => EvalCtx::with_index(inst, ix),
            None => EvalCtx::scan(inst),
        };
        ctx = ctx.stats(&cache.stats);
        let thetas = plan.eval(&ctx, &sigma);
        let qminus = effect.qminus.apply(&sigma);
        for theta in thetas {
            // θ covers the non-parameter head variables of q+; the filter
            // Q- may mention them and the parameters (already substituted).
            let mut full: Assignment = theta;
            full.extend(sigma.iter().map(|(p, v)| (p.clone(), *v)));
            let pass = if qminus == dcds_folang::Formula::True {
                true
            } else {
                // Restrict to the filter's free variables (all bound).
                holds(&qminus, inst, &full).unwrap_or(false)
            };
            if !pass {
                continue;
            }
            for (rel, terms) in &effect.head {
                let grounded: Option<Vec<GTerm>> = terms.iter().map(|t| t.ground(&full)).collect();
                if let Some(g) = grounded {
                    out.insert(*rel, g);
                }
            }
        }
    }
    out
}

/// Legal parameter assignments: for each rule `Q ↦ α`, every answer of `Q`
/// over the instance provides a legal σ for α (Section 4.1). Returns
/// deterministic, deduplicated `(action, σ)` pairs.
pub fn legal_assignments(dcds: &Dcds, inst: &Instance) -> Vec<(ActionId, Assignment)> {
    legal_assignments_indexed(dcds, inst, None)
}

/// [`legal_assignments`] answering UCQ-shaped rule conditions through their
/// compiled plans (probing `index` when supplied); conditions outside the
/// fragment — negation, universal quantification, non-range-restricted
/// equalities — keep the reference active-domain evaluator. Identical
/// output either way: compiled plans are gated on the range restriction
/// under which the two semantics coincide.
pub fn legal_assignments_indexed(
    dcds: &Dcds,
    inst: &Instance,
    index: Option<&InstanceIndex>,
) -> Vec<(ActionId, Assignment)> {
    let cache = dcds.plans();
    let mut seen: BTreeSet<(ActionId, Vec<(Var, dcds_reldata::Value)>)> = BTreeSet::new();
    let mut out = Vec::new();
    for (rix, rule) in dcds.process.rules.iter().enumerate() {
        let answers: BTreeSet<Assignment> = match cache.rule_plan(rix) {
            Some(plan) => {
                let mut ctx = match index {
                    Some(ix) => EvalCtx::with_index(inst, ix),
                    None => EvalCtx::scan(inst),
                };
                ctx = ctx.stats(&cache.stats);
                plan.eval(&ctx, &Assignment::new())
            }
            None => {
                cache.stats.fallback_evals.fetch_add(1, Ordering::Relaxed);
                dcds_folang::answers(&rule.condition, inst)
            }
        };
        for sigma in answers {
            let key: Vec<_> = sigma.iter().map(|(v, c)| (v.clone(), *c)).collect();
            if seen.insert((rule.action, key)) {
                out.push((rule.action, sigma));
            }
        }
    }
    out
}

/// Overwrite semantics helper used by both service semantics: the successor
/// instance is *exactly* the resolved `DO` result — facts not re-asserted by
/// some effect are forgotten (the paper's transition semantics).
pub fn resolve_with_map(
    pre: &PreInstance,
    map: &BTreeMap<ServiceCall, dcds_reldata::Value>,
) -> Option<Instance> {
    pre.resolve(&|c| map.get(c).copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DcdsBuilder;
    use crate::service::ServiceKind;

    /// Example 4.1 from the paper.
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
            .expect("example 4.1 is well-formed")
    }

    #[test]
    fn do_produces_calls_and_values() {
        let dcds = example_4_1();
        let alpha = dcds.action_id("alpha").unwrap();
        let pre = do_action(&dcds, &dcds.data.initial, alpha, &Assignment::new());
        // Facts: R(a), P(a), Q(f(a), g(a)).
        assert_eq!(pre.len(), 3);
        let calls = pre.calls();
        assert_eq!(calls.len(), 2);
        let names: BTreeSet<String> = calls
            .iter()
            .map(|c| c.display(&dcds.process.services, &dcds.data.pool))
            .collect();
        assert_eq!(
            names,
            ["f(a)".to_owned(), "g(a)".to_owned()].into_iter().collect()
        );
    }

    #[test]
    fn resolve_builds_instance() {
        let dcds = example_4_1();
        let alpha = dcds.action_id("alpha").unwrap();
        let pre = do_action(&dcds, &dcds.data.initial, alpha, &Assignment::new());
        let a = dcds.data.pool.get("a").unwrap();
        let map: BTreeMap<ServiceCall, _> = pre.calls().into_iter().map(|c| (c, a)).collect();
        let inst = resolve_with_map(&pre, &map).unwrap();
        // R(a), P(a), Q(a,a).
        assert_eq!(inst.len(), 3);
        let q = dcds.data.schema.rel_id("Q").unwrap();
        assert!(inst.contains(q, &Tuple::from([a, a])));
    }

    #[test]
    fn legal_assignments_from_true_rule() {
        let dcds = example_4_1();
        let legal = legal_assignments(&dcds, &dcds.data.initial);
        assert_eq!(legal.len(), 1);
        assert!(legal[0].1.is_empty());
    }

    #[test]
    fn unresolved_calls_fail_resolution() {
        let dcds = example_4_1();
        let alpha = dcds.action_id("alpha").unwrap();
        let pre = do_action(&dcds, &dcds.data.initial, alpha, &Assignment::new());
        assert!(resolve_with_map(&pre, &BTreeMap::new()).is_none());
    }

    #[test]
    fn parameterised_action_and_guard() {
        // ρ = { P(X) ↦ alpha(X) }, alpha(p): true ⇝ R(p).
        let dcds = DcdsBuilder::new()
            .relation("P", 1)
            .relation("R", 1)
            .init_fact("P", &["a"])
            .init_fact("P", &["b"])
            .action("alpha", &["X"], |a| {
                a.effect("true", "R(X)");
            })
            .rule("P(X)", "alpha")
            .build()
            .unwrap();
        let legal = legal_assignments(&dcds, &dcds.data.initial);
        assert_eq!(legal.len(), 2);
        let alpha = dcds.action_id("alpha").unwrap();
        for (act, sigma) in legal {
            assert_eq!(act, alpha);
            let pre = do_action(&dcds, &dcds.data.initial, act, &sigma);
            assert_eq!(pre.len(), 1);
        }
    }

    #[test]
    fn negative_filter_blocks_instantiations() {
        // e: P(X) ∧ ¬R(X) ⇝ R(X) — only copies P-values not yet in R.
        let dcds = DcdsBuilder::new()
            .relation("P", 1)
            .relation("R", 1)
            .init_fact("P", &["a"])
            .init_fact("P", &["b"])
            .init_fact("R", &["a"])
            .action("alpha", &[], |a| {
                a.effect("P(X) & !R(X)", "R(X)");
            })
            .rule("true", "alpha")
            .build()
            .unwrap();
        let alpha = dcds.action_id("alpha").unwrap();
        let pre = do_action(&dcds, &dcds.data.initial, alpha, &Assignment::new());
        // Only R(b).
        assert_eq!(pre.len(), 1);
        let b = dcds.data.pool.get("b").unwrap();
        let r = dcds.data.schema.rel_id("R").unwrap();
        let inst = pre.resolve(&|_| None).unwrap();
        assert!(inst.contains(r, &Tuple::from([b])));
    }
}
