//! The DCDS `S = ⟨D, P⟩` and its static validation.

use crate::action::ActionId;
use crate::data_layer::DataLayer;
use crate::do_op::PlanCache;
use crate::process::ProcessLayer;
use crate::term::ETerm;
use dcds_folang::QTerm;
use dcds_reldata::{ConstantPool, Value};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// A data-centric dynamic system.
#[derive(Debug)]
pub struct Dcds {
    /// The data layer.
    pub data: DataLayer,
    /// The process layer.
    pub process: ProcessLayer,
    /// Compiled query plans for the effects and rule conditions, built
    /// lazily on first use and shared (behind `&self`) by every evaluation
    /// of this system — one compilation per DCDS, not per transition.
    plans: OnceLock<PlanCache>,
}

impl Clone for Dcds {
    fn clone(&self) -> Self {
        // The plan cache is derived state: a clone rebuilds it on demand.
        Dcds::from_parts(self.data.clone(), self.process.clone())
    }
}

/// Static well-formedness violations (Section 2.2's syntactic side
/// conditions, enforced up front so the semantics can assume them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The initial instance or constraints are broken.
    DataLayer(String),
    /// A rule's condition free variables differ from the action parameters.
    RuleParamMismatch {
        /// Index of the rule in `process.rules`.
        rule: usize,
        /// Explanation.
        detail: String,
    },
    /// An effect is malformed.
    Effect {
        /// Action name.
        action: String,
        /// Index of the effect within the action.
        effect: usize,
        /// Explanation.
        detail: String,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::DataLayer(s) => write!(f, "data layer: {s}"),
            ValidationError::RuleParamMismatch { rule, detail } => {
                write!(f, "rule #{rule}: {detail}")
            }
            ValidationError::Effect {
                action,
                effect,
                detail,
            } => write!(f, "action {action}, effect #{effect}: {detail}"),
        }
    }
}

impl std::error::Error for ValidationError {}

impl Dcds {
    /// Construct and validate.
    pub fn new(data: DataLayer, process: ProcessLayer) -> Result<Self, ValidationError> {
        let s = Dcds::from_parts(data, process);
        s.validate()?;
        Ok(s)
    }

    /// Assemble a system **without** validating it. For *analytic* objects
    /// (e.g. the positive approximate `S⁺`, whose stripped parameters can
    /// leave head variables unbound) that are inspected by the static
    /// analyses but never executed.
    pub fn from_parts(data: DataLayer, process: ProcessLayer) -> Self {
        Dcds {
            data,
            process,
            plans: OnceLock::new(),
        }
    }

    /// The compiled-plan cache for this system's effects and rule
    /// conditions, built on first use (thread-safe) and reused across the
    /// whole exploration.
    pub fn plans(&self) -> &PlanCache {
        self.plans.get_or_init(|| PlanCache::build(self))
    }

    /// Check every static side condition of Section 2:
    ///
    /// 1. `I₀` conforms to `R` and satisfies `E`;
    /// 2. for each rule `Q ↦ α`: `free(Q) = params(α)`;
    /// 3. for each effect `q⁺ ∧ Q⁻ ⇝ E`:
    ///    * `q⁺` is a valid UCQ over `R` (its terms may also mention the
    ///      action parameters, which we treat as free variables of `q⁺`'s
    ///      disjuncts for this check), range-restricted modulo the
    ///      parameters: every head or equality variable occurs in an atom
    ///      or is a parameter — so `q⁺` has a compiled plan,
    ///    * `free(Q⁻) ⊆ free(q⁺) ∪ params`,
    ///    * every head term uses only constants, parameters, free variables
    ///      of `q⁺`, and service calls over those (constants mentioned in
    ///      the specification become *rigid*, applying the paper's
    ///      footnote-2 w.l.o.g. that they appear in `I₀`);
    /// 4. service calls respect the declared arities.
    pub fn validate(&self) -> Result<(), ValidationError> {
        self.data.validate().map_err(ValidationError::DataLayer)?;

        for (ix, rule) in self.process.rules.iter().enumerate() {
            let action = self.process.action(rule.action);
            let cond_free = rule.condition.free_vars();
            let params: BTreeSet<_> = action.params.iter().cloned().collect();
            if cond_free != params {
                return Err(ValidationError::RuleParamMismatch {
                    rule: ix,
                    detail: format!(
                        "condition free variables {:?} must equal the parameters {:?} of action {}",
                        cond_free.iter().map(|v| v.name()).collect::<Vec<_>>(),
                        params.iter().map(|v| v.name()).collect::<Vec<_>>(),
                        action.name
                    ),
                });
            }
            rule.condition
                .check_arities(&self.data.schema)
                .map_err(|e| ValidationError::RuleParamMismatch {
                    rule: ix,
                    detail: e.to_string(),
                })?;
        }

        for action in &self.process.actions {
            let params: BTreeSet<_> = action.params.iter().cloned().collect();
            for (eix, effect) in action.effects.iter().enumerate() {
                // q+ validity. Action parameters may occur in q+'s atoms; the
                // UCQ validator requires head vars to occur in atoms, so we
                // check disjunct arities directly and head- and
                // equality-variable coverage modulo parameters.
                for cq in &effect.qplus.disjuncts {
                    for (rel, terms) in &cq.atoms {
                        let expected = self.data.schema.arity(*rel);
                        if terms.len() != expected {
                            return Err(ValidationError::Effect {
                                action: action.name.clone(),
                                effect: eix,
                                detail: format!(
                                    "atom over {} has {} arguments, arity is {}",
                                    self.data.schema.name(*rel),
                                    terms.len(),
                                    expected
                                ),
                            });
                        }
                    }
                    let avars = cq.atom_vars();
                    for v in &cq.head {
                        if !avars.contains(v) && !params.contains(v) {
                            return Err(ValidationError::Effect {
                                action: action.name.clone(),
                                effect: eix,
                                detail: format!(
                                    "head variable {} of q+ occurs in no atom and is not a parameter",
                                    v.name()
                                ),
                            });
                        }
                    }
                    for (t1, t2) in &cq.equalities {
                        for t in [t1, t2] {
                            if let QTerm::Var(v) = t {
                                if !avars.contains(v) && !params.contains(v) {
                                    return Err(ValidationError::Effect {
                                        action: action.name.clone(),
                                        effect: eix,
                                        detail: format!(
                                            "equality variable {} of q+ occurs in no atom and is not a parameter",
                                            v.name()
                                        ),
                                    });
                                }
                            }
                        }
                    }
                }
                // free(Q-) ⊆ free(q+) ∪ params.
                let body_vars = effect.body_vars();
                for v in effect.qminus.free_vars() {
                    if !body_vars.contains(&v) && !params.contains(&v) {
                        return Err(ValidationError::Effect {
                            action: action.name.clone(),
                            effect: eix,
                            detail: format!(
                                "Q- free variable {} is not among the free variables of q+",
                                v.name()
                            ),
                        });
                    }
                }
                effect
                    .qminus
                    .check_arities(&self.data.schema)
                    .map_err(|e| ValidationError::Effect {
                        action: action.name.clone(),
                        effect: eix,
                        detail: e.to_string(),
                    })?;
                // Head facts.
                for (rel, terms) in &effect.head {
                    let expected = self.data.schema.arity(*rel);
                    if terms.len() != expected {
                        return Err(ValidationError::Effect {
                            action: action.name.clone(),
                            effect: eix,
                            detail: format!(
                                "head fact over {} has {} terms, arity is {}",
                                self.data.schema.name(*rel),
                                terms.len(),
                                expected
                            ),
                        });
                    }
                    for t in terms {
                        for v in t.vars() {
                            if !body_vars.contains(v) && !params.contains(v) {
                                return Err(ValidationError::Effect {
                                    action: action.name.clone(),
                                    effect: eix,
                                    detail: format!(
                                        "head variable {} is neither a q+ variable nor a parameter",
                                        v.name()
                                    ),
                                });
                            }
                        }
                        if let ETerm::Call(fid, args) = t {
                            let expected = self.process.services.arity(*fid);
                            if args.len() != expected {
                                return Err(ValidationError::Effect {
                                    action: action.name.clone(),
                                    effect: eix,
                                    detail: format!(
                                        "service {} has arity {}, call has {} arguments",
                                        self.process.services.name(*fid),
                                        expected,
                                        args.len()
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Convenience: look up an action id by name.
    pub fn action_id(&self, name: &str) -> Option<ActionId> {
        self.process.action_id(name)
    }

    /// A working copy of the constant pool for an exploration run. Every
    /// engine starts from the spec's pool and mints fresh values into its
    /// own copy; this is the one place that copy is made.
    pub fn working_pool(&self) -> ConstantPool {
        self.data.pool.clone()
    }

    /// The *rigid* constants: `ADOM(I₀)` plus every constant mentioned in
    /// rules, effects, and constraints. The paper assumes w.l.o.g.
    /// (footnote 2) that the latter appear in `I₀`; collecting them here
    /// applies that assumption without forcing specs to pad the initial
    /// instance. Isomorphisms and bisimulations fix these pointwise.
    pub fn rigid_constants(&self) -> BTreeSet<Value> {
        let mut rigid = self.data.rigid_constants();
        for c in &self.data.constraints {
            rigid.extend(c.query.constants());
            for (t1, t2) in &c.equalities {
                for t in [t1, t2] {
                    if let QTerm::Const(v) = t {
                        rigid.insert(*v);
                    }
                }
            }
        }
        for c in &self.data.fo_constraints {
            rigid.extend(c.sentence.constants());
        }
        for rule in &self.process.rules {
            rigid.extend(rule.condition.constants());
        }
        for action in &self.process.actions {
            for effect in &action.effects {
                rigid.extend(effect.qminus.constants());
                for cq in &effect.qplus.disjuncts {
                    for (_, terms) in &cq.atoms {
                        for t in terms {
                            if let QTerm::Const(v) = t {
                                rigid.insert(*v);
                            }
                        }
                    }
                    for (t1, t2) in &cq.equalities {
                        for t in [t1, t2] {
                            if let QTerm::Const(v) = t {
                                rigid.insert(*v);
                            }
                        }
                    }
                }
                for (_, terms) in &effect.head {
                    for t in terms {
                        rigid.extend(t.constants());
                    }
                }
            }
        }
        rigid
    }

    /// True when every service is deterministic (Section 4 applies).
    pub fn is_deterministic(&self) -> bool {
        self.process.services.all_deterministic()
    }

    /// True when every service is nondeterministic (Section 5 applies).
    pub fn is_nondeterministic(&self) -> bool {
        self.process.services.all_nondeterministic()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::DcdsBuilder;
    use crate::dcds::ValidationError;
    use dcds_folang::{QTerm, Var};

    #[test]
    fn qplus_equality_variable_outside_atoms_is_rejected() {
        // A hand-built `q⁺ = R(X) ∧ Y = a`: `Y` occurs in no atom and is no
        // parameter, so no row could ever bind it and the effect would
        // silently never fire.
        let dcds = DcdsBuilder::new()
            .relation("R", 1)
            .relation("Q", 1)
            .init_fact("R", &["a"])
            .action("alpha", &[], |a| {
                a.effect("R(X)", "Q(X)");
            })
            .rule("true", "alpha")
            .build()
            .unwrap();
        let a = dcds.data.pool.get("a").unwrap();
        let mut process = dcds.process.clone();
        process.actions[0].effects[0].qplus.disjuncts[0]
            .equalities
            .push((QTerm::Var(Var::new("Y")), QTerm::Const(a)));
        let broken = crate::Dcds::from_parts(dcds.data.clone(), process);
        match broken.validate() {
            Err(ValidationError::Effect { effect, detail, .. }) => {
                assert_eq!(effect, 0);
                assert!(detail.contains("equality variable Y"), "{detail}");
            }
            other => panic!("expected an effect error, got {other:?}"),
        }
        // The same equality over an atom variable is range-restricted.
        let mut process = dcds.process.clone();
        process.actions[0].effects[0].qplus.disjuncts[0]
            .equalities
            .push((QTerm::Var(Var::new("X")), QTerm::Const(a)));
        assert!(crate::Dcds::from_parts(dcds.data.clone(), process)
            .validate()
            .is_ok());
    }
}
