//! Join-based evaluation of (unions of) conjunctive queries.
//!
//! The reference evaluator in [`crate::eval`] enumerates assignments over the
//! active domain, which is exponential in the number of variables. This
//! module instead joins atom by atom, which is the standard
//! worst-case-adequate strategy for CQs. It is not on any engine's path —
//! the positive parts `q+` of effect specifications run as compiled plans
//! ([`crate::plan`]) — and is kept as the nested-loop oracle and baseline
//! that the plan differential tests and benchmarks compare against.
//! Property tests in `tests/eval_agreement.rs` check it agrees with the
//! reference evaluator on random UCQs.

use crate::ast::{Assignment, QTerm, Var};
use crate::ucq::{ConjunctiveQuery, Ucq};
use dcds_reldata::{Instance, Value};
use std::collections::BTreeSet;

/// Evaluate a conjunctive query, returning assignments over its head
/// variables.
pub fn eval_cq(cq: &ConjunctiveQuery, inst: &Instance) -> BTreeSet<Assignment> {
    // Start with the single empty partial assignment; extend through atoms.
    let mut partials: Vec<Assignment> = vec![Assignment::new()];
    // Join atoms in an order that maximises early bound variables: greedy
    // selection of the atom sharing the most variables with those bound.
    let order = join_order(cq);
    for &atom_ix in &order {
        let (rel, terms) = &cq.atoms[atom_ix];
        let mut next: Vec<Assignment> = Vec::new();
        for asg in &partials {
            for tuple in inst.tuples(*rel) {
                if let Some(extended) = unify(terms, tuple.values(), asg) {
                    next.push(extended);
                }
            }
        }
        partials = next;
        if partials.is_empty() {
            return BTreeSet::new();
        }
    }
    // Apply equality side conditions, then project to the head. The number
    // of distinct head variables is loop-invariant: compute it once, not
    // once per result row.
    let distinct_head = cq.head.iter().collect::<BTreeSet<_>>().len();
    let mut out = BTreeSet::new();
    'outer: for asg in partials {
        for (t1, t2) in &cq.equalities {
            let v1 = term_val(t1, &asg);
            let v2 = term_val(t2, &asg);
            match (v1, v2) {
                (Some(a), Some(b)) if a == b => {}
                _ => continue 'outer,
            }
        }
        let projected: Assignment = cq
            .head
            .iter()
            .filter_map(|v| asg.get(v).map(|&c| (v.clone(), c)))
            .collect();
        if projected.len() == distinct_head {
            out.insert(projected);
        }
    }
    out
}

/// Evaluate a union of conjunctive queries (set union of disjunct answers).
pub fn eval_ucq(ucq: &Ucq, inst: &Instance) -> BTreeSet<Assignment> {
    let mut out = BTreeSet::new();
    for cq in &ucq.disjuncts {
        out.extend(eval_cq(cq, inst));
    }
    out
}

/// Greedy join order: repeatedly pick the atom sharing the most variables
/// with the already-bound set (ties broken by original position).
fn join_order(cq: &ConjunctiveQuery) -> Vec<usize> {
    let n = cq.atoms.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut bound: BTreeSet<Var> = BTreeSet::new();
    let mut order = Vec::with_capacity(n);
    while !remaining.is_empty() {
        let (pos, &best) = remaining
            .iter()
            .enumerate()
            .max_by_key(|(_, &ix)| {
                let vars = atom_vars(&cq.atoms[ix].1);
                let shared = vars.intersection(&bound).count();
                // Prefer atoms with more shared vars, then more constants.
                let consts = cq.atoms[ix]
                    .1
                    .iter()
                    .filter(|t| matches!(t, QTerm::Const(_)))
                    .count();
                (shared, consts, usize::MAX - ix)
            })
            .expect("remaining nonempty");
        order.push(best);
        bound.extend(atom_vars(&cq.atoms[best].1));
        remaining.remove(pos);
    }
    order
}

fn atom_vars(terms: &[QTerm]) -> BTreeSet<Var> {
    terms.iter().filter_map(|t| t.as_var().cloned()).collect()
}

fn term_val(t: &QTerm, asg: &Assignment) -> Option<Value> {
    match t {
        QTerm::Const(c) => Some(*c),
        QTerm::Var(v) => asg.get(v).copied(),
    }
}

/// Try to extend `asg` so that `terms` matches `tuple` componentwise.
fn unify(terms: &[QTerm], tuple: &[Value], asg: &Assignment) -> Option<Assignment> {
    debug_assert_eq!(terms.len(), tuple.len());
    let mut out = asg.clone();
    for (t, &v) in terms.iter().zip(tuple) {
        match t {
            QTerm::Const(c) => {
                if *c != v {
                    return None;
                }
            }
            QTerm::Var(x) => match out.get(x) {
                Some(&bound) if bound != v => return None,
                Some(_) => {}
                None => {
                    out.insert(x.clone(), v);
                }
            },
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_reldata::{ConstantPool, RelId, Schema, Tuple};

    fn setup() -> (ConstantPool, Schema, RelId, RelId, Instance) {
        let mut pool = ConstantPool::new();
        let mut schema = Schema::new();
        let p = schema.add_relation("P", 1).unwrap();
        let q = schema.add_relation("Q", 2).unwrap();
        let a = pool.intern("a");
        let b = pool.intern("b");
        let c = pool.intern("c");
        let inst = Instance::from_facts([
            (p, Tuple::from([a])),
            (p, Tuple::from([b])),
            (q, Tuple::from([a, b])),
            (q, Tuple::from([b, c])),
        ]);
        (pool, schema, p, q, inst)
    }

    #[test]
    fn single_atom_scan() {
        let (_, _, p, _, inst) = setup();
        let cq = ConjunctiveQuery {
            head: vec![Var::new("X")],
            atoms: vec![(p, vec![QTerm::var("X")])],
            equalities: vec![],
        };
        assert_eq!(eval_cq(&cq, &inst).len(), 2);
    }

    #[test]
    fn join_two_atoms() {
        let (pool, _, p, q, inst) = setup();
        let b = pool.get("b").unwrap();
        // X : P(X), Q(X, Y), P(Y) — only X=a gives Y=b in P.
        let cq = ConjunctiveQuery {
            head: vec![Var::new("Y")],
            atoms: vec![
                (p, vec![QTerm::var("X")]),
                (q, vec![QTerm::var("X"), QTerm::var("Y")]),
                (p, vec![QTerm::var("Y")]),
            ],
            equalities: vec![],
        };
        let ans = eval_cq(&cq, &inst);
        assert_eq!(ans.len(), 1);
        let only = ans.into_iter().next().unwrap();
        assert_eq!(only.get(&Var::new("Y")), Some(&b));
    }

    #[test]
    fn repeated_variable_forces_equality() {
        let (_, _, _, q, inst) = setup();
        // Q(X, X) — no such tuple.
        let cq = ConjunctiveQuery {
            head: vec![Var::new("X")],
            atoms: vec![(q, vec![QTerm::var("X"), QTerm::var("X")])],
            equalities: vec![],
        };
        assert!(eval_cq(&cq, &inst).is_empty());
    }

    #[test]
    fn constants_filter_tuples() {
        let (pool, _, _, q, inst) = setup();
        let a = pool.get("a").unwrap();
        let cq = ConjunctiveQuery {
            head: vec![Var::new("Y")],
            atoms: vec![(q, vec![QTerm::Const(a), QTerm::var("Y")])],
            equalities: vec![],
        };
        assert_eq!(eval_cq(&cq, &inst).len(), 1);
    }

    #[test]
    fn equality_side_conditions() {
        let (pool, _, _, q, inst) = setup();
        let b = pool.get("b").unwrap();
        let cq = ConjunctiveQuery {
            head: vec![Var::new("X")],
            atoms: vec![(q, vec![QTerm::var("X"), QTerm::var("Y")])],
            equalities: vec![(QTerm::var("Y"), QTerm::Const(b))],
        };
        let ans = eval_cq(&cq, &inst);
        assert_eq!(ans.len(), 1);
        assert_eq!(
            ans.into_iter().next().unwrap().get(&Var::new("X")),
            Some(&pool.get("a").unwrap())
        );
    }

    #[test]
    fn projection_deduplicates() {
        let (_, _, _, q, inst) = setup();
        // Head X only; Y projected away — both Q tuples give distinct X here,
        // so add a boolean version: head empty.
        let cq = ConjunctiveQuery {
            head: vec![],
            atoms: vec![(q, vec![QTerm::var("X"), QTerm::var("Y")])],
            equalities: vec![],
        };
        let ans = eval_cq(&cq, &inst);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&Assignment::new()));
    }

    #[test]
    fn truth_query_yields_empty_assignment() {
        let inst = Instance::new();
        let ans = eval_cq(&ConjunctiveQuery::truth(), &inst);
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn ucq_unions_disjuncts() {
        let (_, _, p, q, inst) = setup();
        let cq1 = ConjunctiveQuery {
            head: vec![Var::new("X")],
            atoms: vec![(p, vec![QTerm::var("X")])],
            equalities: vec![],
        };
        let cq2 = ConjunctiveQuery {
            head: vec![Var::new("X")],
            atoms: vec![(q, vec![QTerm::var("Y"), QTerm::var("X")])],
            equalities: vec![],
        };
        let ucq = Ucq {
            disjuncts: vec![cq1, cq2],
        };
        // P gives {a, b}; Q second column gives {b, c}; union {a, b, c}.
        assert_eq!(eval_ucq(&ucq, &inst).len(), 3);
    }
}
