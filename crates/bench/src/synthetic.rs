//! Parametric synthetic DCDS families for scaling benchmarks.

use crate::rng::SplitMix64;
use dcds_core::{Dcds, DcdsBuilder, ServiceKind};

/// A weakly acyclic copy chain: `R0 → R1 → ... → Rn` (one copy effect per
/// link, no services). Run-bounded trivially.
pub fn copy_chain(n: usize) -> Dcds {
    let mut b = DcdsBuilder::new();
    for i in 0..=n {
        b = b.relation(&format!("R{i}"), 1);
    }
    b = b.init_fact("R0", &["a"]);
    b = b.action("step", &[], |a| {
        for i in 0..n {
            a.effect(&format!("R{i}(X)"), &format!("R{}(X)", i + 1));
        }
        a.effect("R0(X)", "R0(X)");
    });
    b.rule("true", "step").build().expect("copy chain")
}

/// A weakly acyclic service chain: `Ri →* R(i+1)` via a deterministic call
/// per link. Rank of `Rn` is `n`: stresses the rank computation and the
/// deterministic abstraction depth.
pub fn service_chain(n: usize) -> Dcds {
    let mut b = DcdsBuilder::new();
    for i in 0..=n {
        b = b.relation(&format!("R{i}"), 1);
    }
    for i in 0..n {
        b = b.service(&format!("f{i}"), 1, ServiceKind::Deterministic);
    }
    b = b.init_fact("R0", &["a"]);
    b = b.action("step", &[], |a| {
        for i in 0..n {
            a.effect(&format!("R{i}(X)"), &format!("R{}(f{i}(X))", i + 1));
        }
        a.effect("R0(X)", "R0(X)");
    });
    b.rule("true", "step").build().expect("service chain")
}

/// A ring of `n` relations with one special edge closing the cycle — NOT
/// weakly acyclic for any `n ≥ 1` (generalises Example 4.3).
pub fn service_cycle(n: usize) -> Dcds {
    let n = n.max(1);
    let mut b = DcdsBuilder::new();
    for i in 0..n {
        b = b.relation(&format!("R{i}"), 1);
    }
    b = b.service("f", 1, ServiceKind::Deterministic);
    b = b.init_fact("R0", &["a"]);
    b = b.action("step", &[], |a| {
        for i in 0..n - 1 {
            a.effect(&format!("R{i}(X)"), &format!("R{}(X)", i + 1));
        }
        a.effect(&format!("R{}(X)", n - 1), "R0(f(X))");
    });
    b.rule("true", "step").build().expect("service cycle")
}

/// `width` parallel Example-5.2 accumulators — NOT GR-acyclic; the state
/// grows by up to `width` fresh values per step.
pub fn accumulator(width: usize) -> Dcds {
    let width = width.max(1);
    let mut b = DcdsBuilder::new().relation("Src", 1);
    for i in 0..width {
        b = b.relation(&format!("Acc{i}"), 1);
        b = b.service(&format!("f{i}"), 1, ServiceKind::Nondeterministic);
    }
    b = b.init_fact("Src", &["a"]);
    b = b.action("step", &[], |a| {
        a.effect("Src(X)", "Src(X)");
        for i in 0..width {
            a.effect("Src(X)", &format!("Acc{i}(f{i}(X))"));
            a.effect(&format!("Acc{i}(X)"), &format!("Acc{i}(X)"));
        }
    });
    b.rule("true", "step").build().expect("accumulator")
}

/// A GR⁺ flush ladder: a generator action feeds fresh values into `Buf`,
/// a *separate* consumer action copies `Buf` to `Out` without sustaining
/// `Buf` — not GR-acyclic (generate cycle into recall cycle) but GR⁺
/// (the generator and the recall loop never fire together).
pub fn flush_ladder() -> Dcds {
    DcdsBuilder::new()
        .relation("Tick", 0)
        .relation("Buf", 1)
        .relation("Out", 1)
        .relation("Phase", 1)
        .service("gen", 0, ServiceKind::Nondeterministic)
        .init_fact("Tick", &[])
        .init_fact("Phase", &["produce"])
        .fo_constraint("forall P . Phase(P) -> P = 'produce' | P = 'consume'")
        .action("produce", &[], |a| {
            a.effect("Tick()", "Tick(), Phase('consume'), Buf(gen())");
            // Out persists through the produce phase — this closes the
            // recall cycle that makes the system non-GR-acyclic...
            a.effect("Out(X)", "Out(X)");
        })
        .action("consume", &[], |a| {
            a.effect("Tick()", "Tick(), Phase('produce')");
            // ... but consume *replaces* Out (it does not sustain it), so
            // the recall cycle is flushed whenever fresh values flow in:
            // GR+-acyclic, state-bounded.
            a.effect("Buf(X)", "Out(X)");
        })
        .rule("Phase('produce')", "produce")
        .rule("Phase('consume')", "consume")
        .build()
        .expect("flush ladder")
}

/// `width` independent Example-4.3 rings with deterministic services:
/// every step applies each `fᵢ` to that ring's freshest value, so the
/// service-call maps grow without bound and (almost) every commitment
/// successor is a brand-new isomorphism class, while the commitments over
/// the `width` simultaneous calls give wide branching. The stress profile
/// for the abstraction dedup index — big fact encodings, expensive
/// canonical keys, empty signature buckets.
pub fn parallel_rings(width: usize) -> Dcds {
    let width = width.max(1);
    let mut b = DcdsBuilder::new();
    for i in 0..width {
        b = b
            .relation(&format!("R{i}"), 1)
            .relation(&format!("Q{i}"), 1)
            .service(&format!("f{i}"), 1, ServiceKind::Deterministic)
            .init_fact(&format!("R{i}"), &["a"]);
    }
    b = b.action("step", &[], |a| {
        for i in 0..width {
            a.effect(&format!("R{i}(X)"), &format!("Q{i}(f{i}(X))"));
            a.effect(&format!("Q{i}(X)"), &format!("R{i}(X)"));
        }
    });
    b.rule("true", "step").build().expect("parallel rings")
}

/// `width` nondeterministic ping-pong rings (Example 5.1 style) advanced
/// one at a time by a cycling phase token. Every state holds exactly
/// `width + 2` facts (one slot per ring, `Tick`, `Phase`), so the state
/// *size* is flat no matter how far exploration runs, while the reachable
/// space is the product of the per-ring configurations × `width` phases —
/// exponential in `width`. Branching per state is one service call over a
/// bounded active domain, so the fanout is `O(width)` and RCYCL streams
/// through millions of states without the per-state cost creeping up:
/// the scale workload for the compact state store (each successor differs
/// from its parent in one ring slot plus the phase token — tiny deltas).
pub fn phased_rings(width: usize) -> Dcds {
    let width = width.max(1);
    let mut b = DcdsBuilder::new().relation("Tick", 0).relation("Phase", 1);
    for i in 0..width {
        b = b
            .relation(&format!("R{i}"), 1)
            .relation(&format!("Q{i}"), 1)
            .service(&format!("f{i}"), 1, ServiceKind::Nondeterministic)
            .init_fact(&format!("R{i}"), &["a"]);
    }
    b = b.init_fact("Tick", &[]).init_fact("Phase", &["p0"]);
    for i in 0..width {
        let next = (i + 1) % width;
        b = b.action(&format!("step{i}"), &[], |a| {
            // Advance ring `i`; the phase token is replaced, not
            // sustained, so exactly one ring moves per transition.
            a.effect("Tick()", &format!("Tick(), Phase('p{next}')"));
            a.effect(&format!("R{i}(X)"), &format!("Q{i}(f{i}(X))"));
            a.effect(&format!("Q{i}(X)"), &format!("R{i}(X)"));
            for j in 0..width {
                if j != i {
                    a.effect(&format!("R{j}(X)"), &format!("R{j}(X)"));
                    a.effect(&format!("Q{j}(X)"), &format!("Q{j}(X)"));
                }
            }
        });
        b = b.rule(&format!("Phase('p{i}')"), &format!("step{i}"));
    }
    b.build().expect("phased rings")
}

/// The dedup-collision stress family: `n` rigid seed tags, one
/// deterministic call per phase, and constraints that force each call
/// result to be either fresh or equal to one *unpaired* earlier result.
/// The abstract states at level `k` are exactly the involutions of the
/// first `k` tags, and two states whose paired tag-sets coincide are
/// indistinguishable to [`dcds_reldata::Facts::signature`] (the signature
/// never relates non-rigid values across facts) while being pairwise
/// non-isomorphic — so all `(2m − 1)!!` matchings of a paired set land in
/// ONE signature group (10 395 classes for 12 paired tags). A linear
/// group scan makes admission quadratic in the group size; the exact-match
/// key index keeps it O(1) per probe. Canonical keys stay cheap: every
/// shared value's rigid neighbours give it a singleton refinement class.
pub fn collision_pairs(n: usize) -> Dcds {
    let n = n.max(2);
    let mut b = DcdsBuilder::new()
        .relation("Tick", 0)
        .relation("Seed", 1)
        .relation("Phase", 1)
        .relation("E", 2)
        .service("f", 1, ServiceKind::Deterministic)
        .init_fact("Tick", &[])
        .init_fact("Phase", &["p0"]);
    for k in 0..n {
        b = b.init_fact("Seed", &[&format!("a{k}")]);
    }
    // (i) A call result never collides with a rigid constant (tags or
    // phase tokens) — those successors would be junk classes.
    let mut fresh_only = String::from("forall X, V . E(X, V) -> ");
    for k in 0..n {
        fresh_only.push_str(&format!("V != 'a{k}' & "));
    }
    for k in 0..=n {
        fresh_only.push_str(&format!("V != 'p{k}'"));
        if k < n {
            fresh_only.push_str(" & ");
        }
    }
    b = b.fo_constraint(&fresh_only);
    // (ii) At most two tags share a result: pairs, never triples.
    b = b.fo_constraint("forall X, Y, Z, V . E(X, V) & E(Y, V) & E(Z, V) -> X = Y | X = Z | Y = Z");
    for k in 0..n {
        let next = k + 1;
        b = b.action(&format!("step{k}"), &[], move |a| {
            a.effect(
                "Tick()",
                &format!("Tick(), Phase('p{next}'), E('a{k}', f('a{k}'))"),
            );
            a.effect("Seed(X)", "Seed(X)");
            a.effect("E(X, Y)", "E(X, Y)");
        });
        b = b.rule(&format!("Phase('p{k}')"), &format!("step{k}"));
    }
    b.build().expect("collision pairs")
}

/// Parameters for random DCDS generation.
#[derive(Debug, Clone, Copy)]
pub struct RandomParams {
    /// Number of unary relations.
    pub relations: usize,
    /// Number of unary services.
    pub services: usize,
    /// Number of effects in the single action.
    pub effects: usize,
    /// Probability that an effect head is a service call (vs a copy).
    pub call_probability: f64,
    /// Deterministic or nondeterministic services.
    pub kind: ServiceKind,
}

impl Default for RandomParams {
    fn default() -> Self {
        RandomParams {
            relations: 4,
            services: 2,
            effects: 6,
            call_probability: 0.4,
            kind: ServiceKind::Deterministic,
        }
    }
}

/// Generate a pseudo-random DCDS (deterministic in the seed): unary
/// relations, effects copying or service-mapping between random pairs.
/// Used to benchmark the static analyses on varied graph shapes.
pub fn random_dcds(seed: u64, params: RandomParams) -> Dcds {
    let mut rng = SplitMix64::new(seed);
    let mut b = DcdsBuilder::new();
    for i in 0..params.relations {
        b = b.relation(&format!("R{i}"), 1);
    }
    for i in 0..params.services {
        b = b.service(&format!("f{i}"), 1, params.kind);
    }
    b = b.init_fact("R0", &["a"]);
    let relations = params.relations.max(1);
    let services = params.services;
    let effects = params.effects;
    let call_probability = params.call_probability;
    let mut specs: Vec<(String, String)> = Vec::new();
    for _ in 0..effects {
        let src = rng.gen_range(relations);
        let dst = rng.gen_range(relations);
        let body = format!("R{src}(X)");
        let head = if services > 0 && rng.gen_bool(call_probability) {
            let f = rng.gen_range(services);
            format!("R{dst}(f{f}(X))")
        } else {
            format!("R{dst}(X)")
        };
        specs.push((body, head));
    }
    b = b.action("step", &[], |a| {
        for (body, head) in &specs {
            a.effect(body, head);
        }
    });
    b.rule("true", "step").build().expect("random dcds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_analysis::{dataflow_graph, dependency_graph, gr_acyclicity, is_weakly_acyclic};

    #[test]
    fn chains_are_weakly_acyclic() {
        for n in [1, 3, 8] {
            assert!(is_weakly_acyclic(&dependency_graph(&copy_chain(n))));
            assert!(is_weakly_acyclic(&dependency_graph(&service_chain(n))));
        }
    }

    #[test]
    fn cycles_are_not_weakly_acyclic() {
        for n in [1, 2, 5] {
            assert!(!is_weakly_acyclic(&dependency_graph(&service_cycle(n))));
        }
    }

    #[test]
    fn service_chain_ranks_grow() {
        let dcds = service_chain(5);
        let dg = dependency_graph(&dcds);
        let ranks = dcds_analysis::position_ranks(&dg).unwrap();
        assert_eq!(ranks.iter().copied().max().unwrap(), 5);
    }

    #[test]
    fn accumulators_are_not_gr_acyclic() {
        for w in [1, 3] {
            let df = dataflow_graph(&accumulator(w));
            assert!(!gr_acyclicity::is_gr_acyclic(&df));
            assert!(!gr_acyclicity::is_gr_plus_acyclic(&df));
        }
    }

    #[test]
    fn flush_ladder_is_gr_plus_only() {
        let df = dataflow_graph(&flush_ladder());
        assert!(!gr_acyclicity::is_gr_acyclic(&df));
        assert!(gr_acyclicity::is_gr_plus_acyclic(&df));
    }

    #[test]
    fn flush_ladder_is_state_bounded_in_practice() {
        let res = dcds_abstraction::rcycl(&flush_ladder(), 2000);
        assert!(res.complete);
    }

    #[test]
    fn phased_rings_states_are_fixed_size() {
        let dcds = phased_rings(3);
        let res = dcds_abstraction::rcycl(&dcds, 3000);
        // Every state: 3 ring slots + Tick + Phase — flat regardless of
        // how deep exploration went.
        for s in res.ts.state_ids() {
            assert_eq!(res.ts.db(s).len(), 5);
        }
        // The product space dwarfs small budgets.
        assert!(!res.complete);
        assert_eq!(res.ts.num_states(), 3000);
    }

    #[test]
    fn collision_pairs_states_are_involutions() {
        // Level k of the abstraction holds exactly the involutions of the
        // first k tags (telephone numbers T(k)): each call result is fresh
        // or paired with one unpaired earlier result. For n = 5 the
        // saturated system has T(0) + ... + T(5) = 1+1+2+4+10+26 states.
        use dcds_abstraction::{det_abstraction_opts, AbsOptions, AbsOutcome, DedupStrategy};
        let dcds = collision_pairs(5);
        let with = |strategy| {
            let opts = AbsOptions {
                strategy,
                ..AbsOptions::default()
            };
            det_abstraction_opts(&dcds, 500, opts)
        };
        let keyed = with(DedupStrategy::CanonicalKey);
        assert_eq!(keyed.outcome, AbsOutcome::Complete);
        assert_eq!(keyed.ts.num_states(), 44);
        let pairwise = with(DedupStrategy::PairwiseIso);
        assert_eq!(pairwise.ts.num_states(), 44);
        assert_eq!(keyed.ts.num_edges(), pairwise.ts.num_edges());
    }

    #[test]
    fn random_is_deterministic_in_seed() {
        let p = RandomParams::default();
        let a = random_dcds(42, p);
        let b = random_dcds(42, p);
        assert_eq!(
            a.process.actions[0].effects.len(),
            b.process.actions[0].effects.len()
        );
        let dga = dependency_graph(&a);
        let dgb = dependency_graph(&b);
        assert_eq!(dga.graph.num_edges(), dgb.graph.num_edges());
    }
}
