//! Seeded spec generation and the hand-derived expected answers.
//!
//! Each workload is one synthetic family of `dcds_bench::synthetic`, written
//! out as spec text. The seed renames every relation, service, action and
//! constant and permutes the order of declarations, initial facts,
//! constraint conjuncts, actions, effects, head facts and rules, except
//! the orders [`collision`] fixes. None of that changes the system up to
//! isomorphism, so the verdicts and the deterministic state counts below do
//! not depend on the seed.

use dcds_bench::rng::SplitMix64;
use std::collections::{BTreeMap, BTreeSet};

/// The synthetic family a workload instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `synthetic::collision_pairs(n)`.
    Collision,
    /// `synthetic::service_chain(n)`.
    Chain,
    /// `synthetic::phased_rings(n)`.
    Rings,
}

/// Which `dcds` subcommand a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// `dcds abstract`.
    Abstract,
    /// `dcds check` with the explicit engine.
    Check,
    /// `dcds check --engine symbolic`.
    Symbolic,
}

/// What a correct job prints and returns, derived by hand (see the
/// workload docs in `README.md`), never taken from a `dcds` run.
#[derive(Debug, Clone, Copy)]
pub struct Expected {
    /// Process exit code.
    pub exit: i32,
    /// `verdict: true|false` line (`check` only).
    pub verdict: Option<bool>,
    /// Exact number of abstract states, where it is seed-invariant.
    pub states: Option<usize>,
    /// `complete = …` on the abstraction line (explicit engines only).
    pub complete: Option<bool>,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub family: Family,
    /// Family size parameter.
    pub size: usize,
    pub job: Job,
    /// `--max-states` for the explicit engines.
    pub max_states: usize,
    pub expected: Expected,
}

/// Σ_{k ≤ n} T(k), T the telephone numbers (involutions of k points):
/// T(0) = T(1) = 1, T(k) = T(k−1) + (k−1)·T(k−2). Level k of the
/// `collision_pairs` abstraction holds exactly the involutions of the first
/// k tags.
pub fn telephone_sum(n: usize) -> usize {
    let (mut prev, mut cur, mut sum) = (1usize, 1usize, 1usize);
    for k in 1..=n {
        if k > 1 {
            let next = cur + (k - 1) * prev;
            prev = cur;
            cur = next;
        }
        sum += cur;
    }
    sum
}

const COLLISION_N: usize = 9;
const CHAIN_N: usize = 16;
const CHAIN_BUDGET: usize = 12_000;
const RINGS_W: usize = 4;

/// The four workloads.
pub fn all() -> [Workload; 4] {
    [
        Workload {
            name: "det_collision",
            family: Family::Collision,
            size: COLLISION_N,
            job: Job::Check,
            max_states: 20_000,
            expected: Expected {
                exit: 0,
                verdict: Some(true),
                states: Some(telephone_sum(COLLISION_N)),
                complete: Some(true),
            },
        },
        Workload {
            name: "det_chain",
            family: Family::Chain,
            size: CHAIN_N,
            job: Job::Abstract,
            max_states: CHAIN_BUDGET,
            expected: Expected {
                exit: 0,
                verdict: None,
                states: Some(CHAIN_BUDGET),
                complete: Some(false),
            },
        },
        Workload {
            name: "rcycl_rings",
            family: Family::Rings,
            size: RINGS_W,
            job: Job::Check,
            max_states: 1_000_000,
            expected: Expected {
                exit: 0,
                verdict: Some(true),
                states: None,
                complete: Some(true),
            },
        },
        Workload {
            name: "symbolic_collision",
            family: Family::Collision,
            size: COLLISION_N,
            job: Job::Symbolic,
            max_states: 0,
            expected: Expected {
                exit: 0,
                verdict: Some(true),
                states: None,
                complete: None,
            },
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// A generated spec plus the formula of the workload (in the spec's names).
pub struct Generated {
    pub spec: String,
    pub formula: Option<String>,
}

/// Seeded renaming: logical name → fresh name of the right lexical class.
struct Namer {
    rng: SplitMix64,
    taken: BTreeSet<String>,
    map: BTreeMap<String, String>,
}

impl Namer {
    fn new(seed: u64) -> Self {
        Namer {
            rng: SplitMix64::new(seed ^ 0x5eed_0f5b_ec00),
            taken: BTreeSet::new(),
            map: BTreeMap::new(),
        }
    }

    /// Two letters and three digits, so no name can be a keyword.
    fn fresh(&mut self, upper: bool) -> String {
        loop {
            let mut s = String::new();
            for i in 0..2 {
                let c = (b'a' + self.rng.gen_range(26) as u8) as char;
                s.push(if i == 0 && upper {
                    c.to_ascii_uppercase()
                } else {
                    c
                });
            }
            s.push_str(&format!("{:03}", self.rng.gen_range(1000)));
            if self.taken.insert(s.clone()) {
                return s;
            }
        }
    }

    fn name(&mut self, kind: char, logical: &str) -> String {
        let key = format!("{kind}:{logical}");
        if let Some(n) = self.map.get(&key) {
            return n.clone();
        }
        let n = self.fresh(kind == 'r');
        self.map.insert(key, n.clone());
        n
    }

    /// Relation name.
    fn r(&mut self, logical: &str) -> String {
        self.name('r', logical)
    }

    /// Service name.
    fn s(&mut self, logical: &str) -> String {
        self.name('s', logical)
    }

    /// Action name.
    fn a(&mut self, logical: &str) -> String {
        self.name('a', logical)
    }

    /// Quoted constant.
    fn c(&mut self, logical: &str) -> String {
        format!("'{}'", self.name('c', logical))
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.rng.gen_range(i + 1);
            v.swap(i, j);
        }
    }
}

/// Spec text assembled from per-section item lists, each shuffled except
/// the constraints and, where `init_fixed`, the initial facts (see
/// [`collision`]).
struct SpecText {
    relations: Vec<String>,
    services: Vec<String>,
    init: Vec<String>,
    init_fixed: bool,
    asserts: Vec<String>,
    actions: Vec<(String, Vec<String>)>,
    rules: Vec<String>,
}

impl SpecText {
    fn render(mut self, nm: &mut Namer) -> String {
        nm.shuffle(&mut self.relations);
        nm.shuffle(&mut self.services);
        if !self.init_fixed {
            nm.shuffle(&mut self.init);
        }
        nm.shuffle(&mut self.actions);
        nm.shuffle(&mut self.rules);
        let mut out = String::from("schema {\n");
        for r in &self.relations {
            out.push_str(&format!("    {r};\n"));
        }
        out.push_str("}\nservices {\n");
        for s in &self.services {
            out.push_str(&format!("    {s};\n"));
        }
        out.push_str("}\ninit {\n");
        for f in &self.init {
            out.push_str(&format!("    {f};\n"));
        }
        out.push_str("}\n");
        for a in &self.asserts {
            out.push_str(&format!("assert {a};\n"));
        }
        for (name, mut effects) in self.actions {
            nm.shuffle(&mut effects);
            out.push_str(&format!("action {name}() {{\n"));
            for e in &effects {
                out.push_str(&format!("    {e};\n"));
            }
            out.push_str("}\n");
        }
        for r in &self.rules {
            out.push_str(&format!("rule {r};\n"));
        }
        out
    }
}

/// Generate the workload's spec and formula for `seed`.
pub fn generate(w: &Workload, seed: u64) -> Generated {
    let mut nm = Namer::new(seed);
    let (text, formula) = match w.family {
        Family::Collision => collision(&mut nm, w.size, w.job),
        Family::Chain => chain(&mut nm, w.size),
        Family::Rings => rings(&mut nm, w.size),
    };
    let spec = text.render(&mut nm);
    Generated { spec, formula }
}

fn collision(nm: &mut Namer, n: usize, job: Job) -> (SpecText, Option<String>) {
    let (tick, seed_rel, phase, e, f) = (
        nm.r("Tick"),
        nm.r("Seed"),
        nm.r("Phase"),
        nm.r("E"),
        nm.s("f"),
    );
    let tags: Vec<String> = (0..n).map(|k| nm.c(&format!("a{k}"))).collect();
    let phases: Vec<String> = (0..=n).map(|k| nm.c(&format!("p{k}"))).collect();
    let mut init = vec![format!("{tick}()"), format!("{phase}({})", phases[0])];
    init.extend(tags.iter().map(|t| format!("{seed_rel}({t})")));
    // (i) A call result never collides with a rigid constant.
    let mut fresh_only: Vec<String> = tags
        .iter()
        .chain(&phases)
        .map(|c| format!("V != {c}"))
        .collect();
    nm.shuffle(&mut fresh_only);
    // (ii) At most two tags share a result.
    let triple =
        format!("forall X, Y, Z, V . {e}(X, V) & {e}(Y, V) & {e}(Z, V) -> X = Y | X = Z | Y = Z");
    let fresh = format!("forall X, V . {e}(X, V) -> {}", fresh_only.join(" & "));
    // Constraints are checked in declaration order, and (i) rejects most
    // candidates cheaply: declaring it first halves the explicit engine's
    // wall time and cuts the symbolic engine's (its confirmation search)
    // by 2.4x. The order is therefore not shuffled but fixed per workload:
    // costly constraint first for `det_collision`, where constraint
    // evaluation is the layer under test, and the library family's order
    // for `symbolic_collision`, so the symbolic engine's own work leads.
    let asserts = match job {
        Job::Symbolic => vec![fresh, triple],
        _ => vec![triple, fresh],
    };
    let mut actions = Vec::new();
    let mut rules = Vec::new();
    for k in 0..n {
        let name = nm.a(&format!("step{k}"));
        let mut head = vec![
            format!("{tick}()"),
            format!("{phase}({})", phases[k + 1]),
            format!("{e}({t}, {f}({t}))", t = tags[k]),
        ];
        nm.shuffle(&mut head);
        actions.push((
            name.clone(),
            vec![
                format!("{tick}() ~> {}", head.join(", ")),
                format!("{seed_rel}(X) ~> {seed_rel}(X)"),
                format!("{e}(X, Y) ~> {e}(X, Y)"),
            ],
        ));
        rules.push(format!("{phase}({}) => {name}", phases[k]));
    }
    let last = &phases[n];
    let formula = match job {
        Job::Symbolic => format!(
            "mu Z . (exists X, Y, V . {e}(X, V) & {e}(Y, V) & X != Y & {phase}({last})) | <> Z"
        ),
        _ => format!("nu X . (mu Y . {phase}({last}) | <> Y) & [] X"),
    };
    let text = SpecText {
        relations: vec![
            format!("{tick} 0"),
            format!("{seed_rel} 1"),
            format!("{phase} 1"),
            format!("{e} 2"),
        ],
        services: vec![format!("{f} 1 det")],
        init,
        // The first occurrence of a constant fixes its value id, and the
        // order of the tags' ids moves the symbolic engine's wall time by up
        // to 1.5x (reversed step order is the fastest). `symbolic_collision`
        // therefore keeps the library family's order: tags in step order.
        init_fixed: job == Job::Symbolic,
        asserts,
        actions,
        rules,
    };
    (text, Some(formula))
}

fn chain(nm: &mut Namer, n: usize) -> (SpecText, Option<String>) {
    let rels: Vec<String> = (0..=n).map(|i| nm.r(&format!("R{i}"))).collect();
    let svcs: Vec<String> = (0..n).map(|i| nm.s(&format!("f{i}"))).collect();
    let a = nm.c("a");
    let mut effects: Vec<String> = (0..n)
        .map(|i| format!("{}(X) ~> {}({}(X))", rels[i], rels[i + 1], svcs[i]))
        .collect();
    effects.push(format!("{r}(X) ~> {r}(X)", r = rels[0]));
    let step = nm.a("step");
    let text = SpecText {
        relations: rels.iter().map(|r| format!("{r} 1")).collect(),
        services: svcs.iter().map(|s| format!("{s} 1 det")).collect(),
        init: vec![format!("{}({a})", rels[0])],
        init_fixed: false,
        asserts: Vec::new(),
        actions: vec![(step.clone(), effects)],
        rules: vec![format!("true => {step}")],
    };
    (text, None)
}

fn rings(nm: &mut Namer, w: usize) -> (SpecText, Option<String>) {
    let (tick, phase) = (nm.r("Tick"), nm.r("Phase"));
    let r: Vec<String> = (0..w).map(|i| nm.r(&format!("R{i}"))).collect();
    let q: Vec<String> = (0..w).map(|i| nm.r(&format!("Q{i}"))).collect();
    let f: Vec<String> = (0..w).map(|i| nm.s(&format!("f{i}"))).collect();
    let phases: Vec<String> = (0..w).map(|i| nm.c(&format!("p{i}"))).collect();
    let a = nm.c("a");
    let mut relations = vec![format!("{tick} 0"), format!("{phase} 1")];
    relations.extend(r.iter().chain(&q).map(|x| format!("{x} 1")));
    let mut init = vec![format!("{tick}()"), format!("{phase}({})", phases[0])];
    init.extend(r.iter().map(|x| format!("{x}({a})")));
    let mut actions = Vec::new();
    let mut rules = Vec::new();
    for i in 0..w {
        let name = nm.a(&format!("step{i}"));
        let mut effects = vec![
            format!("{tick}() ~> {tick}(), {phase}({})", phases[(i + 1) % w]),
            format!("{}(X) ~> {}({}(X))", r[i], q[i], f[i]),
            format!("{}(X) ~> {}(X)", q[i], r[i]),
        ];
        for j in (0..w).filter(|&j| j != i) {
            effects.push(format!("{x}(X) ~> {x}(X)", x = r[j]));
            effects.push(format!("{x}(X) ~> {x}(X)", x = q[j]));
        }
        actions.push((name.clone(), effects));
        rules.push(format!("{phase}({}) => {name}", phases[i]));
    }
    let formula = format!(
        "nu X . (forall V . live(V) & {r0}(V) -> (mu Y . {q0}(V) | <> (live(V) & Y))) & [] X",
        r0 = r[0],
        q0 = q[0]
    );
    let text = SpecText {
        relations,
        services: f.iter().map(|s| format!("{s} 1 nondet")).collect(),
        init,
        init_fixed: false,
        asserts: Vec::new(),
        actions,
        rules,
    };
    (text, Some(formula))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_abstraction::{det_abstraction, rcycl};
    use dcds_bench::synthetic;
    use dcds_core::parse_dcds;

    #[test]
    fn telephone_sums() {
        // 1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496
        assert_eq!(telephone_sum(5), 44);
        assert_eq!(telephone_sum(10), 13_232);
    }

    #[test]
    fn same_seed_same_spec_other_seed_other_names() {
        for w in all() {
            assert_eq!(generate(&w, 7).spec, generate(&w, 7).spec);
            assert_ne!(generate(&w, 7).spec, generate(&w, 8).spec);
        }
    }

    /// The generated text is the synthetic family up to renaming: small
    /// instances give the same abstraction sizes as the library constructors.
    #[test]
    fn generated_specs_match_the_library_families() {
        for seed in [1, 2, 3] {
            let gen = |family, size| {
                let w = Workload {
                    name: "t",
                    family,
                    size,
                    job: Job::Check,
                    max_states: 0,
                    expected: all()[0].expected,
                };
                parse_dcds(&generate(&w, seed).spec).expect("generated spec parses")
            };
            let c = det_abstraction(&gen(Family::Collision, 5), 500);
            let c_ref = det_abstraction(&synthetic::collision_pairs(5), 500);
            assert_eq!(c.ts.num_states(), telephone_sum(5));
            assert_eq!(c.ts.num_edges(), c_ref.ts.num_edges());
            let ch = det_abstraction(&gen(Family::Chain, 4), 5_000);
            let ch_ref = det_abstraction(&synthetic::service_chain(4), 5_000);
            assert_eq!(ch.ts.num_states(), ch_ref.ts.num_states());
            assert_eq!(ch.ts.num_edges(), ch_ref.ts.num_edges());
            let r = rcycl(&gen(Family::Rings, 2), 5_000);
            assert!(r.complete);
        }
    }
}
