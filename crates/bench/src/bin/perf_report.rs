//! Std-only timing harness for the abstraction engines and the staged
//! µ-calculus model-checking engine (no criterion).
//!
//! Times `det_abstraction` and RCYCL on the synthetic workload families
//! along two axes:
//!
//! * **thread scaling** — the phase-split parallel BFS at 1, 2, 4, 8
//!   workers (wall-clock; speedups only materialise on multicore
//!   hardware, so the report records `hardware_threads` next to them);
//! * **canonical-key fast path** — the signature-bucketed lazy index
//!   against the eager ablation that canonicalises every successor (the
//!   pre-fast-path cost model), at a fixed thread count.
//!
//! Then times the staged model checker (`dcds_mucalc::engine`) against the
//! naive Kleene evaluator (`dcds_mucalc::mc`, kept as the differential
//! oracle) on properties over real abstractions, at 1, 2, 4, 8 threads,
//! recording the query-extension cache hit rate and checking that both
//! evaluators agree on the full extension.
//!
//! Finally, times the compiled query plans (`dcds_folang::plan`) against
//! the nested-loop `eval_ucq` on join-heavy synthetic workloads and on the
//! queries of the travel-request system, at 1 thread, with and without the
//! per-state hash index — asserting bit-identical results.
//!
//! Last, drives the **compact state store** (arena + delta states +
//! copy-on-write indexes) to 500k/1M-state budgets — far beyond what the
//! owned-`Instance` engines are run at — recording states/sec, the
//! deterministic bytes-per-state high-water estimate, and the delta-share
//! ratio, and asserting (a) bytes/state grows less than 2× from 100k to
//! 500k states and (b) on an overlapping budget, every engine's output
//! (states, edges, pool, every counter) is the same at 2, 4 and 8 threads
//! as at 1.
//!
//! Writes `BENCH_abstraction.json`, `BENCH_mucalc.json`, `BENCH_query.json`
//! and `BENCH_scale.json` into the current directory so the perf
//! trajectory is tracked across commits without a benchmarking framework,
//! and prints the same numbers as tables. Every artifact embeds a
//! `metrics_snapshot` from an instrumented run of a representative
//! workload (for `BENCH_scale` that includes the `store.*` gauges).
//! `BENCH_mucalc.json` also carries a `symbolic` stanza: the backward
//! regression engine proving the `unbounded_safe` AG property, with the
//! full `SymCounters` (iterations, kept clauses, subsumption, peak
//! frontier) next to its wall time.
//!
//! Usage: `cargo run --release --bin perf_report [-- --reps N] [-- --scale K]
//! [-- --baseline DIR] [-- --smoke]`
//!
//! `--scale` multiplies the workload sizes (state budgets, tuple counts);
//! the committed baselines use `--scale 1`. The scale stage's budgets are
//! fixed (they *are* the scale axis).
//!
//! `--baseline DIR` turns the run into a **regression gate**: after
//! benchmarking, the current numbers are compared against the committed
//! `BENCH_*.json` in `DIR`, the per-metric deltas are written to
//! `BENCH_diff.json`, and the process exits nonzero when any timing or
//! throughput degrades past `--max-slowdown` (default 1.75x) or any size
//! metric grows past `--max-growth` (default 1.5x). Only keys present on
//! both sides are compared, and sub-10ms timings never gate (scheduler
//! noise). `--inject-slowdown F` is a self-test hook that degrades every
//! current timing/throughput by `F` before the comparison — CI uses it to
//! prove the gate actually trips. `--smoke` shrinks the run for CI: one
//! rep, the heavyweight scale stage skipped, and no `BENCH_*.json`
//! rewritten (only `BENCH_diff.json` is produced).

use dcds_abstraction::{
    det_abstraction_compact_opts, det_abstraction_compact_traced, det_abstraction_opts,
    rcycl_compact_opts, rcycl_compact_traced, rcycl_opts, AbsOptions, DedupStrategy,
};
use dcds_bench::report::{self, Kind, Thresholds};
use dcds_bench::{examples, queries, synthetic, travel};
use dcds_core::{parse_dcds, Dcds, EngineCounters, Ts};
use dcds_folang::{eval_ucq, CompiledPlan, EvalCtx, Formula, QTerm, Ucq};
use dcds_mucalc::mc::{eval, Valuation};
use dcds_mucalc::{check_traced, eval_with_opts, parse_mu, sugar, McCounters, McOptions, Mu};
use dcds_obs::{Obs, ObsConfig};
use dcds_reldata::{Instance, InstanceIndex};
use dcds_symbolic::{check_safety, SymOptions, SymVerdict};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Best-of-`reps` wall-clock seconds for `f` (best-of suppresses
/// scheduler noise better than means on shared machines).
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        result = Some(r);
    }
    (best, result.unwrap())
}

struct ThreadRun {
    threads: usize,
    secs: f64,
    states: usize,
    edges: usize,
}

struct Workload {
    name: String,
    engine: &'static str,
    runs: Vec<ThreadRun>,
    /// Fraction of dedup probes resolved by the signature fast path alone.
    sig_hit_rate: Option<f64>,
    /// eager-ablation seconds at 1 thread (det workloads only).
    eager_secs: Option<f64>,
    /// lazy seconds at 1 thread (denominator partner of `eager_secs`).
    lazy_secs: Option<f64>,
    /// Engine counters (thread-independent; taken from the last run).
    counters: EngineCounters,
}

fn bench_det(name: String, dcds: &Dcds, max_states: usize, reps: usize) -> Workload {
    let mut runs = Vec::new();
    let mut sig_hit_rate = None;
    let mut counters = EngineCounters::default();
    for threads in THREAD_COUNTS {
        let (secs, abs) = time_best(reps, || {
            det_abstraction_opts(
                dcds,
                max_states,
                AbsOptions {
                    strategy: DedupStrategy::CanonicalKey,
                    threads,
                    ..AbsOptions::default()
                },
            )
        });
        sig_hit_rate = abs.counters.sig_hit_rate();
        counters = abs.counters;
        runs.push(ThreadRun {
            threads,
            secs,
            states: abs.ts.num_states(),
            edges: abs.ts.num_edges(),
        });
    }
    let (eager_secs, _) = time_best(reps, || {
        det_abstraction_opts(
            dcds,
            max_states,
            AbsOptions {
                strategy: DedupStrategy::CanonicalKey,
                threads: 1,
                eager_keys: true,
                ..AbsOptions::default()
            },
        )
    });
    Workload {
        name,
        engine: "det_abstraction",
        lazy_secs: Some(runs[0].secs),
        runs,
        sig_hit_rate,
        eager_secs: Some(eager_secs),
        counters,
    }
}

fn bench_rcycl(name: String, dcds: &Dcds, max_states: usize, reps: usize) -> Workload {
    let mut runs = Vec::new();
    let mut counters = EngineCounters::default();
    for threads in THREAD_COUNTS {
        let (secs, res) = time_best(reps, || rcycl_opts(dcds, max_states, threads));
        counters = res.counters;
        runs.push(ThreadRun {
            threads,
            secs,
            states: res.ts.num_states(),
            edges: res.ts.num_edges(),
        });
    }
    Workload {
        name,
        engine: "rcycl",
        runs,
        sig_hit_rate: None,
        eager_secs: None,
        lazy_secs: None,
        counters,
    }
}

struct McThreadRun {
    threads: usize,
    secs: f64,
}

struct McWorkload {
    name: &'static str,
    property: &'static str,
    states: usize,
    /// Naive Kleene evaluator (the differential oracle), 1 thread.
    naive_secs: f64,
    /// Staged engine at each thread count.
    runs: Vec<McThreadRun>,
    counters: McCounters,
    holds: bool,
}

/// Time the naive evaluator vs the staged engine on one (system, property)
/// pair, asserting extension-level agreement at every thread count.
fn bench_mc(
    name: &'static str,
    property: &'static str,
    ts: &Ts,
    phi: &Mu,
    reps: usize,
) -> McWorkload {
    let (naive_secs, oracle) = time_best(reps, || eval(phi, ts, &mut Valuation::default()));
    let mut runs = Vec::new();
    let mut counters = McCounters::default();
    for threads in THREAD_COUNTS {
        let (secs, (ext, c)) = time_best(reps, || {
            eval_with_opts(phi, ts, &mut Valuation::default(), McOptions { threads })
        });
        assert_eq!(ext, oracle, "engine disagrees with naive oracle on {name}");
        counters = c;
        runs.push(McThreadRun { threads, secs });
    }
    McWorkload {
        name,
        property,
        states: ts.num_states(),
        naive_secs,
        runs,
        counters,
        holds: oracle.contains(&ts.initial()),
    }
}

fn mc_workloads(reps: usize) -> Vec<McWorkload> {
    let mut out = Vec::new();

    // Example 5.1 (nondeterministic) — RCYCL pruning, a µLP safety property.
    let e51 = examples::example_5_1();
    let pruning = rcycl_opts(&e51, 100, 1);
    assert!(pruning.complete);
    let r = e51.data.schema.rel_id("R").unwrap();
    let q = e51.data.schema.rel_id("Q").unwrap();
    let phi = sugar::ag(Mu::exists(
        "X",
        Mu::live("X").and(
            Mu::Query(Formula::Atom(r, vec![QTerm::var("X")]))
                .or(Mu::Query(Formula::Atom(q, vec![QTerm::var("X")]))),
        ),
    ));
    out.push(bench_mc(
        "example_5_1 via RCYCL",
        "AG exists x. live(x) & (R(x) | Q(x))",
        &pruning.ts,
        &phi,
        reps,
    ));

    // service_cycle(6) (deterministic) — a µLP reachability property.
    let cyc = synthetic::service_cycle(6);
    let abs = det_abstraction_opts(&cyc, 1500, AbsOptions::default());
    let last = cyc.data.schema.rel_id("R5").unwrap();
    let phi = sugar::ef(Mu::exists(
        "X",
        Mu::live("X").and(Mu::Query(Formula::Atom(last, vec![QTerm::var("X")]))),
    ));
    out.push(bench_mc(
        "service_cycle(6) via det abstraction",
        "EF exists x. live(x) & R5(x)",
        &abs.ts,
        &phi,
        reps,
    ));

    // Travel request system (Appendix E) — RCYCL, the paper's safety
    // property "no confirmation without travel data".
    let req = travel::request_system_small();
    let res = rcycl_opts(&req, 5000, 1);
    assert!(res.complete);
    let status = req.data.schema.rel_id("Status").unwrap();
    let travel_rel = req.data.schema.rel_id("Travel").unwrap();
    let conf = req.data.pool.get("requestConfirmed").unwrap();
    let confirmed = Mu::Query(Formula::Atom(status, vec![QTerm::Const(conf)]));
    let some_travel = Mu::exists(
        "N",
        Mu::live("N").and(Mu::Query(Formula::Atom(travel_rel, vec![QTerm::var("N")]))),
    );
    let phi = sugar::ag(confirmed.and(some_travel.not()).not());
    out.push(bench_mc(
        "travel request (small) via RCYCL",
        "AG !(confirmed & no Travel tuple)",
        &res.ts,
        &phi,
        reps,
    ));

    out
}

struct QueryRun {
    name: String,
    shape: String,
    /// Total tuples across the instances evaluated.
    rows: usize,
    /// Total result rows (identical across the three evaluators).
    results: usize,
    /// Nested-loop `eval_ucq`, 1 thread.
    nested_secs: f64,
    /// Compiled plan, relation scans only.
    plan_scan_secs: f64,
    /// Compiled plan through the prebuilt hash index.
    plan_indexed_secs: f64,
    /// One-off index construction (amortised across a state's evaluations
    /// in the engines; reported separately here).
    index_build_secs: f64,
}

/// Time one (query, instances) pair through the three evaluators, asserting
/// bit-identical result sets.
fn bench_query_set(
    name: String,
    shape: String,
    pairs: &[(Ucq, CompiledPlan)],
    instances: &[Instance],
    reps: usize,
) -> QueryRun {
    let empty = dcds_folang::Assignment::new();
    let (nested_secs, naive) = time_best(reps, || {
        let mut out = Vec::new();
        for inst in instances {
            for (ucq, _) in pairs {
                out.push(eval_ucq(ucq, inst));
            }
        }
        out
    });
    let (plan_scan_secs, scanned) = time_best(reps, || {
        let mut out = Vec::new();
        for inst in instances {
            for (_, plan) in pairs {
                out.push(plan.eval(&EvalCtx::scan(inst), &empty));
            }
        }
        out
    });
    let paths: BTreeSet<_> = pairs.iter().flat_map(|(_, p)| p.access_paths()).collect();
    let (index_build_secs, indexes) = time_best(reps, || {
        instances
            .iter()
            .map(|inst| InstanceIndex::build(inst, paths.iter().cloned()))
            .collect::<Vec<_>>()
    });
    let (plan_indexed_secs, indexed) = time_best(reps, || {
        let mut out = Vec::new();
        for (inst, idx) in instances.iter().zip(&indexes) {
            for (_, plan) in pairs {
                out.push(plan.eval(&EvalCtx::with_index(inst, idx), &empty));
            }
        }
        out
    });
    assert_eq!(naive, scanned, "{name}: scan plan diverged from eval_ucq");
    assert_eq!(
        naive, indexed,
        "{name}: indexed plan diverged from eval_ucq"
    );
    QueryRun {
        name,
        shape,
        rows: instances.iter().map(Instance::len).sum(),
        results: naive.iter().map(BTreeSet::len).sum(),
        nested_secs,
        plan_scan_secs,
        plan_indexed_secs,
        index_build_secs,
    }
}

fn query_runs(reps: usize, scale: usize) -> Vec<QueryRun> {
    let mut out = Vec::new();
    for w in queries::standard(scale) {
        let plan = CompiledPlan::compile(&w.query, &BTreeSet::new())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        out.push(bench_query_set(
            w.name.to_string(),
            w.shape.clone(),
            &[(w.query, plan)],
            std::slice::from_ref(&w.instance),
            reps,
        ));
    }

    // The travel-request system (Appendix E): every rule condition and
    // effect q+ in the compilable fragment, evaluated over every state of
    // the RCYCL abstraction — the exact queries the transition hot path
    // runs, on the instances it runs them against.
    let req = travel::request_system_small();
    let res = rcycl_opts(&req, 5000, 1);
    assert!(res.complete);
    let instances: Vec<Instance> = res.ts.state_ids().map(|s| res.ts.db(s).clone()).collect();
    let mut ucqs: Vec<Ucq> = req
        .process
        .rules
        .iter()
        .filter_map(|r| Ucq::from_formula(&r.condition))
        .collect();
    for action in &req.process.actions {
        for effect in &action.effects {
            ucqs.push(effect.qplus.clone());
        }
    }
    let total = ucqs.len();
    let pairs: Vec<(Ucq, CompiledPlan)> = ucqs
        .into_iter()
        .filter_map(|u| {
            CompiledPlan::compile(&u, &BTreeSet::new())
                .ok()
                .map(|p| (u, p))
        })
        .collect();
    out.push(bench_query_set(
        "travel_request_queries".into(),
        format!(
            "{}/{} rule-condition + effect-q+ queries over {} RCYCL states",
            pairs.len(),
            total,
            instances.len()
        ),
        &pairs,
        &instances,
        reps,
    ));
    out
}

/// One compact-engine run at a fixed state budget.
struct ScaleRun {
    budget: usize,
    secs: f64,
    states: usize,
    edges: usize,
    /// Deterministic store heap estimate (arena + nodes + dedup) —
    /// the bytes-per-state high-water mark is `bytes / states`.
    bytes: usize,
    facts_interned: usize,
    delta_share: f64,
    complete: bool,
    /// Dedup probe work: exact canonical keys materialised.
    canon_keys_computed: u64,
    /// Canonicalization search: vertex orders fully encoded by the
    /// branch-and-bound labeling (1 per key on symmetric classes).
    canon_orders_enumerated: u64,
    /// Canonicalization search: permutation subtrees cut on prefix
    /// divergence before reaching a full order.
    canon_prune_cutoffs: u64,
    /// Dedup probe work: probes answered by an empty signature group.
    sig_filter_skips: u64,
    /// Dedup probe work: backtracking isomorphism checks actually run.
    iso_checks_performed: u64,
}

impl ScaleRun {
    fn states_per_sec(&self) -> f64 {
        self.states as f64 / self.secs
    }
    fn bytes_per_state(&self) -> f64 {
        self.bytes as f64 / self.states.max(1) as f64
    }
}

struct ScaleWorkload {
    name: String,
    engine: &'static str,
    runs: Vec<ScaleRun>,
    /// Budget pair `(lo, hi)` the regression gates compare.
    gate_budgets: (usize, usize),
    /// bytes/state at the `hi` budget over bytes/state at the `lo` budget
    /// — the flat-memory check (must stay below 2.0).
    bytes_growth: f64,
    /// states/s at the `hi` budget over states/s at the `lo` budget — the
    /// dedup-throughput check (det engines must stay at or above 0.5; a
    /// linear class-index scan collapses this towards `lo / hi`).
    throughput_ratio: f64,
    /// Budget at which the output was asserted bit-identical at every
    /// thread count.
    overlap_budget: usize,
}

fn scale_run_det(dcds: &Dcds, budget: usize) -> ScaleRun {
    let t0 = Instant::now();
    let abs = det_abstraction_compact_opts(
        dcds,
        budget,
        AbsOptions {
            threads: 1,
            ..AbsOptions::default()
        },
    );
    let stats = abs.ts.store_stats();
    ScaleRun {
        budget,
        secs: t0.elapsed().as_secs_f64(),
        states: abs.ts.num_states(),
        edges: abs.ts.num_edges(),
        bytes: stats.bytes,
        facts_interned: stats.facts_interned,
        delta_share: stats.delta_share(),
        complete: abs.outcome == dcds_abstraction::AbsOutcome::Complete,
        canon_keys_computed: abs.counters.canon_keys_computed,
        canon_orders_enumerated: abs.counters.canon_orders_enumerated,
        canon_prune_cutoffs: abs.counters.canon_prune_cutoffs,
        sig_filter_skips: abs.counters.sig_filter_skips,
        iso_checks_performed: abs.counters.iso_checks_performed,
    }
}

fn scale_run_rcycl(dcds: &Dcds, budget: usize) -> ScaleRun {
    let t0 = Instant::now();
    let res = rcycl_compact_opts(dcds, budget, 1);
    let stats = res.ts.store_stats();
    ScaleRun {
        budget,
        secs: t0.elapsed().as_secs_f64(),
        states: res.ts.num_states(),
        edges: res.ts.num_edges(),
        bytes: stats.bytes,
        facts_interned: stats.facts_interned,
        delta_share: stats.delta_share(),
        complete: res.complete,
        canon_keys_computed: res.counters.canon_keys_computed,
        canon_orders_enumerated: res.counters.canon_orders_enumerated,
        canon_prune_cutoffs: res.counters.canon_prune_cutoffs,
        sig_filter_skips: res.counters.sig_filter_skips,
        iso_checks_performed: res.counters.iso_checks_performed,
    }
}

/// Ratio of `measure` between the workload's two gate budgets
/// (`hi` over `lo`); the regression gates compare against 1.
fn gate_ratio(runs: &[ScaleRun], budgets: (usize, usize), measure: fn(&ScaleRun) -> f64) -> f64 {
    let at = |budget: usize| {
        runs.iter()
            .find(|r| r.budget == budget)
            .map(measure)
            .expect("scale stage must include both gate budgets")
    };
    at(budgets.1) / at(budgets.0)
}

/// Assert the det abstraction's output — states, edges, outcome, minted
/// pool, and every counter (including canonical keys computed) — is the
/// same at every thread count as at one thread.
fn assert_det_thread_invariant(dcds: &Dcds, budget: usize) {
    let run = |threads| {
        let opts = AbsOptions {
            threads,
            ..AbsOptions::default()
        };
        det_abstraction_opts(dcds, budget, opts)
    };
    let base = run(1);
    for threads in &THREAD_COUNTS[1..] {
        let abs = run(*threads);
        assert_eq!(abs.ts, base.ts, "det diverged at {threads} threads");
        assert_eq!(abs.outcome, base.outcome);
        assert_eq!(abs.pool.len(), base.pool.len());
        assert_eq!(
            abs.counters, base.counters,
            "det counters diverged at {threads} threads"
        );
    }
}

/// Assert RCYCL's output — pruning, completeness, `UsedValues`, triples,
/// minted pool, and every counter — is the same at every thread count as
/// at one thread.
fn assert_rcycl_thread_invariant(dcds: &Dcds, budget: usize) {
    let base = rcycl_opts(dcds, budget, 1);
    for threads in &THREAD_COUNTS[1..] {
        let run = rcycl_opts(dcds, budget, *threads);
        assert_eq!(run.ts, base.ts, "rcycl diverged at {threads} threads");
        assert_eq!(run.complete, base.complete);
        assert_eq!(run.used_values, base.used_values);
        assert_eq!(run.triples_processed, base.triples_processed);
        assert_eq!(run.pool.len(), base.pool.len());
        assert_eq!(
            run.counters, base.counters,
            "rcycl counters diverged at {threads} threads"
        );
    }
}

fn scale_workloads() -> Vec<ScaleWorkload> {
    // Both families hold the state *size* flat no matter how far
    // exploration runs (bounded instances, bounded service-call maps), so
    // bytes/state isolates the store's own per-state overhead.
    let det_overlap = 10_000;
    let chain = synthetic::service_chain(16);
    assert_det_thread_invariant(&chain, det_overlap);
    let det = ScaleWorkload {
        name: "service_chain(16)".into(),
        engine: "det_abstraction_compact",
        runs: vec![
            scale_run_det(&chain, 100_000),
            scale_run_det(&chain, 500_000),
            // Stretch budget: one million det states.
            scale_run_det(&chain, 1_000_000),
        ],
        gate_budgets: (100_000, 500_000),
        bytes_growth: 0.0,
        throughput_ratio: 0.0,
        overlap_budget: det_overlap,
    };

    // Collision-heavy det family: whole levels share one signature, so a
    // linear signature-bucket scan is quadratic here; the keyed class
    // index keeps it linear. Budgets used to stop at 12k because the
    // quantified triple-collision constraint was evaluated by |adom|^4
    // enumeration (~19 states/s, 700 s per rep); with guided-join
    // constraint evaluation and the pruned canonical search the family
    // runs around 1000 states/s, so the stage now drives enough states
    // for the throughput and bytes gates to measure the dedup indexes
    // rather than successor generation.
    let coll_overlap = 2_000;
    let coll = synthetic::collision_pairs(12);
    assert_det_thread_invariant(&coll, coll_overlap);
    let collisions = ScaleWorkload {
        name: "collision_pairs(12)".into(),
        engine: "det_abstraction_compact",
        runs: vec![scale_run_det(&coll, 30_000), scale_run_det(&coll, 60_000)],
        gate_budgets: (30_000, 60_000),
        bytes_growth: 0.0,
        throughput_ratio: 0.0,
        overlap_budget: coll_overlap,
    };

    let rcycl_overlap = 20_000;
    let rings = synthetic::phased_rings(5);
    assert_rcycl_thread_invariant(&rings, rcycl_overlap);
    let rcycl = ScaleWorkload {
        name: "phased_rings(5)".into(),
        engine: "rcycl_compact",
        runs: vec![
            scale_run_rcycl(&rings, 100_000),
            scale_run_rcycl(&rings, 500_000),
            // Stretch budget: one million states.
            scale_run_rcycl(&rings, 1_000_000),
        ],
        gate_budgets: (100_000, 500_000),
        bytes_growth: 0.0,
        throughput_ratio: 0.0,
        overlap_budget: rcycl_overlap,
    };

    let mut out = vec![det, collisions, rcycl];
    for w in &mut out {
        let (lo, hi) = w.gate_budgets;
        w.bytes_growth = gate_ratio(&w.runs, w.gate_budgets, ScaleRun::bytes_per_state);
        assert!(
            w.bytes_growth < 2.0,
            "{}: bytes/state grew {:.2}x from {lo} to {hi} states — the store is no longer flat",
            w.name,
            w.bytes_growth
        );
        w.throughput_ratio = gate_ratio(&w.runs, w.gate_budgets, ScaleRun::states_per_sec);
        // Dedup-throughput regression gate: with the exact-match class
        // index, det states/s must not collapse as the pool grows.
        if w.engine.starts_with("det") {
            assert!(
                w.throughput_ratio >= 0.5,
                "{}: det throughput fell to {:.2}x from {lo} to {hi} states — \
                 dedup is super-linear again",
                w.name,
                w.throughput_ratio
            );
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".into()
    }
}

fn arg_usize(name: &str, default: usize) -> usize {
    std::env::args()
        .skip_while(|a| a != name)
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn arg_str(name: &str) -> Option<String> {
    std::env::args().skip_while(|a| a != name).nth(1)
}

fn arg_f64(name: &str, default: f64) -> f64 {
    arg_str(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn has_arg(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// The symbolic-engine stanza of `BENCH_mucalc.json`: prove the
/// `unbounded_safe` AG property (undecidable for the explicit engines —
/// the spec is run-unbounded) by backward regression, and report the wall
/// time next to the full `SymCounters`.
fn bench_symbolic(reps: usize) -> (f64, dcds_symbolic::SymCounters) {
    let src = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/unbounded_safe.dcds"
    ));
    let dcds = parse_dcds(src).expect("unbounded_safe.dcds parses");
    let mut schema = dcds.data.schema.clone();
    let mut pool = dcds.data.pool.clone();
    let phi = parse_mu(
        "nu Z . (forall Y . Flag(Y) -> Y = 'ok') & [] Z",
        &mut schema,
        &mut pool,
    )
    .expect("safety property parses");
    let (secs, run) = time_best(reps, || {
        check_safety(&dcds, &phi, &SymOptions::default()).expect("symbolic run succeeds")
    });
    assert!(
        matches!(run.verdict, SymVerdict::Holds(_)),
        "unbounded_safe must verify symbolically"
    );
    (secs, run.counters)
}

/// Absolute states/s floor for `collision_pairs` in the scale stage — the
/// workload the keyed dedup + guided constraint evaluation exist to fix.
/// The enumerate-all-orders kernel over |adom|^4 constraint checks managed
/// ~19 states/s; the current engine runs around 1000 states/s on one core.
/// The floor sits far under the healthy figure to absorb slow runners, but
/// any structural regression toward the old quadratic behaviour lands well
/// below it regardless of what the baseline artifact recorded.
const COLLISION_FLOOR_STATES_PER_SEC: f64 = 200.0;

/// Compare the current artifacts against the baselines in `dir`, write
/// `BENCH_diff.json`, and exit nonzero on a gated regression.
fn gate_against_baseline(
    dir: &str,
    artifacts: &[(&str, String)],
    thresholds: Thresholds,
    inject: Option<f64>,
) {
    let mut base_metrics = std::collections::BTreeMap::new();
    let mut cur_metrics = std::collections::BTreeMap::new();
    for (name, current_json) in artifacts {
        let path = format!("{dir}/{name}");
        let src = match std::fs::read_to_string(&path) {
            Ok(src) => src,
            Err(e) => {
                eprintln!("perf gate: baseline {path} unreadable ({e}) — skipped");
                continue;
            }
        };
        match report::parse(&src) {
            Ok(doc) => base_metrics.extend(report::extract(&doc)),
            Err(e) => {
                eprintln!("perf gate: baseline {path} is not valid JSON: {e}");
                std::process::exit(2);
            }
        }
        let doc = report::parse(current_json).expect("generated artifact is valid JSON");
        cur_metrics.extend(report::extract(&doc));
    }
    if let Some(f) = inject {
        for m in cur_metrics.values_mut() {
            match m.kind {
                Kind::Time => m.value *= f,
                Kind::Throughput => m.value /= f,
                Kind::Size => {}
            }
        }
        eprintln!("perf gate: injected a {f:.2}x slowdown into every current timing/throughput");
    }
    let deltas = report::diff(&base_metrics, &cur_metrics, thresholds);
    let diff_json = report::diff_json(&deltas, thresholds, inject);
    std::fs::write("BENCH_diff.json", &diff_json).expect("write BENCH_diff.json");

    println!(
        "\nperf gate vs {dir}  (slowdown <= {:.2}x, growth <= {:.2}x; sub-10ms timings ungated)",
        thresholds.max_slowdown, thresholds.max_growth
    );
    let mut regressions = 0usize;
    for d in &deltas {
        let verdict = if d.regressed {
            regressions += 1;
            "REGRESSED"
        } else if !d.gated {
            "noise"
        } else {
            "ok"
        };
        println!(
            "  {:<60}  base {:>12.4}  now {:>12.4}  x{:<6.2} {}",
            d.key, d.baseline, d.current, d.factor, verdict
        );
    }
    println!(
        "  {} metrics compared, {} regression(s); wrote BENCH_diff.json",
        deltas.len(),
        regressions
    );
    // Baseline-independent floor: collision_pairs throughput must clear an
    // absolute minimum even if the baseline artifact predates the keyed
    // kernel (a relative gate against a 19 states/s baseline passes
    // anything).
    for (key, m) in &cur_metrics {
        if key.starts_with("scale/collision_pairs") && key.ends_with("/states_per_sec") {
            let ok = m.value >= COLLISION_FLOOR_STATES_PER_SEC;
            println!(
                "  {:<60}  floor {:>12.4}  now {:>12.4}         {}",
                key,
                COLLISION_FLOOR_STATES_PER_SEC,
                m.value,
                if ok { "ok" } else { "REGRESSED" }
            );
            if !ok {
                regressions += 1;
            }
        }
    }
    if regressions > 0 {
        eprintln!("perf gate: FAILED with {regressions} regression(s)");
        std::process::exit(1);
    }
}

fn main() {
    let smoke = has_arg("--smoke");
    let reps = if smoke { 1 } else { arg_usize("--reps", 3) };
    let scale = arg_usize("--scale", 1).max(1);
    let baseline_dir = arg_str("--baseline");
    let thresholds = Thresholds {
        max_slowdown: arg_f64("--max-slowdown", 1.75),
        max_growth: arg_f64("--max-growth", 1.5),
    };
    let inject = arg_str("--inject-slowdown").and_then(|v| v.parse::<f64>().ok());
    let mut artifacts: Vec<(&str, String)> = Vec::new();
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // State budgets sized so the 1-thread runs take long enough for thread
    // scaling to be visible above the phase-split overhead (the original
    // ~10 ms budgets measured only overhead); `--scale` multiplies them.
    let rings_budget = 2000 * scale;
    let chain_budget = 1200 * scale;
    let cycle_budget = 5000 * scale;
    let ladder_budget = 8000 * scale;
    let acc_budget = 300 * scale;
    let workloads = vec![
        bench_det(
            format!("parallel_rings(3), max_states={rings_budget}"),
            &synthetic::parallel_rings(3),
            rings_budget,
            reps,
        ),
        bench_det(
            format!("service_chain(10), max_states={chain_budget}"),
            &synthetic::service_chain(10),
            chain_budget,
            reps,
        ),
        bench_det(
            format!("service_cycle(6), max_states={cycle_budget}"),
            &synthetic::service_cycle(6),
            cycle_budget,
            reps,
        ),
        bench_rcycl(
            format!("flush_ladder, max_states={ladder_budget}"),
            &synthetic::flush_ladder(),
            ladder_budget,
            reps,
        ),
        bench_rcycl(
            format!("accumulator(3), max_states={acc_budget}"),
            &synthetic::accumulator(3),
            acc_budget,
            reps,
        ),
    ];

    // Human-readable table.
    println!("abstraction perf report  (hardware_threads = {hardware_threads}, best of {reps})");
    if hardware_threads == 1 {
        println!(
            "  NOTE: single hardware thread — the speedup column is scheduler \
             noise, not thread scaling, and is excluded from regression gates"
        );
    }
    for w in &workloads {
        let base = w.runs[0].secs;
        println!("\n{} — {}", w.engine, w.name);
        println!(
            "  {:>7}  {:>10}  {:>8}  {:>7}  {:>7}",
            "threads", "secs", "speedup", "states", "edges"
        );
        for r in &w.runs {
            println!(
                "  {:>7}  {:>10.4}  {:>7.2}x  {:>7}  {:>7}",
                r.threads,
                r.secs,
                base / r.secs,
                r.states,
                r.edges
            );
        }
        if let Some(rate) = w.sig_hit_rate {
            println!(
                "  signature fast path: {:.1}% of dedup probes resolved without canonicalisation",
                rate * 100.0
            );
        }
        if let (Some(eager), Some(lazy)) = (w.eager_secs, w.lazy_secs) {
            println!(
                "  canonical-key fast path: lazy {lazy:.4}s vs eager {eager:.4}s ({:.2}x) at 1 thread",
                eager / lazy
            );
        }
    }

    // One instrumented run so the artifact carries a full metrics snapshot
    // (registry counters, gauges, and non-timing histograms) next to the
    // wall-clock numbers.
    let obs = Obs::enabled(ObsConfig::default());
    let _ = det_abstraction_compact_traced(
        &synthetic::service_cycle(6),
        1500,
        AbsOptions::default(),
        &obs,
    );
    let snapshot = obs.finish().expect("obs enabled").metrics;

    // JSON artifact.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"abstraction-parallel\",");
    let _ = writeln!(json, "  \"hardware_threads\": {hardware_threads},");
    // On a single-core runner the speedup tables measure scheduler noise;
    // `report::extract` keys off `hardware_threads` to keep `speedup_vs_1`
    // out of the regression gates in that case.
    let _ = writeln!(
        json,
        "  \"speedup_vs_1_is_noise\": {},",
        hardware_threads == 1
    );
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"workloads\": [");
    for (wi, w) in workloads.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", w.name);
        let _ = writeln!(json, "      \"engine\": \"{}\",", w.engine);
        let _ = writeln!(json, "      \"runs\": [");
        for (ri, r) in w.runs.iter().enumerate() {
            let _ = writeln!(
                json,
                "        {{\"threads\": {}, \"secs\": {}, \"speedup_vs_1\": {}, \"states\": {}, \"edges\": {}}}{}",
                r.threads,
                json_f64(r.secs),
                json_f64(w.runs[0].secs / r.secs),
                r.states,
                r.edges,
                if ri + 1 < w.runs.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "      ],");
        let _ = writeln!(
            json,
            "      \"sig_fast_path_hit_rate\": {},",
            w.sig_hit_rate
                .map(json_f64)
                .unwrap_or_else(|| "null".into())
        );
        let _ = writeln!(
            json,
            "      \"eager_keys_secs_1_thread\": {},",
            w.eager_secs.map(json_f64).unwrap_or_else(|| "null".into())
        );
        let _ = writeln!(
            json,
            "      \"fast_path_speedup_1_thread\": {},",
            match (w.eager_secs, w.lazy_secs) {
                (Some(e), Some(l)) => json_f64(e / l),
                _ => "null".into(),
            }
        );
        let _ = writeln!(json, "      \"counters\": {}", w.counters.to_json());
        let _ = writeln!(
            json,
            "    }}{}",
            if wi + 1 < workloads.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"metrics_snapshot\": {}", snapshot.to_json());
    json.push_str("}\n");
    if !smoke {
        std::fs::write("BENCH_abstraction.json", &json).expect("write BENCH_abstraction.json");
        println!("\nwrote BENCH_abstraction.json");
    }
    artifacts.push(("BENCH_abstraction.json", json));

    // ---- µ-calculus model-checking engine ----
    let mc_loads = mc_workloads(reps);
    println!("\nmucalc perf report  (hardware_threads = {hardware_threads}, best of {reps})");
    for w in &mc_loads {
        println!(
            "\n{} — {} ({} states, holds = {})",
            w.name, w.property, w.states, w.holds
        );
        println!("  naive oracle: {:>10.4}s", w.naive_secs);
        println!("  {:>7}  {:>10}  {:>12}", "threads", "secs", "vs naive");
        for r in &w.runs {
            println!(
                "  {:>7}  {:>10.4}  {:>11.2}x",
                r.threads,
                r.secs,
                w.naive_secs / r.secs
            );
        }
        if let Some(rate) = w.counters.cache_hit_rate() {
            println!(
                "  query-extension cache: {:.1}% hit rate ({} hits / {} misses), \
                 {} fixpoint iterations",
                rate * 100.0,
                w.counters.cache_hits,
                w.counters.cache_misses,
                w.counters.fixpoint_iterations
            );
        }
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"mucalc-staged-engine\",");
    let _ = writeln!(json, "  \"hardware_threads\": {hardware_threads},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"workloads\": [");
    for (wi, w) in mc_loads.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", w.name);
        let _ = writeln!(
            json,
            "      \"property\": \"{}\",",
            w.property.replace('"', "'")
        );
        let _ = writeln!(json, "      \"states\": {},", w.states);
        let _ = writeln!(json, "      \"holds\": {},", w.holds);
        let _ = writeln!(json, "      \"naive_secs\": {},", json_f64(w.naive_secs));
        let _ = writeln!(json, "      \"runs\": [");
        for (ri, r) in w.runs.iter().enumerate() {
            let _ = writeln!(
                json,
                "        {{\"threads\": {}, \"secs\": {}, \"speedup_vs_naive\": {}}}{}",
                r.threads,
                json_f64(r.secs),
                json_f64(w.naive_secs / r.secs),
                if ri + 1 < w.runs.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "      ],");
        let _ = writeln!(
            json,
            "      \"cache_hit_rate\": {},",
            w.counters
                .cache_hit_rate()
                .map(json_f64)
                .unwrap_or_else(|| "null".into())
        );
        let _ = writeln!(json, "      \"counters\": {}", w.counters.to_json());
        let _ = writeln!(
            json,
            "    }}{}",
            if wi + 1 < mc_loads.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    // Instrumented run of the staged checker on the Example-5.1 property
    // so the artifact carries the registry snapshot next to the timings.
    let obs = Obs::enabled(ObsConfig::default());
    {
        let e51 = examples::example_5_1();
        let pruning = rcycl_opts(&e51, 100, 1);
        let r = e51.data.schema.rel_id("R").unwrap();
        let q = e51.data.schema.rel_id("Q").unwrap();
        let phi = sugar::ag(Mu::exists(
            "X",
            Mu::live("X").and(
                Mu::Query(Formula::Atom(r, vec![QTerm::var("X")]))
                    .or(Mu::Query(Formula::Atom(q, vec![QTerm::var("X")]))),
            ),
        ));
        let _ = check_traced(&phi, &pruning.ts, McOptions { threads: 1 }, &obs)
            .expect("mucalc snapshot run");
    }
    let snapshot = obs.finish().expect("obs enabled").metrics;

    // Symbolic backward-reachability stanza: the engine the explicit
    // benchmarks cannot cover (the spec is run-unbounded).
    let (sym_secs, sym_counters) = bench_symbolic(reps);
    println!(
        "\nsymbolic engine — unbounded_safe, AG flag stays 'ok' (best of {reps})\n  \
         {sym_secs:.4}s, {} iterations, {} kept clauses, {} subsumed, peak frontier {}",
        sym_counters.iterations,
        sym_counters.kept,
        sym_counters.subsumed,
        sym_counters.peak_frontier
    );
    let _ = writeln!(
        json,
        "  \"symbolic\": {{\"spec\": \"unbounded_safe\", \
         \"property\": \"AG forall Y . Flag(Y) -> Y = 'ok'\", \"holds\": true, \
         \"secs\": {}, \"counters\": {}}},",
        json_f64(sym_secs),
        sym_counters.to_json()
    );

    let _ = writeln!(json, "  \"metrics_snapshot\": {}", snapshot.to_json());
    json.push_str("}\n");
    if !smoke {
        std::fs::write("BENCH_mucalc.json", &json).expect("write BENCH_mucalc.json");
        println!("\nwrote BENCH_mucalc.json");
    }
    artifacts.push(("BENCH_mucalc.json", json));

    // ---- compiled query plans + per-state indexes ----
    let q_runs = query_runs(reps, scale);
    println!("\nquery-plan perf report  (1 thread, best of {reps}, scale {scale})");
    for r in &q_runs {
        println!("\n{} — {}", r.name, r.shape);
        println!("  {} rows in, {} result rows", r.rows, r.results);
        println!(
            "  nested-loop {:>9.4}s | plan(scan) {:>9.4}s ({:.2}x) | plan+index {:>9.4}s ({:.2}x, +{:.4}s build)",
            r.nested_secs,
            r.plan_scan_secs,
            r.nested_secs / r.plan_scan_secs,
            r.plan_indexed_secs,
            r.nested_secs / r.plan_indexed_secs,
            r.index_build_secs,
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"query-plans\",");
    let _ = writeln!(json, "  \"hardware_threads\": {hardware_threads},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"threads\": 1,");
    let _ = writeln!(json, "  \"bit_identical\": true,");
    let _ = writeln!(json, "  \"workloads\": [");
    for (ri, r) in q_runs.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(json, "      \"shape\": \"{}\",", r.shape.replace('"', "'"));
        let _ = writeln!(json, "      \"rows\": {},", r.rows);
        let _ = writeln!(json, "      \"results\": {},", r.results);
        let _ = writeln!(
            json,
            "      \"nested_loop_secs\": {},",
            json_f64(r.nested_secs)
        );
        let _ = writeln!(
            json,
            "      \"plan_scan_secs\": {},",
            json_f64(r.plan_scan_secs)
        );
        let _ = writeln!(
            json,
            "      \"plan_indexed_secs\": {},",
            json_f64(r.plan_indexed_secs)
        );
        let _ = writeln!(
            json,
            "      \"index_build_secs\": {},",
            json_f64(r.index_build_secs)
        );
        let _ = writeln!(
            json,
            "      \"speedup_plan_scan\": {},",
            json_f64(r.nested_secs / r.plan_scan_secs)
        );
        let _ = writeln!(
            json,
            "      \"speedup_plan_indexed\": {}",
            json_f64(r.nested_secs / r.plan_indexed_secs)
        );
        let _ = writeln!(
            json,
            "    }}{}",
            if ri + 1 < q_runs.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    // Instrumented abstraction of the travel-request system: the exact
    // plan/index counters (`query.*`) the hot path produces on the
    // workload benchmarked above.
    let obs = Obs::enabled(ObsConfig::default());
    let _ = rcycl_compact_traced(&travel::request_system_small(), 5000, 1, &obs);
    let snapshot = obs.finish().expect("obs enabled").metrics;
    let _ = writeln!(json, "  \"metrics_snapshot\": {}", snapshot.to_json());
    json.push_str("}\n");
    if !smoke {
        std::fs::write("BENCH_query.json", &json).expect("write BENCH_query.json");
        println!("\nwrote BENCH_query.json");
    }
    artifacts.push(("BENCH_query.json", json));

    // ---- compact state store at scale ----
    // The scale stage drives half-million-state budgets; in smoke mode it
    // is skipped outright (its keys simply drop out of the comparison).
    if smoke {
        println!("\nsmoke mode: scale stage skipped");
        if let Some(dir) = &baseline_dir {
            gate_against_baseline(dir, &artifacts, thresholds, inject);
        }
        return;
    }
    let scale_loads = scale_workloads();
    println!("\ncompact-store scale report  (1 thread; parity asserted at 1/2/4/8)");
    for w in &scale_loads {
        println!("\n{} — {}", w.engine, w.name);
        println!(
            "  {:>9}  {:>9}  {:>10}  {:>9}  {:>9}  {:>11}  {:>8}",
            "budget", "secs", "states/s", "B/state", "delta", "facts", "complete"
        );
        for r in &w.runs {
            println!(
                "  {:>9}  {:>9.1}  {:>10.0}  {:>9.1}  {:>8.1}%  {:>11}  {:>8}",
                r.budget,
                r.secs,
                r.states_per_sec(),
                r.bytes_per_state(),
                r.delta_share * 100.0,
                r.facts_interned,
                r.complete
            );
        }
        if let Some(r) = w.runs.last() {
            println!(
                "  canon at {} states: {} keys ({} orders, {} cutoffs), \
                 {} sig-bucket skips, {} iso checks",
                r.states,
                r.canon_keys_computed,
                r.canon_orders_enumerated,
                r.canon_prune_cutoffs,
                r.sig_filter_skips,
                r.iso_checks_performed
            );
        }
        println!(
            "  {}k -> {}k: bytes/state x{:.2} (must stay < 2x), states/s x{:.2}{}; \
             thread invariance asserted at {} states, threads 1/2/4/8",
            w.gate_budgets.0 / 1000,
            w.gate_budgets.1 / 1000,
            w.bytes_growth,
            w.throughput_ratio,
            if w.engine.starts_with("det") {
                " (must stay >= 0.5x)"
            } else {
                ""
            },
            w.overlap_budget
        );
    }

    // Instrumented small compact run so the artifact carries the store
    // gauges (`store.bytes`, `store.facts_interned`, `store.delta_states`).
    let obs = Obs::enabled(ObsConfig::default());
    let _ = det_abstraction_compact_traced(
        &synthetic::service_chain(16),
        10_000,
        AbsOptions {
            threads: 1,
            ..AbsOptions::default()
        },
        &obs,
    );
    let snapshot = obs.finish().expect("obs enabled").metrics;

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"compact-store-scale\",");
    let _ = writeln!(json, "  \"hardware_threads\": {hardware_threads},");
    let _ = writeln!(json, "  \"threads\": 1,");
    let _ = writeln!(json, "  \"parity_thread_counts\": [1, 2, 4, 8],");
    let _ = writeln!(json, "  \"workloads\": [");
    for (wi, w) in scale_loads.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", w.name);
        let _ = writeln!(json, "      \"engine\": \"{}\",", w.engine);
        let _ = writeln!(json, "      \"overlap_budget\": {},", w.overlap_budget);
        let _ = writeln!(json, "      \"parity\": \"thread_invariance\",");
        let _ = writeln!(json, "      \"runs\": [");
        for (ri, r) in w.runs.iter().enumerate() {
            let _ = writeln!(
                json,
                "        {{\"budget\": {}, \"secs\": {}, \"states\": {}, \"edges\": {}, \
                 \"states_per_sec\": {}, \"store_bytes\": {}, \"bytes_per_state\": {}, \
                 \"delta_share\": {}, \"facts_interned\": {}, \"complete\": {}, \
                 \"canon_keys_computed\": {}, \"canon_orders_enumerated\": {}, \
                 \"canon_prune_cutoffs\": {}, \"sig_filter_skips\": {}, \
                 \"iso_checks_performed\": {}}}{}",
                r.budget,
                json_f64(r.secs),
                r.states,
                r.edges,
                json_f64(r.states_per_sec()),
                r.bytes,
                json_f64(r.bytes_per_state()),
                json_f64(r.delta_share),
                r.facts_interned,
                r.complete,
                r.canon_keys_computed,
                r.canon_orders_enumerated,
                r.canon_prune_cutoffs,
                r.sig_filter_skips,
                r.iso_checks_performed,
                if ri + 1 < w.runs.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "      ],");
        let _ = writeln!(
            json,
            "      \"gate_budgets\": [{}, {}],",
            w.gate_budgets.0, w.gate_budgets.1
        );
        let _ = writeln!(
            json,
            "      \"bytes_per_state_growth\": {},",
            json_f64(w.bytes_growth)
        );
        let _ = writeln!(
            json,
            "      \"throughput_ratio\": {}",
            json_f64(w.throughput_ratio)
        );
        let _ = writeln!(
            json,
            "    }}{}",
            if wi + 1 < scale_loads.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"metrics_snapshot\": {}", snapshot.to_json());
    json.push_str("}\n");
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!("\nwrote BENCH_scale.json");
    artifacts.push(("BENCH_scale.json", json));

    if let Some(dir) = &baseline_dir {
        gate_against_baseline(dir, &artifacts, thresholds, inject);
    }
}
