//! The traced run (`--trace 1`): per-layer figures measured from outside
//! the program.
//!
//! Nothing here adds tracing inside `dcds`. The run calls each layer's
//! public functions in-process and times every call with a
//! benchmark-side span ([`Spans`]):
//!
//! * the front end (spec parser, lint passes, static analyses, plan
//!   compilation), repeated for a stable median;
//! * one serial run of the default engine, for its counters and wall
//!   time, followed by a *replay*: for a sample of the states it found,
//!   the expansion step is re-executed call by call (index build, rule
//!   conditions, `DO`, commitments, resolution, constraints, signature,
//!   canonical key, dedup probe, store insert, index delta), so each layer
//!   gets a cost per call or per state. Cost × the engine's own count,
//!   summed over layers and divided by the engine's wall time, is
//!   `layers.attributed_share`; the rest is time no layer explains;
//! * the compact engine (store figures, `CompactTs::to_ts`), the
//!   µ-calculus fixpoint and the symbolic engine, with their counters
//!   (`det_collision` runs the symbolic engine on the seed's
//!   `symbolic_collision` spec);
//! * child `dcds` jobs with every observability flag on, and with
//!   `--compact`, against plain jobs: `obs.overhead_ratio` and
//!   `compact.{wall,rss}_ratio`.
//!
//! A layer the workload's engine does not run reports 0.

use crate::workloads::{self, Family, Job, Workload};
use crate::{check_job, job_args, median, print_info, print_result, Args, Env};
use dcds_abstraction::{
    det_abstraction_compact_opts, det_abstraction_opts, rcycl_compact_opts, rcycl_opts, AbsOptions,
    AbsOutcome,
};
use dcds_analysis::{
    dataflow_graph, dependency_graph, gr_acyclicity, is_weakly_acyclic, position_ranks,
    run_bound_estimate, state_bound_estimate,
};
use dcds_core::commitment::fresh_cell_count;
use dcds_core::do_op::{query_stats_snapshot, resolve_with_map};
use dcds_core::nondet::evals_over;
use dcds_core::{
    do_action_indexed, enumerate_commitments, legal_assignments_indexed, parse_dcds, state_index,
    CommitTarget, Dcds, DetState, EngineCounters, PlanCache, ServiceCall, Ts,
};
use dcds_mucalc::{check_with_opts, parse_mu, McOptions, Mu};
use dcds_reldata::{CanonKey, Facts, Instance, InstanceIndex, SigCensus, StateStore, Value};
use dcds_symbolic::{check_safety, SymOptions, SymVerdict};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The system allocator plus a count of live heap bytes.
pub struct LiveBytes;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// statistic that publishes no other data (hence `Relaxed`).
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// States the replay re-expands at most, spread evenly over the engine's
/// states, and the time it may take.
const REPLAY_STATES: usize = 1000;
const REPLAY_BUDGET: Duration = Duration::from_secs(2);
/// Time given to each repeated front-end measurement.
const FRONT_END_BUDGET: Duration = Duration::from_millis(200);

/// Benchmark-side spans, aggregated per name: total time and call count.
/// They stay in memory and are reported as metrics when the run ends.
#[derive(Default)]
struct Spans {
    totals: BTreeMap<&'static str, (f64, u64)>,
}

impl Spans {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = black_box(f());
        let e = self.totals.entry(name).or_default();
        e.0 += t.elapsed().as_secs_f64();
        e.1 += 1;
        out
    }

    /// Count an event at a layer boundary (a call count without a time).
    fn count(&mut self, name: &'static str) {
        self.totals.entry(name).or_default().1 += 1;
    }

    fn total_s(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |e| e.0)
    }

    fn calls(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |e| e.1)
    }

    /// Mean µs per call (0 when never called).
    fn us_per_call(&self, name: &str) -> f64 {
        match self.calls(name) {
            0 => 0.0,
            n => self.total_s(name) * 1e6 / n as f64,
        }
    }
}

/// Median µs of `f`, repeated for [`FRONT_END_BUDGET`] (5 to 500 times).
fn repeat_us<T>(mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    let mut xs = Vec::new();
    while xs.len() < 5 || (xs.len() < 500 && start.elapsed() < FRONT_END_BUDGET) {
        let t = Instant::now();
        black_box(f());
        xs.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&xs)
}

/// Collected metrics, in output order.
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// Counts of verdict checks made during the traced run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("e2ebench: traced run: {what} differs from the expected answer");
        }
    }
}

pub fn traced(a: &Args) -> Result<(), String> {
    let env = Env::new()?;
    let w = &a.workload;
    let (spec_path, gen) = env.write_spec(w, a.seed, 0)?;
    let mut m = Metrics(Vec::new());
    let mut tally = Tally::default();

    let dcds = front_end(&gen.spec, &mut m)?;
    let formula = match &gen.formula {
        Some(f) => Some(formula_of(&dcds, f)?),
        None => None,
    };

    match w.job {
        Job::Symbolic => {
            zero(&mut m, &EXPLICIT_METRICS);
            zero(&mut m, &MC_METRICS);
            let phi = formula
                .as_ref()
                .ok_or("symbolic workload without formula")?;
            symbolic(&dcds, phi, w.expected.verdict, &mut m, &mut tally)?;
            m.put("layers.attributed_share", 0.0, "ratio");
            for name in ["compact.wall_ratio", "compact.rss_ratio"] {
                m.put(name, 0.0, "ratio");
            }
        }
        Job::Check | Job::Abstract => {
            explicit(w, &dcds, formula.as_ref(), &mut m, &mut tally)?;
            if w.family == Family::Collision {
                // `symbolic_collision` is not among the benchmark's
                // workloads (see the README), so the symbolic engine's
                // figures ride on `det_collision`, from the seed's
                // `symbolic_collision` spec.
                let sw = workloads::by_name("symbolic_collision")
                    .ok_or("no symbolic_collision workload")?;
                let (_, sgen) = env.write_spec(&sw, a.seed, 0)?;
                let sdcds = parse_dcds(&sgen.spec).map_err(|e| e.to_string())?;
                let phi = formula_of(&sdcds, sgen.formula.as_deref().unwrap_or_default())?;
                symbolic(&sdcds, &phi, sw.expected.verdict, &mut m, &mut tally)?;
            } else {
                zero(&mut m, &SYM_METRICS);
            }
            let (wall, rss) = child_ratio(
                &env,
                w,
                &spec_path,
                gen.formula.as_deref(),
                a.seconds / 2.0,
                &["--compact"],
                &mut tally,
            )?;
            m.put("compact.wall_ratio", wall, "ratio");
            m.put("compact.rss_ratio", rss, "ratio");
        }
    }

    let profile = env.work.join("profile.folded").display().to_string();
    let events = env.work.join("events.jsonl").display().to_string();
    let obs_flags = [
        "--stats",
        "--profile",
        &profile,
        "--profile-alloc",
        "--events",
        &events,
    ];
    let (overhead, _) = child_ratio(
        &env,
        w,
        &spec_path,
        gen.formula.as_deref(),
        a.seconds / 2.0,
        &obs_flags,
        &mut tally,
    )?;
    m.put("obs.overhead_ratio", overhead, "ratio");

    let engine = match w.job {
        Job::Symbolic => "symbolic backward reachability (in-process)",
        _ if w.family == Family::Rings => "RCYCL pruning (Thm 5.4, in-process, 1 thread)",
        _ => "deterministic abstraction (Thm 4.3, in-process, 1 thread)",
    };
    print_info(a, &env, engine, tally.attempted);
    print_result(tally.failed == 0, tally.attempted, tally.failed, &m.0);
    Ok(())
}

/// Front end: parse + lower, lint, the `dcds analyze` analyses, and plan
/// compilation. Returns the lowered system.
fn front_end(src: &str, m: &mut Metrics) -> Result<Dcds, String> {
    let spec = dcds_core::parse_spec(src).map_err(|e| e.to_string())?;
    let dcds = spec.lower().map_err(|e| e.to_string())?;
    m.put(
        "parse.us",
        repeat_us(|| dcds_core::parse_spec(src).map(|s| s.lower().is_ok())),
        "us",
    );
    m.put("lint.us", repeat_us(|| dcds_lint::lint_spec(&spec)), "us");
    m.put(
        "analysis.us",
        repeat_us(|| {
            let dg = dependency_graph(&dcds);
            let wa = is_weakly_acyclic(&dg);
            let ranks = position_ranks(&dg);
            let run_bound = run_bound_estimate(&dcds, &dg);
            let df = dataflow_graph(&dcds);
            let gr = gr_acyclicity::is_gr_acyclic(&df);
            let grp = gr_acyclicity::is_gr_plus_acyclic(&df);
            let state_bound = state_bound_estimate(&dcds, &df);
            (wa, ranks, run_bound, gr, grp, state_bound)
        }),
        "us",
    );
    m.put(
        "plan.compile_us",
        repeat_us(|| PlanCache::build(&dcds)),
        "us",
    );
    let ((e_ok, e_all), (r_ok, r_all)) = PlanCache::build(&dcds).coverage();
    let all = (e_all + r_all).max(1);
    m.put("plan.coverage", (e_ok + r_ok) as f64 / all as f64, "ratio");
    Ok(dcds)
}

/// Parse `src` as a formula over `dcds`'s schema and constants.
fn formula_of(dcds: &Dcds, src: &str) -> Result<Mu, String> {
    let mut schema = dcds.data.schema.clone();
    let mut pool = dcds.data.pool.clone();
    parse_mu(src, &mut schema, &mut pool).map_err(|e| e.to_string())
}

/// The symbolic engine on `phi`, in-process: `sym.*`.
fn symbolic(
    dcds: &Dcds,
    phi: &Mu,
    expected: Option<bool>,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let t = Instant::now();
    let run = check_safety(dcds, phi, &SymOptions::default()).map_err(|e| format!("{e:?}"))?;
    let sym_us = t.elapsed().as_secs_f64() * 1e6;
    let holds = matches!(run.verdict, SymVerdict::Holds(_));
    tally.check("symbolic verdict", Some(holds) == expected);
    let c = &run.counters;
    m.put("sym.us", sym_us, "us");
    m.put("sym.iterations", c.iterations as f64, "count");
    m.put("sym.regressions", c.regressions as f64, "count");
    m.put("sym.kept", c.kept as f64, "count");
    m.put("sym.subsumed", c.subsumed as f64, "count");
    m.put("sym.unsat_dropped", c.unsat_dropped as f64, "count");
    m.put("sym.confirm_nodes", c.confirm_nodes as f64, "count");
    Ok(())
}

/// Report each metric of `list` as 0: the workload never runs its layer.
fn zero(m: &mut Metrics, list: &[(&str, &'static str)]) {
    for (name, unit) in list {
        m.put(name, 0.0, unit);
    }
}

/// The symbolic engine's metrics.
const SYM_METRICS: [(&str, &str); 7] = [
    ("sym.us", "us"),
    ("sym.iterations", "count"),
    ("sym.regressions", "count"),
    ("sym.kept", "count"),
    ("sym.subsumed", "count"),
    ("sym.unsat_dropped", "count"),
    ("sym.confirm_nodes", "count"),
];

/// The explicit engines' metrics.
const EXPLICIT_METRICS: [(&str, &str); 28] = [
    ("rule_eval.us_per_state", "us"),
    ("query.plan_evals", "count"),
    ("query.index_probes", "count"),
    ("query.relation_scans", "count"),
    ("query.fallback_evals", "count"),
    ("do.us_per_call", "us"),
    ("commit.us_per_state", "us"),
    ("commit.per_state", "count"),
    ("constraint.us_per_call", "us"),
    ("constraint.reject_share", "ratio"),
    ("sig.us_per_call", "us"),
    ("sig.filter_skips", "count"),
    ("canon.us_per_key", "us"),
    ("canon.keys_computed", "count"),
    ("canon.orders_enumerated", "count"),
    ("canon.prune_cutoffs", "count"),
    ("dedup.new_share", "ratio"),
    ("dedup.us_per_probe", "us"),
    ("store.insert_us", "us"),
    ("store.bytes_per_state", "B"),
    ("store.delta_share", "ratio"),
    ("index.build_us", "us"),
    ("index.rebuild_delta_us", "us"),
    ("abs.states", "count"),
    ("abs.edges", "count"),
    ("abs.states_per_s", "1/s"),
    ("to_ts.us", "us"),
    ("to_ts.rss_delta_mb", "MB"),
];

/// The µ-calculus fixpoint's metrics.
const MC_METRICS: [(&str, &str); 5] = [
    ("mc.us", "us"),
    ("mc.fixpoint_iterations", "count"),
    ("mc.query_state_evals", "count"),
    ("mc.state_subformula_visits", "count"),
    ("mc.cache_hit_rate", "ratio"),
];

/// What the reference engine run leaves for the replay.
struct Reference {
    ts: Ts,
    /// Deterministic engine only: the `⟨I, M⟩` state behind each class.
    det_states: Vec<DetState>,
    counters: EngineCounters,
    complete: bool,
    wall_s: f64,
    pool: dcds_reldata::ConstantPool,
    used_values: BTreeSet<Value>,
}

fn explicit(
    w: &Workload,
    dcds: &Dcds,
    formula: Option<&dcds_mucalc::Mu>,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let det = w.family != Family::Rings;
    // The default engine, serial, so the replayed per-call costs add up
    // against its wall time.
    let q0 = query_stats_snapshot(dcds);
    let t = Instant::now();
    let mut reference = if det {
        let abs = det_abstraction_opts(
            dcds,
            w.max_states,
            AbsOptions {
                threads: 1,
                ..AbsOptions::default()
            },
        );
        Reference {
            complete: abs.outcome == AbsOutcome::Complete,
            ts: abs.ts,
            det_states: abs.states,
            counters: abs.counters,
            wall_s: 0.0,
            pool: abs.pool,
            used_values: BTreeSet::new(),
        }
    } else {
        let res = rcycl_opts(dcds, w.max_states, 1);
        Reference {
            complete: res.complete,
            ts: res.ts,
            det_states: Vec::new(),
            counters: res.counters,
            wall_s: 0.0,
            pool: res.pool,
            used_values: res.used_values,
        }
    };
    reference.wall_s = t.elapsed().as_secs_f64();
    let q1 = query_stats_snapshot(dcds);
    let states = reference.ts.num_states();
    if let Some(expected) = w.expected.states {
        tally.check("state count", states == expected);
    }
    tally.check(
        "completeness",
        Some(reference.complete) == w.expected.complete,
    );

    let c = &reference.counters;
    m.put("abs.states", states as f64, "count");
    m.put("abs.edges", reference.ts.num_edges() as f64, "count");
    m.put("abs.states_per_s", states as f64 / reference.wall_s, "1/s");
    for ((name, after), (_, before)) in q1.iter().zip(&q0) {
        m.put(
            &format!("query.{name}"),
            after.saturating_sub(*before) as f64,
            "count",
        );
    }
    m.put("sig.filter_skips", c.sig_filter_skips as f64, "count");
    m.put("canon.keys_computed", c.canon_keys_computed as f64, "count");
    m.put(
        "canon.orders_enumerated",
        c.canon_orders_enumerated as f64,
        "count",
    );
    m.put("canon.prune_cutoffs", c.canon_prune_cutoffs as f64, "count");
    m.put(
        "dedup.new_share",
        states.saturating_sub(1) as f64 / c.successors_generated.max(1) as f64,
        "ratio",
    );

    let mut sp = Spans::default();
    let sampled = if det {
        replay_det(dcds, &reference, &mut sp)
    } else {
        replay_rcycl(dcds, &reference, &mut sp)
    };
    let per_state = |name: &str| sp.total_s(name) * 1e6 / sampled.max(1) as f64;
    m.put("rule_eval.us_per_state", per_state("rule_eval"), "us");
    m.put("do.us_per_call", sp.us_per_call("do"), "us");
    m.put("commit.us_per_state", per_state("commit"), "us");
    m.put(
        "commit.per_state",
        sp.calls("resolve") as f64 / sampled.max(1) as f64,
        "count",
    );
    m.put("constraint.us_per_call", sp.us_per_call("constraint"), "us");
    m.put(
        "constraint.reject_share",
        sp.calls("constraint.reject") as f64 / sp.calls("constraint").max(1) as f64,
        "ratio",
    );
    m.put("sig.us_per_call", sp.us_per_call("sig"), "us");
    m.put("canon.us_per_key", sp.us_per_call("canon"), "us");
    m.put("dedup.us_per_probe", sp.us_per_call("dedup.probe"), "us");
    m.put("store.insert_us", sp.us_per_call("store.insert"), "us");
    m.put("index.build_us", sp.us_per_call("index.build"), "us");
    m.put(
        "index.rebuild_delta_us",
        sp.us_per_call("index.rebuild_delta"),
        "us",
    );

    // Cost × the engine's own count, over the layers the default engine
    // runs (the store and index-delta spans time the compact engine's
    // path and are left out). Per-state layers scale with the states the
    // engine expanded; the dedup-side layers with what the engine actually
    // computed (keys only on signature hits).
    let expanded = c.states_expanded as f64;
    let per_state_layers = [
        "index.build",
        "rule_eval",
        "do",
        "commit",
        "mint",
        "resolve",
        "constraint",
        "encode",
        "sig.census",
        "recycle",
    ];
    let mut attributed_us: f64 = per_state_layers
        .iter()
        .map(|l| per_state(l) * expanded)
        .sum();
    attributed_us += sp.us_per_call("sig") * c.successors_generated as f64;
    attributed_us += sp.us_per_call("canon") * c.canon_keys_computed as f64;
    attributed_us += sp.us_per_call("dedup.probe") * c.successors_generated as f64;
    m.put(
        "layers.attributed_share",
        attributed_us / (reference.wall_s * 1e6),
        "ratio",
    );

    // The fixpoint, on the default engine's transition system.
    match formula {
        Some(phi) => {
            let t = Instant::now();
            let run = check_with_opts(phi, &reference.ts, McOptions { threads: 1 })
                .map_err(|e| e.to_string())?;
            m.put("mc.us", t.elapsed().as_secs_f64() * 1e6, "us");
            tally.check("verdict", Some(run.holds) == w.expected.verdict);
            let mc = &run.counters;
            m.put(
                "mc.fixpoint_iterations",
                mc.fixpoint_iterations as f64,
                "count",
            );
            m.put("mc.query_state_evals", mc.query_state_evals as f64, "count");
            m.put(
                "mc.state_subformula_visits",
                mc.state_subformula_visits as f64,
                "count",
            );
            let requests = (mc.cache_hits + mc.cache_misses).max(1);
            m.put(
                "mc.cache_hit_rate",
                mc.cache_hits as f64 / requests as f64,
                "ratio",
            );
        }
        None => zero(m, &MC_METRICS),
    }
    drop(reference);

    // The compact store and its materialisation.
    let compact = if det {
        let abs = det_abstraction_compact_opts(
            dcds,
            w.max_states,
            AbsOptions {
                threads: 1,
                ..AbsOptions::default()
            },
        );
        abs.ts
    } else {
        rcycl_compact_opts(dcds, w.max_states, 1).ts
    };
    let stats = compact.store_stats();
    m.put(
        "store.bytes_per_state",
        stats.bytes as f64 / stats.states().max(1) as f64,
        "B",
    );
    m.put("store.delta_share", stats.delta_share(), "ratio");
    let before = live_bytes();
    let t = Instant::now();
    let ts = black_box(compact.to_ts());
    m.put("to_ts.us", t.elapsed().as_secs_f64() * 1e6, "us");
    m.put(
        "to_ts.rss_delta_mb",
        live_bytes().saturating_sub(before) as f64 / (1024.0 * 1024.0),
        "MB",
    );
    tally.check("compact engine state count", ts.num_states() == states);
    Ok(())
}

/// Evenly spaced state indices, at most [`REPLAY_STATES`].
fn sample(n: usize) -> impl Iterator<Item = usize> {
    (0..n).step_by(n.div_ceil(REPLAY_STATES).max(1))
}

/// Re-expand sampled states of the deterministic abstraction the way its
/// engine does, one layer call at a time. Returns the states replayed.
fn replay_det(dcds: &Dcds, r: &Reference, sp: &mut Spans) -> usize {
    let rigid = dcds.rigid_constants();
    let num_rels = dcds.data.schema.len();
    let paths = dcds.plans().access_paths().to_vec();
    let keys: HashMap<CanonKey, usize> = r
        .det_states
        .iter()
        .enumerate()
        .map(|(i, s)| (s.to_facts(num_rels).canonical_key(&rigid), i))
        .collect();
    let mut pool = r.pool.clone();
    let mut store = StateStore::new();
    let start = Instant::now();
    let mut replayed = 0;
    for i in sample(r.det_states.len()) {
        if start.elapsed() > REPLAY_BUDGET && replayed > 0 {
            break;
        }
        replayed += 1;
        let state = &r.det_states[i];
        let inst = &state.instance;
        let idx = sp.time("index.build", || state_index(dcds, inst));
        let legal = sp.time("rule_eval", || {
            legal_assignments_indexed(dcds, inst, Some(&idx))
        });
        let parent_facts = state.to_facts(num_rels);
        let census = sp.time("sig.census", || SigCensus::new(parent_facts.iter(), &rigid));
        let parent = store.insert(None, &parent_facts).state;
        let parent_ids = store.resolve(parent);
        for (action, sigma) in legal {
            let pre = sp.time("do", || {
                do_action_indexed(dcds, inst, action, &sigma, Some(&idx))
            });
            let commitments = sp.time("commit", || {
                let new_calls: Vec<ServiceCall> = pre
                    .calls()
                    .into_iter()
                    .filter(|c| !state.call_map.contains_key(c))
                    .collect();
                let mut known = state.known_values();
                known.extend(rigid.iter().copied());
                let known: Vec<Value> = known.into_iter().collect();
                enumerate_commitments(&new_calls, &known)
            });
            for commitment in &commitments {
                let map = sp.time("mint", || {
                    let fresh: Vec<Value> = (0..fresh_cell_count(commitment))
                        .map(|_| pool.mint("v"))
                        .collect();
                    let mut map = state.call_map.clone();
                    for (call, target) in commitment {
                        let v = match target {
                            CommitTarget::Known(v) => *v,
                            CommitTarget::Fresh(cell) => fresh[*cell],
                        };
                        map.insert(call.clone(), v);
                    }
                    map
                });
                let Some(next) = sp.time("resolve", || resolve_with_map(&pre, &map)) else {
                    continue;
                };
                if !sp.time("constraint", || dcds.data.satisfies_constraints(&next)) {
                    sp.count("constraint.reject");
                    continue;
                }
                let next = DetState {
                    instance: next,
                    call_map: map,
                };
                let facts = sp.time("encode", || next.to_facts(num_rels));
                sp.time("sig", || {
                    census.child_signature(|| facts.iter(), facts.len())
                });
                let key = sp.time("canon", || facts.canonical_key_stats(&rigid).0);
                sp.time("dedup.probe", || keys.get(&key).copied());
                let child = sp.time("store.insert", || {
                    store.insert_child(parent, &parent_ids, &facts)
                });
                let touched = store
                    .delta_rels(child.state, num_rels as u32)
                    .unwrap_or_default();
                sp.time("index.rebuild_delta", || {
                    InstanceIndex::rebuild_delta(
                        &idx,
                        &next.instance,
                        &touched,
                        paths.iter().cloned(),
                    )
                });
            }
        }
    }
    replayed
}

/// Re-expand sampled RCYCL states the way `rcycl` does. Returns the states
/// replayed.
fn replay_rcycl(dcds: &Dcds, r: &Reference, sp: &mut Spans) -> usize {
    let rigid = dcds.rigid_constants();
    let num_rels = dcds.data.schema.len();
    let paths = dcds.plans().access_paths().to_vec();
    let index: HashMap<&Instance, usize> =
        r.ts.state_ids().map(|s| (r.ts.db(s), s.index())).collect();
    let mut pool = r.pool.clone();
    let mut store = StateStore::new();
    let start = Instant::now();
    let mut replayed = 0;
    for i in sample(r.ts.num_states()) {
        if start.elapsed() > REPLAY_BUDGET && replayed > 0 {
            break;
        }
        replayed += 1;
        let inst = r.ts.db(dcds_core::StateId::from_index(i));
        let idx = sp.time("index.build", || state_index(dcds, inst));
        let legal = sp.time("rule_eval", || {
            legal_assignments_indexed(dcds, inst, Some(&idx))
        });
        let parent = store.insert(None, &Facts::from_instance(inst)).state;
        let parent_ids = store.resolve(parent);
        for (action, sigma) in legal {
            let pre = sp.time("do", || {
                do_action_indexed(dcds, inst, action, &sigma, Some(&idx))
            });
            let calls = pre.calls();
            // The final used-value set stands in for the engine's set at
            // the time it expanded this state.
            let f_set = sp.time("recycle", || {
                let adom = inst.active_domain();
                let mut recyclable: Vec<Value> = r
                    .used_values
                    .iter()
                    .copied()
                    .filter(|v| !rigid.contains(v) && !adom.contains(v))
                    .collect();
                recyclable.sort_unstable();
                let v_set: Vec<Value> = if recyclable.len() >= calls.len() {
                    recyclable.into_iter().take(calls.len()).collect()
                } else {
                    (0..calls.len()).map(|_| pool.mint("v")).collect()
                };
                let mut f_set: BTreeSet<Value> = adom;
                f_set.extend(rigid.iter().copied());
                f_set.extend(v_set);
                f_set
            });
            let thetas = sp.time("commit", || evals_over(&calls, &f_set));
            for theta in &thetas {
                let Some(next) = sp.time("resolve", || resolve_with_map(&pre, theta)) else {
                    continue;
                };
                if !sp.time("constraint", || dcds.data.satisfies_constraints(&next)) {
                    sp.count("constraint.reject");
                    continue;
                }
                sp.time("dedup.probe", || index.get(&next).copied());
                let facts = Facts::from_instance(&next);
                let child = sp.time("store.insert", || {
                    store.insert_child(parent, &parent_ids, &facts)
                });
                let touched = store
                    .delta_rels(child.state, num_rels as u32)
                    .unwrap_or_default();
                sp.time("index.rebuild_delta", || {
                    InstanceIndex::rebuild_delta(&idx, &next, &touched, paths.iter().cloned())
                });
            }
        }
    }
    replayed
}

/// Alternate plain jobs with jobs that add `extra` flags, for up to
/// `seconds` (at least one pair); returns the ratios extra / plain of the
/// median wall time and of the median peak RSS.
fn child_ratio(
    env: &Env,
    w: &Workload,
    spec: &std::path::Path,
    formula: Option<&str>,
    seconds: f64,
    extra: &[&str],
    tally: &mut Tally,
) -> Result<(f64, f64), String> {
    let plain = job_args(w, spec, formula, env.threads);
    let mut flagged = plain.clone();
    flagged.extend(extra.iter().map(|s| s.to_string()));
    let (mut pw, mut pr, mut fw, mut fr) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut pair_s = 0.0;
    while pw.is_empty() || start.elapsed().as_secs_f64() + pair_s <= seconds {
        let t = Instant::now();
        // Alternate which side runs first.
        let order: [(&Vec<String>, bool); 2] = if pw.len() % 2 == 0 {
            [(&plain, false), (&flagged, true)]
        } else {
            [(&flagged, true), (&plain, false)]
        };
        for (args, is_flagged) in order {
            let run = env.run(args)?;
            let ok = check_job(&run, &w.expected)
                .map_err(|e| eprintln!("e2ebench: {} {extra:?}: {e}", w.name))
                .is_ok();
            tally.check("child job", ok);
            let (wv, rv) = if is_flagged {
                (&mut fw, &mut fr)
            } else {
                (&mut pw, &mut pr)
            };
            wv.push(run.wall_s);
            rv.push(run.peak_rss_mb);
        }
        pair_s = t.elapsed().as_secs_f64();
    }
    Ok((median(&fw) / median(&pw), median(&fr) / median(&pr)))
}
