//! `dcds` — command-line front end for the DCDS verification stack.
//!
//! ```text
//! dcds analyze  <spec.dcds> [obs flags]          static analysis verdicts
//! dcds abstract <spec.dcds> [--max-states N] [--threads N] [--dot] [obs flags]
//!                                                build the finite abstraction
//!                                                (threads default to DCDS_THREADS
//!                                                or the machine's parallelism)
//! dcds check    <spec.dcds> <formula> [--engine explicit|symbolic]
//!               [--max-states N] [--threads N] [--witness]
//!               [--max-iters N] [--max-clauses N]
//!               [--format text|json] [obs flags]
//!                                                model-check a µ-calculus property
//! dcds run      <spec.dcds> [--steps N] [--seed S]
//!                                                simulate the system
//! dcds dot      <spec.dcds> [--graph dataflow|depgraph]
//!                                                emit Graphviz
//! dcds fmt      <spec.dcds>                      parse and pretty-print back
//! dcds lint     <spec.dcds> [--deny warnings] [--format text|json] [obs flags]
//!                                                multi-pass spec diagnostics
//! ```
//!
//! The observability flags (`abstract`, `check`, `analyze`, `lint`):
//! `--trace <file>` writes a Chrome `trace_event` JSON openable in Perfetto
//! or `chrome://tracing`; `--stats` prints a span/metric summary plus a
//! top-spans (self-time) table to stderr; `--metrics-json <file|->` writes
//! the metrics snapshot as JSON (`-` = stdout); `--profile <file>` writes a
//! collapsed-stack profile (self-time weights, `inferno`/speedscope
//! format); `--profile-alloc` additionally attributes allocated bytes per
//! span path (and writes `<file>.alloc` next to the `--profile` output);
//! `--events <file|->` streams typed line-JSON run events (`run_start`,
//! per-level `level`/`progress`, `fixpoint`, `sym_iter`, `heartbeat`,
//! `run_end`) with monotonic sequence numbers. `DCDS_PROGRESS=<interval>`
//! (e.g. `1s`, `500ms`) additionally enables rate-limited live heartbeats
//! on stderr, with a final flush line at run end.
//!
//! Specs are in the textual format of `dcds_core::parser`; formulas in the
//! µ-calculus surface syntax of `dcds_mucalc::parser`.
//!
//! ## Output streams
//!
//! Machine-consumable results (verdicts, abstractions, JSON) go to stdout;
//! human-only diagnostics — witnesses, engine statistics, truncation
//! warnings, heartbeats — go to stderr, so `dcds ... > out.txt` captures
//! the result without the commentary.
//!
//! ## State storage
//!
//! Both explicit engines keep their states in the compact state store, so
//! every explicit `abstract`/`check` run reports the store's size on
//! stderr (`compact store: …`). `abstract` reads its summary line off the
//! store; only `--dot` and the model checker materialise the system as
//! owned instances.
//!
//! ## Exit codes (`dcds check`)
//!
//! Scripting/CI contract: **0** — the property holds on a complete
//! abstraction; **1** — the property is violated on a complete abstraction;
//! **2** — inconclusive (the state budget was hit, so the abstraction is
//! truncated and the verdict only valid up to the budget). Parse and usage
//! errors keep the ordinary failure path (exit 1 with a message on stderr,
//! distinguishable from a violation verdict by the `error:` prefix).
//!
//! `--engine symbolic` keeps the same contract but decides AG/EF safety
//! properties by regression-based backward reachability, with no
//! boundedness requirement on the system: **0** — the property holds
//! definitively (fixpoint reached, initial instance not covered, or a
//! confirmed witness for EF); **1** — violated with a concrete
//! counterexample trace; **2** — inconclusive (`--max-iters` /
//! `--max-clauses` budget hit, or an over-approximate hit that the bounded
//! concrete search could not confirm).
//!
//! ## Exit codes (`dcds lint`)
//!
//! **0** — no error-severity findings (warnings/notes allowed, unless
//! `--deny warnings`); **1** — errors found (or warnings under
//! `--deny warnings`); **2** — the spec could not be parsed at all (the
//! syntax error itself is reported as a `DCDS000` diagnostic in the
//! selected format).

use dcds_verify::abstraction::{
    det_abstraction_compact_traced, rcycl_compact_traced, AbsOptions, AbsOutcome,
};
use dcds_verify::analysis::{
    dataflow_dot, dataflow_graph, dependency_graph, depgraph_dot, gr_acyclicity, is_weakly_acyclic,
    position_ranks, render_dep_cycle, run_bound_estimate, state_bound_estimate, weak_cycle_witness,
};
use dcds_verify::cli::{flag_value, has_flag, string_flag, threads_flag, ObsCli};
use dcds_verify::core::{configured_threads, CompactTs, EngineCounters};
use dcds_verify::core::{parse_dcds, to_spec, AnswerPolicy, Dcds, Runner};
use dcds_verify::lint::{codes, lint_spec, render_json, render_text, Diagnostic};
use dcds_verify::mucalc::{check_traced, classify, diagnostics, parse_mu, McOptions, SafetyMode};
use dcds_verify::obs::{export::json_escape, span, Obs};
use dcds_verify::reldata::{ConstantPool, InstanceDisplay, StoreStats};
use dcds_verify::symbolic::{check_safety_traced, render_trace, SymOptions, SymVerdict};
use std::process::ExitCode;

/// Counting allocator so `--profile-alloc` can attribute bytes per span
/// path; a transparent passthrough to the system allocator (one relaxed
/// atomic load per call) unless that flag enables counting.
#[global_allocator]
static ALLOC: dcds_verify::obs::alloc::CountingAlloc = dcds_verify::obs::alloc::CountingAlloc;

/// `dcds check`: property holds (complete abstraction).
const EXIT_HOLDS: u8 = 0;
/// `dcds check`: property violated (complete abstraction).
const EXIT_VIOLATED: u8 = 1;
/// `dcds check`: inconclusive — the abstraction hit the state budget.
const EXIT_INCONCLUSIVE: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  dcds analyze  <spec.dcds> [obs flags]
  dcds abstract <spec.dcds> [--max-states N] [--threads N] [--dot] [obs flags]
  dcds check    <spec.dcds> <formula> [--engine explicit|symbolic]
                [--max-states N] [--threads N] [--witness]
                [--max-iters N] [--max-clauses N]
                [--format text|json] [obs flags]
  dcds run      <spec.dcds> [--steps N] [--seed S]
  dcds dot      <spec.dcds> [--graph dataflow|depgraph]
  dcds fmt      <spec.dcds>
  dcds lint     <spec.dcds> [--deny warnings] [--format text|json] [obs flags]

obs flags (analyze, abstract, check, lint):
  --trace FILE          Chrome trace_event JSON (Perfetto, chrome://tracing)
  --stats               span/metric summary + top-spans table on stderr
  --metrics-json FILE|- metrics snapshot as JSON (- = stdout)
  --profile FILE        collapsed-stack profile, self-time-weighted
                        (inferno / speedscope / flamegraph.pl)
  --profile-alloc       also attribute allocated bytes per span path
                        (writes FILE.alloc next to --profile output)
  --events FILE|-       live line-JSON event stream (- = stdout)

`dcds check` exits 0 when the property holds, 1 when it is violated, and
2 when the verdict is inconclusive (state budget hit).
`--engine symbolic` decides AG/EF safety properties by backward
reachability without requiring boundedness; budgets are `--max-iters`
(regression depth) and `--max-clauses` (clause set size).
`dcds lint` exits 0 when the spec is clean, 1 on errors (or warnings under
--deny warnings), and 2 when the spec cannot be parsed.
Set DCDS_PROGRESS=1s (or 500ms, ...) for live heartbeats on stderr.";

fn run(args: &[String]) -> Result<ExitCode, String> {
    let cmd = args.first().ok_or("missing command")?;
    match cmd.as_str() {
        "analyze" => analyze(
            args.get(1).ok_or("missing spec path")?,
            &ObsCli::parse(args)?,
        ),
        "abstract" => do_abstract(
            args.get(1).ok_or("missing spec path")?,
            flag_value(args, "--max-states")?.unwrap_or(10_000),
            threads_flag(args)?.unwrap_or_else(configured_threads),
            has_flag(args, "--dot"),
            &ObsCli::parse(args)?,
        ),
        "check" => {
            let path = args.get(1).ok_or("missing spec path")?;
            let formula = args.get(2).ok_or("missing formula")?;
            return match parse_engine(args)? {
                Engine::Explicit => do_check(
                    path,
                    formula,
                    flag_value(args, "--max-states")?.unwrap_or(10_000),
                    threads_flag(args)?.unwrap_or_else(configured_threads),
                    has_flag(args, "--witness"),
                    parse_format(args)?,
                    &ObsCli::parse(args)?,
                ),
                Engine::Symbolic => {
                    let defaults = SymOptions::default();
                    do_check_symbolic(
                        path,
                        formula,
                        SymOptions {
                            max_iters: flag_value(args, "--max-iters")?
                                .unwrap_or(defaults.max_iters),
                            max_clauses: flag_value(args, "--max-clauses")?
                                .unwrap_or(defaults.max_clauses),
                            confirm_nodes: flag_value(args, "--confirm-nodes")?
                                .unwrap_or(defaults.confirm_nodes),
                        },
                        has_flag(args, "--witness"),
                        parse_format(args)?,
                        &ObsCli::parse(args)?,
                    )
                }
            };
        }
        "run" => do_run(
            args.get(1).ok_or("missing spec path")?,
            flag_value(args, "--steps")?.unwrap_or(10),
            flag_value::<u64>(args, "--seed")?.unwrap_or(42),
        ),
        "dot" => do_dot(
            args.get(1).ok_or("missing spec path")?,
            string_flag(args, "--graph")?
                .as_deref()
                .unwrap_or("dataflow"),
        ),
        "fmt" => do_fmt(args.get(1).ok_or("missing spec path")?),
        "lint" => {
            return do_lint(
                args.get(1).ok_or("missing spec path")?,
                args.iter()
                    .position(|a| a == "--deny")
                    .map(|i| {
                        args.get(i + 1)
                            .filter(|v| v.as_str() == "warnings")
                            .map(|_| ())
                            .ok_or("--deny takes `warnings`")
                    })
                    .transpose()?
                    .is_some(),
                match parse_format(args)? {
                    OutputFormat::Text => LintFormat::Text,
                    OutputFormat::Json => LintFormat::Json,
                },
                &ObsCli::parse(args)?,
            )
        }
        other => Err(format!("unknown command `{other}`")),
    }
    .map(|()| ExitCode::SUCCESS)
}

/// Output format of `dcds check` (and, mapped onto [`LintFormat`], `lint`).
#[derive(Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Text,
    Json,
}

/// Verification engine of `dcds check`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// Build the explicit finite abstraction, then model-check on it.
    Explicit,
    /// Regression-based backward reachability (AG/EF safety fragment only,
    /// no boundedness requirement).
    Symbolic,
}

fn parse_engine(args: &[String]) -> Result<Engine, String> {
    match string_flag(args, "--engine")?.as_deref() {
        None | Some("explicit") => Ok(Engine::Explicit),
        Some("symbolic") => Ok(Engine::Symbolic),
        Some(other) => Err(format!("unknown engine `{other}` (explicit|symbolic)")),
    }
}

fn parse_format(args: &[String]) -> Result<OutputFormat, String> {
    match string_flag(args, "--format")?.as_deref() {
        None | Some("text") => Ok(OutputFormat::Text),
        Some("json") => Ok(OutputFormat::Json),
        Some(other) => Err(format!("unknown format `{other}` (text|json)")),
    }
}

fn load(path: &str) -> Result<Dcds, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_dcds(&src).map_err(|e| format!("{path}: {e}"))
}

fn analyze(path: &str, obs_cli: &ObsCli) -> Result<(), String> {
    let obs = obs_cli.session("analyze", path)?;
    let run_span = span!(obs, "run", command = "analyze");
    let dcds = {
        let _s = span!(obs, "parse_spec");
        load(path)?
    };
    println!(
        "{}: {} relations, {} services ({}), {} actions, {} rules, |I0| = {}",
        path,
        dcds.data.schema.len(),
        dcds.process.services.len(),
        if dcds.is_deterministic() {
            "all deterministic"
        } else if dcds.is_nondeterministic() {
            "all nondeterministic"
        } else {
            "mixed"
        },
        dcds.process.actions.len(),
        dcds.process.rules.len(),
        dcds.data.initial.len(),
    );
    let (dg, wa) = {
        let _s = span!(obs, "weak_acyclicity");
        let dg = dependency_graph(&dcds);
        let wa = is_weakly_acyclic(&dg);
        (dg, wa)
    };
    println!("weakly acyclic: {wa}");
    if !wa {
        if let Some(cycle) = weak_cycle_witness(&dg) {
            // Witness rendering is a human diagnostic: stderr.
            eprintln!(
                "  cycle through a special edge: {}",
                render_dep_cycle(&cycle, &dg, &dcds.data.schema)
            );
        }
    }
    if wa {
        if let Some(ranks) = position_ranks(&dg) {
            println!(
                "  max position rank: {}",
                ranks.iter().copied().max().unwrap_or(0)
            );
        }
        if dcds.is_deterministic() {
            println!("  ⇒ run-bounded (Thm 4.7); µLA decidable (Thm 4.8)");
            if let Some(bound) = run_bound_estimate(&dcds, &dg) {
                println!("  Thm 4.7 run bound (proof artifact): {bound:.3e}");
            }
        } else {
            eprintln!(
                "  (weak acyclicity implies run-boundedness only for deterministic \
                 services — this system has nondeterministic ones; see the GR verdicts)"
            );
        }
    }
    let (df, gr, grp) = {
        let _s = span!(obs, "gr_acyclicity");
        let df = dataflow_graph(&dcds);
        let gr = gr_acyclicity::is_gr_acyclic(&df);
        let grp = gr_acyclicity::is_gr_plus_acyclic(&df);
        (df, gr, grp)
    };
    println!("GR-acyclic: {gr}");
    println!("GR+-acyclic: {grp}");
    if gr {
        if let Some(bound) = state_bound_estimate(&dcds, &df) {
            println!("  Thm 5.6 state bound (proof artifact): {bound:.3e}");
        }
    }
    if grp {
        println!("  ⇒ state-bounded (Thm 5.6); µLP decidable via RCYCL (Thm 5.7)");
    } else if let Some(w) = gr_acyclicity::gr_plus_witness(&df) {
        eprintln!("  unexcused generate→recall pattern:");
        for line in gr_acyclicity::render_witness(&w, &df, &dcds).lines() {
            eprintln!("    {line}");
        }
    }
    obs.counter_add("analyze.relations", dcds.data.schema.len() as u64);
    obs.counter_add("analyze.actions", dcds.process.actions.len() as u64);
    drop(run_span);
    obs_cli.finish(&obs)
}

/// Build the finite abstraction — RCYCL for nondeterministic services,
/// the Thm 4.3 abstraction for deterministic ones — with its states in
/// the state store. `abstract` reads its summary straight off the store;
/// only the dot output and the model checker materialise an owned `Ts`.
fn build_abstraction(
    dcds: &Dcds,
    max_states: usize,
    threads: usize,
    obs: &Obs,
) -> (CompactTs, ConstantPool, bool, &'static str, EngineCounters) {
    if !dcds.is_deterministic() {
        let res = rcycl_compact_traced(dcds, max_states, threads, obs);
        return (
            res.ts,
            res.pool,
            res.complete,
            "RCYCL pruning (Thm 5.4)",
            res.counters,
        );
    }
    let opts = AbsOptions {
        threads,
        ..AbsOptions::default()
    };
    let abs = det_abstraction_compact_traced(dcds, max_states, opts, obs);
    (
        abs.ts,
        abs.pool,
        abs.outcome == AbsOutcome::Complete,
        "deterministic abstraction (Thm 4.3)",
        abs.counters,
    )
}

/// Human-readable store-stats line (stderr commentary, not a result).
fn report_store_stats(stats: &StoreStats) {
    eprintln!(
        "compact store: {} bytes, {} facts interned, {} delta / {} root states, \
         delta share {:.1}%",
        stats.bytes,
        stats.facts_interned,
        stats.delta_states,
        stats.root_states,
        stats.delta_share() * 100.0
    );
}

fn do_abstract(
    path: &str,
    max_states: usize,
    threads: usize,
    dot: bool,
    obs_cli: &ObsCli,
) -> Result<(), String> {
    let obs = obs_cli.session("abstract", path)?;
    let run_span = span!(obs, "run", command = "abstract");
    let dcds = {
        let _s = span!(obs, "parse_spec");
        load(path)?
    };
    let (ts, pool, complete, how, counters) = build_abstraction(&dcds, max_states, threads, &obs);
    println!(
        "{how}: {} states, {} edges, max |adom(state)| = {}, complete = {complete}",
        ts.num_states(),
        ts.num_edges(),
        ts.max_state_adom()
    );
    println!(
        "engine ({threads} thread{}): {counters}",
        if threads == 1 { "" } else { "s" }
    );
    if let Some(rate) = counters.sig_hit_rate() {
        eprintln!(
            "signature fast path resolved {:.1}% of dedup probes",
            rate * 100.0
        );
    }
    report_store_stats(&ts.store_stats());
    if !complete {
        eprintln!(
            "note: budget of {max_states} states hit — the system may be run-/state-unbounded; \
             see `dcds analyze` for the static verdicts"
        );
    }
    if dot {
        println!("{}", ts.to_ts().to_dot(&dcds.data.schema, &pool));
    }
    drop(run_span);
    obs_cli.finish(&obs)
}

fn do_check(
    path: &str,
    formula: &str,
    max_states: usize,
    threads: usize,
    witness: bool,
    format: OutputFormat,
    obs_cli: &ObsCli,
) -> Result<ExitCode, String> {
    let obs = obs_cli.session("check", path)?;
    let run_span = span!(obs, "run", command = "check");
    let dcds = {
        let _s = span!(obs, "parse_spec");
        load(path)?
    };
    let mut schema = dcds.data.schema.clone();
    let mut pool_for_parse = dcds.data.pool.clone();
    let phi = parse_mu(formula, &mut schema, &mut pool_for_parse).map_err(|e| e.to_string())?;
    let fragment = classify(&phi).map_err(|e| e.to_string())?;
    let (compact, pool, complete, how, counters) =
        build_abstraction(&dcds, max_states, threads, &obs);
    report_store_stats(&compact.store_stats());
    let ts = compact.to_ts();
    drop(compact);
    let run = check_traced(&phi, &ts, McOptions { threads }, &obs).map_err(|e| e.to_string())?;
    let verdict = run.holds;
    match format {
        OutputFormat::Json => {
            // One JSON object: the machine-readable counterpart of the
            // text report, counters included (serde-free `to_json`).
            println!(
                "{{\"fragment\":\"{}\",\"abstraction\":{{\"how\":\"{}\",\"states\":{},\
                 \"edges\":{},\"complete\":{}}},\"engine_counters\":{},\"mc_counters\":{},\
                 \"verdict\":{}}}",
                json_escape(&format!("{fragment:?}")),
                json_escape(how),
                ts.num_states(),
                ts.num_edges(),
                complete,
                counters.to_json(),
                run.counters.to_json(),
                verdict
            );
        }
        OutputFormat::Text => {
            println!("fragment: {fragment:?}");
            println!(
                "abstraction: {how}, {} states, complete = {complete}",
                ts.num_states()
            );
            if !complete {
                eprintln!(
                    "WARNING: the abstraction is truncated; the verdict is only valid \
                     up to the budget"
                );
            }
            eprintln!(
                "mc engine ({threads} thread{}): {}",
                if threads == 1 { "" } else { "s" },
                run.counters
            );
            if let Some(rate) = run.counters.cache_hit_rate() {
                eprintln!(
                    "query-extension cache resolved {:.1}% of extension requests",
                    rate * 100.0
                );
            }
            println!("verdict: {verdict}");
        }
    }
    if witness && !verdict {
        if let Some(path_states) = diagnostics::counterexample_ag(&phi, &ts) {
            eprintln!(
                "shortest path to a violating state:\n  {}",
                diagnostics::render_path(&path_states, &ts, &dcds.data.schema, &pool)
            );
        }
    }
    if witness && verdict {
        if let Some(w) = diagnostics::witness_ef(&phi, &ts) {
            eprintln!(
                "a satisfying state (shortest path):\n  {}",
                diagnostics::render_path(&w, &ts, &dcds.data.schema, &pool)
            );
        }
    }
    drop(run_span);
    obs_cli.finish(&obs)?;
    Ok(ExitCode::from(if !complete {
        EXIT_INCONCLUSIVE
    } else if verdict {
        EXIT_HOLDS
    } else {
        EXIT_VIOLATED
    }))
}

/// `dcds check --engine symbolic`: decide an AG/EF safety property by
/// regression-based backward reachability. Same exit-code and output-stream
/// contract as the explicit engine; no boundedness requirement on the spec.
fn do_check_symbolic(
    path: &str,
    formula: &str,
    opts: SymOptions,
    witness: bool,
    format: OutputFormat,
    obs_cli: &ObsCli,
) -> Result<ExitCode, String> {
    let obs = obs_cli.session("check", path)?;
    let run_span = span!(obs, "run", command = "check");
    let dcds = {
        let _s = span!(obs, "parse_spec");
        load(path)?
    };
    let mut schema = dcds.data.schema.clone();
    let mut pool_for_parse = dcds.data.pool.clone();
    let phi = parse_mu(formula, &mut schema, &mut pool_for_parse).map_err(|e| e.to_string())?;
    let fragment = classify(&phi).map_err(|e| e.to_string())?;
    let run = check_safety_traced(&dcds, &phi, &opts, &obs).map_err(|e| e.to_string())?;
    let mode = match run.mode {
        SafetyMode::AlwaysGood => "AG",
        SafetyMode::EventuallyBad => "EF",
    };
    // Counters are commentary, not a result: stderr.
    let counters_line: Vec<String> = run
        .counters
        .entries()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    eprintln!("symbolic engine: {}", counters_line.join(" "));
    let (code, trace) = match &run.verdict {
        SymVerdict::Holds(tr) => (EXIT_HOLDS, tr.as_ref()),
        SymVerdict::Violated(tr) => (EXIT_VIOLATED, tr.as_ref()),
        SymVerdict::Inconclusive(_) => (EXIT_INCONCLUSIVE, None),
    };
    match format {
        OutputFormat::Json => {
            let (verdict, reason) = match &run.verdict {
                SymVerdict::Holds(_) => ("true".to_string(), String::new()),
                SymVerdict::Violated(_) => ("false".to_string(), String::new()),
                SymVerdict::Inconclusive(r) => (
                    "null".to_string(),
                    format!(",\"reason\":\"{}\"", json_escape(r)),
                ),
            };
            println!(
                "{{\"fragment\":\"{}\",\"engine\":\"symbolic\",\"mode\":\"{mode}\",\
                 \"sym_counters\":{},\"verdict\":{verdict}{reason}}}",
                json_escape(&format!("{fragment:?}")),
                run.counters.to_json(),
            );
        }
        OutputFormat::Text => {
            println!("fragment: {fragment:?}");
            println!("engine: symbolic backward reachability, mode = {mode}");
            match &run.verdict {
                SymVerdict::Holds(_) => println!("verdict: true"),
                SymVerdict::Violated(_) => println!("verdict: false"),
                SymVerdict::Inconclusive(r) => println!("verdict: inconclusive ({r})"),
            }
        }
    }
    if witness {
        if let Some(tr) = trace {
            let what = match run.mode {
                SafetyMode::AlwaysGood => "counterexample trace",
                SafetyMode::EventuallyBad => "witness trace",
            };
            eprint!("{what}:\n{}", render_trace(tr, &dcds));
        }
    }
    drop(run_span);
    obs_cli.finish(&obs)?;
    Ok(ExitCode::from(code))
}

fn do_run(path: &str, steps: usize, seed: u64) -> Result<(), String> {
    let dcds = load(path)?;
    let schema = dcds.data.schema.clone();
    let mut runner = Runner::new(dcds, AnswerPolicy::Random { seed });
    println!(
        "s0: {}",
        InstanceDisplay::new(runner.current(), &schema, runner.pool())
    );
    for i in 1..=steps {
        let stepped = runner.step_any().map(|r| r.action).map_err(|e| e.clone());
        match stepped {
            Ok(action) => {
                let name = runner.dcds().process.actions[action.index()].name.clone();
                println!(
                    "s{i}: --{name}--> {}",
                    InstanceDisplay::new(runner.current(), &schema, runner.pool())
                );
            }
            Err(e) => {
                println!("s{i}: {e}");
                break;
            }
        }
    }
    Ok(())
}

fn do_dot(path: &str, which: &str) -> Result<(), String> {
    let dcds = load(path)?;
    match which {
        "dataflow" => println!("{}", dataflow_dot(&dataflow_graph(&dcds), &dcds)),
        "depgraph" => println!("{}", depgraph_dot(&dependency_graph(&dcds), &dcds)),
        other => return Err(format!("unknown graph `{other}` (dataflow|depgraph)")),
    }
    Ok(())
}

fn do_fmt(path: &str) -> Result<(), String> {
    let dcds = load(path)?;
    print!("{}", to_spec(&dcds));
    Ok(())
}

/// Output format of `dcds lint`.
enum LintFormat {
    /// rustc-style text with source snippets.
    Text,
    /// One JSON object per line.
    Json,
}

/// `dcds lint`: exit 0 clean, 1 on errors (or warnings under `--deny
/// warnings`), 2 when the spec does not even parse (the syntax error is
/// itself rendered as a `DCDS000` diagnostic).
fn do_lint(
    path: &str,
    deny_warnings: bool,
    format: LintFormat,
    obs_cli: &ObsCli,
) -> Result<ExitCode, String> {
    let obs = obs_cli.session("lint", path)?;
    let run_span = span!(obs, "run", command = "lint");
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let emit = |d: &Diagnostic| match format {
        LintFormat::Text => print!("{}", render_text(d, path, &src)),
        LintFormat::Json => println!("{}", render_json(d, path)),
    };
    let report = {
        let _s = span!(obs, "lint", bytes = src.len());
        match dcds_verify::core::parse_spec(&src) {
            Ok(spec) => lint_spec(&spec),
            Err(e) => {
                let d = Diagnostic::error(codes::PARSE_ERROR, e.message.clone())
                    .at(dcds_verify::folang::Span::new(e.line, e.col));
                emit(&d);
                obs_cli.finish(&obs)?;
                return Ok(ExitCode::from(2));
            }
        }
    };
    for d in &report.diagnostics {
        emit(d);
    }
    obs.counter_add("lint.errors", report.errors() as u64);
    obs.counter_add("lint.warnings", report.warnings() as u64);
    obs.counter_add("lint.notes", report.notes() as u64);
    if matches!(format, LintFormat::Text) {
        let (e, w, n) = (report.errors(), report.warnings(), report.notes());
        println!("{path}: {e} error(s), {w} warning(s), {n} note(s)");
    }
    let failed = report.has_errors() || (deny_warnings && report.warnings() > 0);
    drop(run_span);
    obs_cli.finish(&obs)?;
    Ok(ExitCode::from(if failed { 1 } else { 0 }))
}
