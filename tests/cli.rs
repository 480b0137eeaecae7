//! Smoke tests for the `dcds` command-line interface, driving the real
//! binary over the spec files in `specs/`.

use std::process::Command;

/// Run the binary; returns (exit code, combined stdout+stderr).
fn dcds_code(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dcds"))
        .args(args)
        .output()
        .expect("binary runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().expect("not killed by signal"), text)
}

fn dcds(args: &[&str]) -> (bool, String) {
    let (code, text) = dcds_code(args);
    (code == 0, text)
}

/// Run the binary; returns (exit code, stdout, stderr) separately, for the
/// tests that pin the stdout/stderr routing contract.
fn dcds_streams(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dcds"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code().expect("not killed by signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn spec(name: &str) -> String {
    format!("{}/specs/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn analyze_ping_pong() {
    let (ok, text) = dcds(&["analyze", &spec("ping_pong.dcds")]);
    assert!(ok, "{text}");
    assert!(text.contains("weakly acyclic: false"));
    assert!(text.contains("GR-acyclic: true"));
    assert!(text.contains("state-bounded"));
}

#[test]
fn analyze_accumulator_renders_witness() {
    let (ok, text) = dcds(&["analyze", &spec("accumulator.dcds")]);
    assert!(ok, "{text}");
    assert!(text.contains("GR+-acyclic: false"));
    assert!(text.contains("recall cycle pi3"));
}

#[test]
fn analyze_travel_request() {
    let (ok, text) = dcds(&["analyze", &spec("travel_request.dcds")]);
    assert!(ok, "{text}");
    assert!(text.contains("GR-acyclic: false"));
    assert!(text.contains("GR+-acyclic: true"));
}

#[test]
fn check_verdicts_witnesses_and_exit_codes() {
    // Exit 0: property holds on a complete abstraction.
    let (code, text) = dcds_code(&[
        "check",
        &spec("ping_pong.dcds"),
        "nu Z . (exists X . live(X) & (R(X) | Q(X))) & [] Z",
        "--witness",
    ]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("fragment: MuLP"));
    assert!(text.contains("verdict: true"));
    assert!(text.contains("mc engine"), "{text}");

    // Exit 1: property violated, with a counterexample path.
    let (code2, text2) = dcds_code(&[
        "check",
        &spec("ping_pong.dcds"),
        "nu Z . (exists X . live(X) & R(X)) & [] Z",
        "--witness",
    ]);
    assert_eq!(code2, 1, "{text2}");
    assert!(text2.contains("verdict: false"));
    assert!(text2.contains("violating state"));
}

#[test]
fn check_truncated_abstraction_is_inconclusive() {
    // Exit 2: the state budget cuts the abstraction short.
    let (code, text) = dcds_code(&[
        "check",
        &spec("travel_request.dcds"),
        "nu Z . true & [] Z",
        "--max-states",
        "3",
    ]);
    assert_eq!(code, 2, "{text}");
    assert!(text.contains("truncated"), "{text}");
}

#[test]
fn check_rejects_open_formulas_by_name() {
    let (code, text) = dcds_code(&["check", &spec("ping_pong.dcds"), "live(X) & R(X)"]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("error:"), "{text}");
    assert!(text.contains("not closed"), "{text}");
    assert!(text.contains('X'), "{text}");
}

#[test]
fn check_threads_agree_and_zero_is_rejected() {
    let phi = "nu Z . (exists X . live(X) & (R(X) | Q(X))) & [] Z";
    let (c1, t1) = dcds_code(&["check", &spec("ping_pong.dcds"), phi, "--threads", "1"]);
    let (c2, t2) = dcds_code(&["check", &spec("ping_pong.dcds"), phi, "--threads", "2"]);
    assert_eq!(c1, 0, "{t1}");
    assert_eq!(c2, 0, "{t2}");
    // Identical counters and verdict at every thread count: compare the
    // thread-independent report lines.
    let strip = |t: &str| {
        t.lines()
            .filter(|l| !l.starts_with("mc engine"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&t1), strip(&t2));
    // The counters line differs only in its thread-count prefix.
    let tail = |t: &str| {
        t.lines()
            .find(|l| l.starts_with("mc engine"))
            .map(|l| l.split(':').nth(1).unwrap().to_owned())
    };
    assert_eq!(tail(&t1), tail(&t2), "counters must not depend on threads");

    let (c0, t0) = dcds_code(&["check", &spec("ping_pong.dcds"), phi, "--threads", "0"]);
    assert_ne!(c0, 0);
    assert!(t0.contains("--threads must be at least 1"), "{t0}");

    let (ca, ta) = dcds_code(&["abstract", &spec("ping_pong.dcds"), "--threads", "0"]);
    assert_ne!(ca, 0);
    assert!(ta.contains("--threads must be at least 1"), "{ta}");
}

#[test]
fn check_format_json_is_one_object_on_stdout() {
    let (code, stdout, stderr) = dcds_streams(&[
        "check",
        &spec("ping_pong.dcds"),
        "nu Z . (exists X . live(X) & (R(X) | Q(X))) & [] Z",
        "--format",
        "json",
    ]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    let line = stdout.trim();
    assert_eq!(line.lines().count(), 1, "one JSON object: {stdout}");
    assert!(line.starts_with("{\"fragment\":"), "{line}");
    assert!(line.ends_with('}'), "{line}");
    assert!(line.contains("\"abstraction\":{\"how\":"), "{line}");
    assert!(
        line.contains("\"engine_counters\":{\"states_expanded\":"),
        "{line}"
    );
    assert!(
        line.contains("\"mc_counters\":{\"query_state_evals\":"),
        "{line}"
    );
    assert!(line.contains("\"verdict\":true"), "{line}");
    // Human commentary must not contaminate the machine stream.
    assert!(!stdout.contains("mc engine"), "{stdout}");
}

#[test]
fn check_compact_format_json_keeps_stdout_clean() {
    // Every explicit run adds a human store-stats line; it must land on
    // stderr so stdout stays exactly one machine-readable JSON object,
    // byte-for-byte parseable by `jq`-style consumers — for both semantics.
    for (spec_name, formula, budget, code_want, how) in [
        (
            "ping_pong.dcds",
            "nu Z . (exists X . live(X) & (R(X) | Q(X))) & [] Z",
            "10000",
            0,
            "RCYCL pruning (Thm 5.4)",
        ),
        (
            "unbounded_safe.dcds",
            "nu Z . true & [] Z",
            "40",
            2,
            "deterministic abstraction (Thm 4.3)",
        ),
    ] {
        let (code, stdout, stderr) = dcds_streams(&[
            "check",
            &spec(spec_name),
            formula,
            "--max-states",
            budget,
            "--format",
            "json",
        ]);
        assert_eq!(code, code_want, "{stdout}{stderr}");
        let line = stdout.trim();
        assert_eq!(line.lines().count(), 1, "one JSON object: {stdout}");
        assert!(line.starts_with("{\"fragment\":"), "{line}");
        assert!(line.ends_with('}'), "{line}");
        assert!(line.contains(&format!("\"how\":\"{how}\"")), "{line}");
        assert!(line.contains("\"verdict\":true"), "{line}");
        assert!(!stdout.contains("compact store"), "{stdout}");
        assert!(!stdout.contains("mc engine"), "{stdout}");
        // The human commentary lives on stderr.
        assert!(stderr.contains("compact store: "), "{stderr}");
    }
}

#[test]
fn abstract_summary_is_the_same_with_and_without_dot() {
    // `abstract` reads its summary off the state store; `--dot`
    // materialises the system to draw it. Both must report the same
    // system, for either semantics: stdout without `--dot` is a prefix of
    // stdout with it, and the store-stats line is on stderr either way.
    for (spec_name, budget, how) in [
        (
            "unbounded_safe.dcds",
            "40",
            "deterministic abstraction (Thm 4.3): 40 states",
        ),
        ("ping_pong.dcds", "10000", "RCYCL pruning (Thm 5.4): "),
    ] {
        let spec_path = spec(spec_name);
        let run = |extra: &[&str]| {
            let mut args = vec![
                "abstract",
                spec_path.as_str(),
                "--max-states",
                budget,
                "--threads",
                "2",
            ];
            args.extend_from_slice(extra);
            let (code, stdout, stderr) = dcds_streams(&args);
            assert_eq!(code, 0, "{stdout}{stderr}");
            assert!(stderr.contains("compact store: "), "{stderr}");
            stdout
        };
        let summary = run(&[]);
        let with_dot = run(&["--dot"]);
        assert!(summary.starts_with(how), "{summary}");
        assert_eq!(summary.lines().count(), 2, "summary + engine: {summary}");
        assert!(with_dot.starts_with(&summary), "{with_dot}");
        assert!(with_dot[summary.len()..].contains("digraph"), "{with_dot}");
    }
}

#[test]
fn check_obs_flags_write_trace_and_metrics() {
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("dcds_cli_trace_{}.json", std::process::id()));
    let metrics = dir.join(format!("dcds_cli_metrics_{}.json", std::process::id()));
    let (code, stdout, stderr) = dcds_streams(&[
        "check",
        &spec("travel_request.dcds"),
        "nu Z . true & [] Z",
        "--max-states",
        "200",
        "--trace",
        trace.to_str().unwrap(),
        "--stats",
        "--metrics-json",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    // stdout: the machine-readable report only.
    assert!(stdout.contains("verdict: true"), "{stdout}");
    assert!(!stdout.contains("span summary"), "{stdout}");
    // stderr: the --stats summary and the trace-written note.
    assert!(stderr.contains("== span summary"), "{stderr}");
    assert!(stderr.contains("== counters =="), "{stderr}");
    assert!(stderr.contains("trace:"), "{stderr}");

    let t = std::fs::read_to_string(&trace).unwrap();
    assert!(t.starts_with("{\"displayTimeUnit\""), "{t}");
    assert!(t.contains("\"ph\":\"X\""));
    assert!(!t.contains("\"ph\":\"B\""), "complete events only");
    let m = std::fs::read_to_string(&metrics).unwrap();
    assert!(m.starts_with("{\"counters\":{"), "{m}");
    assert!(m.contains("rcycl.triples_processed"), "{m}");
    assert!(m.contains("mc.query_state_evals"), "{m}");
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&metrics);
}

/// Run the binary with extra environment variables set.
fn dcds_streams_env(args: &[&str], envs: &[(&str, &str)]) -> (i32, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dcds"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("binary runs");
    (
        out.status.code().expect("not killed by signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn abstract_profile_writes_folded_stacks_covering_the_run() {
    let dir = std::env::temp_dir();
    let profile = dir.join(format!("dcds_cli_profile_{}.folded", std::process::id()));
    let events = dir.join(format!("dcds_cli_profile_ev_{}.jsonl", std::process::id()));
    let (code, _stdout, stderr) = dcds_streams(&[
        "abstract",
        &spec("travel_request.dcds"),
        "--max-states",
        "200",
        "--profile",
        profile.to_str().unwrap(),
        "--profile-alloc",
        "--events",
        events.to_str().unwrap(),
        "--stats",
    ]);
    assert_eq!(code, 0, "{stderr}");
    // The --stats table gains allocation columns under --profile-alloc.
    assert!(stderr.contains("== top spans (self time) =="), "{stderr}");
    assert!(stderr.contains("alloc"), "{stderr}");

    // Every folded line is `path;seg;... weight`; the driver paths (the
    // non-`workers` trees) partition the root's inclusive time, so their
    // self-time sum is the root's folded total.
    let folded = std::fs::read_to_string(&profile).unwrap();
    let mut driver_self_us = 0u64;
    for line in folded.lines() {
        let (path, weight) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("folded line without weight: {line}"));
        let w: u64 = weight
            .parse()
            .unwrap_or_else(|_| panic!("bad weight: {line}"));
        assert!(!path.is_empty());
        if !path.starts_with("workers") {
            driver_self_us += w;
        }
    }
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("run ") || l.starts_with("run;")),
        "root `run` span missing: {folded}"
    );

    // The allocation-weighted companion exists and attributes real bytes.
    let alloc = std::fs::read_to_string(format!("{}.alloc", profile.display())).unwrap();
    let alloc_total: u64 = alloc
        .lines()
        .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
        .sum();
    assert!(alloc_total > 0, "no bytes attributed: {alloc}");

    // The folded root total accounts for the run's wall clock (within 5%,
    // plus a small absolute slack for sub-millisecond runs).
    let ev = std::fs::read_to_string(&events).unwrap();
    let last = ev.lines().last().unwrap();
    assert!(last.contains("\"type\":\"run_end\""), "{ev}");
    let wall_us: u64 = last
        .split("\"wall_us\":")
        .nth(1)
        .and_then(|rest| rest.split(&[',', '}'][..]).next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("run_end without wall_us: {last}"));
    let slack = (wall_us / 20).max(2_000);
    assert!(
        driver_self_us + slack >= wall_us && driver_self_us <= wall_us + slack,
        "folded root {driver_self_us}µs vs wall {wall_us}µs"
    );
    let _ = std::fs::remove_file(&profile);
    let _ = std::fs::remove_file(format!("{}.alloc", profile.display()));
    let _ = std::fs::remove_file(&events);
}

#[test]
fn check_events_stream_has_lifecycle_and_monotonic_seq() {
    let dir = std::env::temp_dir();
    let events = dir.join(format!("dcds_cli_events_{}.jsonl", std::process::id()));
    let (code, _stdout, stderr) = dcds_streams(&[
        "check",
        &spec("travel_request.dcds"),
        "nu Z . true & [] Z",
        "--max-states",
        "200",
        "--events",
        events.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stderr}");
    let text = std::fs::read_to_string(&events).unwrap();
    let first = text.lines().next().unwrap();
    assert!(first.contains("\"type\":\"run_start\""), "{first}");
    assert!(first.contains("\"command\":\"check\""), "{first}");
    assert!(first.contains("travel_request.dcds"), "{first}");
    let last = text.lines().last().unwrap();
    assert!(last.contains("\"type\":\"run_end\""), "{last}");
    // Engine progress and model-checker fixpoint iterations are on the
    // stream, with strictly increasing sequence numbers.
    assert!(text.contains("\"type\":\"progress\""), "{text}");
    assert!(text.contains("\"type\":\"fixpoint\""), "{text}");
    let mut last_seq = None;
    for line in text.lines() {
        let seq: u64 = line
            .split("\"seq\":")
            .nth(1)
            .and_then(|rest| rest.split(&[',', '}'][..]).next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("event line without seq: {line}"));
        if let Some(prev) = last_seq {
            assert!(seq > prev, "seq went {prev} -> {seq}");
        }
        last_seq = Some(seq);
    }
    let _ = std::fs::remove_file(&events);
}

#[test]
fn progress_always_flushes_a_final_line_on_short_runs() {
    // The interval is an hour, so the rate limiter never fires mid-run —
    // but the final flush still reports the outcome, so a short run under
    // DCDS_PROGRESS is never silent.
    let (code, _stdout, stderr) = dcds_streams_env(
        &[
            "abstract",
            &spec("travel_request.dcds"),
            "--max-states",
            "200",
        ],
        &[("DCDS_PROGRESS", "3600s")],
    );
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains("[dcds +"), "{stderr}");
    assert!(stderr.contains("rcycl done:"), "{stderr}");
    assert!(stderr.contains("run finished in"), "{stderr}");
}

#[test]
fn abstract_metrics_json_dash_goes_to_stdout() {
    let (code, stdout, stderr) =
        dcds_streams(&["abstract", &spec("ping_pong.dcds"), "--metrics-json", "-"]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(stdout.contains("{\"counters\":{"), "{stdout}");
    assert!(stdout.contains("\"gauges\":{"), "{stdout}");
}

#[test]
fn analyze_stats_summary_lands_on_stderr() {
    let (code, stdout, stderr) = dcds_streams(&["analyze", &spec("ping_pong.dcds"), "--stats"]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(stderr.contains("analyze.relations"), "{stderr}");
    assert!(stdout.contains("weakly acyclic"), "{stdout}");
    assert!(!stdout.contains("analyze.relations"), "{stdout}");
}

#[test]
fn run_accepts_full_u64_seeds() {
    // u64::MAX used to be rejected (or truncated) by the usize round trip.
    let (ok, text) = dcds(&[
        "run",
        &spec("ping_pong.dcds"),
        "--steps",
        "2",
        "--seed",
        "18446744073709551615",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("s2:"), "{text}");
}

#[test]
fn deeply_nested_formula_is_a_parse_error_not_a_crash() {
    let bomb = format!("{}true{}", "(".repeat(50_000), ")".repeat(50_000));
    let (code, text) = dcds_code(&["check", &spec("ping_pong.dcds"), &bomb]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("nesting"), "{text}");
}

#[test]
fn abstract_and_run_and_dot_and_fmt() {
    let (ok, text) = dcds(&[
        "abstract",
        &spec("travel_request.dcds"),
        "--max-states",
        "5000",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("complete = true"));

    let (ok2, text2) = dcds(&[
        "run",
        &spec("ping_pong.dcds"),
        "--steps",
        "4",
        "--seed",
        "7",
    ]);
    assert!(ok2, "{text2}");
    assert!(text2.contains("s4:"));

    let (ok3, text3) = dcds(&["dot", &spec("ping_pong.dcds"), "--graph", "dataflow"]);
    assert!(ok3, "{text3}");
    assert!(text3.contains("digraph dataflow"));

    // fmt output re-parses (write it to a temp file and analyze it).
    let (ok4, text4) = dcds(&["fmt", &spec("travel_request.dcds")]);
    assert!(ok4, "{text4}");
    let tmp = std::env::temp_dir().join("dcds_fmt_roundtrip.dcds");
    std::fs::write(&tmp, &text4).unwrap();
    let (ok5, text5) = dcds(&["analyze", tmp.to_str().unwrap()]);
    assert!(ok5, "fmt output must reparse: {text5}\n---\n{text4}");
}

#[test]
fn symbolic_engine_exit_codes() {
    // Exit 0: AG property proved by fixpoint, no boundedness involved.
    let (code, text) = dcds_code(&[
        "check",
        &spec("ping_pong.dcds"),
        "nu Z . (! (exists X . exists Y . R(X) & Q(Y))) & [] Z",
        "--engine",
        "symbolic",
    ]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("mode = AG"), "{text}");
    assert!(text.contains("verdict: true"), "{text}");

    // Exit 0: EF property confirmed with a concrete witness trace.
    let (code2, stdout2, stderr2) = dcds_streams(&[
        "check",
        &spec("ping_pong.dcds"),
        "mu Z . (exists X . Q(X)) | <> Z",
        "--engine",
        "symbolic",
        "--witness",
    ]);
    assert_eq!(code2, 0, "{stdout2}{stderr2}");
    assert!(stdout2.contains("verdict: true"), "{stdout2}");
    assert!(stderr2.contains("witness trace"), "{stderr2}");
    assert!(stderr2.contains("state 0 (initial)"), "{stderr2}");

    // Exit 1: AG property refuted, with a counterexample trace.
    let (code3, stdout3, stderr3) = dcds_streams(&[
        "check",
        &spec("ping_pong.dcds"),
        "nu Z . (! (exists X . Q(X))) & [] Z",
        "--engine",
        "symbolic",
        "--witness",
    ]);
    assert_eq!(code3, 1, "{stdout3}{stderr3}");
    assert!(stdout3.contains("verdict: false"), "{stdout3}");
    assert!(stderr3.contains("counterexample trace"), "{stderr3}");

    // Exit 2: the iteration budget cuts the regression short.
    let (code4, text4) = dcds_code(&[
        "check",
        &spec("accumulator.dcds"),
        "mu Z . (exists X . exists Y . Q(X) & Q(Y) & ! X = Y) | <> Z",
        "--engine",
        "symbolic",
        "--max-iters",
        "1",
    ]);
    assert_eq!(code4, 2, "{text4}");
    assert!(text4.contains("inconclusive"), "{text4}");
}

#[test]
fn symbolic_format_json_is_one_object_on_stdout() {
    let (code, stdout, stderr) = dcds_streams(&[
        "check",
        &spec("ping_pong.dcds"),
        "nu Z . (! (exists X . exists Y . R(X) & Q(Y))) & [] Z",
        "--engine",
        "symbolic",
        "--format",
        "json",
    ]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    let line = stdout.trim();
    assert_eq!(line.lines().count(), 1, "one JSON object: {stdout}");
    assert!(line.starts_with("{\"fragment\":"), "{line}");
    assert!(line.ends_with('}'), "{line}");
    assert!(line.contains("\"engine\":\"symbolic\""), "{line}");
    assert!(line.contains("\"mode\":\"AG\""), "{line}");
    assert!(line.contains("\"sym_counters\":{\"iterations\":"), "{line}");
    assert!(line.contains("\"verdict\":true"), "{line}");
    // Counters commentary stays off the machine stream.
    assert!(!stdout.contains("symbolic engine:"), "{stdout}");
    assert!(stderr.contains("symbolic engine:"), "{stderr}");

    // Inconclusive verdicts surface as null with a reason.
    let (code2, stdout2, _) = dcds_streams(&[
        "check",
        &spec("accumulator.dcds"),
        "mu Z . (exists X . exists Y . Q(X) & Q(Y) & ! X = Y) | <> Z",
        "--engine",
        "symbolic",
        "--max-iters",
        "1",
        "--format",
        "json",
    ]);
    assert_eq!(code2, 2, "{stdout2}");
    let line2 = stdout2.trim();
    assert!(line2.contains("\"verdict\":null"), "{line2}");
    assert!(line2.contains("\"reason\":"), "{line2}");
}

#[test]
fn symbolic_engine_decides_what_the_explicit_engines_cannot() {
    // `unbounded_safe.dcds` chases a deterministic service forever: the
    // static analysis refuses the run-boundedness certificate and the
    // explicit abstraction hits any budget (exit 2) — but the symbolic
    // engine proves the AG property outright (exit 0).
    let (ok, text) = dcds(&["analyze", &spec("unbounded_safe.dcds")]);
    assert!(ok, "{text}");
    assert!(text.contains("weakly acyclic: false"), "{text}");

    let phi = "nu Z . (forall Y . Flag(Y) -> Y = 'ok') & [] Z";
    let (explicit, etext) = dcds_code(&[
        "check",
        &spec("unbounded_safe.dcds"),
        phi,
        "--max-states",
        "50",
    ]);
    assert_eq!(explicit, 2, "{etext}");
    assert!(etext.contains("truncated"), "{etext}");

    let (symbolic, stext) = dcds_code(&[
        "check",
        &spec("unbounded_safe.dcds"),
        phi,
        "--engine",
        "symbolic",
    ]);
    assert_eq!(symbolic, 0, "{stext}");
    assert!(stext.contains("verdict: true"), "{stext}");
}

#[test]
fn symbolic_engine_rejects_non_safety_formulas() {
    // Outside the AG/EF fragment: ordinary error path, not a verdict.
    let (code, text) = dcds_code(&[
        "check",
        &spec("ping_pong.dcds"),
        "nu Z . (exists X . live(X) & (R(X) | Q(X))) & [] Z",
        "--engine",
        "symbolic",
    ]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("error:"), "{text}");

    let (code2, text2) = dcds_code(&[
        "check",
        &spec("ping_pong.dcds"),
        "nu Z . true & [] Z",
        "--engine",
        "bogus",
    ]);
    assert_eq!(code2, 1, "{text2}");
    assert!(text2.contains("unknown engine"), "{text2}");
}

#[test]
fn check_format_without_value_is_a_usage_error() {
    let (code, text) = dcds_code(&[
        "check",
        &spec("ping_pong.dcds"),
        "nu Z . true & [] Z",
        "--format",
    ]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("error: --format needs a value"), "{text}");
    assert!(!text.contains("verdict: "), "{text}");
}

#[test]
fn check_engine_without_value_is_a_usage_error() {
    let (code, text) = dcds_code(&[
        "check",
        &spec("ping_pong.dcds"),
        "nu Z . true & [] Z",
        "--engine",
    ]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("error: --engine needs a value"), "{text}");
    assert!(!text.contains("verdict: "), "{text}");
}

#[test]
fn dot_graph_without_value_is_a_usage_error() {
    let (code, text) = dcds_code(&["dot", &spec("ping_pong.dcds"), "--graph"]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("error: --graph needs a value"), "{text}");
    assert!(!text.contains("digraph"), "{text}");
}

#[test]
fn errors_are_reported() {
    let (ok, text) = dcds(&["analyze", "/nonexistent.dcds"]);
    assert!(!ok);
    assert!(text.contains("cannot read"));
    let (ok2, text2) = dcds(&["frobnicate"]);
    assert!(!ok2);
    assert!(text2.contains("unknown command"));
    let (ok3, text3) = dcds(&["check", &spec("ping_pong.dcds"), "nu Z . Nope(X) & [] Z"]);
    assert!(!ok3);
    assert!(text3.contains("unknown relation"), "{text3}");
}
