//! Observability layer: instrumentation must be invisible to the engines.
//!
//! The contract has three parts:
//!
//! 1. **Tracing changes nothing** — a traced run produces the same
//!    abstraction / extension / counters as the untraced one;
//! 2. **Registry metrics are thread-count deterministic** — counters,
//!    gauges, and the non-`_us` histograms are bit-identical at 1, 2, 4,
//!    and 8 threads (timing histograms are excluded by the `_us` naming
//!    convention);
//! 3. **Exporters are well-formed** — the Chrome trace contains only
//!    complete (`X`) and metadata (`M`) events, and worker spans land on
//!    distinct tids;
//! 4. **Profiling flags change nothing** — `--profile`, `--profile-alloc`,
//!    and `--events` leave every deterministic metric bit-identical, and
//!    the folded-stack export is well-formed (every line `path weight`,
//!    driver self-time summing to the root's inclusive time).

use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Duration;

use dcds_verify::abstraction::{
    det_abstraction_compact_traced, det_abstraction_opts, rcycl_compact_traced, rcycl_opts,
    AbsOptions,
};
use dcds_verify::bench::{examples, travel};
use dcds_verify::core::par_map_obs;
use dcds_verify::folang::Formula;
use dcds_verify::mucalc::{check_traced, sugar, McOptions, Mu};
use dcds_verify::obs::export::chrome_trace;
use dcds_verify::obs::metrics::MetricsSnapshot;
use dcds_verify::obs::{aggregate, folded, span, EventSink, Obs, ObsConfig, SharedBuf, Weight};

/// Allocation attribution needs the counting allocator installed as the
/// process-global one; it delegates straight to `System` until a session
/// with `track_alloc` opens the gate.
#[global_allocator]
static ALLOC: dcds_verify::obs::alloc::CountingAlloc = dcds_verify::obs::alloc::CountingAlloc;

/// Tests that toggle the process-global allocation gate (`track_alloc`)
/// serialise on this lock so a parallel test cannot flip it mid-span.
static ALLOC_GATE: Mutex<()> = Mutex::new(());

fn alloc_gate() -> std::sync::MutexGuard<'static, ()> {
    ALLOC_GATE.lock().unwrap_or_else(|e| e.into_inner())
}

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn assert_snapshots_identical(name: &str, snapshots: &[MetricsSnapshot]) {
    let base = &snapshots[0];
    for (snap, threads) in snapshots[1..].iter().zip(&THREADS[1..]) {
        assert_eq!(
            base.counters, snap.counters,
            "{name}: counters differ at {threads} threads"
        );
        assert_eq!(
            base.gauges, snap.gauges,
            "{name}: gauges differ at {threads} threads"
        );
        assert_eq!(
            base.deterministic_histograms(),
            snap.deterministic_histograms(),
            "{name}: non-timing histograms differ at {threads} threads"
        );
    }
}

#[test]
fn det_abstraction_tracing_is_invisible_and_metrics_deterministic() {
    let dcds = travel::audit_system_small();
    let mut snapshots = Vec::new();
    for threads in THREADS {
        let opts = AbsOptions {
            threads,
            ..AbsOptions::default()
        };
        let obs = Obs::enabled(ObsConfig::default());
        let traced = det_abstraction_compact_traced(&dcds, 80, opts, &obs);
        let plain = det_abstraction_opts(&dcds, 80, opts);
        assert_eq!(
            traced.ts.to_ts(),
            plain.ts,
            "tracing changed the abstraction at {threads} threads"
        );
        assert_eq!(traced.outcome, plain.outcome);
        assert_eq!(traced.counters, plain.counters);
        snapshots.push(obs.finish().unwrap().metrics);
    }
    assert_snapshots_identical("det_abstraction", &snapshots);
    // The run left a real footprint in the registry.
    let m = &snapshots[0];
    assert!(m.counter("abs.states_expanded").unwrap() > 1);
    assert!(m.counter("abs.levels").unwrap() >= 1);
    assert!(m.gauge("abs.max_frontier").unwrap() >= 1);
    assert!(m.histogram("abs.frontier_states").unwrap().count >= 1);
    assert!(m.gauge("store.bytes").unwrap() > 0);
}

#[test]
fn rcycl_tracing_is_invisible_and_metrics_deterministic() {
    let dcds = travel::request_system_small();
    let mut snapshots = Vec::new();
    for threads in THREADS {
        let obs = Obs::enabled(ObsConfig::default());
        let traced = rcycl_compact_traced(&dcds, 150, threads, &obs);
        let plain = rcycl_opts(&dcds, 150, threads);
        assert_eq!(
            traced.ts.to_ts(),
            plain.ts,
            "tracing changed the pruning at {threads} threads"
        );
        assert_eq!(traced.used_values, plain.used_values);
        assert_eq!(traced.triples_processed, plain.triples_processed);
        assert_eq!(traced.counters, plain.counters);
        snapshots.push(obs.finish().unwrap().metrics);
    }
    assert_snapshots_identical("rcycl", &snapshots);
    let m = &snapshots[0];
    assert!(m.counter("rcycl.triples_processed").unwrap() > 1);
    assert!(m.gauge("rcycl.used_values").unwrap() > 1);
    assert!(m.histogram("rcycl.theta_fanout").unwrap().count >= 1);
}

#[test]
fn model_checker_metrics_are_thread_count_deterministic() {
    // Example 5.1 under RCYCL with the paper's µLP safety property.
    let e51 = examples::example_5_1();
    let pruning = rcycl_opts(&e51, 100, 1);
    assert!(pruning.complete);
    let r = e51.data.schema.rel_id("R").unwrap();
    let q = e51.data.schema.rel_id("Q").unwrap();
    let phi = sugar::ag(Mu::exists(
        "X",
        Mu::live("X").and(
            Mu::Query(Formula::Atom(r, vec![dcds_verify::folang::QTerm::var("X")])).or(Mu::Query(
                Formula::Atom(q, vec![dcds_verify::folang::QTerm::var("X")]),
            )),
        ),
    ));
    let mut snapshots = Vec::new();
    let mut runs = Vec::new();
    for threads in THREADS {
        let obs = Obs::enabled(ObsConfig::default());
        let run = check_traced(&phi, &pruning.ts, McOptions { threads }, &obs).unwrap();
        snapshots.push(obs.finish().unwrap().metrics);
        runs.push(run);
    }
    assert_snapshots_identical("mc", &snapshots);
    for run in &runs[1..] {
        assert_eq!(runs[0].holds, run.holds);
        assert_eq!(runs[0].extension, run.extension);
        assert_eq!(runs[0].counters, run.counters);
    }
    let m = &snapshots[0];
    assert!(m.counter("mc.fixpoint_iterations").unwrap() >= 1);
    assert!(m.counter("mc.query_state_evals").unwrap() >= 1);
}

#[test]
fn worker_spans_land_on_distinct_tids() {
    // 256 items is far above the parallel threshold, so par_map_obs opens
    // one "unit" span per worker thread, each on its own tid.
    let items: Vec<u64> = (0..256).collect();
    let obs = Obs::enabled(ObsConfig::default());
    let doubled = par_map_obs(&items, 4, &obs, "unit", |&x| x * 2);
    assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    let report = obs.finish().unwrap();
    let unit_tids: BTreeSet<u32> = report
        .events
        .iter()
        .filter(|e| e.name == "unit")
        .map(|e| e.tid)
        .collect();
    let unit_count = report.events.iter().filter(|e| e.name == "unit").count();
    assert_eq!(unit_count, 4, "one span per worker");
    assert_eq!(unit_tids.len(), 4, "each worker on its own tid");

    // The Chrome export labels those tids as separate tracks.
    let trace = chrome_trace(&report.events);
    assert!(trace.contains("\"name\":\"thread_name\""));
    assert!(trace.contains("worker-"));
}

#[test]
fn engine_chrome_trace_is_well_formed() {
    let obs = Obs::enabled(ObsConfig::default());
    let _ = det_abstraction_compact_traced(
        &travel::audit_system_small(),
        80,
        AbsOptions {
            threads: 2,
            ..AbsOptions::default()
        },
        &obs,
    );
    let report = obs.finish().unwrap();
    assert!(!report.events.is_empty());

    // Span nesting survives the merge: the overall engine span is
    // top-level, per-level spans are nested under it.
    assert!(report
        .events
        .iter()
        .any(|e| e.name == "det_abstraction" && e.depth == 0));
    assert!(report
        .events
        .iter()
        .any(|e| e.name == "frontier_level" && e.depth == 1));

    // Every event is a complete (X) or metadata (M) record; B/E pairs
    // never appear, so the file cannot be unbalanced.
    let trace = chrome_trace(&report.events);
    assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(trace.ends_with("]}"));
    let phases = trace.matches("\"ph\":\"").count();
    let complete = trace.matches("\"ph\":\"X\"").count();
    let metadata = trace.matches("\"ph\":\"M\"").count();
    assert_eq!(
        phases,
        complete + metadata,
        "unexpected phase kind: {trace}"
    );
    assert_eq!(complete, report.events.len());
}

#[test]
fn heartbeats_are_rate_limited() {
    // A long interval: the first heartbeat arms the limiter without
    // firing, so a tight burst evaluates no messages at all.
    let obs = Obs::enabled(ObsConfig {
        progress: Some(Duration::from_secs(3600)),
        ..ObsConfig::default()
    });
    let mut evaluated = 0u32;
    for _ in 0..100 {
        obs.heartbeat(|| {
            evaluated += 1;
            String::new()
        });
    }
    assert_eq!(evaluated, 0, "burst within the interval must not fire");

    // A zero interval fires on every call after arming.
    let obs = Obs::enabled(ObsConfig {
        progress: Some(Duration::ZERO),
        ..ObsConfig::default()
    });
    let mut evaluated = 0u32;
    for _ in 0..5 {
        obs.heartbeat(|| {
            evaluated += 1;
            "tick".into()
        });
    }
    assert_eq!(evaluated, 4, "zero interval fires after arming");

    // No progress configured: the closure is never even evaluated.
    let obs = Obs::enabled(ObsConfig::default());
    let mut evaluated = 0u32;
    obs.heartbeat(|| {
        evaluated += 1;
        String::new()
    });
    assert_eq!(evaluated, 0);
}

#[test]
fn profiling_flags_leave_metrics_bit_identical() {
    let _g = alloc_gate();
    let dcds = travel::audit_system_small();
    let mut plain = Vec::new();
    let mut flagged = Vec::new();
    for threads in THREADS {
        let opts = AbsOptions {
            threads,
            ..AbsOptions::default()
        };
        // Flags off.
        let obs = Obs::enabled(ObsConfig::default());
        let _ = det_abstraction_compact_traced(&dcds, 80, opts, &obs);
        plain.push(obs.finish().unwrap().metrics);

        // Every new flag on: allocation attribution plus an event stream.
        let buf = SharedBuf::new();
        let obs = Obs::enabled(ObsConfig {
            track_alloc: true,
            events: Some(EventSink::new(Box::new(buf.clone()))),
            ..ObsConfig::default()
        });
        let _ = det_abstraction_compact_traced(&dcds, 80, opts, &obs);
        flagged.push(obs.finish().unwrap().metrics);
        assert!(
            buf.contents().contains("\"type\":\"level\""),
            "the engine streamed per-level events"
        );
    }
    assert_snapshots_identical("flags-off", &plain);
    assert_snapshots_identical("flags-on", &flagged);
    // The flags did not leak into the registry either: off vs on agree.
    for (threads, (off, on)) in THREADS.iter().zip(plain.iter().zip(&flagged)) {
        assert_eq!(
            off.counters, on.counters,
            "profiling flags changed the counters at {threads} threads"
        );
        assert_eq!(off.gauges, on.gauges);
        assert_eq!(
            off.deterministic_histograms(),
            on.deterministic_histograms()
        );
    }
}

#[test]
fn engine_event_stream_is_typed_and_seq_ordered() {
    let buf = SharedBuf::new();
    let obs = Obs::enabled(ObsConfig {
        events: Some(EventSink::new(Box::new(buf.clone()))),
        ..ObsConfig::default()
    });
    let _ = det_abstraction_compact_traced(
        &travel::audit_system_small(),
        80,
        AbsOptions {
            threads: 2,
            ..AbsOptions::default()
        },
        &obs,
    );
    obs.finish();
    let text = buf.contents();
    let mut last_seq = None;
    for line in text.lines() {
        assert!(
            line.starts_with("{\"type\":\"") && line.ends_with('}'),
            "malformed event line: {line}"
        );
        let seq_field = line
            .split("\"seq\":")
            .nth(1)
            .and_then(|rest| rest.split(&[',', '}'][..]).next())
            .unwrap_or_else(|| panic!("event line without seq: {line}"));
        let seq: u64 = seq_field.parse().expect("seq is an integer");
        if let Some(prev) = last_seq {
            assert!(seq > prev, "seq not strictly increasing: {prev} then {seq}");
        }
        last_seq = Some(seq);
    }
    assert!(text.contains("\"type\":\"level\""));
    assert!(text.contains("\"dedup_hits\":"));
}

#[test]
fn folded_profile_is_well_formed_and_root_covers_the_run() {
    let _g = alloc_gate();
    let obs = Obs::enabled(ObsConfig {
        track_alloc: true,
        ..ObsConfig::default()
    });
    {
        let _run = span!(obs, "run", command = "test");
        let _ = det_abstraction_compact_traced(
            &travel::audit_system_small(),
            80,
            AbsOptions {
                threads: 2,
                ..AbsOptions::default()
            },
            &obs,
        );
    }
    let report = obs.finish().unwrap();
    let stats = aggregate(&report.events);

    // Every folded line is `path;seg;... weight` with a parseable weight.
    let folded_time = folded(&stats, Weight::SelfTimeUs);
    for line in folded_time.lines() {
        let (path, weight) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("folded line without a weight column: {line}"));
        assert!(!path.is_empty());
        assert!(
            weight.parse::<u64>().is_ok(),
            "non-numeric weight in: {line}"
        );
    }

    // Driver self time is a partition of the root's inclusive time: the
    // root's folded total accounts for the whole run (the flamegraph sums
    // to the wall clock of the driver thread).
    let root = stats.get("run").expect("root span path present");
    assert_eq!(root.count, 1);
    let driver_self: u64 = stats
        .iter()
        .filter(|(path, _)| !path.starts_with("workers"))
        .map(|(_, s)| s.self_us)
        .sum();
    assert_eq!(
        driver_self, root.incl_us,
        "driver self-time must sum to the root's inclusive time"
    );

    // Allocation attribution landed: the run allocated, and the root's
    // inclusive bytes cover its children.
    assert!(root.alloc_bytes > 0, "the abstraction allocates");
    let folded_alloc = folded(&stats, Weight::SelfAllocBytes);
    assert!(!folded_alloc.is_empty());
}

#[test]
fn disabled_handle_is_a_no_op() {
    let obs = Obs::disabled();
    assert!(!obs.is_enabled());
    {
        let mut g = span!(obs, "ghost", n = 1u64);
        g.set("more", 2u64);
    }
    obs.counter_add("c", 1);
    obs.gauge_max("g", 1);
    obs.histogram("h", 1);
    obs.time_us("t_us", obs.timer());
    assert!(
        obs.timer().is_none(),
        "disabled timer must not read the clock"
    );
    assert!(obs.finish().is_none());
}
