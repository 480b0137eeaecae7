#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, tests. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --all-targets -- -D warnings

echo "== cargo test"
# `default-members` in the root Cargo.toml makes this cover every crate.
cargo test -q

echo "== benchmark link surface (e2ebench)"
# The spec-to-verdict benchmark is a package of its own that links the
# workspace crates as libraries; building and testing it here makes a
# rename of any library name it uses fail this gate, not the benchmark.
cargo test --release -q --manifest-path e2ebench/Cargo.toml

echo "== query-plan differential suite"
# Four-way differential (reference / nested-loop / plan-scan / plan+index)
# plus the engine-level thread-count invariance tests. Both are part of
# `cargo test` above; rerunning them by name keeps the gate loud if either
# target is ever renamed or feature-gated away.
cargo test -q -p dcds-folang --test plan_differential
cargo test -q -p dcds-bench --test plan_paths

echo "== symbolic-engine differential suite"
# Regression-based backward reachability vs the naive Kleene evaluator
# and the staged model checker on exact explicit abstractions: bounded
# shipped specs plus seeded-random weakly acyclic layered systems. Part
# of `cargo test` above; named rerun keeps the gate loud if the target
# is ever renamed.
cargo test -q --test symbolic_differential

echo "== compact-store differential suite"
# Arena/delta store vs owned-Instance oracle: materialisation-level
# (reldata) and engine-level at 1/2/4/8 threads — store engine vs
# sequential reference for both semantics: the det abstraction (decoded
# states included; counters thread- and level_chunk-invariant; the
# collision-heavy keyed-dedup family) and RCYCL. Part of `cargo test`
# above; named reruns keep the gate loud if a target is ever renamed.
cargo test -q -p dcds-reldata --test store_differential
cargo test -q -p dcds-bench --test compact_differential

echo "== compact-store memory smoke"
# Fixed 50k-state workloads through the compact engines; fails if the
# deterministic bytes-per-state estimate exceeds the pinned ceilings.
cargo run --release -q -p dcds-bench --bin memsmoke

echo "== perf regression smoke gate"
# One-rep run of the abstraction/mucalc/query stages (the heavyweight
# scale stage is skipped) compared against the committed BENCH_*.json
# baselines; writes BENCH_diff.json and fails on a gross regression.
# Thresholds are deliberately loose — smoke is best-of-1 on a shared
# machine — so only order-of-magnitude collapses trip here; the tight
# gates run with the full `perf_report --baseline` on dedicated hardware.
cargo run --release -q -p dcds-bench --bin perf_report -- \
    --smoke --baseline . --max-slowdown 6 --max-growth 2

echo "== cargo doc --no-deps (rustdoc warnings)"
# Intra-doc link breakage and malformed doc fences surface only here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "== cargo bench --no-run (bench-profile build)"
# Compiles no benchmark: every [[bench]] target requires the `criterion`
# feature, and no manifest declares a `criterion` dependency (the registry
# is unreachable offline), so cargo skips them all. What this step does
# check is that every library and binary still builds in the `bench`
# profile (optimised, with line tables), which no other step uses.
cargo bench --no-run

if [[ "${DCDS_PROPTEST:-0}" == "1" ]]; then
    echo "== proptest suites (DCDS_PROPTEST=1)"
    # Requires the `proptest` dev-dependency, which offline builds cannot
    # fetch; opt in from a networked environment.
    cargo test -q -p dcds-folang --features proptest --test eval_agreement
else
    echo "== proptest suites skipped (set DCDS_PROPTEST=1 to enable)"
fi

echo "All checks passed."
