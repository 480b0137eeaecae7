//! Seeded engine-level differential over synthetic families and
//! SplitMix64-seeded random systems, at 1, 2, 4 and 8 worker threads.
//!
//! * **Det abstraction:** the store sink (`det_abstraction_compact_opts`)
//!   must replay the owned sink (`det_abstraction_opts`)
//!   **bit-identically**: same transition system (states in the same
//!   order, same edges), same outcome, same minted constant pool, and the
//!   same value of every engine counter — including canonical keys
//!   computed and iso checks performed, i.e. the same dedup decisions, not
//!   just the same final answer.
//! * **RCYCL:** the store engine must agree with [`reference_rcycl`], a
//!   sequential transcription of Algorithm RCYCL as the paper writes it.

use dcds_abstraction::{
    det_abstraction_compact_opts, det_abstraction_opts, rcycl_compact_opts, AbsOptions,
};
use dcds_bench::synthetic::{self, RandomParams};
use dcds_core::nondet::{evals_over, nondet_step_with_pre};
use dcds_core::{do_action, legal_assignments, Dcds, EngineCounters, ServiceKind, StateId, Ts};
use dcds_reldata::{Instance, Value};
use std::collections::{BTreeSet, HashMap, VecDeque};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn assert_det_identical(dcds: &Dcds, budget: usize) {
    for threads in THREAD_COUNTS {
        let opts = AbsOptions {
            threads,
            ..AbsOptions::default()
        };
        let owned = det_abstraction_opts(dcds, budget, opts);
        let compact = det_abstraction_compact_opts(dcds, budget, opts);
        assert_eq!(
            compact.ts.to_ts(),
            owned.ts,
            "det ts diverged at {threads} threads"
        );
        assert_eq!(compact.outcome, owned.outcome);
        assert_eq!(compact.pool.len(), owned.pool.len());
        assert_eq!(
            compact.counters, owned.counters,
            "det counters diverged at {threads} threads"
        );
    }
}

/// What [`reference_rcycl`] computes.
struct Reference {
    ts: Ts,
    complete: bool,
    used_values: BTreeSet<Value>,
    triples: usize,
    pool_len: usize,
    counters: EngineCounters,
}

/// Algorithm RCYCL (Appendix C.3) as written: a FIFO worklist of states,
/// deduplication by exact instance equality in a `HashMap`, and every
/// `(I, α, σ)` triple processed in turn — no worker threads, no state
/// store, no query index. The nondeterministic picks are resolved the way
/// the engine documents: worklist order, lowest recyclable values first,
/// fresh values minted from the pool, and the same `|F|^n` budget on
/// `EVALS_F`.
fn reference_rcycl(dcds: &Dcds, max_states: usize) -> Reference {
    const MAX_EVALS_PER_STEP: f64 = 20_000.0;
    let rigid = dcds.rigid_constants();
    let mut pool = dcds.working_pool();
    let mut counters = EngineCounters::default();
    let mut ts = Ts::new(dcds.data.initial.clone());
    let mut ids: HashMap<Instance, StateId> = HashMap::new();
    ids.insert(dcds.data.initial.clone(), ts.initial());
    // UsedValues := ADOM(I₀).
    let mut used_values: BTreeSet<Value> = dcds.data.initial.active_domain();
    used_values.extend(rigid.iter().copied());
    let mut queue: VecDeque<StateId> = VecDeque::from([ts.initial()]);
    let mut complete = true;
    let mut triples = 0usize;

    while let Some(sid) = queue.pop_front() {
        counters.states_expanded += 1;
        let inst = ts.db(sid).clone();
        let adom = inst.active_domain();
        for (action, sigma) in legal_assignments(dcds, &inst) {
            triples += 1;
            let pre = do_action(dcds, &inst, action, &sigma);
            let calls = pre.calls();
            let n = calls.len();
            // RecyclableValues := UsedValues − (ADOM(I₀) ∪ ADOM(I)), in
            // ascending order.
            let recyclable: Vec<Value> = used_values
                .iter()
                .copied()
                .filter(|v| !rigid.contains(v) && !adom.contains(v))
                .collect();
            let v_set: Vec<Value> = if recyclable.len() >= n {
                recyclable[..n].to_vec()
            } else {
                (0..n).map(|_| pool.mint("v")).collect()
            };
            // F := ADOM(I₀) ∪ ADOM(I) ∪ V.
            let mut f_set = adom.clone();
            f_set.extend(rigid.iter().copied());
            f_set.extend(v_set);
            if (f_set.len() as f64).powi(n as i32) > MAX_EVALS_PER_STEP {
                complete = false;
                continue;
            }
            for theta in evals_over(&calls, &f_set) {
                let Some(next) = nondet_step_with_pre(dcds, &pre, &theta) else {
                    continue;
                };
                counters.successors_generated += 1;
                let next_id = match ids.get(&next) {
                    Some(&id) => id,
                    None => {
                        if ts.num_states() >= max_states {
                            complete = false;
                            continue;
                        }
                        let id = ts.add_state(next.clone());
                        ids.insert(next.clone(), id);
                        queue.push_back(id);
                        id
                    }
                };
                used_values.extend(next.active_domain());
                ts.add_edge(sid, next_id);
            }
        }
    }
    Reference {
        ts,
        complete,
        used_values,
        triples,
        pool_len: pool.len(),
        counters,
    }
}

fn assert_rcycl_matches_reference(dcds: &Dcds, budget: usize) {
    let reference = reference_rcycl(dcds, budget);
    for threads in THREAD_COUNTS {
        let engine = rcycl_compact_opts(dcds, budget, threads);
        assert_eq!(
            engine.ts.to_ts(),
            reference.ts,
            "rcycl ts diverged at {threads} threads"
        );
        assert_eq!(engine.complete, reference.complete);
        assert_eq!(engine.used_values, reference.used_values);
        assert_eq!(engine.triples_processed, reference.triples);
        assert_eq!(engine.pool.len(), reference.pool_len);
        assert_eq!(
            engine.counters, reference.counters,
            "rcycl counters diverged at {threads} threads"
        );
    }
}

#[test]
fn det_store_sink_matches_owned_on_synthetic_families() {
    assert_det_identical(&synthetic::service_chain(6), 400);
    assert_det_identical(&synthetic::service_cycle(4), 400);
    assert_det_identical(&synthetic::parallel_rings(2), 300);
}

#[test]
fn det_store_sink_matches_owned_on_collision_heavy_family() {
    // Thousands of isomorphism classes behind a handful of signatures:
    // both sinks must make the same dedup decisions (and counters) even
    // when whole levels collide.
    assert_det_identical(&synthetic::collision_pairs(7), 400);
}

#[test]
fn det_compact_level_chunking_is_output_invariant() {
    // The BFS steps wide levels in `level_chunk`-sized batches to bound
    // transient allocation. Chunking must not change anything observable:
    // force pathologically small chunks (so every level spans many chunk
    // boundaries) and require bit-identity of both sinks with the
    // default-chunk store run — same Ts, same states, same pool, same
    // counters, at every thread count.
    for dcds in [
        synthetic::service_chain(6),
        synthetic::collision_pairs(7),
        synthetic::parallel_rings(2),
    ] {
        for threads in [1, 4] {
            let opts = |level_chunk| AbsOptions {
                threads,
                level_chunk,
                ..AbsOptions::default()
            };
            let baseline = det_abstraction_compact_opts(&dcds, 400, opts(4096));
            let baseline_ts = baseline.ts.to_ts();
            let owned_baseline = det_abstraction_opts(&dcds, 400, opts(4096));
            for level_chunk in [1, 3, 64, 4096] {
                let chunked = det_abstraction_compact_opts(&dcds, 400, opts(level_chunk));
                let owned = det_abstraction_opts(&dcds, 400, opts(level_chunk));
                let what = format!("chunk {level_chunk}, {threads} threads");
                assert_eq!(
                    chunked.ts.to_ts(),
                    baseline_ts,
                    "store ts diverged at {what}"
                );
                assert_eq!(owned.ts, baseline_ts, "owned ts diverged at {what}");
                assert_eq!(
                    owned.states, owned_baseline.states,
                    "states diverged at {what}"
                );
                assert_eq!(chunked.outcome, baseline.outcome);
                assert_eq!(owned.outcome, baseline.outcome);
                assert_eq!(chunked.pool.len(), baseline.pool.len());
                assert_eq!(owned.pool.len(), baseline.pool.len());
                assert_eq!(
                    chunked.counters, baseline.counters,
                    "store counters diverged at {what}"
                );
                assert_eq!(
                    owned.counters, baseline.counters,
                    "owned counters diverged at {what}"
                );
            }
        }
    }
}

#[test]
fn rcycl_matches_reference_on_synthetic_families() {
    assert_rcycl_matches_reference(&synthetic::phased_rings(3), 500);
    assert_rcycl_matches_reference(&synthetic::flush_ladder(), 500);
    assert_rcycl_matches_reference(&synthetic::accumulator(2), 120);
}

#[test]
fn det_store_sink_matches_owned_on_seeded_random_systems() {
    for seed in [7, 21, 1977] {
        let dcds = synthetic::random_dcds(
            seed,
            RandomParams {
                kind: ServiceKind::Deterministic,
                ..RandomParams::default()
            },
        );
        assert_det_identical(&dcds, 300);
    }
}

#[test]
fn rcycl_matches_reference_on_seeded_random_systems() {
    for seed in [3, 1013] {
        let dcds = synthetic::random_dcds(
            seed,
            RandomParams {
                kind: ServiceKind::Nondeterministic,
                call_probability: 0.6,
                ..RandomParams::default()
            },
        );
        assert_rcycl_matches_reference(&dcds, 250);
    }
}
