//! Seeded engine-level differential over synthetic families and
//! SplitMix64-seeded random systems, at 1, 2, 4 and 8 worker threads.
//! Each store engine is checked against a small sequential reference
//! that keeps owned states and skips every optimisation:
//!
//! * **Det abstraction:** the store engine (`det_abstraction_opts`, which
//!   decodes the `⟨I, M⟩` states from the store) must agree with
//!   [`reference_det`] on the transition system (states in the same
//!   order, same edges), the decoded states, the outcome and the minted
//!   constant pool; its counters must be the same at every thread count
//!   and every `level_chunk`.
//! * **RCYCL:** the store engine must agree with [`reference_rcycl`], a
//!   sequential transcription of Algorithm RCYCL as the paper writes it.

use dcds_abstraction::{det_abstraction_opts, rcycl_compact_opts, AbsOptions, AbsOutcome};
use dcds_bench::synthetic::{self, RandomParams};
use dcds_bench::{examples, travel};
use dcds_core::det::det_successors_by_commitment;
use dcds_core::nondet::{evals_over, nondet_step_with_pre};
use dcds_core::{
    do_action, legal_assignments, Dcds, DetState, EngineCounters, ServiceKind, StateId, Ts,
};
use dcds_reldata::{Facts, Instance, Value};
use std::collections::{BTreeSet, HashMap, VecDeque};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// What [`reference_det`] computes.
struct DetReference {
    ts: Ts,
    states: Vec<DetState>,
    outcome: AbsOutcome,
    pool_len: usize,
}

/// The Thm 4.3 abstraction as written: a FIFO BFS over
/// `det_successors_by_commitment` that deduplicates each successor by
/// pairwise `Facts::isomorphic` against every admitted class — no
/// signature index, canonical keys, worker threads, store or query index.
/// Budget rule of the engine: a new class past `max_states` is dropped and
/// marks the result truncated; edges to existing classes are still kept.
fn reference_det(dcds: &Dcds, max_states: usize) -> DetReference {
    let rigid = dcds.rigid_constants();
    let num_rels = dcds.data.schema.len();
    let mut pool = dcds.working_pool();
    let s0 = DetState::initial(dcds);
    let mut ts = Ts::new(s0.instance.clone());
    let mut classes: Vec<Facts> = vec![s0.to_facts(num_rels)];
    let mut states = vec![s0];
    let mut outcome = AbsOutcome::Complete;
    let mut queue: VecDeque<StateId> = VecDeque::from([ts.initial()]);

    while let Some(sid) = queue.pop_front() {
        let successors = det_successors_by_commitment(dcds, &states[sid.index()], &mut pool);
        for (_action, _sigma, _commitment, next) in successors {
            let facts = next.to_facts(num_rels);
            let next_id = match classes.iter().position(|c| c.isomorphic(&facts, &rigid)) {
                Some(ix) => StateId::from_index(ix),
                None => {
                    if ts.num_states() >= max_states {
                        outcome = AbsOutcome::Truncated;
                        continue;
                    }
                    let id = ts.add_state(next.instance.clone());
                    classes.push(facts);
                    states.push(next);
                    queue.push_back(id);
                    id
                }
            };
            ts.add_edge(sid, next_id);
        }
    }
    DetReference {
        ts,
        states,
        outcome,
        pool_len: pool.len(),
    }
}

fn assert_det_matches_reference(dcds: &Dcds, budget: usize) {
    let reference = reference_det(dcds, budget);
    let mut counters: Option<EngineCounters> = None;
    for threads in THREAD_COUNTS {
        let opts = AbsOptions {
            threads,
            ..AbsOptions::default()
        };
        let engine = det_abstraction_opts(dcds, budget, opts);
        assert_eq!(
            engine.ts, reference.ts,
            "det ts diverged at {threads} threads"
        );
        assert_eq!(
            engine.states, reference.states,
            "det states diverged at {threads} threads"
        );
        assert_eq!(engine.outcome, reference.outcome);
        assert_eq!(engine.pool.len(), reference.pool_len);
        let base = counters.get_or_insert(engine.counters);
        assert_eq!(
            engine.counters, *base,
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
    assert_det_matches_reference(&synthetic::service_chain(6), 400);
    assert_det_matches_reference(&synthetic::service_cycle(4), 400);
    assert_det_matches_reference(&synthetic::parallel_rings(2), 300);
}

#[test]
fn det_store_sink_matches_owned_on_collision_heavy_family() {
    // Thousands of isomorphism classes behind a handful of signatures:
    // the keyed class index must make the same dedup decisions as the
    // pairwise scan even when whole levels collide.
    assert_det_matches_reference(&synthetic::collision_pairs(7), 400);
}

#[test]
fn det_engine_matches_reference_on_paper_examples() {
    // Examples 4.1 and 4.2 saturate; Example 4.3 is run-unbounded and is
    // cut at its budget.
    assert_det_matches_reference(&examples::example_4_1(), 200);
    assert_det_matches_reference(&examples::example_4_2(), 200);
    assert_det_matches_reference(&examples::example_4_3(ServiceKind::Deterministic), 60);
}

#[test]
fn det_engine_matches_reference_on_travel_audit() {
    assert_det_matches_reference(&travel::audit_system_small(), 80);
}

#[test]
fn det_compact_level_chunking_is_output_invariant() {
    // The BFS steps wide levels in `level_chunk`-sized batches to bound
    // transient allocation. Chunking must not change anything observable:
    // force pathologically small chunks (so every level spans many chunk
    // boundaries) and require bit-identity with the default-chunk run —
    // same Ts, same decoded states, same pool, same counters, at every
    // thread count.
    for dcds in [
        synthetic::service_chain(6),
        synthetic::collision_pairs(7),
        synthetic::parallel_rings(2),
    ] {
        for threads in [1, 4] {
            let opts = |level_chunk| AbsOptions {
                threads,
                level_chunk,
            };
            let baseline = det_abstraction_opts(&dcds, 400, opts(4096));
            for level_chunk in [1, 3, 64, 4096] {
                let chunked = det_abstraction_opts(&dcds, 400, opts(level_chunk));
                let what = format!("chunk {level_chunk}, {threads} threads");
                assert_eq!(chunked.ts, baseline.ts, "ts diverged at {what}");
                assert_eq!(chunked.states, baseline.states, "states diverged at {what}");
                assert_eq!(chunked.outcome, baseline.outcome);
                assert_eq!(chunked.pool.len(), baseline.pool.len());
                assert_eq!(
                    chunked.counters, baseline.counters,
                    "counters diverged at {what}"
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
        assert_det_matches_reference(&dcds, 300);
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
