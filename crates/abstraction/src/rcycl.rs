//! Algorithm RCYCL (Appendix C.3): constructing an eventually recycling
//! pruning of the concrete transition system of a DCDS with
//! nondeterministic services.
//!
//! Pseudocode from the paper, realised faithfully:
//!
//! ```text
//! Σ := {I₀}; ⇒ := ∅; UsedValues := ADOM(I₀); Visited := ∅
//! repeat
//!   pick state I ∈ Σ, action α, legal σ with (I, α, σ) ∉ Visited
//!   RecyclableValues := UsedValues − (ADOM(I₀) ∪ ADOM(I))
//!   pick V with |V| = |CALLS(DO(I, α, σ))|:
//!     V ⊆ RecyclableValues if enough recyclable values exist,
//!     else V ⊂ C − UsedValues (fresh)
//!   F := ADOM(I₀) ∪ ADOM(I) ∪ V
//!   for each θ ∈ EVALS_F(I, α, σ) with DO(I,α,σ)θ ⊨ E:
//!     Σ ∪= {I_next}; ⇒ ∪= {(I, I_next)}; UsedValues ∪= ADOM(I_next)
//!   Visited ∪= {(I, α, σ)}
//! until Σ and ⇒ no longer change
//! ```
//!
//! The nondeterministic "picks" are resolved deterministically (worklist
//! order; lowest recyclable values first), which Theorem 5.4 explicitly
//! allows ("the particular choices and their order do not matter"). For a
//! state-bounded input every run terminates with a finite eventually
//! recycling pruning `Θ_S ∼ Υ_S`; for state-unbounded inputs we stop at
//! `max_states` and report truncation.
//!
//! States live in a [`StateStore`]: each state is a delta over the state it
//! was stepped from, every fact payload is interned once, and the worklist
//! carries each queued state's copy-on-write [`InstanceIndex`] (derived from
//! its parent's via [`InstanceIndex::rebuild_delta`], so expanding a state
//! never rebuilds the path groups of relations the transition left alone).
//! Deduplication is the store's exact-hash lookup: the pruning recycles
//! values, so isomorphic states really are equal.

use crate::det_abs::publish_store_gauges;
use dcds_core::do_op::{
    do_action_indexed, legal_assignments_indexed, publish_query_stats_delta, query_stats_snapshot,
    state_index, PreInstance,
};
use dcds_core::nondet::{evals_over, nondet_step_with_pre};
use dcds_core::par::{configured_threads, par_map_obs, EngineCounters};
use dcds_core::{CompactTs, Dcds, StateId, Ts};
use dcds_obs::{event, span, Obs};
use dcds_reldata::{ConstantPool, Facts, Instance, InstanceIndex, StateRef, StateStore, Value};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Result of running RCYCL, materialised as an owned [`Ts`].
#[derive(Debug, Clone)]
pub struct RcyclResult {
    /// The pruning (a transition system over instances).
    pub ts: Ts,
    /// Did the algorithm saturate (true) or hit `max_states` (false)?
    pub complete: bool,
    /// All values ever used (the final `UsedValues`).
    pub used_values: BTreeSet<Value>,
    /// Number of `(I, α, σ)` triples processed.
    pub triples_processed: usize,
    /// The constant pool extended with minted fresh values.
    pub pool: ConstantPool,
    /// Observability counters. RCYCL deduplicates by *exact* instance
    /// equality (the pruning recycles values, so isomorphic states really
    /// are equal), hence the canonicalisation counters stay zero here;
    /// `states_expanded` / `successors_generated` are the load metrics.
    pub counters: EngineCounters,
}

/// Result of RCYCL with the pruning's states held in the store.
#[derive(Debug)]
pub struct CompactRcycl {
    /// The pruning, states in the store.
    pub ts: CompactTs,
    /// Did the algorithm saturate (true) or hit `max_states` (false)?
    pub complete: bool,
    /// All values ever used (the final `UsedValues`).
    pub used_values: BTreeSet<Value>,
    /// Number of `(I, α, σ)` triples processed.
    pub triples_processed: usize,
    /// The constant pool extended with minted fresh values.
    pub pool: ConstantPool,
    /// Observability counters; see [`RcyclResult::counters`].
    pub counters: EngineCounters,
}

/// Run Algorithm RCYCL with a state budget and the configured thread count
/// (see [`configured_threads`]).
///
/// The `EVALS_F` enumeration is `|F|^n` for `n` calls per step; steps whose
/// enumeration would exceed an internal budget (2·10^4 evaluations) are
/// skipped and the result is marked incomplete — exactly the honest
/// behaviour for state-unbounded systems such as Example 5.3, whose call
/// count doubles every step. (State-bounded systems sit far below the
/// budget: their per-step call count is fixed by the specification and
/// their `F` recycles a bounded value pool.)
pub fn rcycl(dcds: &Dcds, max_states: usize) -> RcyclResult {
    rcycl_opts(dcds, max_states, configured_threads())
}

/// [`rcycl`] with an explicit worker-thread count: [`rcycl_compact_opts`]
/// with the pruning materialised by [`CompactTs::to_ts`].
pub fn rcycl_opts(dcds: &Dcds, max_states: usize, threads: usize) -> RcyclResult {
    let res = rcycl_compact_opts(dcds, max_states, threads);
    RcyclResult {
        ts: res.ts.to_ts(),
        complete: res.complete,
        used_values: res.used_values,
        triples_processed: res.triples_processed,
        pool: res.pool,
        counters: res.counters,
    }
}

/// Run RCYCL with an explicit worker-thread count, keeping the pruning in
/// the store. Output is identical for every `threads` value (including 1,
/// the serial ablation baseline).
///
/// Unlike the deterministic abstraction, RCYCL's outer loop cannot be
/// level-parallelised without changing the answer: `UsedValues` evolves
/// per `(I, α, σ)` triple and feeds the very next triple's
/// `RecyclableValues` pick. What *is* embarrassingly parallel is the inside
/// of a triple — the up-to-`|F|^n` evaluations θ are independent
/// constraint-checked query evaluations against one shared `DO(I, ασ)`
/// pre-instance — and the per-state `DO` precomputation. Both are farmed
/// out with [`par_map`](dcds_core::par::par_map) and merged serially in
/// enumeration order, so the pruning, `UsedValues`, and the pool match the
/// serial run exactly.
pub fn rcycl_compact_opts(dcds: &Dcds, max_states: usize, threads: usize) -> CompactRcycl {
    rcycl_compact_traced(dcds, max_states, threads, &Obs::disabled())
}

/// [`rcycl_compact_opts`] with an observability handle: one span per
/// dequeued state, θ-fan-out metrics, `store.*` gauges, and rate-limited
/// heartbeats. A disabled handle makes this exactly `rcycl_compact_opts`.
pub fn rcycl_compact_traced(
    dcds: &Dcds,
    max_states: usize,
    threads: usize,
    obs: &Obs,
) -> CompactRcycl {
    const MAX_EVALS_PER_STEP: f64 = 20_000.0;
    let _run = span!(obs, "rcycl", threads = threads, max_states = max_states);
    let query_stats0 = query_stats_snapshot(dcds);
    let rigid = dcds.rigid_constants();
    let num_rels = dcds.data.schema.len() as u32;
    let threads = threads.max(1);
    let mut pool = dcds.working_pool();
    let mut counters = EngineCounters::default();
    let paths = dcds.plans().access_paths();

    let mut store = StateStore::new();
    let r0 = store
        .insert(None, &Facts::from_instance(&dcds.data.initial))
        .state;
    let mut refs: Vec<StateRef> = vec![r0];
    let mut succ: Vec<Vec<StateId>> = vec![Vec::new()];
    let mut used_values: BTreeSet<Value> = dcds.data.initial.active_domain();
    used_values.extend(rigid.iter().copied());

    // Worklist of states whose (α, σ) triples are not yet Visited. Legality
    // depends only on I, so one pass per state suffices: each state is
    // enqueued once, when it is added.
    let idx0 = Arc::new(state_index(dcds, &dcds.data.initial));
    let mut queue: VecDeque<(StateId, Arc<InstanceIndex>)> = VecDeque::new();
    queue.push_back((StateId::from_index(0), idx0));
    let mut complete = true;
    let mut triples = 0usize;

    while let Some((sid, state_idx)) = queue.pop_front() {
        counters.states_expanded += 1;
        // No levels to hang events on: report every 1024 dequeued states.
        if counters.states_expanded % 1024 == 0 {
            event!(
                obs,
                "progress",
                engine = "rcycl",
                expanded = counters.states_expanded,
                states = refs.len(),
                queued = queue.len(),
                triples = triples,
                store_bytes = store.stats().bytes,
            );
        }
        let mut state_span = span!(obs, "rcycl_state", queue = queue.len());
        obs.heartbeat(|| {
            format!(
                "rcycl: {} states, {} queued, {} triples processed",
                refs.len(),
                queue.len(),
                triples
            )
        });
        let parent_ref = refs[sid.index()];
        let inst = store.instance(parent_ref, num_rels);
        let parent_ids = store.resolve(parent_ref);
        // `DO(I, ασ)` depends only on the state, not on `UsedValues`:
        // precompute every triple's pre-instance in parallel.
        let triples_for_state = legal_assignments_indexed(dcds, &inst, Some(&state_idx));
        let pres: Vec<PreInstance> =
            par_map_obs(&triples_for_state, threads, obs, "do", |(action, sigma)| {
                do_action_indexed(dcds, &inst, *action, sigma, Some(&state_idx))
            });
        state_span.set("triples", pres.len() as u64);
        for pre in &pres {
            triples += 1;
            let calls = pre.calls();
            let n = calls.len();
            // RecyclableValues := UsedValues − (ADOM(I₀) ∪ ADOM(I)).
            let mut recyclable: Vec<Value> = used_values
                .iter()
                .copied()
                .filter(|v| !rigid.contains(v) && !inst.active_domain().contains(v))
                .collect();
            recyclable.sort_unstable();
            let v_set: Vec<Value> = if recyclable.len() >= n {
                recyclable.into_iter().take(n).collect()
            } else {
                // Fresh values from C − UsedValues.
                (0..n).map(|_| pool.mint("v")).collect()
            };
            // F := ADOM(I₀) ∪ ADOM(I) ∪ V.
            let mut f_set: BTreeSet<Value> = inst.active_domain();
            f_set.extend(rigid.iter().copied());
            f_set.extend(v_set.iter().copied());
            if (f_set.len() as f64).powi(n as i32) > MAX_EVALS_PER_STEP {
                complete = false;
                obs.counter_add("rcycl.eval_budget_skips", 1);
                continue;
            }
            // The θ fan-out: independent evaluations of one pre-instance,
            // merged below in enumeration order.
            let thetas = evals_over(&calls, &f_set);
            obs.histogram("rcycl.theta_fanout", thetas.len() as u64);
            let nexts: Vec<Option<Instance>> =
                par_map_obs(&thetas, threads, obs, "theta", |theta| {
                    nondet_step_with_pre(dcds, pre, theta)
                });
            for next in nexts.into_iter().flatten() {
                counters.successors_generated += 1;
                let facts = Facts::from_instance(&next);
                // Look up before inserting: an over-budget successor must
                // leave no trace in the (append-only) store, or its
                // dedup entry would later alias a never-allocated id.
                let next_id = match store.find(&facts) {
                    Some(existing) => StateId::from_index(existing.index()),
                    None => {
                        if refs.len() >= max_states {
                            complete = false;
                            continue;
                        }
                        let ins = store.insert_child(parent_ref, &parent_ids, &facts);
                        debug_assert!(!ins.existing);
                        let id = StateId::from_index(refs.len());
                        debug_assert_eq!(ins.state.index(), id.index());
                        refs.push(ins.state);
                        succ.push(Vec::new());
                        let child_idx = match store.delta_rels(ins.state, num_rels) {
                            Some(touched) => InstanceIndex::rebuild_delta(
                                &state_idx,
                                &next,
                                &touched,
                                paths.iter().cloned(),
                            ),
                            None => state_index(dcds, &next),
                        };
                        queue.push_back((id, Arc::new(child_idx)));
                        id
                    }
                };
                used_values.extend(next.active_domain());
                let out = &mut succ[sid.index()];
                if !out.contains(&next_id) {
                    out.push(next_id);
                }
            }
        }
        publish_store_gauges(obs, &store);
    }

    obs.counter_add("rcycl.triples_processed", triples as u64);
    obs.gauge_max("rcycl.used_values", used_values.len() as i64);
    counters.publish(obs, "rcycl");
    publish_query_stats_delta(dcds, obs, &query_stats0);
    event!(
        obs,
        "progress",
        engine = "rcycl",
        expanded = counters.states_expanded,
        states = refs.len(),
        queued = 0u64,
        triples = triples,
        store_bytes = store.stats().bytes,
    );
    obs.progress_flush(|| {
        format!(
            "rcycl done: {} states, {triples} triples (complete: {complete})",
            refs.len()
        )
    });

    CompactRcycl {
        ts: CompactTs::from_parts(store, refs, succ, num_rels),
        complete,
        used_values,
        triples_processed: triples,
        pool,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_core::{DcdsBuilder, ServiceKind};

    /// Example 4.3 under nondeterministic services (Example 5.1 / Fig. 7).
    fn example_5_1() -> Dcds {
        DcdsBuilder::new()
            .relation("R", 1)
            .relation("Q", 1)
            .service("f", 1, ServiceKind::Nondeterministic)
            .init_fact("R", &["a"])
            .action("alpha", &[], |a| {
                a.effect("R(X)", "Q(f(X))");
                a.effect("Q(X)", "R(X)");
            })
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    /// Example 5.2 (state-unbounded accumulator).
    fn example_5_2() -> Dcds {
        DcdsBuilder::new()
            .relation("R", 1)
            .relation("Q", 1)
            .service("f", 1, ServiceKind::Nondeterministic)
            .init_fact("R", &["a"])
            .action("alpha", &[], |a| {
                a.effect("R(X)", "R(X)");
                a.effect("R(X)", "Q(f(X))");
                a.effect("Q(X)", "Q(X)");
            })
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    #[test]
    fn example_5_1_terminates_small() {
        // Figure 7b: the pruning is tiny (states of size 1; f's results are
        // recycled). The paper draws 4 states; our deterministic pick order
        // may produce a slightly different—but finite and bisimilar—pruning.
        let res = rcycl(&example_5_1(), 100);
        assert!(res.complete);
        assert!(res.ts.num_states() <= 10, "got {}", res.ts.num_states());
        assert_eq!(res.ts.max_state_adom(), 1);
    }

    #[test]
    fn example_5_2_truncates() {
        // State-unbounded: Q accumulates fresh values; RCYCL cannot
        // saturate.
        let res = rcycl(&example_5_2(), 80);
        assert!(!res.complete);
        assert_eq!(res.ts.num_states(), 80);
        // Growing states witness the unboundedness.
        assert!(res.ts.max_state_adom() >= 3);
    }

    #[test]
    fn every_state_satisfies_constraints() {
        let dcds = example_5_1();
        let res = rcycl(&dcds, 100);
        for s in res.ts.state_ids() {
            assert!(dcds.data.satisfies_constraints(res.ts.db(s)));
        }
    }

    #[test]
    fn pruning_is_finitely_branching() {
        let res = rcycl(&example_5_1(), 100);
        for s in res.ts.state_ids() {
            assert!(res.ts.successors(s).len() <= 4);
        }
    }

    #[test]
    fn thread_counts_agree_exactly() {
        // The θ fan-out parallelism must not change the pruning: same
        // states in the same order, same edges, same UsedValues, same pool.
        for (dcds, budget) in [(example_5_1(), 100usize), (example_5_2(), 80)] {
            let runs: Vec<RcyclResult> = [1usize, 2, 8]
                .into_iter()
                .map(|t| rcycl_opts(&dcds, budget, t))
                .collect();
            for other in &runs[1..] {
                assert_eq!(runs[0].ts, other.ts);
                assert_eq!(runs[0].complete, other.complete);
                assert_eq!(runs[0].used_values, other.used_values);
                assert_eq!(runs[0].triples_processed, other.triples_processed);
                assert_eq!(runs[0].pool.len(), other.pool.len());
                assert_eq!(runs[0].counters, other.counters);
            }
        }
    }

    #[test]
    fn recycling_bounds_used_values() {
        // For the state-bounded example the total set of used values stays
        // small (3b-style bound), far below what unbounded minting would
        // produce.
        let res = rcycl(&example_5_1(), 100);
        assert!(res.used_values.len() <= 6, "got {}", res.used_values.len());
    }
}
