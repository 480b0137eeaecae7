//! Abstract transition system for deterministic services (Theorem 4.3).
//!
//! The concrete system is infinitely branching: at each step the new
//! service calls may return any constants. The abstraction keeps, per
//! reachable state and legal `ασ`, *one successor per equality commitment*
//! of the new calls against the state's known values, and then quotients
//! states by isomorphism of the full `⟨I, M⟩` structure (database + call
//! map) fixing the rigid constants. Theorem 4.3: for run-bounded systems
//! the result is finite and history-preserving bisimilar to the concrete
//! transition system; our tests machine-check instances of that statement
//! with the `dcds-bisim` checkers against bounded concrete prefixes.
//!
//! # Construction
//!
//! The BFS is **level-synchronised**. Each level is stepped in
//! [`AbsOptions::level_chunk`]-sized batches of frontier states, which
//! bounds the transient scratch (pre-instances, stepped successors) of a
//! wide level; every batch runs four phases, so the expensive work
//! parallelises while every order-sensitive effect stays serial:
//!
//! 1. *enumerate* (parallel): per frontier state, its query index, legal
//!    assignments, `DO(I, ασ)` pre-instances, and the equality commitments
//!    of the new calls — none of which touch the constant pool; a parallel
//!    *census* pass also builds each frontier state's value-occurrence
//!    census ([`dcds_reldata::SigCensus`]) so successor signatures can be
//!    derived incrementally instead of from scratch;
//! 2. *mint* (serial, frontier order): instantiate each commitment's fresh
//!    cells from the shared [`ConstantPool`] — the exact mint sequence a
//!    serial loop would produce;
//! 3. *step* (parallel, over all `(state, ασ, commitment)` tasks):
//!    [`det_step_with_pre`], the successor's [`Facts`] encoding, its
//!    invariant signature — derived from the source state's census by the
//!    fact diff — and, when the class index already has a matching
//!    signature group, its canonical key;
//! 4. *merge* (serial, task order): deduplicate against the class index,
//!    allocate state ids, record edges, apply the state budget.
//!
//! Because phases 2 and 4 run in global frontier/task order whatever the
//! batch size, the output (`Ts`, states, outcome, pool, counters) is
//! **bit-identical for every thread count and every `level_chunk`** —
//! `dcds_core::par::par_map` returns results in input order regardless of
//! scheduling. The determinism tests assert this.
//!
//! # States in the store
//!
//! Admitted classes live in a [`StateStore`]: each state is a delta over
//! its parent, every fact payload is interned once, and only the
//! frontier's `⟨I, M⟩` structures are alive at a time.
//! [`det_abstraction_compact_opts`] returns the store-backed
//! [`CompactTs`]; [`det_abstraction_opts`] runs the same engine and then
//! materialises an owned [`Ts`] plus every `⟨I, M⟩` state, decoded from
//! the store with [`DetState::from_facts`].
//!
//! # Deduplication
//!
//! The class index groups isomorphism classes by their cheap
//! [`Facts::signature`] and keeps an exact-match `HashMap<CanonKey, _>`
//! in front of the groups. A successor whose signature group is empty is
//! provably a new class — no canonicalisation happens at all (the common
//! case; see the `sig_filter_skips` counter). Only on a signature hit is
//! the canonical key computed (lazily, both for the probe and — once,
//! ever — for each resident class), after which a single hash probe of
//! the exact map decides membership: the per-probe cost is independent of
//! how many classes share the signature. The branch-and-bound key search
//! handles symmetric instances in a single descent, so *every* class is
//! keyed — the former permutation-budget bail-out and its
//! backtracking-matcher fallback are gone.
//!
//! This keyed index is the only dedup path. The naive oracle — pairwise
//! [`Facts::isomorphic`] against every admitted class — lives only in the
//! tests (`reference_det` in the bench crate's `compact_differential`
//! suite), which check that both define the same quotient.

use dcds_core::det::{det_step_with_pre, DetState};
use dcds_core::do_op::{
    do_action_indexed, legal_assignments_indexed, publish_query_stats_delta, query_stats_snapshot,
    state_index, PreInstance,
};
use dcds_core::par::{configured_threads, par_map_obs, EngineCounters};
use dcds_core::{
    enumerate_commitments, ActionId, CommitTarget, Commitment, CompactTs, Dcds, StateId, Ts,
};
use dcds_folang::Assignment;
use dcds_obs::{event, span, Obs};
use dcds_reldata::{
    CanonKey, CanonStats, ConstantPool, FactId, Facts, SigCensus, StateRef, StateStore, Value,
};
use std::collections::{BTreeSet, HashMap};

/// Whether an abstraction construction saturated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsOutcome {
    /// The iso-quotient BFS saturated: the abstraction is exact.
    Complete,
    /// The state limit was hit — consistent with (though not proof of)
    /// run-unboundedness.
    Truncated,
}

/// The result of the deterministic abstraction.
#[derive(Debug, Clone)]
pub struct DetAbstraction {
    /// The abstract transition system (states labeled by instances).
    pub ts: Ts,
    /// The full `⟨I, M⟩` state behind each abstract state.
    pub states: Vec<DetState>,
    /// Saturated or truncated.
    pub outcome: AbsOutcome,
    /// The constant pool extended with the representative fresh values the
    /// construction minted (needed to display the states).
    pub pool: ConstantPool,
    /// Observability counters (exact and thread-count independent).
    pub counters: EngineCounters,
}

/// The deterministic abstraction over the compact state store. Compared to
/// [`DetAbstraction`] there is no `states: Vec<DetState>` — retaining every
/// `⟨I, M⟩` state as an owned structure is exactly what the store exists
/// to avoid. The full fact encoding of any state is still available
/// through [`CompactTs::store`] (decode it with [`DetState::from_facts`]).
#[derive(Debug)]
pub struct CompactDetAbstraction {
    /// The abstract transition system, states in the store.
    pub ts: CompactTs,
    /// Saturated or truncated.
    pub outcome: AbsOutcome,
    /// The constant pool extended with minted representatives.
    pub pool: ConstantPool,
    /// Observability counters (exact and thread-count independent).
    pub counters: EngineCounters,
}

/// Options for [`det_abstraction_opts`].
#[derive(Debug, Clone, Copy)]
pub struct AbsOptions {
    /// Worker threads for the parallel phases. `1` is the serial engine
    /// (same output, no worker pool) — the ablation baseline.
    pub threads: usize,
    /// Frontier states stepped per batch inside one BFS level. Bounds the
    /// transient per-level scratch (pre-instances, stepped successors)
    /// without altering any output: all serial decisions still run in
    /// global frontier/task order. `0` is treated as `1`.
    pub level_chunk: usize,
}

/// Default [`AbsOptions::level_chunk`]: small enough that a 100k-wide
/// frontier's scratch stays in the tens of megabytes, large enough that
/// parallel phases keep every worker busy.
pub const DEFAULT_LEVEL_CHUNK: usize = 4096;

impl Default for AbsOptions {
    fn default() -> Self {
        AbsOptions {
            threads: configured_threads(),
            level_chunk: DEFAULT_LEVEL_CHUNK,
        }
    }
}

/// Build the deterministic abstract transition system, up to `max_states`
/// isomorphism classes.
pub fn det_abstraction(dcds: &Dcds, max_states: usize) -> DetAbstraction {
    det_abstraction_opts(dcds, max_states, AbsOptions::default())
}

/// [`det_abstraction`] with explicit options: the store engine, then its
/// states materialised as an owned [`Ts`] and decoded `⟨I, M⟩` states.
/// Output is identical for every `opts.threads` value (including 1); see
/// the module docs.
pub fn det_abstraction_opts(dcds: &Dcds, max_states: usize, opts: AbsOptions) -> DetAbstraction {
    let abs = det_abstraction_compact_opts(dcds, max_states, opts);
    let num_rels = dcds.data.schema.len();
    let states = abs
        .ts
        .state_ids()
        .map(|s| DetState::from_facts(&abs.ts.store().facts(abs.ts.state_ref(s)), num_rels))
        .collect();
    DetAbstraction {
        ts: abs.ts.to_ts(),
        states,
        outcome: abs.outcome,
        pool: abs.pool,
        counters: abs.counters,
    }
}

/// The deterministic abstraction with its states kept in the compact
/// state store; see the module docs.
pub fn det_abstraction_compact_opts(
    dcds: &Dcds,
    max_states: usize,
    opts: AbsOptions,
) -> CompactDetAbstraction {
    det_abstraction_compact_traced(dcds, max_states, opts, &Obs::disabled())
}

/// Store sink: each admitted class a delta over its parent in a
/// [`StateStore`]. Class `i` is state `i`.
struct StoreSink {
    store: StateStore,
    refs: Vec<StateRef>,
    succ: Vec<Vec<StateId>>,
    /// Children of one parent arrive consecutively: the parent's resolved
    /// fact ids are reused for the whole group.
    resolved_parent: Option<(StateId, Vec<FactId>)>,
}

impl StoreSink {
    /// A sink holding the initial state's facts as class 0.
    fn new(f0: &Facts) -> Self {
        let mut store = StateStore::new();
        let r0 = store.insert(None, f0).state;
        StoreSink {
            store,
            refs: vec![r0],
            succ: vec![Vec::new()],
            resolved_parent: None,
        }
    }

    fn num_states(&self) -> usize {
        self.refs.len()
    }

    /// The fact encoding of a resident class (lazy keys).
    fn class_facts(&self, class: usize) -> Facts {
        self.store.facts(self.refs[class])
    }

    /// Admit a new class stepped from `source`; its id is the old
    /// [`StoreSink::num_states`].
    fn admit(&mut self, source: StateId, facts: &Facts) -> StateId {
        let parent_ref = self.refs[source.index()];
        if self.resolved_parent.as_ref().map(|(s, _)| *s) != Some(source) {
            self.resolved_parent = Some((source, self.store.resolve(parent_ref)));
        }
        let (_, parent_ids) = self
            .resolved_parent
            .as_ref()
            .expect("parent resolved just above");
        let ins = self.store.insert_child(parent_ref, parent_ids, facts);
        debug_assert!(!ins.existing, "new iso class duplicates a stored state");
        let id = StateId::from_index(self.refs.len());
        self.refs.push(ins.state);
        self.succ.push(Vec::new());
        id
    }

    /// Record an edge; `false` when it was already present.
    fn add_edge(&mut self, from: StateId, to: StateId) -> bool {
        let out = &mut self.succ[from.index()];
        let new = !out.contains(&to);
        if new {
            out.push(to);
        }
        new
    }
}

/// Publish the store's high-water marks. Called from serial phases only,
/// so the gauges are bit-identical at every thread count.
pub(crate) fn publish_store_gauges(obs: &Obs, store: &StateStore) {
    let stats = store.stats();
    obs.gauge_max("store.bytes", stats.bytes as i64);
    obs.gauge_max("store.facts_interned", stats.facts_interned as i64);
    obs.gauge_max("store.delta_states", stats.delta_states as i64);
}

/// One signature's isomorphism classes. A group exists only once a class
/// with its signature has been admitted, so it is never empty.
#[derive(Debug, Default)]
struct SigGroup {
    /// Admitted without a key attempt; lazily keyed (once, ever) when a
    /// probe first collides with this signature.
    unkeyed: Vec<usize>,
}

/// Fold one canonical-key computation into the engine counters.
fn credit_canon(counters: &mut EngineCounters, stats: CanonStats) {
    counters.canon_keys_computed += 1;
    counters.canon_orders_enumerated += stats.orders_enumerated;
    counters.canon_prune_cutoffs += stats.prune_cutoffs;
}

/// Index of the isomorphism classes seen so far: an exact-match map over
/// canonical keys in front of signature groups. Class `i` is the `i`-th
/// insertion; the index holds no fact payloads — a probe that needs a
/// resident class's facts asks the store for them.
///
/// Canonical keys are computed lazily: a class admitted through an empty
/// signature group never pays for canonicalisation unless a later probe
/// collides with its signature. Keyed classes are found with **one hash
/// probe** of the global `exact` map — equal keys imply isomorphism,
/// index classes are pairwise non-isomorphic, and isomorphic fact sets
/// share a signature, so at most one class can match and a hit is always
/// inside the probe's own signature group. The pruned key search succeeds
/// on every input, so each class is keyed at most once, ever, and no probe
/// needs a backtracking isomorphism matcher.
///
/// Counter semantics: a probe whose signature group is empty counts one
/// `sig_filter_skips`; `canon_keys_computed` counts every key search
/// exactly once (with `canon_orders_enumerated` / `canon_prune_cutoffs`
/// summing the search effort).
struct ClassIndex {
    rigid: BTreeSet<Value>,
    /// Number of classes inserted so far.
    classes: usize,
    /// Canonical key → class, global across signatures.
    exact: HashMap<CanonKey, usize>,
    /// Signature → its classes, grouped by key status.
    groups: HashMap<u64, SigGroup>,
}

impl ClassIndex {
    fn new(rigid: BTreeSet<Value>) -> Self {
        ClassIndex {
            rigid,
            classes: 0,
            exact: HashMap::new(),
            groups: HashMap::new(),
        }
    }

    /// Has a class with this signature been admitted? (Workers consult it
    /// to decide whether to canonicalise eagerly.)
    fn bucket_occupied(&self, sig: u64) -> bool {
        self.groups.contains_key(&sig)
    }

    /// Find the class of `facts`, if already present. `probe_key` carries a
    /// key a worker may have computed speculatively (`None` = not
    /// attempted); the slot is filled in if the merge has to compute one,
    /// so a subsequent [`ClassIndex::insert`] can reuse it. `class_facts`
    /// returns a resident class's fact encoding.
    fn find(
        &mut self,
        facts: &Facts,
        sig: u64,
        probe_key: &mut Option<CanonKey>,
        counters: &mut EngineCounters,
        class_facts: impl Fn(usize) -> Facts,
    ) -> Option<usize> {
        let ClassIndex {
            rigid,
            exact,
            groups,
            ..
        } = self;
        let Some(group) = groups.get_mut(&sig) else {
            // The signature proves the class is new.
            counters.sig_filter_skips += 1;
            return None;
        };
        // Materialise the probe's key on first need.
        let probe_key = probe_key.get_or_insert_with(|| {
            let (k, stats) = facts.canonical_key_stats(rigid);
            credit_canon(counters, stats);
            k
        });
        // Key every unkeyed resident of the group — each at most once over
        // the whole construction — so the exact-map probe below replaces a
        // scan of the group.
        for ix in std::mem::take(&mut group.unkeyed) {
            let (ck, stats) = class_facts(ix).canonical_key_stats(rigid);
            credit_canon(counters, stats);
            exact.insert(ck, ix);
        }
        exact.get(probe_key).copied()
    }

    /// Admit the next class. `probe_key` is whatever [`ClassIndex::find`]
    /// (or a worker) computed — possibly nothing, which is the signature
    /// fast path's whole point.
    fn insert(&mut self, sig: u64, probe_key: Option<CanonKey>) {
        let ix = self.classes;
        self.classes += 1;
        let group = self.groups.entry(sig).or_default();
        match probe_key {
            Some(k) => {
                self.exact.insert(k, ix);
            }
            None => group.unkeyed.push(ix),
        }
    }
}

/// What the parallel enumeration phase computes per `(state, ασ)`: the
/// action, its assignment, the pre-instance, and the equality commitments
/// over the not-yet-mapped calls.
type EnumeratedStep = (ActionId, Assignment, PreInstance, Vec<Commitment>);

/// One phase-3 task: a `(frontier state, ασ, commitment)` triple with its
/// minted evaluation choice.
struct StepTask<'a> {
    /// Index into the current batch of frontier states.
    frontier_ix: usize,
    source: StateId,
    pre: &'a PreInstance,
    choice: std::collections::BTreeMap<dcds_core::ServiceCall, Value>,
}

/// A stepped successor awaiting the serial merge: the state, its facts,
/// its signature, and the eagerly-computed canonical key with the search
/// stats the merge will account for in task order.
type SteppedChild = (DetState, Facts, u64, Option<(CanonKey, CanonStats)>);

/// The outcome of one phase-3 task.
struct StepResult {
    source: StateId,
    /// `None` when the commitment representative violates the constraints.
    next: Option<SteppedChild>,
}

/// [`det_abstraction_compact_opts`] with an observability handle: an
/// overall span, one `frontier_level` span per BFS level, frontier/dedup
/// metrics, the `store.*` gauge family, and rate-limited heartbeats. With
/// a disabled handle this is exactly `det_abstraction_compact_opts` — no
/// clock reads, no allocation.
///
/// The registry is only updated from the serial phases (and from the final
/// [`EngineCounters::publish`]), so every metric except the `*_us` timing
/// histograms is bit-identical at every thread count.
pub fn det_abstraction_compact_traced(
    dcds: &Dcds,
    max_states: usize,
    opts: AbsOptions,
    obs: &Obs,
) -> CompactDetAbstraction {
    let _run = span!(
        obs,
        "det_abstraction",
        threads = opts.threads,
        max_states = max_states
    );
    let query_stats0 = query_stats_snapshot(dcds);
    let rigid = dcds.rigid_constants();
    let num_rels = dcds.data.schema.len();
    let threads = opts.threads.max(1);
    let level_chunk = opts.level_chunk.max(1);
    let mut pool = dcds.working_pool();
    let mut counters = EngineCounters::default();

    let s0 = DetState::initial(dcds);
    let f0 = s0.to_facts(num_rels);
    let mut index = ClassIndex::new(rigid.clone());
    let sig0 = f0.signature(&rigid);
    let (key0, stats0) = f0.canonical_key_stats(&rigid);
    credit_canon(&mut counters, stats0);
    index.insert(sig0, Some(key0));
    let mut sink = StoreSink::new(&f0);

    // Frontier entries carry the transient `⟨I, M⟩` structure of a state
    // while its level is being expanded.
    let mut frontier: Vec<(StateId, DetState)> = vec![(StateId::from_index(0), s0)];
    let mut outcome = AbsOutcome::Complete;
    let mut level = 0usize;

    while !frontier.is_empty() {
        counters.states_expanded += frontier.len() as u64;
        let mut level_span = span!(
            obs,
            "frontier_level",
            level = level,
            frontier = frontier.len()
        );
        obs.histogram("abs.frontier_states", frontier.len() as u64);
        obs.gauge_max("abs.max_frontier", frontier.len() as i64);
        obs.heartbeat(|| {
            format!(
                "abstraction level {level}: frontier {}, {} classes total",
                frontier.len(),
                sink.num_states()
            )
        });

        let mut next_frontier: Vec<(StateId, DetState)> = Vec::new();
        let mut dedup_hits = 0u64;
        let mut edges_added = 0u64;
        for chunk in frontier.chunks(level_chunk) {
            // Phase 1 (parallel): legal assignments, pre-instances, and
            // commitments per frontier state. Nothing here touches the pool.
            let enumerated: Vec<Vec<EnumeratedStep>> =
                par_map_obs(chunk, threads, obs, "enumerate", |(_, state)| {
                    let idx = state_index(dcds, &state.instance);
                    legal_assignments_indexed(dcds, &state.instance, Some(&idx))
                        .into_iter()
                        .map(|(action, sigma)| {
                            let pre = do_action_indexed(
                                dcds,
                                &state.instance,
                                action,
                                &sigma,
                                Some(&idx),
                            );
                            let new_calls: Vec<dcds_core::ServiceCall> = pre
                                .calls()
                                .into_iter()
                                .filter(|c| !state.call_map.contains_key(c))
                                .collect();
                            let mut known: BTreeSet<Value> = state.known_values();
                            known.extend(rigid.iter().copied());
                            let known: Vec<Value> = known.into_iter().collect();
                            let commitments = enumerate_commitments(&new_calls, &known);
                            (action, sigma, pre, commitments)
                        })
                        .collect()
                });

            // Census (parallel): each frontier state's value-occurrence
            // census, so every successor's signature derives from a fact
            // diff instead of a from-scratch pass.
            let censuses: Vec<SigCensus> =
                par_map_obs(chunk, threads, obs, "census", |(_, state)| {
                    let f = state.to_facts(num_rels);
                    SigCensus::new(f.iter(), &rigid)
                });

            // Phase 2 (serial, frontier order): mint the fresh cells of
            // every commitment — the exact mint sequence of a serial loop.
            let mut tasks: Vec<StepTask> = Vec::new();
            for (frontier_ix, ((source, _), per_state)) in chunk.iter().zip(&enumerated).enumerate()
            {
                for (_action, _sigma, pre, commitments) in per_state {
                    for commitment in commitments {
                        let cells = dcds_core::commitment::fresh_cell_count(commitment);
                        let fresh: Vec<Value> = (0..cells).map(|_| pool.mint("v")).collect();
                        let choice = commitment
                            .iter()
                            .map(|(c, t)| {
                                let v = match t {
                                    CommitTarget::Known(v) => *v,
                                    CommitTarget::Fresh(cell) => fresh[*cell],
                                };
                                (c.clone(), v)
                            })
                            .collect();
                        tasks.push(StepTask {
                            frontier_ix,
                            source: *source,
                            pre,
                            choice,
                        });
                    }
                }
            }

            // Phase 3 (parallel): evaluate every commitment representative,
            // encode it, and — on a signature hit against the class index
            // — canonicalise it eagerly so the serial merge rarely has to.
            let step_timer = obs.timer();
            let stepped: Vec<StepResult> = par_map_obs(&tasks, threads, obs, "step", |task| {
                let (_, state) = &chunk[task.frontier_ix];
                let next = det_step_with_pre(dcds, state, task.pre, &task.choice).map(|next| {
                    let facts = next.to_facts(num_rels);
                    let sig =
                        censuses[task.frontier_ix].child_signature(|| facts.iter(), facts.len());
                    let key = index
                        .bucket_occupied(sig)
                        .then(|| facts.canonical_key_stats(&rigid));
                    (next, facts, sig, key)
                });
                StepResult {
                    source: task.source,
                    next,
                }
            });
            drop(tasks);
            obs.time_us("abs.step_phase_us", step_timer);

            // Phase 4 (serial, task order): deduplicate, allocate ids,
            // record edges.
            let merge_timer = obs.timer();
            for result in stepped {
                let Some((next, facts, sig, key)) = result.next else {
                    continue;
                };
                counters.successors_generated += 1;
                // Worker canonicalised eagerly; account for it exactly once.
                if let Some((_, stats)) = &key {
                    credit_canon(&mut counters, *stats);
                }
                let mut key: Option<CanonKey> = key.map(|(k, _)| k);
                let found = index.find(&facts, sig, &mut key, &mut counters, |ix| {
                    sink.class_facts(ix)
                });
                let next_id = match found {
                    Some(class_ix) => {
                        dedup_hits += 1;
                        StateId::from_index(class_ix)
                    }
                    None => {
                        if sink.num_states() >= max_states {
                            outcome = AbsOutcome::Truncated;
                            continue;
                        }
                        index.insert(sig, key);
                        let id = sink.admit(result.source, &facts);
                        next_frontier.push((id, next));
                        id
                    }
                };
                if sink.add_edge(result.source, next_id) {
                    edges_added += 1;
                }
            }
            obs.time_us("abs.merge_phase_us", merge_timer);
        }
        publish_store_gauges(obs, &sink.store);
        level_span.set("new_classes", next_frontier.len() as u64);
        event!(
            obs,
            "level",
            engine = "det_abstraction",
            level = level,
            frontier = frontier.len(),
            new_classes = next_frontier.len(),
            states = sink.num_states(),
            edges = edges_added,
            dedup_hits = dedup_hits,
        );
        frontier = next_frontier;
        level += 1;
    }

    obs.counter_add("abs.levels", level as u64);
    counters.publish(obs, "abs");
    obs.counter_add("canon.keys_computed", counters.canon_keys_computed);
    obs.counter_add("canon.orders_enumerated", counters.canon_orders_enumerated);
    obs.counter_add("canon.prune_cutoffs", counters.canon_prune_cutoffs);
    publish_query_stats_delta(dcds, obs, &query_stats0);
    obs.progress_flush(|| {
        format!(
            "abstraction done: {} classes, {} levels ({outcome:?})",
            sink.num_states(),
            level
        )
    });

    CompactDetAbstraction {
        ts: CompactTs::from_parts(sink.store, sink.refs, sink.succ, num_rels as u32),
        outcome,
        pool,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_core::{DcdsBuilder, ServiceKind};

    fn example_4_1() -> Dcds {
        DcdsBuilder::new()
            .relation("Q", 2)
            .relation("P", 1)
            .relation("R", 1)
            .service("f", 1, ServiceKind::Deterministic)
            .service("g", 1, ServiceKind::Deterministic)
            .init_fact("P", &["a"])
            .init_fact("Q", &["a", "a"])
            .action("alpha", &[], |a| {
                a.effect("Q(a,a) & P(X)", "R(X)");
                a.effect("P(X)", "P(X), Q(f(X), g(X))");
            })
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    fn example_4_2() -> Dcds {
        DcdsBuilder::new()
            .relation("Q", 2)
            .relation("P", 1)
            .relation("R", 1)
            .service("f", 1, ServiceKind::Deterministic)
            .service("g", 1, ServiceKind::Deterministic)
            .init_fact("P", &["a"])
            .init_fact("Q", &["a", "a"])
            .constraint("P(X) & Q(Y, Z) -> X = Y")
            .action("alpha", &[], |a| {
                a.effect("Q(a,a) & P(X)", "R(X)");
                a.effect("P(X)", "P(X), Q(f(X), g(X))");
            })
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    fn example_4_3() -> Dcds {
        DcdsBuilder::new()
            .relation("R", 1)
            .relation("Q", 1)
            .service("f", 1, ServiceKind::Deterministic)
            .init_fact("R", &["a"])
            .action("alpha", &[], |a| {
                a.effect("R(X)", "Q(f(X))");
                a.effect("Q(X)", "R(X)");
            })
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    #[test]
    fn example_4_1_saturates_finite() {
        // Figure 3b: the abstraction of the weakly acyclic Example 4.1 is
        // finite. Initial state + 5 commitment successors (some of which
        // merge deeper), each looping once calls are recorded.
        let abs = det_abstraction(&example_4_1(), 200);
        assert_eq!(abs.outcome, AbsOutcome::Complete);
        // 1 initial + 5 first-level iso classes + their (deterministic)
        // successors which fold back into finitely many classes.
        assert!(abs.ts.num_states() >= 6);
        assert!(abs.ts.num_states() <= 20, "got {}", abs.ts.num_states());
    }

    #[test]
    fn example_4_2_constraint_prunes() {
        // Figure 2b: the equality constraint forces f(a) = a; only g(a)
        // branches (known or fresh): strictly fewer states than Example 4.1.
        let abs1 = det_abstraction(&example_4_1(), 200);
        let abs2 = det_abstraction(&example_4_2(), 200);
        assert_eq!(abs2.outcome, AbsOutcome::Complete);
        assert!(abs2.ts.num_states() < abs1.ts.num_states());
        // Initial state has exactly 2 successors in Figure 2b.
        assert_eq!(abs2.ts.successors(abs2.ts.initial()).len(), 2);
    }

    #[test]
    fn example_4_3_truncates() {
        // Figure 4: run-unbounded — the call map keeps growing, no finite
        // quotient exists (Theorem 4.5's discussion); construction truncates.
        let abs = det_abstraction(&example_4_3(), 60);
        assert_eq!(abs.outcome, AbsOutcome::Truncated);
        assert_eq!(abs.ts.num_states(), 60);
    }

    #[test]
    fn abstraction_states_satisfy_constraints() {
        let dcds = example_4_2();
        let abs = det_abstraction(&dcds, 200);
        for s in abs.ts.state_ids() {
            assert!(dcds.data.satisfies_constraints(abs.ts.db(s)));
        }
    }

    #[test]
    fn deterministic_closure_no_new_calls_loop() {
        // Once every issued call is recorded, states self-loop (Figure 3b's
        // bottom row): every non-initial state has at least one successor.
        let abs = det_abstraction(&example_4_1(), 200);
        for s in abs.ts.state_ids() {
            assert!(
                !abs.ts.successors(s).is_empty(),
                "state {s:?} has no successors"
            );
        }
    }

    #[test]
    fn thread_counts_agree_exactly() {
        // The determinism contract at unit-test scale (the integration
        // suite covers more systems): states, edges, outcome, and the pool
        // are identical for 1, 2, and 8 workers.
        for dcds in [example_4_1(), example_4_2(), example_4_3()] {
            let runs: Vec<DetAbstraction> = [1usize, 2, 8]
                .into_iter()
                .map(|threads| {
                    det_abstraction_opts(
                        &dcds,
                        60,
                        AbsOptions {
                            threads,
                            ..AbsOptions::default()
                        },
                    )
                })
                .collect();
            for other in &runs[1..] {
                assert_eq!(runs[0].ts, other.ts);
                assert_eq!(runs[0].states, other.states);
                assert_eq!(runs[0].outcome, other.outcome);
                assert_eq!(runs[0].pool.len(), other.pool.len());
                assert_eq!(runs[0].counters, other.counters);
            }
        }
    }

    /// Drive [`ClassIndex::find`] directly, with `classes[i]` as the facts
    /// of resident class `i`.
    fn probe(
        index: &mut ClassIndex,
        classes: &[Facts],
        facts: &Facts,
        key: &mut Option<CanonKey>,
        counters: &mut EngineCounters,
    ) -> Option<usize> {
        let sig = facts.signature(&index.rigid);
        index.find(facts, sig, key, counters, |ix| classes[ix].clone())
    }

    /// Unary fact sets over explicit raw values, for driving the index
    /// directly.
    fn unary_facts(color: u32, values: &[usize]) -> Facts {
        let mut f = Facts::new();
        for &v in values {
            f.insert(color, dcds_reldata::Tuple::new([Value::from_index(v)]));
        }
        f
    }

    /// A perfect matching on `2n` rigid tags, each pair sharing one fresh
    /// value: facts `E(t_i, v_p)` and `E(t_j, v_p)` for every matched pair
    /// `{i, j}`. Every matching of the same `2n` tags has the same
    /// signature (the signature never relates non-rigid values across
    /// facts), distinct matchings are non-isomorphic (tags are fixed
    /// pointwise), and canonical keys are cheap (each fresh value's rigid
    /// neighbours give it a singleton refinement class).
    fn matching_facts(pairs: &[(usize, usize)], fresh_base: usize) -> Facts {
        let mut f = Facts::new();
        for (p, &(i, j)) in pairs.iter().enumerate() {
            let v = Value::from_index(fresh_base + p);
            f.insert(0, dcds_reldata::Tuple::new([Value::from_index(i), v]));
            f.insert(0, dcds_reldata::Tuple::new([Value::from_index(j), v]));
        }
        f
    }

    /// All perfect matchings of `0..2n`, in a deterministic order, up to
    /// `limit`.
    fn perfect_matchings(tags: &[usize], limit: usize, out: &mut Vec<Vec<(usize, usize)>>) {
        fn rec(
            rest: &[usize],
            acc: &mut Vec<(usize, usize)>,
            limit: usize,
            out: &mut Vec<Vec<(usize, usize)>>,
        ) {
            if out.len() >= limit {
                return;
            }
            let Some((&first, rest)) = rest.split_first() else {
                out.push(acc.clone());
                return;
            };
            for k in 0..rest.len() {
                let mut remaining: Vec<usize> = rest.to_vec();
                let partner = remaining.remove(k);
                acc.push((first, partner));
                rec(&remaining, acc, limit, out);
                acc.pop();
            }
        }
        rec(tags, &mut Vec::new(), limit, out);
    }

    #[test]
    fn empty_group_probe_computes_no_key() {
        // An empty-signature-group probe credits the signature filter —
        // one `sig_filter_skips` — without computing any canonical key.
        let rigid = BTreeSet::new();
        let mut index = ClassIndex::new(rigid.clone());
        let mut classes: Vec<Facts> = Vec::new();
        let mut counters = EngineCounters::default();
        for class in [unary_facts(0, &[0]), unary_facts(0, &[1, 2])] {
            let sig = class.signature(&rigid);
            let mut key = None;
            assert_eq!(
                probe(&mut index, &classes, &class, &mut key, &mut counters),
                None
            );
            index.insert(sig, key);
            classes.push(class);
        }
        let unseen = unary_facts(1, &[3]);
        let before = counters;
        let mut key = None;
        assert_eq!(
            probe(&mut index, &classes, &unseen, &mut key, &mut counters),
            None
        );
        assert!(key.is_none(), "empty-group probe must not compute a key");
        assert_eq!(counters.sig_filter_skips - before.sig_filter_skips, 1);
        assert_eq!(counters.canon_keys_computed, before.canon_keys_computed);
    }

    #[test]
    fn keyed_index_resolves_thousands_of_same_signature_classes() {
        // The collision-heavy regression: perfect matchings of 12 tags all
        // share one signature, so the old per-group linear scan made the
        // k-th admission pay O(k) key comparisons. The exact-match map
        // must resolve every probe with one key per probe.
        let tags: Vec<usize> = (0..12).collect();
        let rigid: BTreeSet<Value> = tags.iter().map(|&t| Value::from_index(t)).collect();
        let mut matchings = Vec::new();
        perfect_matchings(&tags, 1500, &mut matchings);
        assert_eq!(matchings.len(), 1500);

        let mut index = ClassIndex::new(rigid.clone());
        let mut classes: Vec<Facts> = Vec::new();
        let mut counters = EngineCounters::default();
        let sig0 = matching_facts(&matchings[0], 100).signature(&rigid);
        for m in &matchings {
            let facts = matching_facts(m, 100);
            let sig = facts.signature(&rigid);
            assert_eq!(sig, sig0, "matchings must collide on one signature");
            let mut key = None;
            assert_eq!(
                probe(&mut index, &classes, &facts, &mut key, &mut counters),
                None
            );
            index.insert(sig, key);
            classes.push(facts);
        }
        // Re-probe every class under a fresh-value renaming: each must hit
        // its own class, purely through the exact map.
        for (expect_ix, m) in matchings.iter().enumerate() {
            let renamed = matching_facts(m, 5000 + expect_ix);
            let mut key = None;
            assert_eq!(
                probe(&mut index, &classes, &renamed, &mut key, &mut counters),
                Some(expect_ix)
            );
        }
        // One key per admission probe (the first class is keyed lazily
        // when the second probe collides, the rest at their own probe) and
        // one per re-probe — each class's resident key computed once, ever.
        assert_eq!(
            counters.canon_keys_computed,
            2 * matchings.len() as u64,
            "every key must be computed exactly once"
        );
    }

    #[test]
    fn symmetric_classes_resolve_through_the_exact_map() {
        // Nine interchangeable fresh values defeat colour refinement — the
        // case that used to exceed the permutation budget and fall back to
        // the backtracking matcher. The branch-and-bound search collapses
        // the whole 9! orbit into a single descent, so the probe resolves
        // through the exact-match map.
        let rigid = BTreeSet::new();
        let mut index = ClassIndex::new(rigid.clone());
        let mut counters = EngineCounters::default();
        let a = unary_facts(0, &(100..109).collect::<Vec<_>>());
        let sig = a.signature(&rigid);
        let mut key = None;
        assert_eq!(probe(&mut index, &[], &a, &mut key, &mut counters), None);
        index.insert(sig, key);
        let classes = vec![a];

        let b = unary_facts(0, &(200..209).collect::<Vec<_>>());
        assert_eq!(b.signature(&rigid), sig);
        let mut key = None;
        assert_eq!(
            probe(&mut index, &classes, &b, &mut key, &mut counters),
            Some(0)
        );
        assert!(key.is_some(), "symmetric class must key successfully");
        // Probe key + lazily keying the resident class.
        assert_eq!(counters.canon_keys_computed, 2);
        // One descent each; transposition pruning cuts the other 9!-1
        // orders with 9*8/2 = 36 cutoffs per key search.
        assert_eq!(counters.canon_orders_enumerated, 2);
        assert_eq!(counters.canon_prune_cutoffs, 72);
    }

    #[test]
    fn signature_fast_path_skips_canonicalisation() {
        // Most dedup probes in a saturating construction are fresh classes:
        // the signature bucket is empty and no canonical key is computed.
        let abs = det_abstraction(&example_4_1(), 200);
        assert!(abs.counters.sig_filter_skips > 0);
        assert!(
            abs.counters.canon_keys_computed < abs.counters.successors_generated + 1,
            "fast path never fired: {:?}",
            abs.counters
        );
        assert!(abs.counters.states_expanded >= abs.ts.num_states() as u64);
    }

    #[test]
    fn decoded_states_match_store_at_every_thread_count() {
        // The run is the same at every thread count, and the wrapper's
        // decoded `⟨I, M⟩` states re-encode to exactly the facts the store
        // holds for their class.
        for dcds in [example_4_1(), example_4_3()] {
            let num_rels = dcds.data.schema.len();
            let run = |threads| {
                let opts = AbsOptions {
                    threads,
                    ..AbsOptions::default()
                };
                (
                    det_abstraction_opts(&dcds, 60, opts),
                    det_abstraction_compact_opts(&dcds, 60, opts),
                )
            };
            let (base, _) = run(1);
            for threads in [1usize, 2, 4, 8] {
                let (abs, compact) = run(threads);
                assert_eq!(abs.ts, base.ts, "t={threads}");
                assert_eq!(abs.states, base.states);
                assert_eq!(abs.outcome, base.outcome);
                assert_eq!(abs.pool.len(), base.pool.len());
                assert_eq!(abs.counters, base.counters);
                assert_eq!(compact.counters, base.counters);
                for (s, state) in compact.ts.state_ids().zip(&abs.states) {
                    let stored = compact.ts.store().facts(compact.ts.state_ref(s));
                    assert_eq!(state.to_facts(num_rels), stored);
                    assert_eq!(&state.instance, abs.ts.db(s));
                }
            }
        }
    }

    #[test]
    fn compact_store_saves_fact_slots() {
        // The truncating Example 4.3 run: successors extend their parent,
        // so almost every state is a delta and the delta-share is high.
        let compact = det_abstraction_compact_opts(&example_4_3(), 60, AbsOptions::default());
        let stats = compact.ts.store_stats();
        assert_eq!(stats.states(), 60);
        assert!(stats.delta_states > 40, "stats: {stats:?}");
        assert!(stats.delta_share() > 0.3, "stats: {stats:?}");
        assert!(stats.bytes > 0);
    }
}
