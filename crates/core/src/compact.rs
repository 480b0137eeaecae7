//! Transition systems over the compact state store.
//!
//! A [`CompactTs`] is the arena-backed counterpart of [`crate::ts::Ts`]:
//! instead of owning one [`Instance`] per state it holds a
//! [`StateStore`] plus one [`StateRef`] handle per state, so per-state
//! memory is the *delta* a transition made, not the instance. States can
//! still be materialised on demand ([`CompactTs::db`]) and the whole
//! system can be converted to an owned [`Ts`] ([`CompactTs::to_ts`]) —
//! which the differential tests use to compare the engines with their
//! sequential references.

use crate::ts::{StateId, Ts};
use dcds_reldata::{Instance, StateRef, StateStore, StoreStats, Value};
use std::collections::HashSet;

/// An explicit transition system whose states live in a [`StateStore`].
#[derive(Debug)]
pub struct CompactTs {
    store: StateStore,
    /// Store handle of each state, indexed by [`StateId`].
    states: Vec<StateRef>,
    succ: Vec<Vec<StateId>>,
    initial: StateId,
    /// Colors `< num_rels` are database facts; the rest (service-call-map
    /// entries, where present) are excluded from [`CompactTs::db`].
    num_rels: u32,
}

impl CompactTs {
    /// Assemble from parts built by an engine. `states[0]` must be the
    /// initial state; `succ` must be parallel to `states`.
    pub fn from_parts(
        store: StateStore,
        states: Vec<StateRef>,
        succ: Vec<Vec<StateId>>,
        num_rels: u32,
    ) -> Self {
        assert_eq!(states.len(), succ.len());
        assert!(
            !states.is_empty(),
            "a transition system has an initial state"
        );
        CompactTs {
            store,
            states,
            succ,
            initial: StateId::from_index(0),
            num_rels,
        }
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// The store handle of a state.
    pub fn state_ref(&self, s: StateId) -> StateRef {
        self.states[s.index()]
    }

    /// Materialise the database labeling a state.
    pub fn db(&self, s: StateId) -> Instance {
        self.store.instance(self.states[s.index()], self.num_rels)
    }

    /// Successors of a state.
    pub fn successors(&self, s: StateId) -> &[StateId] {
        &self.succ[s.index()]
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Iterate over all state ids.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> {
        (0..self.states.len()).map(StateId::from_index)
    }

    /// Maximum `|ADOM(db(s))|` over all states — [`Ts::max_state_adom`]
    /// read off the store, without materialising any instance.
    pub fn max_state_adom(&self) -> usize {
        let mut adom: HashSet<Value> = HashSet::new();
        self.states
            .iter()
            .map(|&r| {
                adom.clear();
                let view = self.store.view(r);
                for (_, t) in view.iter().take_while(|(c, _)| *c < self.num_rels) {
                    adom.extend(t.iter());
                }
                adom.len()
            })
            .max()
            .unwrap_or(0)
    }

    /// The backing store.
    pub fn store(&self) -> &StateStore {
        &self.store
    }

    /// Deterministic storage statistics (see [`StoreStats`]).
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Materialise the whole system as an owned [`Ts`] — the form the
    /// model checker, the dot output and the differential tests take.
    pub fn to_ts(&self) -> Ts {
        let mut ts = Ts::new(self.db(self.initial));
        for s in self.state_ids().skip(1) {
            ts.add_state(self.db(s));
        }
        for s in self.state_ids() {
            for &t in self.successors(s) {
                ts.add_edge(s, t);
            }
        }
        ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_reldata::{ConstantPool, Facts, Schema, Tuple};

    #[test]
    fn compact_ts_roundtrips_to_owned_ts() {
        let mut schema = Schema::new();
        let p = schema.add_relation("P", 1).unwrap();
        let mut pool = ConstantPool::new();
        let a = pool.intern("a");
        let b = pool.intern("b");
        let mut store = StateStore::new();
        let mut f0 = Facts::new();
        f0.insert(p.index() as u32, Tuple::from([a]));
        let r0 = store.insert(None, &f0).state;
        let mut f1 = f0.clone();
        f1.insert(p.index() as u32, Tuple::from([b]));
        // A call-map-style fact (color past the schema) must not count
        // towards the database's active domain.
        let c = pool.intern("c");
        f1.insert(schema.len() as u32, Tuple::from([a, c]));
        let r1 = store.insert(Some(r0), &f1).state;
        let compact = CompactTs::from_parts(
            store,
            vec![r0, r1],
            vec![vec![StateId::from_index(1)], vec![StateId::from_index(1)]],
            schema.len() as u32,
        );
        assert_eq!(compact.num_states(), 2);
        assert_eq!(compact.num_edges(), 2);
        let ts = compact.to_ts();
        assert_eq!(ts.num_states(), 2);
        assert_eq!(ts.num_edges(), 2);
        assert!(ts.db(StateId::from_index(1)).contains(p, &Tuple::from([b])));
        assert_eq!(ts.db(compact.initial()), &compact.db(compact.initial()));
        assert_eq!(compact.max_state_adom(), 2);
        assert_eq!(compact.max_state_adom(), ts.max_state_adom());
    }
}
