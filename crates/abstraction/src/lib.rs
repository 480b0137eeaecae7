//! # dcds-abstraction
//!
//! Finite faithful abstractions of DCDS transition systems — the
//! constructive core of the paper's decidability results:
//!
//! * [`det_abs`] — the abstract transition system for **deterministic**
//!   services (Theorem 4.3): states are `⟨I, M⟩` pairs quotiented by
//!   isomorphism (rigid on `ADOM(I₀)` and specification constants),
//!   successors are one representative per equality commitment. For
//!   run-bounded systems the construction saturates into a finite system
//!   history-preserving bisimilar to the concrete one (Figures 2b, 3b); for
//!   run-unbounded systems it provably cannot saturate (Figure 4b) and
//!   reports truncation. One chunked, level-synchronised BFS builds it,
//!   deduplicates through one signature-filtered canonical-key index, and
//!   keeps admitted states only in the compact
//!   [`dcds_reldata::StateStore`] ([`det_abstraction_compact_opts`]);
//!   [`det_abstraction_opts`] materialises the result as an owned `Ts`
//!   plus the decoded `⟨I, M⟩` states.
//! * [`mod@rcycl`] — **Algorithm RCYCL** (Appendix C.3) for
//!   **nondeterministic** services: builds an *eventually recycling
//!   pruning* by preferring recycled values (`UsedValues` bookkeeping) over
//!   fresh ones; terminates for state-bounded systems (Theorem 5.4),
//!   yielding a finite system persistence-preserving bisimilar to the
//!   concrete one (Figure 7b). Its states always live in the state store;
//!   [`rcycl_opts`] materialises the pruning as an owned `Ts`.
//! * [`pruning`] — validation that a finite system really is a pruning:
//!   per-state coverage of every satisfiable equality commitment.
//! * [`bounds`] — empirical run-/state-boundedness monitors (the semantic
//!   properties are undecidable — Theorems 4.6, 5.5 — so these measure
//!   witnesses up to exploration limits).

pub mod bounds;
pub mod det_abs;
pub mod pruning;
pub mod rcycl;

pub use bounds::{observe_run_bound, observe_state_bound, BoundObservation};
pub use det_abs::{
    det_abstraction, det_abstraction_compact_opts, det_abstraction_compact_traced,
    det_abstraction_opts, AbsOptions, AbsOutcome, CompactDetAbstraction, DetAbstraction,
    DEFAULT_LEVEL_CHUNK,
};
pub use pruning::commitment_coverage_holds;
pub use rcycl::{
    rcycl, rcycl_compact_opts, rcycl_compact_traced, rcycl_opts, CompactRcycl, RcyclResult,
};
