//! # dcds-mucalc
//!
//! First-order µ-calculus verification logics over data-centric dynamic
//! systems (Section 3 of the paper):
//!
//! * **µL** — first-order µ-calculus with unrestricted quantification
//!   across states ([`ast`]);
//! * **µLA** — the *history-preserving* fragment: quantification guarded by
//!   `LIVE(x)` (Section 3.1);
//! * **µLP** — the *persistence-preserving* fragment: modal operators
//!   additionally guard the free variables with `LIVE(~x)` (Section 3.2).
//!
//! Fragment membership and the syntactic monotonicity of fixpoints are
//! checked by [`fragments`]. Model checking over explicit finite transition
//! systems (concrete prefixes or the finite abstractions of Theorems 4.3 /
//! 5.4) is provided three ways:
//!
//! * [`engine`] — the production path: a staged evaluator with a
//!   query-extension cache and parallel per-state query evaluation
//!   ([`engine::check_with_opts`] exposes thread control and
//!   [`engine::McCounters`] observability);
//! * [`mc`] — a naive direct evaluator of the extension function of
//!   Figure 1, kept as the differential-testing oracle;
//! * [`prop`] + [`prop_mc`] — the `PROP(Φ)` propositionalisation of Theorem
//!   4.4 followed by conventional propositional µ-calculus model checking.
//!
//! The three are cross-validated by property tests. [`sugar`] offers CTL-style
//! combinators (`AG`, `EF`, `AF`, `EU`, ...) compiled into µ-calculus, and
//! [`parser`] a surface syntax (`mu Z . ...`, `<> phi`, `[] phi`,
//! `live(X)`). [`safety`] recognises the AG/EF safety fragment and compiles
//! it to the reachability question answered by the symbolic backward engine.

pub mod ast;
pub mod diagnostics;
pub mod engine;
pub mod fragments;
pub mod mc;
pub mod parser;
pub mod pretty;
pub mod prop;
pub mod prop_mc;
pub mod safety;
pub mod sugar;

pub use ast::{Mu, PredVar};
pub use diagnostics::{counterexample_ag, witness_ef};
pub use engine::{
    check_traced, check_with_opts, eval_with_opts, CheckError, McCounters, McOptions, McRun,
};
pub use fragments::{classify, Fragment, FragmentError};
pub use mc::{check, eval, Valuation};
pub use parser::parse_mu;
pub use pretty::MuDisplay;
pub use prop::{propositionalize, PropMu};
pub use prop_mc::check_prop;
pub use safety::{extract_safety, SafetyError, SafetyMode, SafetyProperty};
