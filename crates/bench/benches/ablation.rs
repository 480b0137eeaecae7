//! Ablation benchmark for a design choice DESIGN.md calls out:
//! **atom-guided quantifier evaluation** in the reference FO evaluator —
//! guided (iterate guard tuples) vs plain `|adom|^k` enumeration —
//! exercised on the guard-shaped constraints the DCDS framework uses
//! everywhere (`∀~x. R(~x) → ...`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcds_folang::{holds_closed, holds_unguided, parse_formula, Assignment};
use dcds_reldata::{ConstantPool, Instance, Schema, Tuple};
use std::hint::black_box;

/// A wide instance for the guard-shaped constraint: `n` rows of `R/4`.
fn guard_setup(n: usize) -> (Schema, ConstantPool, Instance, dcds_folang::Formula) {
    let mut schema = Schema::new();
    let r = schema.add_relation("R", 4).unwrap();
    let mut pool = ConstantPool::new();
    let ok = pool.intern("ok");
    let mut inst = Instance::new();
    for i in 0..n {
        let row: Vec<_> = (0..3).map(|j| pool.intern(&format!("v{i}_{j}"))).collect();
        inst.insert(r, Tuple::from([row[0], row[1], row[2], ok]));
    }
    let f = parse_formula(
        "forall X1, X2, X3, P . R(X1, X2, X3, P) -> P = ok",
        &mut schema,
        &mut pool,
    )
    .unwrap();
    (schema, pool, inst, f)
}

fn bench_guided_quantifiers(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_guided_eval");
    group.sample_size(10);
    for n in [2usize, 4, 6] {
        let (_, _, inst, f) = guard_setup(n);
        group.bench_with_input(BenchmarkId::new("guided", n), &n, |b, _| {
            b.iter(|| black_box(holds_closed(&f, &inst)).unwrap())
        });
        // The unguided path enumerates |adom|^4 = (3n+1)^4 assignments.
        group.bench_with_input(BenchmarkId::new("unguided", n), &n, |b, _| {
            b.iter(|| black_box(holds_unguided(&f, &inst, &Assignment::new())).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_guided_quantifiers);
criterion_main!(benches);
