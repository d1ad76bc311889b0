//! Join-kernel micro-benchmarks: the dispatching kernel (plane sweep /
//! sort-merge) against the windowed-backtracking fallback and two
//! single-node oracles, on the bucket shapes reducers actually see.
//!
//! `overlap_heavy` is the case the sweep kernel targets: long outer
//! intervals whose start windows cover a large fraction of the inner list
//! while only a thin end-window slice actually matches — exactly where the
//! backtracking path degrades to wide scans with per-candidate `holds`
//! re-checks. `sequence_heavy` exercises the sort-merge path on `before`
//! chains. The dispatching kernel must beat `windowed_backtracking` by ≥2×
//! on `overlap_heavy` (checked in CI via the BENCH_JSON summary).
//!
//! `event_sweep` pits the merged-event-list sweep against the dual-window
//! scan on an overlap-heavy arity-3 colocation *clique* — the multi-way
//! shape the event kernel targets, where per-level binary searches and
//! wide windows dominate the dual-window path while the gapless active
//! arrays stay small. The event sweep must beat `dual_window_sweep` by
//! ≥2× here (same BENCH_JSON trend gate).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ij_core::executor::Candidates;
use ij_core::kernel;
use ij_interval::{Interval, TupleId};
use ij_query::JoinQuery;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn iv(s: i64, e: i64) -> Interval {
    Interval::new(s, e).unwrap()
}

/// An overlap-heavy bucket: `n` long outer intervals (relation 0) and `n`
/// short inner intervals (relation 1). Most inners start inside an outer
/// (huge start windows) but end inside it too, failing `overlaps`' `e2 >
/// e1` end range — the join is highly selective while the windowed scan
/// stays quadratic-ish.
fn overlap_bucket(n: usize, seed: u64) -> Candidates {
    let mut rng = StdRng::seed_from_u64(seed);
    let span = 10 * n as i64;
    let mut c = Candidates::new(2);
    for t in 0..n {
        let s = rng.gen_range(0..span);
        c.push(
            0,
            iv(s, s + rng.gen_range(span / 4..span / 2)),
            t as TupleId,
        );
        let s2 = rng.gen_range(0..span);
        c.push(1, iv(s2, s2 + rng.gen_range(0..30)), t as TupleId);
    }
    c.finish();
    c
}

/// A sequence-heavy bucket: two relations of short intervals spread over a
/// wide span, joined by `before` (half-open windows).
fn sequence_bucket(n: usize, seed: u64) -> Candidates {
    let mut rng = StdRng::seed_from_u64(seed);
    let span = 20 * n as i64;
    let mut c = Candidates::new(2);
    for t in 0..n {
        for r in 0..2 {
            let s = rng.gen_range(0..span);
            c.push(r, iv(s, s + rng.gen_range(0..40)), t as TupleId);
        }
    }
    c.finish();
    c
}

/// Nested-loop oracle: every pair, `holds` per pair.
fn nested_loop_count(q: &JoinQuery, c: &Candidates) -> u64 {
    let pred = q.conditions()[0].pred;
    let mut count = 0u64;
    for &(a, _) in c.list(0) {
        for &(b, _) in c.list(1) {
            if pred.holds(a, b) {
                count += 1;
            }
        }
    }
    count
}

/// Classic Brinkhoff-style plane-sweep oracle over *intersecting* pairs
/// (valid for colocation predicates, whose matches always intersect as
/// closed intervals), filtered by the predicate.
fn plane_sweep_oracle_count(q: &JoinQuery, c: &Candidates) -> u64 {
    let pred = q.conditions()[0].pred;
    let (l0, l1) = (c.list(0), c.list(1));
    let mut count = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    let scan = |a: Interval, list: &[(Interval, TupleId)], from: usize, left: bool| {
        let mut n = 0u64;
        for &(b, _) in &list[from..] {
            if b.start() > a.end() {
                break;
            }
            let ok = if left {
                pred.holds(a, b)
            } else {
                pred.holds(b, a)
            };
            if ok {
                n += 1;
            }
        }
        n
    };
    while i < l0.len() && j < l1.len() {
        if l0[i].0.start() <= l1[j].0.start() {
            count += scan(l0[i].0, l1, j, true);
            i += 1;
        } else {
            count += scan(l1[j].0, l0, i, false);
            j += 1;
        }
    }
    count
}

fn bench_overlap_heavy(c: &mut Criterion) {
    let n = 3000;
    let q = JoinQuery::chain(&[ij_interval::AllenPredicate::Overlaps]).unwrap();
    let cands = overlap_bucket(n, 7);
    let expect = nested_loop_count(&q, &cands);

    let count_with = |run: &dyn Fn(&mut u64)| {
        let mut count = 0u64;
        run(&mut count);
        assert_eq!(count, expect);
        count
    };

    let mut group = c.benchmark_group("kernel_overlap_heavy");
    group.throughput(Throughput::Elements((2 * n) as u64));
    group.bench_function("nested_loop_oracle", |b| {
        b.iter(|| criterion::black_box(nested_loop_count(&q, &cands)))
    });
    group.bench_function("plane_sweep_oracle", |b| {
        b.iter(|| criterion::black_box(plane_sweep_oracle_count(&q, &cands)))
    });
    group.bench_function("windowed_backtracking", |b| {
        b.iter(|| {
            count_with(&|count| {
                kernel::backtrack_join(&q, &cands, |_| true, |_| *count += 1);
            })
        })
    });
    group.bench_function("dispatching_kernel", |b| {
        b.iter(|| {
            count_with(&|count| {
                kernel::execute(&q, &cands, |_| true, |_| *count += 1);
            })
        })
    });
    group.finish();
}

fn bench_sequence_heavy(c: &mut Criterion) {
    let n = 1200;
    let q = JoinQuery::chain(&[ij_interval::AllenPredicate::Before]).unwrap();
    let cands = sequence_bucket(n, 11);
    let expect = nested_loop_count(&q, &cands);

    let mut group = c.benchmark_group("kernel_sequence_heavy");
    group.throughput(Throughput::Elements((2 * n) as u64));
    group.bench_function("nested_loop_oracle", |b| {
        b.iter(|| criterion::black_box(nested_loop_count(&q, &cands)))
    });
    group.bench_function("windowed_backtracking", |b| {
        b.iter(|| {
            let mut count = 0u64;
            kernel::backtrack_join(&q, &cands, |_| true, |_| count += 1);
            assert_eq!(count, expect);
            criterion::black_box(count)
        })
    });
    group.bench_function("dispatching_kernel", |b| {
        b.iter(|| {
            let mut count = 0u64;
            kernel::execute(&q, &cands, |_| true, |_| count += 1);
            assert_eq!(count, expect);
            criterion::black_box(count)
        })
    });
    group.finish();
}

/// A satisfiable arity-3 colocation clique: r0 ov r1, r1 ⊇ r2, r0 ov r2.
/// Every pair is directly conditioned, so the dispatcher routes the
/// bucket to the event sweep.
fn clique3() -> JoinQuery {
    use ij_interval::AllenPredicate::{Contains, Overlaps};
    JoinQuery::new(
        3,
        vec![
            ij_query::Condition::whole(0, Overlaps, 1),
            ij_query::Condition::whole(1, Contains, 2),
            ij_query::Condition::whole(0, Overlaps, 2),
        ],
    )
    .unwrap()
}

/// An overlap-heavy arity-3 bucket: short-to-medium intervals over a
/// wide span, nested lengths (r0 longest, r2 shortest) so the clique
/// actually fires, with skewed cardinalities (r0 largest) as reducer
/// buckets typically have. Instantaneous concurrency — the gapless
/// active-array size — stays small while every dual-window binding level
/// still pays four `partition_point` searches per visited tuple; the
/// event sweep replaces all of that with linear scans of the tiny active
/// arrays, and its start-order pruning probes only at r2 starts (the
/// clique forces `s0 < s1 < s2`).
fn clique_bucket(counts: [usize; 3], span: i64, seed: u64) -> Candidates {
    let mut rng = StdRng::seed_from_u64(seed);
    let lens = [30..90, 15..60, 0..25];
    let mut c = Candidates::new(3);
    for (r, (n, len)) in counts.into_iter().zip(lens).enumerate() {
        for t in 0..n {
            let s = rng.gen_range(0..span);
            c.push(r, iv(s, s + rng.gen_range(len.clone())), t as TupleId);
        }
    }
    c.finish();
    c
}

/// Triple nested-loop oracle for the clique, with the (0,1) pair check
/// hoisted out of the innermost loop so the count stays tractable.
fn clique_nested_loop_count(q: &JoinQuery, c: &Candidates) -> u64 {
    let conds = q.conditions();
    let pair_conds: Vec<_> = conds
        .iter()
        .filter(|cd| cd.left.rel.idx() < 2 && cd.right.rel.idx() < 2)
        .collect();
    let rest: Vec<_> = conds
        .iter()
        .filter(|cd| cd.left.rel.idx() == 2 || cd.right.rel.idx() == 2)
        .collect();
    let mut count = 0u64;
    for &(a, _) in c.list(0) {
        for &(b, _) in c.list(1) {
            let asg = [a, b, a];
            if !pair_conds.iter().all(|cd| {
                cd.pred
                    .holds(asg[cd.left.rel.idx()], asg[cd.right.rel.idx()])
            }) {
                continue;
            }
            for &(d, _) in c.list(2) {
                let asg = [a, b, d];
                if rest.iter().all(|cd| {
                    cd.pred
                        .holds(asg[cd.left.rel.idx()], asg[cd.right.rel.idx()])
                }) {
                    count += 1;
                }
            }
        }
    }
    count
}

fn bench_event_sweep(c: &mut Criterion) {
    let n = 12000;
    let q = clique3();
    let cands = clique_bucket([6000, 4000, 2000], 8000, 13);
    let expect = clique_nested_loop_count(&q, &cands);
    assert!(expect > 0, "clique workload too sparse");

    let count_with = |run: &dyn Fn(&mut u64)| {
        let mut count = 0u64;
        run(&mut count);
        assert_eq!(count, expect);
        count
    };

    let mut group = c.benchmark_group("kernel_event_sweep");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("windowed_backtracking", |b| {
        b.iter(|| {
            count_with(&|count| {
                kernel::backtrack_join(&q, &cands, |_| true, |_| *count += 1);
            })
        })
    });
    group.bench_function("dual_window_sweep", |b| {
        b.iter(|| {
            count_with(&|count| {
                kernel::sweep_join(&q, &cands, |_| true, |_| *count += 1);
            })
        })
    });
    group.bench_function("event_sweep", |b| {
        b.iter(|| {
            count_with(&|count| {
                kernel::event_sweep_join(&q, &cands, |_| true, |_| *count += 1);
            })
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_overlap_heavy,
    bench_sequence_heavy,
    bench_event_sweep
);
criterion_main!(benches);
