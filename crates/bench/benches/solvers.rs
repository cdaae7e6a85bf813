//! Oracle baselines: the exact solvers that decide every family
//! predicate. These are the "substrate" costs the experiment benches
//! compose, measured on random instances (plus one code-gadget MWIS
//! call and one Theorem 2.1 MDS decision) so regressions are visible.

use congest_comm::BitString;
use congest_core::approx_maxis::WeightedMaxIsGapFamily;
use congest_core::mds::MdsFamily;
use congest_core::LowerBoundFamily;
use congest_graph::generators;
use congest_solvers::{hamilton, matching, maxcut, mds, mis, steiner};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_set_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_set_solvers");
    group.sample_size(10);
    for n in [16usize, 24, 32] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g = generators::connected_gnp(n, 0.3, &mut rng);
        group.bench_with_input(BenchmarkId::new("mds_bnb", n), &n, |b, _| {
            b.iter(|| black_box(mds::min_dominating_set_size(&g)))
        });
        group.bench_with_input(BenchmarkId::new("mwis_bnb", n), &n, |b, _| {
            b.iter(|| black_box(mis::independence_number(&g)))
        });
        group.bench_with_input(BenchmarkId::new("matching_dp", n), &n, |b, _| {
            b.iter(|| black_box(matching::max_matching_size(&g)))
        });
    }
    // One MWIS oracle call of E10–E12: the (k, ℓ) = (2, 3) YES code
    // gadget (n = 88, 6551 search nodes), where the per-node kernel cost
    // shows; the random instances above finish in microseconds.
    let k = 2;
    let mut x = BitString::zeros(k * k);
    x.set_pair(k, 0, 0, true);
    let gadget = WeightedMaxIsGapFamily::new(k, 3).build(&x, &x);
    group.bench_function("mwis_code_gadget", |b| {
        b.iter(|| black_box(mis::max_weight_independent_set(&gadget)))
    });
    // One MDS oracle call of the `verify_sweep` K = 5 sweep: the
    // gadget-4 NO pair x = 00001, y = 01110 (n = 40, 40,823 search
    // nodes, an exhaustive refutation under the size cap).
    let fam = MdsFamily::new(4);
    let mut x = BitString::zeros(fam.input_len());
    let mut y = BitString::zeros(fam.input_len());
    x.set(0, true);
    for i in 1..5 {
        y.set(i, true);
    }
    let gadget = fam.build(&x, &y);
    group.bench_function("mds_code_gadget", |b| {
        b.iter(|| black_box(fam.predicate(&gadget)))
    });
    group.finish();
}

fn bench_maxcut_gray(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_maxcut_graycode");
    group.sample_size(10);
    for n in [16usize, 20, 22] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g = generators::gnp(n, 0.4, &mut rng);
        group.bench_with_input(BenchmarkId::new("graycode", n), &n, |b, _| {
            b.iter(|| black_box(maxcut::max_cut(&g)))
        });
    }
    group.finish();
}

fn bench_hamiltonicity(c: &mut Criterion) {
    let mut group = c.benchmark_group("hamiltonicity");
    group.sample_size(10);
    for n in [30usize, 60, 90] {
        // Structured instances: a Hamiltonian cycle plus chords — the
        // regime the gadget graphs live in.
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut g = generators::cycle(n);
        for _ in 0..n {
            use rand::Rng;
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v && !g.has_edge(u, v) {
                g.add_edge(u, v);
            }
        }
        group.bench_with_input(BenchmarkId::new("ham_cycle_yes", n), &n, |b, _| {
            b.iter(|| black_box(hamilton::has_ham_cycle(&g)))
        });
    }
    group.finish();
}

fn bench_steiner(c: &mut Criterion) {
    let mut group = c.benchmark_group("steiner_solvers");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(31);
    let mut g = generators::connected_gnp(14, 0.3, &mut rng);
    for v in 0..14 {
        use rand::Rng;
        g.set_node_weight(v, rng.gen_range(0..6));
    }
    let terms = vec![0usize, 5, 9, 13];
    group.bench_function("cardinality_subset_search", |b| {
        b.iter(|| black_box(steiner::min_steiner_tree_edges(&g, &terms)))
    });
    group.bench_function("node_weighted_dreyfus_wagner", |b| {
        b.iter(|| black_box(steiner::min_node_weight_steiner(&g, &terms)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_set_solvers,
    bench_maxcut_gray,
    bench_hamiltonicity,
    bench_steiner
);
criterion_main!(benches);
