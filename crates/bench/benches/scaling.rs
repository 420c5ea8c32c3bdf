//! E10 — scaling ablations beyond the paper's example: how the
//! construction and the rate solvers behave as the model grows.
//!
//! * TRG construction vs. cycle length, fork/join width and
//!   producer–consumer capacity;
//! * decision-graph rate solving (structural ergodicity check plus the
//!   sparse fixed-reference solve) on lossy forwarding chains.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tpn_core::{solve_rates, DecisionGraph};
use tpn_protocols::families;
use tpn_rational::Rational;
use tpn_reach::{build_trg, NumericDomain, TrgOptions};

fn bench_trg_scaling(c: &mut Criterion) {
    let domain = NumericDomain::new();
    let opts = TrgOptions::default();
    let mut g = c.benchmark_group("scaling/trg_cycle_length");
    for n in [4usize, 16, 64, 256] {
        let times: Vec<Rational> = (1..=n).map(|i| Rational::from_int(i as i128)).collect();
        let net = families::cycle(&times);
        g.bench_with_input(BenchmarkId::from_parameter(n), &net, |b, net| {
            b.iter(|| build_trg(black_box(net), &domain, &opts).unwrap())
        });
    }
    g.finish();

    let mut g = c.benchmark_group("scaling/trg_fork_join_width");
    for n in [2usize, 4, 8, 12] {
        let net = families::fork_join(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &net, |b, net| {
            b.iter(|| build_trg(black_box(net), &domain, &opts).unwrap())
        });
    }
    g.finish();

    let mut g = c.benchmark_group("scaling/trg_buffer_capacity");
    for cap in [1u32, 4, 16, 64] {
        let net = families::producer_consumer(cap, Rational::from_int(2), Rational::from_int(5));
        g.bench_with_input(BenchmarkId::from_parameter(cap), &net, |b, net| {
            b.iter(|| build_trg(black_box(net), &domain, &opts).unwrap())
        });
    }
    g.finish();
}

fn bench_rate_solvers(c: &mut Criterion) {
    let domain = NumericDomain::new();
    let opts = TrgOptions::default();
    // 32 hops (65 decision edges) is the largest chain whose exact
    // elimination stays inside i128 with 1/10 loss probabilities;
    // beyond that the coefficient growth of exact arithmetic overflows
    // (a documented limitation of the checked-i128 rational substrate).
    for hops in [4usize, 16, 32] {
        let (net, _) = families::lossy_chain(hops, Rational::new(1, 10), Rational::from_int(2));
        let trg = build_trg(&net, &domain, &opts).unwrap();
        let dg = DecisionGraph::from_trg(&trg, &domain).unwrap();
        eprintln!(
            "[scaling] lossy_chain({hops}): {} states, {} decision edges",
            trg.num_states(),
            dg.num_edges()
        );
        let mut g = c.benchmark_group(format!("scaling/rate_solver_{hops}_hops"));
        g.bench_function("solve_rates", |b| {
            b.iter(|| black_box(solve_rates(&dg, 0).unwrap()))
        });
        g.finish();
    }
}

criterion_group!(benches, bench_trg_scaling, bench_rate_solvers);
criterion_main!(benches);
