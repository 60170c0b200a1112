//! Criterion micro-benchmarks for the packet router (E-T4 substrate):
//! batch routing throughput per machine family and per queue discipline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fcn_routing::engine::reference;
use fcn_routing::{
    measure_rate_ctx, route_batch, route_compiled, CompiledNet, PacketBatch, PathOracle, PlanCache,
    QueueDiscipline, RouteCtx, RouterConfig, RouterScratch, Strategy,
};
use fcn_topology::Machine;

fn machines() -> Vec<Machine> {
    vec![
        Machine::mesh(2, 16),
        Machine::de_bruijn(8),
        Machine::butterfly(5),
        Machine::tree(7),
    ]
}

fn bench_route_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("route_batch");
    group.sample_size(10);
    for m in machines() {
        let traffic = m.symmetric_traffic();
        let mut oracle = PathOracle::new(m.graph(), 42);
        let demands: Vec<_> = {
            let rng = oracle.rng();
            (0..4 * traffic.n()).map(|_| traffic.sample(rng)).collect()
        };
        let routes = oracle.routes(&demands, Strategy::ShortestPath);
        group.bench_with_input(
            BenchmarkId::from_parameter(m.name()),
            &routes,
            |b, routes| {
                b.iter(|| {
                    let out = route_batch(&m, routes.clone(), RouterConfig::default());
                    assert!(out.completed);
                    out.ticks
                })
            },
        );
    }
    group.finish();
}

fn bench_disciplines(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_discipline");
    group.sample_size(10);
    let m = Machine::mesh(2, 16);
    let traffic = m.symmetric_traffic();
    let mut oracle = PathOracle::new(m.graph(), 7);
    let demands: Vec<_> = {
        let rng = oracle.rng();
        (0..4 * traffic.n()).map(|_| traffic.sample(rng)).collect()
    };
    let routes = oracle.routes(&demands, Strategy::ShortestPath);
    for d in [
        QueueDiscipline::Fifo,
        QueueDiscipline::FarthestFirst,
        QueueDiscipline::RandomRank,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{d:?}")),
            &d,
            |b, &d| {
                let cfg = RouterConfig {
                    discipline: d,
                    ..Default::default()
                };
                b.iter(|| route_batch(&m, routes.clone(), cfg).ticks)
            },
        );
    }
    group.finish();
}

fn bench_path_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("path_oracle");
    group.sample_size(10);
    let m = Machine::de_bruijn(9);
    let traffic = m.symmetric_traffic();
    for strategy in [Strategy::ShortestPath, Strategy::Valiant] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{strategy:?}")),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    let mut oracle = PathOracle::new(m.graph(), 3);
                    let demands: Vec<_> = {
                        let rng = oracle.rng();
                        (0..2 * traffic.n()).map(|_| traffic.sample(rng)).collect()
                    };
                    oracle.routes(&demands, strategy).len()
                })
            },
        );
    }
    group.finish();
}

/// The estimator's inner loop: one trial = growing batches (2n, 4n, 8n
/// messages) that share one plan seed. With a [`PlanCache`] the later
/// batches reuse the BFS trees built by the earlier ones; without it every
/// batch replans from scratch. The gap is the cache's wall-clock win.
/// (Uses a mesh: its routing is BFS-backed. Arithmetic policies like
/// de Bruijn bit-correction compute no trees and ignore the cache.)
fn bench_plan_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_cache_sweep");
    group.sample_size(10);
    let m = Machine::mesh(2, 64);
    let traffic = m.symmetric_traffic();
    let n = traffic.n();
    let sweep = |cache: Option<&PlanCache>| {
        let mut ctx = RouteCtx::new(&m);
        if let Some(c) = cache {
            ctx = ctx.with_cache(c);
        }
        let mut ticks = 0;
        for (cell, mult) in [2usize, 4, 8].iter().enumerate() {
            let s = measure_rate_ctx(
                &ctx,
                &traffic,
                mult * n,
                Strategy::ShortestPath,
                RouterConfig::default(),
                fcn_exec::job_seed(11, cell as u64),
                17, // shared per-trial plan seed, as in BandwidthEstimator
            );
            ticks += s.ticks;
        }
        ticks
    };
    group.bench_function("uncached", |b| b.iter(|| sweep(None)));
    group.bench_function("cached", |b| {
        b.iter(|| {
            let cache = PlanCache::default();
            sweep(Some(&cache))
        })
    });
    group.finish();
}

/// The compile-once/run-many split at saturation scale: mesh2(64)
/// (n = 4096) under 8n symmetric packets — the heaviest cell of the default
/// estimator sweep. `reference` is the retained pre-compilation simulator
/// (wire arrays rebuilt and every hop binary-searched per call); `compiled`
/// routes a pre-compiled [`PacketBatch`] over a shared [`CompiledNet`] with
/// a reused [`RouterScratch`], exactly as sweeps do. Both produce
/// bit-identical outcomes (`tests/compiled_router.rs`); only the wall clock
/// differs.
fn bench_compiled_vs_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("router_compile_split");
    group.sample_size(10);
    let m = Machine::mesh(2, 64);
    let traffic = m.symmetric_traffic();
    let mut oracle = PathOracle::new(m.graph(), 42);
    let demands: Vec<_> = {
        let rng = oracle.rng();
        (0..8 * traffic.n()).map(|_| traffic.sample(rng)).collect()
    };
    let routes = oracle.routes(&demands, Strategy::ShortestPath);
    let cfg = RouterConfig::default();
    group.bench_function("reference", |b| {
        b.iter(|| reference::route_batch(&m, routes.clone(), cfg).ticks)
    });
    let net = CompiledNet::compile(&m);
    let batch = PacketBatch::compile(&net, &routes).expect("planner paths are walks");
    let mut scratch = RouterScratch::new();
    group.bench_function("compiled", |b| {
        b.iter(|| route_compiled(&net, &batch, None, cfg, &mut scratch, None).ticks)
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_route_batch,
    bench_disciplines,
    bench_path_oracle,
    bench_plan_cache,
    bench_compiled_vs_reference
);
criterion_main!(benches);
