//! Sequential vs parallel execution of the effectiveness grid (25
//! independent experiment cells) on the quick synthetic trace — the
//! speedup the order-stable worker pool buys on a multicore host. The
//! trace is materialised once, outside the measured runs.

use criterion::{criterion_group, criterion_main, Criterion};
use mosaic_sim::{Parallelism, Scale, Scenario, Simulation};

fn bench_grid_execution(c: &mut Criterion) {
    let scenario = Scenario::effectiveness(&Scale::quick());
    let trace = Simulation::from_scenario(scenario.clone())
        .expect("the quick grid is a valid scenario")
        .trace();
    let session = |parallelism| {
        Simulation::with_trace(
            scenario.clone().with_grid_parallelism(parallelism),
            trace.clone(),
        )
        .expect("the quick grid is a valid scenario")
    };
    let mut group = c.benchmark_group("effectiveness_grid");
    group.sample_size(3);
    for (name, parallelism) in [
        ("sequential", Parallelism::Sequential),
        ("parallel_auto", Parallelism::Auto),
        ("parallel_4", Parallelism::Threads(4)),
    ] {
        let sim = session(parallelism);
        group.bench_function(name, |b| b.iter(|| sim.run().expect("in-memory grid")));
    }
    group.finish();
}

criterion_group!(benches, bench_grid_execution);
criterion_main!(benches);
