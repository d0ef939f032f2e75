//! Registry-level tests of the unified epoch engine: every strategy the
//! registry can build must produce a valid total allocation, and the
//! parallel experiment grid must be indistinguishable from a sequential
//! run of the same seed.

use std::sync::Arc;

use mosaic::prelude::*;
use mosaic::sim::engine::History;
use mosaic::sim::{experiments, Parallelism, Scale};
use mosaic::workload::TraceSource;

/// A one-cell session running `config` over `trace`.
fn session(config: &ExperimentConfig, trace: &Arc<TransactionTrace>) -> Simulation {
    let scenario = Scenario::new(
        "registry",
        TraceSource::Generated(Scale::quick().workload),
        config.eval_epochs,
    )
    .with_base(config.params)
    .with_strategies([config.strategy])
    .with_cell_parallelism(config.cell_parallelism);
    Simulation::with_trace(scenario, Arc::clone(trace)).unwrap()
}

fn run(config: &ExperimentConfig, trace: &Arc<TransactionTrace>) -> ExperimentResult {
    session(config, trace).run().unwrap().cells.remove(0).result
}

fn quick_trace() -> Arc<TransactionTrace> {
    Arc::new(generate(&Scale::quick().workload).into_trace())
}

/// The quick effectiveness grid at `parallelism` across cells.
fn grid(parallelism: Parallelism) -> Vec<experiments::GridCell> {
    let scenario = Scenario::effectiveness(&Scale::quick()).with_grid_parallelism(parallelism);
    Simulation::from_scenario(scenario)
        .unwrap()
        .run()
        .unwrap()
        .cells
}

#[test]
fn every_registry_strategy_yields_valid_shards_for_all_accounts() {
    let scale = Scale::quick();
    let trace = generate(&scale.workload).into_trace();
    let k = 8u16;
    let params = SystemParams::builder()
        .shards(k)
        .eta(2.0)
        .tau(scale.tau)
        .build()
        .unwrap();
    let (train, _eval) = trace.split_at_fraction(0.9);

    for strategy in Strategy::ALL {
        let mut built = strategy.build(params);
        assert_eq!(built.name(), strategy.name());
        let mut history = History::new();
        history.extend(train);
        built.observe_training(train);
        let (phi, _elapsed) = built.initial_allocation(&mut history, k);
        assert_eq!(phi.shards(), k, "{strategy}: wrong shard count");
        // ϕ is total (Definition 1): every account of the whole trace —
        // including evaluation-only accounts the initial allocation never
        // saw — resolves to a valid shard.
        for account in trace.accounts() {
            let shard = phi.shard_of(account);
            assert!(
                shard.index() < usize::from(k),
                "{strategy}: account {account:?} escaped to shard {shard:?}"
            );
        }
    }
}

#[test]
fn full_runs_stay_within_shard_bounds_for_every_strategy() {
    let scale = Scale::quick();
    let trace = quick_trace();
    let params = SystemParams::builder()
        .shards(4)
        .eta(2.0)
        .tau(scale.tau)
        .build()
        .unwrap();
    for strategy in Strategy::ALL {
        let config = ExperimentConfig::new(params, strategy, scale.eval_epochs);
        let result = run(&config, &trace);
        assert_eq!(result.strategy, strategy);
        assert_eq!(result.per_epoch.len(), scale.eval_epochs);
        for epoch in &result.per_epoch {
            assert!(epoch.cross_ratio >= 0.0 && epoch.cross_ratio <= 1.0);
        }
    }
}

#[test]
fn within_cell_parallel_epochs_are_byte_identical_to_sequential() {
    // Within-cell parallelism (chunked transaction classification and
    // per-shard commits inside `Ledger::process_epoch`) must be
    // invisible in the output: for every registry strategy the CSV
    // series, aggregates and migration totals are byte-identical to a
    // sequential run of the same cell.
    let scale = Scale::quick();
    let trace = quick_trace();
    let params = SystemParams::builder()
        .shards(4)
        .eta(2.0)
        .tau(scale.tau)
        .build()
        .unwrap();
    for strategy in Strategy::ALL {
        let config = ExperimentConfig::new(params, strategy, scale.eval_epochs);
        let sequential = run(&config, &trace);
        for parallelism in [Parallelism::Auto, Parallelism::Threads(3)] {
            let parallel = run(&config.with_cell_parallelism(parallelism), &trace);
            assert_eq!(
                sequential.to_csv(),
                parallel.to_csv(),
                "{strategy}: {parallelism:?} within-cell run diverged from sequential"
            );
            assert_eq!(sequential.aggregate, parallel.aggregate, "{strategy}");
            assert_eq!(
                sequential.total_migrations, parallel.total_migrations,
                "{strategy}"
            );
        }
    }
}

#[test]
fn streamed_cell_matches_collected_cell() {
    // The streaming runner (bounded-memory path for the full protocol)
    // must write exactly the bytes `ExperimentResult::to_csv` produces
    // and report a bit-identical aggregate.
    let scale = Scale::quick();
    let trace = quick_trace();
    let params = SystemParams::builder()
        .shards(4)
        .eta(2.0)
        .tau(scale.tau)
        .build()
        .unwrap();
    for strategy in Strategy::ALL {
        let config = ExperimentConfig::new(params, strategy, scale.eval_epochs);
        let collected = run(&config, &trace);
        let mut bytes: Vec<u8> = Vec::new();
        let sim = session(&config, &trace);
        let summary = sim.stream_cell(&sim.cells()[0], &mut bytes).unwrap();
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            collected.to_csv(),
            "{strategy}"
        );
        assert_eq!(summary.aggregate, collected.aggregate, "{strategy}");
    }
}

#[test]
fn parallel_grid_output_is_byte_identical_to_sequential() {
    let sequential = grid(Parallelism::Sequential);
    let parallel = grid(Parallelism::Auto);

    let csv = |cells: &[experiments::GridCell]| -> String {
        cells
            .iter()
            .map(|c| {
                format!(
                    "# {} / {}\n{}",
                    c.param_label,
                    c.result.strategy,
                    c.result.to_csv()
                )
            })
            .collect()
    };
    assert_eq!(
        csv(&sequential),
        csv(&parallel),
        "parallel grid must be byte-identical to the sequential run"
    );
}
