//! Cross-crate integration tests: the full pipeline (workload → initial
//! allocation → Mosaic epochs → metrics) with system-level invariants.

use std::sync::Arc;

use mosaic::prelude::*;
use mosaic::sim::{runner, Scale};
use mosaic::workload::TraceSource;

/// Runs `config` over `trace` as a one-cell [`Simulation`].
fn run(config: &ExperimentConfig, trace: TransactionTrace) -> ExperimentResult {
    let scenario = Scenario::new(
        "end-to-end",
        TraceSource::Generated(Scale::quick().workload),
        config.eval_epochs,
    )
    .with_base(config.params)
    .with_strategies([config.strategy]);
    Simulation::with_trace(scenario, Arc::new(trace))
        .unwrap()
        .run()
        .unwrap()
        .cells
        .remove(0)
        .result
}

/// Runs the Mosaic strategy on the quick scale and returns everything
/// needed for invariant checks.
fn run_mosaic_pipeline(k: u16) -> (Ledger, MosaicFramework, TransactionTrace, SystemParams) {
    let scale = Scale::quick();
    let trace = generate(&scale.workload).into_trace();
    let params = SystemParams::builder()
        .shards(k)
        .eta(2.0)
        .tau(scale.tau)
        .build()
        .unwrap();
    let (train, _) = trace.split_at_fraction(0.9);
    let mut builder = GraphBuilder::new();
    builder.add_transactions(train);
    let phi = GTxAllo::default().allocate(&builder.build(), k);
    let mut ledger = Ledger::new(params, phi, usize::from(k) * 2).unwrap();
    let mut mosaic = MosaicFramework::new(params);
    mosaic.observe_epoch(train);

    let cut = BlockHeight::new((trace.max_block().unwrap().as_u64() + 1) * 9 / 10);
    let windows: Vec<Vec<Transaction>> = trace
        .epoch_windows(cut, params.tau())
        .take(4)
        .map(|w| w.to_vec())
        .collect();
    for window in &windows {
        let (_outcome, _report) = mosaic.run_epoch(&mut ledger, window);
    }
    (ledger, mosaic, trace, params)
}

#[test]
fn phi_remains_a_valid_partition_through_migrations() {
    let (ledger, _mosaic, trace, params) = run_mosaic_pipeline(4);
    // Definition 1: every account resolves to exactly one in-range shard.
    let counts = ledger.phi().check_partition(trace.accounts()).unwrap();
    assert_eq!(counts.len(), usize::from(params.shards()));
    assert_eq!(
        counts.iter().sum::<usize>(),
        trace.account_count(),
        "completeness: every account placed exactly once"
    );
}

#[test]
fn chains_verify_after_full_run() {
    let (ledger, _, _, _) = run_mosaic_pipeline(4);
    assert!(ledger.verify_chains());
    // One block per processed epoch on every chain.
    for shard in ledger.shards() {
        assert_eq!(shard.len(), 5); // genesis + 4 epochs
    }
    assert_eq!(ledger.beacon().len(), 5);
}

#[test]
fn committed_migrations_never_exceed_lambda() {
    let scale = Scale::quick();
    let trace = generate(&scale.workload).into_trace();
    let params = SystemParams::builder()
        .shards(4)
        .tau(scale.tau)
        .build()
        .unwrap();
    let config = runner::ExperimentConfig::new(params, Strategy::Mosaic, scale.eval_epochs);
    let result = run(&config, trace);
    for epoch in &result.per_epoch {
        let lambda = epoch.total_txs as f64 / 4.0;
        assert!(
            epoch.migrations as f64 <= lambda,
            "{} migrations > lambda {lambda}",
            epoch.migrations
        );
    }
}

#[test]
fn full_pipeline_is_deterministic_across_runs() {
    let collect = || {
        let (ledger, mosaic, _, _) = run_mosaic_pipeline(4);
        (
            ledger.beacon().committed_len(),
            ledger.meter().total(),
            mosaic.client_count(),
        )
    };
    assert_eq!(collect(), collect());
}

#[test]
fn migration_state_bytes_track_committed_migrations() {
    let (ledger, _, _, _) = run_mosaic_pipeline(4);
    let committed = ledger.beacon().committed_len() as u64;
    assert_eq!(
        ledger.meter().migration_state,
        committed * mosaic::chain::network::ACCOUNT_STATE_BYTES
    );
}

#[test]
fn mosaic_converges_not_thrashes() {
    // Cross-shard ratio in the last epoch should not be dramatically
    // worse than in the first: client-driven migration must not cause
    // systemic thrash.
    let scale = Scale::quick();
    let trace = generate(&scale.workload).into_trace();
    let params = SystemParams::builder()
        .shards(4)
        .tau(scale.tau)
        .build()
        .unwrap();
    let config = runner::ExperimentConfig::new(params, Strategy::Mosaic, scale.eval_epochs);
    let result = run(&config, trace);
    let first = result.per_epoch.first().unwrap().cross_ratio;
    let last = result.per_epoch.last().unwrap().cross_ratio;
    assert!(
        last <= first + 0.15,
        "cross ratio drifted {first} -> {last}"
    );
}

#[test]
fn csv_roundtrip_preserves_experiment_results() {
    // A trace exported and re-imported must produce identical metrics.
    let scale = Scale::quick();
    let trace = generate(&scale.workload).into_trace();
    let mut buf = Vec::new();
    mosaic::workload::csv::write_trace(&trace, &mut buf).unwrap();
    let reloaded = mosaic::workload::csv::read_trace(buf.as_slice()).unwrap();

    let params = SystemParams::builder()
        .shards(4)
        .tau(scale.tau)
        .build()
        .unwrap();
    let config = runner::ExperimentConfig::new(params, Strategy::Random, 3);
    let a = run(&config, trace);
    let b = run(&config, reloaded);
    assert_eq!(a.per_epoch, b.per_epoch);
}
