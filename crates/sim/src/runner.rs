//! The 90/10 train–eval experiment protocol (§V-A).
//!
//! "The first 90% of the dataset is used for the initial allocation,
//! while the remaining 10% is reserved for evaluation. … Evaluation
//! metrics are calculated using the data from the current epoch based on
//! the allocation results computed at the end of the preceding epoch."
//!
//! The protocol itself — train/eval split, graph accretion, per-epoch
//! allocation and metric collection — is walked by
//! [`crate::AllocationCore`] and run through
//! [`crate::session::Simulation`]. This module defines the experiment
//! cell ([`ExperimentConfig`]) and its measured outcome
//! ([`ExperimentResult`]).

use mosaic_metrics::parallel::Parallelism;
use mosaic_metrics::{Aggregate, EpochMetrics};
use mosaic_types::SystemParams;

use crate::strategy::Strategy;

/// Configuration of one experiment cell (one strategy × one parameter
/// set × one trace).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// System parameters (k, η, τ, λ policy, β).
    pub params: SystemParams,
    /// The allocation strategy under test.
    pub strategy: Strategy,
    /// Fraction of trace *blocks* used for initial allocation (paper:
    /// 0.9).
    pub train_fraction: f64,
    /// Maximum evaluation epochs to run (paper: 200).
    pub eval_epochs: usize,
    /// Miner population size; `None` derives the paper's `4k` at run
    /// time from the cell's *actual* shard count, so a grid axis that
    /// changes `k` never runs with a stale population.
    pub miner_count: Option<usize>,
    /// Migration-commit cap override (`None` = the paper's `λ` bound).
    /// Only meaningful for the client-driven strategy.
    pub migration_capacity: Option<usize>,
    /// Worker-pool sizing for **within-cell** epoch processing
    /// (transaction classification chunks, per-shard commits). Output
    /// is byte-identical at every level; defaults to `Sequential` so
    /// grids that already parallelise across cells don't oversubscribe
    /// — single-cell runs of big traces should set `Auto`.
    pub cell_parallelism: Parallelism,
}

impl ExperimentConfig {
    /// Builds a config with the paper's protocol defaults (90/10 split)
    /// and the miner population derived at run time (`4k`).
    pub fn new(params: SystemParams, strategy: Strategy, eval_epochs: usize) -> Self {
        ExperimentConfig {
            params,
            strategy,
            train_fraction: 0.9,
            eval_epochs,
            miner_count: None,
            migration_capacity: None,
            cell_parallelism: Parallelism::Sequential,
        }
    }

    /// Returns the config with within-cell parallelism set.
    pub fn with_cell_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.cell_parallelism = parallelism;
        self
    }

    /// Returns the config with an explicit miner population, overriding
    /// the run-time `4k` derivation.
    pub fn with_miner_count(mut self, miners: usize) -> Self {
        self.miner_count = Some(miners);
        self
    }

    /// The miner population this cell runs with: the explicit override
    /// if one was set, otherwise the paper's `4k` derived from the
    /// cell's current shard count. The derivation happens here — at run
    /// time — rather than at construction, so editing `params` after
    /// `new` (or expanding a grid axis over `k`) can never leave a
    /// stale population behind.
    pub fn resolved_miner_count(&self) -> usize {
        self.miner_count
            .unwrap_or(usize::from(self.params.shards()) * 4)
    }
}

/// The measured outcome of one experiment cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// The strategy that produced this result.
    pub strategy: Strategy,
    /// The parameters it ran under.
    pub params: SystemParams,
    /// Per-epoch effectiveness metrics.
    pub per_epoch: Vec<EpochMetrics>,
    /// Averages over the evaluation epochs.
    pub aggregate: Aggregate,
    /// Wall-clock seconds of the initial (training-prefix) allocation.
    pub init_seconds: f64,
    /// Mean per-epoch allocation runtime in seconds. For miner-driven
    /// strategies this is the full recomputation; for Mosaic it is the
    /// mean *per-client* Pilot execution time — the quantity Table IV
    /// compares.
    pub mean_alloc_seconds: f64,
    /// Mean bytes of input per allocation run (per client for Mosaic).
    pub mean_input_bytes: f64,
    /// Total account moves over the evaluation (committed migration
    /// requests for Mosaic; allocation-diff moves for miner-driven).
    pub total_migrations: usize,
}

impl ExperimentResult {
    /// Serialises the per-epoch series as CSV
    /// ([`mosaic_metrics::report::EPOCH_CSV_HEADER`] + one row per
    /// epoch), ready for external plotting of the paper's time series.
    ///
    /// Byte-identical to what
    /// [`Simulation::stream_cell`](crate::session::Simulation::stream_cell)
    /// writes for the same cell.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(mosaic_metrics::report::EPOCH_CSV_HEADER);
        out.push('\n');
        for (i, m) in self.per_epoch.iter().enumerate() {
            out.push_str(&m.csv_row(i));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::io;
    use std::sync::Arc;

    use super::*;
    use crate::scale::Scale;
    use crate::scenario::{CellSpec, Scenario};
    use crate::session::Simulation;
    use mosaic_types::Error;
    use mosaic_workload::{generate, TraceSource, TransactionTrace};

    fn quick_trace() -> Arc<TransactionTrace> {
        Arc::new(generate(&Scale::quick().workload).into_trace())
    }

    fn quick_config(strategy: Strategy, k: u16) -> ExperimentConfig {
        let scale = Scale::quick();
        let params = SystemParams::builder()
            .shards(k)
            .eta(2.0)
            .tau(scale.tau)
            .build()
            .unwrap();
        ExperimentConfig::new(params, strategy, scale.eval_epochs)
    }

    /// A one-cell session running `config` over `trace`.
    fn session(config: &ExperimentConfig, trace: &Arc<TransactionTrace>) -> (Simulation, CellSpec) {
        let scenario = Scenario::new(
            "runner-test",
            TraceSource::Generated(Scale::quick().workload),
            config.eval_epochs,
        )
        .with_base(config.params)
        .with_strategies([config.strategy])
        .with_cell_parallelism(config.cell_parallelism);
        let sim = Simulation::with_trace(scenario, Arc::clone(trace)).unwrap();
        let cell = sim.cells()[0].clone();
        assert_eq!(cell.config, *config);
        (sim, cell)
    }

    fn run(config: &ExperimentConfig, trace: &Arc<TransactionTrace>) -> ExperimentResult {
        let (sim, _) = session(config, trace);
        sim.run().unwrap().cells.remove(0).result
    }

    #[test]
    fn all_strategies_complete_on_quick_scale() {
        let trace = quick_trace();
        for strategy in Strategy::ALL {
            let result = run(&quick_config(strategy, 4), &trace);
            assert_eq!(result.per_epoch.len(), Scale::quick().eval_epochs);
            assert!(result.aggregate.cross_ratio >= 0.0);
            assert!(result.aggregate.cross_ratio <= 1.0);
            assert!(
                result.aggregate.normalized_throughput > 0.0,
                "{strategy} throughput zero"
            );
        }
    }

    #[test]
    fn pattern_aware_strategies_beat_random_on_cross_ratio() {
        let trace = quick_trace();
        let random = run(&quick_config(Strategy::Random, 4), &trace);
        for strategy in [Strategy::Mosaic, Strategy::GTxAllo, Strategy::Metis] {
            let result = run(&quick_config(strategy, 4), &trace);
            assert!(
                result.aggregate.cross_ratio < random.aggregate.cross_ratio,
                "{strategy}: {} !< {}",
                result.aggregate.cross_ratio,
                random.aggregate.cross_ratio
            );
        }
    }

    #[test]
    fn mosaic_is_orders_of_magnitude_faster_per_decision() {
        let trace = quick_trace();
        let mosaic = run(&quick_config(Strategy::Mosaic, 4), &trace);
        let gtxallo = run(&quick_config(Strategy::GTxAllo, 4), &trace);
        assert!(
            mosaic.mean_alloc_seconds * 100.0 < gtxallo.mean_alloc_seconds,
            "pilot {} vs g-txallo {}",
            mosaic.mean_alloc_seconds,
            gtxallo.mean_alloc_seconds
        );
        assert!(mosaic.mean_input_bytes * 10.0 < gtxallo.mean_input_bytes);
    }

    #[test]
    fn random_never_migrates() {
        let trace = quick_trace();
        let result = run(&quick_config(Strategy::Random, 4), &trace);
        assert_eq!(result.total_migrations, 0);
        assert_eq!(result.mean_alloc_seconds, 0.0);
    }

    #[test]
    fn mosaic_migrations_bounded_by_lambda_per_epoch() {
        let trace = quick_trace();
        let result = run(&quick_config(Strategy::Mosaic, 4), &trace);
        let scale = Scale::quick();
        // λ = |T_epoch|/k; epochs have tau × txs_per_block transactions.
        let lambda = (u64::from(scale.tau) as usize * scale.workload.txs_per_block) as f64 / 4.0;
        for epoch in &result.per_epoch {
            assert!(
                (epoch.migrations as f64) <= lambda + 1.0,
                "epoch committed {} > lambda {lambda}",
                epoch.migrations
            );
        }
    }

    #[test]
    fn miner_count_tracks_shard_count_at_run_time() {
        let config = quick_config(Strategy::Random, 4);
        assert_eq!(config.resolved_miner_count(), 16);
        // Editing k after construction (what a grid axis does) moves the
        // derived population with it — no stale 4k snapshot.
        let mut edited = config;
        edited.params = edited.params.with_shards(8).unwrap();
        assert_eq!(edited.resolved_miner_count(), 32);
        // An explicit override wins regardless of k.
        assert_eq!(edited.with_miner_count(10).resolved_miner_count(), 10);
    }

    #[test]
    fn csv_export_has_one_row_per_epoch() {
        let trace = quick_trace();
        let result = run(&quick_config(Strategy::Random, 4), &trace);
        let csv = result.to_csv();
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), result.per_epoch.len() + 1);
        assert!(lines[0].starts_with("epoch,cross_ratio"));
        // Every data row parses back.
        for line in &lines[1..] {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), 6);
            assert!(fields[1].parse::<f64>().is_ok());
            assert!(fields[4].parse::<usize>().is_ok());
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let trace = quick_trace();
        let a = run(&quick_config(Strategy::Mosaic, 4), &trace);
        let b = run(&quick_config(Strategy::Mosaic, 4), &trace);
        assert_eq!(a.per_epoch, b.per_epoch);
        assert_eq!(a.total_migrations, b.total_migrations);
    }

    #[test]
    fn streaming_run_matches_collected_run_byte_for_byte() {
        let trace = quick_trace();
        for strategy in Strategy::ALL {
            let config = quick_config(strategy, 4);
            let collected = run(&config, &trace);
            let (sim, cell) = session(&config, &trace);
            let mut bytes: Vec<u8> = Vec::new();
            let summary = sim.stream_cell(&cell, &mut bytes).unwrap();
            assert_eq!(
                String::from_utf8(bytes).unwrap(),
                collected.to_csv(),
                "{strategy}: streamed CSV diverged"
            );
            assert_eq!(summary.aggregate, collected.aggregate, "{strategy}");
            assert_eq!(summary.epochs, collected.per_epoch.len());
            assert_eq!(summary.total_migrations, collected.total_migrations);
        }
    }

    #[test]
    fn streaming_run_aborts_on_sink_failure() {
        /// Accepts `limit` bytes, then reports a full disk forever.
        struct FailingSink {
            written: usize,
            limit: usize,
        }
        impl io::Write for FailingSink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.written + buf.len() > self.limit {
                    return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
                }
                self.written += buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let trace = quick_trace();
        let config = quick_config(Strategy::Random, 4);
        let (sim, cell) = session(&config, &trace);
        // Room for the header and roughly one row, then failure.
        let mut sink = FailingSink {
            written: 0,
            limit: mosaic_metrics::report::EPOCH_CSV_HEADER.len() + 40,
        };
        let err = sim.stream_cell(&cell, &mut sink).unwrap_err();
        assert!(
            matches!(&err, Error::Io { message, .. } if message.contains("disk full")),
            "{err}"
        );
    }

    #[test]
    fn cell_parallelism_does_not_change_results() {
        let trace = quick_trace();
        for strategy in Strategy::ALL {
            let config = quick_config(strategy, 4);
            let sequential = run(&config, &trace);
            let parallel = run(
                &config.with_cell_parallelism(Parallelism::Threads(4)),
                &trace,
            );
            assert_eq!(
                sequential.to_csv(),
                parallel.to_csv(),
                "{strategy}: within-cell parallel run diverged"
            );
            assert_eq!(sequential.total_migrations, parallel.total_migrations);
        }
    }
}
