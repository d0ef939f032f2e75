//! **Mosaic** — a client-driven account allocation framework for sharded
//! blockchains, with its full evaluation substrate.
//!
//! This is the facade crate of the workspace: it re-exports every
//! component so applications can depend on a single crate. The
//! implementation reproduces *"Mosaic: Client-driven Account Allocation
//! Framework in Sharded Blockchains"* (ICDCS 2025) from scratch:
//!
//! | Module | Contents |
//! |---|---|
//! | [`types`] | ids, transactions, ϕ, parameters, SHA-256/FNV |
//! | [`workload`] | synthetic Ethereum-like trace generator + CSV I/O |
//! | [`txgraph`] | account-interaction graph (builder, CSR, analysis) |
//! | [`partition`] | hash-based allocation + multilevel Metis-like partitioner |
//! | [`txallo`] | G-TxAllo / A-TxAllo baselines (ICDE'23, reimplemented) |
//! | [`chain`] | shard chains, beacon chain, miners, reconfiguration |
//! | [`core`] | **the paper's contribution**: Mosaic framework + Pilot |
//! | [`metrics`] | cross-shard ratio, workload deviation, throughput |
//! | [`sim`] | the unified epoch engine + experiment runner regenerating Tables I–VI & Fig. 1 |
//! | [`node`] | the live TCP service + typed client (`MosaicClient`), line & binary codecs |
//! | [`telemetry`] | zero-interference counters/gauges/histograms/spans, JSONL + Prometheus export |
//!
//! # Quickstart
//!
//! ```
//! use mosaic::prelude::*;
//!
//! # fn main() -> Result<(), mosaic::types::Error> {
//! // A tiny sharded system with 4 shards.
//! let params = SystemParams::builder().shards(4).tau(50).build()?;
//! let trace = generate(&WorkloadConfig::small_test(7)).into_trace();
//!
//! // Initial allocation from the training prefix, then run Mosaic.
//! let (train, _eval) = trace.split_at_fraction(0.9);
//! let mut builder = GraphBuilder::new();
//! builder.add_transactions(train);
//! let phi = GTxAllo::default().allocate(&builder.build(), 4);
//!
//! let mut ledger = Ledger::new(params, phi, 8)?;
//! let mut mosaic = MosaicFramework::new(params);
//! mosaic.observe_epoch(train);
//!
//! for window in trace.epoch_windows(BlockHeight::new(1800), 50).take(4) {
//!     let (outcome, _report) = mosaic.run_epoch(&mut ledger, window);
//!     assert!(outcome.load.cross_ratio() <= 1.0);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! # Extending the evaluation: `EpochStrategy`
//!
//! Every allocation mechanism — client-driven Mosaic, the miner-driven
//! TxAllo/Metis baselines, static hashing — runs through **one** epoch
//! pipeline behind the [`sim::engine::EpochStrategy`] trait. A strategy
//! provides its initial allocation from the training prefix, a
//! per-epoch `before_epoch` hook returning an
//! [`sim::engine::EpochDecision`] (a replacement ϕ, or migration
//! requests already submitted to the beacon, plus timing and input-size
//! accounting), and an optional `after_epoch` observation hook. Any
//! [`partition::GlobalAllocator`] is an `EpochStrategy` for free via a
//! blanket impl.
//!
//! To evaluate a new mechanism, implement the trait and run it through
//! a [`sim::Simulation`] session ([`sim::Simulation::run_with_factory`])
//! — or add a [`sim::Strategy`]-registry entry ([`sim::Strategy::build`])
//! to put it in every table. Experiments themselves are declarative,
//! serializable [`sim::Scenario`] specs (checked in as `.scenario`
//! files under `scenarios/`): a scenario names the trace source, the
//! parameter grid, the strategy set, both parallelism levels and the
//! observer stack; the session materialises the trace **once**, shares
//! it across every grid cell behind an `Arc`, and runs the independent
//! cells on an order-stable worker pool ([`metrics::parallel`]). Results
//! are deterministic and identical at every parallelism level.
//!
//! ```
//! use mosaic::prelude::*;
//! use mosaic::sim::{MosaicStrategy, Simulation};
//! use mosaic::workload::TraceSource;
//!
//! # fn main() -> Result<(), mosaic::types::Error> {
//! let scale = Scale::quick();
//! let scenario = Scenario::new(
//!     "custom-policy",
//!     TraceSource::Generated(scale.workload.clone()),
//!     scale.eval_epochs,
//! )
//! .with_base(SystemParams::builder().shards(4).tau(scale.tau).build()?)
//! .with_strategies([Strategy::Mosaic]);
//!
//! // Any ClientPolicy slots into the client-driven wrapper; any custom
//! // EpochStrategy impl can be driven the same way.
//! let report = Simulation::from_scenario(scenario)?.run_with_factory(|cell| {
//!     Box::new(MosaicStrategy::new(
//!         cell.config.params,
//!         mosaic::core::policy::PilotPolicy,
//!     ))
//! })?;
//! assert_eq!(report.cells[0].result.per_epoch.len(), scale.eval_epochs);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use mosaic_chain as chain;
pub use mosaic_core as core;
pub use mosaic_metrics as metrics;
pub use mosaic_node as node;
pub use mosaic_partition as partition;
pub use mosaic_sim as sim;
pub use mosaic_telemetry as telemetry;
pub use mosaic_txallo as txallo;
pub use mosaic_txgraph as txgraph;
pub use mosaic_types as types;
pub use mosaic_workload as workload;

/// The most common imports, bundled.
pub mod prelude {
    pub use mosaic_chain::{BeaconChain, Ledger, MinerSet, ShardChain};
    pub use mosaic_core::{
        Client, CounterpartySet, MosaicFramework, Pilot, PilotDecision, PilotInput, WorkloadOracle,
    };
    pub use mosaic_metrics::{Aggregate, EpochLoad, EpochMetrics, LoadParams, TextTable};
    pub use mosaic_node::{MosaicClient, Request, Response, Wire};
    pub use mosaic_partition::{GlobalAllocator, HashAllocator, MetisPartitioner};
    pub use mosaic_sim::{
        EpochStrategy, ExperimentConfig, ExperimentResult, Parallelism, Scale, Scenario,
        Simulation, Strategy,
    };
    pub use mosaic_txallo::{ATxAllo, GTxAllo, TxAlloConfig};
    pub use mosaic_txgraph::{GraphBuilder, TxGraph};
    pub use mosaic_types::{
        AccountId, AccountShardMap, BlockHeight, EpochId, MigrationRequest, ShardId, SystemParams,
        Transaction, TxId,
    };
    pub use mosaic_workload::{generate, TransactionTrace, WorkloadConfig};
}
