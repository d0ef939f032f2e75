//! End-to-end experiment runner reproducing the Mosaic paper's
//! evaluation (§V).
//!
//! The crate wires every other crate together. There are two ways in:
//! [`Simulation`] runs experiments, and [`AllocationCore`] embeds the
//! protocol in another driver (the `mosaic-node` service).
//!
//! * [`alloc_core`] — the incremental [`AllocationCore`]: training
//!   ingestion, τ-boundary epoch processing, the migration protocol and
//!   an always-queryable `shard_of` map behind one state machine, with
//!   the §V-A windowing rules in one plan that both its event API
//!   (`begin`/`ingest_tx`/`end_stream`) and the offline driver walk;
//! * [`engine`] — the [`EpochStrategy`] trait every allocation
//!   mechanism implements, its adapters, and the incremental history;
//! * [`Strategy`] — the five allocation strategies under test: Mosaic
//!   (client-driven Pilot), G-TxAllo, A-TxAllo, Metis, and hash-based
//!   Random — plus the registry ([`Strategy::build`]) resolving each to
//!   its [`EpochStrategy`] implementation;
//! * [`Scale`] — workload/epoch presets (`quick` for tests, `default`
//!   for commodity-hardware runs, `full` for the paper's 200-epoch
//!   protocol);
//! * [`scenario`] — the declarative experiment spec: a [`Scenario`]
//!   names a trace source, a parameter grid ([`GridAxis`] over
//!   `k`/`η`/`τ`/`β`/`λ`/capacity), the strategy set, parallelism and
//!   observers, and round-trips through a text format so studies live
//!   as checked-in `.scenario` files;
//! * [`session`] — [`Simulation`], the runnable form of a scenario:
//!   the trace is materialised **once** (or streamed), shared across
//!   all grid cells behind an `Arc`, and every cell runs through one
//!   offline driver with the scenario's observer stack;
//! * [`runner`] — the experiment cell ([`ExperimentConfig`]) and its
//!   measured outcome ([`ExperimentResult`]);
//! * [`experiments`] — one function per paper table/figure (Tables I–VI,
//!   Figure 1), each returning a [`mosaic_metrics::TextTable`] shaped
//!   like the original, computed from a session's cells.
//!
//! Cells run in parallel on the order-stable pool of
//! [`mosaic_metrics::parallel`], across the grid and within a cell
//! ([`ExperimentConfig::cell_parallelism`]); the same seed produces
//! byte-identical results at every level.
//!
//! # Example
//!
//! ```no_run
//! use mosaic_sim::{experiments, Scale, Scenario, Simulation};
//!
//! // The paper's Tables I–IV grid as data: materialise the trace once,
//! // run every cell, render Table I.
//! let scenario = Scenario::effectiveness(&Scale::quick());
//! let report = Simulation::from_scenario(scenario).unwrap().run().unwrap();
//! println!("{}", experiments::table1(&report.cells));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod alloc_core;
pub mod engine;
pub mod experiments;
pub mod radar;
pub mod runner;
pub mod scale;
pub mod scenario;
pub mod session;
pub mod strategy;

pub use alloc_core::{AllocationCore, LoadReport, ShardLoad, TrainingFold};
pub use engine::{EpochCtx, EpochDecision, EpochStrategy, MigrationCount, MosaicStrategy};
pub use mosaic_metrics::parallel::Parallelism;
pub use runner::{ExperimentConfig, ExperimentResult};
pub use scale::Scale;
pub use scenario::{Capacity, GridAxis, ObserverSpec, RunTarget, Scenario};
pub use session::{GridCell, RunObserver, Simulation, SimulationReport};
pub use strategy::Strategy;
