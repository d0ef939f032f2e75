//! The incremental allocation core: one pipeline behind every driver.
//!
//! [`AllocationCore`] owns the pieces of the §V-A epoch protocol —
//! incremental [`History`]/CSR training-graph absorption,
//! [`EpochStrategy`] invocation at τ-block boundaries, the migration
//! protocol (beacon commits, reconfiguration, per-shard processing via
//! [`mosaic_chain::Ledger`]), and an always-queryable `shard_of` map.
//! The protocol's windowing rules — the training cut, τ-block training
//! chunks, the recent window, the evaluation windows and the
//! `eval_epochs` cap — live in one private `EpochPlan`. The offline
//! driver inside [`crate::session::Simulation`] and the event API
//! below both walk that plan, so offline runs and a live `mosaic-node`
//! service are thin drivers over the *same* state machine,
//! byte-identical by construction.
//!
//! Two layers of API:
//!
//! * **Batch primitives** — [`AllocationCore::ingest_training`] /
//!   [`AllocationCore::ingest_training_chunk`],
//!   [`AllocationCore::finish_training`],
//!   [`AllocationCore::process_epoch`], and the `commit_window_*`
//!   methods. Drivers that already hold whole epoch windows call
//!   these: the offline driver borrows ranges of a resident trace
//!   (`ingest_training` + `commit_window_retained`, one CSR merge at
//!   the initial allocation) or owns buffers read from a window stream
//!   (`ingest_training_chunk` + `commit_window_owned`).
//! * **Event API** — [`AllocationCore::begin`],
//!   [`AllocationCore::ingest_tx`] / [`AllocationCore::ingest_block`],
//!   [`AllocationCore::end_stream`]. Transactions arrive one at a time
//!   (a socket, a mempool feed); the core detects τ-block epoch
//!   boundaries itself, closes epochs as they complete, and hands the
//!   per-epoch metric rows back. Queries ([`AllocationCore::lookup`],
//!   [`AllocationCore::load_report`]) are answerable at any point.
//!
//! Both layers fold training data and process epochs through the same
//! code, and both orderings are chunking-invariant folds in block
//! order, so the event-driven rows are byte-identical to the batch rows
//! for the same trace (asserted by `tests/scenario_equivalence.rs`, the
//! `mosaic-node` replay tests and the CI node job).

use std::time::Duration;

use mosaic_chain::Ledger;
use mosaic_metrics::{AggregateBuilder, EpochMetrics};
use mosaic_telemetry::{Counter, DurationStats, Gauge, Recorder};
use mosaic_types::{AccountId, Error, Result, ShardId, Transaction};

use crate::engine::{EpochCtx, EpochStrategy, History, MigrationCount, RunSummary};
use crate::runner::ExperimentConfig;

/// How a training chunk is folded into the [`History`].
///
/// The distinction exists because a driver feeding owned chunks wants
/// the un-merged graph delta bounded by one chunk
/// ([`TrainingFold::Merge`]) except for the final recent-window chunk
/// (kept un-merged so the initial allocation pays for exactly one
/// merge, matching the borrowed-slice feed's cost accounting), while
/// strategies that never read the training graph at all skip edge
/// accumulation entirely ([`TrainingFold::Skip`]) — the RSS/time win
/// large streamed scenarios rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainingFold {
    /// Absorb the chunk's edges and merge them into the maintained CSR.
    Merge,
    /// Absorb the chunk's edges but leave the merge to the next
    /// [`History::graph`] call (used for the final training chunk).
    Defer,
    /// Record only the transaction count; build no graph state. Valid
    /// only when the strategy neither consumes history after the
    /// initial allocation nor reads the training graph in it
    /// ([`skips_training_graph`]).
    Skip,
}

/// `true` if `strategy` lets the drivers skip training-graph
/// accumulation entirely: it never consults the history after the
/// initial allocation *and* its initial allocation never reads the
/// graph (e.g. the hash-based Random baseline). Such strategies see an
/// empty graph at initial-allocation time, which by contract
/// ([`EpochStrategy::needs_training_graph`]) yields the identical ϕ.
pub fn skips_training_graph(strategy: &dyn EpochStrategy) -> bool {
    !strategy.consumes_history() && !strategy.needs_training_graph()
}

/// Per-shard slice of the last processed epoch's load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLoad {
    /// The shard.
    pub shard: u16,
    /// Intra-shard transactions the shard processed last epoch.
    pub intra_txs: usize,
    /// Cross-shard transactions the shard was the home shard for.
    pub cross_txs: usize,
}

/// A queryable snapshot of the chain state after the last processed
/// epoch — what a live node serves for "per-shard load metrics",
/// assembled from `chain::{beacon, ledger, reconfig}` state.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Identifier of the last processed epoch.
    pub epoch: u64,
    /// Number of evaluation epochs processed so far.
    pub epochs_processed: usize,
    /// The per-shard migration capacity λ used last epoch.
    pub lambda: f64,
    /// Migration requests the beacon committed at the last boundary.
    pub committed_migrations: usize,
    /// Committed migrations applied to ϕ last epoch
    /// ([`mosaic_chain::ReconfigReport`]).
    pub migrations_applied: usize,
    /// Committed migrations whose `from` shard was stale.
    pub migrations_stale: usize,
    /// Miners reshuffled last epoch.
    pub miners_moved: usize,
    /// Migrations counted over the whole run so far.
    pub total_migrations: usize,
    /// Blocks on the beacon chain.
    pub beacon_blocks: usize,
    /// Total network bytes metered since the run started.
    pub network_bytes: u64,
    /// Last epoch's per-shard intra/cross transaction counts.
    pub shards: Vec<ShardLoad>,
}

/// Fields of the last processed epoch the core keeps for
/// [`AllocationCore::load_report`].
#[derive(Debug, Clone)]
struct EpochSnapshot {
    epoch: u64,
    lambda: f64,
    committed: usize,
    migrations_applied: usize,
    migrations_stale: usize,
    miners_moved: usize,
    intra: Vec<usize>,
    cross: Vec<usize>,
}

/// The §V-A windowing rules over a trace spanning blocks `[0, blocks)`
/// — the one place the training cut and the recent window are derived.
///
/// The plan is a sequence of [`Step`]s: τ-block training chunks up to
/// `cut − τ`, then the recent window `[cut − τ, cut)` that closes
/// training (and becomes the first epoch's recent window), then
/// τ-block evaluation windows while their start is `≤ max_block`, at
/// most `eval_epochs` of them. Windows past the last transaction are
/// still planned (they are empty). The offline driver
/// ([`crate::session::Simulation`]) and the event API
/// ([`AllocationCore::begin`]) both walk it, so every feed processes
/// the same ranges in the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EpochPlan {
    tau: u64,
    cut: u64,
    recent_start: u64,
    max_block: u64,
    eval_epochs: usize,
}

/// What one [`EpochPlan`] range is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepKind {
    /// A training chunk before the recent window.
    Train,
    /// The recent window `[cut − τ, cut)`: the last training chunk,
    /// after which the initial allocation runs.
    Recent,
    /// Evaluation epoch `i`.
    Eval(usize),
}

/// One block range `[start, end)` of an [`EpochPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Step {
    pub(crate) kind: StepKind,
    pub(crate) start: u64,
    pub(crate) end: u64,
}

impl Step {
    /// How a training step is folded into the history: not at all if
    /// the strategy skips the training graph, deferred to the initial
    /// allocation for the recent window, merged otherwise.
    pub(crate) fn fold(self, skip_graph: bool) -> TrainingFold {
        if skip_graph {
            TrainingFold::Skip
        } else if self.kind == StepKind::Recent {
            TrainingFold::Defer
        } else {
            TrainingFold::Merge
        }
    }
}

impl EpochPlan {
    /// The plan of `config` over a trace spanning `blocks` blocks.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyTrace`] if `blocks` is zero.
    pub(crate) fn new(config: &ExperimentConfig, blocks: u64) -> Result<Self> {
        if blocks == 0 {
            return Err(Error::EmptyTrace);
        }
        let tau = u64::from(config.params.tau());
        let cut = ((blocks as f64) * config.train_fraction).floor() as u64;
        Ok(EpochPlan {
            tau,
            cut,
            recent_start: cut.saturating_sub(tau),
            max_block: blocks - 1,
            eval_epochs: config.eval_epochs,
        })
    }

    /// The first step (a training chunk or, if `cut ≤ τ`, the recent
    /// window).
    pub(crate) fn first(&self) -> Step {
        self.training_step(0)
    }

    /// The step after `step`, or `None` once the plan is exhausted.
    pub(crate) fn next(&self, step: Step) -> Option<Step> {
        match step.kind {
            StepKind::Train => Some(self.training_step(step.end)),
            StepKind::Recent => self.eval_step(0, self.cut),
            StepKind::Eval(i) => self.eval_step(i + 1, step.end),
        }
    }

    /// Every step, in order.
    pub(crate) fn steps(self) -> impl Iterator<Item = Step> {
        std::iter::successors(Some(self.first()), move |&step| self.next(step))
    }

    fn training_step(&self, start: u64) -> Step {
        if start >= self.recent_start {
            Step {
                kind: StepKind::Recent,
                start: self.recent_start,
                end: self.cut,
            }
        } else {
            Step {
                kind: StepKind::Train,
                start,
                end: start.saturating_add(self.tau).min(self.recent_start),
            }
        }
    }

    fn eval_step(&self, index: usize, start: u64) -> Option<Step> {
        (index < self.eval_epochs && start <= self.max_block).then_some(Step {
            kind: StepKind::Eval(index),
            start,
            end: start.saturating_add(self.tau),
        })
    }
}

/// Windowing state of the event-driven feed ([`AllocationCore::begin`]).
#[derive(Debug)]
struct StreamState {
    blocks: u64,
    plan: EpochPlan,
    /// The step being buffered; `None` once the plan is exhausted
    /// (further transactions are ignored, queries stay answerable).
    step: Option<Step>,
    /// Highest block number ingested so far (monotonicity check).
    high_block: Option<u64>,
    /// Transactions of the current step.
    buf: Vec<Transaction>,
    /// The previous epoch's transactions (initially the recent window).
    recent: Vec<Transaction>,
}

/// Cached lock-free telemetry handles for the core's counters and
/// gauges — looked up once per recorder so the per-transaction and
/// per-epoch paths never touch the registry (one branch each when
/// telemetry is off).
#[derive(Debug)]
struct CoreMetrics {
    txs: Counter,
    epochs: Counter,
    committed: Counter,
    stale: Counter,
    miners_moved: Counter,
    edges_merged: Counter,
    cross_ratio: Gauge,
    queue_depth: Gauge,
}

impl CoreMetrics {
    fn bind(recorder: &Recorder) -> Self {
        CoreMetrics {
            txs: recorder.counter("core.txs_ingested"),
            epochs: recorder.counter("core.epochs_processed"),
            committed: recorder.counter("core.migrations_committed"),
            stale: recorder.counter("core.migrations_aborted"),
            miners_moved: recorder.counter("core.miners_moved"),
            edges_merged: recorder.counter("core.edges_merged"),
            cross_ratio: recorder.gauge("core.cross_shard_ratio"),
            queue_depth: recorder.gauge("core.queue_depth"),
        }
    }
}

/// The incremental epoch-allocation state machine.
///
/// Create with [`AllocationCore::new`], feed the training prefix, call
/// [`AllocationCore::finish_training`], then process evaluation windows
/// — either explicitly (batch primitives) or transaction-by-transaction
/// (event API). See the [module docs](self) for the two layers.
///
/// The core starts with a disabled recorder; hand it one with
/// [`AllocationCore::set_recorder`] to get per-epoch phase spans
/// (`epoch.train` / `epoch.score` / `epoch.migrate` / `epoch.commit`)
/// and `core.*` counters. Disabled, every emission is a single branch,
/// and nothing telemetry does feeds back into results.
#[derive(Debug)]
pub struct AllocationCore<'t> {
    config: ExperimentConfig,
    history: History<'t>,
    ledger: Option<Ledger>,
    init_time: Duration,
    aggregate: AggregateBuilder,
    alloc_stats: DurationStats,
    input_bytes_sum: f64,
    input_samples: usize,
    total_migrations: usize,
    last_epoch: Option<EpochSnapshot>,
    stream: Option<StreamState>,
    recorder: Recorder,
    metrics: CoreMetrics,
    /// Training-graph edge total at the last merge telemetry observed
    /// (to turn cumulative counts into per-merge deltas).
    edges_seen: usize,
}

impl<'t> AllocationCore<'t> {
    /// A fresh core for one experiment cell. No allocation exists until
    /// [`AllocationCore::finish_training`] runs.
    pub fn new(config: ExperimentConfig) -> Self {
        let recorder = Recorder::disabled();
        let metrics = CoreMetrics::bind(&recorder);
        AllocationCore {
            config,
            history: History::new(),
            ledger: None,
            init_time: Duration::ZERO,
            aggregate: AggregateBuilder::new(),
            alloc_stats: DurationStats::default(),
            input_bytes_sum: 0.0,
            input_samples: 0,
            total_migrations: 0,
            last_epoch: None,
            stream: None,
            recorder,
            metrics,
            edges_seen: 0,
        }
    }

    /// Replaces the core's telemetry recorder (e.g. with a node
    /// session's scoped clone) and rebinds the cached handles. Metrics
    /// accumulated so far stay in the old registry.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.metrics = CoreMetrics::bind(&recorder);
        self.recorder = recorder;
    }

    /// The telemetry recorder this core reports through.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The cell configuration this core runs.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The chain state, once [`AllocationCore::finish_training`] has
    /// built it.
    pub fn ledger(&self) -> Option<&Ledger> {
        self.ledger.as_ref()
    }

    /// Number of evaluation epochs processed so far.
    pub fn epochs_processed(&self) -> usize {
        self.aggregate.epochs()
    }

    // ------------------------------------------------------------------
    // Batch primitives
    // ------------------------------------------------------------------

    /// Ingests a training chunk borrowed from a trace that outlives the
    /// core (the resident-trace feed): O(1) history append plus one
    /// [`EpochStrategy::observe_training`] call. The graph is merged
    /// once, at [`AllocationCore::finish_training`].
    pub fn ingest_training(&mut self, strategy: &mut dyn EpochStrategy, train: &'t [Transaction]) {
        self.metrics.txs.add(train.len() as u64);
        let span = self.recorder.span("epoch.train");
        self.history.extend(train);
        strategy.observe_training(train);
        span.finish();
    }

    /// Ingests one owned training chunk (the window-stream feed and the
    /// event API): the chunk is observed, folded per `fold`, and may be
    /// dropped by the caller immediately after.
    pub fn ingest_training_chunk(
        &mut self,
        strategy: &mut dyn EpochStrategy,
        chunk: &[Transaction],
        fold: TrainingFold,
    ) {
        self.metrics.txs.add(chunk.len() as u64);
        self.fold_training_chunk(strategy, chunk, fold);
    }

    /// The fold itself, shared with the event API (whose transactions
    /// were already counted one at a time by
    /// [`AllocationCore::ingest_tx`]).
    fn fold_training_chunk(
        &mut self,
        strategy: &mut dyn EpochStrategy,
        chunk: &[Transaction],
        fold: TrainingFold,
    ) {
        let span = self.recorder.span("epoch.train");
        strategy.observe_training(chunk);
        match fold {
            TrainingFold::Merge => {
                self.history.absorb(chunk);
                // Merge each chunk into the maintained CSR as it
                // arrives, so the un-merged delta (a hash map over
                // edges) stays bounded by one chunk instead of growing
                // to the whole training prefix. The CSR content is
                // independent of merge points.
                let total = self.history.graph().edge_count();
                if self.metrics.edges_merged.is_enabled() {
                    self.metrics
                        .edges_merged
                        .add(total.saturating_sub(self.edges_seen) as u64);
                    self.edges_seen = total;
                }
            }
            TrainingFold::Defer => self.history.absorb(chunk),
            TrainingFold::Skip => self.history.record_unretained(chunk.len()),
        }
        span.finish();
    }

    /// Runs the strategy's initial allocation on the ingested training
    /// history and builds the chain state (ledger, beacon, miners)
    /// around the resulting ϕ. After this, [`AllocationCore::lookup`]
    /// answers and epochs can be processed.
    ///
    /// # Errors
    ///
    /// Propagates [`Ledger::new`] construction errors (inconsistent
    /// shard/miner counts).
    pub fn finish_training(&mut self, strategy: &mut dyn EpochStrategy) -> Result<()> {
        let span = self.recorder.span("epoch.train");
        let (initial_phi, init_time) =
            strategy.initial_allocation(&mut self.history, self.config.params.shards());
        span.finish();
        self.init_time = init_time;
        let mut ledger = Ledger::new(
            self.config.params,
            initial_phi,
            self.config.resolved_miner_count(),
        )?;
        ledger.set_migration_capacity(self.config.migration_capacity);
        ledger.set_parallelism(self.config.cell_parallelism);
        self.ledger = Some(ledger);
        Ok(())
    }

    /// Frees the accreted training graph if `strategy` will never
    /// consult the history again — the memory bound streamed sessions
    /// rely on. Every driver calls this right after
    /// [`AllocationCore::finish_training`].
    pub fn release_history_if_unused(&mut self, strategy: &dyn EpochStrategy) {
        if !strategy.consumes_history() {
            self.history.release();
        }
    }

    /// Processes one evaluation window through the full epoch protocol:
    /// strategy decision, allocation install, beacon commit bounded by
    /// λ, reconfiguration, per-shard processing, metric extraction. The
    /// returned row has already been folded into the running aggregate.
    ///
    /// Deliberately stops *before* the strategy observes the committed
    /// window: drivers fan the row to their observers first and only
    /// commit the window ([`AllocationCore::commit_window_retained`] /
    /// [`AllocationCore::commit_window_owned`]) when the run continues,
    /// which preserves the historical abort semantics exactly.
    ///
    /// # Panics
    ///
    /// Panics if [`AllocationCore::finish_training`] has not run.
    pub fn process_epoch(
        &mut self,
        strategy: &mut dyn EpochStrategy,
        window: &[Transaction],
        recent: &[Transaction],
    ) -> EpochMetrics {
        self.metrics.txs.add(window.len() as u64);
        self.process_epoch_inner(strategy, window, recent)
    }

    /// The protocol itself, shared with the event API (whose window
    /// transactions were already counted by
    /// [`AllocationCore::ingest_tx`]).
    fn process_epoch_inner(
        &mut self,
        strategy: &mut dyn EpochStrategy,
        window: &[Transaction],
        recent: &[Transaction],
    ) -> EpochMetrics {
        let ledger = self
            .ledger
            .as_mut()
            .expect("finish_training must run before epochs are processed");
        let score_span = self.recorder.span("epoch.score");
        let decision = strategy.before_epoch(
            ledger,
            EpochCtx {
                window,
                recent_window: recent,
                history: &mut self.history,
                params: self.config.params,
                parallelism: self.config.cell_parallelism,
            },
        );
        score_span.finish();
        if let Some(elapsed) = decision.alloc_time {
            self.alloc_stats.record(elapsed);
        }
        if let Some(bytes) = decision.input_bytes {
            self.input_bytes_sum += bytes;
            self.input_samples += 1;
        }
        if let Some(phi) = decision.new_phi {
            let migrate_span = self.recorder.span("epoch.migrate");
            ledger.set_allocation(phi).expect("same shard count");
            migrate_span.finish();
        }

        let commit_span = self.recorder.span("epoch.commit");
        let outcome = ledger.process_epoch(window);
        commit_span.finish();
        let migrations = match decision.migrations {
            MigrationCount::Moves(n) => n,
            MigrationCount::CommittedRequests => outcome.committed.len(),
        };
        self.total_migrations += migrations;
        let metrics = EpochMetrics::from_load(&outcome.load, migrations);
        self.aggregate.push(&metrics);
        self.metrics.epochs.incr();
        self.metrics.committed.add(outcome.committed.len() as u64);
        self.metrics
            .stale
            .add(outcome.reconfig.migrations_stale as u64);
        self.metrics
            .miners_moved
            .add(outcome.reconfig.miners_moved as u64);
        self.metrics.cross_ratio.set(metrics.cross_ratio);
        self.last_epoch = Some(EpochSnapshot {
            epoch: outcome.epoch.as_u64(),
            lambda: outcome.lambda,
            committed: outcome.committed.len(),
            migrations_applied: outcome.reconfig.migrations_applied,
            migrations_stale: outcome.reconfig.migrations_stale,
            miners_moved: outcome.reconfig.miners_moved,
            intra: outcome.load.intra_counts().to_vec(),
            cross: outcome.load.cross_counts().to_vec(),
        });
        metrics
    }

    /// Commits a processed window whose transactions outlive the core
    /// (the resident-trace feed): the strategy observes it, then the
    /// history retains the slice in O(1).
    pub fn commit_window_retained(
        &mut self,
        strategy: &mut dyn EpochStrategy,
        window: &'t [Transaction],
    ) {
        strategy.after_epoch(window);
        self.history.extend(window);
    }

    /// Commits a processed window the caller owns (window-stream feed,
    /// event API): the strategy observes it, then the history either
    /// absorbs its edges or — for strategies that never consult the
    /// history again — records only the count.
    pub fn commit_window_owned(
        &mut self,
        strategy: &mut dyn EpochStrategy,
        window: &[Transaction],
    ) {
        strategy.after_epoch(window);
        if strategy.consumes_history() {
            self.history.absorb(window);
        } else {
            self.history.record_unretained(window.len());
        }
    }

    /// The run summary over everything processed so far.
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            epochs: self.aggregate.epochs(),
            aggregate: self.aggregate.finish(),
            init_seconds: self.init_time.as_secs_f64(),
            mean_alloc_seconds: self.alloc_stats.mean_seconds(),
            mean_input_bytes: if self.input_samples == 0 {
                0.0
            } else {
                self.input_bytes_sum / self.input_samples as f64
            },
            total_migrations: self.total_migrations,
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// The shard currently responsible for `account`, or `None` before
    /// the initial allocation exists. Total over accounts: unknown
    /// accounts resolve through ϕ's hash-based default rule.
    pub fn lookup(&self, account: AccountId) -> Option<ShardId> {
        self.ledger.as_ref().map(|l| l.phi().shard_of(account))
    }

    /// Per-shard load and migration-protocol state after the last
    /// processed epoch, or `None` before the first epoch completes.
    pub fn load_report(&self) -> Option<LoadReport> {
        let ledger = self.ledger.as_ref()?;
        let snap = self.last_epoch.as_ref()?;
        let shards = snap
            .intra
            .iter()
            .zip(&snap.cross)
            .enumerate()
            .map(|(shard, (&intra_txs, &cross_txs))| ShardLoad {
                shard: shard as u16,
                intra_txs,
                cross_txs,
            })
            .collect();
        Some(LoadReport {
            epoch: snap.epoch,
            epochs_processed: self.aggregate.epochs(),
            lambda: snap.lambda,
            committed_migrations: snap.committed,
            migrations_applied: snap.migrations_applied,
            migrations_stale: snap.migrations_stale,
            miners_moved: snap.miners_moved,
            total_migrations: self.total_migrations,
            beacon_blocks: ledger.beacon().len(),
            network_bytes: ledger.meter().total(),
            shards,
        })
    }

    // ------------------------------------------------------------------
    // Event API
    // ------------------------------------------------------------------

    /// Starts an event-driven feed spanning `blocks` blocks total. The
    /// feed walks the same `EpochPlan` as the offline driver, so the
    /// rows it produces are byte-identical to a batch run over the same
    /// trace.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyTrace`] if `blocks` is zero.
    pub fn begin(&mut self, blocks: u64) -> Result<()> {
        let plan = EpochPlan::new(&self.config, blocks)?;
        self.stream = Some(StreamState {
            blocks,
            plan,
            step: Some(plan.first()),
            high_block: None,
            buf: Vec::new(),
            recent: Vec::new(),
        });
        Ok(())
    }

    /// Feeds one transaction. Blocks must arrive in non-decreasing
    /// order; when `tx` crosses a τ-block boundary the core closes the
    /// finished chunk/epoch first (training chunks fold into the
    /// history; evaluation epochs run the full protocol and push their
    /// metric row onto `rows`). Transactions past the `eval_epochs`
    /// cap are ignored, as the offline driver leaves the trace tail
    /// unread.
    ///
    /// # Errors
    ///
    /// [`Error::NotInitialized`] before [`AllocationCore::begin`],
    /// [`Error::ParseTrace`] on an out-of-order or out-of-range block,
    /// plus [`AllocationCore::finish_training`] errors at the cut.
    pub fn ingest_tx(
        &mut self,
        strategy: &mut dyn EpochStrategy,
        tx: Transaction,
        rows: &mut Vec<EpochMetrics>,
    ) -> Result<()> {
        let state = self
            .stream
            .as_mut()
            .ok_or(Error::NotInitialized("call begin() before ingest_tx()"))?;
        let block = tx.block.as_u64();
        if let Some(high) = state.high_block {
            if block < high {
                return Err(Error::ParseTrace {
                    line: 0,
                    message: format!(
                        "block {block} arrived after block {high} (stream must be block-ordered)"
                    ),
                });
            }
        }
        if block >= state.blocks {
            return Err(Error::ParseTrace {
                line: 0,
                message: format!(
                    "block {block} out of range (stream declared {} blocks)",
                    state.blocks
                ),
            });
        }
        state.high_block = Some(block);
        self.metrics.txs.incr();
        self.advance_to(strategy, block, rows)?;
        let state = self.stream.as_mut().expect("stream state present");
        if state.step.is_some() {
            state.buf.push(tx);
        }
        Ok(())
    }

    /// [`AllocationCore::ingest_tx`] over a whole block (or any
    /// block-ordered batch) of transactions.
    ///
    /// # Errors
    ///
    /// As [`AllocationCore::ingest_tx`].
    pub fn ingest_block(
        &mut self,
        strategy: &mut dyn EpochStrategy,
        txs: &[Transaction],
        rows: &mut Vec<EpochMetrics>,
    ) -> Result<()> {
        for tx in txs {
            self.ingest_tx(strategy, *tx, rows)?;
        }
        Ok(())
    }

    /// Ends the feed: closes every remaining step of the plan — the
    /// training chunks (running the initial allocation if the cut was
    /// never crossed), then the evaluation windows, including trailing
    /// partial or empty ones. Queries remain answerable afterwards.
    ///
    /// # Errors
    ///
    /// [`Error::NotInitialized`] before [`AllocationCore::begin`], plus
    /// [`AllocationCore::finish_training`] errors.
    pub fn end_stream(
        &mut self,
        strategy: &mut dyn EpochStrategy,
        rows: &mut Vec<EpochMetrics>,
    ) -> Result<()> {
        if self.stream.is_none() {
            return Err(Error::NotInitialized("call begin() before end_stream()"));
        }
        self.advance_to(strategy, u64::MAX, rows)
    }

    /// Closes every step of the plan that ends at or before `block`.
    fn advance_to(
        &mut self,
        strategy: &mut dyn EpochStrategy,
        block: u64,
        rows: &mut Vec<EpochMetrics>,
    ) -> Result<()> {
        let mut state = self.stream.take().expect("stream state present");
        let mut result = Ok(());
        while let Some(step) = state.step.filter(|step| step.end <= block) {
            result = self.close_step(strategy, &mut state, step, rows);
            if result.is_err() {
                break;
            }
            state.step = state.plan.next(step);
        }
        self.stream = Some(state);
        result
    }

    /// Closes the step buffered in `state`: a training chunk folds into
    /// the history (the recent window then runs the initial allocation
    /// and is kept as the first recent window); an evaluation window
    /// runs the full protocol, pushes its row onto `rows`, is committed
    /// and becomes the next recent window.
    fn close_step(
        &mut self,
        strategy: &mut dyn EpochStrategy,
        state: &mut StreamState,
        step: Step,
        rows: &mut Vec<EpochMetrics>,
    ) -> Result<()> {
        if let StepKind::Eval(_) = step.kind {
            self.metrics.queue_depth.set(state.buf.len() as f64);
            let metrics = self.process_epoch_inner(strategy, &state.buf, &state.recent);
            rows.push(metrics);
            self.commit_window_owned(strategy, &state.buf);
            std::mem::swap(&mut state.recent, &mut state.buf);
        } else {
            let fold = step.fold(skips_training_graph(strategy));
            self.fold_training_chunk(strategy, &state.buf, fold);
            if step.kind == StepKind::Recent {
                self.finish_training(strategy)?;
                self.release_history_if_unused(strategy);
                std::mem::swap(&mut state.recent, &mut state.buf);
            }
        }
        state.buf.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Strategy;
    use mosaic_types::SystemParams;
    use StepKind::{Eval, Recent, Train};

    fn plan(blocks: u64, tau: u32, eval_epochs: usize) -> Result<EpochPlan> {
        let params = SystemParams::builder().shards(4).tau(tau).build().unwrap();
        EpochPlan::new(
            &ExperimentConfig::new(params, Strategy::Random, eval_epochs),
            blocks,
        )
    }

    /// The plan as `(kind, start, end)` triples.
    fn steps(plan: EpochPlan) -> Vec<(StepKind, u64, u64)> {
        plan.steps().map(|s| (s.kind, s.start, s.end)).collect()
    }

    #[test]
    fn unaligned_cut_ends_training_with_a_short_chunk() {
        // 100 blocks × 0.9 → cut 90; recent window [83, 90) with τ = 7.
        let steps = steps(plan(100, 7, 200).unwrap());
        let training: Vec<_> = steps.iter().take_while(|s| s.0 != Recent).collect();
        assert_eq!(training.len(), 12);
        assert_eq!(*training[0], (Train, 0, 7));
        assert_eq!(
            *training[11],
            (Train, 77, 83),
            "last chunk stops at cut − τ"
        );
        assert_eq!(steps[12], (Recent, 83, 90));
        // Windows of τ from the cut while their start is ≤ 99; the last
        // runs past the trace.
        assert_eq!(steps[13..], [(Eval(0), 90, 97), (Eval(1), 97, 104)]);
    }

    #[test]
    fn cut_below_tau_makes_the_recent_window_the_whole_training_prefix() {
        // 30 blocks → cut 27 < τ = 40: no chunk before the recent window.
        assert_eq!(
            steps(plan(30, 40, 200).unwrap()),
            [(Recent, 0, 27), (Eval(0), 27, 67)]
        );
    }

    #[test]
    fn trailing_windows_are_planned_up_to_the_last_block() {
        // Windows start at 90, 93, 96 and 99: every start ≤ max_block
        // 99 is planned, whether or not the trace has transactions
        // there; none starts past it.
        let evals: Vec<_> = steps(plan(100, 3, 200).unwrap())
            .into_iter()
            .filter(|s| matches!(s.0, Eval(_)))
            .collect();
        assert_eq!(
            evals,
            [
                (Eval(0), 90, 93),
                (Eval(1), 93, 96),
                (Eval(2), 96, 99),
                (Eval(3), 99, 102)
            ]
        );
    }

    #[test]
    fn eval_epochs_caps_the_plan_before_the_trace_ends() {
        let steps = steps(plan(200, 5, 2).unwrap());
        assert_eq!(
            steps[steps.len() - 2..],
            [(Eval(0), 180, 185), (Eval(1), 185, 190)]
        );
    }

    #[test]
    fn steps_tile_the_training_prefix_and_folds_follow_the_kind() {
        let plan = plan(1000, 30, 3).unwrap();
        let mut next = 0;
        for step in plan.steps() {
            assert_eq!(step.start, next, "{step:?} leaves a gap or overlaps");
            next = step.end;
            let fold = step.fold(false);
            match step.kind {
                Train => assert_eq!(fold, TrainingFold::Merge),
                Recent => assert_eq!(fold, TrainingFold::Defer),
                Eval(_) => {}
            }
            assert_eq!(step.fold(true), TrainingFold::Skip);
        }
        assert_eq!(next, 900 + 3 * 30);
    }

    #[test]
    fn an_empty_trace_has_no_plan() {
        assert!(matches!(plan(0, 5, 5), Err(Error::EmptyTrace)));
    }
}
