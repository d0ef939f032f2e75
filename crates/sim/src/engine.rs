//! The epoch-strategy seam: one protocol for every allocation strategy.
//!
//! The paper's evaluation (§V-A) runs five very different allocation
//! mechanisms through the *same* protocol — initial allocation on the
//! training prefix, then per-epoch allocation updates, beacon commits and
//! metric collection over the evaluation epochs. [`EpochStrategy`] is the
//! seam between the protocol and the mechanisms:
//!
//! * the protocol lives in [`crate::alloc_core`]: one windowing plan
//!   walked by the [`AllocationCore`](crate::AllocationCore) event API
//!   and by the offline driver behind
//!   [`Simulation`](crate::session::Simulation), over a resident trace
//!   or a bounded-memory window stream, with byte-identical metric
//!   output;
//! * every mechanism is an [`EpochStrategy`] implementation — a blanket
//!   impl adapts any miner-driven [`GlobalAllocator`] (Metis, G-TxAllo),
//!   [`StaticStrategy`] wraps rule-only allocation (hash-based Random),
//!   [`AdaptiveTxAllo`] wraps the incremental A-TxAllo update, and
//!   [`MosaicStrategy`] wraps the client-driven [`MosaicFramework`];
//! * adding a sixth strategy requires a new impl plus a registry entry
//!   ([`crate::Strategy::build`]) — the protocol is untouched.
//!
//! The module also owns the evaluation hot path's history:
//!
//! * the historical graph is accreted **incrementally** ([`History`]):
//!   epoch windows append as borrowed slices in O(1), and
//!   [`History::graph`] folds only the not-yet-merged delta into a
//!   maintained CSR via [`TxGraph::merge_delta`] — per-epoch work is
//!   proportional to the window, never a full `GraphBuilder::build`
//!   rebuild of the whole history (the rebuild stays available in
//!   `mosaic-txgraph` as the reference oracle the delta path is
//!   proptested against). Strategies that never look at the history
//!   (Mosaic, Random, A-TxAllo) still pay nothing;
//! * within a cell, epoch processing parallelises over the order-stable
//!   pool ([`mosaic_metrics::parallel`]) with byte-identical output
//!   ([`crate::runner::ExperimentConfig::cell_parallelism`]).

use std::time::Duration;

use mosaic_chain::Ledger;
use mosaic_core::{ClientPolicy, MosaicFramework};
use mosaic_metrics::data_size::miner_input_bytes;
use mosaic_metrics::parallel::Parallelism;
use mosaic_metrics::timing::time_it;
use mosaic_metrics::{Aggregate, EpochLoad, LoadParams};
use mosaic_partition::GlobalAllocator;
use mosaic_txallo::{ATxAllo, GTxAllo, TxAlloConfig};
use mosaic_txgraph::{GraphBuilder, TxGraph};
use mosaic_types::{AccountShardMap, SystemParams, Transaction};

/// Incrementally accreted transaction history.
///
/// Epoch windows are appended as borrowed slices in O(1). The
/// interaction graph is maintained as a long-lived CSR: when a strategy
/// asks for it, the pending windows are drained into a per-window delta
/// builder and sort-merged into the existing buffers
/// ([`TxGraph::merge_delta`]) — O(window + touched adjacency) per epoch
/// instead of the O(V + E) full rebuild the evaluation previously paid.
/// Strategies that never ask (Mosaic, Random, A-TxAllo) pay nothing.
#[derive(Debug, Default)]
pub struct History<'t> {
    /// Accumulates only the not-yet-merged windows (drained each merge).
    delta: GraphBuilder,
    pending: Vec<&'t [Transaction]>,
    /// The maintained full-history CSR, grown in place.
    graph: TxGraph,
    txs: usize,
}

impl<'t> History<'t> {
    /// An empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Appends committed transactions (O(1); accretion is deferred until
    /// [`History::graph`]).
    pub fn extend(&mut self, txs: &'t [Transaction]) {
        if txs.is_empty() {
            return;
        }
        self.pending.push(txs);
        self.txs += txs.len();
    }

    /// Total transactions in the history (including not-yet-merged
    /// windows).
    pub fn len(&self) -> usize {
        self.txs
    }

    /// Returns `true` if no transaction has been recorded.
    pub fn is_empty(&self) -> bool {
        self.txs == 0
    }

    /// Drains pending windows into the delta builder (hash-map
    /// accumulation, the part a miner amortises while blocks commit).
    /// Separated from the CSR merge so strategies can keep it *outside*
    /// their timed region while paying for the [`History::graph`] merge
    /// inside it.
    pub fn accrete(&mut self) {
        for window in self.pending.drain(..) {
            self.delta.add_transactions(window);
        }
    }

    /// Folds `txs` straight into the delta builder without retaining the
    /// slice — equivalent to [`History::extend`] + [`History::accrete`],
    /// but borrowing nothing. The streamed epoch loop uses this so each
    /// window buffer can be dropped (or reused) the moment it has been
    /// absorbed; accumulation order equals slice order, so chunked
    /// absorption builds the identical graph to one monolithic extend.
    pub fn absorb(&mut self, txs: &[Transaction]) {
        if txs.is_empty() {
            return;
        }
        self.delta.add_transactions(txs);
        self.txs += txs.len();
    }

    /// Records `n` transactions as part of the history *without* keeping
    /// them. The streamed loop uses this for strategies that never
    /// consult the graph ([`EpochStrategy::consumes_history`] = `false`),
    /// keeping [`History::len`]-based accounting (e.g. miner input
    /// bytes) identical to the materialised run while storing nothing.
    pub fn record_unretained(&mut self, n: usize) {
        self.txs += n;
    }

    /// Frees the graph state (maintained CSR, delta builder, pending
    /// windows) while keeping the transaction count. The core calls
    /// this right after the initial allocation when the strategy
    /// will never consult the history again — from then on the session's
    /// footprint is bounded by the current + recent window alone.
    pub fn release(&mut self) {
        self.delta = GraphBuilder::default();
        self.pending = Vec::new();
        self.graph = TxGraph::default();
    }

    /// The full-history interaction graph, maintained incrementally.
    ///
    /// Drains pending windows and sort-merges the accumulated delta into
    /// the long-lived CSR; with nothing pending this is a cache hit.
    pub fn graph(&mut self) -> &TxGraph {
        self.accrete();
        if self.delta.vertex_count() > 0 {
            let delta = self.delta.drain_delta();
            self.graph.merge_delta(&delta);
        }
        &self.graph
    }
}

/// Everything a strategy may look at before an epoch is processed.
///
/// The window lifetime `'w` is independent of the history lifetime `'t`:
/// the materialised loop borrows both from the resident trace, while the
/// streamed loop hands out windows borrowed from short-lived buffers
/// against a history that retains nothing.
#[derive(Debug)]
pub struct EpochCtx<'e, 'w, 't> {
    /// The upcoming epoch's transactions (the mempool the oracle sees).
    pub window: &'w [Transaction],
    /// The previous epoch's transactions (the recent window incremental
    /// strategies consume; initially the last τ blocks of training).
    pub recent_window: &'w [Transaction],
    /// The committed history up to (excluding) this epoch.
    pub history: &'e mut History<'t>,
    /// System parameters of the experiment cell.
    pub params: SystemParams,
    /// Worker-pool sizing for within-cell work this strategy dispatches
    /// (e.g. workload classification); byte-identical at every level.
    pub parallelism: Parallelism,
}

/// How an epoch's account moves are counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationCount {
    /// The strategy moved accounts itself (allocation-diff moves of a
    /// miner-driven update); the engine records this number.
    Moves(usize),
    /// The strategy submitted migration requests to the beacon chain; the
    /// engine counts the requests the ledger actually commits.
    CommittedRequests,
}

/// What a strategy decided for the upcoming epoch.
#[derive(Debug)]
pub struct EpochDecision {
    /// A full replacement ϕ to install before processing (miner-driven
    /// recomputation), or `None` if the allocation evolves through the
    /// beacon chain or not at all.
    pub new_phi: Option<AccountShardMap>,
    /// How this epoch's migrations are counted.
    pub migrations: MigrationCount,
    /// Wall-clock cost of this epoch's allocation work: the full
    /// recomputation for miner-driven strategies, the *mean per-client*
    /// decision time for client-driven ones (the quantity Table IV
    /// compares). `None` records no timing sample.
    pub alloc_time: Option<Duration>,
    /// Bytes of input the allocation consumed (per client for
    /// client-driven strategies). `None` records no sample.
    pub input_bytes: Option<f64>,
}

impl EpochDecision {
    /// A decision that changes nothing and records a zero-cost sample
    /// (static strategies).
    pub fn unchanged() -> Self {
        EpochDecision {
            new_phi: None,
            migrations: MigrationCount::Moves(0),
            alloc_time: Some(Duration::ZERO),
            input_bytes: None,
        }
    }
}

/// One allocation mechanism under the §V-A evaluation protocol.
///
/// Implementations must be deterministic: the parallel experiment grid
/// relies on every cell producing identical results regardless of
/// scheduling (see `experiments::tests::parallel_grid_matches_sequential`).
pub trait EpochStrategy {
    /// Display name for reports.
    fn name(&self) -> &'static str;

    /// `true` for client-driven strategies (allocation evolves through
    /// migration requests on the beacon chain; migrations are counted
    /// from beacon commits rather than reported by the strategy).
    fn is_client_driven(&self) -> bool {
        false
    }

    /// Ingests one chunk of the training prefix, in block order, before
    /// [`EpochStrategy::initial_allocation`] runs. The drivers call it
    /// once per τ-block training chunk; a node may call it with any
    /// chunking. Implementations must be chunking-invariant:
    /// a sequence of calls in order is equivalent to one call on the
    /// concatenation. Default: ignore (graph strategies read the
    /// training data from `history` instead).
    fn observe_training(&mut self, chunk: &[Transaction]) {
        let _ = chunk;
    }

    /// Computes the initial ϕ from the training prefix and returns it
    /// with the wall-clock time of the allocation itself. `history`
    /// already contains exactly the training transactions, and
    /// [`EpochStrategy::observe_training`] has already seen them.
    fn initial_allocation(
        &mut self,
        history: &mut History<'_>,
        k: u16,
    ) -> (AccountShardMap, Duration);

    /// `true` if the strategy consults [`EpochCtx::history`] after the
    /// initial allocation. Strategies that never do (client-driven
    /// Mosaic, the static hash baseline, incremental A-TxAllo) return
    /// `false`, which lets the core free the accreted graph after the
    /// initial allocation and stop retaining windows — the memory bound the 10M-account
    /// scenarios rely on.
    fn consumes_history(&self) -> bool {
        true
    }

    /// `true` if [`EpochStrategy::initial_allocation`] reads the
    /// training graph ([`History::graph`]). Strategies returning
    /// `false` promise an identical initial ϕ for *any* graph content —
    /// including the empty graph — which, combined with
    /// [`EpochStrategy::consumes_history`] `= false`, lets every driver
    /// skip training-graph edge accumulation entirely
    /// ([`crate::alloc_core::skips_training_graph`]): no delta builder,
    /// no CSR, just the transaction count. Only the rule-only hash
    /// baseline qualifies today; the default is conservative.
    fn needs_training_graph(&self) -> bool {
        true
    }

    /// Runs the strategy's allocation step for the upcoming epoch. Called
    /// once per evaluation epoch, *before* the ledger processes
    /// `ctx.window`; client-driven strategies submit their migration
    /// requests to `ledger` here.
    fn before_epoch(&mut self, ledger: &mut Ledger, ctx: EpochCtx<'_, '_, '_>) -> EpochDecision;

    /// Observes the committed window after the ledger processed it
    /// (client-driven strategies fold it into client histories).
    fn after_epoch(&mut self, window: &[Transaction]) {
        let _ = window;
    }
}

/// Counts accounts whose shard differs between `old` and `new` (the
/// implicit migrations a miner-driven update causes).
pub fn allocation_diff(old: &AccountShardMap, new: &AccountShardMap) -> usize {
    new.iter()
        .filter(|&(account, shard)| old.shard_of(account) != shard)
        .count()
}

/// Blanket adapter: every miner-driven [`GlobalAllocator`] is an
/// [`EpochStrategy`] that recomputes ϕ on the full history each epoch
/// (the paper's "global optimization" row of Table VI). The graph
/// materialisation happens inside the timed region, exactly as a miner
/// recomputing from its replicated history would pay for it.
///
/// The per-epoch recomputation runs through
/// [`GlobalAllocator::allocate_with`] with the cell's parallelism knob
/// ([`EpochCtx::parallelism`]), so Metis- and TxAllo-style allocators
/// fan their scoring scans over the order-stable pool; the result is
/// bit-identical at every worker count, which keeps experiment CSVs
/// byte-stable (enforced by the determinism CI job). The initial
/// (training-prefix) allocation stays sequential — it runs once per
/// cell and grids already parallelise across cells.
impl<A: GlobalAllocator> EpochStrategy for A {
    fn name(&self) -> &'static str {
        GlobalAllocator::name(self)
    }

    fn initial_allocation(
        &mut self,
        history: &mut History<'_>,
        k: u16,
    ) -> (AccountShardMap, Duration) {
        let graph = history.graph();
        time_it(|| self.allocate(graph, k))
    }

    fn before_epoch(&mut self, ledger: &mut Ledger, ctx: EpochCtx<'_, '_, '_>) -> EpochDecision {
        let input_bytes = miner_input_bytes(ctx.history.len()) as f64;
        // Hash-map accumulation happens outside the timed region (a
        // miner folds blocks in as they commit); the delta merge into
        // the maintained CSR + the allocation is the per-epoch
        // recomputation Table IV measures, so both run inside `time_it`.
        ctx.history.accrete();
        let history = &mut *ctx.history;
        let k = ctx.params.shards();
        let parallelism = ctx.parallelism;
        let (phi, elapsed) = time_it(|| {
            let graph = history.graph();
            self.allocate_with(graph, k, parallelism)
        });
        let moved = allocation_diff(ledger.phi(), &phi);
        EpochDecision {
            new_phi: Some(phi),
            migrations: MigrationCount::Moves(moved),
            alloc_time: Some(elapsed),
            input_bytes: Some(input_bytes),
        }
    }
}

/// Adapter for rule-only allocation (the paper's hash-based "Random"
/// baseline): the initial allocation runs once, then nothing ever moves
/// and every epoch records a zero-cost sample.
#[derive(Debug, Clone)]
pub struct StaticStrategy<A> {
    allocator: A,
}

impl<A: GlobalAllocator> StaticStrategy<A> {
    /// Wraps `allocator` as a never-recomputing strategy.
    pub fn new(allocator: A) -> Self {
        StaticStrategy { allocator }
    }
}

impl<A: GlobalAllocator> EpochStrategy for StaticStrategy<A> {
    fn name(&self) -> &'static str {
        self.allocator.name()
    }

    fn initial_allocation(
        &mut self,
        history: &mut History<'_>,
        k: u16,
    ) -> (AccountShardMap, Duration) {
        let graph = history.graph();
        time_it(|| self.allocator.allocate(graph, k))
    }

    fn consumes_history(&self) -> bool {
        false
    }

    fn needs_training_graph(&self) -> bool {
        // Rule-only allocators (hash-based Random) never read the
        // graph, so the drivers can skip building it.
        self.allocator.uses_graph()
    }

    fn before_epoch(&mut self, _ledger: &mut Ledger, _ctx: EpochCtx<'_, '_, '_>) -> EpochDecision {
        EpochDecision::unchanged()
    }
}

/// Adapter for the incremental A-TxAllo baseline: the initial ϕ is
/// G-TxAllo's result on the training prefix (§V-B), then each epoch only
/// the accounts active in the recent window are re-placed.
#[derive(Debug, Clone)]
pub struct AdaptiveTxAllo {
    init: GTxAllo,
    update: ATxAllo,
}

impl AdaptiveTxAllo {
    /// Builds the adapter from a shared TxAllo configuration.
    pub fn new(config: TxAlloConfig) -> Self {
        AdaptiveTxAllo {
            init: GTxAllo::new(config),
            update: ATxAllo::new(config),
        }
    }
}

impl EpochStrategy for AdaptiveTxAllo {
    fn name(&self) -> &'static str {
        "A-TxAllo"
    }

    fn initial_allocation(
        &mut self,
        history: &mut History<'_>,
        k: u16,
    ) -> (AccountShardMap, Duration) {
        let graph = history.graph();
        time_it(|| self.init.allocate(graph, k))
    }

    fn consumes_history(&self) -> bool {
        false
    }

    fn before_epoch(&mut self, ledger: &mut Ledger, ctx: EpochCtx<'_, '_, '_>) -> EpochDecision {
        let mut phi = ledger.phi().clone();
        let (moved, elapsed) = time_it(|| {
            self.update
                .update_with(&mut phi, ctx.recent_window, ctx.parallelism)
        });
        EpochDecision {
            new_phi: Some(phi),
            migrations: MigrationCount::Moves(moved),
            alloc_time: Some(elapsed),
            input_bytes: Some(miner_input_bytes(ctx.recent_window.len()) as f64),
        }
    }
}

/// Adapter for the client-driven Mosaic framework with an arbitrary
/// client policy — [`mosaic_core::policy::PilotPolicy`] reproduces the
/// paper; the other policies in [`mosaic_core::policy`] ablate Pilot's
/// two decision signals.
///
/// Each epoch follows §V-A: the oracle publishes `Ω` from the upcoming
/// window under the current ϕ, clients receive their β-sample of
/// expected transactions, every client runs its policy and proposes
/// migrations, the ledger commits ≤ λ of them while processing the
/// window, and clients observe the committed transactions.
#[derive(Debug, Clone)]
pub struct MosaicStrategy<P> {
    params: SystemParams,
    framework: MosaicFramework<P>,
    init: GTxAllo,
}

impl<P: ClientPolicy> MosaicStrategy<P> {
    /// Builds the client population for one experiment cell.
    pub fn new(params: SystemParams, policy: P) -> Self {
        MosaicStrategy {
            params,
            framework: MosaicFramework::with_policy(params, policy),
            init: GTxAllo::new(TxAlloConfig::with_eta(params.eta())),
        }
    }
}

impl<P: ClientPolicy> EpochStrategy for MosaicStrategy<P> {
    fn name(&self) -> &'static str {
        "Pilot"
    }

    fn is_client_driven(&self) -> bool {
        true
    }

    fn observe_training(&mut self, chunk: &[Transaction]) {
        // §V-B: clients preload their histories from the training
        // transactions. `observe_epoch` is a per-transaction fold in
        // slice order, so chunked ingestion is chunking-invariant.
        self.framework.observe_epoch(chunk);
    }

    fn initial_allocation(
        &mut self,
        history: &mut History<'_>,
        k: u16,
    ) -> (AccountShardMap, Duration) {
        // §V-B: ϕ is initialised with G-TxAllo's result.
        let graph = history.graph();
        time_it(|| self.init.allocate(graph, k))
    }

    fn consumes_history(&self) -> bool {
        false
    }

    fn before_epoch(&mut self, ledger: &mut Ledger, ctx: EpochCtx<'_, '_, '_>) -> EpochDecision {
        // The client population was sized and seeded from construction
        // params; running it under a different cell would silently skew Ω
        // (or index out of shard bounds), so mismatches fail loudly.
        assert_eq!(
            ctx.params, self.params,
            "MosaicStrategy was built with different SystemParams than the experiment cell"
        );

        // Step 1: mempool-derived workload distribution Ω (§V-A),
        // classified in parallel chunks on large windows.
        let lambda = ctx.params.lambda(ctx.window.len());
        let omega = EpochLoad::compute_with(
            ctx.window,
            LoadParams {
                shards: ctx.params.shards(),
                eta: ctx.params.eta(),
                lambda,
            },
            |a| ledger.phi().shard_of(a),
            ctx.parallelism,
        )
        .workload_vector();

        // Step 2: future knowledge (β-sample of the upcoming window).
        self.framework.set_expectations(ctx.window);

        // Step 3: every client proposes; requests land on the beacon.
        let report = self.framework.propose(ledger, &omega);

        EpochDecision {
            new_phi: None,
            migrations: MigrationCount::CommittedRequests,
            alloc_time: Some(report.mean_decision_time),
            input_bytes: Some(report.mean_input_bytes),
        }
    }

    fn after_epoch(&mut self, window: &[Transaction]) {
        self.framework.observe_epoch(window);
    }
}

/// The aggregated outcome of a run whose per-epoch rows were handed to
/// an observer instead of collected — everything
/// [`crate::runner::ExperimentResult`] carries except the row vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Means over the evaluation epochs (bit-identical to
    /// [`Aggregate::over`] on the observed rows in order).
    pub aggregate: Aggregate,
    /// Number of evaluation epochs processed.
    pub epochs: usize,
    /// Wall-clock seconds of the initial (training-prefix) allocation.
    pub init_seconds: f64,
    /// Mean per-epoch allocation runtime in seconds.
    pub mean_alloc_seconds: f64,
    /// Mean bytes of input per allocation run.
    pub mean_input_bytes: f64,
    /// Total account moves over the evaluation.
    pub total_migrations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_core::policy::PilotPolicy;
    use mosaic_partition::HashAllocator;
    use mosaic_types::{AccountId, BlockHeight, TxId};

    fn tx(id: u64, from: u64, to: u64, block: u64) -> Transaction {
        Transaction::new(
            TxId::new(id),
            AccountId::new(from),
            AccountId::new(to),
            BlockHeight::new(block),
        )
    }

    #[test]
    fn history_accretes_lazily() {
        let a: Vec<Transaction> = (0..10).map(|i| tx(i, 1, 2, i)).collect();
        let b: Vec<Transaction> = (10..14).map(|i| tx(i, 2, 3, i)).collect();
        let mut h = History::new();
        assert!(h.is_empty());
        h.extend(&a);
        h.extend(&b);
        assert_eq!(h.len(), 14);
        let edge_count = h.graph().edge_count();
        assert_eq!(edge_count, 2);
        // Cached: a second call cheaply returns the same snapshot.
        assert_eq!(h.graph().edge_count(), edge_count);
    }

    #[test]
    fn strategies_report_their_kind() {
        let params = SystemParams::builder().shards(4).tau(10).build().unwrap();
        let mosaic = MosaicStrategy::new(params, PilotPolicy);
        assert!(mosaic.is_client_driven());
        assert_eq!(mosaic.name(), "Pilot");
        let adaptive = AdaptiveTxAllo::new(TxAlloConfig::with_eta(2.0));
        assert!(!adaptive.is_client_driven());
        let hash = StaticStrategy::new(HashAllocator::chainspace());
        assert_eq!(hash.name(), "Random");
        // The blanket impl adapts any GlobalAllocator.
        let g: &dyn EpochStrategy = &GTxAllo::new(TxAlloConfig::with_eta(2.0));
        assert_eq!(g.name(), "G-TxAllo");
        assert!(!g.is_client_driven());
    }

    #[test]
    fn unchanged_decision_is_truly_inert() {
        let d = EpochDecision::unchanged();
        assert!(d.new_phi.is_none());
        assert_eq!(d.migrations, MigrationCount::Moves(0));
        assert_eq!(d.alloc_time, Some(Duration::ZERO));
        assert!(d.input_bytes.is_none());
    }
}
