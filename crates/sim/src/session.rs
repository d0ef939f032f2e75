//! Simulation sessions: one trace, many experiment cells.
//!
//! A [`Simulation`] is the runnable form of a [`Scenario`] and the one
//! public way to run experiments: [`Simulation::from_scenario`]
//! validates the spec and — for resident sources — materialises its
//! trace **once** (generation or CSV load), holds it behind an [`Arc`],
//! and [`Simulation::run`] drives every cell of the expanded grid over
//! the order-stable worker pool. [`Simulation::run_with_factory`] takes
//! caller-supplied strategies (ablation policies, experimental
//! allocators), and [`Simulation::stream_cell`] streams one cell's CSV
//! to any sink.
//!
//! Every cell runs through one private driver that walks the
//! [`AllocationCore`]'s epoch plan. The trace kinds differ only in how
//! a planned block range is fed:
//!
//! * a resident trace lends **borrowed slices**, which the core retains
//!   (`ingest_training`, `commit_window_retained`), merging the
//!   training CSR once, at the initial allocation;
//! * a streamed source (`TraceSource::Streamed*`) never materialises:
//!   each cell opens its own [`mosaic_workload::EpochWindowStream`] and
//!   reads **owned buffers** the core absorbs (`ingest_training_chunk`,
//!   `commit_window_owned`), so memory is bounded by the window size,
//!   not the trace length.
//!
//! Output bytes are identical for both (enforced by
//! `tests/scenario_equivalence.rs` against an independent reference
//! loop, and by the scenario CI job).
//!
//! Sessions share traces: [`Simulation::with_trace`] builds a second
//! session over the *same* `Arc` (no regeneration, no copy), which is
//! how ablation studies run several strategy variants against one
//! workload.
//!
//! A `telemetry=jsonl:<path>` observer gives the session its own
//! recorder; each cell's core reports through a cell-scoped clone of it.
//! Nothing is installed process-wide.

use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use mosaic_metrics::parallel::ordered_map;
use mosaic_metrics::{EpochCsvWriter, EpochMetrics};
use mosaic_telemetry::{json_f64, Recorder};
use mosaic_types::{BlockHeight, Error, Result, Transaction};
use mosaic_workload::{EpochWindowStream, TransactionTrace};

use crate::alloc_core::{
    skips_training_graph, AllocationCore, EpochPlan, Step, StepKind, TrainingFold,
};
use crate::engine::{EpochStrategy, RunSummary};
use crate::runner::{ExperimentConfig, ExperimentResult};
use crate::scenario::{CellSpec, ObserverSpec, Scenario};
use crate::strategy::Strategy;

/// One grid cell outcome: a parameter label (the paper's row key) plus
/// the measured result of one strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// Row label: `"k = 4"`, `"η = 5"`, …
    pub param_label: String,
    /// The measured experiment.
    pub result: ExperimentResult,
}

/// The outcome of a full scenario run: one [`GridCell`] per cell, in
/// the scenario's report order (parameter points outermost, strategies
/// innermost).
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// All cell outcomes.
    pub cells: Vec<GridCell>,
}

impl SimulationReport {
    /// Looks up the result of `strategy` at the parameter point
    /// labelled `label`.
    pub fn find(&self, label: &str, strategy: Strategy) -> Option<&ExperimentResult> {
        self.cells
            .iter()
            .find(|c| c.param_label == label && c.result.strategy == strategy)
            .map(|c| &c.result)
    }

    /// The distinct parameter-point labels, in report order.
    pub fn labels(&self) -> Vec<String> {
        let mut labels = Vec::new();
        for cell in &self.cells {
            if !labels.contains(&cell.param_label) {
                labels.push(cell.param_label.clone());
            }
        }
        labels
    }
}

/// Observes every cell a session runs — the custom layer of the
/// scenario observer stack, attached via [`Simulation::with_observer`].
///
/// Implementations must be `Sync`: cells run concurrently across the
/// grid pool, so callbacks for *different* cells may arrive from
/// different threads at once (rows *within* one cell always arrive in
/// epoch order).
pub trait RunObserver: Sync {
    /// Called for each evaluation epoch of each cell the moment its
    /// metric row is computed. Returning `false` aborts that cell after
    /// the current epoch; its row is already in the cell's summary.
    fn on_epoch(&self, cell: &CellSpec, epoch: usize, metrics: &EpochMetrics) -> bool {
        let _ = (cell, epoch, metrics);
        true
    }

    /// Called once when a cell finishes (even if aborted early).
    fn on_cell(&self, cell: &CellSpec, summary: &RunSummary) {
        let _ = (cell, summary);
    }
}

impl<T: RunObserver + ?Sized> RunObserver for &T {
    fn on_epoch(&self, cell: &CellSpec, epoch: usize, metrics: &EpochMetrics) -> bool {
        (**self).on_epoch(cell, epoch, metrics)
    }
    fn on_cell(&self, cell: &CellSpec, summary: &RunSummary) {
        (**self).on_cell(cell, summary)
    }
}

/// How a session accesses its transactions: a shared resident trace,
/// or a streamed source each cell re-opens as a bounded window stream.
enum TraceHandle {
    /// The whole trace lives in memory behind a shareable [`Arc`].
    Materialized(Arc<TransactionTrace>),
    /// The trace is consumed through
    /// [`mosaic_workload::TraceSource::window_stream`]; the source
    /// itself lives in `Simulation::scenario`.
    Streamed,
}

/// A runnable experiment session built from a [`Scenario`].
pub struct Simulation {
    scenario: Scenario,
    trace: TraceHandle,
    cells: Vec<CellSpec>,
    observers: Vec<Box<dyn RunObserver>>,
    /// The recorder of the scenario's `telemetry=jsonl:` observer
    /// (disabled without one); cores get cell-scoped clones.
    telemetry: Recorder,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("Simulation");
        s.field("scenario", &self.scenario.name);
        match &self.trace {
            TraceHandle::Materialized(trace) => s.field("trace_txs", &trace.len()),
            TraceHandle::Streamed => s.field("trace", &"streamed"),
        };
        s.field("cells", &self.cells.len())
            .field("observers", &self.observers.len())
            .finish()
    }
}

impl Simulation {
    /// Validates `scenario` and, for resident sources, materialises its
    /// trace (synthetic generation or CSV load) exactly once. Streamed
    /// sources skip materialisation entirely: a 10M-account scenario
    /// costs nothing to open; the windows flow at run time.
    ///
    /// # Errors
    ///
    /// Propagates scenario validation errors ([`Scenario::validate`]),
    /// [`Error::Io`] / [`Error::ParseTrace`] from trace loading, and
    /// [`Error::EmptyTrace`] if a resident source yields no
    /// transactions (streamed sources report this at run time).
    pub fn from_scenario(scenario: Scenario) -> Result<Self> {
        // Validate before materialising: a spec error must not cost a
        // multi-minute trace generation first.
        scenario.validate()?;
        if scenario.trace.is_streamed() {
            return Simulation::build(scenario, TraceHandle::Streamed);
        }
        let trace = Arc::new(scenario.trace.materialize()?);
        Simulation::with_trace(scenario, trace)
    }

    /// Builds a session over an already-materialised trace — the
    /// sharing entry point: any number of sessions (strategy variants,
    /// ablations, repeated grids) can hold clones of one [`Arc`] and
    /// never regenerate or copy the transactions.
    ///
    /// # Errors
    ///
    /// Propagates scenario validation errors, [`Error::EmptyTrace`] on
    /// an empty trace, and [`Error::ParseScenario`] if the scenario
    /// declares a streamed source — sharing one resident trace across
    /// sessions contradicts a spec that promises never to materialise
    /// it, so the combination is rejected rather than silently pinning
    /// the trace in memory.
    pub fn with_trace(scenario: Scenario, trace: Arc<TransactionTrace>) -> Result<Self> {
        if scenario.trace.is_streamed() {
            return Err(Error::ParseScenario {
                line: 0,
                message: format!(
                    "scenario '{}' declares a streamed trace source; a shared \
                     materialised trace would pin the whole trace in memory. \
                     Use Simulation::from_scenario, or switch the source to \
                     its resident counterpart if sharing is intended",
                    scenario.name
                ),
            });
        }
        if trace.is_empty() {
            return Err(Error::EmptyTrace);
        }
        Simulation::build(scenario, TraceHandle::Materialized(trace))
    }

    /// Expands the cells and opens the telemetry observer's sink, if
    /// the scenario has one.
    fn build(scenario: Scenario, trace: TraceHandle) -> Result<Self> {
        let cells = scenario.cells()?;
        let telemetry = open_telemetry(&scenario)?;
        Ok(Simulation {
            scenario,
            trace,
            cells,
            observers: Vec::new(),
            telemetry,
        })
    }

    /// Attaches a custom observer (may be called multiple times; the
    /// stack runs in attachment order).
    pub fn with_observer(mut self, observer: Box<dyn RunObserver>) -> Self {
        self.observers.push(observer);
        self
    }

    /// The scenario this session runs.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// A clone of the shared trace handle (cheap: `Arc` bump, no copy).
    ///
    /// # Panics
    ///
    /// Panics if the session runs a streamed source — there is no
    /// resident trace to share. Use [`Simulation::try_trace`] when the
    /// source kind is not statically known.
    pub fn trace(&self) -> Arc<TransactionTrace> {
        self.try_trace()
            .expect("streamed session holds no materialised trace; use try_trace()")
    }

    /// The shared resident trace, or `None` for a streamed session.
    pub fn try_trace(&self) -> Option<Arc<TransactionTrace>> {
        match &self.trace {
            TraceHandle::Materialized(trace) => Some(Arc::clone(trace)),
            TraceHandle::Streamed => None,
        }
    }

    /// The expanded cells this session will run, in report order.
    pub fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    /// Runs every cell with its registry strategy
    /// ([`Strategy::build`]) across the scenario's grid pool.
    ///
    /// # Errors
    ///
    /// Returns the first cell failure in report order — an
    /// [`Error::Io`] from a `stream-csv` observer sink.
    pub fn run(&self) -> Result<SimulationReport> {
        self.run_with_factory(|cell| cell.config.strategy.build(cell.config.params))
    }

    /// [`Simulation::run`] with a caller-supplied strategy factory —
    /// the session form of `run_custom`, for mechanisms outside the
    /// [`Strategy`] registry (ablation policies, experimental
    /// allocators). The factory is called once per cell, possibly from
    /// several threads at once; `cell.config.strategy` still labels the
    /// result.
    ///
    /// # Errors
    ///
    /// Returns the first cell failure in report order.
    pub fn run_with_factory<F>(&self, factory: F) -> Result<SimulationReport>
    where
        F: Fn(&CellSpec) -> Box<dyn EpochStrategy> + Sync,
    {
        // Streaming observers need their directories before workers race
        // to create files in them.
        for observer in &self.scenario.observers {
            if let ObserverSpec::StreamCsv(dir) = observer {
                fs::create_dir_all(dir).map_err(|e| io_error(dir.display(), &e))?;
            }
        }
        let outcomes = ordered_map(&self.cells, self.scenario.grid_parallelism, |cell| {
            let mut strategy = factory(cell);
            self.run_cell(cell, strategy.as_mut())
        });
        if self.telemetry.is_enabled() {
            // Close the run's event stream with the metric snapshot.
            self.telemetry.export_snapshot();
            self.telemetry.flush();
        }
        let mut cells = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            cells.push(outcome?);
        }
        Ok(SimulationReport { cells })
    }

    /// Streams one cell's per-epoch CSV rows to `out`, byte-identical
    /// to what the `stream-csv` observer writes for the same cell. The
    /// cell's [`ExperimentConfig`] — including `cell_parallelism`
    /// overrides — is honoured as given, which is what the determinism
    /// gate uses to byte-compare worker counts. The cell reports to the
    /// session's telemetry recorder, if it has one; the custom observer
    /// stack is not called.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on the sink's first failure (the run stops
    /// at the failing epoch), plus trace open/parse errors for streamed
    /// sources.
    pub fn stream_cell(&self, cell: &CellSpec, out: &mut dyn io::Write) -> Result<RunSummary> {
        let sink = "<stream sink>";
        let mut writer = EpochCsvWriter::new(out).map_err(|e| io_error(sink, &e))?;
        let mut failure = None;
        let mut strategy = cell.config.strategy.build(cell.config.params);
        let summary = self.drive_cell(cell, strategy.as_mut(), &mut |_, metrics| {
            failure = writer.write_epoch(metrics).err();
            failure.is_none()
        })?;
        if let Some(e) = failure {
            return Err(io_error(sink, &e));
        }
        writer.finish().map_err(|e| io_error(sink, &e))?;
        Ok(summary)
    }

    /// Runs `cell` through the epoch plan over the session's trace,
    /// handing each metric row to `on_epoch` (which returns whether to
    /// continue).
    fn drive_cell(
        &self,
        cell: &CellSpec,
        strategy: &mut dyn EpochStrategy,
        on_epoch: &mut dyn FnMut(usize, &EpochMetrics) -> bool,
    ) -> Result<RunSummary> {
        let recorder = self
            .telemetry
            .scoped(&cell.file_stem(self.scenario.is_single_point()));
        match &self.trace {
            TraceHandle::Materialized(trace) => {
                drive(&cell.config, Resident(trace), strategy, recorder, on_epoch)
            }
            TraceHandle::Streamed => {
                let stream = self.scenario.trace.window_stream()?;
                drive(&cell.config, Owned(stream), strategy, recorder, on_epoch)
            }
        }
    }

    /// Runs one cell through the offline driver, fanning each metric
    /// row to the whole observer stack in a single pass.
    fn run_cell(&self, cell: &CellSpec, strategy: &mut dyn EpochStrategy) -> Result<GridCell> {
        let collect = self.scenario.observers.contains(&ObserverSpec::Collect);
        let single_point = self.scenario.is_single_point();
        let mut writers: Vec<(PathBuf, EpochCsvWriter<io::BufWriter<fs::File>>)> = Vec::new();
        for observer in &self.scenario.observers {
            if let ObserverSpec::StreamCsv(dir) = observer {
                let path = dir.join(format!("{}.csv", cell.file_stem(single_point)));
                let file = fs::File::create(&path).map_err(|e| io_error(path.display(), &e))?;
                let writer = EpochCsvWriter::new(io::BufWriter::new(file))
                    .map_err(|e| io_error(path.display(), &e))?;
                writers.push((path, writer));
            }
        }

        let mut per_epoch = Vec::new();
        let mut io_failure: Option<Error> = None;
        // Scoped per cell so concurrent cells' epoch events stay
        // distinguishable in the shared JSONL stream (disabled — one
        // branch per epoch — without a telemetry observer).
        let recorder = self.telemetry.scoped(&cell.file_stem(single_point));
        let mut on_epoch = |epoch: usize, metrics: &EpochMetrics| {
            if collect {
                per_epoch.push(*metrics);
            }
            for (path, writer) in &mut writers {
                if let Err(e) = writer.write_epoch(metrics) {
                    io_failure = Some(io_error(path.display(), &e));
                    return false;
                }
            }
            recorder.emit(
                "epoch",
                &[
                    ("epoch", epoch.to_string()),
                    ("cross_ratio", json_f64(metrics.cross_ratio)),
                    ("workload_deviation", json_f64(metrics.workload_deviation)),
                    ("txs", metrics.total_txs.to_string()),
                    ("migrations", metrics.migrations.to_string()),
                ],
            );
            self.observers
                .iter()
                .all(|obs| obs.on_epoch(cell, epoch, metrics))
        };
        // Scenario validation rejects streamed + collect, so for a
        // streamed source `per_epoch` stays empty and memory bounded.
        let summary = self.drive_cell(cell, strategy, &mut on_epoch)?;
        if let Some(e) = io_failure {
            return Err(e);
        }
        for (path, writer) in writers {
            writer.finish().map_err(|e| io_error(path.display(), &e))?;
        }
        for obs in &self.observers {
            obs.on_cell(cell, &summary);
        }
        Ok(GridCell {
            param_label: cell.label.clone(),
            result: ExperimentResult {
                strategy: cell.config.strategy,
                params: cell.config.params,
                per_epoch,
                aggregate: summary.aggregate,
                init_seconds: summary.init_seconds,
                mean_alloc_seconds: summary.mean_alloc_seconds,
                mean_input_bytes: summary.mean_input_bytes,
                total_migrations: summary.total_migrations,
            },
        })
    }
}

fn io_error(path: impl std::fmt::Display, e: &dyn std::fmt::Display) -> Error {
    Error::Io {
        path: path.to_string(),
        message: e.to_string(),
    }
}

/// The recorder of `scenario`'s `telemetry=jsonl:<path>` observer,
/// writing to a freshly created `<path>`, or a disabled one.
fn open_telemetry(scenario: &Scenario) -> Result<Recorder> {
    let Some(path) = scenario.observers.iter().find_map(|o| match o {
        ObserverSpec::Telemetry(path) => Some(path),
        _ => None,
    }) else {
        return Ok(Recorder::disabled());
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(|e| io_error(parent.display(), &e))?;
        }
    }
    let file = fs::File::create(path).map_err(|e| io_error(path.display(), &e))?;
    Ok(Recorder::with_sink(Box::new(io::BufWriter::new(file))))
}

/// How the offline driver reads the plan's block ranges: the one thing
/// the two trace kinds do differently.
trait Feed<'t> {
    /// A range's transactions.
    type Range: std::ops::Deref<Target = [Transaction]> + Default;

    /// Total block span of the trace.
    fn blocks(&self) -> u64;

    /// Reads `step`'s range, reusing `spare`'s storage if it owns any.
    fn read(&mut self, step: Step, spare: Self::Range) -> Result<Self::Range>;

    /// Folds a training range into the core.
    fn train(
        core: &mut AllocationCore<'t>,
        strategy: &mut dyn EpochStrategy,
        range: &Self::Range,
        fold: TrainingFold,
    );

    /// Commits a processed evaluation window.
    fn commit(
        core: &mut AllocationCore<'t>,
        strategy: &mut dyn EpochStrategy,
        window: &Self::Range,
    );
}

/// A resident trace: ranges are borrowed slices the core retains, so
/// the training graph is merged once, at the initial allocation.
struct Resident<'t>(&'t TransactionTrace);

impl<'t> Feed<'t> for Resident<'t> {
    type Range = &'t [Transaction];

    fn blocks(&self) -> u64 {
        self.0.max_block().map_or(0, |b| b.as_u64() + 1)
    }

    fn read(&mut self, step: Step, _spare: Self::Range) -> Result<Self::Range> {
        Ok(self
            .0
            .block_range(BlockHeight::new(step.start), BlockHeight::new(step.end)))
    }

    fn train(
        core: &mut AllocationCore<'t>,
        strategy: &mut dyn EpochStrategy,
        range: &Self::Range,
        fold: TrainingFold,
    ) {
        match fold {
            TrainingFold::Skip => core.ingest_training_chunk(strategy, range, fold),
            TrainingFold::Merge | TrainingFold::Defer => core.ingest_training(strategy, range),
        }
    }

    fn commit(
        core: &mut AllocationCore<'t>,
        strategy: &mut dyn EpochStrategy,
        window: &Self::Range,
    ) {
        core.commit_window_retained(strategy, window);
    }
}

/// A window stream: ranges are owned buffers the core absorbs, so
/// memory is bounded by the window, not the trace.
struct Owned(EpochWindowStream);

impl<'t> Feed<'t> for Owned {
    type Range = Vec<Transaction>;

    fn blocks(&self) -> u64 {
        self.0.blocks()
    }

    fn read(&mut self, step: Step, mut spare: Self::Range) -> Result<Self::Range> {
        spare.clear();
        self.0.read_to(step.end, &mut spare)?;
        Ok(spare)
    }

    fn train(
        core: &mut AllocationCore<'t>,
        strategy: &mut dyn EpochStrategy,
        range: &Self::Range,
        fold: TrainingFold,
    ) {
        core.ingest_training_chunk(strategy, range, fold);
    }

    fn commit(
        core: &mut AllocationCore<'t>,
        strategy: &mut dyn EpochStrategy,
        window: &Self::Range,
    ) {
        core.commit_window_owned(strategy, window);
    }
}

/// The offline driver: walks `config`'s epoch plan over `feed`. Each
/// evaluation row goes to `on_epoch(epoch, row)`; returning `false`
/// stops the run after that epoch (its row is already in the summary).
fn drive<'t, F: Feed<'t>>(
    config: &ExperimentConfig,
    mut feed: F,
    strategy: &mut dyn EpochStrategy,
    recorder: Recorder,
    on_epoch: &mut dyn FnMut(usize, &EpochMetrics) -> bool,
) -> Result<RunSummary> {
    let plan = EpochPlan::new(config, feed.blocks())?;
    let mut core = AllocationCore::new(*config);
    core.set_recorder(recorder);
    let skip_graph = skips_training_graph(strategy);
    let mut recent = F::Range::default();
    let mut window = F::Range::default();
    for step in plan.steps() {
        match step.kind {
            StepKind::Train | StepKind::Recent => {
                recent = feed.read(step, std::mem::take(&mut recent))?;
                F::train(&mut core, strategy, &recent, step.fold(skip_graph));
                if step.kind == StepKind::Recent {
                    core.finish_training(strategy)?;
                    core.release_history_if_unused(strategy);
                }
            }
            StepKind::Eval(epoch) => {
                window = feed.read(step, std::mem::take(&mut window))?;
                let metrics = core.process_epoch(strategy, &window, &recent);
                if !on_epoch(epoch, &metrics) {
                    break;
                }
                F::commit(&mut core, strategy, &window);
                // The processed window is the next epoch's recent window.
                std::mem::swap(&mut recent, &mut window);
            }
        }
    }
    Ok(core.summary())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;
    use crate::scenario::GridAxis;
    use crate::Parallelism;
    use mosaic_workload::TraceSource;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn quick_scenario() -> Scenario {
        Scenario::new(
            "session-test",
            TraceSource::Generated(Scale::quick().workload),
            Scale::quick().eval_epochs,
        )
        .with_base(
            mosaic_types::SystemParams::builder()
                .shards(4)
                .eta(2.0)
                .tau(Scale::quick().tau)
                .build()
                .unwrap(),
        )
        .with_strategies([Strategy::Mosaic, Strategy::Random])
    }

    /// `quick_scenario` with the source flipped to its streamed
    /// counterpart (validation forbids streamed + `collect`, so the
    /// observer becomes `stream-csv` into `dir`).
    fn streamed_quick_scenario(dir: &std::path::Path) -> Scenario {
        let mut scenario = quick_scenario();
        scenario.trace = TraceSource::StreamedGenerated(Scale::quick().workload);
        scenario.with_observers([ObserverSpec::StreamCsv(dir.to_path_buf())])
    }

    #[test]
    fn with_trace_rejects_streamed_sources() {
        let resident = Simulation::from_scenario(quick_scenario()).unwrap();
        let dir = std::env::temp_dir().join("mosaic-session-reject");
        let err =
            Simulation::with_trace(streamed_quick_scenario(&dir), resident.trace()).unwrap_err();
        assert!(matches!(err, Error::ParseScenario { line: 0, .. }), "{err}");
        assert!(err.to_string().contains("streamed trace source"), "{err}");
    }

    #[test]
    fn streamed_session_is_byte_identical_to_materialised() {
        let dir = std::env::temp_dir().join("mosaic-session-streamed");
        let resident = Simulation::from_scenario(quick_scenario()).unwrap();
        let streamed = Simulation::from_scenario(streamed_quick_scenario(&dir)).unwrap();
        assert!(streamed.try_trace().is_none());
        assert_eq!(resident.cells().len(), streamed.cells().len());
        // Cell-by-cell: the streamed session's CSV stream matches the
        // resident session's exactly.
        for (r, s) in resident.cells().iter().zip(streamed.cells()) {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let ra = resident.stream_cell(r, &mut a).unwrap();
            let rb = streamed.stream_cell(s, &mut b).unwrap();
            assert_eq!(a, b, "{}", r.label);
            assert_eq!(ra.aggregate, rb.aggregate, "{}", r.label);
        }
        // And a full run: each stream-csv file the streamed session
        // writes holds those same bytes.
        let report = streamed.run().unwrap();
        assert_eq!(report.cells.len(), resident.cells().len());
        for (cell, grid) in streamed.cells().iter().zip(&report.cells) {
            // No collect observer → nothing accumulated in memory.
            assert!(grid.result.per_epoch.is_empty());
            let path = dir.join(format!(
                "{}.csv",
                cell.file_stem(streamed.scenario().is_single_point())
            ));
            let mut expected = Vec::new();
            streamed.stream_cell(cell, &mut expected).unwrap();
            assert_eq!(fs::read(&path).unwrap(), expected, "{}", path.display());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sessions_share_one_trace_allocation() {
        let a = Simulation::from_scenario(quick_scenario()).unwrap();
        let b = Simulation::with_trace(quick_scenario(), a.trace()).unwrap();
        assert!(Arc::ptr_eq(&a.trace(), &b.trace()));
        // And grid cells borrow it too: running both sessions never
        // regenerates (pointer equality is the whole test — generation
        // is deterministic so values could never differ).
        assert_eq!(a.run().unwrap().cells.len(), 2);
        assert_eq!(b.run().unwrap().cells.len(), 2);
    }

    #[test]
    fn report_lookup_finds_cells_by_label_and_strategy() {
        let report = Simulation::from_scenario(quick_scenario())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.labels(), ["k = 4"]);
        assert!(report.find("k = 4", Strategy::Mosaic).is_some());
        assert!(report.find("k = 4", Strategy::Metis).is_none());
        assert!(report.find("k = 16", Strategy::Mosaic).is_none());
    }

    #[test]
    fn grid_parallelism_does_not_change_the_report() {
        let scenario = quick_scenario().with_axis(GridAxis::Shards(vec![2, 4]));
        let trace = Simulation::from_scenario(scenario.clone()).unwrap().trace();
        let sequential = Simulation::with_trace(
            scenario
                .clone()
                .with_grid_parallelism(Parallelism::Sequential),
            Arc::clone(&trace),
        )
        .unwrap()
        .run()
        .unwrap();
        let parallel = Simulation::with_trace(
            scenario.with_grid_parallelism(Parallelism::Threads(4)),
            trace,
        )
        .unwrap()
        .run()
        .unwrap();
        // Timing fields are wall-clock and run-dependent; everything the
        // engine computes must be identical.
        assert_eq!(sequential.cells.len(), parallel.cells.len());
        for (s, p) in sequential.cells.iter().zip(&parallel.cells) {
            assert_eq!(s.param_label, p.param_label);
            assert_eq!(s.result.strategy, p.result.strategy);
            assert_eq!(s.result.to_csv(), p.result.to_csv());
            assert_eq!(s.result.aggregate, p.result.aggregate);
            assert_eq!(s.result.total_migrations, p.result.total_migrations);
        }
    }

    #[test]
    fn custom_observers_see_every_epoch_and_cell() {
        struct Counter {
            epochs: AtomicUsize,
            cells: AtomicUsize,
        }
        impl RunObserver for Counter {
            fn on_epoch(&self, _: &CellSpec, _: usize, _: &EpochMetrics) -> bool {
                self.epochs.fetch_add(1, Ordering::Relaxed);
                true
            }
            fn on_cell(&self, _: &CellSpec, summary: &RunSummary) {
                assert!(summary.epochs > 0);
                self.cells.fetch_add(1, Ordering::Relaxed);
            }
        }
        let observer: &'static Counter = Box::leak(Box::new(Counter {
            epochs: AtomicUsize::new(0),
            cells: AtomicUsize::new(0),
        }));
        let sim = Simulation::from_scenario(quick_scenario())
            .unwrap()
            .with_observer(Box::new(observer));
        sim.run().unwrap();
        assert_eq!(observer.cells.load(Ordering::Relaxed), 2);
        assert_eq!(
            observer.epochs.load(Ordering::Relaxed),
            2 * Scale::quick().eval_epochs
        );
    }

    #[test]
    fn aborting_observer_truncates_the_cell() {
        struct StopAfterOne;
        impl RunObserver for StopAfterOne {
            fn on_epoch(&self, _: &CellSpec, epoch: usize, _: &EpochMetrics) -> bool {
                epoch == 0
            }
        }
        let sim = Simulation::from_scenario(quick_scenario())
            .unwrap()
            .with_observer(Box::new(StopAfterOne));
        let report = sim.run().unwrap();
        for cell in &report.cells {
            assert_eq!(cell.result.per_epoch.len(), 2, "{}", cell.param_label);
        }
    }

    #[test]
    fn telemetry_observer_writes_jsonl_without_perturbing_results() {
        let base = std::env::temp_dir().join("mosaic-session-telemetry");
        let off_dir = base.join("off");
        let on_dir = base.join("on");
        let jsonl = base.join("events.jsonl");

        let off = quick_scenario().with_observers([ObserverSpec::StreamCsv(off_dir.clone())]);
        Simulation::from_scenario(off).unwrap().run().unwrap();

        let on = quick_scenario().with_observers([
            ObserverSpec::StreamCsv(on_dir.clone()),
            ObserverSpec::Telemetry(jsonl.clone()),
        ]);
        let sim = Simulation::from_scenario(on).unwrap();
        sim.run().unwrap();

        // Result CSVs are byte-identical with telemetry on vs off.
        for cell in sim.cells() {
            let name = format!("{}.csv", cell.file_stem(sim.scenario().is_single_point()));
            assert_eq!(
                fs::read(off_dir.join(&name)).unwrap(),
                fs::read(on_dir.join(&name)).unwrap(),
                "{name}"
            );
        }

        // The event stream is valid JSONL and carries spans, epoch
        // events and the closing snapshot.
        let events = fs::read_to_string(&jsonl).unwrap();
        assert!(!events.is_empty());
        for line in events.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "not a JSON object line: {line}"
            );
        }
        assert!(events.contains("\"kind\":\"span\""));
        assert!(events.contains("\"kind\":\"epoch\""));
        // Each cell's core counts under the cell's scope.
        assert!(events.contains("\"name\":\"pilot.core.epochs_processed\""));
        assert!(events.contains("\"name\":\"random.core.epochs_processed\""));
        fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn run_with_factory_relabels_custom_strategies() {
        use crate::engine::MosaicStrategy;
        use mosaic_core::policy::StickyPolicy;
        let sim = Simulation::from_scenario(quick_scenario().with_strategies([Strategy::Mosaic]))
            .unwrap();
        let report = sim
            .run_with_factory(|cell| {
                Box::new(MosaicStrategy::new(cell.config.params, StickyPolicy))
            })
            .unwrap();
        // Sticky never proposes, so the custom strategy is observably
        // different from the registry Pilot while keeping its label.
        assert_eq!(report.cells[0].result.strategy, Strategy::Mosaic);
        assert_eq!(report.cells[0].result.total_migrations, 0);
    }
}
