//! Offline runs: the untraced [`Simulation::run`] path, and traced
//! drivers that feed the same cells through [`AllocationCore`]'s batch
//! primitives in the order the engine loops use, timing each layer.

use std::fs::{self, File};
use std::io::BufWriter;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mosaic_metrics::EpochCsvWriter;
use mosaic_sim::alloc_core::skips_training_graph;
use mosaic_sim::engine::RunSummary;
use mosaic_sim::scenario::CellSpec;
use mosaic_sim::{AllocationCore, RunObserver, Scenario, Simulation, Strategy, TrainingFold};
use mosaic_types::{BlockHeight, Error, Result, Transaction};
use mosaic_workload::TransactionTrace;

use crate::timed::{StrategyTimes, Timed};

/// One cell's per-epoch CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellCsv {
    /// The cell's file stem (`pilot`, `g-txallo`, …).
    pub stem: String,
    /// The CSV bytes.
    pub csv: Vec<u8>,
}

/// One untraced [`Simulation::run`] of every cell.
#[derive(Debug, Clone)]
pub struct Untraced {
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Wall time of each cell, in cell order. The grid is sequential,
    /// so a cell's time runs from the previous cell's end to its own.
    pub cell_walls: Vec<Duration>,
    /// The CSVs the run wrote, read back after the clock stopped.
    pub csvs: Vec<CellCsv>,
}

/// Notes when each cell ends; the only observer the untraced run gets.
struct CellEnds(Arc<Mutex<Vec<Instant>>>);

impl RunObserver for CellEnds {
    fn on_cell(&self, _: &CellSpec, _: &RunSummary) {
        self.0
            .lock()
            .expect("no panics while held")
            .push(Instant::now());
    }
}

/// Runs every cell of `sim` through [`Simulation::run`], the untraced
/// path, and reads back the CSVs it wrote to `csv_dir`.
///
/// # Errors
///
/// Propagates run and file errors.
pub fn run_untraced(sim: Simulation, csv_dir: &Path) -> Result<Untraced> {
    let ends = Arc::new(Mutex::new(Vec::new()));
    let sim = sim.with_observer(Box::new(CellEnds(Arc::clone(&ends))));
    let start = Instant::now();
    sim.run()?;
    let wall = start.elapsed();
    let ends = ends.lock().expect("no panics while held");
    let cell_walls = std::iter::once(&start)
        .chain(ends.iter())
        .zip(ends.iter())
        .map(|(from, to)| *to - *from)
        .collect();
    let single = sim.scenario().is_single_point();
    let stems = sim.cells().iter().map(|c| c.file_stem(single));
    Ok(Untraced {
        wall,
        cell_walls,
        csvs: read_csvs(csv_dir, stems)?,
    })
}

/// One cell of a traced run.
#[derive(Debug, Clone)]
pub struct CellTrace {
    /// The cell's strategy.
    pub strategy: Strategy,
    /// The CSV the traced driver wrote.
    pub csv: CellCsv,
    /// Time inside the strategy (allocation, client decisions).
    pub strategy_times: StrategyTimes,
    /// `txgraph`: training ingest and window commits, minus the
    /// strategy's share.
    pub absorb: Duration,
    /// `chain`: ledger construction and epoch processing, minus the
    /// strategy's share.
    pub ledger: Duration,
    /// `metrics`: CSV writing.
    pub csv_write: Duration,
    /// The core's run summary (Table IV view).
    pub summary: RunSummary,
}

impl CellTrace {
    /// Time this cell attributes to a named layer.
    pub fn attributed(&self) -> Duration {
        self.strategy_times.total() + self.absorb + self.ledger + self.csv_write
    }
}

/// A traced run over every cell of a scenario.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Wall time of the whole traced run.
    pub wall: Duration,
    /// `workload`: trace materialisation, or stream open and reads.
    pub generate: Duration,
    /// Per-cell layers, in cell order.
    pub cells: Vec<CellTrace>,
}

impl TracedRun {
    /// Time attributed to a named layer.
    pub fn attributed(&self) -> Duration {
        self.generate
            + self
                .cells
                .iter()
                .map(CellTrace::attributed)
                .sum::<Duration>()
    }
}

/// Traced run of a resident-trace scenario: materialises the trace
/// once, then mirrors `engine::run_with_observer` for each cell.
///
/// # Errors
///
/// Propagates trace, core and file errors.
pub fn trace_materialized(scenario: &Scenario, csv_dir: &Path) -> Result<TracedRun> {
    let start = Instant::now();
    let trace = scenario.trace.materialize()?;
    let generate = start.elapsed();
    if trace.is_empty() {
        return Err(Error::EmptyTrace);
    }
    let single = scenario.is_single_point();
    let mut cells = Vec::new();
    for cell in scenario.cells()? {
        cells.push(trace_resident_cell(&cell, &trace, single, csv_dir)?);
    }
    Ok(TracedRun {
        wall: start.elapsed(),
        generate,
        cells,
    })
}

/// Traced run of a streamed scenario: mirrors
/// `engine::run_streamed_with_observer` for each cell.
///
/// # Errors
///
/// Propagates stream, core and file errors.
pub fn trace_streamed(scenario: &Scenario, csv_dir: &Path) -> Result<TracedRun> {
    let start = Instant::now();
    let mut generate = Duration::ZERO;
    let single = scenario.is_single_point();
    let mut cells = Vec::new();
    for cell in scenario.cells()? {
        cells.push(trace_streamed_cell(
            scenario,
            &cell,
            single,
            csv_dir,
            &mut generate,
        )?);
    }
    Ok(TracedRun {
        wall: start.elapsed(),
        generate,
        cells,
    })
}

/// Runs `f` on the strategy and returns its result with the wall time
/// the strategy itself did not account for.
fn outside<T>(strategy: &mut Timed, f: impl FnOnce(&mut Timed) -> T) -> (T, Duration) {
    let inside = strategy.times.total();
    let start = Instant::now();
    let out = f(strategy);
    let wall = start.elapsed();
    (out, wall.saturating_sub(strategy.times.total() - inside))
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed();
    out
}

type CsvFile = EpochCsvWriter<BufWriter<File>>;

fn create_csv(csv_dir: &Path, stem: &str, acc: &mut Duration) -> Result<CsvFile> {
    timed(acc, || {
        let path = csv_dir.join(format!("{stem}.csv"));
        let file = File::create(&path).map_err(|e| io_error(&path, &e))?;
        EpochCsvWriter::new(BufWriter::new(file)).map_err(|e| io_error(&path, &e))
    })
}

fn finish_csv(writer: CsvFile, csv_dir: &Path, stem: &str, acc: &mut Duration) -> Result<CellCsv> {
    let path = csv_dir.join(format!("{stem}.csv"));
    timed(acc, || writer.finish().map(drop)).map_err(|e| io_error(&path, &e))?;
    Ok(CellCsv {
        stem: stem.to_string(),
        csv: fs::read(&path).map_err(|e| io_error(&path, &e))?,
    })
}

fn trace_resident_cell(
    cell: &CellSpec,
    trace: &TransactionTrace,
    single: bool,
    csv_dir: &Path,
) -> Result<CellTrace> {
    let config = &cell.config;
    let tau = config.params.tau();
    let stem = cell.file_stem(single);
    let mut csv_write = Duration::ZERO;
    let mut absorb = Duration::ZERO;
    let mut ledger = Duration::ZERO;
    let mut writer = create_csv(csv_dir, &stem, &mut csv_write)?;
    let mut strategy = Timed::new(config.strategy.build(config.params));

    let (train, _eval) = trace.split_at_fraction(config.train_fraction);
    let max_block = trace.max_block().expect("trace checked non-empty");
    let cut_block = BlockHeight::new(
        (((max_block.as_u64() + 1) as f64) * config.train_fraction).floor() as u64,
    );
    let mut core = AllocationCore::new(*config);
    let ((), own) = outside(&mut strategy, |s| core.ingest_training(s, train));
    absorb += own;
    let (finished, own) = outside(&mut strategy, |s| core.finish_training(s));
    finished?;
    ledger += own;

    let mut recent = trace.block_range(
        BlockHeight::new(cut_block.as_u64().saturating_sub(u64::from(tau))),
        cut_block,
    );
    for window in trace.epoch_windows(cut_block, tau).take(config.eval_epochs) {
        let (metrics, own) = outside(&mut strategy, |s| core.process_epoch(s, window, recent));
        ledger += own;
        timed(&mut csv_write, || writer.write_epoch(&metrics))
            .map_err(|e| io_error(&csv_dir.join(&stem), &e))?;
        let ((), own) = outside(&mut strategy, |s| core.commit_window_retained(s, window));
        absorb += own;
        recent = window;
    }
    let summary = core.summary();
    Ok(CellTrace {
        strategy: config.strategy,
        csv: finish_csv(writer, csv_dir, &stem, &mut csv_write)?,
        strategy_times: strategy.times,
        absorb,
        ledger,
        csv_write,
        summary,
    })
}

fn trace_streamed_cell(
    scenario: &Scenario,
    cell: &CellSpec,
    single: bool,
    csv_dir: &Path,
    generate: &mut Duration,
) -> Result<CellTrace> {
    let config = &cell.config;
    let tau = u64::from(config.params.tau());
    let stem = cell.file_stem(single);
    let mut csv_write = Duration::ZERO;
    let mut absorb = Duration::ZERO;
    let mut ledger = Duration::ZERO;
    let mut writer = create_csv(csv_dir, &stem, &mut csv_write)?;
    let mut strategy = Timed::new(config.strategy.build(config.params));

    let mut stream = timed(generate, || scenario.trace.window_stream())?;
    let blocks = stream.blocks();
    if blocks == 0 {
        return Err(Error::EmptyTrace);
    }
    let max_block = blocks - 1;
    let cut_block = ((blocks as f64) * config.train_fraction).floor() as u64;
    let recent_start = cut_block.saturating_sub(tau);

    let mut core = AllocationCore::new(*config);
    let skip_graph = skips_training_graph(&strategy);
    let mut buf: Vec<Transaction> = Vec::new();
    while stream.position() < recent_start {
        let to = (stream.position() + tau).min(recent_start);
        buf.clear();
        timed(generate, || stream.read_to(to, &mut buf))?;
        let fold = if skip_graph {
            TrainingFold::Skip
        } else {
            TrainingFold::Merge
        };
        let ((), own) = outside(&mut strategy, |s| core.ingest_training_chunk(s, &buf, fold));
        absorb += own;
    }
    let mut recent: Vec<Transaction> = Vec::new();
    timed(generate, || stream.read_to(cut_block, &mut recent))?;
    let fold = if skip_graph {
        TrainingFold::Skip
    } else {
        TrainingFold::Defer
    };
    let ((), own) = outside(&mut strategy, |s| {
        core.ingest_training_chunk(s, &recent, fold)
    });
    absorb += own;
    let (finished, own) = outside(&mut strategy, |s| core.finish_training(s));
    finished?;
    ledger += own;
    let ((), own) = outside(&mut strategy, |s| core.release_history_if_unused(s));
    absorb += own;

    let mut window: Vec<Transaction> = Vec::new();
    let mut start = cut_block;
    for _ in 0..config.eval_epochs {
        if start > max_block {
            break;
        }
        window.clear();
        timed(generate, || stream.read_to(start + tau, &mut window))?;
        let (metrics, own) = outside(&mut strategy, |s| core.process_epoch(s, &window, &recent));
        ledger += own;
        timed(&mut csv_write, || writer.write_epoch(&metrics))
            .map_err(|e| io_error(&csv_dir.join(&stem), &e))?;
        let ((), own) = outside(&mut strategy, |s| core.commit_window_owned(s, &window));
        absorb += own;
        std::mem::swap(&mut recent, &mut window);
        start += tau;
    }
    let summary = core.summary();
    Ok(CellTrace {
        strategy: config.strategy,
        csv: finish_csv(writer, csv_dir, &stem, &mut csv_write)?,
        strategy_times: strategy.times,
        absorb,
        ledger,
        csv_write,
        summary,
    })
}

/// Reads `<csv_dir>/<stem>.csv` for every stem.
///
/// # Errors
///
/// [`Error::Io`] if a file cannot be read.
pub fn read_csvs(csv_dir: &Path, stems: impl Iterator<Item = String>) -> Result<Vec<CellCsv>> {
    stems
        .map(|stem| {
            let path = csv_dir.join(format!("{stem}.csv"));
            let csv = fs::read(&path).map_err(|e| io_error(&path, &e))?;
            Ok(CellCsv { stem, csv })
        })
        .collect()
}

/// Wraps an I/O error with the path it concerns.
fn io_error(path: &Path, e: &std::io::Error) -> Error {
    Error::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}
