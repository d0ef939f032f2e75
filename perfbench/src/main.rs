//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <offline-grid|stream-clients|node-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> --work-dir <dir>
//!           [--node-bin <path>] [--commit <id>]
//! ```
//!
//! `--trace 0` measures the untraced paths and prints the end-to-end
//! metrics; `--trace 1` pairs each untraced iteration with a traced one
//! and prints the per-layer metrics. The last stdout line is the JSON
//! result; the lines before it are a readable summary.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use mosaic_node::MosaicClient;
use mosaic_sim::{RunTarget, Scenario, Simulation, Strategy};
use mosaic_workload::TransactionTrace;
use perfbench::node::{self, CellRef, CorePass, Plan, Replay, Server};
use perfbench::offline::{self, CellCsv, TracedRun};
use perfbench::stats::{median, peak_rss_mb, quantile, result_json, sum_of_medians, Metric};
use perfbench::timed::StrategyTimes;
use perfbench::workload::{Shape, Workload};

/// Each offline iteration process sets up at least `MIN_SETUPS` times and
/// until set-up has taken `SETUP_SECONDS` seconds, at most `MAX_SETUPS`
/// times; `setup_s` is the median over every process of the run.
const MIN_SETUPS: usize = 11;
const MAX_SETUPS: usize = 101;
const SETUP_SECONDS: f64 = 0.5;

/// The least share of traced wall time the named layers must explain.
const MIN_COVERAGE: f64 = 0.95;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    node_bin: Option<PathBuf>,
    commit: String,
    /// Run one untraced offline iteration in this process and print its
    /// `child` line (the parent starts one such process per iteration).
    child: bool,
}

/// What a run found, ready to print.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// Correctness failures, by description.
    errors: Vec<String>,
    metrics: Vec<Metric>,
    /// Workload-specific layer metrics, printed in the summary only.
    layers: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }
}

type BoxResult<T> = Result<T, Box<dyn std::error::Error>>;

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return match child_offline(&args) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {} iteration failed: {e}", args.workload.name());
                ExitCode::FAILURE
            }
        };
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} cpus={cpus} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.commit
    );
    let outcome = fs::create_dir_all(&args.work_dir)
        .map_err(Into::into)
        .and_then(|()| match args.workload {
            Workload::NodeMixed => run_node(&args),
            _ => run_offline(&args),
        });
    let mut report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    for m in &report.layers {
        println!("# layer {} = {} {}", m.name, m.value, m.unit);
    }
    for m in report.metrics.iter().filter(|m| !m.value.is_finite()) {
        report.errors.push(format!("{} was not measured", m.name));
    }
    for error in &report.errors {
        println!("# FAILED: {error}");
    }
    let correct = report.errors.is_empty();
    println!(
        "{}",
        result_json(correct, report.attempted, report.failed, &report.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |flag: &str| flags.remove(flag);
    let workload = take("--workload").ok_or("--workload is required")?;
    let workload =
        Workload::from_name(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let number = |v: Option<String>, flag: &str| -> Result<f64, String> {
        v.ok_or_else(|| format!("{flag} is required"))?
            .parse::<f64>()
            .map_err(|_| format!("{flag} needs a number"))
    };
    let seed = take("--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|_| "--seed needs a whole number")?;
    let seconds = number(take("--seconds"), "--seconds")?;
    let trace = match take("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let work_dir = PathBuf::from(take("--work-dir").ok_or("--work-dir is required")?);
    let node_bin = take("--node-bin").map(PathBuf::from);
    let commit = take("--commit").unwrap_or_else(|| "unknown".to_string());
    let child = take("--child").as_deref() == Some("1");
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        work_dir,
        node_bin,
        commit,
        child,
    })
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn dir(args: &Args, name: &str) -> BoxResult<PathBuf> {
    let path = args.work_dir.join(name);
    fs::create_dir_all(&path)?;
    Ok(path)
}

fn more_setups(setups: &[f64]) -> bool {
    setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_SECONDS)
}

/// `true` if one more iteration, as long as the mean so far, still ends
/// within the run's `seconds`.
fn another_fits(start: Instant, iterations: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed + elapsed / iterations.max(1) as f64 <= seconds
}

/// Median of each metric over several traced iterations, in first-seen
/// order.
fn median_metrics(runs: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    first
        .iter()
        .map(|m| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|run| run.iter().find(|x| x.name == m.name))
                .map(|x| x.value)
                .collect();
            Metric::new(m.name.clone(), median(&values), m.unit)
        })
        .collect()
}

/// Client-side node layers; only `node-mixed` has them.
#[derive(Clone, Copy, Default)]
struct NodeLayers {
    send: Duration,
    lookup: Duration,
    end_ms: f64,
    server_core: Duration,
    inproc_core: Duration,
    wire_overhead: f64,
}

/// Layer times of one traced iteration.
#[derive(Default)]
struct Layers {
    generate: Duration,
    absorb: Duration,
    strategies: Vec<(Strategy, StrategyTimes, f64)>,
    ledger: Duration,
    migrations: usize,
    csv_write: Duration,
    node: Option<NodeLayers>,
    wall: Duration,
    attributed: Duration,
    overhead: f64,
}

impl Layers {
    /// The per-layer metrics of `BENCHMARK.json`: layers that every
    /// workload runs (Pilot and Random are in all three).
    fn metrics(&self) -> Vec<Metric> {
        let strategy = |which: Strategy| {
            self.strategies
                .iter()
                .find(|(s, ..)| *s == which)
                .map_or((StrategyTimes::default(), 0.0), |(_, t, b)| (*t, *b))
        };
        let (pilot, pilot_bytes) = strategy(Strategy::Mosaic);
        let (random, _) = strategy(Strategy::Random);
        let sum = |f: fn(&StrategyTimes) -> Duration| -> f64 {
            self.strategies.iter().map(|(_, t, _)| secs(f(t))).sum()
        };
        vec![
            Metric::new("workload.generate_s", secs(self.generate), "s"),
            Metric::new("txgraph.absorb_s", secs(self.absorb), "s"),
            Metric::new("alloc.total.initial_s", sum(|t| t.initial), "s"),
            Metric::new("alloc.total.epoch_s", sum(|t| t.before_epoch), "s"),
            Metric::new("alloc.pilot.initial_s", secs(pilot.initial), "s"),
            Metric::new("alloc.pilot.epoch_s", secs(pilot.epoch_mean()), "s"),
            Metric::new("alloc.pilot.input_bytes", pilot_bytes, "B"),
            Metric::new("alloc.random.initial_s", secs(random.initial), "s"),
            Metric::new("alloc.random.epoch_s", secs(random.epoch_mean()), "s"),
            Metric::new(
                "core.pilot.observe_s",
                secs(pilot.observe_training + pilot.after_epoch),
                "s",
            ),
            Metric::new("chain.ledger_s", secs(self.ledger), "s"),
            Metric::new("chain.migrations", self.migrations as f64, "count"),
            Metric::new("metrics.csv_s", secs(self.csv_write), "s"),
            Metric::new(
                "sim.unattributed_s",
                secs(self.wall.saturating_sub(self.attributed)),
                "s",
            ),
            Metric::new("sim.coverage", self.coverage(), "ratio"),
            Metric::new("trace.wall_s", secs(self.wall), "s"),
            Metric::new("trace.overhead_s", self.overhead, "s"),
        ]
    }

    /// Layers only some workloads run: the miner-driven strategies and
    /// the node. Printed in the summary, not in the result line.
    fn workload_metrics(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        for (strategy, times, bytes) in &self.strategies {
            if matches!(strategy, Strategy::Mosaic | Strategy::Random) {
                continue;
            }
            let name = strategy.name().to_lowercase();
            out.extend([
                Metric::new(format!("alloc.{name}.initial_s"), secs(times.initial), "s"),
                Metric::new(
                    format!("alloc.{name}.epoch_s"),
                    secs(times.epoch_mean()),
                    "s",
                ),
                Metric::new(format!("alloc.{name}.input_bytes"), *bytes, "B"),
            ]);
        }
        if let Some(node) = &self.node {
            out.extend([
                Metric::new("node.send_s", secs(node.send), "s"),
                Metric::new("node.lookup_s", secs(node.lookup), "s"),
                Metric::new("node.end_ms", node.end_ms, "ms"),
                Metric::new("node.server_core_s", secs(node.server_core), "s"),
                Metric::new("node.inproc_core_s", secs(node.inproc_core), "s"),
                Metric::new("node.wire_overhead_ratio", node.wire_overhead, "ratio"),
            ]);
        }
        out
    }

    fn coverage(&self) -> f64 {
        secs(self.attributed) / secs(self.wall).max(1e-12)
    }
}

fn run_offline(args: &Args) -> BoxResult<Report> {
    let workload = args.workload;
    let shape = workload.shape();
    let untraced_dir = dir(args, "untraced")?;
    let scenario = workload.scenario(&shape, args.seed, &untraced_dir)?;
    let specs = scenario.cells()?;
    let single = scenario.is_single_point();
    let cells = specs.len() as u64;
    // Every cell feeds the training prefix and `eval_epochs` windows.
    let train_blocks = (shape.blocks as f64 * specs[0].config.train_fraction).floor() as u64;
    let eval_blocks = u64::from(shape.tau) * shape.eval_epochs as u64;
    let txs_per_cell = shape.txs_per_block as u64 * (train_blocks + eval_blocks);

    let traced_dir = dir(args, "traced")?;
    let mut report = Report::default();
    let mut reference: Option<Vec<CellCsv>> = None;
    let (mut walls, mut cell_walls) = (Vec::new(), Vec::new());
    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    let mut traced_runs = Vec::new();
    let start = Instant::now();
    loop {
        let child = run_child(args)?;
        let csvs = offline::read_csvs(&untraced_dir, specs.iter().map(|c| c.file_stem(single)))?;
        report.attempted += cells;
        check_cells(&mut report, &csvs, reference.as_deref(), &shape, "untraced");
        reference.get_or_insert(csvs);
        if args.trace {
            let traced = if workload.streamed() {
                offline::trace_streamed(&scenario, &traced_dir)?
            } else {
                offline::trace_materialized(&scenario, &traced_dir)?
            };
            report.attempted += cells;
            let csvs: Vec<CellCsv> = traced.cells.iter().map(|c| c.csv.clone()).collect();
            check_cells(&mut report, &csvs, reference.as_deref(), &shape, "traced");
            let overhead = secs(traced.wall) - (child.wall_s + median(&child.setups));
            traced_runs.push(offline_layers(&traced, overhead));
        }
        walls.push(child.wall_s);
        cell_walls.push(child.cell_walls);
        rss.push(child.peak_rss_mb);
        setups.extend(child.setups);
        if !another_fits(start, walls.len(), args.seconds) {
            break;
        }
    }

    let wall_s = sum_of_medians(&cell_walls);
    report.notes.push(format!(
        "untraced run time of {} iteration(s) of {cells} cells, one process each: {walls:.3?}; \
         {} set-ups",
        walls.len(),
        setups.len()
    ));
    if args.trace {
        finish_traced(&mut report, &traced_runs);
    } else {
        report.metrics = vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("wall_s", wall_s, "s"),
            Metric::new("tx_per_s", (cells * txs_per_cell) as f64 / wall_s, "1/s"),
            Metric::new("peak_rss_mb", median(&rss), "MiB"),
        ];
        report
            .notes
            .push("trace overhead: n/a (untraced run)".to_string());
    }
    push_failed_ratio(&mut report);
    Ok(report)
}

/// What one untraced offline iteration measured in its own process.
struct ChildRun {
    wall_s: f64,
    cell_walls: Vec<f64>,
    peak_rss_mb: f64,
    setups: Vec<f64>,
}

/// Runs one untraced offline iteration in a fresh process, so that each
/// iteration gets its own memory layout and `VmHWM` covers exactly one
/// set-up and run. Its CSVs land in the work directory's `untraced`.
fn run_child(args: &Args) -> BoxResult<ChildRun> {
    let out = Command::new(std::env::current_exe()?)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--work-dir")
        .arg(&args.work_dir)
        .args(["--child", "1"])
        .stderr(Stdio::inherit())
        .output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    let numbers = |part: &str| -> Option<Vec<f64>> {
        part.split_whitespace().map(|f| f.parse().ok()).collect()
    };
    let mut parts = line.strip_prefix("child ").unwrap_or_default().split(" | ");
    let mut next = || parts.next().and_then(numbers);
    match (out.status.success(), next(), next(), next()) {
        (true, Some(head), Some(cell_walls), Some(setups)) if head.len() == 2 => Ok(ChildRun {
            wall_s: head[0],
            cell_walls,
            peak_rss_mb: head[1],
            setups,
        }),
        _ => Err(format!("iteration process failed ({}): {line:?}", out.status).into()),
    }
}

/// The `--child 1` side of [`run_child`]: repeated set-up, one
/// `Simulation::run`, then
/// `child <wall_s> <peak_rss_mb> | <cell wall_s>... | <setup_s>...`.
fn child_offline(args: &Args) -> BoxResult<String> {
    let workload = args.workload;
    let scenario = workload.scenario(&workload.shape(), args.seed, &dir(args, "untraced")?)?;
    // Set-up: trace materialisation, or stream open.
    let mut setups = Vec::new();
    let mut sim = None;
    while more_setups(&setups) {
        let start = Instant::now();
        let session = Simulation::from_scenario(scenario.clone())?;
        if workload.streamed() {
            drop(scenario.trace.window_stream()?);
        }
        setups.push(secs(start.elapsed()));
        sim = Some(session);
    }
    let sim = sim.expect("set-up ran at least once");
    let run = offline::run_untraced(sim, &dir(args, "untraced")?)?;
    let rss = peak_rss_mb("/proc/self/status")?;
    let join = |values: &mut dyn Iterator<Item = f64>| {
        values.map(|v| v.to_string()).collect::<Vec<_>>().join(" ")
    };
    Ok(format!(
        "child {} {rss} | {} | {}",
        secs(run.wall),
        join(&mut run.cell_walls.iter().map(|d| secs(*d))),
        join(&mut setups.into_iter())
    ))
}

/// Checks every cell's CSV on its own and, when given, byte for byte
/// against `reference`.
fn check_cells(
    report: &mut Report,
    csvs: &[CellCsv],
    reference: Option<&[CellCsv]>,
    shape: &Shape,
    what: &str,
) {
    for (i, cell) in csvs.iter().enumerate() {
        if let Err(e) = perfbench::check_csv(cell, shape) {
            report.fail(format!("{what} {e}"));
        } else if reference.is_some_and(|r| r.get(i) != Some(cell)) {
            report.fail(format!(
                "{what} {}.csv differs from the first untraced run",
                cell.stem
            ));
        }
    }
}

fn offline_layers(traced: &TracedRun, overhead: f64) -> Layers {
    let mut layers = Layers {
        generate: traced.generate,
        wall: traced.wall,
        attributed: traced.attributed(),
        overhead,
        ..Layers::default()
    };
    for cell in &traced.cells {
        layers.absorb += cell.absorb;
        layers.ledger += cell.ledger;
        layers.csv_write += cell.csv_write;
        layers.migrations += cell.summary.total_migrations;
        layers.strategies.push((
            cell.strategy,
            cell.strategy_times,
            cell.summary.mean_input_bytes,
        ));
    }
    layers
}

/// Reports the median of each layer metric over the traced iterations
/// and applies the coverage check to it.
fn finish_traced(report: &mut Report, runs: &[Layers]) {
    let iterations = runs.len();
    report.metrics = median_metrics(&runs.iter().map(Layers::metrics).collect::<Vec<_>>());
    report.layers = median_metrics(
        &runs
            .iter()
            .map(Layers::workload_metrics)
            .collect::<Vec<_>>(),
    );
    let value = |name: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let coverage = value("sim.coverage");
    let overhead = value("trace.overhead_s");
    let walls: Vec<f64> = runs.iter().map(|r| secs(r.wall)).collect();
    report.notes.push(format!(
        "traced wall_s of {iterations} iteration(s): {walls:.3?}; named layers cover {:.1}% \
         of traced wall time; trace overhead {overhead:.4} s",
        coverage * 100.0
    ));
    if coverage.is_nan() || coverage < MIN_COVERAGE {
        report.fail(format!(
            "coverage: named layers explain {:.1}% of traced wall time (< {:.0}%)",
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
}

fn push_failed_ratio(report: &mut Report) {
    report.notes.push(format!(
        "failed_ratio = {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
}

fn run_node(args: &Args) -> BoxResult<Report> {
    let node_bin = args
        .node_bin
        .as_deref()
        .ok_or("node-mixed needs --node-bin <mosaic-node binary>")?;
    let shape = Workload::NodeMixed.shape();
    let scenario = Workload::NodeMixed.scenario(&shape, args.seed, &dir(args, "node-csv")?)?;
    let scenario_path = args.work_dir.join("node-mixed.scenario");
    scenario.save(&scenario_path)?;
    let mut report = Report::default();

    // The first set-up's trace is the one every iteration replays.
    let mut setups = NodeSetups::default();
    let (trace, server, mut client) = setups.run(&scenario, node_bin, &scenario_path)?;
    stop(&mut report, server, &mut client);

    // Before timing: the replay plan, and the in-process reference
    // every node answer is checked against.
    let cells = scenario.cells_for(RunTarget::Node)?;
    let plan = Plan::new(&trace, &cells, args.seed);
    let reference = node::core_pass(&cells, &plan, false)?;

    let (mut walls, mut cell_walls) = (Vec::new(), Vec::new());
    let (mut rss, mut lookups) = (Vec::new(), Vec::new());
    let mut traced_runs = Vec::new();
    let start = Instant::now();
    loop {
        let (_, server, mut client) = setups.run(&scenario, node_bin, &scenario_path)?;
        let untraced = node::replay(&mut client, &plan, &reference.cells, false);
        rss.push(server.peak_rss_mb()?);
        stop(&mut report, server, &mut client);
        count_replay(&mut report, &untraced, "untraced");
        walls.push(secs(untraced.wall));
        cell_walls.push(untraced.cell_walls.iter().map(|d| secs(*d)).collect());
        lookups.extend_from_slice(&untraced.lookup_ms);
        if args.trace {
            let (server, mut client, _) = Server::spawn(node_bin, &scenario_path, true)?;
            let traced = node::replay(&mut client, &plan, &reference.cells, true);
            report.attempted += 1;
            let server_core = match client.stats() {
                Ok(stats) => node::server_core_time(&stats),
                Err(e) => {
                    report.fail(format!("STATS: {e}"));
                    Duration::ZERO
                }
            };
            stop(&mut report, server, &mut client);
            count_replay(&mut report, &traced, "traced");
            let inproc = node::core_pass(&cells, &plan, true)?;
            report.attempted += cells.len() as u64;
            check_core_pass(&mut report, &inproc.cells, &reference.cells);
            let generate = Duration::from_secs_f64(median(&setups.generates));
            let mut layers = node_layers(&traced, &inproc, generate, server_core);
            layers.overhead = secs(traced.wall) - secs(untraced.wall);
            traced_runs.push(layers);
        }
        if !another_fits(start, walls.len(), args.seconds) {
            break;
        }
    }

    let wall_s = sum_of_medians(&cell_walls);
    report.notes.push(format!(
        "untraced run time of {} replay(s) of {} cells, {} txs each, one server each: \
         {walls:.3?}; {} set-ups, spawn to first hello {:.3} ms (median)",
        walls.len(),
        cells.len(),
        plan.txs_per_pass(),
        setups.totals.len(),
        median(&setups.spawns) * 1e3,
    ));
    report.notes.push(format!(
        "lookup_ms_p50 = {} ms, lookup_ms_p99 = {} ms over {} lookups",
        quantile(&lookups, 0.5),
        quantile(&lookups, 0.99),
        lookups.len()
    ));
    if args.trace {
        finish_traced(&mut report, &traced_runs);
    } else {
        report.metrics = vec![
            Metric::new("setup_s", median(&setups.totals), "s"),
            Metric::new("wall_s", wall_s, "s"),
            Metric::new("tx_per_s", plan.txs_per_pass() as f64 / wall_s, "1/s"),
            Metric::new("peak_rss_mb", median(&rss), "MiB"),
        ];
        report
            .notes
            .push("trace overhead: n/a (untraced run)".to_string());
    }
    push_failed_ratio(&mut report);
    Ok(report)
}

/// Node set-up times, in seconds.
#[derive(Default)]
struct NodeSetups {
    /// Trace generation plus spawn to first hello: `setup_s`.
    totals: Vec<f64>,
    generates: Vec<f64>,
    spawns: Vec<f64>,
}

impl NodeSetups {
    /// One set-up: generate the trace to replay, spawn a server and
    /// complete the first hello. Every iteration sets up anew, so each
    /// replay meets a fresh process and the samples spread over the
    /// run as the replays do, rather than bunching at its start.
    fn run(
        &mut self,
        scenario: &Scenario,
        node_bin: &Path,
        scenario_path: &Path,
    ) -> BoxResult<(TransactionTrace, Server, MosaicClient)> {
        let start = Instant::now();
        let trace = scenario.trace.materialize()?;
        let generate = start.elapsed();
        let (server, client, spawn) = Server::spawn(node_bin, scenario_path, false)?;
        self.totals.push(secs(start.elapsed()));
        self.generates.push(secs(generate));
        self.spawns.push(secs(spawn));
        Ok((trace, server, client))
    }
}

/// Sends `SHUTDOWN` and waits for the server to exit; a failure counts
/// against the run, and the server is killed either way.
fn stop(report: &mut Report, server: Server, client: &mut MosaicClient) {
    report.attempted += 1;
    if let Err(e) = server.shutdown(client) {
        report.fail(format!("SHUTDOWN: {e}"));
    }
}

fn count_replay(report: &mut Report, replay: &Replay, what: &str) {
    report.attempted += replay.attempted;
    if replay.failed > 0 {
        report.failed += replay.failed;
        report.errors.push(format!(
            "{what} replay: {} of {} requests failed or disagreed with the in-process run",
            replay.failed, replay.attempted
        ));
    }
}

fn check_core_pass(report: &mut Report, cells: &[CellRef], reference: &[CellRef]) {
    for (i, (cell, want)) in cells.iter().zip(reference).enumerate() {
        if cell != want {
            report.fail(format!(
                "traced in-process cell {i} differs from the reference"
            ));
        }
    }
}

fn node_layers(
    traced: &Replay,
    inproc: &CorePass,
    generate: Duration,
    server_core: Duration,
) -> Layers {
    let spans = traced.spans.unwrap_or_default();
    let span = |name: &str| {
        inproc.spans.as_ref().map_or(Duration::ZERO, |s| {
            s.histograms
                .iter()
                .filter(|(n, _)| n == name)
                .map(|(_, h)| Duration::from_nanos(h.total_ns))
                .sum()
        })
    };
    let strategy_total: Duration = inproc.strategies.iter().map(|(_, t, _)| t.total()).sum();
    let in_train_span: Duration = inproc
        .strategies
        .iter()
        .map(|(_, t, _)| t.observe_training + t.initial)
        .sum();
    let absorb = span("epoch.train").saturating_sub(in_train_span);
    let ledger = span("epoch.commit") + span("epoch.migrate");
    let cells = inproc.strategies.len().max(1) as f64;
    Layers {
        generate,
        absorb,
        strategies: inproc
            .strategies
            .iter()
            .map(|(s, t, summary)| (*s, *t, summary.mean_input_bytes))
            .collect(),
        ledger,
        migrations: inproc
            .strategies
            .iter()
            .map(|(_, _, summary)| summary.total_migrations)
            .sum(),
        csv_write: inproc.csv_write,
        node: Some(NodeLayers {
            send: spans.send,
            lookup: spans.lookup,
            end_ms: secs(spans.end) * 1e3 / cells,
            server_core,
            inproc_core: inproc.core,
            wire_overhead: secs(traced.wall) / secs(inproc.core).max(1e-12),
        }),
        wall: traced.wall + inproc.wall,
        attributed: spans.total() + strategy_total + absorb + ledger + inproc.csv_write,
        ..Layers::default()
    }
}
