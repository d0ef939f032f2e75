//! Streams one full-protocol run per scenario cell to disk — and
//! doubles as the CI determinism gate.
//!
//! The run is described by a declarative scenario: either a checked-in
//! spec (`--scenario scenarios/quick.scenario`) or the
//! [`Scenario::full_protocol`] preset at the `MOSAIC_SCALE` scale. The
//! session materialises the trace once, runs every cell with
//! within-cell parallelism as specified, and each per-epoch metric row
//! is written to `<dir>/<cell>.csv` the moment it is computed — no
//! per-epoch vector is held in memory, so the paper's 200-epoch
//! protocol (`scenarios/full.scenario`) runs in bounded memory at
//! hardware speed.
//!
//! With `--check-determinism` no files are written: every cell runs
//! through [`Simulation::stream_cell`] at a worker matrix —
//! `cell_parallelism` 1 vs 2 vs a thread count beyond the machine's
//! cores, with the adaptive sequential cutoff disabled so the pool
//! engages at every scale — and the CSV byte streams are compared. The
//! same matrix then re-runs through a second session whose scenario
//! adds a `telemetry=jsonl:/dev/null` observer, so every core records
//! spans and counters and the gate also enforces the observability
//! invariant: instrumentation must never perturb a result byte. Any
//! difference exits non-zero; this is the end-to-end enforcement of
//! the allocators' parallel-equals-sequential contract, exercised
//! through the scenario parser and session path CI actually ships.
//!
//! ```text
//! cargo run -p mosaic-bench --release --bin full_run -- --scenario scenarios/full.scenario
//! MOSAIC_SCALE=full cargo run -p mosaic-bench --release --bin full_run
//! MOSAIC_STRATEGY=Pilot cargo run -p mosaic-bench --release --bin full_run
//! cargo run -p mosaic-bench --release --bin full_run -- \
//!     --scenario scenarios/quick.scenario --check-determinism
//! ```

use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};

use mosaic_bench::{print_header, scenario_path_from_args};
use mosaic_metrics::parallel::set_par_cutoff;
use mosaic_sim::engine::RunSummary;
use mosaic_sim::scenario::CellSpec;
use mosaic_sim::{ObserverSpec, Parallelism, RunObserver, Scale, Scenario, Simulation, Strategy};

/// Runs every cell through `plain` at a matrix of worker counts
/// (`cell_parallelism` 1 vs 2 vs max), then through `telemetry` (the
/// same scenario plus a telemetry observer) at the same levels, and
/// fails on any CSV byte difference. Returns `(checked, divergent)`
/// cell counts — a gate that compared nothing must not pass.
fn check_determinism(plain: &Simulation, telemetry: &Simulation) -> (usize, usize) {
    // The gate must exercise the pool even at scales below the adaptive
    // sequential cutoff — byte-identity is the contract at every size.
    set_par_cutoff(1);
    // Strictly more workers than the machine has cores (2x, minimum 4),
    // so the threaded code paths engage even on single-core runners AND
    // the oversubscribed-scheduling case is exercised on every runner.
    // The intermediate 2-worker level catches bugs that only show up
    // when lane boundaries move (e.g. chunk-splitting off-by-ones that
    // max-worker runs happen to mask).
    let max_workers = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .saturating_mul(2)
        .max(4);
    // (workers, instrumented): the telemetry-off baseline matrix, then
    // the same worker levels with a live recorder. Telemetry events go
    // to /dev/null — the recorder still takes every hot path (counters,
    // spans, clock reads), only the bytes vanish.
    let variants = [
        (2usize, false),
        (max_workers, false),
        (1, true),
        (2, true),
        (max_workers, true),
    ];
    let mut checked = 0usize;
    let mut divergent = 0usize;
    for cell in plain.cells() {
        checked += 1;
        let name = format!("{} / {}", cell.label, cell.config.strategy.name());
        let stream_at = |parallelism: Parallelism, instrumented: bool| {
            let sim = if instrumented { telemetry } else { plain };
            let mut variant = cell.clone();
            variant.config.cell_parallelism = parallelism;
            let mut bytes: Vec<u8> = Vec::new();
            sim.stream_cell(&variant, &mut bytes)
                .expect("vec sink cannot fail");
            bytes
        };
        let sequential = stream_at(Parallelism::Threads(1), false);
        let mut cell_ok = true;
        for (workers, instrumented) in variants {
            let candidate = stream_at(Parallelism::Threads(workers), instrumented);
            if sequential != candidate {
                cell_ok = false;
                divergent += 1;
                let first_diff = sequential
                    .iter()
                    .zip(&candidate)
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| sequential.len().min(candidate.len()));
                eprintln!(
                    "{name:<20} DIVERGED at {workers} workers (telemetry {}): first \
                     differing byte at offset {first_diff} ({} vs {} bytes total)",
                    if instrumented { "on" } else { "off" },
                    sequential.len(),
                    candidate.len(),
                );
                break;
            }
        }
        if cell_ok {
            println!(
                "{name:<20} OK: {} CSV bytes identical at 1 vs 2 vs {max_workers} workers, \
                 telemetry on and off",
                sequential.len(),
            );
        }
    }
    (checked, divergent)
}

/// Prints one summary line per finished cell, as cells complete.
struct PrintSummary {
    single_point: bool,
    dir: Option<PathBuf>,
}

impl RunObserver for PrintSummary {
    fn on_cell(&self, cell: &CellSpec, summary: &RunSummary) {
        let dest = self
            .dir
            .as_ref()
            .map(|d| {
                format!(
                    " -> {}",
                    d.join(format!("{}.csv", cell.file_stem(self.single_point)))
                        .display()
                )
            })
            .unwrap_or_default();
        println!(
            "{:<20} {} epochs{dest}: ratio {:.4}, throughput {:.2}, deviation {:.2}, \
             {} migrations, mean alloc {:.3e} s",
            format!("{} / {}", cell.label, cell.config.strategy.name()),
            summary.epochs,
            summary.aggregate.cross_ratio,
            summary.aggregate.normalized_throughput,
            summary.aggregate.workload_deviation,
            summary.total_migrations,
            summary.mean_alloc_seconds,
        );
    }
}

fn main() {
    let check = std::env::args().any(|a| a == "--check-determinism");
    let mut scenario = match scenario_path_from_args() {
        Some(path) => Scenario::load(&path).unwrap_or_else(|e| {
            eprintln!("failed to load scenario {path}: {e}");
            std::process::exit(2);
        }),
        None => {
            // Preset fallback: repo root resolved from this crate's
            // manifest dir so the output lands in the gitignored
            // /results regardless of invocation cwd.
            let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
            Scenario::full_protocol(&Scale::from_env())
                .with_observers([ObserverSpec::StreamCsv(results)])
        }
    };
    // Fail fast on a typo'd filter: silently matching nothing would let
    // an overnight run exit 0 with no data.
    if let Ok(name) = std::env::var("MOSAIC_STRATEGY") {
        let strategy: Strategy = name.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        scenario.strategies.retain(|s| *s == strategy);
        if scenario.strategies.is_empty() {
            eprintln!("MOSAIC_STRATEGY {name:?} is not in the scenario's strategy set");
            std::process::exit(2);
        }
    }
    print_header(
        if check {
            "Determinism gate (cell_parallelism 1 vs 2 vs max, telemetry on/off, byte-compared CSVs)"
        } else {
            "Full-protocol streaming run (per-epoch CSV per cell)"
        },
        &scenario,
    );

    if check {
        let mut observers = scenario.observers.clone();
        observers.retain(|o| !matches!(o, ObserverSpec::Telemetry(_)));
        observers.push(ObserverSpec::Telemetry(PathBuf::from("/dev/null")));
        let instrumented = scenario.clone().with_observers(observers);
        let materialise_failed = |e: mosaic_types::Error| -> Simulation {
            eprintln!("failed to materialise scenario: {e}");
            std::process::exit(2);
        };
        let plain = Simulation::from_scenario(scenario).unwrap_or_else(materialise_failed);
        // Share the resident trace instead of materialising it twice.
        let instrumented = match plain.try_trace() {
            Some(trace) => Simulation::with_trace(instrumented, trace),
            None => Simulation::from_scenario(instrumented),
        }
        .unwrap_or_else(materialise_failed);
        let (checked, divergent) = check_determinism(&plain, &instrumented);
        if divergent > 0 {
            eprintln!("determinism check FAILED for {divergent} cells");
            std::process::exit(1);
        }
        // Belt and braces: validation guarantees at least one strategy,
        // but a gate that compared nothing must never report success.
        if checked == 0 {
            eprintln!("determinism check matched no cells");
            std::process::exit(1);
        }
        println!("determinism check passed for all {checked} cells");
        return;
    }

    let printer = PrintSummary {
        single_point: scenario.is_single_point(),
        dir: scenario.observers.iter().find_map(|o| match o {
            ObserverSpec::StreamCsv(dir) => Some(dir.clone()),
            ObserverSpec::Collect | ObserverSpec::Telemetry(_) => None,
        }),
    };
    let sim = Simulation::from_scenario(scenario)
        .unwrap_or_else(|e| {
            eprintln!("failed to materialise scenario: {e}");
            std::process::exit(2);
        })
        .with_observer(Box::new(printer));
    if let Err(e) = sim.run() {
        eprintln!("scenario run failed: {e}");
        std::process::exit(1);
    }
}
