//! Scaling curve of the streamed epoch pipeline: epochs/sec and peak
//! RSS versus account count, recorded to `BENCH_scale.json`.
//!
//! ```text
//! bench_scale [--scenario scenarios/huge.scenario]
//!             [--accounts 100000,300000,1000000] [--depth 4]
//!             [--out BENCH_scale.json] [--max-rss-mb <ceiling>]
//! ```
//!
//! Each account count is measured in a **fresh child process** (the
//! parent re-execs itself with the internal `--one` flag): `VmHWM` in
//! `/proc/self/status` is a process-lifetime high-water mark, so two
//! sizes measured in one process would share one peak and the curve
//! would be the largest size repeated. The child scales the scenario's
//! workload to the requested account count — blocks and τ shrink by the
//! same factor, so every size runs the same number of epoch windows and
//! the trace volume stays proportional to the account count.
//!
//! The recorded `speedup` is `trace_mb / peak_rss_mb` — how many times
//! larger the trace is than the memory the streamed run actually held.
//! Streamed memory is O(accounts + window): per-account state
//! (generator population, training graph, the allocation ϕ itself)
//! plus the current and previous τ-block windows — never the
//! transaction vector. So along the *account* axis the ratio is
//! roughly flat, and along the *depth* axis (`--depth` multiplies the
//! block count at fixed accounts) the trace grows while RSS does not —
//! the entry that directly witnesses "bounded by window, not trace
//! length". `bench_check` gates the curve against the committed
//! baseline like any other `BENCH_*.json`. The file pins `"cpus": 0`:
//! the ratio is memory-only and machine-independent, so the regression
//! gate stays armed across runner classes.
//!
//! At the smallest requested size the parent additionally materialises
//! the scaled trace and byte-compares the streamed CSV against the
//! resident path — the scale curve is only meaningful if the streamed
//! pipeline computes the same experiment.
//!
//! Exit status: 0 ok, 1 RSS ceiling exceeded or verification failed,
//! 2 usage/run error.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use mosaic_sim::engine::RunSummary;
use mosaic_sim::scenario::CellSpec;
use mosaic_sim::{ExperimentConfig, Scenario, Simulation};
use mosaic_types::Transaction;
use mosaic_workload::{TraceSource, WorkloadConfig};

fn usage() -> ! {
    eprintln!(
        "usage: bench_scale [--scenario <file>] [--accounts <n,n,...>] \
         [--depth <mult>] [--out <file.json>] [--max-rss-mb <mb>]"
    );
    std::process::exit(2);
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("bench_scale: {message}");
    std::process::exit(2);
}

/// Peak resident set size of this process in MB (`VmHWM`, linux only);
/// 0.0 when the field is unavailable.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// The scenario's workload scaled to `accounts`: blocks and τ shrink by
/// the same factor so every size runs the same window count and the
/// trace volume stays proportional. `depth` then multiplies the block
/// count at fixed accounts — the axis along which the streamed
/// pipeline's memory must stay flat while the trace grows.
fn scaled(scenario: &Scenario, accounts: usize, depth: u64) -> (WorkloadConfig, ExperimentConfig) {
    let Some(workload) = scenario.trace.workload() else {
        fail("scenario's trace source is not generated; bench_scale needs workload.* to scale");
    };
    let factor = accounts as f64 / workload.initial_accounts as f64;
    let mut w = workload.clone();
    w.initial_accounts = accounts;
    w.blocks = ((workload.blocks as f64 * factor) as u64).max(2) * depth.max(1);
    let tau = ((f64::from(scenario.base.tau()) * factor) as u32).max(1);
    let params = scenario
        .base
        .with_tau(tau)
        .unwrap_or_else(|e| fail(format!("scaled tau invalid: {e}")));
    let config = ExperimentConfig::new(params, scenario.strategies[0], scenario.eval_epochs);
    (w, config)
}

/// Streams the CSV of `config` over `source` to `out`, through a session
/// on `scenario` with its trace source replaced.
fn stream_csv(
    scenario: &Scenario,
    source: TraceSource,
    config: ExperimentConfig,
    out: &mut dyn std::io::Write,
) -> mosaic_types::Result<RunSummary> {
    let sim = Simulation::from_scenario(Scenario {
        trace: source,
        ..scenario.clone()
    })?;
    let cell = CellSpec {
        label: "scaled".to_string(),
        config,
    };
    sim.stream_cell(&cell, out)
}

/// Child mode: measure one account count, print one JSON entry line.
fn run_one(scenario_path: &str, accounts: usize, depth: u64) -> ExitCode {
    let scenario =
        Scenario::load(scenario_path).unwrap_or_else(|e| fail(format!("{scenario_path}: {e}")));
    let (workload, config) = scaled(&scenario, accounts, depth);
    let txs = workload.blocks as u128 * workload.txs_per_block as u128;
    let trace_mb = (txs as f64 * std::mem::size_of::<Transaction>() as f64) / (1024.0 * 1024.0);
    let blocks = workload.blocks;
    let source = TraceSource::StreamedGenerated(workload);

    let started = Instant::now();
    let summary = stream_csv(&scenario, source, config, &mut std::io::sink())
        .unwrap_or_else(|e| fail(format!("streamed run failed: {e}")));
    let seconds = started.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    println!(
        "{{\"accounts\": {}, \"blocks\": {}, \"txs\": {}, \"trace_mb\": {:.1}, \
         \"peak_rss_mb\": {:.1}, \"seconds\": {:.2}, \"epochs_per_sec\": {:.3}, \
         \"speedup\": {:.2}}}",
        accounts,
        blocks,
        txs,
        trace_mb,
        rss,
        seconds,
        summary.epochs as f64 / seconds.max(1e-9),
        trace_mb / rss.max(1e-9),
    );
    ExitCode::SUCCESS
}

/// Byte-compares the streamed CSV against the materialised path at the
/// given size (must be small enough to fit in memory).
fn verify(scenario: &Scenario, accounts: usize) -> Result<(), String> {
    let (workload, config) = scaled(scenario, accounts, 1);
    let mut streamed: Vec<u8> = Vec::new();
    let source = TraceSource::StreamedGenerated(workload.clone());
    stream_csv(scenario, source, config, &mut streamed).map_err(|e| e.to_string())?;
    let mut resident: Vec<u8> = Vec::new();
    let source = TraceSource::Generated(workload);
    stream_csv(scenario, source, config, &mut resident).map_err(|e| e.to_string())?;
    if streamed != resident {
        return Err(format!(
            "streamed CSV diverged from materialised path at {accounts} accounts"
        ));
    }
    println!(
        "bench_scale: streamed == materialised at {accounts} accounts ({} bytes)",
        streamed.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenario_path = "scenarios/huge.scenario".to_string();
    let mut accounts: Vec<usize> = vec![100_000, 300_000, 1_000_000];
    let mut out = "BENCH_scale.json".to_string();
    let mut max_rss_mb: Option<f64> = None;
    let mut one: Option<usize> = None;
    let mut depth: u64 = 4;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--scenario" => scenario_path = value(),
            "--accounts" => {
                accounts = value()
                    .split(',')
                    .map(|n| n.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--depth" => depth = value().parse().unwrap_or_else(|_| usage()),
            "--out" => out = value(),
            "--max-rss-mb" => max_rss_mb = value().parse().ok(),
            "--one" => one = value().parse().ok(),
            _ => usage(),
        }
    }
    if accounts.is_empty() {
        usage();
    }
    if let Some(n) = one {
        return run_one(&scenario_path, n, depth);
    }

    let scenario =
        Scenario::load(&scenario_path).unwrap_or_else(|e| fail(format!("{scenario_path}: {e}")));
    accounts.sort_unstable();
    if let Err(e) = verify(&scenario, accounts[0]) {
        eprintln!("bench_scale: FAIL: {e}");
        return ExitCode::FAILURE;
    }

    // One (accounts, depth) measurement per child process: every size
    // at natural depth, plus — when --depth > 1 — the middle size with
    // its block count multiplied, the entry whose trace grows while the
    // streamed pipeline's memory must not.
    let mut plan: Vec<(usize, u64)> = accounts.iter().map(|&n| (n, 1)).collect();
    if depth > 1 {
        plan.push((accounts[accounts.len() / 2], depth));
    }

    let exe = std::env::current_exe().unwrap_or_else(|e| fail(format!("current_exe: {e}")));
    let mut entries = Vec::new();
    let mut over_ceiling = false;
    for &(n, d) in &plan {
        let output = std::process::Command::new(&exe)
            .args([
                "--scenario",
                &scenario_path,
                "--one",
                &n.to_string(),
                "--depth",
                &d.to_string(),
            ])
            .output()
            .unwrap_or_else(|e| fail(format!("spawning child: {e}")));
        if !output.status.success() {
            eprintln!("{}", String::from_utf8_lossy(&output.stderr));
            fail(format!("child for {n} accounts failed: {}", output.status));
        }
        let entry = String::from_utf8_lossy(&output.stdout).trim().to_string();
        let rss = entry
            .split("\"peak_rss_mb\":")
            .nth(1)
            .and_then(|r| r.trim().split(',').next())
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or_else(|| fail(format!("child printed no peak_rss_mb: {entry}")));
        println!("bench_scale: {entry}");
        if let Some(ceiling) = max_rss_mb {
            if rss > ceiling {
                eprintln!(
                    "bench_scale: FAIL: {n} accounts peaked at {rss:.1} MB \
                     (ceiling {ceiling} MB)"
                );
                over_ceiling = true;
            }
        }
        entries.push(entry);
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"scale_streaming\",\n");
    json.push_str("  \"unit\": \"MB and epochs/sec; speedup = trace_mb / peak_rss_mb\",\n");
    json.push_str("  \"cpus\": 0,\n");
    json.push_str(&format!("  \"scenario\": \"{scenario_path}\",\n"));
    json.push_str("  \"results\": [\n");
    for (i, entry) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        json.push_str(&format!("    {entry}{comma}\n"));
    }
    json.push_str("  ]\n}\n");
    let mut file = std::fs::File::create(&out).unwrap_or_else(|e| fail(format!("{out}: {e}")));
    file.write_all(json.as_bytes())
        .unwrap_or_else(|e| fail(format!("{out}: {e}")));
    println!("bench_scale: wrote {out}");
    if over_ceiling {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
