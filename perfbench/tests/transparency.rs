//! A traced number is only valid if it measures the same program: at a
//! small size, the timing wrapper and the traced drivers must write the
//! same CSV bytes as `Simulation::run` for every cell of every workload.

use std::net::TcpListener;
use std::path::PathBuf;

use mosaic_node::{MosaicClient, Wire};
use mosaic_sim::{RunTarget, Scenario, Simulation};
use perfbench::node::{self, Plan};
use perfbench::offline::{self, CellCsv};
use perfbench::timed::Timed;
use perfbench::workload::Workload;

const SEED: u64 = 7;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// `Simulation::run`'s CSVs for `workload` at its small shape.
fn untraced(workload: Workload, name: &str) -> Vec<CellCsv> {
    let dir = scratch(name);
    let sim = Simulation::from_scenario(small_scenario(workload, &dir)).expect("valid scenario");
    offline::run_untraced(sim, &dir).expect("untraced run").csvs
}

/// The same run with every strategy behind the timing wrapper, passed
/// through `Simulation::run_with_factory`.
fn wrapped(workload: Workload, name: &str) -> Vec<CellCsv> {
    let dir = scratch(name);
    let sim = Simulation::from_scenario(small_scenario(workload, &dir)).expect("valid scenario");
    sim.run_with_factory(|cell| {
        Box::new(Timed::new(cell.config.strategy.build(cell.config.params)))
    })
    .expect("wrapped run");
    let single = sim.scenario().is_single_point();
    let stems = sim.cells().iter().map(|c| c.file_stem(single));
    offline::read_csvs(&dir, stems).expect("wrapped CSVs")
}

fn small_scenario(workload: Workload, dir: &std::path::Path) -> Scenario {
    workload
        .scenario(&workload.small_shape(), SEED, dir)
        .expect("scenario parses")
}

#[test]
fn timing_wrapper_writes_the_untraced_bytes_for_every_workload() {
    for workload in Workload::ALL {
        let name = workload.name();
        let reference = untraced(workload, &format!("{name}-plain"));
        assert!(!reference.is_empty());
        assert_eq!(
            wrapped(workload, &format!("{name}-wrapped")),
            reference,
            "{name}: the timing wrapper changed a CSV"
        );
    }
}

fn assert_traced_matches(workload: Workload) {
    let name = workload.name();
    let reference = untraced(workload, &format!("{name}-untraced"));
    let dir = scratch(&format!("{name}-traced"));
    let scenario = small_scenario(workload, &dir);
    let traced = if workload.streamed() {
        offline::trace_streamed(&scenario, &dir)
    } else {
        offline::trace_materialized(&scenario, &dir)
    }
    .expect("traced run");
    let csvs: Vec<CellCsv> = traced.cells.iter().map(|c| c.csv.clone()).collect();
    assert_eq!(csvs.len(), reference.len());
    for (traced, untraced) in csvs.iter().zip(&reference) {
        assert_eq!(traced, untraced, "{name}: {} differs", untraced.stem);
        perfbench::check_csv(traced, &workload.small_shape()).expect("well-formed CSV");
    }
    assert!(traced.attributed() <= traced.wall);
}

#[test]
fn offline_grid_traced_run_writes_the_untraced_bytes() {
    assert_traced_matches(Workload::OfflineGrid);
}

#[test]
fn stream_clients_traced_run_writes_the_untraced_bytes() {
    assert_traced_matches(Workload::StreamClients);
}

#[test]
fn node_mixed_core_passes_and_node_replay_match_the_offline_run() {
    let workload = Workload::NodeMixed;
    let reference = untraced(workload, "node-mixed-untraced");
    let dir = scratch("node-mixed-node");
    let scenario = small_scenario(workload, &dir);
    let trace = scenario.trace.materialize().expect("trace");
    let cells = scenario.cells_for(RunTarget::Node).expect("cells");
    let plan = Plan::new(&trace, &cells, SEED);
    let plain = node::core_pass(&cells, &plan, false).expect("core pass");
    let traced = node::core_pass(&cells, &plan, true).expect("traced core pass");
    assert_eq!(
        plain.cells, traced.cells,
        "tracing changed the core's output"
    );
    for (cell, want) in plain.cells.iter().zip(&reference) {
        assert_eq!(cell.csv.as_bytes(), want.csv.as_slice(), "{}", want.stem);
        assert!(
            !cell.answers.is_empty(),
            "{}: no lookups planned",
            want.stem
        );
    }

    // The replay driver against a live node in this process: every
    // lookup answer and CSV must match the in-process reference.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || mosaic_node::serve(listener, scenario));
    let mut client = MosaicClient::connect(&addr, Wire::Binary).expect("connect");
    for traced in [false, true] {
        let replay = node::replay(&mut client, &plan, &plain.cells, traced);
        assert_eq!(replay.failed, 0, "node disagreed with the in-process run");
        assert_eq!(replay.spans.is_some(), traced);
        let lookups: usize = plain.cells.iter().map(|c| c.answers.len()).sum();
        assert_eq!(replay.lookup_ms.len(), lookups);
    }
    client.shutdown().expect("shutdown");
    server
        .join()
        .expect("server thread")
        .expect("server exits cleanly");
}

#[test]
fn server_core_time_sums_the_session_epoch_histograms() {
    let stats: Vec<String> = [
        "telemetry on",
        "session 0",
        "counter core.txs_ingested 10",
        "hist epoch.train 2 1000 400 600",
        "hist epoch.commit 1 500 500 500",
        "hist other 1 7 7 7",
        "server sessions_started 1",
        "server hist epoch.train 9 99999 1 2",
    ]
    .map(String::from)
    .to_vec();
    assert_eq!(node::server_core_time(&stats).as_nanos(), 1500);
}
