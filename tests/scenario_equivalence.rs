//! Golden equivalence. An independent reference loop — the
//! materialised §V-A epoch loop, written out here over
//! `split_at_fraction`, `epoch_windows` and the core's public batch
//! primitives — is the oracle: `Simulation` over a resident trace, over
//! a window stream, and the `AllocationCore` event API all reproduce it
//! byte-for-byte, including on the protocol's edge cases (a cut that is
//! not τ-aligned, a cut inside the first τ blocks, empty windows, the
//! `eval_epochs` cap, an observer aborting the run). The streamed
//! pipeline reproduces the materialised one on arbitrary workloads, and
//! the checked-in `scenarios/` files are exactly their presets.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use mosaic::metrics::report::EPOCH_CSV_HEADER;
use mosaic::prelude::*;
use mosaic::sim::engine::RunSummary;
use mosaic::sim::scenario::CellSpec;
use mosaic::sim::{
    experiments, AllocationCore, ObserverSpec, Parallelism, RunObserver, Scenario, Simulation,
};
use mosaic::workload::{TraceSource, WorkloadConfig};
use proptest::prelude::*;

// Both glob imports export a `Strategy` (the registry enum and
// proptest's generation trait); the experiments below mean the enum.
use mosaic::sim::Strategy;

/// The reference loop: one cell of the §V-A protocol over a resident
/// trace, run with the registry strategy. The whole training prefix is
/// ingested as one slice; the run stops after epoch `stop_after` if
/// given (that epoch's row is kept, its window is not committed).
fn reference(
    config: &ExperimentConfig,
    trace: &TransactionTrace,
    stop_after: Option<usize>,
) -> ExperimentResult {
    let mut strategy = config.strategy.build(config.params);
    let strategy = strategy.as_mut();
    let tau = config.params.tau();
    let (train, _eval) = trace.split_at_fraction(config.train_fraction);
    let blocks = trace.max_block().expect("non-empty trace").as_u64() + 1;
    let cut = BlockHeight::new(((blocks as f64) * config.train_fraction).floor() as u64);

    let mut core = AllocationCore::new(*config);
    core.ingest_training(strategy, train);
    core.finish_training(strategy).unwrap();
    // The first recent window is the last τ blocks of training.
    let mut recent = trace.block_range(
        BlockHeight::new(cut.as_u64().saturating_sub(u64::from(tau))),
        cut,
    );
    let mut per_epoch = Vec::new();
    for (epoch, window) in trace
        .epoch_windows(cut, tau)
        .take(config.eval_epochs)
        .enumerate()
    {
        per_epoch.push(core.process_epoch(strategy, window, recent));
        if stop_after == Some(epoch) {
            break;
        }
        core.commit_window_retained(strategy, window);
        recent = window;
    }
    let summary = core.summary();
    ExperimentResult {
        strategy: config.strategy,
        params: config.params,
        per_epoch,
        aggregate: summary.aggregate,
        init_seconds: summary.init_seconds,
        mean_alloc_seconds: summary.mean_alloc_seconds,
        mean_input_bytes: summary.mean_input_bytes,
        total_migrations: summary.total_migrations,
    }
}

fn legacy_grid(scale: &Scale, trace: &TransactionTrace) -> Vec<experiments::GridCell> {
    // The pre-scenario oracle: the hand-wired parameter grid driven cell
    // by cell through the reference loop.
    let mut cells = Vec::new();
    for (label, params) in experiments::parameter_sets(scale.tau) {
        for strategy in Strategy::ALL {
            cells.push(experiments::GridCell {
                param_label: label.clone(),
                result: reference(
                    &ExperimentConfig::new(params, strategy, scale.eval_epochs),
                    trace,
                    None,
                ),
            });
        }
    }
    cells
}

/// Epoch rows rendered exactly as the CSV observers write them.
fn csv(rows: &[EpochMetrics]) -> String {
    let mut out = format!("{EPOCH_CSV_HEADER}\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&row.csv_row(i));
        out.push('\n');
    }
    out
}

/// `config` streamed through `sim` as a one-off cell.
fn stream(sim: &Simulation, config: &ExperimentConfig) -> (String, RunSummary) {
    let cell = CellSpec {
        label: "cell".to_string(),
        config: *config,
    };
    let mut bytes = Vec::new();
    let summary = sim.stream_cell(&cell, &mut bytes).unwrap();
    (String::from_utf8(bytes).unwrap(), summary)
}

/// `config` fed through the `AllocationCore` event API, one block-ordered
/// transaction at a time.
fn event_feed(config: &ExperimentConfig, trace: &TransactionTrace) -> (String, RunSummary) {
    let mut strategy = config.strategy.build(config.params);
    let mut core = AllocationCore::new(*config);
    core.begin(trace.max_block().unwrap().as_u64() + 1).unwrap();
    let mut rows = Vec::new();
    core.ingest_block(strategy.as_mut(), trace.transactions(), &mut rows)
        .unwrap();
    core.end_stream(strategy.as_mut(), &mut rows).unwrap();
    (csv(&rows), core.summary())
}

/// A session over `source`. Its own cells are never run: tests hand
/// [`stream`] one-off cells.
fn session(source: TraceSource) -> Simulation {
    let streamed = source.is_streamed();
    let mut scenario = Scenario::new("equivalence", source, 1);
    if streamed {
        // Streamed sources refuse `collect`; `stream_cell` writes no files.
        let unused = std::env::temp_dir().join("mosaic-equivalence-unused");
        scenario = scenario.with_observers([ObserverSpec::StreamCsv(unused)]);
    }
    Simulation::from_scenario(scenario).unwrap()
}

#[test]
fn scenario_grid_reproduces_legacy_manual_loop() {
    let scale = Scale::quick();
    let trace = generate(&scale.workload).into_trace();
    let report = Simulation::from_scenario(Scenario::effectiveness(&scale))
        .unwrap()
        .run()
        .unwrap();
    let legacy = legacy_grid(&scale, &trace);
    assert_eq!(report.cells.len(), legacy.len());
    for (cell, oracle) in report.cells.iter().zip(&legacy) {
        assert_eq!(cell.param_label, oracle.param_label);
        assert_eq!(cell.result.strategy, oracle.result.strategy);
        assert_eq!(
            cell.result.to_csv(),
            oracle.result.to_csv(),
            "{} / {}: scenario CSV diverged from the reference loop",
            cell.param_label,
            cell.result.strategy
        );
        assert_eq!(cell.result.aggregate, oracle.result.aggregate);
        assert_eq!(cell.result.total_migrations, oracle.result.total_migrations);
    }
}

#[test]
fn scenario_stream_csv_matches_legacy_run_streaming() {
    let scale = Scale::quick();
    let trace = Arc::new(generate(&scale.workload).into_trace());
    let dir = std::env::temp_dir().join("mosaic-scenario-equivalence");
    std::fs::create_dir_all(&dir).unwrap();

    // full_protocol preset = the old full_run loop: base point, every
    // strategy, one streamed CSV per strategy.
    let scenario =
        Scenario::full_protocol(&scale).with_observers([ObserverSpec::StreamCsv(dir.clone())]);
    let params = scenario.base;
    Simulation::with_trace(scenario, Arc::clone(&trace))
        .unwrap()
        .run()
        .unwrap();

    for strategy in Strategy::ALL {
        let config = ExperimentConfig::new(params, strategy, scale.eval_epochs);
        let legacy = reference(&config, &trace, None).to_csv();
        let path = dir.join(format!("{}.csv", strategy.name().to_lowercase()));
        let streamed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            streamed, legacy,
            "{strategy}: scenario stream-csv file diverged from the reference loop"
        );
        std::fs::remove_file(&path).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// The streaming tentpole's contract: for *any* workload shape,
    /// epoch length, worker count and strategy, driving the engine from
    /// an `EpochWindowStream` writes exactly the bytes the materialised
    /// trace produces, with a bit-identical aggregate.
    #[test]
    fn streamed_pipeline_is_byte_identical_to_materialised(
        seed in 0u64..100_000,
        accounts in 10usize..200,
        blocks in 30u64..120,
        txs_per_block in 1usize..6,
        tau in 1u32..40,
        workers in 1usize..5,
        churn in 0u8..3,
        strategy_idx in 0usize..Strategy::ALL.len(),
    ) {
        let mut workload = WorkloadConfig::small_test(seed);
        workload.initial_accounts = accounts;
        workload.blocks = blocks;
        workload.txs_per_block = txs_per_block;
        workload.new_accounts_per_block = f64::from(churn) * 0.3;
        let strategy = Strategy::ALL[strategy_idx];
        let params = SystemParams::builder()
            .shards(4)
            .eta(2.0)
            .tau(tau)
            .build()
            .unwrap();
        let config = ExperimentConfig::new(params, strategy, 200)
            .with_cell_parallelism(Parallelism::Threads(workers));

        let resident_sim = session(TraceSource::Generated(workload.clone()));
        let (resident, collected) = stream(&resident_sim, &config);
        let streamed_sim = session(TraceSource::StreamedGenerated(workload));
        let (streamed, summary) = stream(&streamed_sim, &config);

        prop_assert_eq!(
            &streamed,
            &resident,
            "{} @ tau={} workers={}: streamed CSV diverged",
            strategy, tau, workers
        );
        prop_assert_eq!(
            &resident,
            &reference(&config, &resident_sim.trace(), None).to_csv(),
            "{} @ tau={}: resident CSV diverged from the reference loop",
            strategy, tau
        );
        prop_assert_eq!(summary.aggregate, collected.aggregate);
        prop_assert_eq!(summary.epochs, collected.epochs);
        prop_assert_eq!(summary.total_migrations, collected.total_migrations);
    }
}

/// One edge case of the epoch plan: a trace on disk plus the protocol
/// shape that exercises it.
struct EdgeCase {
    name: &'static str,
    trace: TransactionTrace,
    tau: u32,
    eval_epochs: usize,
}

fn generated(seed: u64, blocks: u64) -> TransactionTrace {
    generate(
        &WorkloadConfig::small_test(seed)
            .with_accounts(120)
            .with_blocks(blocks),
    )
    .into_trace()
}

fn edge_cases() -> Vec<EdgeCase> {
    // Sparse: dense blocks up to 60, then a single transaction at block
    // 99 — training chunks, the recent window and three evaluation
    // windows before the last are empty.
    let mut sparse: Vec<Transaction> = generated(11, 60).transactions().to_vec();
    let last = sparse.len() as u64;
    sparse.push(Transaction::new(
        TxId::new(last),
        AccountId::new(1),
        AccountId::new(2),
        BlockHeight::new(99),
    ));
    vec![
        // 100 blocks × 0.9 → cut 90, not a multiple of τ = 7.
        EdgeCase {
            name: "unaligned-cut",
            trace: generated(7, 100),
            tau: 7,
            eval_epochs: 200,
        },
        // 30 blocks → cut 27 < τ: training is the recent window alone,
        // and one partial window covers the rest of the trace.
        EdgeCase {
            name: "cut-below-tau",
            trace: generated(8, 30),
            tau: 40,
            eval_epochs: 200,
        },
        EdgeCase {
            name: "sparse-csv",
            trace: TransactionTrace::new(sparse),
            tau: 3,
            eval_epochs: 200,
        },
        // 200 blocks → 20 evaluation blocks, four windows; the cap stops
        // after two with the trace unread.
        EdgeCase {
            name: "epoch-cap",
            trace: generated(9, 200),
            tau: 5,
            eval_epochs: 2,
        },
    ]
}

impl EdgeCase {
    fn config(&self, strategy: Strategy) -> ExperimentConfig {
        let params = SystemParams::builder()
            .shards(4)
            .eta(2.0)
            .tau(self.tau)
            .build()
            .unwrap();
        ExperimentConfig::new(params, strategy, self.eval_epochs)
    }

    /// Writes the trace as CSV and returns a resident and a streamed
    /// session over that file.
    fn sessions(&self) -> (Simulation, Simulation) {
        let dir = std::env::temp_dir().join(format!("mosaic-edge-{}", self.name));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        let mut bytes = Vec::new();
        mosaic::workload::csv::write_trace(&self.trace, &mut bytes).unwrap();
        std::fs::write(&path, bytes).unwrap();
        let resident = session(TraceSource::csv(&path));
        assert_eq!(resident.trace().transactions(), self.trace.transactions());
        (resident, session(TraceSource::streamed_csv(&path)))
    }
}

#[test]
fn every_feed_matches_the_reference_on_edge_plans() {
    for case in edge_cases() {
        let (resident, streamed) = case.sessions();
        for strategy in Strategy::ALL {
            let config = case.config(strategy);
            let oracle = reference(&config, &case.trace, None);
            let expected = oracle.to_csv();
            let label = format!("{} / {strategy}", case.name);
            for (feed, (bytes, summary)) in [
                ("resident", stream(&resident, &config)),
                ("streamed", stream(&streamed, &config)),
                ("event API", event_feed(&config, &case.trace)),
            ] {
                assert_eq!(bytes, expected, "{label}: {feed} feed diverged");
                assert_eq!(summary.aggregate, oracle.aggregate, "{label}: {feed}");
                assert_eq!(summary.epochs, oracle.per_epoch.len(), "{label}: {feed}");
                assert_eq!(
                    summary.total_migrations, oracle.total_migrations,
                    "{label}: {feed}"
                );
            }
        }
    }
}

/// Aborts every cell at its first epoch and records the rows it saw.
#[derive(Default)]
struct AbortAtFirst {
    rows: Mutex<Vec<(Strategy, usize, EpochMetrics)>>,
}

impl RunObserver for AbortAtFirst {
    fn on_epoch(&self, cell: &CellSpec, epoch: usize, metrics: &EpochMetrics) -> bool {
        self.rows
            .lock()
            .unwrap()
            .push((cell.config.strategy, epoch, *metrics));
        false
    }
}

#[test]
fn an_observer_aborting_after_epoch_0_stops_both_feeds_like_the_reference() {
    let case = &edge_cases()[0];
    let (resident, streamed) = case.sessions();
    for (feed, sim) in [("resident", resident), ("streamed", streamed)] {
        let dir = std::env::temp_dir().join(format!("mosaic-abort-{feed}"));
        let scenario = Scenario {
            base: case.config(Strategy::Mosaic).params,
            eval_epochs: case.eval_epochs,
            grid_parallelism: Parallelism::Sequential,
            observers: vec![ObserverSpec::StreamCsv(dir.clone())],
            ..sim.scenario().clone()
        };
        let observer: &'static AbortAtFirst = Box::leak(Box::default());
        let sim = match sim.try_trace() {
            Some(trace) => Simulation::with_trace(scenario, trace),
            None => Simulation::from_scenario(scenario),
        }
        .unwrap()
        .with_observer(Box::new(observer));
        let report = sim.run().unwrap();
        for (cell, grid) in sim.cells().iter().zip(&report.cells) {
            let strategy = cell.config.strategy;
            let oracle = reference(&cell.config, &case.trace, Some(0));
            assert_eq!(
                oracle.per_epoch.len(),
                1,
                "the aborting epoch's row is kept"
            );
            let written =
                std::fs::read_to_string(dir.join(format!("{}.csv", cell.file_stem(true))));
            assert_eq!(
                written.unwrap(),
                oracle.to_csv(),
                "{feed} / {strategy}: CSV after the abort diverged"
            );
            assert_eq!(
                grid.result.aggregate, oracle.aggregate,
                "{feed} / {strategy}"
            );
            assert_eq!(
                grid.result.total_migrations, oracle.total_migrations,
                "{feed} / {strategy}"
            );
            let seen: Vec<usize> = observer
                .rows
                .lock()
                .unwrap()
                .iter()
                .filter(|(s, _, _)| *s == strategy)
                .map(|(_, epoch, _)| *epoch)
                .collect();
            assert_eq!(seen, [0], "{feed} / {strategy}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn streamed_csv_source_matches_materialised_run() {
    // End-to-end through the bounded-buffer CSV reader: write a
    // generated trace to disk, then drive the experiment from a
    // `streamed-csv` source and byte-compare against the resident run.
    let scale = Scale::quick();
    let trace = generate(&scale.workload).into_trace();
    let dir = std::env::temp_dir().join("mosaic-streamed-csv-equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.csv");
    let mut bytes = Vec::new();
    mosaic::workload::csv::write_trace(&trace, &mut bytes).unwrap();
    std::fs::write(&path, bytes).unwrap();

    let params = SystemParams::builder()
        .shards(4)
        .eta(2.0)
        .tau(scale.tau)
        .build()
        .unwrap();
    let resident_sim = session(TraceSource::Generated(scale.workload.clone()));
    let streamed_sim = session(TraceSource::streamed_csv(&path));
    for strategy in Strategy::ALL {
        let config = ExperimentConfig::new(params, strategy, scale.eval_epochs);
        let (resident, _) = stream(&resident_sim, &config);
        let (streamed, _) = stream(&streamed_sim, &config);
        assert_eq!(streamed, resident, "{strategy}: streamed-csv run diverged");
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

/// The acceptance gate of the scenario redesign: a checked-in
/// `.scenario` file, loaded and run via `Simulation::from_scenario`
/// only, reproduces the Table I effectiveness grid byte-identically to
/// the pre-scenario pipeline on the same seed.
#[test]
fn checked_in_effectiveness_scenario_reproduces_the_table1_grid() {
    let scale = Scale::quick();
    let scenario = Scenario::load(scenarios_dir().join("effectiveness-quick.scenario")).unwrap();
    assert_eq!(scenario, Scenario::effectiveness(&scale));

    let report = Simulation::from_scenario(scenario).unwrap().run().unwrap();
    let trace = generate(&scale.workload).into_trace();
    let legacy = legacy_grid(&scale, &trace);

    for (cell, oracle) in report.cells.iter().zip(&legacy) {
        assert_eq!(cell.result.to_csv(), oracle.result.to_csv());
    }
    assert_eq!(
        experiments::table1(&report.cells).to_string(),
        experiments::table1(&legacy).to_string(),
        "Table I rendered from the scenario file diverged from the legacy grid"
    );
}

#[test]
fn checked_in_scenario_files_are_canonical_presets() {
    // quick.scenario with the telemetry observer attached: same
    // workload and seed, CSVs to results-telemetry so CI can
    // byte-compare against a plain quick run.
    let mut quick_telemetry = Scenario::full_protocol(&Scale::quick());
    quick_telemetry.name = "quick-telemetry".to_string();
    quick_telemetry = quick_telemetry.with_observers([
        ObserverSpec::StreamCsv(PathBuf::from("results-telemetry")),
        ObserverSpec::Telemetry(PathBuf::from("telemetry/quick.jsonl")),
    ]);
    let pinned = [
        ("quick.scenario", Scenario::full_protocol(&Scale::quick())),
        ("quick-telemetry.scenario", quick_telemetry),
        (
            "default.scenario",
            Scenario::full_protocol(&Scale::default_scale()),
        ),
        ("full.scenario", Scenario::full_protocol(&Scale::full())),
        (
            "effectiveness-quick.scenario",
            Scenario::effectiveness(&Scale::quick()),
        ),
        (
            "effectiveness-default.scenario",
            Scenario::effectiveness(&Scale::default_scale()),
        ),
        (
            "beta-sweep-quick.scenario",
            Scenario::beta_sweep(&Scale::quick()),
        ),
        (
            "ablation-default.scenario",
            experiments::ablation_base(&Scale::default_scale()),
        ),
        ("huge.scenario", Scenario::huge()),
    ];
    for (file, preset) in &pinned {
        let text = std::fs::read_to_string(scenarios_dir().join(file)).unwrap();
        assert_eq!(
            text,
            preset.to_text(),
            "{file} drifted from its preset; regenerate with the `scenario print` tool"
        );
        assert_eq!(&Scenario::parse(&text).unwrap(), preset);
    }
    // Every checked-in spec is pinned — a new file must come with a pin.
    let mut found: Vec<String> = std::fs::read_dir(scenarios_dir())
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.ends_with(".scenario").then_some(name)
        })
        .collect();
    found.sort();
    let mut expected: Vec<String> = pinned.iter().map(|(f, _)| f.to_string()).collect();
    expected.sort();
    assert_eq!(found, expected);
}
