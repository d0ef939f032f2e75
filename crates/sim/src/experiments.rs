//! One function per paper table/figure.
//!
//! Every function returns a [`TextTable`] shaped like the paper's
//! original so the report binaries (`crates/bench/src/bin/table*.rs`)
//! can print them directly. See `EXPERIMENTS.md` at the repository root
//! for the paper-vs-measured record.
//!
//! Every grid here is *data*: the effectiveness grid is
//! [`Scenario::effectiveness`], the β sweep is [`Scenario::beta_sweep`],
//! and the ablations derive their grids from a base scenario — all
//! executed by a [`Simulation`] session that materialises the trace
//! once, shares it across cells behind an `Arc`, and runs the
//! independent cells on the order-stable worker pool. Results are
//! order-stable and — the protocol being deterministic — byte-identical
//! to a sequential run on the same seed.

use mosaic_metrics::data_size::human_bytes;
use mosaic_metrics::parallel::{ordered_map, Parallelism};
use mosaic_metrics::TextTable;
use mosaic_types::SystemParams;

use crate::radar::RadarAxis;
use crate::runner::{ExperimentConfig, ExperimentResult};
use crate::scale::Scale;
use crate::scenario::{Capacity, GridAxis, Scenario};
pub use crate::session::GridCell;
use crate::session::Simulation;
use crate::strategy::Strategy;

/// The parameter rows of Tables I–IV: `k ∈ {4, 16, 32}` at `η = 2`, then
/// `η ∈ {5, 10}` at `k = 16` (§V-A). Identical to the points
/// [`Scenario::effectiveness`] expands to.
pub fn parameter_sets(tau: u32) -> Vec<(String, SystemParams)> {
    let build = |k: u16, eta: f64| {
        SystemParams::builder()
            .shards(k)
            .eta(eta)
            .tau(tau)
            .build()
            .expect("valid parameter grid")
    };
    vec![
        ("k = 4".to_string(), build(4, 2.0)),
        ("k = 16".to_string(), build(16, 2.0)),
        ("k = 32".to_string(), build(32, 2.0)),
        ("η = 5".to_string(), build(16, 5.0)),
        ("η = 10".to_string(), build(16, 10.0)),
    ]
}

/// The flat cell list of the effectiveness grid: every parameter set ×
/// every strategy, in the paper's report order — the expansion of
/// [`Scenario::effectiveness`].
pub fn grid_specs(scale: &Scale) -> Vec<(String, ExperimentConfig)> {
    Scenario::effectiveness(scale)
        .cells()
        .expect("the paper grid is a valid scenario")
        .into_iter()
        .map(|cell| (cell.label, cell.config))
        .collect()
}

fn find<'a>(cells: &'a [GridCell], label: &str, strategy: Strategy) -> &'a ExperimentResult {
    cells
        .iter()
        .find(|c| c.param_label == label && c.result.strategy == strategy)
        .map(|c| &c.result)
        .unwrap_or_else(|| panic!("missing grid cell {label} / {strategy}"))
}

fn row_labels(cells: &[GridCell]) -> Vec<String> {
    let mut labels = Vec::new();
    for cell in cells {
        if !labels.contains(&cell.param_label) {
            labels.push(cell.param_label.clone());
        }
    }
    labels
}

/// The grid point the single-point comparisons (Table VI, Figure 1, the
/// Table IV input row) report on: the paper's default `k = 16` when the
/// grid contains it, otherwise the first grid point.
fn default_label(cells: &[GridCell]) -> String {
    let labels = row_labels(cells);
    labels
        .iter()
        .find(|l| l.as_str() == "k = 16")
        .unwrap_or(&labels[0])
        .clone()
}

/// **Table I** — average cross-shard transaction ratios. Pilot carries a
/// parenthetical loss relative to the best miner-driven baseline, as in
/// the paper.
pub fn table1(cells: &[GridCell]) -> TextTable {
    let mut t = TextTable::new(["Parameters", "Pilot", "TxAllo", "Metis", "Random"]);
    for label in row_labels(cells) {
        let pilot = find(cells, &label, Strategy::Mosaic).aggregate.cross_ratio;
        let txallo = find(cells, &label, Strategy::GTxAllo).aggregate.cross_ratio;
        let metis = find(cells, &label, Strategy::Metis).aggregate.cross_ratio;
        let random = find(cells, &label, Strategy::Random).aggregate.cross_ratio;
        let best = txallo.min(metis);
        let loss = if best > 0.0 {
            (pilot - best) / best * 100.0
        } else {
            0.0
        };
        t.push_row([
            label,
            format!("{:.2}% ({:+.2}%)", pilot * 100.0, loss),
            format!("{:.2}%", txallo * 100.0),
            format!("{:.2}%", metis * 100.0),
            format!("{:.2}%", random * 100.0),
        ]);
    }
    t
}

/// **Table II** — average normalised throughput improvement `Λ/λ`.
pub fn table2(cells: &[GridCell]) -> TextTable {
    let mut t = TextTable::new(["Parameters", "Pilot", "TxAllo", "Metis", "Random"]);
    for label in row_labels(cells) {
        let pilot = find(cells, &label, Strategy::Mosaic)
            .aggregate
            .normalized_throughput;
        let txallo = find(cells, &label, Strategy::GTxAllo)
            .aggregate
            .normalized_throughput;
        let metis = find(cells, &label, Strategy::Metis)
            .aggregate
            .normalized_throughput;
        let random = find(cells, &label, Strategy::Random)
            .aggregate
            .normalized_throughput;
        let best = txallo.max(metis);
        let loss = if best > 0.0 {
            (pilot - best) / best * 100.0
        } else {
            0.0
        };
        t.push_row([
            label,
            format!("{pilot:.2} ({loss:+.2}%)"),
            format!("{txallo:.2}"),
            format!("{metis:.2}"),
            format!("{random:.2}"),
        ]);
    }
    t
}

/// **Table III** — average workload deviation.
pub fn table3(cells: &[GridCell]) -> TextTable {
    let mut t = TextTable::new(["Parameters", "Pilot", "TxAllo", "Metis", "Random"]);
    for label in row_labels(cells) {
        let pilot = find(cells, &label, Strategy::Mosaic)
            .aggregate
            .workload_deviation;
        let txallo = find(cells, &label, Strategy::GTxAllo)
            .aggregate
            .workload_deviation;
        let metis = find(cells, &label, Strategy::Metis)
            .aggregate
            .workload_deviation;
        let random = find(cells, &label, Strategy::Random)
            .aggregate
            .workload_deviation;
        let best = random.min(txallo).min(metis);
        let loss = if best > 0.0 {
            (pilot - best) / best * 100.0
        } else {
            0.0
        };
        t.push_row([
            label,
            format!("{pilot:.2} ({loss:+.2}%)"),
            format!("{txallo:.2}"),
            format!("{metis:.2}"),
            format!("{random:.2}"),
        ]);
    }
    t
}

/// **Table IV** — average per-epoch allocation runtime (seconds) and
/// input data size. The TxAllo column is reported `A \ G` as in the
/// paper.
pub fn table4(cells: &[GridCell]) -> TextTable {
    let mut t = TextTable::new(["Parameters", "Pilot", "TxAllo (A \\ G)", "Metis"]);
    for label in row_labels(cells) {
        let pilot = find(cells, &label, Strategy::Mosaic).mean_alloc_seconds;
        let a = find(cells, &label, Strategy::ATxAllo).mean_alloc_seconds;
        let g = find(cells, &label, Strategy::GTxAllo).mean_alloc_seconds;
        let metis = find(cells, &label, Strategy::Metis).mean_alloc_seconds;
        t.push_row([
            label,
            format!("{pilot:.2e}"),
            format!("{a:.2e} \\ {g:.2e}"),
            format!("{metis:.2e}"),
        ]);
    }
    // Input data row (any parameter set; the paper reports one line).
    let label = default_label(cells);
    let pilot = find(cells, &label, Strategy::Mosaic).mean_input_bytes;
    let a = find(cells, &label, Strategy::ATxAllo).mean_input_bytes;
    let g = find(cells, &label, Strategy::GTxAllo).mean_input_bytes;
    let metis = find(cells, &label, Strategy::Metis).mean_input_bytes;
    t.push_row([
        "Input Data".to_string(),
        human_bytes(pilot),
        format!("{} \\ {}", human_bytes(a), human_bytes(g)),
        human_bytes(metis),
    ]);
    t
}

/// **Table V** — impact of future knowledge: the Mosaic cells of a β
/// sweep (the [`Scenario::beta_sweep`] preset reproduces the paper:
/// `k = 4`, `η = 2`, `β ∈ {0, 0.25, 0.5, 0.75, 1}`).
pub fn table5(cells: &[GridCell]) -> TextTable {
    let mut t = TextTable::new(["Metrics", "Ratio", "Throughput", "Workload"]);
    for cell in cells
        .iter()
        .filter(|c| c.result.strategy == Strategy::Mosaic)
    {
        t.push_row([
            cell.param_label.clone(),
            format!("{:.2}%", cell.result.aggregate.cross_ratio * 100.0),
            format!("{:.2}", cell.result.aggregate.normalized_throughput),
            format!("{:.2}", cell.result.aggregate.workload_deviation),
        ]);
    }
    t
}

/// **Table VI** — the framework comparison, filled with values measured
/// on the paper's default parameter set (`k = 16`) when the grid
/// contains it, otherwise the grid's first point.
///
/// # Panics
///
/// Panics if `scenario` does not use a generated trace source (the
/// replication columns need the workload's structural description) or
/// if the grid lacks a Mosaic cell at the reported point.
pub fn table6(cells: &[GridCell], scenario: &Scenario) -> TextTable {
    let workload = scenario
        .workload()
        .expect("table6 needs a generated workload description");
    let tau = scenario.base.tau();
    let label = default_label(cells);
    let mosaic = find(cells, &label, Strategy::Mosaic);
    let k = u64::from(mosaic.params.shards());
    let total_txs = workload.total_txs() as u64;
    let accounts = workload.initial_accounts as u64;
    let window_txs = u64::from(tau) * workload.txs_per_block as u64;
    let mr_total = mosaic.total_migrations as u64;

    let tx_bytes = 16u64; // TX_RECORD_BYTES
    let mr_bytes = 64u64; // MIGRATION_REQUEST_BYTES
    let t_per_account = 2 * total_txs / accounts.max(1);

    let mut t = TextTable::new(["Property", "Graph-based", "Mosaic", "Hash-based"]);
    t.push_row(["Participants", "Miners", "Clients", "Miners"]);
    t.push_row([
        "Optimization type",
        "Global optimization",
        "Local optimization",
        "Global optimization",
    ]);
    t.push_row(["Computation results", "ϕ(A)", "ϕ(ν)", "ϕ(A)"]);
    t.push_row([
        "Computation input".to_string(),
        format!("O(|T|) = {} txs", total_txs),
        format!("O(|T^ν|) ≈ {} txs", t_per_account),
        format!("O(|T_win|) = {} txs", window_txs),
    ]);
    t.push_row([
        "Replication storage".to_string(),
        human_bytes((total_txs * tx_bytes) as f64),
        format!(
            "{} + {} (MR)",
            human_bytes((total_txs / k * tx_bytes) as f64),
            human_bytes((mr_total * mr_bytes) as f64)
        ),
        human_bytes((total_txs / k * tx_bytes) as f64),
    ]);
    t.push_row([
        "Replication communication / epoch".to_string(),
        human_bytes((window_txs * tx_bytes) as f64),
        format!(
            "{} + {} (MR)",
            human_bytes((window_txs / k * tx_bytes) as f64),
            // aggregate.epochs, not per_epoch.len(): collect-free
            // observer stacks leave per_epoch empty.
            human_bytes((mr_total / (mosaic.aggregate.epochs.max(1) as u64) * mr_bytes) as f64)
        ),
        human_bytes((window_txs / k * tx_bytes) as f64),
    ]);
    t.push_row(["Computation incentives", "no", "yes (client benefit)", "no"]);
    t.push_row(["Allocation controllability", "no", "yes", "no"]);
    t.push_row(["Allocation of new accounts", "no", "yes", "yes"]);
    t.push_row(["Future expected transactions", "no", "yes", "no"]);
    t
}

/// **Figure 1** — the six-axis radar comparison of TxAllo vs Mosaic vs
/// hash-based, on the default parameter set. Returns the normalised
/// `[1, 5]` series (one row per axis).
///
/// # Panics
///
/// Panics if `scenario` does not use a generated trace source, or if
/// the grid lacks Mosaic/G-TxAllo/Random cells at the reported point
/// (`k = 16` when present, else the first grid point).
pub fn fig1(cells: &[GridCell], scenario: &Scenario) -> TextTable {
    let workload = scenario
        .workload()
        .expect("fig1 needs a generated workload description");
    let label = default_label(cells);
    let mosaic = find(cells, &label, Strategy::Mosaic);
    let txallo = find(cells, &label, Strategy::GTxAllo);
    let random = find(cells, &label, Strategy::Random);
    let k = f64::from(mosaic.params.shards());
    let window_txs = (u64::from(scenario.base.tau()) * workload.txs_per_block as u64) as f64;
    // aggregate.epochs, not per_epoch.len(): collect-free observer
    // stacks leave per_epoch empty.
    let epochs = mosaic.aggregate.epochs.max(1) as f64;
    let mr_per_epoch = mosaic.total_migrations as f64 / epochs;

    // Hash-based per-account work: one SHA-256, measured directly.
    let (_, hash_time) = mosaic_metrics::timing::time_it(|| {
        let mut acc = 0u64;
        for i in 0..1000u64 {
            acc ^= mosaic_types::hash::sha256_prefix_u64(&i.to_be_bytes());
        }
        acc
    });
    let hash_seconds = (hash_time.as_secs_f64() / 1000.0).max(1e-12);

    // Overheads (lower is better), converted to efficiencies by the axis.
    let computation = [
        txallo.mean_alloc_seconds.max(1e-12),
        mosaic.mean_alloc_seconds.max(1e-12),
        hash_seconds,
    ];
    let storage = [
        txallo.mean_input_bytes.max(1.0),
        mosaic.mean_input_bytes.max(1.0),
        20.0, // an address
    ];
    let communication = [
        window_txs * 16.0,
        window_txs / k * 16.0 + mr_per_epoch * 64.0,
        window_txs / k * 16.0,
    ];

    let axes = vec![
        RadarAxis::from_overheads("Computation Efficiency", &computation),
        RadarAxis::from_overheads("Storage Efficiency", &storage),
        RadarAxis::from_overheads("Communication Efficiency", &communication),
        RadarAxis::new(
            "Throughput",
            vec![
                txallo.aggregate.normalized_throughput,
                mosaic.aggregate.normalized_throughput,
                random.aggregate.normalized_throughput,
            ],
        ),
        RadarAxis::new(
            "Intra-shard Ratio",
            vec![
                1.0 - txallo.aggregate.cross_ratio,
                1.0 - mosaic.aggregate.cross_ratio,
                1.0 - random.aggregate.cross_ratio,
            ],
        ),
        RadarAxis::from_overheads(
            "Workload Balance Index (1/dev)",
            &[
                txallo.aggregate.workload_deviation.max(1e-9),
                mosaic.aggregate.workload_deviation.max(1e-9),
                random.aggregate.workload_deviation.max(1e-9),
            ],
        ),
    ];

    let mut t = TextTable::new(["Axis", "TxAllo", "Mosaic", "Hash-based"]);
    for axis in axes {
        let n = axis.normalized();
        t.push_row([
            axis.label.clone(),
            format!("{:.2}", n[0]),
            format!("{:.2}", n[1]),
            format!("{:.2}", n[2]),
        ]);
    }
    t
}

/// The base scenario of the ablation studies: the default parameter
/// point (`k = 16`, `η = 2`) on the scale's workload, no grid. Each
/// ablation derives its own grid/strategies from this.
pub fn ablation_base(scale: &Scale) -> Scenario {
    Scenario::new(
        format!("ablation-{}", scale.label),
        mosaic_workload::TraceSource::Generated(scale.workload.clone()),
        scale.eval_epochs,
    )
    .with_base(
        SystemParams::builder()
            .shards(16)
            .eta(2.0)
            .tau(scale.tau)
            .build()
            .expect("valid ablation params"),
    )
}

/// **Ablation (beyond the paper)** — Pilot versus policies that use only
/// one of its two signals (interactions / workload) or none (sticky),
/// on the base point of the `session`'s scenario. Each policy runs
/// through a sibling session over the *same* `Arc`'d trace — four
/// strategy variants, zero trace regenerations (pass the session you
/// already built for the other ablations to share its trace too).
pub fn policy_ablation(session: &Simulation) -> TextTable {
    use crate::engine::{EpochStrategy, MosaicStrategy};
    use mosaic_core::policy::{
        InteractionOnlyPolicy, PilotPolicy, StickyPolicy, WorkloadOnlyPolicy,
    };

    let base = Scenario {
        grid: Vec::new(),
        strategies: vec![Strategy::Mosaic],
        // Collect only: the four policy sessions run concurrently and
        // would otherwise race on one stream-csv path per cell.
        observers: vec![crate::scenario::ObserverSpec::Collect],
        ..session.scenario().clone()
    };
    let trace = session.trace();

    let policies = ["Pilot", "InteractionOnly", "WorkloadOnly", "Sticky"];
    let results = ordered_map(&policies, Parallelism::Auto, |&name| {
        let session = Simulation::with_trace(base.clone(), trace.clone())
            .expect("validated scenario stays valid");
        let report = session
            .run_with_factory(|cell| {
                let params = cell.config.params;
                let strategy: Box<dyn EpochStrategy> = match name {
                    "Pilot" => Box::new(MosaicStrategy::new(params, PilotPolicy)),
                    "InteractionOnly" => {
                        Box::new(MosaicStrategy::new(params, InteractionOnlyPolicy))
                    }
                    "WorkloadOnly" => Box::new(MosaicStrategy::new(params, WorkloadOnlyPolicy)),
                    "Sticky" => Box::new(MosaicStrategy::new(params, StickyPolicy)),
                    other => unreachable!("unknown ablation policy {other}"),
                };
                strategy
            })
            .expect("in-memory session cannot hit an io error");
        report.cells.into_iter().next().expect("one cell").result
    });

    let mut t = TextTable::new(["Policy", "Ratio", "Throughput", "Workload", "Migrations"]);
    for (name, r) in policies.iter().zip(&results) {
        t.push_row([
            name.to_string(),
            format!("{:.2}%", r.aggregate.cross_ratio * 100.0),
            format!("{:.2}", r.aggregate.normalized_throughput),
            format!("{:.2}", r.aggregate.workload_deviation),
            format!("{}", r.total_migrations),
        ]);
    }
    t
}

/// **Ablation (beyond the paper)** — the beacon-chain capacity bound:
/// the paper commits at most `λ` migration requests per epoch; this
/// compares that against an unbounded beacon on the base point of the
/// `session`'s scenario — expressed as a capacity grid axis over the
/// session's already-materialised trace, not hand-wired configs.
pub fn capacity_ablation(session: &Simulation) -> TextTable {
    let derived = Scenario {
        grid: vec![GridAxis::MigrationCapacity(vec![
            Capacity::Lambda,
            Capacity::Unbounded,
        ])],
        strategies: vec![Strategy::Mosaic],
        // Collect only: a stream-csv observer inherited from the caller
        // would clobber files written by other studies in the same dir.
        observers: vec![crate::scenario::ObserverSpec::Collect],
        ..session.scenario().clone()
    };
    let cells = Simulation::with_trace(derived, session.trace())
        .expect("a derived single-axis scenario stays valid")
        .run()
        .expect("collect-only session cannot hit an io error")
        .cells;

    let mut t = TextTable::new([
        "Beacon capacity",
        "Ratio",
        "Throughput",
        "Workload",
        "Migrations",
    ]);
    for (name, cell) in ["λ-bounded (paper)", "unbounded"].iter().zip(&cells) {
        let r = &cell.result;
        t.push_row([
            name.to_string(),
            format!("{:.2}%", r.aggregate.cross_ratio * 100.0),
            format!("{:.2}", r.aggregate.normalized_throughput),
            format!("{:.2}", r.aggregate.workload_deviation),
            format!("{}", r.total_migrations),
        ]);
    }
    t
}

/// **Ablation (beyond the paper)** — churn sensitivity: how allocation
/// quality degrades as brand-new accounts arrive faster.
///
/// Accounts seen for the first time are invisible to *everyone* until
/// their first epoch commits (a per-epoch G-TxAllo recompute adapts one
/// epoch late, exactly like a history-only Pilot client). The genuine
/// Mosaic new-account benefit (§VI) is that a newcomer with *plans* —
/// expected future transactions, β > 0 — self-places at debut, before
/// any history exists. The table therefore compares G-TxAllo against
/// Pilot with and without future knowledge as churn grows.
///
/// Each churn rate is one workload variant; the Pilot β sweep and the
/// G-TxAllo baseline run as two sessions over the *same* materialised
/// trace.
///
/// # Panics
///
/// Panics if `scenario` does not use a generated trace source (churn is
/// a generator knob).
pub fn churn_ablation(scenario: &Scenario) -> TextTable {
    let workload = scenario
        .workload()
        .expect("churn ablation needs a generated workload")
        .clone();
    let rates = [0.0, 1.0, 4.0];

    let mut t = TextTable::new([
        "New accounts/block",
        "Pilot β=0",
        "Pilot β=0.5",
        "G-TxAllo",
        "Informed-Pilot advantage",
    ]);
    for &rate in &rates {
        let churned = Scenario {
            trace: mosaic_workload::TraceSource::Generated(workload.clone().with_churn(rate)),
            grid: vec![GridAxis::Beta(vec![0.0, 0.5])],
            strategies: vec![Strategy::Mosaic],
            // Collect only: every churn rate expands to the same cell
            // labels, so an inherited stream-csv observer would leave
            // only the last rate's files on disk.
            observers: vec![crate::scenario::ObserverSpec::Collect],
            ..scenario.clone()
        };
        let pilots = Simulation::from_scenario(churned.clone())
            .unwrap_or_else(|e| panic!("churn scenario failed: {e}"));
        let baseline = Simulation::with_trace(
            Scenario {
                grid: Vec::new(),
                strategies: vec![Strategy::GTxAllo],
                ..churned
            },
            pilots.trace(),
        )
        .expect("validated scenario stays valid");
        let pilot_cells = pilots.run().expect("in-memory session").cells;
        let baseline_cells = baseline.run().expect("in-memory session").cells;
        let (pilot, pilot_informed) = (&pilot_cells[0].result, &pilot_cells[1].result);
        let gtxallo = &baseline_cells[0].result;
        t.push_row([
            format!("{rate}"),
            format!("{:.2}%", pilot.aggregate.cross_ratio * 100.0),
            format!("{:.2}%", pilot_informed.aggregate.cross_ratio * 100.0),
            format!("{:.2}%", gtxallo.aggregate.cross_ratio * 100.0),
            format!(
                "{:+.2} pp",
                (gtxallo.aggregate.cross_ratio - pilot_informed.aggregate.cross_ratio) * 100.0
            ),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(scenario: Scenario) -> Vec<GridCell> {
        Simulation::from_scenario(scenario)
            .unwrap()
            .run()
            .unwrap()
            .cells
    }

    /// The quick effectiveness grid at `parallelism` across cells.
    fn grid(parallelism: Parallelism) -> Vec<GridCell> {
        run(Scenario::effectiveness(&Scale::quick()).with_grid_parallelism(parallelism))
    }

    /// One shared quick grid for all table tests (the grid is the
    /// expensive part).
    fn quick_cells() -> Vec<GridCell> {
        grid(Parallelism::Auto)
    }

    #[test]
    fn grid_covers_all_params_and_strategies() {
        let cells = quick_cells();
        assert_eq!(cells.len(), 5 * Strategy::ALL.len());
        assert_eq!(row_labels(&cells).len(), 5);
        // Tables render without panicking and have the right row counts.
        let scenario = Scenario::effectiveness(&Scale::quick());
        assert_eq!(table1(&cells).row_count(), 5);
        assert_eq!(table2(&cells).row_count(), 5);
        assert_eq!(table3(&cells).row_count(), 5);
        assert_eq!(table4(&cells).row_count(), 6); // 5 params + input row
        assert!(fig1(&cells, &scenario).row_count() == 6);
        assert!(table6(&cells, &scenario).row_count() >= 8);
    }

    #[test]
    fn random_has_worst_cross_ratio_in_grid() {
        let cells = quick_cells();
        for label in row_labels(&cells) {
            let random = find(&cells, &label, Strategy::Random).aggregate.cross_ratio;
            for s in [Strategy::Mosaic, Strategy::GTxAllo, Strategy::Metis] {
                let other = find(&cells, &label, s).aggregate.cross_ratio;
                assert!(other < random, "{label}/{s}: {other} !< random {random}");
            }
        }
    }

    #[test]
    fn parallel_grid_matches_sequential() {
        // Determinism of the parallel pipeline: same seed ⇒ byte-identical
        // CSV series and identical cell order, regardless of scheduling.
        let sequential = grid(Parallelism::Sequential);
        let parallel = grid(Parallelism::Auto);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.param_label, p.param_label);
            assert_eq!(s.result.strategy, p.result.strategy);
            assert_eq!(
                s.result.to_csv(),
                p.result.to_csv(),
                "{} / {} diverged between sequential and parallel runs",
                s.param_label,
                s.result.strategy
            );
            assert_eq!(s.result.total_migrations, p.result.total_migrations);
        }
    }

    #[test]
    fn table5_is_monotonic_in_shape() {
        // Smoke test: the sweep runs and produces 5 rows; monotonicity is
        // asserted loosely (β=1 may regress slightly, as in the paper).
        let t = table5(&run(Scenario::beta_sweep(&Scale::quick())));
        assert_eq!(t.row_count(), 5);
    }

    #[test]
    fn parameter_sets_match_paper_grid() {
        let sets = parameter_sets(300);
        assert_eq!(sets.len(), 5);
        assert_eq!(sets[0].1.shards(), 4);
        assert_eq!(sets[2].1.shards(), 32);
        assert_eq!(sets[3].1.eta(), 5.0);
        assert_eq!(sets[4].1.eta(), 10.0);
    }

    #[test]
    fn grid_specs_agree_with_parameter_sets() {
        // The scenario expansion and the hand-written paper grid are the
        // same data.
        let scale = Scale::quick();
        let specs = grid_specs(&scale);
        let sets = parameter_sets(scale.tau);
        assert_eq!(specs.len(), sets.len() * Strategy::ALL.len());
        for (i, (label, config)) in specs.iter().enumerate() {
            let (expected_label, expected_params) = &sets[i / Strategy::ALL.len()];
            assert_eq!(label, expected_label);
            assert_eq!(config.params, *expected_params);
            assert_eq!(config.strategy, Strategy::ALL[i % Strategy::ALL.len()]);
        }
    }
}
