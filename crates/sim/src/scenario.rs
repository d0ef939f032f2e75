//! Declarative experiment scenarios: one serializable spec per study.
//!
//! A [`Scenario`] is the *data* form of an experiment: it names a trace
//! source (synthetic [`WorkloadConfig`] or CSV file), a base parameter
//! point, a one-at-a-time parameter grid ([`GridAxis`] over `k`, `η`,
//! `τ`, `β`, `λ`, migration capacity), the strategy set, parallelism at
//! both levels, and an observer stack. A
//! [`Simulation`](crate::session::Simulation) session materialises the
//! trace once and runs every cell of the grid.
//!
//! Scenarios round-trip through a line-oriented `key = value` text
//! format (see [`Scenario::to_text`] / [`Scenario::parse`]), so studies
//! can be checked in as `.scenario` files and driven from the command
//! line:
//!
//! ```text
//! # mosaic scenario v1
//! name = effectiveness-quick
//! trace = generated
//! workload.blocks = 2000
//! ...
//! params.shards = 16
//! params.eta = 2
//! axis.k = 4, 16, 32
//! axis.eta = 5, 10
//! strategies = Pilot, G-TxAllo, A-TxAllo, Metis, Random
//! ```
//!
//! The presets that used to hide behind `MOSAIC_SCALE` env parsing are
//! plain constructors here ([`Scenario::effectiveness`],
//! [`Scenario::full_protocol`], [`Scenario::beta_sweep`]) and live as
//! checked-in files under `scenarios/` at the repository root.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use mosaic_types::{Error, LambdaPolicy, Result, SystemParams};
use mosaic_workload::{TraceSource, WorkloadConfig};

use crate::runner::ExperimentConfig;
use crate::scale::Scale;
use crate::strategy::Strategy;
use mosaic_metrics::parallel::Parallelism;

/// The beacon-chain migration-commit bound of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capacity {
    /// The paper's `λ` bound (the default).
    Lambda,
    /// No bound at all (the capacity ablation's comparison point).
    Unbounded,
    /// A fixed number of commits per epoch.
    Fixed(usize),
}

impl Capacity {
    /// Converts to the [`ExperimentConfig::migration_capacity`] field.
    pub fn to_config(self) -> Option<usize> {
        match self {
            Capacity::Lambda => None,
            Capacity::Unbounded => Some(usize::MAX),
            Capacity::Fixed(n) => Some(n),
        }
    }

    fn to_token(self) -> String {
        match self {
            Capacity::Lambda => "lambda".to_string(),
            Capacity::Unbounded => "unbounded".to_string(),
            Capacity::Fixed(n) => n.to_string(),
        }
    }

    fn parse_token(token: &str, line: usize) -> Result<Self> {
        match token {
            "lambda" => Ok(Capacity::Lambda),
            "unbounded" => Ok(Capacity::Unbounded),
            n => Ok(Capacity::Fixed(parse_num(n, "migration capacity", line)?)),
        }
    }

    fn label(self) -> String {
        match self {
            Capacity::Lambda => "capacity = λ".to_string(),
            Capacity::Unbounded => "capacity = ∞".to_string(),
            Capacity::Fixed(n) => format!("capacity = {n}"),
        }
    }
}

/// One swept parameter: the grid varies it across its values while every
/// other parameter stays at the scenario's base point (the paper's
/// one-at-a-time protocol — Tables I–IV vary `k` at `η = 2`, then `η` at
/// `k = 16`).
#[derive(Debug, Clone, PartialEq)]
pub enum GridAxis {
    /// Shard counts `k` (row labels `"k = 4"`, …).
    Shards(Vec<u16>),
    /// Cross-shard difficulties `η` (`"η = 5"`, …).
    Eta(Vec<f64>),
    /// Epoch lengths `τ` in blocks (`"τ = 100"`, …).
    Tau(Vec<u32>),
    /// Future-knowledge ratios `β` (`"β = 0.5"`, …).
    Beta(Vec<f64>),
    /// Fixed per-shard capacities `λ` (`"λ = 250"`, …); the base point
    /// uses the paper's `|T_epoch|/k` policy.
    Lambda(Vec<f64>),
    /// Beacon migration-commit bounds (`"capacity = ∞"`, …).
    MigrationCapacity(Vec<Capacity>),
}

impl GridAxis {
    fn key(&self) -> &'static str {
        match self {
            GridAxis::Shards(_) => "k",
            GridAxis::Eta(_) => "eta",
            GridAxis::Tau(_) => "tau",
            GridAxis::Beta(_) => "beta",
            GridAxis::Lambda(_) => "lambda",
            GridAxis::MigrationCapacity(_) => "capacity",
        }
    }

    fn values_text(&self) -> String {
        fn join<T: ToString>(values: &[T]) -> String {
            values
                .iter()
                .map(T::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        }
        match self {
            GridAxis::Shards(v) => join(v),
            GridAxis::Eta(v) | GridAxis::Beta(v) | GridAxis::Lambda(v) => join(v),
            GridAxis::Tau(v) => join(v),
            GridAxis::MigrationCapacity(v) => v
                .iter()
                .map(|c| c.to_token())
                .collect::<Vec<_>>()
                .join(", "),
        }
    }

    fn parse(key: &str, value: &str, line: usize) -> Result<Self> {
        let tokens: Vec<&str> = value
            .split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .collect();
        if tokens.is_empty() {
            return Err(parse_error(line, format!("axis.{key} has no values")));
        }
        let floats = |what: &str| -> Result<Vec<f64>> {
            tokens.iter().map(|t| parse_num(t, what, line)).collect()
        };
        match key {
            "k" => Ok(GridAxis::Shards(
                tokens
                    .iter()
                    .map(|t| parse_num(t, "shard count", line))
                    .collect::<Result<_>>()?,
            )),
            "eta" => Ok(GridAxis::Eta(floats("eta")?)),
            "tau" => Ok(GridAxis::Tau(
                tokens
                    .iter()
                    .map(|t| parse_num(t, "tau", line))
                    .collect::<Result<_>>()?,
            )),
            "beta" => Ok(GridAxis::Beta(floats("beta")?)),
            "lambda" => Ok(GridAxis::Lambda(floats("lambda")?)),
            "capacity" => Ok(GridAxis::MigrationCapacity(
                tokens
                    .iter()
                    .map(|t| Capacity::parse_token(t, line))
                    .collect::<Result<_>>()?,
            )),
            other => Err(parse_error(
                line,
                format!("unknown grid axis {other:?}; valid: k, eta, tau, beta, lambda, capacity"),
            )),
        }
    }

    /// Expands this axis around `base`: one labelled parameter point per
    /// value, every other parameter untouched.
    fn points(&self, base: SystemParams, base_capacity: Capacity) -> Result<Vec<CellPoint>> {
        let mut points = Vec::new();
        match self {
            GridAxis::Shards(values) => {
                for &k in values {
                    points.push(CellPoint {
                        label: format!("k = {k}"),
                        params: base.with_shards(k)?,
                        capacity: base_capacity,
                    });
                }
            }
            GridAxis::Eta(values) => {
                for &eta in values {
                    points.push(CellPoint {
                        label: format!("η = {eta}"),
                        params: base.with_eta(eta)?,
                        capacity: base_capacity,
                    });
                }
            }
            GridAxis::Tau(values) => {
                for &tau in values {
                    points.push(CellPoint {
                        label: format!("τ = {tau}"),
                        params: base.with_tau(tau)?,
                        capacity: base_capacity,
                    });
                }
            }
            GridAxis::Beta(values) => {
                for &beta in values {
                    points.push(CellPoint {
                        label: format!("β = {beta}"),
                        params: base.with_beta(beta)?,
                        capacity: base_capacity,
                    });
                }
            }
            GridAxis::Lambda(values) => {
                for &lambda in values {
                    points.push(CellPoint {
                        label: format!("λ = {lambda}"),
                        params: base.with_lambda_policy(LambdaPolicy::Fixed(lambda))?,
                        capacity: base_capacity,
                    });
                }
            }
            GridAxis::MigrationCapacity(values) => {
                for &capacity in values {
                    points.push(CellPoint {
                        label: capacity.label(),
                        params: base,
                        capacity,
                    });
                }
            }
        }
        Ok(points)
    }
}

/// What to do with the per-epoch metric rows of every cell.
#[derive(Debug, Clone, PartialEq)]
pub enum ObserverSpec {
    /// Keep the rows in memory
    /// ([`ExperimentResult::per_epoch`](crate::ExperimentResult::per_epoch)).
    Collect,
    /// Stream each cell's rows to `<dir>/<cell>.csv` the moment they are
    /// computed (bounded memory — byte-identical to
    /// [`Simulation::stream_cell`](crate::Simulation::stream_cell)).
    StreamCsv(PathBuf),
    /// Give the session a telemetry recorder whose JSONL event stream
    /// (cell-scoped phase spans and counters, per-epoch events, the
    /// final metric snapshot) is written to `<path>`, created when the
    /// session is built. Telemetry never perturbs the
    /// result CSVs — they stay byte-identical to a run without this
    /// observer.
    Telemetry(PathBuf),
}

/// The observer forms a scenario's `observers = ...` line accepts,
/// enumerated in every parse error.
const OBSERVER_FORMS: &str = "collect, stream-csv:<dir>, telemetry=jsonl:<path>";

impl ObserverSpec {
    fn to_token(&self) -> String {
        match self {
            ObserverSpec::Collect => "collect".to_string(),
            ObserverSpec::StreamCsv(dir) => format!("stream-csv:{}", dir.display()),
            ObserverSpec::Telemetry(path) => format!("telemetry=jsonl:{}", path.display()),
        }
    }

    fn parse_token(token: &str, line: usize) -> Result<Self> {
        if token == "collect" {
            return Ok(ObserverSpec::Collect);
        }
        if let Some(dir) = token.strip_prefix("stream-csv:") {
            if dir.is_empty() {
                return Err(parse_error(
                    line,
                    format!(
                        "stream-csv observer needs a directory; valid observers: {OBSERVER_FORMS}"
                    ),
                ));
            }
            return Ok(ObserverSpec::StreamCsv(PathBuf::from(dir)));
        }
        if let Some(rest) = token.strip_prefix("telemetry") {
            let Some(spec) = rest.trim_start().strip_prefix('=') else {
                return Err(parse_error(
                    line,
                    format!(
                        "telemetry observer must be written telemetry=jsonl:<path>; \
                         valid observers: {OBSERVER_FORMS}"
                    ),
                ));
            };
            let Some(path) = spec.trim_start().strip_prefix("jsonl:") else {
                return Err(parse_error(
                    line,
                    format!(
                        "telemetry observer only supports the jsonl:<path> sink; \
                         valid observers: {OBSERVER_FORMS}"
                    ),
                ));
            };
            if path.is_empty() {
                return Err(parse_error(
                    line,
                    format!("telemetry=jsonl observer needs a file path; valid observers: {OBSERVER_FORMS}"),
                ));
            }
            return Ok(ObserverSpec::Telemetry(PathBuf::from(path)));
        }
        Err(parse_error(
            line,
            format!("unknown observer {token:?}; valid observers: {OBSERVER_FORMS}"),
        ))
    }
}

/// One labelled parameter point of an expanded grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CellPoint {
    /// The row label of the paper's tables (`"k = 4"`, `"η = 5"`, …).
    pub label: String,
    /// The full parameter set of this point.
    pub params: SystemParams,
    /// The migration-commit bound of this point.
    pub capacity: Capacity,
}

/// One experiment cell of an expanded scenario: a labelled parameter
/// point × one strategy, ready to run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// The parameter-point label (shared by every strategy at the point).
    pub label: String,
    /// The fully-resolved experiment configuration.
    pub config: ExperimentConfig,
}

impl CellSpec {
    /// A stable file-system-safe name for this cell:
    /// `<label-slug>-<strategy>` (`"k-4-pilot"`), or just the lowercased
    /// strategy name when `single_point` (so a one-point scenario writes
    /// the classic `pilot.csv`, `g-txallo.csv`, …).
    pub fn file_stem(&self, single_point: bool) -> String {
        let strategy = self.config.strategy.name().to_lowercase();
        if single_point {
            return strategy;
        }
        format!("{}-{strategy}", slug(&self.label))
    }
}

/// Lowercases and maps the label's Greek parameter symbols to ASCII,
/// collapsing everything else to single dashes: `"k = 4"` → `"k-4"`,
/// `"η = 5"` → `"eta-5"`, `"capacity = ∞"` → `"capacity-unbounded"`.
fn slug(label: &str) -> String {
    let mut out = String::new();
    for c in label.chars() {
        match c {
            'η' => out.push_str("eta"),
            'τ' => out.push_str("tau"),
            'β' => out.push_str("beta"),
            'λ' => out.push_str("lambda"),
            '∞' => out.push_str("unbounded"),
            c if c.is_ascii_alphanumeric() => out.push(c.to_ascii_lowercase()),
            '.' => out.push('.'),
            _ => {
                if !out.ends_with('-') && !out.is_empty() {
                    out.push('-');
                }
            }
        }
    }
    out.trim_end_matches('-').to_string()
}

/// What kind of driver a scenario is destined for.
///
/// The default, [`RunTarget::Offline`], is the batch simulator
/// ([`Simulation`](crate::session::Simulation)). [`RunTarget::Node`]
/// marks the spec as driving a live `mosaic-node` service (serve or
/// replay): per-epoch rows then live on the node, so observers that
/// accumulate results in the driving process (`collect`) are rejected
/// by [`Scenario::validate`]. Serialised as `target = node` — omitted
/// entirely for the offline default, keeping existing `.scenario`
/// files byte-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunTarget {
    /// Batch simulator runs (the default).
    #[default]
    Offline,
    /// A live `mosaic-node` service (serve / replay).
    Node,
}

impl RunTarget {
    /// Checks the target-specific spec invariants — the single home for
    /// every "this spec cannot drive that kind of driver" rule, called
    /// by [`Scenario::validate`]. [`RunTarget::Offline`] accepts any
    /// otherwise-valid spec; [`RunTarget::Node`] rejects observers that
    /// would accumulate rows in the driving process, because a node
    /// run's per-epoch rows live on the service.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParseScenario`] (line 0) naming the violated
    /// target rule.
    pub fn validate(self, scenario: &Scenario) -> Result<()> {
        match self {
            RunTarget::Offline => Ok(()),
            RunTarget::Node => {
                if scenario.observers.contains(&ObserverSpec::Collect) {
                    return Err(parse_error(
                        0,
                        "a node/replay target cannot be combined with the 'collect' observer \
                         (per-epoch rows live on the mosaic-node service, not in the driving \
                         process); use stream-csv:<dir> instead",
                    ));
                }
                Ok(())
            }
        }
    }
}

/// A complete, serializable experiment specification.
///
/// Construct with [`Scenario::new`] + `with_*` helpers, a preset
/// ([`Scenario::effectiveness`], [`Scenario::full_protocol`],
/// [`Scenario::beta_sweep`]), or [`Scenario::parse`] /
/// [`Scenario::load`] from the text format. Run it with
/// [`Simulation::from_scenario`](crate::session::Simulation::from_scenario).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable study name (reports, file stems).
    pub name: String,
    /// Where the transactions come from.
    pub trace: TraceSource,
    /// The base parameter point every grid axis varies around.
    pub base: SystemParams,
    /// The migration-commit bound at the base point.
    pub capacity: Capacity,
    /// Fraction of trace *blocks* used for initial allocation (paper: 0.9).
    pub train_fraction: f64,
    /// Maximum evaluation epochs per cell (paper: 200).
    pub eval_epochs: usize,
    /// Explicit miner population; `None` derives `4k` per cell at run
    /// time.
    pub miner_count: Option<usize>,
    /// The one-at-a-time parameter grid; empty = run the base point only.
    pub grid: Vec<GridAxis>,
    /// The strategies to run at every parameter point, in report order.
    pub strategies: Vec<Strategy>,
    /// Worker-pool sizing across grid cells.
    pub grid_parallelism: Parallelism,
    /// Worker-pool sizing within each cell (classification chunks,
    /// per-shard commits, allocator scans).
    pub cell_parallelism: Parallelism,
    /// The observer stack applied to every cell.
    pub observers: Vec<ObserverSpec>,
    /// The driver this spec is destined for (offline simulator vs live
    /// `mosaic-node` service).
    pub target: RunTarget,
}

impl Scenario {
    /// Starts a scenario from a trace source with the paper's defaults:
    /// base `k = 16`, `η = 2`, `τ = 300`, `β = 0`, λ-bounded capacity,
    /// 90/10 split, every strategy, collect-only observers, parallel
    /// grid, sequential cells.
    pub fn new(name: impl Into<String>, trace: TraceSource, eval_epochs: usize) -> Self {
        Scenario {
            name: name.into(),
            trace,
            base: SystemParams::default(),
            capacity: Capacity::Lambda,
            train_fraction: 0.9,
            eval_epochs,
            miner_count: None,
            grid: Vec::new(),
            strategies: Strategy::ALL.to_vec(),
            grid_parallelism: Parallelism::Auto,
            cell_parallelism: Parallelism::Sequential,
            observers: vec![ObserverSpec::Collect],
            target: RunTarget::Offline,
        }
    }

    /// Sets the base parameter point.
    pub fn with_base(mut self, base: SystemParams) -> Self {
        self.base = base;
        self
    }

    /// Appends a grid axis.
    pub fn with_axis(mut self, axis: GridAxis) -> Self {
        self.grid.push(axis);
        self
    }

    /// Replaces the strategy set.
    pub fn with_strategies(mut self, strategies: impl Into<Vec<Strategy>>) -> Self {
        self.strategies = strategies.into();
        self
    }

    /// Sets cross-cell worker-pool sizing.
    pub fn with_grid_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.grid_parallelism = parallelism;
        self
    }

    /// Sets within-cell worker-pool sizing.
    pub fn with_cell_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.cell_parallelism = parallelism;
        self
    }

    /// Replaces the observer stack.
    pub fn with_observers(mut self, observers: impl Into<Vec<ObserverSpec>>) -> Self {
        self.observers = observers.into();
        self
    }

    /// Sets the run target (offline simulator vs `mosaic-node` service).
    pub fn with_target(mut self, target: RunTarget) -> Self {
        self.target = target;
        self
    }

    /// Sets the base migration-commit bound.
    pub fn with_capacity(mut self, capacity: Capacity) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets an explicit miner population (default: `4k` per cell).
    pub fn with_miner_count(mut self, miners: usize) -> Self {
        self.miner_count = Some(miners);
        self
    }

    /// The paper's effectiveness grid (§V-A, Tables I–IV): `k ∈ {4, 16,
    /// 32}` at `η = 2`, then `η ∈ {5, 10}` at `k = 16`, every strategy,
    /// on the scale's workload.
    pub fn effectiveness(scale: &Scale) -> Self {
        Scenario::new(
            format!("effectiveness-{}", scale.label),
            TraceSource::Generated(scale.workload.clone()),
            scale.eval_epochs,
        )
        .with_base(paper_base(scale))
        .with_axis(GridAxis::Shards(vec![4, 16, 32]))
        .with_axis(GridAxis::Eta(vec![5.0, 10.0]))
    }

    /// The streamed full-protocol run behind the `full_run` binary: the
    /// default parameter point (`k = 16`, `η = 2`), every strategy,
    /// within-cell parallelism on, per-epoch rows streamed to
    /// `results/`.
    pub fn full_protocol(scale: &Scale) -> Self {
        Scenario::new(
            scale.label,
            TraceSource::Generated(scale.workload.clone()),
            scale.eval_epochs,
        )
        .with_base(paper_base(scale))
        .with_grid_parallelism(Parallelism::Sequential)
        .with_cell_parallelism(Parallelism::Auto)
        .with_observers([ObserverSpec::StreamCsv(PathBuf::from("results"))])
    }

    /// The Table V future-knowledge sweep: Mosaic at `k = 4`, `η = 2`
    /// with `β ∈ {0, 0.25, 0.5, 0.75, 1}`.
    pub fn beta_sweep(scale: &Scale) -> Self {
        Scenario::new(
            format!("beta-sweep-{}", scale.label),
            TraceSource::Generated(scale.workload.clone()),
            scale.eval_epochs,
        )
        .with_base(paper_base(scale).with_shards(4).expect("valid k"))
        .with_axis(GridAxis::Beta(vec![0.0, 0.25, 0.5, 0.75, 1.0]))
        .with_strategies([Strategy::Mosaic])
    }

    /// The ROADMAP's 10M-account scale proof: a streamed synthetic
    /// workload (40M transactions — never materialised) driven through
    /// the full epoch protocol at the paper's parameter point, with
    /// per-epoch rows streamed to `results/`. The hash-based Random
    /// strategy frees the accreted graph right after the initial
    /// allocation ([`crate::engine::EpochStrategy::consumes_history`]),
    /// so steady-state memory is the current + recent window plus
    /// O(accounts) generator and ledger state. `bench_scale` runs this
    /// scenario proportionally scaled down to chart the epochs/sec +
    /// peak-RSS curve vs account count.
    pub fn huge() -> Self {
        let mut workload = WorkloadConfig::paper_scaled(0xB16);
        workload.initial_accounts = 10_000_000;
        workload.blocks = 50_000;
        workload.txs_per_block = 800;
        Scenario::new("huge", TraceSource::StreamedGenerated(workload), 5)
            .with_base(
                SystemParams::builder()
                    .shards(16)
                    .eta(2.0)
                    .tau(500)
                    .build()
                    .expect("valid params"),
            )
            .with_strategies([Strategy::Random])
            .with_grid_parallelism(Parallelism::Sequential)
            .with_cell_parallelism(Parallelism::Auto)
            .with_observers([ObserverSpec::StreamCsv(PathBuf::from("results"))])
    }

    /// The workload config behind a generated trace source, if any.
    pub fn workload(&self) -> Option<&WorkloadConfig> {
        self.trace.workload()
    }

    /// `true` if the grid collapses to a single parameter point.
    pub fn is_single_point(&self) -> bool {
        self.grid.iter().all(|axis| match axis {
            GridAxis::Shards(v) => v.is_empty(),
            GridAxis::Eta(v) | GridAxis::Beta(v) | GridAxis::Lambda(v) => v.is_empty(),
            GridAxis::Tau(v) => v.is_empty(),
            GridAxis::MigrationCapacity(v) => v.is_empty(),
        })
    }

    /// Expands the grid into labelled parameter points, in axis order.
    /// An empty grid yields the base point labelled by its shard count.
    ///
    /// # Errors
    ///
    /// Returns the parameter-validation error of the first invalid axis
    /// value ([`Error::InvalidShardCount`], [`Error::InvalidEta`], …).
    pub fn points(&self) -> Result<Vec<CellPoint>> {
        if self.is_single_point() {
            return Ok(vec![CellPoint {
                label: format!("k = {}", self.base.shards()),
                params: self.base,
                capacity: self.capacity,
            }]);
        }
        let mut points = Vec::new();
        for axis in &self.grid {
            points.extend(axis.points(self.base, self.capacity)?);
        }
        Ok(points)
    }

    /// Expands the scenario into runnable cells: every parameter point ×
    /// every strategy, in the paper's report order (points outermost).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParseScenario`] on an empty strategy set or
    /// invalid protocol fields, and parameter-validation errors from
    /// [`Scenario::points`].
    pub fn cells(&self) -> Result<Vec<CellSpec>> {
        self.validate()?;
        let mut cells = Vec::new();
        for point in self.points()? {
            for &strategy in &self.strategies {
                cells.push(CellSpec {
                    label: point.label.clone(),
                    config: ExperimentConfig {
                        params: point.params,
                        strategy,
                        train_fraction: self.train_fraction,
                        eval_epochs: self.eval_epochs,
                        miner_count: self.miner_count,
                        migration_capacity: point.capacity.to_config(),
                        cell_parallelism: self.cell_parallelism,
                    },
                });
            }
        }
        Ok(cells)
    }

    /// [`Scenario::cells`] under an explicit [`RunTarget`]: validates
    /// and expands the spec as `target` would see it, without the
    /// caller cloning and re-tagging the scenario by hand. A
    /// `mosaic-node` service expands with
    /// `scenario.cells_for(RunTarget::Node)` whatever target the file
    /// declared, so node-incompatible specs (e.g. a `collect` observer)
    /// are rejected up front.
    ///
    /// # Errors
    ///
    /// As [`Scenario::cells`], plus the target rules of
    /// [`RunTarget::validate`] for `target`.
    pub fn cells_for(&self, target: RunTarget) -> Result<Vec<CellSpec>> {
        if self.target == target {
            self.cells()
        } else {
            self.clone().with_target(target).cells()
        }
    }

    /// Checks scenario-level invariants (strategy set, protocol fields,
    /// axis values). Workload fields are validated by the generator at
    /// materialisation time ([`WorkloadConfig::validate`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParseScenario`] (line 0) describing the first
    /// violated invariant.
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(parse_error(0, "scenario needs a name"));
        }
        if self.strategies.is_empty() {
            return Err(parse_error(0, "scenario needs at least one strategy"));
        }
        if !(self.train_fraction > 0.0 && self.train_fraction < 1.0) {
            return Err(parse_error(
                0,
                format!(
                    "train_fraction must be in (0, 1), got {}",
                    self.train_fraction
                ),
            ));
        }
        if self.eval_epochs == 0 {
            return Err(parse_error(0, "eval_epochs must be at least 1"));
        }
        if self.observers.is_empty() {
            return Err(parse_error(0, "scenario needs at least one observer"));
        }
        // The whole point of a streamed source is that nothing scales
        // with run length; collecting every per-epoch row in memory (and
        // forcing a materialised engine pass) would silently undo that.
        if self.trace.is_streamed() && self.observers.contains(&ObserverSpec::Collect) {
            return Err(parse_error(
                0,
                "a streamed trace source cannot be combined with the 'collect' observer \
                 (results would accumulate in memory against an unbounded run); \
                 use stream-csv:<dir> instead",
            ));
        }
        // Target-specific rules (e.g. node runs keep their rows on the
        // service) live with the RunTarget type, one arm per target.
        self.target.validate(self)?;
        if let Some(dup) = self
            .observers
            .iter()
            .enumerate()
            .find_map(|(i, o)| self.observers[..i].contains(o).then_some(o))
        {
            // Two identical stream-csv observers would open every cell's
            // CSV file twice; a duplicate collect is a plain spec error.
            return Err(parse_error(
                0,
                format!("duplicate observer {:?}", dup.to_token()),
            ));
        }
        if let Some(dup) = self
            .strategies
            .iter()
            .enumerate()
            .find_map(|(i, s)| self.strategies[..i].contains(s).then_some(s))
        {
            return Err(parse_error(0, format!("duplicate strategy {}", dup.name())));
        }
        // Surface invalid axis values now rather than at run time — and
        // reject duplicate parameter points: cells are deterministic, so
        // a repeated point adds cost without information, and under a
        // stream-csv observer two identical cells would race on one CSV
        // path ([`CellSpec::file_stem`] is derived from label+strategy).
        let points = self.points()?;
        for (i, p) in points.iter().enumerate() {
            if points[..i].iter().any(|q| q.label == p.label) {
                return Err(parse_error(
                    0,
                    format!("duplicate grid point {:?}", p.label),
                ));
            }
        }
        Ok(())
    }

    /// Serialises to the canonical text format. Guaranteed to
    /// [`Scenario::parse`] back to an equal scenario.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# mosaic scenario v1\n");
        let mut kv = |k: &str, v: String| {
            let _ = writeln!(out, "{k} = {v}");
        };
        kv("name", self.name.clone());
        fn workload_kv(kv: &mut impl FnMut(&str, String), w: &WorkloadConfig) {
            kv("workload.initial_accounts", w.initial_accounts.to_string());
            kv("workload.blocks", w.blocks.to_string());
            kv("workload.txs_per_block", w.txs_per_block.to_string());
            kv(
                "workload.activity_exponent",
                w.activity_exponent.to_string(),
            );
            kv("workload.communities", w.communities.to_string());
            kv(
                "workload.intra_community_bias",
                w.intra_community_bias.to_string(),
            );
            kv("workload.hub_fraction", w.hub_fraction.to_string());
            kv(
                "workload.hub_traffic_share",
                w.hub_traffic_share.to_string(),
            );
            kv(
                "workload.new_accounts_per_block",
                w.new_accounts_per_block.to_string(),
            );
            kv("workload.drift_per_block", w.drift_per_block.to_string());
            kv("workload.seed", w.seed.to_string());
        }
        match &self.trace {
            TraceSource::Generated(w) => {
                kv("trace", "generated".to_string());
                workload_kv(&mut kv, w);
            }
            TraceSource::StreamedGenerated(w) => {
                kv("trace", "streamed".to_string());
                workload_kv(&mut kv, w);
            }
            TraceSource::Csv(path) => kv("trace", format!("csv:{}", path.display())),
            TraceSource::StreamedCsv(path) => {
                kv("trace", format!("streamed-csv:{}", path.display()))
            }
        }
        kv("params.shards", self.base.shards().to_string());
        kv("params.eta", self.base.eta().to_string());
        kv("params.tau", self.base.tau().to_string());
        kv("params.beta", self.base.beta().to_string());
        kv(
            "params.lambda",
            match self.base.lambda_policy() {
                LambdaPolicy::EpochAverage => "epoch-average".to_string(),
                LambdaPolicy::Fixed(l) => l.to_string(),
            },
        );
        kv("train_fraction", self.train_fraction.to_string());
        kv("eval_epochs", self.eval_epochs.to_string());
        kv(
            "miner_count",
            self.miner_count
                .map_or_else(|| "auto".to_string(), |m| m.to_string()),
        );
        kv("migration_capacity", self.capacity.to_token());
        kv(
            "strategies",
            self.strategies
                .iter()
                .map(|s| s.name().to_string())
                .collect::<Vec<_>>()
                .join(", "),
        );
        for axis in &self.grid {
            kv(&format!("axis.{}", axis.key()), axis.values_text());
        }
        kv(
            "grid_parallelism",
            parallelism_to_token(self.grid_parallelism),
        );
        kv(
            "cell_parallelism",
            parallelism_to_token(self.cell_parallelism),
        );
        kv(
            "observers",
            self.observers
                .iter()
                .map(ObserverSpec::to_token)
                .collect::<Vec<_>>()
                .join(", "),
        );
        // Emitted only for the non-default node target so every existing
        // offline `.scenario` file stays byte-stable.
        if self.target == RunTarget::Node {
            kv("target", "node".to_string());
        }
        out
    }

    /// Parses the text format: `key = value` lines, `#` comments and
    /// blank lines ignored, later keys overriding earlier ones (except
    /// `axis.*`, which append in order). Unspecified optional keys take
    /// the [`Scenario::new`] defaults; `name`, `trace` and `eval_epochs`
    /// are required.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParseScenario`] with a 1-based line number on
    /// malformed input, and scenario-level validation errors
    /// ([`Scenario::validate`]) on a well-formed but inconsistent spec.
    pub fn parse(text: &str) -> Result<Self> {
        let mut name: Option<String> = None;
        let mut trace_kind: Option<(String, usize)> = None;
        let mut workload = WorkloadConfig::paper_scaled(0);
        let mut shards: u16 = SystemParams::default().shards();
        let mut eta: f64 = SystemParams::default().eta();
        let mut tau: u32 = SystemParams::default().tau();
        let mut beta: f64 = 0.0;
        let mut lambda = LambdaPolicy::EpochAverage;
        let mut train_fraction = 0.9f64;
        let mut eval_epochs: Option<usize> = None;
        let mut miner_count: Option<usize> = None;
        let mut capacity = Capacity::Lambda;
        let mut grid: Vec<GridAxis> = Vec::new();
        let mut strategies: Option<Vec<Strategy>> = None;
        let mut grid_parallelism = Parallelism::Auto;
        let mut cell_parallelism = Parallelism::Sequential;
        let mut observers: Option<Vec<ObserverSpec>> = None;
        let mut target = RunTarget::Offline;

        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let Some((key, value)) = trimmed.split_once('=') else {
                return Err(parse_error(
                    line,
                    format!("expected 'key = value', got {trimmed:?}"),
                ));
            };
            let (key, value) = (key.trim(), value.trim());
            match key {
                "name" => name = Some(value.to_string()),
                "trace" => trace_kind = Some((value.to_string(), line)),
                "workload.initial_accounts" => {
                    workload.initial_accounts = parse_num(value, key, line)?
                }
                "workload.blocks" => workload.blocks = parse_num(value, key, line)?,
                "workload.txs_per_block" => workload.txs_per_block = parse_num(value, key, line)?,
                "workload.activity_exponent" => {
                    workload.activity_exponent = parse_num(value, key, line)?
                }
                "workload.communities" => workload.communities = parse_num(value, key, line)?,
                "workload.intra_community_bias" => {
                    workload.intra_community_bias = parse_num(value, key, line)?
                }
                "workload.hub_fraction" => workload.hub_fraction = parse_num(value, key, line)?,
                "workload.hub_traffic_share" => {
                    workload.hub_traffic_share = parse_num(value, key, line)?
                }
                "workload.new_accounts_per_block" => {
                    workload.new_accounts_per_block = parse_num(value, key, line)?
                }
                "workload.drift_per_block" => {
                    workload.drift_per_block = parse_num(value, key, line)?
                }
                "workload.seed" => workload.seed = parse_num(value, key, line)?,
                "params.shards" => shards = parse_num(value, key, line)?,
                "params.eta" => eta = parse_num(value, key, line)?,
                "params.tau" => tau = parse_num(value, key, line)?,
                "params.beta" => beta = parse_num(value, key, line)?,
                "params.lambda" => {
                    lambda = if value == "epoch-average" {
                        LambdaPolicy::EpochAverage
                    } else {
                        LambdaPolicy::Fixed(parse_num(value, key, line)?)
                    }
                }
                "train_fraction" => train_fraction = parse_num(value, key, line)?,
                "eval_epochs" => eval_epochs = Some(parse_num(value, key, line)?),
                "miner_count" => {
                    miner_count = if value == "auto" {
                        None
                    } else {
                        Some(parse_num(value, key, line)?)
                    }
                }
                "migration_capacity" => capacity = Capacity::parse_token(value, line)?,
                "strategies" => {
                    let parsed: Result<Vec<Strategy>> = value
                        .split(',')
                        .map(str::trim)
                        .filter(|t| !t.is_empty())
                        .map(|t| {
                            t.parse::<Strategy>().map_err(|e| match e {
                                Error::ParseScenario { message, .. } => parse_error(line, message),
                                other => other,
                            })
                        })
                        .collect();
                    strategies = Some(parsed?);
                }
                "grid_parallelism" => grid_parallelism = parse_parallelism(value, line)?,
                "cell_parallelism" => cell_parallelism = parse_parallelism(value, line)?,
                "observers" => {
                    let parsed: Result<Vec<ObserverSpec>> = value
                        .split(',')
                        .map(str::trim)
                        .filter(|t| !t.is_empty())
                        .map(|t| ObserverSpec::parse_token(t, line))
                        .collect();
                    observers = Some(parsed?);
                }
                "target" => {
                    target = match value {
                        "offline" => RunTarget::Offline,
                        "node" => RunTarget::Node,
                        other => {
                            return Err(parse_error(
                                line,
                                format!("unknown target {other:?}; valid: offline, node"),
                            ))
                        }
                    }
                }
                axis if axis.starts_with("axis.") => {
                    grid.push(GridAxis::parse(&axis["axis.".len()..], value, line)?);
                }
                other => {
                    return Err(parse_error(line, format!("unknown key {other:?}")));
                }
            }
        }

        let name = name.ok_or_else(|| parse_error(0, "missing required key 'name'"))?;
        let (trace_kind, trace_line) =
            trace_kind.ok_or_else(|| parse_error(0, "missing required key 'trace'"))?;
        let trace = if trace_kind == "generated" {
            TraceSource::Generated(workload)
        } else if trace_kind == "streamed" {
            TraceSource::StreamedGenerated(workload)
        } else if let Some(path) = trace_kind.strip_prefix("streamed-csv:") {
            if path.is_empty() {
                return Err(parse_error(trace_line, "streamed-csv trace needs a path"));
            }
            TraceSource::streamed_csv(path)
        } else if let Some(path) = trace_kind.strip_prefix("csv:") {
            if path.is_empty() {
                return Err(parse_error(trace_line, "csv trace needs a path"));
            }
            TraceSource::csv(path)
        } else {
            return Err(parse_error(
                trace_line,
                format!(
                    "unknown trace source {trace_kind:?}; valid: generated, streamed, \
                     csv:<path>, streamed-csv:<path>"
                ),
            ));
        };
        let eval_epochs =
            eval_epochs.ok_or_else(|| parse_error(0, "missing required key 'eval_epochs'"))?;

        let base = SystemParams::builder()
            .shards(shards)
            .eta(eta)
            .tau(tau)
            .beta(beta)
            .lambda_policy(lambda)
            .build()?;
        let scenario = Scenario {
            name,
            trace,
            base,
            capacity,
            train_fraction,
            eval_epochs,
            miner_count,
            grid,
            strategies: strategies.unwrap_or_else(|| Strategy::ALL.to_vec()),
            grid_parallelism,
            cell_parallelism,
            observers: observers.unwrap_or_else(|| vec![ObserverSpec::Collect]),
            target,
        };
        scenario.validate()?;
        Ok(scenario)
    }

    /// Reads and parses a `.scenario` file.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the file cannot be read and
    /// [`Scenario::parse`] errors on malformed content.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| Error::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Scenario::parse(&text)
    }

    /// Writes the canonical text form to a `.scenario` file.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on write failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_text()).map_err(|e| Error::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }
}

/// The paper's default parameter point at a scale's epoch length:
/// `k = 16`, `η = 2`, `τ = scale.tau`, `β = 0`.
fn paper_base(scale: &Scale) -> SystemParams {
    SystemParams::builder()
        .shards(16)
        .eta(2.0)
        .tau(scale.tau)
        .build()
        .expect("paper defaults are valid")
}

fn parallelism_to_token(p: Parallelism) -> String {
    match p {
        Parallelism::Sequential => "sequential".to_string(),
        Parallelism::Auto => "auto".to_string(),
        Parallelism::Threads(n) => n.to_string(),
    }
}

fn parse_parallelism(value: &str, line: usize) -> Result<Parallelism> {
    match value {
        "sequential" => Ok(Parallelism::Sequential),
        "auto" => Ok(Parallelism::Auto),
        n => Ok(Parallelism::Threads(parse_num(n, "parallelism", line)?)),
    }
}

fn parse_error(line: usize, message: impl Into<String>) -> Error {
    Error::ParseScenario {
        line,
        message: message.into(),
    }
}

fn parse_num<T: std::str::FromStr>(raw: &str, what: &str, line: usize) -> Result<T> {
    raw.parse::<T>()
        .map_err(|_| parse_error(line, format!("invalid {what} {raw:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_effectiveness() -> Scenario {
        Scenario::effectiveness(&Scale::quick())
    }

    #[test]
    fn effectiveness_points_match_the_paper_grid() {
        let points = quick_effectiveness().points().unwrap();
        let labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["k = 4", "k = 16", "k = 32", "η = 5", "η = 10"]);
        assert_eq!(points[0].params.shards(), 4);
        assert_eq!(points[0].params.eta(), 2.0);
        assert_eq!(points[3].params.shards(), 16);
        assert_eq!(points[3].params.eta(), 5.0);
        for p in &points {
            assert_eq!(p.params.tau(), Scale::quick().tau);
            assert_eq!(p.capacity, Capacity::Lambda);
        }
    }

    #[test]
    fn cells_nest_strategies_inside_points() {
        let cells = quick_effectiveness().cells().unwrap();
        assert_eq!(cells.len(), 5 * Strategy::ALL.len());
        assert_eq!(cells[0].label, "k = 4");
        assert_eq!(cells[0].config.strategy, Strategy::Mosaic);
        assert_eq!(cells[4].config.strategy, Strategy::Random);
        assert_eq!(cells[5].label, "k = 16");
        // Run-time miner derivation: no stale 4k from the base point.
        assert_eq!(cells[0].config.resolved_miner_count(), 16);
        assert_eq!(cells[5].config.resolved_miner_count(), 64);
    }

    #[test]
    fn single_point_scenario_labels_by_base_shards() {
        let scenario = Scenario::full_protocol(&Scale::quick());
        assert!(scenario.is_single_point());
        let points = scenario.points().unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].label, "k = 16");
    }

    #[test]
    fn text_roundtrip_is_exact_for_presets() {
        for scenario in [
            quick_effectiveness(),
            Scenario::effectiveness(&Scale::default_scale()),
            Scenario::full_protocol(&Scale::quick()),
            Scenario::full_protocol(&Scale::full()),
            Scenario::beta_sweep(&Scale::quick()),
            Scenario::huge(),
        ] {
            let text = scenario.to_text();
            let back = Scenario::parse(&text).unwrap();
            assert_eq!(back, scenario, "round-trip diverged:\n{text}");
            // Serialisation is canonical: a second trip is byte-stable.
            assert_eq!(back.to_text(), text);
        }
    }

    #[test]
    fn roundtrip_covers_every_axis_and_observer_kind() {
        let scenario = Scenario::new("kitchen-sink", TraceSource::csv("data/eth.csv"), 7)
            .with_base(
                SystemParams::builder()
                    .shards(8)
                    .eta(3.5)
                    .tau(120)
                    .beta(0.25)
                    .lambda_policy(LambdaPolicy::Fixed(450.5))
                    .build()
                    .unwrap(),
            )
            .with_capacity(Capacity::Fixed(12))
            .with_miner_count(99)
            .with_axis(GridAxis::Shards(vec![2, 4]))
            .with_axis(GridAxis::Eta(vec![1.5, 2.25]))
            .with_axis(GridAxis::Tau(vec![60, 600]))
            .with_axis(GridAxis::Beta(vec![0.0, 1.0]))
            .with_axis(GridAxis::Lambda(vec![100.0, 250.75]))
            .with_axis(GridAxis::MigrationCapacity(vec![
                Capacity::Lambda,
                Capacity::Unbounded,
                Capacity::Fixed(500),
            ]))
            .with_strategies([Strategy::Mosaic, Strategy::Random])
            .with_grid_parallelism(Parallelism::Threads(3))
            .with_cell_parallelism(Parallelism::Auto)
            .with_observers([
                ObserverSpec::Collect,
                ObserverSpec::StreamCsv(PathBuf::from("out/csv")),
                ObserverSpec::Telemetry(PathBuf::from("telemetry/run.jsonl")),
            ]);
        let back = Scenario::parse(&scenario.to_text()).unwrap();
        assert_eq!(back, scenario);
    }

    #[test]
    fn observer_parse_errors_enumerate_the_valid_forms() {
        let base = "name = x\ntrace = generated\neval_epochs = 1\n";
        for (value, expect) in [
            ("dump", "unknown observer"),
            ("stream-csv:", "stream-csv observer needs a directory"),
            ("telemetry", "telemetry=jsonl:<path>"),
            ("telemetry = csv:out", "jsonl:<path> sink"),
            ("telemetry=jsonl:", "needs a file path"),
        ] {
            let err = Scenario::parse(&format!("{base}observers = {value}\n")).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(expect), "{value}: {msg}");
            // Every observer error teaches the full set of valid forms.
            assert!(msg.contains(OBSERVER_FORMS), "{value}: {msg}");
            assert!(msg.contains("line 4"), "{value}: {msg}");
        }
        // The telemetry token survives spaces around its '=' (the same
        // tolerance the top-level keys get).
        let ok =
            Scenario::parse(&format!("{base}observers = telemetry = jsonl:t.jsonl\n")).unwrap();
        assert_eq!(
            ok.observers,
            vec![ObserverSpec::Telemetry(PathBuf::from("t.jsonl"))]
        );
    }

    #[test]
    fn roundtrip_covers_streamed_sources() {
        // streamed-csv: a path token, like csv: but bounded-memory.
        let from_file = Scenario::new("etl", TraceSource::streamed_csv("data/eth.csv"), 3)
            .with_observers([ObserverSpec::StreamCsv(PathBuf::from("out"))]);
        let text = from_file.to_text();
        assert!(text.contains("trace = streamed-csv:data/eth.csv"), "{text}");
        assert_eq!(Scenario::parse(&text).unwrap(), from_file);

        // streamed generator: the full WorkloadConfig rides along as
        // workload.* keys so the spec stays self-contained.
        let workload = Scale::quick().workload;
        let generated = Scenario::new("big", TraceSource::StreamedGenerated(workload.clone()), 3)
            .with_observers([ObserverSpec::StreamCsv(PathBuf::from("out"))]);
        let text = generated.to_text();
        assert!(text.contains("trace = streamed"), "{text}");
        assert!(
            text.contains(&format!(
                "workload.initial_accounts = {}",
                workload.initial_accounts
            )),
            "{text}"
        );
        let back = Scenario::parse(&text).unwrap();
        assert_eq!(back, generated);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn validate_rejects_streamed_source_with_collect_observer() {
        let workload = Scale::quick().workload;
        let streamed = Scenario::new("s", TraceSource::StreamedGenerated(workload), 3);
        // Default observers are [collect]: incompatible with a source
        // that promises bounded memory.
        let err = streamed.validate().unwrap_err();
        assert!(matches!(err, Error::ParseScenario { line: 0, .. }), "{err}");
        assert!(err.to_string().contains("streamed trace source"), "{err}");
        assert!(err.to_string().contains("collect"), "{err}");
        // Swapping to a streaming observer fixes it.
        let fixed = Scenario::new("s", TraceSource::streamed_csv("data/eth.csv"), 3)
            .with_observers([ObserverSpec::StreamCsv(PathBuf::from("out"))]);
        assert!(fixed.validate().is_ok());
    }

    #[test]
    fn node_target_roundtrips_and_rejects_collect() {
        let node = Scenario::full_protocol(&Scale::quick()).with_target(RunTarget::Node);
        let text = node.to_text();
        assert!(text.contains("target = node"), "{text}");
        let back = Scenario::parse(&text).unwrap();
        assert_eq!(back, node);
        assert_eq!(back.target, RunTarget::Node);
        // Offline scenarios never emit the key, so checked-in files are
        // byte-stable across the target's introduction.
        let offline = Scenario::full_protocol(&Scale::quick());
        assert!(
            !offline.to_text().contains("target"),
            "{}",
            offline.to_text()
        );
        assert_eq!(
            Scenario::parse(&offline.to_text()).unwrap().target,
            RunTarget::Offline
        );

        // Node target + collect observer: rows live on the service, so
        // there is nothing for collect to fill.
        let bad = quick_effectiveness().with_target(RunTarget::Node);
        let err = bad.validate().unwrap_err();
        assert!(matches!(err, Error::ParseScenario { line: 0, .. }), "{err}");
        assert!(err.to_string().contains("node/replay target"), "{err}");
        assert!(err.to_string().contains("collect"), "{err}");

        let err = Scenario::parse("name = x\ntrace = generated\neval_epochs = 1\ntarget = moon\n")
            .unwrap_err();
        assert!(err.to_string().contains("unknown target"), "{err}");
    }

    #[test]
    fn run_target_check_accepts_offline_specs_unconditionally() {
        // The offline arm imposes no target rules: collect observers,
        // streaming observers and grids are all the simulator's business.
        let collect = quick_effectiveness();
        assert!(RunTarget::Offline.validate(&collect).is_ok());
        let streaming = Scenario::full_protocol(&Scale::quick());
        assert!(RunTarget::Offline.validate(&streaming).is_ok());
    }

    #[test]
    fn run_target_check_rejects_collect_observer_for_node() {
        // Node rejection arm: rows live on the service, so an observer
        // that fills an in-memory result set has nothing to fill.
        let collect = quick_effectiveness();
        let err = RunTarget::Node.validate(&collect).unwrap_err();
        assert!(matches!(err, Error::ParseScenario { line: 0, .. }), "{err}");
        assert!(err.to_string().contains("node/replay target"), "{err}");
        assert!(err.to_string().contains("collect"), "{err}");
    }

    #[test]
    fn run_target_check_accepts_streaming_observers_for_node() {
        // The node arm only rejects in-process accumulation; stream-csv
        // specs (every checked-in node scenario) pass untouched.
        let streaming = Scenario::full_protocol(&Scale::quick());
        assert!(RunTarget::Node.validate(&streaming).is_ok());
    }

    #[test]
    fn cells_for_retags_without_mutating_the_spec() {
        // An offline spec with streaming observers expands fine for a
        // node driver and yields the same cells as the offline view.
        let scenario = Scenario::full_protocol(&Scale::quick());
        let node_cells = scenario.cells_for(RunTarget::Node).unwrap();
        assert_eq!(node_cells, scenario.cells().unwrap());
        assert_eq!(scenario.target, RunTarget::Offline);
        // A collect spec is rejected through the same path...
        let err = quick_effectiveness()
            .cells_for(RunTarget::Node)
            .unwrap_err();
        assert!(err.to_string().contains("node/replay target"), "{err}");
        // ...but stays valid for its declared offline target.
        assert!(quick_effectiveness().cells_for(RunTarget::Offline).is_ok());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = quick_effectiveness().to_text();
        let broken = text.replace("axis.k = 4, 16, 32", "axis.k = 4, banana");
        let err = Scenario::parse(&broken).unwrap_err();
        assert!(
            matches!(err, Error::ParseScenario { line, .. } if line > 0),
            "{err}"
        );
        assert!(err.to_string().contains("banana"));

        let err = Scenario::parse("nonsense line\n").unwrap_err();
        assert!(err.to_string().contains("line 1"));

        let err = Scenario::parse("name = x\ntrace = generated\n").unwrap_err();
        assert!(err.to_string().contains("eval_epochs"));

        let err = Scenario::parse("name = x\ntrace = floppy:disk\neval_epochs = 1\n").unwrap_err();
        assert!(err.to_string().contains("unknown trace source"));

        let err =
            Scenario::parse("name = x\ntrace = streamed-csv:\neval_epochs = 1\n").unwrap_err();
        assert!(err.to_string().contains("streamed-csv trace needs a path"));

        let err = Scenario::parse(&text.replace("strategies = Pilot,", "strategies = Pilot2,"))
            .unwrap_err();
        assert!(err.to_string().contains("unknown strategy"));
    }

    #[test]
    fn validate_rejects_inconsistent_scenarios() {
        let base = quick_effectiveness();
        let mut s = base.clone();
        s.strategies.clear();
        assert!(s.validate().is_err());
        let mut s = base.clone();
        s.train_fraction = 1.0;
        assert!(s.validate().is_err());
        let mut s = base.clone();
        s.eval_epochs = 0;
        assert!(s.validate().is_err());
        let mut s = base.clone();
        s.observers.clear();
        assert!(s.validate().is_err());
        let mut s = base.clone();
        s.grid.push(GridAxis::Shards(vec![0]));
        assert!(s.validate().is_err());
        // Duplicate strategies and duplicate grid points would race on
        // one stream-csv path; both are spec mistakes.
        let mut s = base.clone();
        s.strategies.push(Strategy::Mosaic);
        assert!(s
            .validate()
            .unwrap_err()
            .to_string()
            .contains("duplicate strategy"));
        let mut s = base.clone();
        s.grid.push(GridAxis::Shards(vec![4])); // "k = 4" already on the k axis
        assert!(s
            .validate()
            .unwrap_err()
            .to_string()
            .contains("duplicate grid point"));
        let mut s = base.clone();
        s.observers = vec![
            ObserverSpec::StreamCsv(PathBuf::from("out")),
            ObserverSpec::StreamCsv(PathBuf::from("out")),
        ];
        assert!(s
            .validate()
            .unwrap_err()
            .to_string()
            .contains("duplicate observer"));
        assert!(base.validate().is_ok());
    }

    #[test]
    fn file_stems_are_filesystem_safe() {
        let cells = quick_effectiveness().cells().unwrap();
        assert_eq!(cells[0].file_stem(false), "k-4-pilot");
        assert_eq!(cells[0].file_stem(true), "pilot");
        let greek = CellPoint {
            label: "η = 5".to_string(),
            params: SystemParams::default(),
            capacity: Capacity::Unbounded,
        };
        assert_eq!(slug(&greek.label), "eta-5");
        assert_eq!(slug(&Capacity::Unbounded.label()), "capacity-unbounded");
        assert_eq!(slug("β = 0.25"), "beta-0.25");
    }

    #[test]
    fn save_and_load_roundtrip_through_disk() {
        let scenario = Scenario::beta_sweep(&Scale::quick());
        let dir = std::env::temp_dir().join("mosaic-scenario-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("beta.scenario");
        scenario.save(&path).unwrap();
        assert_eq!(Scenario::load(&path).unwrap(), scenario);
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            Scenario::load(dir.join("missing.scenario")).unwrap_err(),
            Error::Io { .. }
        ));
    }
}
