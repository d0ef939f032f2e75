//! The benchmark's three workloads as scenarios built from the
//! checked-in `default.scenario` and `huge.scenario` shapes.

use std::path::Path;

use mosaic_sim::Scenario;
use mosaic_types::Result;

/// Trace size and epoch protocol of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// `workload.initial_accounts`.
    pub accounts: usize,
    /// `workload.blocks`.
    pub blocks: u64,
    /// `workload.txs_per_block`.
    pub txs_per_block: usize,
    /// `params.tau`.
    pub tau: u32,
    /// `eval_epochs`.
    pub eval_epochs: usize,
}

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All five strategies over a materialised `default`-shaped trace.
    OfflineGrid,
    /// Pilot and Random over a streamed `huge`-shaped source.
    StreamClients,
    /// Pilot, A-TxAllo and Random replayed through a `mosaic-node` child.
    NodeMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::OfflineGrid,
        Workload::StreamClients,
        Workload::NodeMixed,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineGrid => "offline-grid",
            Workload::StreamClients => "stream-clients",
            Workload::NodeMixed => "node-mixed",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark's trace size. `node-mixed` replays the
    /// `offline-grid` trace.
    pub fn shape(self) -> Shape {
        match self {
            Workload::OfflineGrid | Workload::NodeMixed => Shape {
                accounts: 40_000,
                blocks: 16_000,
                txs_per_block: 25,
                tau: 300,
                eval_epochs: 5,
            },
            Workload::StreamClients => Shape {
                accounts: 300_000,
                blocks: 750,
                txs_per_block: 800,
                tau: 15,
                eval_epochs: 5,
            },
        }
    }

    /// A small shape with the same protocol, for the transparency tests.
    pub fn small_shape(self) -> Shape {
        match self {
            Workload::OfflineGrid | Workload::NodeMixed => Shape {
                accounts: 1_500,
                blocks: 800,
                txs_per_block: 10,
                tau: 20,
                eval_epochs: 3,
            },
            Workload::StreamClients => Shape {
                accounts: 4_000,
                blocks: 300,
                txs_per_block: 40,
                tau: 10,
                eval_epochs: 3,
            },
        }
    }

    fn strategies(self) -> &'static str {
        match self {
            Workload::OfflineGrid => "Pilot, G-TxAllo, A-TxAllo, Metis, Random",
            Workload::StreamClients => "Pilot, Random",
            Workload::NodeMixed => "Pilot, A-TxAllo, Random",
        }
    }

    /// `true` when the trace is streamed rather than materialised.
    pub fn streamed(self) -> bool {
        self == Workload::StreamClients
    }

    /// The scenario for `shape`, with `seed` overriding `workload.seed`
    /// and per-cell CSVs streamed to `csv_dir`.
    ///
    /// # Errors
    ///
    /// Propagates scenario parse errors.
    pub fn scenario(self, shape: &Shape, seed: u64, csv_dir: &Path) -> Result<Scenario> {
        let trace = if self.streamed() {
            "streamed"
        } else {
            "generated"
        };
        let text = format!(
            "# mosaic scenario v1
name = {name}
trace = {trace}
workload.initial_accounts = {accounts}
workload.blocks = {blocks}
workload.txs_per_block = {txs_per_block}
workload.activity_exponent = 0.8
workload.communities = 512
workload.intra_community_bias = 0.75
workload.hub_fraction = 0.01
workload.hub_traffic_share = 0.2
workload.new_accounts_per_block = 0.5
workload.drift_per_block = 0.05
workload.seed = {seed}
params.shards = 16
params.eta = 2
params.tau = {tau}
params.beta = 0
params.lambda = epoch-average
train_fraction = 0.9
eval_epochs = {eval_epochs}
miner_count = auto
migration_capacity = lambda
strategies = {strategies}
grid_parallelism = sequential
cell_parallelism = auto
observers = stream-csv:{csv_dir}
",
            name = self.name(),
            accounts = shape.accounts,
            blocks = shape.blocks,
            txs_per_block = shape.txs_per_block,
            tau = shape.tau,
            eval_epochs = shape.eval_epochs,
            strategies = self.strategies(),
            csv_dir = csv_dir.display(),
        );
        Scenario::parse(&text)
    }
}
