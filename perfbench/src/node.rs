//! The `node-mixed` workload: a child `mosaic-node serve` driven over
//! one binary-wire connection, and the same cells fed in-process
//! through [`AllocationCore`]'s event API as the reference.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mosaic_metrics::EpochCsvWriter;
use mosaic_node::{MosaicClient, Wire};
use mosaic_sim::engine::RunSummary;
use mosaic_sim::scenario::CellSpec;
use mosaic_sim::{AllocationCore, Strategy};
use mosaic_telemetry::{Recorder, Snapshot};
use mosaic_types::{AccountId, BlockHeight, Error, Result, Transaction};
use mosaic_workload::TransactionTrace;

use crate::timed::{StrategyTimes, Timed};

/// Blocks per fire-and-forget `TX` batch.
const BATCH_BLOCKS: u64 = 4;

/// How long a child server may take to print its address or to exit
/// after `SHUTDOWN` before it is killed.
const CHILD_DEADLINE: Duration = Duration::from_secs(20);

/// The replay script shared by the node run and its in-process
/// reference: the trace cut into batches, and which account each cell
/// looks up after each batch.
pub struct Plan<'t> {
    /// Block span declared with `BEGIN`.
    pub(crate) blocks: u64,
    /// The trace in `BATCH_BLOCKS`-block slices.
    pub(crate) batches: Vec<&'t [Transaction]>,
    /// Per cell, per batch: the account to look up after it. Lookups
    /// start with the batch that crosses the training cut, when the
    /// first allocation exists.
    pub(crate) lookups: Vec<Vec<Option<AccountId>>>,
}

impl<'t> Plan<'t> {
    /// Builds the script for `cells` over `trace`, drawing lookup
    /// accounts from the senders already streamed, seeded by `seed`.
    pub fn new(trace: &'t TransactionTrace, cells: &[CellSpec], seed: u64) -> Self {
        let blocks = trace.max_block().map_or(0, |b| b.as_u64() + 1);
        let mut batches = Vec::new();
        let mut ends = Vec::new();
        let mut sent = 0usize;
        let mut from = 0u64;
        while from < blocks {
            let to = (from + BATCH_BLOCKS).min(blocks);
            let batch = trace.block_range(BlockHeight::new(from), BlockHeight::new(to));
            sent += batch.len();
            batches.push(batch);
            ends.push((to, sent));
            from = to;
        }
        let txs = trace.transactions();
        let lookups = cells
            .iter()
            .enumerate()
            .map(|(index, cell)| {
                let cut = ((blocks as f64) * cell.config.train_fraction).floor() as u64;
                let mut rng = SplitMix(seed ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9));
                ends.iter()
                    .map(|&(end, sent)| (end > cut && sent > 0).then(|| txs[rng.below(sent)].from))
                    .collect()
            })
            .collect();
        Plan {
            blocks,
            batches,
            lookups,
        }
    }

    /// Transactions one pass over every cell sends.
    pub fn txs_per_pass(&self) -> u64 {
        let per_cell: usize = self.batches.iter().map(|b| b.len()).sum();
        (per_cell * self.lookups.len()) as u64
    }
}

/// What one cell must produce: its CSV and every lookup answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRef {
    /// Header plus one row per epoch.
    pub csv: String,
    /// Shard answers, in lookup order.
    pub answers: Vec<u16>,
}

/// One in-process pass over every cell.
pub struct CorePass {
    /// Per-cell outputs.
    pub cells: Vec<CellRef>,
    /// Wall time of the pass.
    pub wall: Duration,
    /// Time inside `ingest_block` and `end_stream`.
    pub core: Duration,
    /// Per cell: strategy, time inside it, and the core's summary.
    pub strategies: Vec<(Strategy, StrategyTimes, RunSummary)>,
    /// `metrics`: CSV writing.
    pub csv_write: Duration,
    /// The cores' span histograms, when traced.
    pub spans: Option<Snapshot>,
}

/// Feeds every cell through the event API exactly as a node session
/// does, with the plan's batches and lookups. `traced` binds the cores
/// to a private enabled recorder, so their `epoch.*` spans are kept.
///
/// # Errors
///
/// Propagates core errors, and a lookup that finds no allocation.
pub fn core_pass(cells: &[CellSpec], plan: &Plan<'_>, traced: bool) -> Result<CorePass> {
    let start = Instant::now();
    let recorder = traced.then(Recorder::enabled);
    let mut core_time = Duration::ZERO;
    let mut csv_write = Duration::ZERO;
    let mut outputs = Vec::with_capacity(cells.len());
    let mut strategies = Vec::with_capacity(cells.len());
    for (index, cell) in cells.iter().enumerate() {
        let config = cell.config;
        let mut core = AllocationCore::new(config);
        if let Some(recorder) = &recorder {
            core.set_recorder(recorder.clone());
        }
        let mut strategy = Timed::new(config.strategy.build(config.params));
        core.begin(plan.blocks)?;
        let mut writer = EpochCsvWriter::new(Vec::new()).map_err(|e| csv_error(&e))?;
        let mut rows = Vec::new();
        let mut answers = Vec::new();
        for (batch, lookup) in plan.batches.iter().zip(&plan.lookups[index]) {
            rows.clear();
            let t = Instant::now();
            core.ingest_block(&mut strategy, batch, &mut rows)?;
            core_time += t.elapsed();
            let t = Instant::now();
            for row in &rows {
                writer.write_epoch(row).map_err(|e| csv_error(&e))?;
            }
            csv_write += t.elapsed();
            if let Some(account) = lookup {
                let shard = core
                    .lookup(*account)
                    .ok_or(Error::NotInitialized("lookup before the first allocation"))?;
                answers.push(shard.as_u16());
            }
        }
        rows.clear();
        let t = Instant::now();
        core.end_stream(&mut strategy, &mut rows)?;
        core_time += t.elapsed();
        let t = Instant::now();
        for row in &rows {
            writer.write_epoch(row).map_err(|e| csv_error(&e))?;
        }
        let csv = writer.finish().map_err(|e| csv_error(&e))?;
        csv_write += t.elapsed();
        outputs.push(CellRef {
            csv: String::from_utf8(csv).expect("CSV rows are ASCII"),
            answers,
        });
        strategies.push((config.strategy, strategy.times, core.summary()));
    }
    Ok(CorePass {
        cells: outputs,
        wall: start.elapsed(),
        core: core_time,
        strategies,
        csv_write,
        spans: recorder.map(|r| r.snapshot()),
    })
}

/// A child `mosaic-node serve` on an ephemeral loopback port. Dropping
/// it kills the child, so no exit path leaves a server behind.
pub struct Server {
    child: Child,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `node_bin serve` for `scenario_path` and returns the
    /// server with a connected binary-wire client, and the time from
    /// spawn to the first successful hello.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the child cannot start, never prints its
    /// address, or refuses connections until the deadline.
    pub fn spawn(
        node_bin: &Path,
        scenario_path: &Path,
        telemetry: bool,
    ) -> Result<(Server, MosaicClient, Duration)> {
        let start = Instant::now();
        let mut child = Command::new(node_bin)
            .arg("serve")
            .arg("--scenario")
            .arg(scenario_path)
            .args(["--addr", "127.0.0.1:0", "--telemetry"])
            .arg(if telemetry { "on" } else { "off" })
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| node_error(format!("cannot start {}: {e}", node_bin.display())))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server { child, drain: None };
        // The banner names the bound address; everything after it is
        // drained so the child can never block on a full pipe.
        let mut reader = BufReader::new(stdout);
        let mut banner = String::new();
        reader
            .read_line(&mut banner)
            .map_err(|e| node_error(format!("reading the server banner: {e}")))?;
        let addr = banner
            .split(" on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| node_error(format!("no address in server banner {banner:?}")))?
            .to_string();
        server.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        }));
        // Readiness is the first successful hello, retried until the
        // deadline rather than guessed with a sleep.
        let client = loop {
            match MosaicClient::connect(&addr, Wire::Binary) {
                Ok(client) => break client,
                Err(e) if start.elapsed() > CHILD_DEADLINE => return Err(e),
                Err(_) => std::thread::yield_now(),
            }
        };
        Ok((server, client, start.elapsed()))
    }

    /// The child's peak resident set (`VmHWM`) in MiB.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if `/proc` has no such entry.
    pub fn peak_rss_mb(&self) -> Result<f64> {
        crate::stats::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends `SHUTDOWN` on `client` and waits for the child to exit,
    /// killing it if it does not within the deadline.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the shutdown request fails or the child exits
    /// unsuccessfully; the child is gone either way.
    pub fn shutdown(mut self, client: &mut MosaicClient) -> Result<()> {
        client.shutdown()?;
        let start = Instant::now();
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if start.elapsed() < CHILD_DEADLINE => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break None,
            }
        };
        match status {
            Some(status) if status.success() => Ok(()),
            Some(status) => Err(node_error(format!("server exited with {status}"))),
            None => Err(node_error("server ignored SHUTDOWN".to_string())),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Client-side time per request kind, for the traced replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientSpans {
    /// `TX` batch encode and write, including TCP back-pressure.
    pub send: Duration,
    /// `LOOKUP` round trips.
    pub lookup: Duration,
    /// `BEGIN` round trips.
    pub begin: Duration,
    /// `END` round trips.
    pub end: Duration,
    /// `CSV` round trips.
    pub csv: Duration,
}

impl ClientSpans {
    /// Time attributed to a named request kind.
    pub fn total(&self) -> Duration {
        self.send + self.lookup + self.begin + self.end + self.csv
    }
}

/// One replay of every cell over one connection.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Wall time of the replay.
    pub wall: Duration,
    /// Wall time of each cell, in cell order.
    pub cell_walls: Vec<Duration>,
    /// Every lookup's round trip, in milliseconds.
    pub lookup_ms: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed on `ERR` or an I/O error, and lookups and
    /// CSVs that differ from the reference.
    pub failed: u64,
    /// Per-request-kind time, when traced.
    pub spans: Option<ClientSpans>,
}

/// Starts a clock only when tracing.
struct Stopwatch(Option<Instant>);

impl Stopwatch {
    fn start(on: bool) -> Self {
        Stopwatch(on.then(Instant::now))
    }

    fn stop(self, acc: &mut Duration) {
        if let Some(start) = self.0 {
            *acc += start.elapsed();
        }
    }
}

/// Replays the plan over `client` and checks every answer against
/// `reference`. A request that fails, on a broken connection too, is
/// counted in [`Replay::failed`] and the replay goes on.
pub fn replay(
    client: &mut MosaicClient,
    plan: &Plan<'_>,
    reference: &[CellRef],
    traced: bool,
) -> Replay {
    let start = Instant::now();
    let mut out = Replay::default();
    let mut spans = ClientSpans::default();
    for (index, expected) in reference.iter().enumerate() {
        let cell_start = Instant::now();
        out.attempted += 1;
        let clock = Stopwatch::start(traced);
        let begun = client.begin(index, plan.blocks);
        clock.stop(&mut spans.begin);
        if begun.is_err() {
            out.failed += 1;
            out.cell_walls.push(cell_start.elapsed());
            continue;
        }
        let mut answers = expected.answers.iter();
        for (batch, lookup) in plan.batches.iter().zip(&plan.lookups[index]) {
            out.attempted += 1;
            let clock = Stopwatch::start(traced);
            let sent = client.ingest_block(batch);
            clock.stop(&mut spans.send);
            out.failed += u64::from(sent.is_err());
            if let Some(account) = lookup {
                out.attempted += 1;
                let t = Instant::now();
                let answer = client.lookup(*account);
                let elapsed = t.elapsed();
                spans.lookup += elapsed;
                out.lookup_ms.push(elapsed.as_secs_f64() * 1e3);
                match (answer, answers.next()) {
                    (Ok(shard), Some(&want)) if shard == want => {}
                    _ => out.failed += 1,
                }
            }
        }
        out.attempted += 2;
        let clock = Stopwatch::start(traced);
        let ended = client.end();
        clock.stop(&mut spans.end);
        out.failed += u64::from(ended.is_err());
        let clock = Stopwatch::start(traced);
        let csv = client.csv();
        clock.stop(&mut spans.csv);
        out.failed += u64::from(csv.ok().as_ref() != Some(&expected.csv));
        out.cell_walls.push(cell_start.elapsed());
    }
    out.wall = start.elapsed();
    out.spans = traced.then_some(spans);
    out
}

/// Sums the session's `epoch.*` histograms from a `STATS` reply: the
/// server's own time inside the core.
pub fn server_core_time(stats: &[String]) -> Duration {
    let mut in_session = false;
    let mut total_ns = 0u64;
    for line in stats {
        if line.starts_with("session ") {
            in_session = true;
            continue;
        }
        if line.starts_with("server ") {
            in_session = false;
        }
        let mut fields = line.split_whitespace();
        if in_session && fields.next() == Some("hist") {
            let name = fields.next().unwrap_or_default();
            let total = fields.nth(1).and_then(|v| v.parse::<u64>().ok());
            if let (true, Some(total)) = (name.starts_with("epoch."), total) {
                total_ns += total;
            }
        }
    }
    Duration::from_nanos(total_ns)
}

/// Seeded splitmix64, so lookups follow `--seed` and nothing else.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn node_error(message: String) -> Error {
    Error::Io {
        path: "<mosaic-node child>".to_string(),
        message,
    }
}

fn csv_error(e: &std::io::Error) -> Error {
    Error::Io {
        path: "<in-memory csv>".to_string(),
        message: e.to_string(),
    }
}
