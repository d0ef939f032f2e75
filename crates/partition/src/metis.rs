//! A from-scratch multilevel k-way graph partitioner (METIS family).
//!
//! The graph-based baselines of the paper (refs. 9–11 therein) call the
//! METIS library. METIS is not available offline, so this module reimplements
//! the algorithmic family from the Karypis–Kumar papers:
//!
//! 1. **Coarsening** — repeated heavy-edge matching (HEM) collapses the
//!    graph until it is small (`O(k)` nodes);
//! 2. **Initial partitioning** — greedy region growing assigns the
//!    coarsest nodes to `k` parts under a vertex-weight balance target;
//! 3. **Uncoarsening + refinement** — the partition is projected back
//!    level by level, with Fiduccia–Mattheyses-style greedy boundary
//!    moves (positive-gain first, balance-improving on ties) at every
//!    level.
//!
//! The result minimises *edge cut* (a proxy for cross-shard transactions)
//! subject to a balance constraint on vertex weight (a proxy for workload
//! balance) — exactly the objective mix the paper attributes to the
//! Metis-based allocation baselines.
//!
//! # Parallelism and layout
//!
//! The hot scans — the heavy-edge-matching candidate search, the coarse
//! adjacency aggregation and the refinement gain vectors — fan out over
//! the persistent barrier-synchronised pool
//! ([`mosaic_metrics::parallel`]) when [`MetisConfig::parallelism`]
//! allows; every state mutation is replayed sequentially in input order
//! with stale scores recomputed inline, so the partition is
//! **bit-identical** to the sequential run at any worker count
//! (proptested in `tests/parallel_equivalence.rs`). Every coarsening
//! level stores its adjacency in flat CSR lanes (`WorkGraph`:
//! contiguous `u32` neighbour ids and `u64` weights), so the scoring
//! loops stream branch-light over contiguous memory instead of chasing
//! one `Vec` per node, and refinement gain vectors land in the sweep's
//! flat per-worker arenas ([`chunked_scan_commit_slices`]) rather than
//! per-node allocations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mosaic_metrics::parallel::{
    chunked_scan_commit, chunked_scan_commit_slices, scan_chunk_size, Parallelism,
};
use mosaic_txgraph::TxGraph;
use mosaic_types::hash::FnvHashMap;
use mosaic_types::{AccountShardMap, ShardId};

use crate::traits::GlobalAllocator;

/// Tuning knobs for [`MetisPartitioner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetisConfig {
    /// Coarsening stops once the graph has at most
    /// `coarsen_per_part × k` nodes (subject to `min_coarse_nodes`).
    pub coarsen_per_part: usize,
    /// Absolute floor on coarsest-graph size.
    pub min_coarse_nodes: usize,
    /// Maximum allowed part weight as a multiple of the ideal `W/k`
    /// (METIS's `ubfactor`; 1.10 allows 10% imbalance).
    pub balance_factor: f64,
    /// Refinement passes per level.
    pub refine_passes: usize,
    /// Seed for the (deterministic) matching order shuffle.
    pub seed: u64,
    /// Worker-pool sizing for the candidate scans (matching, coarse
    /// aggregation, refinement gains). The partition is bit-identical at
    /// every level, so this is purely a throughput knob; the experiment
    /// engine threads its `cell_parallelism` in per epoch.
    pub parallelism: Parallelism,
}

impl Default for MetisConfig {
    fn default() -> Self {
        MetisConfig {
            coarsen_per_part: 30,
            min_coarse_nodes: 128,
            balance_factor: 1.10,
            refine_passes: 8,
            seed: 0x6d65_7469, // "meti"
            parallelism: Parallelism::Sequential,
        }
    }
}

/// The multilevel k-way partitioner.
///
/// See the module docs for the algorithm. Fully deterministic for a fixed
/// [`MetisConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetisPartitioner {
    config: MetisConfig,
}

impl MetisPartitioner {
    /// Creates a partitioner with explicit configuration.
    pub fn new(config: MetisConfig) -> Self {
        MetisPartitioner { config }
    }

    /// The active configuration.
    pub fn config(&self) -> MetisConfig {
        self.config
    }

    /// Returns the partitioner with its worker-pool sizing replaced.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.config.parallelism = parallelism;
        self
    }

    /// Partitions `graph` into `k` parts, returning one part id per node
    /// (indexed by [`mosaic_txgraph::NodeId`]).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn partition(&self, graph: &TxGraph, k: u16) -> Vec<u16> {
        assert!(k > 0, "cannot partition into zero parts");
        let n = graph.node_count();
        if n == 0 {
            return Vec::new();
        }
        if k == 1 {
            return vec![0; n];
        }
        if n <= usize::from(k) {
            // One node per part.
            return (0..n as u16).collect();
        }

        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let parallelism = self.config.parallelism;

        // --- Phase 1: coarsen -------------------------------------------
        let base = WorkGraph::from_tx_graph(graph);
        let stop_at =
            (self.config.coarsen_per_part * usize::from(k)).max(self.config.min_coarse_nodes);
        let mut levels: Vec<WorkGraph> = vec![base];
        let mut maps: Vec<Vec<u32>> = Vec::new(); // maps[i]: level i node -> level i+1 node
        loop {
            let current = levels.last().expect("at least base level");
            if current.len() <= stop_at {
                break;
            }
            let (coarse, map) = coarsen_once(current, &mut rng, parallelism);
            // Bail out if matching stopped making progress (e.g. stars).
            if coarse.len() as f64 > current.len() as f64 * 0.97 {
                break;
            }
            levels.push(coarse);
            maps.push(map);
        }

        // --- Phase 2: initial partition on the coarsest level -----------
        let coarsest = levels.last().expect("at least base level");
        let mut parts = initial_partition(coarsest, k);
        let max_allowed = max_part_weight(coarsest.total_weight(), k, self.config.balance_factor);
        rebalance(coarsest, &mut parts, k, max_allowed);
        refine(
            coarsest,
            &mut parts,
            k,
            max_allowed,
            self.config.refine_passes,
            parallelism,
        );

        // --- Phase 3: uncoarsen + refine ---------------------------------
        for level_idx in (0..maps.len()).rev() {
            let fine = &levels[level_idx];
            let map = &maps[level_idx];
            let mut fine_parts = vec![0u16; fine.len()];
            for v in 0..fine.len() {
                fine_parts[v] = parts[map[v] as usize];
            }
            parts = fine_parts;
            let max_allowed = max_part_weight(fine.total_weight(), k, self.config.balance_factor);
            rebalance(fine, &mut parts, k, max_allowed);
            refine(
                fine,
                &mut parts,
                k,
                max_allowed,
                self.config.refine_passes,
                parallelism,
            );
        }

        parts
    }
}

impl GlobalAllocator for MetisPartitioner {
    fn name(&self) -> &'static str {
        "Metis"
    }

    fn allocate(&self, graph: &TxGraph, k: u16) -> AccountShardMap {
        let parts = self.partition(graph, k);
        let mut phi = AccountShardMap::new(k);
        for node in graph.nodes() {
            phi.assign(graph.account_of(node), ShardId::new(parts[node.index()]))
                .expect("partitioner produced an in-range part");
        }
        phi
    }

    fn allocate_with(&self, graph: &TxGraph, k: u16, parallelism: Parallelism) -> AccountShardMap {
        self.with_parallelism(parallelism).allocate(graph, k)
    }
}

/// Internal flat-CSR graph used across coarsening levels: one
/// contiguous neighbour-id lane and one weight lane, row-indexed by
/// `xadj` — the same layout [`TxGraph`] uses, so the scoring loops
/// stream over contiguous `u32`/`u64` arrays at every level.
#[derive(Debug, Clone)]
struct WorkGraph {
    vwgt: Vec<u64>,
    /// Row index: node `v`'s neighbours occupy `xadj[v]..xadj[v + 1]`.
    xadj: Vec<usize>,
    /// Neighbour ids, sorted ascending within each row; no self-loops.
    anbr: Vec<u32>,
    /// Edge weights, parallel to `anbr`.
    awgt: Vec<u64>,
}

impl WorkGraph {
    fn from_tx_graph(graph: &TxGraph) -> Self {
        // Account for isolated/low-activity vertices: weight at least 1
        // so balance constraints stay meaningful.
        let vwgt: Vec<u64> = graph.vwgt().iter().map(|&w| w.max(1)).collect();
        // The source graph is already CSR — copy the lanes straight
        // across (NodeId is a u32 newtype).
        WorkGraph {
            vwgt,
            xadj: graph.xadj().to_vec(),
            anbr: graph.adjncy().iter().map(|nb| nb.index() as u32).collect(),
            awgt: graph.adjwgt().to_vec(),
        }
    }

    fn len(&self) -> usize {
        self.vwgt.len()
    }

    fn total_weight(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// Iterates `(neighbour, weight)` over `v`'s CSR row.
    #[inline]
    fn nbrs(&self, v: usize) -> impl Iterator<Item = (u32, u64)> + '_ {
        let range = self.xadj[v]..self.xadj[v + 1];
        self.anbr[range.clone()]
            .iter()
            .copied()
            .zip(self.awgt[range].iter().copied())
    }

    #[inline]
    fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }
}

fn max_part_weight(total: u64, k: u16, balance_factor: f64) -> u64 {
    let ideal = total as f64 / f64::from(k);
    (ideal * balance_factor).ceil() as u64 + 1
}

const UNMATCHED: u32 = u32::MAX;

/// Heaviest currently-unmatched neighbour of `v`; ties to the lower id.
/// The single candidate-scan comparator shared by the sequential walk
/// and the parallel prescoring pass (identical tie-breaks by
/// construction).
fn best_unmatched_neighbor(graph: &WorkGraph, mate: &[u32], v: usize) -> Option<(u32, u64)> {
    let mut best: Option<(u32, u64)> = None;
    for (nb, w) in graph.nbrs(v) {
        if mate[nb as usize] == UNMATCHED && nb as usize != v {
            match best {
                Some((bn, bw)) if w < bw || (w == bw && nb >= bn) => {}
                _ => best = Some((nb, w)),
            }
        }
    }
    best
}

/// One heavy-edge-matching coarsening step. Returns the coarse graph and
/// the fine→coarse node map.
///
/// The matching walk is sequential by nature (every committed pair
/// removes two candidates), but the candidate scan per node is not: in
/// parallel mode each chunk of the visit order is prescored against a
/// snapshot of the matching, and the sequential commit walk reuses a
/// prescored candidate whenever it is still unmatched. Because the
/// unmatched set only shrinks, a still-unmatched snapshot argmax *is*
/// the live argmax, and a consumed candidate falls back to an inline
/// rescan — the matching is identical to the sequential one.
fn coarsen_once(
    graph: &WorkGraph,
    rng: &mut StdRng,
    parallelism: Parallelism,
) -> (WorkGraph, Vec<u32>) {
    let n = graph.len();
    let mut mate = vec![UNMATCHED; n];

    // Deterministic shuffled visit order.
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }

    if parallelism.workers(n) <= 1 {
        // Sequential reference walk.
        for &v in &order {
            let v = v as usize;
            if mate[v] != UNMATCHED {
                continue;
            }
            let best = best_unmatched_neighbor(graph, &mate, v);
            commit_match(&mut mate, v, best);
        }
    } else {
        chunked_scan_commit(
            &mut mate,
            n,
            scan_chunk_size(n, parallelism),
            parallelism,
            || (),
            |(), mate: &Vec<u32>, i| {
                let v = order[i] as usize;
                if mate[v] != UNMATCHED {
                    return None;
                }
                best_unmatched_neighbor(graph, mate, v)
            },
            |mate, i, prescored| {
                let v = order[i] as usize;
                if mate[v] != UNMATCHED {
                    return;
                }
                let best = match prescored {
                    // Snapshot argmax still unmatched → it is the live
                    // argmax (the unmatched set only shrinks).
                    Some((nb, w)) if mate[nb as usize] == UNMATCHED => Some((nb, w)),
                    // Candidate consumed earlier in the chunk: rescan.
                    Some(_) => best_unmatched_neighbor(graph, mate, v),
                    // No unmatched neighbour at snapshot time → none now.
                    None => None,
                };
                commit_match(mate, v, best);
            },
        );
    }

    finish_coarsen(graph, &order, &mate, parallelism)
}

/// Records `v`'s match decision (pair or singleton).
fn commit_match(mate: &mut [u32], v: usize, best: Option<(u32, u64)>) {
    match best {
        Some((nb, _)) => {
            mate[v] = nb;
            mate[nb as usize] = v as u32;
        }
        None => mate[v] = v as u32, // singleton
    }
}

/// Contracts a computed matching into the coarse graph.
fn finish_coarsen(
    graph: &WorkGraph,
    order: &[u32],
    mate: &[u32],
    parallelism: Parallelism,
) -> (WorkGraph, Vec<u32>) {
    let n = graph.len();
    // Assign coarse ids in visit order (pair owner = first visited).
    let mut coarse_of = vec![UNMATCHED; n];
    let mut next = 0u32;
    for &v in order {
        let v = v as usize;
        if coarse_of[v] != UNMATCHED {
            continue;
        }
        coarse_of[v] = next;
        let m = mate[v] as usize;
        if m != v {
            coarse_of[m] = next;
        }
        next += 1;
    }

    // Build the coarse graph. Every coarse node's merged adjacency is
    // independent of the others (and sorted by neighbour id), so the
    // aggregation fans out with one reusable histogram per worker; the
    // scored rows land in the sweep's flat per-worker arenas and the
    // sequential commit appends them straight onto the coarse CSR lanes
    // (input order, so the layout is identical at any worker count).
    let cn = next as usize;
    let mut vwgt = vec![0u64; cn];
    for v in 0..n {
        vwgt[coarse_of[v] as usize] += graph.vwgt[v];
    }
    // Fine nodes grouped by coarse owner, as a flat CSR (ascending
    // fine id within each group — the same order a per-group push
    // over `0..n` would produce).
    let mut mxadj = vec![0usize; cn + 1];
    for &c in &coarse_of {
        mxadj[c as usize + 1] += 1;
    }
    for c in 0..cn {
        mxadj[c + 1] += mxadj[c];
    }
    let mut members = vec![0u32; n];
    let mut cursor = mxadj.clone();
    for (v, &c) in coarse_of.iter().enumerate() {
        let c = c as usize;
        members[cursor[c]] = v as u32;
        cursor[c] += 1;
    }

    struct CoarseCsr {
        xadj: Vec<usize>,
        anbr: Vec<u32>,
        awgt: Vec<u64>,
    }
    let mut csr = CoarseCsr {
        xadj: vec![0usize; 1],
        anbr: Vec::new(),
        awgt: Vec::new(),
    };
    let coarse_of_ref = &coarse_of;
    chunked_scan_commit_slices(
        &mut csr,
        cn,
        scan_chunk_size(cn, parallelism),
        parallelism,
        FnvHashMap::<u32, u64>::default,
        |scratch, _csr, c, arena: &mut Vec<(u32, u64)>| {
            scratch.clear();
            for &v in &members[mxadj[c]..mxadj[c + 1]] {
                for (nb, w) in graph.nbrs(v as usize) {
                    let cnb = coarse_of_ref[nb as usize];
                    if cnb as usize != c {
                        *scratch.entry(cnb).or_default() += w;
                    }
                }
            }
            let row_start = arena.len();
            arena.extend(scratch.iter().map(|(&cnb, &w)| (cnb, w)));
            // Keys are unique (histogram), so the unstable sort is
            // deterministic regardless of hashmap iteration order.
            arena[row_start..].sort_unstable_by_key(|&(cnb, _)| cnb);
        },
        |csr, _c, (), row| {
            for &(cnb, w) in row {
                csr.anbr.push(cnb);
                csr.awgt.push(w);
            }
            csr.xadj.push(csr.anbr.len());
        },
    );

    (
        WorkGraph {
            vwgt,
            xadj: csr.xadj,
            anbr: csr.anbr,
            awgt: csr.awgt,
        },
        coarse_of,
    )
}

/// Greedy region growing: seed each part with the heaviest unassigned
/// node, grow by maximum connectivity until the part reaches its weight
/// target; leftovers go to the lightest part.
fn initial_partition(graph: &WorkGraph, k: u16) -> Vec<u16> {
    let n = graph.len();
    const UNASSIGNED: u16 = u16::MAX;
    let mut parts = vec![UNASSIGNED; n];
    let total = graph.total_weight();
    let target = (total as f64 / f64::from(k)).ceil() as u64;
    let mut part_weight = vec![0u64; usize::from(k)];

    // Nodes by descending weight for seed selection.
    let mut by_weight: Vec<u32> = (0..n as u32).collect();
    by_weight.sort_unstable_by_key(|&v| std::cmp::Reverse(graph.vwgt[v as usize]));
    let mut seed_cursor = 0usize;

    for p in 0..k {
        // Find a seed.
        while seed_cursor < n && parts[by_weight[seed_cursor] as usize] != UNASSIGNED {
            seed_cursor += 1;
        }
        if seed_cursor >= n {
            break;
        }
        let seed = by_weight[seed_cursor] as usize;
        parts[seed] = p;
        part_weight[usize::from(p)] += graph.vwgt[seed];

        // Grow by max connectivity-to-region.
        let mut frontier: FnvHashMap<u32, u64> = FnvHashMap::default();
        for (nb, w) in graph.nbrs(seed) {
            if parts[nb as usize] == UNASSIGNED {
                *frontier.entry(nb).or_default() += w;
            }
        }
        while part_weight[usize::from(p)] < target && !frontier.is_empty() {
            // Deterministic argmax: highest connectivity, ties to low id.
            let (&best, _) = frontier
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                .expect("frontier nonempty");
            frontier.remove(&best);
            let v = best as usize;
            if parts[v] != UNASSIGNED {
                continue;
            }
            parts[v] = p;
            part_weight[usize::from(p)] += graph.vwgt[v];
            for (nb, w) in graph.nbrs(v) {
                if parts[nb as usize] == UNASSIGNED {
                    *frontier.entry(nb).or_default() += w;
                }
            }
        }
    }

    // Leftovers: lightest part first (LPT-style), heaviest node first.
    for &v in &by_weight {
        let v = v as usize;
        if parts[v] == UNASSIGNED {
            let lightest = (0..usize::from(k))
                .min_by_key(|&p| part_weight[p])
                .expect("k > 0");
            parts[v] = lightest as u16;
            part_weight[lightest] += graph.vwgt[v];
        }
    }

    parts
}

/// Moves nodes out of overweight parts (smallest cut-damage first) until
/// every part fits `max_allowed`, or no improving move exists.
fn rebalance(graph: &WorkGraph, parts: &mut [u16], k: u16, max_allowed: u64) {
    let mut part_weight = vec![0u64; usize::from(k)];
    for v in 0..graph.len() {
        part_weight[usize::from(parts[v])] += graph.vwgt[v];
    }
    let mut conn = vec![0u64; usize::from(k)];
    // Bounded loop: each iteration moves one node out of the currently
    // heaviest violating part.
    for _ in 0..graph.len() {
        let Some(heavy) = (0..usize::from(k))
            .filter(|&p| part_weight[p] > max_allowed)
            .max_by_key(|&p| part_weight[p])
        else {
            break;
        };
        // Best candidate: node in `heavy` whose move to the lightest part
        // loses the least cut.
        let lightest = (0..usize::from(k))
            .min_by_key(|&p| part_weight[p])
            .expect("k > 0");
        if lightest == heavy {
            break;
        }
        let mut best: Option<(usize, i64)> = None; // (node, gain)
        for v in 0..graph.len() {
            if usize::from(parts[v]) != heavy {
                continue;
            }
            // Only consider moves that strictly improve the (heavy, light)
            // pair — guarantees termination (Σ weight² decreases) and
            // prevents a dominant hub node from thrashing between parts.
            if part_weight[lightest] + graph.vwgt[v] >= part_weight[heavy] {
                continue;
            }
            conn.iter_mut().for_each(|c| *c = 0);
            for (nb, w) in graph.nbrs(v) {
                conn[usize::from(parts[nb as usize])] += w;
            }
            let gain = conn[lightest] as i64 - conn[heavy] as i64;
            if best.is_none_or(|(_, bg)| gain > bg) {
                best = Some((v, gain));
            }
        }
        match best {
            Some((v, _)) => {
                part_weight[heavy] -= graph.vwgt[v];
                part_weight[lightest] += graph.vwgt[v];
                parts[v] = lightest as u16;
            }
            None => break,
        }
    }
}

/// Refinement state threaded through the scan/commit walk: the live
/// partition plus the move stamps that let a commit detect stale gain
/// vectors (`stamp[v]` = index of the move that last relocated `v`).
struct RefineState<'p> {
    parts: &'p mut [u16],
    part_weight: Vec<u64>,
    stamp: Vec<u32>,
    moves: u32,
}

/// Accumulates `v`'s connectivity-per-part vector into `conn`.
fn fill_conn(graph: &WorkGraph, parts: &[u16], v: usize, conn: &mut [u64]) {
    conn.iter_mut().for_each(|c| *c = 0);
    for (nb, w) in graph.nbrs(v) {
        conn[usize::from(parts[nb as usize])] += w;
    }
}

/// The move decision shared verbatim by the sequential oracle and the
/// parallel commit walk: pick the most-connected other part (ties to the
/// lighter one) and move when the gain is positive, or zero-gain but
/// balance-improving, under the balance bound. Returns `true` on a move.
fn refine_commit_move(
    graph: &WorkGraph,
    v: usize,
    conn: &[u64],
    parts: &mut [u16],
    part_weight: &mut [u64],
    max_allowed: u64,
) -> bool {
    let cur = usize::from(parts[v]);
    let kk = part_weight.len();
    // Candidate: the part with max connectivity (≠ cur), ties to
    // the lighter part.
    let mut best_p = cur;
    let mut best_conn = 0u64;
    for p in 0..kk {
        if p == cur {
            continue;
        }
        if conn[p] > best_conn
            || (conn[p] == best_conn && best_p != cur && part_weight[p] < part_weight[best_p])
        {
            best_p = p;
            best_conn = conn[p];
        }
    }
    if best_p == cur {
        return false;
    }
    let gain = best_conn as i64 - conn[cur] as i64;
    let fits = part_weight[best_p] + graph.vwgt[v] <= max_allowed;
    let balance_improves = part_weight[best_p] + graph.vwgt[v] < part_weight[cur];
    if fits && (gain > 0 || (gain == 0 && balance_improves)) {
        part_weight[cur] -= graph.vwgt[v];
        part_weight[best_p] += graph.vwgt[v];
        parts[v] = best_p as u16;
        true
    } else {
        false
    }
}

/// FM-style greedy boundary refinement: repeatedly move nodes to the part
/// they are most connected to, when the move has positive cut gain (or
/// zero gain but improves balance) and respects the balance bound.
///
/// In parallel mode each chunk prescores the gain vectors against a
/// snapshot of the partition; the commit walk replays the moves
/// sequentially with live part weights, rescoring a node inline iff one
/// of its neighbours moved after the snapshot — bit-identical to the
/// sequential pass at any worker count.
fn refine(
    graph: &WorkGraph,
    parts: &mut [u16],
    k: u16,
    max_allowed: u64,
    passes: usize,
    parallelism: Parallelism,
) {
    let n = graph.len();
    let kk = usize::from(k);
    let mut part_weight = vec![0u64; kk];
    for v in 0..n {
        part_weight[usize::from(parts[v])] += graph.vwgt[v];
    }

    if parallelism.workers(n) <= 1 {
        // Sequential reference pass.
        let mut conn = vec![0u64; kk];
        for _ in 0..passes {
            let mut moved = 0usize;
            for v in 0..n {
                if graph.degree(v) == 0 {
                    continue;
                }
                fill_conn(graph, parts, v, &mut conn);
                if refine_commit_move(graph, v, &conn, parts, &mut part_weight, max_allowed) {
                    moved += 1;
                }
            }
            if moved == 0 {
                break;
            }
        }
        return;
    }

    let mut state = RefineState {
        parts,
        part_weight,
        stamp: vec![0u32; n],
        moves: 0,
    };
    let chunk = scan_chunk_size(n, parallelism);
    // Live rescan buffer for stale gain vectors — the arena payload is
    // immutable by the time commit sees it.
    let mut rescan = vec![0u64; kk];
    for _ in 0..passes {
        let moves_before = state.moves;
        chunked_scan_commit_slices(
            &mut state,
            n,
            chunk,
            parallelism,
            || (),
            |(), s: &RefineState, v, arena: &mut Vec<u64>| {
                if graph.degree(v) == 0 {
                    return None;
                }
                let base = arena.len();
                arena.resize(base + kk, 0);
                fill_conn(graph, s.parts, v, &mut arena[base..]);
                Some(s.moves)
            },
            |s, v, snap, conn| {
                let Some(snap) = snap else {
                    return;
                };
                // Stale iff a neighbour moved after the snapshot was
                // scored (a move bumps `moves` and stamps the mover).
                let conn: &[u64] = if s.moves != snap
                    && graph.nbrs(v).any(|(nb, _)| s.stamp[nb as usize] > snap)
                {
                    fill_conn(graph, s.parts, v, &mut rescan);
                    &rescan
                } else {
                    conn
                };
                if refine_commit_move(graph, v, conn, s.parts, &mut s.part_weight, max_allowed) {
                    s.moves += 1;
                    s.stamp[v] = s.moves;
                }
            },
        );
        if state.moves == moves_before {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_txgraph::{analysis, GraphBuilder};
    use mosaic_types::AccountId;
    use proptest::prelude::*;

    fn acct(i: u64) -> AccountId {
        AccountId::new(i)
    }

    /// `c` cliques of `size` nodes with heavy internal edges, chained by
    /// single light edges.
    fn clique_chain(c: usize, size: usize) -> TxGraph {
        let mut b = GraphBuilder::new();
        for clique in 0..c {
            let base = (clique * size) as u64;
            for i in 0..size as u64 {
                for j in (i + 1)..size as u64 {
                    b.add_edge(acct(base + i), acct(base + j), 20);
                }
            }
            if clique + 1 < c {
                b.add_edge(acct(base), acct(base + size as u64), 1);
            }
        }
        b.build()
    }

    #[test]
    fn separates_two_communities() {
        let g = clique_chain(2, 8);
        let parts = MetisPartitioner::default().partition(&g, 2);
        assert_eq!(parts.len(), 16);
        // The single bridge edge should be the whole cut.
        assert_eq!(analysis::edge_cut(&g, &parts), 1);
        assert!(analysis::imbalance(&g, &parts, 2) <= 1.15);
    }

    #[test]
    fn four_cliques_four_parts() {
        let g = clique_chain(4, 10);
        let parts = MetisPartitioner::default().partition(&g, 4);
        // Ideal cut is 3 (the chain bridges); allow small slack.
        assert!(analysis::edge_cut(&g, &parts) <= 6);
        assert!(analysis::imbalance(&g, &parts, 4) <= 1.2);
    }

    #[test]
    fn trivial_cases() {
        let g = clique_chain(1, 5);
        assert_eq!(MetisPartitioner::default().partition(&g, 1), vec![0; 5]);
        let empty = TxGraph::from_weighted_edges([], []);
        assert!(MetisPartitioner::default().partition(&empty, 4).is_empty());
        // n <= k: one node per part.
        let tiny = TxGraph::from_weighted_edges([(acct(1), 1), (acct(2), 1)], []);
        let parts = MetisPartitioner::default().partition(&tiny, 8);
        assert_eq!(parts, vec![0, 1]);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = clique_chain(3, 12);
        let p = MetisPartitioner::default();
        assert_eq!(p.partition(&g, 4), p.partition(&g, 4));
        // A different seed may differ (not asserted), but must be valid.
        let other = MetisPartitioner::new(MetisConfig {
            seed: 99,
            ..MetisConfig::default()
        });
        let parts = other.partition(&g, 4);
        assert!(parts.iter().all(|&p| p < 4));
    }

    #[test]
    fn beats_random_on_community_graph() {
        // Random-ish community graph: 8 communities of 40 nodes; internal
        // edges dense, external sparse.
        let mut rng = StdRng::seed_from_u64(42);
        let mut b = GraphBuilder::new();
        let communities = 8usize;
        let size = 40u64;
        // Fully qualified: both the rand and proptest preludes export an
        // `Rng` trait, and the glob imports would make method calls
        // ambiguous.
        for c in 0..communities as u64 {
            let base = c * size;
            for _ in 0..400 {
                let i = rand::Rng::gen_range(&mut rng, 0..size);
                let j = rand::Rng::gen_range(&mut rng, 0..size);
                if i != j {
                    b.add_edge(acct(base + i), acct(base + j), 1);
                }
            }
        }
        for _ in 0..150 {
            let a = rand::Rng::gen_range(&mut rng, 0..communities as u64 * size);
            let bnode = rand::Rng::gen_range(&mut rng, 0..communities as u64 * size);
            if a != bnode {
                b.add_edge(acct(a), acct(bnode), 1);
            }
        }
        let g = b.build();
        let parts = MetisPartitioner::default().partition(&g, 8);
        let metis_cut = analysis::edge_cut(&g, &parts);

        // Random baseline: hash of node index.
        let random_parts: Vec<u16> = (0..g.node_count()).map(|i| (i % 8) as u16).collect();
        let random_cut = analysis::edge_cut(&g, &random_parts);
        assert!(
            (metis_cut as f64) < 0.5 * random_cut as f64,
            "metis cut {metis_cut} vs random {random_cut}"
        );
        assert!(analysis::imbalance(&g, &parts, 8) <= 1.25);
    }

    #[test]
    fn allocate_assigns_every_graph_account() {
        let g = clique_chain(2, 6);
        let phi = MetisPartitioner::default().allocate(&g, 2);
        assert_eq!(phi.assigned_len(), g.node_count());
        for a in g.accounts() {
            assert!(phi.is_assigned(*a));
        }
    }

    #[test]
    fn handles_star_graph_without_stalling() {
        // Stars defeat heavy-edge matching (everything wants the hub);
        // the partitioner must still terminate and produce a valid result.
        let mut b = GraphBuilder::new();
        for i in 1..500u64 {
            b.add_edge(acct(0), acct(i), 1);
        }
        let g = b.build();
        let parts = MetisPartitioner::default().partition(&g, 4);
        assert_eq!(parts.len(), 500);
        assert!(parts.iter().all(|&p| p < 4));
        // The hub alone weighs ~half the graph, so imbalance 2.0 is the
        // theoretical floor; require the partitioner to get close to it by
        // not piling leaves onto the hub's part.
        let weights = analysis::part_weights(&g, &parts, 4);
        let hub_part = parts[g.node_of(acct(0)).unwrap().index()];
        let hub_weight = g.node_weight(g.node_of(acct(0)).unwrap());
        assert!(
            weights[usize::from(hub_part)] <= hub_weight + 60,
            "hub part overloaded: {weights:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Validity on arbitrary small graphs: right length, in-range
        /// parts, and bounded imbalance whenever a balanced solution is
        /// feasible (max vertex weight not dominating).
        #[test]
        fn prop_partition_validity(
            edges in proptest::collection::vec((0u64..60, 0u64..60, 1u64..5), 1..200),
            k in 2u16..6,
        ) {
            let mut b = GraphBuilder::new();
            for (x, y, w) in edges {
                b.add_edge(acct(x), acct(y), w);
            }
            let g = b.build();
            let parts = MetisPartitioner::default().partition(&g, k);
            prop_assert_eq!(parts.len(), g.node_count());
            prop_assert!(parts.iter().all(|&p| p < k));
        }
    }
}
