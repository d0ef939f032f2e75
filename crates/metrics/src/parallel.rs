//! Order-stable parallel execution on a persistent, barrier-synchronised
//! worker pool.
//!
//! # Pool lifecycle
//!
//! Every thread that runs parallel work owns a small stack of
//! [`WorkerPool`]s (thread-local, created lazily on first use). A pool
//! spawns its OS threads **once** and parks them between phases; the hot
//! path of every helper below is a *phase*: the coordinator publishes a
//! lifetime-erased closure under the pool's epoch counter, wakes the
//! parked workers, runs lane 0 itself, and blocks until the
//! `remaining`-lanes counter hits zero. No thread is created, no heap
//! allocation is made, and no channel is touched per phase — one mutex
//! hand-off per lane is the whole cost, which is what lets the chunked
//! allocator sweeps run thousands of phases per allocation without
//! paying the scoped-spawn round-trip they were originally built on.
//!
//! Nested parallelism works because pools stack: a phase closure that
//! itself calls a parallel helper pops (or creates) the *next* pool on
//! its thread, so the grid level (cells) and the cell level (allocator
//! sweeps) never share a barrier. A panicking phase closure is caught on
//! whichever lane it fired, the barrier is still completed, and the
//! panic is re-raised on the coordinator — the pool itself stays parked,
//! healthy and reusable (no poisoned state, asserted by
//! `tests/pool_reuse.rs`).
//!
//! # Who runs on it
//!
//! Three layers of the evaluation parallelise over this module:
//!
//! * **across cells** — every cell of the paper's grid is independent
//!   (same trace, different strategy × parameter pair), so
//!   `mosaic-sim` maps cells over [`ordered_map`];
//! * **within a cell** — one epoch's transaction classification and the
//!   per-shard chain commits decompose into independent per-shard /
//!   per-chunk work items ([`EpochLoad::compute_with`],
//!   `Ledger::process_epoch`), dispatched on the same pool;
//! * **within an allocator** — the Metis-style multilevel partitioner
//!   and the TxAllo objective loops score candidate moves per node over
//!   [`map_indexed`] / [`map_indexed_scratch`] and commit them through
//!   the sequential validated walk of [`chunked_scan_commit`] /
//!   [`chunked_scan_commit_slices`] (`mosaic-partition`,
//!   `mosaic-txallo`).
//!
//! # Arena scratch, not per-chunk buffers
//!
//! The chunked sweeps keep **one flat arena per lane** alive across
//! every chunk of a sweep: scored payloads (gain vectors, label
//! histograms) are appended to the lane's arena and read back as indexed
//! slices by the sequential commit walk ([`chunked_scan_commit_slices`]).
//! Per-worker scratch values survive across chunks too, so a sweep's
//! steady state performs no allocation at all.
//!
//! # Adaptive sequential cutoff
//!
//! Index-space fan-out only pays off once there is enough work to
//! amortise the barrier: below [`par_cutoff`] items the index-space
//! helpers ([`map_indexed`], [`map_indexed_scratch`],
//! [`chunked_scan_commit`], [`chunked_scan_commit_slices`]) run the
//! plain sequential loop and never touch the pool. The threshold is
//! overridable via the `MOSAIC_PAR_CUTOFF` environment variable (or
//! [`set_par_cutoff`] in-process, which tests and the determinism gate
//! use to force the parallel paths on deliberately small inputs).
//! [`ordered_map`] and [`for_each_indexed_mut`] are exempt: their items
//! are coarse tasks (grid cells, transaction chunks, whole shards), not
//! per-node scores.
//!
//! # What must not vary
//!
//! What must *not* vary with scheduling is the output: [`ordered_map`]
//! returns results in input order regardless of which lane finishes
//! first, [`for_each_indexed_mut`] hands each lane a disjoint
//! contiguous chunk, and the chunked sweeps apply every state mutation
//! on the calling thread in input order — so a parallel run is
//! byte-identical to a sequential one (asserted in `mosaic-sim`'s tests
//! and proptested against the sequential allocator oracles), and the
//! cutoff can only ever change *where* the work runs, never the result.
//!
//! [`EpochLoad::compute_with`]: crate::EpochLoad::compute_with

use std::any::Any;
use std::cell::RefCell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use mosaic_telemetry::{Counter, Recorder};

/// Worker-pool sizing for the helpers in this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One item at a time, on the calling thread.
    Sequential,
    /// One lane per available CPU (capped at the number of items).
    #[default]
    Auto,
    /// An explicit lane count (clamped to ≥ 1).
    Threads(usize),
}

impl Parallelism {
    /// Resolves to a concrete lane count for `items` work items.
    pub fn workers(&self, items: usize) -> usize {
        let limit = match self {
            Parallelism::Sequential => 1,
            Parallelism::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            Parallelism::Threads(n) => (*n).max(1),
        };
        limit.min(items).max(1)
    }
}

// ---------------------------------------------------------------------------
// Adaptive sequential cutoff
// ---------------------------------------------------------------------------

/// Default [`par_cutoff`]: index-space helpers with fewer items than
/// this run sequentially. Sized so that the small end of the tracked
/// allocator bench (~2k-node graphs, where even the persistent pool's
/// barrier cost outweighs the scan work) stays on the sequential path,
/// while the mid and large sizes fan out.
const DEFAULT_PAR_CUTOFF: usize = 4096;

/// Sentinel meaning "not initialised yet — read the environment".
const CUTOFF_UNSET: usize = usize::MAX;

static PAR_CUTOFF: AtomicUsize = AtomicUsize::new(CUTOFF_UNSET);

/// The current adaptive-cutoff threshold in items: index-space helpers
/// ([`map_indexed`], [`map_indexed_scratch`], [`chunked_scan_commit`],
/// [`chunked_scan_commit_slices`]) fall back to the sequential loop
/// below it. Initialised from `MOSAIC_PAR_CUTOFF` on first use,
/// otherwise `DEFAULT_PAR_CUTOFF` (4096).
pub fn par_cutoff() -> usize {
    let v = PAR_CUTOFF.load(Ordering::Relaxed);
    if v != CUTOFF_UNSET {
        return v;
    }
    let init = std::env::var("MOSAIC_PAR_CUTOFF")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_PAR_CUTOFF);
    // A racing first read computes the same value; last store wins.
    PAR_CUTOFF.store(init, Ordering::Relaxed);
    init
}

/// Overrides the cutoff process-wide. `0` (or `1`) forces the parallel
/// paths on for every non-empty input — the determinism gate and the
/// equivalence proptests use this so small test graphs genuinely
/// exercise the pool instead of short-circuiting to sequential.
pub fn set_par_cutoff(items: usize) {
    PAR_CUTOFF.store(items, Ordering::Relaxed);
}

/// Pure cutoff arithmetic: lanes to use for `len` items given the
/// resolved worker limit and the cutoff threshold.
fn lanes_with_cutoff(len: usize, workers: usize, cutoff: usize) -> usize {
    if len < cutoff {
        1
    } else {
        workers
    }
}

/// Lane count for an index-space helper, cutoff applied.
fn effective_lanes(len: usize, parallelism: Parallelism) -> usize {
    lanes_with_cutoff(len, parallelism.workers(len), par_cutoff())
}

// ---------------------------------------------------------------------------
// The persistent pool
// ---------------------------------------------------------------------------

/// A lifetime-erased pointer to the phase closure. Only dereferenced
/// between phase publication and barrier completion, which
/// [`WorkerPool::run_phase`] bounds within the closure's real lifetime.
#[derive(Clone, Copy)]
struct TaskRef(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared-callable from any thread) and
// `run_phase` guarantees it outlives every dereference.
unsafe impl Send for TaskRef {}

/// Erases the closure's borrow lifetime so it can sit in [`PoolState`].
///
/// # Safety contract (upheld by `run_phase`)
///
/// The returned pointer must not be dereferenced after the phase
/// barrier completes — `run_phase` blocks until every lane is done
/// before its `f` borrow ends.
fn erase<'a>(f: &'a (dyn Fn(usize) + Sync + 'a)) -> TaskRef {
    let ptr: *const (dyn Fn(usize) + Sync + 'a) = f;
    // SAFETY: only the pointee's lifetime bound changes; layout is
    // identical. Dereference windows are bounded by the phase barrier.
    TaskRef(unsafe {
        std::mem::transmute::<*const (dyn Fn(usize) + Sync + 'a), *const (dyn Fn(usize) + Sync)>(
            ptr,
        )
    })
}

/// Everything the coordinator and the workers share.
struct PoolState {
    /// Bumped once per published phase; workers detect new work by
    /// comparing against the last epoch they observed.
    epoch: u64,
    /// The current phase's closure (valid while `remaining > 0`).
    task: Option<TaskRef>,
    /// Workers participating in the current phase (worker `i` runs lane
    /// `i + 1`; lane 0 is the coordinator).
    active: usize,
    /// Participating workers that have not yet finished the phase.
    remaining: usize,
    /// First worker panic of the phase, re-raised by the coordinator.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between phases.
    work: Condvar,
    /// The coordinator parks here until `remaining == 0`.
    done: Condvar,
}

fn lock(m: &Mutex<PoolState>) -> MutexGuard<'_, PoolState> {
    // Panics never happen while the lock is held (worker payloads run
    // outside it, wrapped in catch_unwind), but don't compound a bug
    // with poisoning: the state is always barrier-consistent.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-lane telemetry handles: nanoseconds spent running phase work
/// (`pool.lane<i>.busy_ns`) vs parked / waiting on the barrier
/// (`pool.lane<i>.park_ns`). Inert (one branch per phase, zero clock
/// reads) when the pool's recorder is disabled — telemetry never
/// perturbs results.
struct LaneTelemetry {
    busy: Counter,
    park: Counter,
}

impl LaneTelemetry {
    fn for_lane(recorder: &Recorder, lane: usize) -> Self {
        LaneTelemetry {
            busy: recorder.counter(&format!("pool.lane{lane}.busy_ns")),
            park: recorder.counter(&format!("pool.lane{lane}.park_ns")),
        }
    }

    /// Starts a clock only when counters land somewhere.
    fn clock(&self) -> Option<Instant> {
        self.busy.is_enabled().then(Instant::now)
    }

    fn add_busy(&self, since: Option<Instant>) {
        if let Some(start) = since {
            self.busy
                .add(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    fn add_park(&self, since: Option<Instant>) {
        if let Some(start) = since {
            self.park
                .add(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

/// A persistent, barrier-synchronised worker pool.
///
/// Threads are spawned lazily (grown to the widest phase ever run) and
/// parked between phases; see the module docs for the lifecycle. Helpers
/// in this module pull pools from a thread-local stack automatically —
/// constructing one by hand is only needed for tests.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    recorder: Recorder,
    lane0: LaneTelemetry,
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new()
    }
}

impl WorkerPool {
    /// Creates an empty pool; threads are spawned on first use. Its
    /// recorder is disabled — the thread-local pools the helpers use
    /// record nothing; build a pool with [`WorkerPool::with_recorder`]
    /// for per-lane busy/park time.
    pub fn new() -> Self {
        WorkerPool::with_recorder(Recorder::disabled())
    }

    /// Creates an empty pool reporting per-lane busy/park time to
    /// `recorder` (inert when the recorder is disabled).
    pub fn with_recorder(recorder: Recorder) -> Self {
        let lane0 = LaneTelemetry::for_lane(&recorder, 0);
        WorkerPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    epoch: 0,
                    task: None,
                    active: 0,
                    remaining: 0,
                    panic: None,
                    shutdown: false,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            handles: Vec::new(),
            recorder,
            lane0,
        }
    }

    /// Worker threads currently spawned (grows, never shrinks).
    pub fn size(&self) -> usize {
        self.handles.len()
    }

    fn ensure_workers(&mut self, needed: usize) {
        while self.handles.len() < needed {
            let shared = Arc::clone(&self.shared);
            let index = self.handles.len();
            let telemetry = LaneTelemetry::for_lane(&self.recorder, index + 1);
            let handle = std::thread::Builder::new()
                .name(format!("mosaic-pool-{index}"))
                .spawn(move || worker_loop(&shared, index, &telemetry))
                .expect("failed to spawn pool worker");
            self.handles.push(handle);
        }
    }

    /// Runs one phase: `f(lane)` for every `lane in 0..lanes`, lane 0 on
    /// the calling thread, the rest on parked workers. Returns after
    /// every lane has finished (the barrier). Worker panics are re-raised
    /// here after the barrier settles; the pool remains usable.
    pub fn run_phase(&mut self, lanes: usize, f: &(dyn Fn(usize) + Sync)) {
        if lanes <= 1 {
            f(0);
            return;
        }
        self.ensure_workers(lanes - 1);

        // `f` stays alive until the barrier below completes, and no
        // worker dereferences the pointer after decrementing `remaining`.
        let task = erase(f);
        {
            let mut st = lock(&self.shared.state);
            debug_assert_eq!(st.remaining, 0, "phase published over a live phase");
            st.task = Some(task);
            st.active = lanes - 1;
            st.remaining = lanes - 1;
            st.epoch += 1;
            self.shared.work.notify_all();
        }

        // Lane 0 runs here; a panic must not skip the barrier.
        let busy_start = self.lane0.clock();
        let mine = catch_unwind(AssertUnwindSafe(|| f(0)));
        self.lane0.add_busy(busy_start);

        let park_start = self.lane0.clock();
        let mut st = lock(&self.shared.state);
        while st.remaining > 0 {
            st = self
                .shared
                .done
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.lane0.add_park(park_start);
        st.task = None;
        let worker_panic = st.panic.take();
        drop(st);

        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, index: usize, telemetry: &LaneTelemetry) {
    let mut seen = 0u64;
    loop {
        let park_start = telemetry.clock();
        let task = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    if index < st.active {
                        break st.task.expect("active phase carries a task");
                    }
                    // Not part of this phase: acknowledge and re-park.
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        telemetry.add_park(park_start);
        // SAFETY: the coordinator keeps the closure alive until this
        // worker decrements `remaining` below.
        let busy_start = telemetry.clock();
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*task.0)(index + 1) }));
        telemetry.add_busy(busy_start);
        let mut st = lock(&shared.state);
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

// Pools stack per thread so nested parallelism (grid cells on the outer
// pool, allocator sweeps on the inner) never shares a barrier.
thread_local! {
    static POOLS: RefCell<Vec<WorkerPool>> = const { RefCell::new(Vec::new()) };
}

/// Worker threads currently spawned by the calling thread's pool stack.
/// Introspection for tests ("reuse must not respawn").
pub fn thread_pool_workers() -> usize {
    POOLS
        .try_with(|pools| pools.borrow().iter().map(WorkerPool::size).sum())
        .unwrap_or(0)
}

/// Drops the calling thread's persistent pools (joining their workers).
/// The next parallel call re-creates them — tests use this to compare
/// fresh-pool against reused-pool runs on one thread.
pub fn thread_pool_reset() {
    let _ = POOLS.try_with(|pools| pools.borrow_mut().clear());
}

/// Runs `f(lane)` for `lane in 0..lanes` on the calling thread's
/// persistent pool (lane 0 inline). The barrier completes before this
/// returns. Falls back to an inline lane loop if the thread-local pool
/// stack is unavailable (thread teardown).
fn run_lanes(lanes: usize, f: &(dyn Fn(usize) + Sync)) {
    if lanes <= 1 {
        f(0);
        return;
    }
    let mut pool = match POOLS.try_with(|pools| pools.borrow_mut().pop()) {
        Ok(popped) => popped.unwrap_or_default(),
        Err(_) => {
            // TLS already destroyed: run the lanes inline. Results are
            // lane-placement independent, so this is just the slow path.
            for lane in 0..lanes {
                f(lane);
            }
            return;
        }
    };
    let result = catch_unwind(AssertUnwindSafe(|| pool.run_phase(lanes, f)));
    // Return the pool even when the phase panicked — it is barrier-
    // consistent and reusable (asserted by tests/pool_reuse.rs).
    if POOLS
        .try_with(|pools| pools.borrow_mut().push(pool))
        .is_err()
    {
        // TLS gone mid-call: the pool drops (and joins) here instead.
    }
    if let Err(payload) = result {
        resume_unwind(payload);
    }
}

/// A raw view of a mutable slice that lanes index disjointly.
struct LaneSlice<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: lanes only touch disjoint index ranges (by construction at
// every use site), and the phase barrier orders all writes before the
// coordinator reads.
unsafe impl<T: Send> Send for LaneSlice<T> {}
unsafe impl<T: Send> Sync for LaneSlice<T> {}

impl<T> LaneSlice<T> {
    fn new(slice: &mut [T]) -> Self {
        LaneSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// # Safety
    /// `[start, end)` must be in bounds and disjoint from every range
    /// (or index) handed to any other concurrent lane.
    // The aliasing clippy fears is exactly what the disjointness
    // contract above rules out; `&self` is deliberate so lanes share
    // the view.
    #[allow(clippy::mut_from_ref)]
    unsafe fn range_mut(&self, start: usize, end: usize) -> &mut [T] {
        debug_assert!(start <= end && end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), end - start)
    }

    /// # Safety
    /// `i` must be in bounds and claimed by exactly one lane.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get_mut(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        &mut *self.ptr.add(i)
    }
}

// ---------------------------------------------------------------------------
// Public helpers
// ---------------------------------------------------------------------------

/// Applies `f` to every item on the persistent pool and returns the
/// results **in input order**.
///
/// Items are claimed through an atomic cursor, so long items don't stall
/// unrelated lanes; each result lands in its input slot. With
/// [`Parallelism::Sequential`] (or a single item) the pool is never
/// touched. Items here are coarse tasks (cells, chunks), so the
/// adaptive cutoff does **not** apply.
///
/// # Panics
///
/// Propagates the first panic of any lane.
pub fn ordered_map<T, R, F>(items: &[T], parallelism: Parallelism, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let lanes = parallelism.workers(items.len());
    if lanes <= 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    let slots = LaneSlice::new(&mut out);
    run_lanes(lanes, &|_lane| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let result = f(item);
        // SAFETY: `i` came from fetch_add, so exactly one lane owns it.
        unsafe { *slots.get_mut(i) = Some(result) };
    });
    out.into_iter()
        .map(|slot| slot.expect("every slot filled by the pool"))
        .collect()
}

/// Runs `f(index, &mut item)` over every item, splitting the slice into
/// one contiguous chunk per lane. Chunks are disjoint, so mutation is
/// race-free and the outcome is identical to a sequential loop whenever
/// `f`'s effect on an item depends only on that item and its index.
///
/// Items here are coarse tasks (whole shards), so the adaptive cutoff
/// does **not** apply; [`Parallelism::Sequential`] (or a single item)
/// runs inline.
///
/// # Panics
///
/// Propagates the first panic of any lane.
pub fn for_each_indexed_mut<T, F>(items: &mut [T], parallelism: Parallelism, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let lanes = parallelism.workers(items.len());
    if lanes <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }

    let len = items.len();
    let chunk_len = len.div_ceil(lanes);
    let slots = LaneSlice::new(items);
    run_lanes(lanes, &|lane| {
        let start = lane * chunk_len;
        if start >= len {
            return;
        }
        let end = (start + chunk_len).min(len);
        // SAFETY: lane ranges are disjoint by construction.
        let chunk = unsafe { slots.range_mut(start, end) };
        for (off, item) in chunk.iter_mut().enumerate() {
            f(start + off, item);
        }
    });
}

/// Computes `f(i)` for every `i in 0..len` on the pool and returns the
/// results in index order.
///
/// Indices are split into one contiguous chunk per lane (like
/// [`for_each_indexed_mut`]), so the output is identical to the
/// sequential `(0..len).map(f).collect()` whenever `f(i)` depends only
/// on `i` and shared immutable state. Below [`par_cutoff`] items (or
/// with [`Parallelism::Sequential`]) the sequential loop runs directly.
///
/// # Panics
///
/// Propagates the first panic of any lane.
pub fn map_indexed<R, F>(len: usize, parallelism: Parallelism, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_indexed_scratch(len, parallelism, || (), |(), i| f(i))
}

/// [`map_indexed`] with one reusable scratch value per lane.
///
/// `make_scratch` runs once per lane (once total when sequential);
/// `f(&mut scratch, i)` may freely mutate its lane's scratch between
/// items — the classic "reuse one histogram buffer per worker instead
/// of allocating per node" pattern the allocator hot loops need. Output
/// order and content are independent of the lane count as long as
/// `f`'s *result* does not depend on scratch left-overs (clear what you
/// use).
///
/// # Panics
///
/// Propagates the first panic of any lane.
pub fn map_indexed_scratch<S, R, M, F>(
    len: usize,
    parallelism: Parallelism,
    make_scratch: M,
    f: F,
) -> Vec<R>
where
    R: Send,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let lanes = effective_lanes(len, parallelism);
    if lanes <= 1 {
        let mut scratch = make_scratch();
        return (0..len).map(|i| f(&mut scratch, i)).collect();
    }

    let chunk_len = len.div_ceil(lanes);
    let mut out: Vec<Option<R>> = (0..len).map(|_| None).collect();
    let slots = LaneSlice::new(&mut out);
    run_lanes(lanes, &|lane| {
        let start = lane * chunk_len;
        if start >= len {
            return;
        }
        let end = (start + chunk_len).min(len);
        // SAFETY: lane ranges are disjoint by construction.
        let chunk = unsafe { slots.range_mut(start, end) };
        let mut scratch = make_scratch();
        for (off, slot) in chunk.iter_mut().enumerate() {
            *slot = Some(f(&mut scratch, start + off));
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every slot filled by the pool"))
        .collect()
}

/// A chunk size for the chunked sweeps that keeps the scored snapshots
/// fresh while leaving each barrier phase enough work to amortise.
///
/// Derived from the pool size and the input length — roughly four
/// chunks per lane per sweep. A phase on the persistent pool costs a
/// couple of mutex hand-offs (microseconds), so chunks no longer need
/// to amortise a thread spawn; the floor exists only so the commit
/// walk's snapshots don't go stale faster than they are produced, and
/// the ceiling bounds how far a snapshot can drift from the live state
/// (stale commits rescan inline, so smaller ceilings trade barrier
/// count against rescan count, never correctness).
pub fn scan_chunk_size(len: usize, parallelism: Parallelism) -> usize {
    let workers = parallelism.workers(len).max(1);
    len.div_ceil(workers * 4).clamp(256, 8192)
}

/// Chunked *parallel score → sequential commit* over `len` work items:
/// the deterministic-parallel pattern behind the allocator hot loops.
///
/// Greedy allocation sweeps (label propagation, FM refinement, the
/// TxAllo objective walk) are sequential by nature — each committed move
/// changes the state later decisions read. What *is* embarrassingly
/// parallel is the per-item scoring scan (neighbour histograms, gain
/// vectors). This helper splits the items into chunks; for each chunk it
/// runs `score(&mut scratch, &state, i)` on the pool against an
/// immutable snapshot of the state, then replays
/// `commit(&mut state, i, scored)` **sequentially in input order** on
/// the calling thread. A commit that detects its score is stale (state
/// it depends on changed earlier in the chunk) simply rescores inline —
/// the result is *identical* to the fully sequential sweep, only the
/// scan cost is spread over lanes.
///
/// Scratch values and the score-slot arena persist across every chunk
/// of the sweep (no per-chunk allocation). Below [`par_cutoff`] items
/// (or with a single lane) the scan-and-commit runs inline per item.
///
/// For sweeps whose scored payload is a variable-length slice (label
/// histograms, per-part gain vectors), use
/// [`chunked_scan_commit_slices`] — it stores payloads in one flat
/// arena per lane instead of per-item allocations.
///
/// # Panics
///
/// Propagates the first panic of any lane, and panics if `len > 0`
/// with a zero `chunk_size`.
pub fn chunked_scan_commit<St, Sc, T, M, Score, Commit>(
    state: &mut St,
    len: usize,
    chunk_size: usize,
    parallelism: Parallelism,
    make_scratch: M,
    score: Score,
    mut commit: Commit,
) where
    St: Sync,
    Sc: Send,
    T: Send,
    M: Fn() -> Sc + Sync,
    Score: Fn(&mut Sc, &St, usize) -> T + Sync,
    Commit: FnMut(&mut St, usize, T),
{
    chunked_scan_commit_slices(
        state,
        len,
        chunk_size,
        parallelism,
        make_scratch,
        |scratch, st, i, _payload: &mut Vec<()>| score(scratch, st, i),
        |st, i, scored, _payload| commit(st, i, scored),
    );
}

/// Per-lane persistent storage for [`chunked_scan_commit_slices`]: the
/// flat payload arena plus the span/tag index of the chunk in flight.
struct Lane<E, T, Sc> {
    arena: Vec<E>,
    spans: Vec<(u32, u32)>,
    tags: Vec<Option<T>>,
    scratch: Option<Sc>,
}

/// [`chunked_scan_commit`] where each item's scored payload is a
/// variable-length slice of `E`s, appended to the scoring lane's **flat
/// arena** (one per lane, preallocated once and reused across every
/// chunk of the sweep — never a `Vec` per item).
///
/// `score(&mut scratch, &state, i, &mut arena)` appends item `i`'s
/// payload to `arena` and returns a small tag (move stamps, skip
/// markers); `commit(&mut state, i, tag, payload)` receives the tag and
/// the payload slice, in input order on the calling thread. A commit
/// that detects staleness rescans into its own live buffer — the
/// payload slice is immutable.
///
/// # Panics
///
/// Propagates the first panic of any lane, and panics if `len > 0`
/// with a zero `chunk_size`.
pub fn chunked_scan_commit_slices<St, E, T, Sc, M, Score, Commit>(
    state: &mut St,
    len: usize,
    chunk_size: usize,
    parallelism: Parallelism,
    make_scratch: M,
    score: Score,
    mut commit: Commit,
) where
    St: Sync,
    E: Send,
    Sc: Send,
    T: Send,
    M: Fn() -> Sc + Sync,
    Score: Fn(&mut Sc, &St, usize, &mut Vec<E>) -> T + Sync,
    Commit: FnMut(&mut St, usize, T, &[E]),
{
    if len == 0 {
        return;
    }
    let lanes = effective_lanes(len, parallelism);
    if lanes <= 1 {
        let mut scratch = make_scratch();
        let mut payload: Vec<E> = Vec::new();
        for i in 0..len {
            payload.clear();
            let tag = score(&mut scratch, state, i, &mut payload);
            commit(state, i, tag, &payload);
        }
        return;
    }
    assert!(chunk_size > 0, "chunked scan/commit needs a nonzero chunk");

    let mut lane_state: Vec<Lane<E, T, Sc>> = (0..lanes)
        .map(|_| Lane {
            arena: Vec::new(),
            spans: Vec::new(),
            tags: Vec::new(),
            scratch: None,
        })
        .collect();

    let mut start = 0usize;
    while start < len {
        let end = (start + chunk_size).min(len);
        let m = end - start;
        let lane_chunk = m.div_ceil(lanes);
        {
            let snapshot: &St = state;
            let slots = LaneSlice::new(&mut lane_state);
            run_lanes(lanes, &|lane| {
                // SAFETY: one `Lane` per lane index — disjoint.
                let ls = unsafe { slots.get_mut(lane) };
                ls.arena.clear();
                ls.spans.clear();
                ls.tags.clear();
                let lo = lane * lane_chunk;
                if lo >= m {
                    return;
                }
                let hi = (lo + lane_chunk).min(m);
                let scratch = ls.scratch.get_or_insert_with(&make_scratch);
                for off in lo..hi {
                    let arena_start = ls.arena.len() as u32;
                    let tag = score(scratch, snapshot, start + off, &mut ls.arena);
                    ls.spans.push((arena_start, ls.arena.len() as u32));
                    ls.tags.push(Some(tag));
                }
            });
        }
        for off in 0..m {
            let lane = &mut lane_state[off / lane_chunk];
            let within = off % lane_chunk;
            let (payload_start, payload_end) = lane.spans[within];
            let tag = lane.tags[within].take().expect("item scored by its lane");
            let payload = &lane.arena[payload_start as usize..payload_end as usize];
            commit(state, start + off, tag, payload);
        }
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Force the parallel paths on for this process: unit inputs here
    /// are far below the production cutoff by design.
    fn force_parallel() {
        set_par_cutoff(1);
    }

    #[test]
    fn preserves_input_order() {
        force_parallel();
        let items: Vec<usize> = (0..64).collect();
        let doubled = ordered_map(&items, Parallelism::Threads(8), |&x| x * 2);
        assert_eq!(doubled, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        force_parallel();
        let items: Vec<u64> = (0..40).collect();
        let work = |&x: &u64| x.wrapping_mul(0x9e37_79b9).rotate_left(7);
        let seq = ordered_map(&items, Parallelism::Sequential, work);
        let par = ordered_map(&items, Parallelism::Auto, work);
        assert_eq!(seq, par);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(ordered_map(&empty, Parallelism::Auto, |&x| x).is_empty());
        assert_eq!(ordered_map(&[7u8], Parallelism::Auto, |&x| x + 1), vec![8]);
    }

    #[test]
    fn workers_are_bounded_by_items() {
        assert_eq!(Parallelism::Auto.workers(1), 1);
        assert_eq!(Parallelism::Threads(16).workers(4), 4);
        assert_eq!(Parallelism::Threads(0).workers(9), 1);
        assert_eq!(Parallelism::Sequential.workers(100), 1);
        assert_eq!(Parallelism::Auto.workers(0), 1);
    }

    #[test]
    fn cutoff_arithmetic() {
        // Below the cutoff: one lane regardless of the worker limit.
        assert_eq!(lanes_with_cutoff(100, 8, 4096), 1);
        assert_eq!(lanes_with_cutoff(4095, 8, 4096), 1);
        // At or above: the resolved worker limit wins.
        assert_eq!(lanes_with_cutoff(4096, 8, 4096), 8);
        assert_eq!(lanes_with_cutoff(10, 4, 1), 4);
        // Cutoff 0 always engages the pool.
        assert_eq!(lanes_with_cutoff(1, 4, 0), 4);
    }

    #[test]
    fn for_each_indexed_mut_touches_every_item_once() {
        force_parallel();
        for parallelism in [
            Parallelism::Sequential,
            Parallelism::Auto,
            Parallelism::Threads(3),
        ] {
            let mut items = vec![0usize; 37];
            for_each_indexed_mut(&mut items, parallelism, |i, item| *item += i + 1);
            let expected: Vec<usize> = (0..37).map(|i| i + 1).collect();
            assert_eq!(items, expected, "{parallelism:?}");
        }
    }

    #[test]
    fn for_each_indexed_mut_handles_empty() {
        let mut empty: Vec<u8> = Vec::new();
        for_each_indexed_mut(&mut empty, Parallelism::Auto, |_, _| unreachable!());
    }

    #[test]
    fn map_indexed_matches_sequential_map() {
        force_parallel();
        for parallelism in [
            Parallelism::Sequential,
            Parallelism::Auto,
            Parallelism::Threads(5),
        ] {
            let out = map_indexed(100, parallelism, |i| i * 3 + 1);
            let expected: Vec<usize> = (0..100).map(|i| i * 3 + 1).collect();
            assert_eq!(out, expected, "{parallelism:?}");
        }
        assert!(map_indexed(0, Parallelism::Auto, |i| i).is_empty());
    }

    #[test]
    fn map_indexed_scratch_reuses_one_buffer_per_worker() {
        force_parallel();
        // Each lane's scratch accumulates; the *result* only uses the
        // current item, so output must match sequential regardless.
        let out = map_indexed_scratch(
            64,
            Parallelism::Threads(4),
            Vec::<usize>::new,
            |scratch, i| {
                scratch.push(i);
                // Chunks are contiguous: the scratch always ends with i.
                assert_eq!(*scratch.last().unwrap(), i);
                i * i
            },
        );
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn chunked_scan_commit_equals_sequential_greedy_sweep() {
        force_parallel();
        // A toy greedy sweep with state feedback: item i is "accepted"
        // iff its value exceeds the running total's low bits. The scored
        // scan reads the total (stale across a chunk); commit rescores
        // when stale, so every parallelism level must agree.
        let values: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(2654435761) % 97)
            .collect();
        let run = |parallelism: Parallelism, chunk: usize| {
            let mut state: (u64, Vec<bool>) = (0, vec![false; values.len()]);
            chunked_scan_commit(
                &mut state,
                values.len(),
                chunk,
                parallelism,
                || (),
                |(), st, i| {
                    let accept = values[i] > st.0 % 50;
                    (st.0, accept)
                },
                |st, i, (seen_total, accept)| {
                    // Stale iff the total moved since scoring: rescore.
                    let accept = if st.0 == seen_total {
                        accept
                    } else {
                        values[i] > st.0 % 50
                    };
                    if accept {
                        st.0 += values[i];
                        st.1[i] = true;
                    }
                },
            );
            state
        };
        let sequential = run(Parallelism::Sequential, 1);
        for (parallelism, chunk) in [
            (Parallelism::Threads(2), 16),
            (Parallelism::Threads(4), 64),
            (Parallelism::Threads(3), 512),
            (Parallelism::Auto, 100),
        ] {
            assert_eq!(run(parallelism, chunk), sequential, "{parallelism:?}");
        }
    }

    #[test]
    fn chunked_scan_commit_slices_matches_sequential() {
        force_parallel();
        // Payload: each item's divisors; state: a running sum that makes
        // the commit order observable.
        let run = |parallelism: Parallelism, chunk: usize| {
            let mut state: (u64, Vec<Vec<u64>>) = (0, Vec::new());
            chunked_scan_commit_slices(
                &mut state,
                200,
                chunk,
                parallelism,
                || (),
                |(), _st, i, payload: &mut Vec<u64>| {
                    for d in 1..=(i as u64 + 1) {
                        if (i as u64 + 1).is_multiple_of(d) {
                            payload.push(d);
                        }
                    }
                    i as u64
                },
                |st, i, tag, payload| {
                    assert_eq!(tag, i as u64);
                    st.0 =
                        st.0.wrapping_mul(31)
                            .wrapping_add(payload.iter().sum::<u64>());
                    st.1.push(payload.to_vec());
                },
            );
            state
        };
        let sequential = run(Parallelism::Sequential, 1);
        for (parallelism, chunk) in [
            (Parallelism::Threads(2), 7),
            (Parallelism::Threads(5), 64),
            (Parallelism::Auto, 200),
        ] {
            assert_eq!(run(parallelism, chunk), sequential, "{parallelism:?}");
        }
    }

    #[test]
    fn scan_chunk_size_is_bounded() {
        assert_eq!(scan_chunk_size(0, Parallelism::Auto), 256);
        assert_eq!(scan_chunk_size(100, Parallelism::Threads(4)), 256);
        assert_eq!(scan_chunk_size(1 << 22, Parallelism::Threads(4)), 8192);
        let mid = scan_chunk_size(100_000, Parallelism::Threads(4));
        assert!((256..=8192).contains(&mid), "{mid}");
        // Four-ish chunks per lane once the clamp is inactive.
        assert_eq!(scan_chunk_size(32_768, Parallelism::Threads(4)), 2048);
    }

    #[test]
    fn pool_reports_lane_busy_and_park_time() {
        let recorder = Recorder::enabled();
        let mut pool = WorkerPool::with_recorder(recorder.clone());
        pool.run_phase(3, &|_lane| {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let counters = recorder.snapshot().counters;
        let value = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        for lane in 0..3 {
            let busy = value(&format!("pool.lane{lane}.busy_ns"));
            assert!(busy >= 1_000_000, "lane {lane} busy {busy}ns");
        }
        // Workers waited for the phase before running it.
        assert!(value("pool.lane1.park_ns") > 0);

        // A disabled pool registers nothing.
        let off = Recorder::enabled();
        let mut silent = WorkerPool::with_recorder(Recorder::disabled());
        silent.run_phase(2, &|_lane| {});
        assert!(off.snapshot().counters.is_empty());
    }

    #[test]
    fn pool_persists_across_calls() {
        force_parallel();
        thread_pool_reset();
        assert_eq!(thread_pool_workers(), 0);
        let _ = map_indexed(64, Parallelism::Threads(3), |i| i);
        let spawned = thread_pool_workers();
        assert_eq!(spawned, 2, "3 lanes = coordinator + 2 pool workers");
        for _ in 0..50 {
            let _ = map_indexed(64, Parallelism::Threads(3), |i| i);
        }
        assert_eq!(
            thread_pool_workers(),
            spawned,
            "reuse must not respawn workers"
        );
        // A wider phase grows the same pool in place.
        let _ = map_indexed(64, Parallelism::Threads(5), |i| i);
        assert_eq!(thread_pool_workers(), 4);
        thread_pool_reset();
        assert_eq!(thread_pool_workers(), 0);
    }
}
