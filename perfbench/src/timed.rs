//! A delegating [`EpochStrategy`] that times every call into the
//! wrapped strategy and changes nothing else.

use std::time::{Duration, Instant};

use mosaic_chain::Ledger;
use mosaic_sim::engine::History;
use mosaic_sim::{EpochCtx, EpochDecision, EpochStrategy};
use mosaic_types::{AccountShardMap, Transaction};

/// Time spent inside one strategy, per trait method.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StrategyTimes {
    /// `observe_training` (client history preload).
    pub observe_training: Duration,
    /// `after_epoch` (clients fold the committed window).
    pub after_epoch: Duration,
    /// `initial_allocation`, including its training-graph build.
    pub initial: Duration,
    /// `before_epoch`, summed over epochs.
    pub before_epoch: Duration,
    /// Number of `before_epoch` calls.
    pub epochs: usize,
}

impl StrategyTimes {
    /// Everything spent inside the strategy.
    pub fn total(&self) -> Duration {
        self.observe_training + self.after_epoch + self.initial + self.before_epoch
    }

    /// Mean `before_epoch` time, the per-epoch allocation cost.
    pub fn epoch_mean(&self) -> Duration {
        self.before_epoch
            .checked_div(self.epochs.max(1) as u32)
            .unwrap_or_default()
    }
}

/// Wraps a strategy and accumulates [`StrategyTimes`].
pub struct Timed {
    inner: Box<dyn EpochStrategy>,
    /// Time spent so far.
    pub times: StrategyTimes,
}

impl Timed {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn EpochStrategy>) -> Self {
        Timed {
            inner,
            times: StrategyTimes::default(),
        }
    }
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed();
    out
}

impl EpochStrategy for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_client_driven(&self) -> bool {
        self.inner.is_client_driven()
    }

    fn observe_training(&mut self, chunk: &[Transaction]) {
        let inner = &mut self.inner;
        timed(&mut self.times.observe_training, || {
            inner.observe_training(chunk)
        })
    }

    fn initial_allocation(
        &mut self,
        history: &mut History<'_>,
        k: u16,
    ) -> (AccountShardMap, Duration) {
        let inner = &mut self.inner;
        timed(&mut self.times.initial, || {
            inner.initial_allocation(history, k)
        })
    }

    fn consumes_history(&self) -> bool {
        self.inner.consumes_history()
    }

    fn needs_training_graph(&self) -> bool {
        self.inner.needs_training_graph()
    }

    fn before_epoch(&mut self, ledger: &mut Ledger, ctx: EpochCtx<'_, '_, '_>) -> EpochDecision {
        self.times.epochs += 1;
        let inner = &mut self.inner;
        timed(&mut self.times.before_epoch, || {
            inner.before_epoch(ledger, ctx)
        })
    }

    fn after_epoch(&mut self, window: &[Transaction]) {
        let inner = &mut self.inner;
        timed(&mut self.times.after_epoch, || inner.after_epoch(window))
    }
}
