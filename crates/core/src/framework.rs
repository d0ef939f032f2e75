//! The Mosaic framework: epoch orchestration over a client population.
//!
//! This is the "assembles final allocation results from many migration
//! requests" part of the system: every epoch, clients independently run
//! their policy (Pilot by default) on their local state plus the public
//! workload vector, submit migration requests to the beacon chain, the
//! beacon commits the best `λ`, and reconfiguration applies them.
//!
//! [`MosaicFramework::run_epoch`] bundles the five §V-A steps for
//! standalone use; the experiment engine (`mosaic-sim`'s
//! `MosaicStrategy`) drives the same steps through the finer-grained
//! [`MosaicFramework::set_expectations`] / [`MosaicFramework::propose`] /
//! [`MosaicFramework::observe_epoch`] hooks so that ledger processing
//! stays inside the strategy-agnostic epoch pipeline.

use std::time::Duration;

use mosaic_chain::{EpochOutcome, Ledger};
use mosaic_metrics::{EpochLoad, LoadParams};
use mosaic_telemetry::DurationStats;
use mosaic_types::hash::{sha256_prefix_u64, FnvHashMap};
use mosaic_types::{AccountId, MigrationRequest, SystemParams, Transaction};

use crate::client::Client;
use crate::interaction::CounterpartySet;
use crate::policy::{ClientPolicy, PilotPolicy, PolicyContext};

/// Per-epoch framework statistics (the client-side half of Table IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameworkReport {
    /// Clients that ran their policy this epoch.
    pub decisions: usize,
    /// Migration requests proposed to the beacon chain.
    pub proposed: usize,
    /// Mean wall-clock time of one client decision.
    pub mean_decision_time: Duration,
    /// Mean bytes of input per deciding client (counterparty sets + Ω).
    pub mean_input_bytes: f64,
}

/// The client population under the Mosaic framework.
///
/// # Example
///
/// ```
/// use mosaic_chain::Ledger;
/// use mosaic_core::MosaicFramework;
/// use mosaic_types::{AccountShardMap, SystemParams};
///
/// # fn main() -> Result<(), mosaic_types::Error> {
/// let params = SystemParams::builder().shards(2).tau(10).build()?;
/// let mut ledger = Ledger::new(params, AccountShardMap::new(2), 4)?;
/// let mut mosaic = MosaicFramework::new(params);
/// let (outcome, report) = mosaic.run_epoch(&mut ledger, &[]);
/// assert_eq!(outcome.load.total_txs(), 0);
/// assert_eq!(report.proposed, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MosaicFramework<P = PilotPolicy> {
    params: SystemParams,
    clients: FnvHashMap<AccountId, Client>,
    expectation_seed: u64,
    policy: P,
}

impl MosaicFramework<PilotPolicy> {
    /// Creates an empty client population running the reference policy
    /// (Pilot).
    pub fn new(params: SystemParams) -> Self {
        MosaicFramework::with_policy(params, PilotPolicy)
    }
}

impl<P: ClientPolicy> MosaicFramework<P> {
    /// Creates an empty client population with a custom policy — clients
    /// in Mosaic are free to run any allocation algorithm (§I).
    pub fn with_policy(params: SystemParams, policy: P) -> Self {
        MosaicFramework {
            params,
            clients: FnvHashMap::default(),
            expectation_seed: 0x6d6f_7361_6963, // "mosaic"
            policy,
        }
    }

    /// The policy clients run.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Number of known clients.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Looks up a client's state.
    pub fn client(&self, account: AccountId) -> Option<&Client> {
        self.clients.get(&account)
    }

    /// Feeds committed transactions into the affected clients' histories
    /// (both endpoints), creating clients on first sight.
    pub fn observe_epoch(&mut self, txs: &[Transaction]) {
        for tx in txs {
            for account in tx.accounts() {
                self.clients
                    .entry(account)
                    .or_insert_with(|| Client::new(account))
                    .observe(tx);
            }
        }
    }

    /// Distributes expected-future knowledge for the upcoming epoch: each
    /// client learns an (approximately) β-fraction sample of its own
    /// upcoming transactions, selected deterministically per transaction.
    /// With `β = 0` this clears all expectations.
    pub fn set_expectations(&mut self, future: &[Transaction]) {
        for client in self.clients.values_mut() {
            client.clear_expected();
        }
        let beta = self.params.beta();
        if beta <= 0.0 {
            return;
        }
        let threshold = (beta * u64::MAX as f64) as u64;
        let mut sampled: FnvHashMap<AccountId, CounterpartySet> = FnvHashMap::default();
        for tx in future {
            if tx.is_self_transfer() {
                continue;
            }
            // Deterministic per-transaction coin flip.
            let mut seed_bytes = [0u8; 16];
            seed_bytes[..8].copy_from_slice(&tx.id.as_u64().to_be_bytes());
            seed_bytes[8..].copy_from_slice(&self.expectation_seed.to_be_bytes());
            if sha256_prefix_u64(&seed_bytes) <= threshold {
                sampled.entry(tx.from).or_default().add(tx.to, 1);
                sampled.entry(tx.to).or_default().add(tx.from, 1);
            }
        }
        for (account, expected) in sampled {
            self.clients
                .entry(account)
                .or_insert_with(|| Client::new(account))
                .set_expected(expected);
        }
    }

    /// Runs every client's Pilot against the current ϕ and the published
    /// `Ω`, submitting the resulting migration requests to the ledger's
    /// beacon chain. Returns the framework report.
    pub fn propose(&mut self, ledger: &mut Ledger, omega: &[f64]) -> FrameworkReport {
        let epoch = ledger.current_epoch();
        let mut stats = DurationStats::new();
        let mut proposed = 0usize;
        let mut input_bytes = 0usize;

        // Deterministic order.
        let mut accounts: Vec<AccountId> = self.clients.keys().copied().collect();
        accounts.sort_unstable();

        let mut requests = Vec::new();
        for account in accounts {
            let client = &self.clients[&account];
            input_bytes += client.input_size_bytes(self.params.shards());
            let (request, elapsed) = mosaic_metrics::timing::time_it(|| {
                let psi = client.psi(ledger.phi(), self.params.beta());
                let current = ledger.phi().shard_of(account);
                let (target, gain) = self.policy.choose(&PolicyContext {
                    psi: &psi,
                    omega,
                    current,
                    eta: self.params.eta(),
                });
                if target == current {
                    None
                } else {
                    Some(
                        MigrationRequest::new(account, current, target, epoch, gain)
                            .expect("target differs from current"),
                    )
                }
            });
            stats.record(elapsed);
            if let Some(mr) = request {
                requests.push(mr);
                proposed += 1;
            }
        }
        for mr in requests {
            ledger.submit_migration(mr);
        }

        FrameworkReport {
            decisions: stats.count() as usize,
            proposed,
            mean_decision_time: stats.mean(),
            mean_input_bytes: if stats.count() == 0 {
                0.0
            } else {
                input_bytes as f64 / stats.count() as f64
            },
        }
    }

    /// One full Mosaic epoch against `ledger`, following §V-A's protocol:
    ///
    /// 1. the oracle publishes `Ω` from the upcoming epoch's mempool
    ///    (`window`) under the current ϕ;
    /// 2. clients receive their β-sample of expected transactions;
    /// 3. every client runs Pilot and proposes migrations;
    /// 4. the ledger commits ≤ λ requests, reconfigures, and processes
    ///    the window;
    /// 5. clients observe the committed transactions.
    pub fn run_epoch(
        &mut self,
        ledger: &mut Ledger,
        window: &[Transaction],
    ) -> (EpochOutcome, FrameworkReport) {
        // Step 1: mempool-derived workload distribution (§V-A).
        let lambda = self.params.lambda(window.len());
        let omega = EpochLoad::compute(
            window,
            LoadParams {
                shards: self.params.shards(),
                eta: self.params.eta(),
                lambda,
            },
            |a| ledger.phi().shard_of(a),
        )
        .workload_vector();

        // Step 2: future knowledge.
        self.set_expectations(window);

        // Step 3: propose.
        let report = self.propose(ledger, &omega);

        // Step 4: commit + reconfigure + process.
        let outcome = ledger.process_epoch(window);

        // Step 5: observe.
        self.observe_epoch(window);

        (outcome, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_types::{AccountShardMap, BlockHeight, ShardId, TxId};

    fn tx(id: u64, from: u64, to: u64) -> Transaction {
        Transaction::new(
            TxId::new(id),
            AccountId::new(from),
            AccountId::new(to),
            BlockHeight::new(id),
        )
    }

    fn params(k: u16) -> SystemParams {
        SystemParams::builder().shards(k).tau(10).build().unwrap()
    }

    fn ledger_with(k: u16, pairs: &[(u64, u16)]) -> Ledger {
        let mut phi = AccountShardMap::new(k);
        for &(a, s) in pairs {
            phi.assign(AccountId::new(a), ShardId::new(s)).unwrap();
        }
        Ledger::new(params(k), phi, usize::from(k) * 2).unwrap()
    }

    #[test]
    fn observe_creates_clients_for_both_endpoints() {
        let mut m = MosaicFramework::new(params(2));
        m.observe_epoch(&[tx(0, 1, 2), tx(1, 2, 3)]);
        assert_eq!(m.client_count(), 3);
        assert_eq!(m.client(AccountId::new(2)).unwrap().history().total(), 2);
    }

    /// Builds one epoch's window: 10 txs between 1 and 2, 15 between 2
    /// and 3. Account 2 is anchored to shard 1 by its heavier traffic
    /// with 3, so only account 1 should migrate.
    fn anchored_window(epoch: u64) -> Vec<Transaction> {
        let base = epoch * 25;
        let mut w: Vec<Transaction> = (0..10).map(|i| tx(base + i, 1, 2)).collect();
        w.extend((10..25).map(|i| tx(base + i, 2, 3)));
        w
    }

    #[test]
    fn repeated_interactions_drive_migration() {
        let mut ledger = ledger_with(2, &[(1, 0), (2, 1), (3, 1)]);
        let mut m = MosaicFramework::new(params(2));

        // Epoch 0: history accumulates (no proposals yet — no clients).
        let (out0, rep0) = m.run_epoch(&mut ledger, &anchored_window(0));
        assert_eq!(rep0.decisions, 0);
        assert_eq!(out0.load.cross_txs(), 10);

        // Epoch 1: account 1 follows its counterparty into shard 1.
        let (out1, rep1) = m.run_epoch(&mut ledger, &anchored_window(1));
        assert!(rep1.proposed >= 1, "a migration should be proposed");
        assert!(!out1.committed.is_empty(), "a migration should commit");
        assert_eq!(
            ledger.phi().shard_of(AccountId::new(1)),
            ledger.phi().shard_of(AccountId::new(2)),
            "pair should be co-located after migration"
        );
        assert_eq!(out1.load.cross_txs(), 0);
    }

    /// The paper's simultaneous-decision model (§V-A sets ϕ(A_Tx − {ν})
    /// to the *current* allocation for everyone) permits a perfectly
    /// symmetric pair to swap shards and keep oscillating — §VII-C leaves
    /// client coordination as future work. This test documents the
    /// behaviour rather than hiding it.
    #[test]
    fn symmetric_pair_may_swap_without_coordination() {
        let mut ledger = ledger_with(2, &[(1, 0), (2, 1)]);
        let mut m = MosaicFramework::new(params(2));
        let w0: Vec<Transaction> = (0..10).map(|i| tx(i, 1, 2)).collect();
        let _ = m.run_epoch(&mut ledger, &w0);
        let w1: Vec<Transaction> = (10..20).map(|i| tx(i, 1, 2)).collect();
        let (out1, rep1) = m.run_epoch(&mut ledger, &w1);
        // Both propose with equal gain, both commit: the pair swaps.
        assert_eq!(rep1.proposed, 2);
        assert_eq!(out1.committed.len(), 2);
        assert_ne!(
            ledger.phi().shard_of(AccountId::new(1)),
            ledger.phi().shard_of(AccountId::new(2))
        );
    }

    #[test]
    fn expectations_respect_beta_zero() {
        let mut m = MosaicFramework::new(params(2));
        m.observe_epoch(&[tx(0, 1, 2)]);
        m.set_expectations(&[tx(1, 1, 3)]);
        assert!(m.client(AccountId::new(1)).unwrap().expected().is_empty());
    }

    #[test]
    fn expectations_with_beta_one_cover_all_txs() {
        let p = params(2).with_beta(1.0).unwrap();
        let mut m = MosaicFramework::new(p);
        m.set_expectations(&[tx(0, 1, 2), tx(1, 1, 3)]);
        let c1 = m.client(AccountId::new(1)).unwrap();
        assert_eq!(c1.expected().total(), 2);
        // Clients created by expectations alone (new accounts with plans).
        assert!(m.client(AccountId::new(3)).is_some());
    }

    #[test]
    fn expectations_with_fractional_beta_sample_subset() {
        let p = params(2).with_beta(0.5).unwrap();
        let mut m = MosaicFramework::new(p);
        let future: Vec<Transaction> = (0..200).map(|i| tx(i, 1, 2)).collect();
        m.set_expectations(&future);
        let total = m.client(AccountId::new(1)).unwrap().expected().total();
        assert!(
            total > 50 && total < 150,
            "sample size {total} for beta 0.5"
        );
    }

    #[test]
    fn report_accounts_input_bytes() {
        let mut ledger = ledger_with(2, &[(1, 0), (2, 1)]);
        let mut m = MosaicFramework::new(params(2));
        let w: Vec<Transaction> = (0..4).map(|i| tx(i, 1, 2)).collect();
        let _ = m.run_epoch(&mut ledger, &w);
        let (_, rep) = m.run_epoch(&mut ledger, &w);
        assert_eq!(rep.decisions, 2);
        // Header (16) + 1 counterparty (12) + omega (2*8) = 44 per client.
        assert!((rep.mean_input_bytes - 44.0).abs() < 1e-9);
        assert!(rep.mean_decision_time > Duration::ZERO);
    }

    #[test]
    fn run_epoch_is_deterministic() {
        let run = || {
            let mut ledger = ledger_with(4, &[(1, 0), (2, 1), (3, 2), (4, 3)]);
            let mut m = MosaicFramework::new(params(4));
            let mut summary = Vec::new();
            for e in 0..5u64 {
                let w: Vec<Transaction> = (0..20)
                    .map(|i| tx(e * 20 + i, (i % 4) + 1, ((i + 1) % 4) + 1))
                    .collect();
                let (out, rep) = m.run_epoch(&mut ledger, &w);
                summary.push((out.committed.len(), rep.proposed, out.load.cross_txs()));
            }
            summary
        };
        assert_eq!(run(), run());
    }
}
