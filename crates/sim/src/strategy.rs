//! The allocation strategies under evaluation, and the registry mapping
//! them to [`EpochStrategy`] implementations.

use std::fmt;

use mosaic_core::policy::PilotPolicy;
use mosaic_partition::{HashAllocator, MetisPartitioner};
use mosaic_txallo::{GTxAllo, TxAlloConfig};
use mosaic_types::SystemParams;

use crate::engine::{AdaptiveTxAllo, EpochStrategy, MosaicStrategy, StaticStrategy};

/// One of the five allocation strategies the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Client-driven: Mosaic framework with every client running Pilot.
    Mosaic,
    /// Miner-driven: G-TxAllo recomputed on the full history each epoch.
    GTxAllo,
    /// Miner-driven: A-TxAllo incremental update on the recent window.
    ATxAllo,
    /// Miner-driven: multilevel Metis-like partitioning of the full
    /// history each epoch.
    Metis,
    /// Static hash-based allocation (`SHA256(address) mod k`).
    Random,
}

impl Strategy {
    /// All strategies, in the report order of the paper's tables.
    pub const ALL: [Strategy; 5] = [
        Strategy::Mosaic,
        Strategy::GTxAllo,
        Strategy::ATxAllo,
        Strategy::Metis,
        Strategy::Random,
    ];

    /// The display name used in tables (the paper labels Mosaic's
    /// measurements "Pilot").
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Mosaic => "Pilot",
            Strategy::GTxAllo => "G-TxAllo",
            Strategy::ATxAllo => "A-TxAllo",
            Strategy::Metis => "Metis",
            Strategy::Random => "Random",
        }
    }

    /// `true` for the client-driven strategy (allocation via migration
    /// requests on the beacon chain rather than miner recomputation).
    pub fn is_client_driven(&self) -> bool {
        matches!(self, Strategy::Mosaic)
    }

    /// `true` for strategies that never react to transaction patterns.
    pub fn is_static(&self) -> bool {
        matches!(self, Strategy::Random)
    }

    /// The registry: resolves this strategy to its [`EpochStrategy`]
    /// implementation for one experiment cell. This is the *only* place
    /// the five paper strategies are matched — the epoch protocol itself
    /// ([`crate::AllocationCore`]) is strategy-agnostic, so adding a
    /// sixth mechanism means implementing [`EpochStrategy`] and (if it
    /// should appear in the tables) adding one arm here.
    pub fn build(&self, params: SystemParams) -> Box<dyn EpochStrategy> {
        let txallo_cfg = TxAlloConfig::with_eta(params.eta());
        match self {
            Strategy::Mosaic => Box::new(MosaicStrategy::new(params, PilotPolicy)),
            Strategy::GTxAllo => Box::new(GTxAllo::new(txallo_cfg)),
            Strategy::ATxAllo => Box::new(AdaptiveTxAllo::new(txallo_cfg)),
            Strategy::Metis => Box::new(MetisPartitioner::default()),
            Strategy::Random => Box::new(StaticStrategy::new(HashAllocator::chainspace())),
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Strategy {
    type Err = mosaic_types::Error;

    /// Parses a table display name (`"Pilot"`, `"G-TxAllo"`, …), the
    /// inverse of [`Strategy::name`]. `"Mosaic"` is accepted as an alias
    /// for the client-driven strategy.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "Mosaic" {
            return Ok(Strategy::Mosaic);
        }
        Strategy::ALL
            .into_iter()
            .find(|strategy| strategy.name() == s)
            .ok_or_else(|| {
                let valid: Vec<&str> = Strategy::ALL.iter().map(|s| s.name()).collect();
                mosaic_types::Error::ParseScenario {
                    line: 0,
                    message: format!("unknown strategy {s:?}; valid names: {valid:?}"),
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Strategy::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Strategy::ALL.len());
    }

    #[test]
    fn names_parse_back() {
        for strategy in Strategy::ALL {
            assert_eq!(strategy.name().parse::<Strategy>().unwrap(), strategy);
        }
        assert_eq!("Mosaic".parse::<Strategy>().unwrap(), Strategy::Mosaic);
        let err = "NoSuchStrategy".parse::<Strategy>().unwrap_err();
        assert!(err.to_string().contains("unknown strategy"));
    }

    #[test]
    fn classification() {
        assert!(Strategy::Mosaic.is_client_driven());
        assert!(!Strategy::GTxAllo.is_client_driven());
        assert!(Strategy::Random.is_static());
        assert!(!Strategy::Mosaic.is_static());
        assert_eq!(Strategy::Mosaic.to_string(), "Pilot");
    }

    #[test]
    fn registry_agrees_with_enum_metadata() {
        let params = mosaic_types::SystemParams::builder()
            .shards(4)
            .tau(10)
            .build()
            .unwrap();
        for strategy in Strategy::ALL {
            let built = strategy.build(params);
            assert_eq!(
                built.is_client_driven(),
                strategy.is_client_driven(),
                "{strategy}: registry kind mismatch"
            );
            assert_eq!(built.name(), strategy.name(), "{strategy}: name mismatch");
        }
    }
}
