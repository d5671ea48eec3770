//! Tier sizing and placement policy knobs.

use crate::TierError;

/// Initial placement of a shard when it is added to the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardTier {
    /// Resident in RAM as a Theorem-3 [`iqs_core::ChunkedRange`].
    Hot,
    /// On the simulated disk as a Section-8
    /// [`iqs_em::EmWeightedRangeSampler`], served through the block
    /// cache.
    Cold,
}

impl ShardTier {
    /// The tier name as it appears in metrics labels (`"hot"`/`"cold"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ShardTier::Hot => "hot",
            ShardTier::Cold => "cold",
        }
    }
}

/// Sizing and policy configuration for a [`crate::TieredIndex`].
///
/// The cold tier is one shared [`iqs_em::EmMachine`]: every cold shard's
/// arrays fault through the same `cold_cache_blocks × block_words`-word
/// buffer pool, so the block budget bounds the cold tier's total RAM
/// footprint no matter how many shards are cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Words per EM block (`B` in the I/O model).
    pub block_words: usize,
    /// Block frames in the cold tier's cache (`M = cold_cache_blocks ·
    /// block_words` words). Must be at least 2 — the EM model needs
    /// `M ≥ 2B`.
    pub cold_cache_blocks: usize,
    /// Maximum total elements resident across hot shards. Maintenance
    /// demotes the least-accessed hot shards until the budget holds.
    pub hot_element_budget: usize,
    /// Accesses within one maintenance window that qualify a cold shard
    /// for promotion to the hot tier.
    pub promote_accesses: u64,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            block_words: 256,
            cold_cache_blocks: 16,
            hot_element_budget: 1 << 20,
            promote_accesses: 64,
        }
    }
}

impl TierConfig {
    /// Checks the EM-model and policy constraints.
    ///
    /// # Errors
    /// [`TierError::InvalidConfig`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), TierError> {
        if self.block_words == 0 {
            return Err(TierError::InvalidConfig("block_words must be >= 1"));
        }
        if self.cold_cache_blocks < 2 {
            return Err(TierError::InvalidConfig("cold_cache_blocks must be >= 2 (M >= 2B)"));
        }
        if self.promote_accesses == 0 {
            return Err(TierError::InvalidConfig("promote_accesses must be >= 1"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(TierConfig::default().validate(), Ok(()));
    }

    #[test]
    fn constraints_are_named() {
        let bad = TierConfig { block_words: 0, ..TierConfig::default() };
        assert!(
            matches!(bad.validate(), Err(TierError::InvalidConfig(m)) if m.contains("block_words"))
        );
        let bad = TierConfig { cold_cache_blocks: 1, ..TierConfig::default() };
        assert!(
            matches!(bad.validate(), Err(TierError::InvalidConfig(m)) if m.contains("M >= 2B"))
        );
        let bad = TierConfig { promote_accesses: 0, ..TierConfig::default() };
        assert!(
            matches!(bad.validate(), Err(TierError::InvalidConfig(m)) if m.contains("promote"))
        );
    }

    #[test]
    fn tier_names_match_metric_labels() {
        assert_eq!(ShardTier::Hot.name(), "hot");
        assert_eq!(ShardTier::Cold.name(), "cold");
    }
}
