//! The shared candidate score cache.
//!
//! Scoring a candidate means interpreting it against the simulated
//! hierarchy — by far the dominant cost of a search — and candidates
//! recur massively: different searches over the same program, different
//! move orders reaching the same text, concurrent server requests.  The
//! cache is the workspace's one single-flight [`Memo`] (the same type as
//! the server's result cache), storing measured [`Score`]s charged one
//! unit each, so its capacity counts scores.
//!
//! Keys are content addresses built by [`mbb_core::canon::cache_key`]
//! from `(kind, machine, canonical candidate program)` — the same
//! canonicalizer the server keys through, so the two layers can never
//! disagree about what "the same program" means.  Crucially the cache
//! always holds the *honest* measurement: scorer-level mutations (the
//! `swap-balance-channels` canary) distort scores after retrieval, so a
//! canary run can never poison the shared cache for honest searches in
//! the same process.

use std::sync::OnceLock;

use mbb_core::memo::{Memo, Weigh};

/// One candidate's measured balance, as the search scores it.
#[derive(Clone, Debug, PartialEq)]
pub struct Score {
    /// Bytes per flop on each channel (register↔L1 first, memory last).
    pub bytes_per_flop: Vec<f64>,
    /// Bytes entering each channel.
    pub channel_bytes: Vec<u64>,
    /// Flops executed.
    pub flops: u64,
}

impl Score {
    /// The memory-channel balance (the search's primary objective).
    pub fn memory(&self) -> f64 {
        *self.bytes_per_flop.last().unwrap_or(&0.0)
    }

    /// The memory-channel traffic (the deterministic tie-breaker).
    pub fn memory_bytes(&self) -> u64 {
        *self.channel_bytes.last().unwrap_or(&0)
    }
}

/// Every score is charged one unit: the capacity counts scores.
impl Weigh for Score {
    fn weight(&self) -> u64 {
        1
    }
}

/// The sharded single-flight score cache.
pub type ScoreCache = Memo<Score>;

/// Capacity of the process-wide cache ([`global`]): scores are a few
/// hundred bytes each, so 64Ki entries stay well under the server's
/// result-cache budget.
const GLOBAL_CAPACITY: u64 = 64 * 1024;
const GLOBAL_SHARDS: usize = 8;

/// The process-wide cache concurrent searches share (the server's
/// `optimize-search` workers all score through this one).
pub fn global() -> &'static ScoreCache {
    static GLOBAL: OnceLock<ScoreCache> = OnceLock::new();
    GLOBAL.get_or_init(|| ScoreCache::new(GLOBAL_CAPACITY, GLOBAL_SHARDS))
}
