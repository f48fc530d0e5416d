//! A thread-local odometer of simulated access events.
//!
//! The experiment runner wants per-job throughput (events/second) without
//! threading a counter through every simulation entry point, and without a
//! shared atomic that parallel jobs would contend on.  Every demand access
//! consumed by a [`crate::Hierarchy`] ticks the current thread's counter;
//! a job runner reads [`so_far`] before and after a job **on the thread
//! that executes it** and subtracts.
//!
//! Counts only ever grow (wrapping at `u64::MAX`, i.e. never in practice),
//! so deltas are race-free within a thread by construction.

use std::cell::Cell;

thread_local! {
    static SIM_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Ticks the current thread's event counter (one demand access).
#[inline]
pub(crate) fn record() {
    record_n(1)
}

/// Ticks the current thread's event counter by `n` at once — one
/// thread-local access per block instead of per event, which is what makes
/// the batched sink path cheap.
#[inline]
pub(crate) fn record_n(n: u64) {
    SIM_EVENTS.with(|c| c.set(c.get().wrapping_add(n)));
    // Mirror into the span-attribution odometer; inert (one thread-local
    // load) unless this thread has an mbb-obs Full collector live.
    mbb_obs::tick_accesses(n);
}

/// Total simulated access events observed on this thread so far.
pub fn so_far() -> u64 {
    SIM_EVENTS.with(Cell::get)
}

/// A snapshot of this thread's full simulation odometer — the events
/// counter above plus the per-level byte/miss/writeback counters the
/// hierarchy ticks into `mbb-obs`.  Span attribution diffs two of these;
/// exposed here so callers that already depend on `mbb-memsim` need not
/// name the obs crate for a plain reading.
pub fn snapshot() -> mbb_obs::Counters {
    mbb_obs::snapshot()
}

#[cfg(test)]
mod tests {
    use crate::cache::CacheConfig;
    use crate::hierarchy::Hierarchy;
    use mbb_ir::trace::{Access, AccessSink};

    #[test]
    fn accesses_tick_the_thread_counter() {
        let before = super::so_far();
        let mut h = Hierarchy::new(vec![CacheConfig::write_back("L1", 256, 32, 2)]);
        for k in 0..100u64 {
            h.access(Access::read(k * 8, 8));
        }
        assert_eq!(super::so_far() - before, 100);
    }

    #[test]
    fn counters_are_per_thread() {
        let before = super::so_far();
        std::thread::spawn(|| {
            let mut h = Hierarchy::new(vec![CacheConfig::write_back("L1", 256, 32, 2)]);
            h.access(Access::read(0, 8));
            assert!(super::so_far() >= 1);
        })
        .join()
        .unwrap();
        assert_eq!(super::so_far(), before, "other thread's events must not leak here");
    }
}
