//! The one content-addressed, single-flight cache.
//!
//! The costly step everywhere is a balance measurement, and it is
//! memoised twice: the server's result cache (rendered responses, charged
//! their bytes) and the search's score cache (scores, charged one unit
//! each).  Both are a [`Memo`] keyed by [`crate::canon::cache_key`].
//!
//! * Sharded: one mutex per shard, so unrelated lookups never contend.
//! * Single-flight: concurrent misses on one key compute once; the other
//!   callers park, then read the entry.  Errors are never cached, and a
//!   waiter whose leader failed or panicked becomes the new leader.
//! * A hit returns the very `Arc` the miss produced.
//! * LRU under a weight budget ([`Weigh`]), stamped by a per-shard clock.
//!   A value heavier than a shard is served but not stored; capacity 0
//!   stores nothing but still counts.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::sync::{lock, wait_timeout};

/// What a value costs against a [`Memo`]'s capacity.
pub trait Weigh {
    /// The charge for holding this value.
    fn weight(&self) -> u64;
}

/// Per-entry bookkeeping overhead charged on top of a string's bytes
/// (key, stamp, map slot) — approximate, but it keeps a flood of tiny
/// entries from being "free".
const ENTRY_OVERHEAD: u64 = 64;

/// Rendered results are charged their bytes plus `ENTRY_OVERHEAD`.
impl Weigh for String {
    fn weight(&self) -> u64 {
        self.len() as u64 + ENTRY_OVERHEAD
    }
}

/// How long a parked waiter sleeps between `on_wait` checks.
const WAIT_SLICE: Duration = Duration::from_millis(10);

struct Entry<V> {
    val: Arc<V>,
    weight: u64,
    stamp: u64,
}

/// A key being computed right now; waiters park on the condvar.
#[derive(Default)]
struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
}

struct Shard<V> {
    entries: HashMap<u64, Entry<V>>,
    inflight: HashMap<u64, Arc<Flight>>,
    clock: u64,
    /// This shard's counters, kept under its lock.
    stats: MemoStats,
}

/// A view of a [`Memo`]'s counters, summed over its shards.  `hits`,
/// `misses` and `evictions` only grow; `entries` and `bytes` are gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups served from a stored entry (including those that waited
    /// on another caller's compute).
    pub hits: u64,
    /// Lookups that led a compute.
    pub misses: u64,
    /// Entries evicted to stay under capacity.
    pub evictions: u64,
    /// Live entries.
    pub entries: u64,
    /// Weight charged against the capacity (bytes, for rendered results).
    pub bytes: u64,
}

/// The sharded, single-flight, content-addressed LRU cache.
pub struct Memo<V> {
    shards: Vec<Mutex<Shard<V>>>,
    shard_budget: u64,
}

impl<V: Weigh> Memo<V> {
    /// A cache holding at most `capacity` weight, split evenly over
    /// `shards` locks.
    pub fn new(capacity: u64, shards: usize) -> Memo<V> {
        let n = shards.max(1);
        let shard = || {
            let (entries, inflight) = (HashMap::new(), HashMap::new());
            Mutex::new(Shard { entries, inflight, clock: 0, stats: MemoStats::default() })
        };
        Memo { shards: (0..n).map(|_| shard()).collect(), shard_budget: capacity / n as u64 }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard<V>> {
        // High bits pick the shard; low bits already vary per key.
        &self.shards[(key >> 32) as usize % self.shards.len()]
    }

    /// Returns the value for `key`, running `compute` to fill it on a
    /// miss; the boolean is `true` on a hit.  A caller that finds the key
    /// in flight parks until the leader finishes, calling `on_wait` every
    /// few milliseconds so it can give up (an expired deadline) with that
    /// error.  Errors are returned and never cached.
    pub fn get_or_compute<E>(
        &self,
        key: u64,
        mut on_wait: impl FnMut() -> Result<(), E>,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        let shard = self.shard(key);
        loop {
            let flight = {
                let mut guard = lock(shard);
                let s = &mut *guard;
                if let Some(e) = s.entries.get_mut(&key) {
                    s.clock += 1;
                    e.stamp = s.clock;
                    s.stats.hits += 1;
                    return Ok((Arc::clone(&e.val), true));
                }
                match s.inflight.get(&key) {
                    Some(f) => Arc::clone(f),
                    None => {
                        let flight = Arc::new(Flight::default());
                        s.inflight.insert(key, Arc::clone(&flight));
                        s.stats.misses += 1;
                        drop(guard);
                        return self.lead(key, flight, compute);
                    }
                }
            };
            // Another caller is computing this key: wait for it, then loop
            // to read the entry — or to lead, if it failed or its value
            // was not stored.
            let mut done = lock(&flight.done);
            while !*done {
                on_wait()?;
                done = wait_timeout(&flight.cv, done, WAIT_SLICE);
            }
        }
    }

    /// Leader path: compute outside the shard lock; [`Retire`] publishes
    /// the value and wakes the waiters however the compute ends.
    fn lead<E>(
        &self,
        key: u64,
        flight: Arc<Flight>,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        let mut retire = Retire { memo: self, key, flight, val: None };
        let val = Arc::new(compute()?);
        retire.val = Some(Arc::clone(&val));
        Ok((val, false))
    }

    /// Stores `val` under `key` and evicts down to the shard budget.
    fn store(&self, s: &mut Shard<V>, key: u64, val: Arc<V>) {
        let weight = val.weight();
        // A value heavier than a whole shard can never fit; serve it
        // uncached rather than flushing everything else.
        if self.shard_budget == 0 || weight > self.shard_budget {
            return;
        }
        s.clock += 1;
        s.entries.insert(key, Entry { val, weight, stamp: s.clock });
        s.stats.entries += 1;
        s.stats.bytes += weight;
        while s.stats.bytes > self.shard_budget {
            let Some((&victim, _)) = s.entries.iter().min_by_key(|(_, e)| e.stamp) else {
                break;
            };
            let e = s.entries.remove(&victim).expect("victim chosen from map");
            s.stats.entries -= 1;
            s.stats.bytes -= e.weight;
            s.stats.evictions += 1;
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MemoStats {
        let mut t = MemoStats::default();
        for s in &self.shards {
            let s = lock(s).stats;
            t.hits += s.hits;
            t.misses += s.misses;
            t.evictions += s.evictions;
            t.entries += s.entries;
            t.bytes += s.bytes;
        }
        t
    }
}

/// Retires a leader's flight when dropped — after a value, an error or a
/// panic alike — storing the value if there is one and waking every
/// waiter, so a failed or panicking compute never wedges its key.
struct Retire<'a, V: Weigh> {
    memo: &'a Memo<V>,
    key: u64,
    flight: Arc<Flight>,
    val: Option<Arc<V>>,
}

impl<V: Weigh> Drop for Retire<'_, V> {
    fn drop(&mut self) {
        let mut s = lock(self.memo.shard(self.key));
        s.inflight.remove(&self.key);
        if let Some(val) = self.val.take() {
            self.memo.store(&mut s, self.key, val);
        }
        drop(s);
        *lock(&self.flight.done) = true;
        self.flight.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    type Cache = Memo<String>;

    fn no_wait() -> Result<(), String> {
        Ok(())
    }

    fn ok(s: &str) -> impl FnOnce() -> Result<String, String> + '_ {
        move || Ok(s.to_string())
    }

    #[test]
    fn second_lookup_hits_and_returns_the_same_arc() {
        let c = Cache::new(1 << 20, 4);
        let (a, hit_a) = c.get_or_compute(42, no_wait, ok("payload")).unwrap();
        let (b, hit_b) = c.get_or_compute(42, no_wait, || panic!("must not recompute")).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b), "hit must share the miss's value");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.bytes, "payload".len() as u64 + ENTRY_OVERHEAD);
    }

    #[test]
    fn errors_are_not_cached() {
        let c = Cache::new(1 << 20, 4);
        let e = c.get_or_compute(7, no_wait, || Err::<String, _>("boom".to_string()));
        assert_eq!(e.unwrap_err(), "boom");
        let (_, hit) = c.get_or_compute(7, no_wait, ok("fine")).unwrap();
        assert!(!hit, "a failed compute must not satisfy later requests");
        assert_eq!(c.stats().entries, 1);
        assert_eq!(c.stats().misses, 2, "a miss counts when a leader is elected");
    }

    #[test]
    fn lru_eviction_respects_the_weight_budget() {
        // One shard, room for about two of these entries.
        let cost = 100 + ENTRY_OVERHEAD;
        let c = Cache::new(2 * cost + 10, 1);
        let payload = "x".repeat(100);
        for key in 0..3u64 {
            c.get_or_compute(key, no_wait, ok(&payload)).unwrap();
        }
        let s = c.stats();
        assert_eq!((s.entries, s.evictions), (2, 1), "{s:?}");
        assert!(s.bytes <= 2 * cost + 10, "{s:?}");
        // Key 0 was the oldest and should be gone; 2 should hit.
        assert!(c.get_or_compute(2, no_wait, ok(&payload)).unwrap().1);
        let (_, hit0) = c.get_or_compute(0, no_wait, ok(&payload)).unwrap();
        assert!(!hit0, "oldest entry should have been evicted");
    }

    #[test]
    fn unit_weights_count_entries() {
        struct Unit;
        impl Weigh for Unit {
            fn weight(&self) -> u64 {
                1
            }
        }
        let c = Memo::<Unit>::new(4, 1);
        for k in 0..8u64 {
            c.get_or_compute(k, no_wait, || Ok(Unit)).unwrap();
        }
        let s = c.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (4, 4, 4), "{s:?}");
        assert!(c.get_or_compute(7, no_wait, || Ok(Unit)).unwrap().1, "newest survives");
    }

    #[test]
    fn hits_refresh_recency() {
        let cost = 100 + ENTRY_OVERHEAD;
        let c = Cache::new(2 * cost + 10, 1);
        let payload = "x".repeat(100);
        c.get_or_compute(0, no_wait, ok(&payload)).unwrap();
        c.get_or_compute(1, no_wait, ok(&payload)).unwrap();
        c.get_or_compute(0, no_wait, ok(&payload)).unwrap(); // refresh 0
        c.get_or_compute(2, no_wait, ok(&payload)).unwrap(); // evicts 1
        let (_, hit0) = c.get_or_compute(0, no_wait, ok(&payload)).unwrap();
        assert!(hit0, "refreshed entry must survive");
        let (_, hit1) = c.get_or_compute(1, no_wait, ok(&payload)).unwrap();
        assert!(!hit1, "stale entry must be the victim");
    }

    #[test]
    fn oversized_values_are_served_but_not_stored() {
        let c = Cache::new(64, 1);
        let big = "y".repeat(1000);
        let (v, hit) = c.get_or_compute(5, no_wait, ok(&big)).unwrap();
        assert!(!hit);
        assert_eq!(*v, big);
        assert_eq!((c.stats().entries, c.stats().bytes), (0, 0));
    }

    #[test]
    fn zero_capacity_disables_storage_but_counts() {
        let c = Cache::new(0, 2);
        c.get_or_compute(1, no_wait, ok("a")).unwrap();
        let (_, hit) = c.get_or_compute(1, no_wait, ok("a")).unwrap();
        assert!(!hit);
        assert_eq!((c.stats().misses, c.stats().entries), (2, 0));
    }

    #[test]
    fn concurrent_identical_requests_compute_once() {
        let c = Arc::new(Cache::new(1 << 20, 4));
        let computes = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let (c, computes) = (Arc::clone(&c), Arc::clone(&computes));
                std::thread::spawn(move || {
                    let (v, _) = c
                        .get_or_compute(99, no_wait, || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(30));
                            Ok("slow".to_string())
                        })
                        .unwrap();
                    assert_eq!(*v, "slow");
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(computes.load(Ordering::SeqCst), 1, "single-flight violated");
        let s = c.stats();
        assert_eq!((s.misses, s.hits), (1, 7));
    }

    #[test]
    fn panicking_leader_does_not_wedge_waiters() {
        let c = Cache::new(1 << 20, 1);
        let (started_tx, started_rx) = mpsc::channel();
        let (parked_tx, parked_rx) = mpsc::channel();
        let mut parked = false;
        std::thread::scope(|s| {
            let cache = &c;
            let leader = s.spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_compute(11, no_wait, || -> Result<String, String> {
                        started_tx.send(()).unwrap();
                        // Panic only once the waiter is parked on this flight.
                        let _ = parked_rx.recv_timeout(Duration::from_secs(10));
                        panic!("compute exploded");
                    })
                }))
            });
            started_rx.recv().unwrap();
            // This call parks on the in-flight compute; when the leader
            // panics it must wake up, retry as the new leader, and succeed.
            let on_wait = || {
                parked = true;
                let _ = parked_tx.send(());
                Ok(())
            };
            let (v, hit) = c.get_or_compute(11, on_wait, ok("recovered")).unwrap();
            assert_eq!((v.as_str(), hit), ("recovered", false));
            assert!(leader.join().unwrap().is_err(), "the panic must reach the leader");
        });
        assert!(parked, "the second caller must have waited on the flight");
        // No stale flight remains: a fresh request is an ordinary hit.
        assert!(c.get_or_compute(11, no_wait, || panic!("must not recompute")).unwrap().1);
    }

    #[test]
    fn a_waiter_gives_up_through_on_wait() {
        let c = Cache::new(1 << 20, 1);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let cache = &c;
            let leader = s.spawn(move || {
                cache.get_or_compute(3, no_wait, || {
                    started_tx.send(()).unwrap();
                    // Finish only once the waiter has given up.
                    let _ = release_rx.recv_timeout(Duration::from_secs(10));
                    Ok("late".to_string())
                })
            });
            started_rx.recv().unwrap();
            let mut checks = 0;
            let on_wait = || {
                checks += 1;
                if checks < 2 {
                    Ok(())
                } else {
                    Err("deadline".to_string())
                }
            };
            let gave_up = c.get_or_compute(3, on_wait, || panic!("a waiter must not compute"));
            release_tx.send(()).unwrap();
            assert_eq!(gave_up.unwrap_err(), "deadline");
            assert_eq!(*leader.join().unwrap().unwrap().0, "late");
        });
        // The leader's value is stored regardless of the waiter leaving.
        assert!(c.get_or_compute(3, no_wait, || panic!("must not recompute")).unwrap().1);
    }
}
