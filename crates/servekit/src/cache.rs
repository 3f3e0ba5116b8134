//! LRU prediction cache with request coalescing.
//!
//! Keyed on `(db, question, representation, shots)` — the full identity of
//! a prediction. Two requests with the same key always produce the same
//! prediction (the whole pipeline is deterministic), so the second request
//! never needs to run the predictor.
//!
//! **Coalescing**: if a duplicate arrives while the first computation is
//! still in flight, it does not enqueue a second computation — it receives
//! an [`Arc`]'d slot and waits for the in-flight result. This makes the
//! *served-from-cache* total a pure function of the request stream (every
//! non-first occurrence of a key is served from cache), independent of
//! worker count and scheduling; only the internal ready-hit vs coalesced
//! split depends on timing, so [`CacheStats`] exposes the sum.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// A cell that will eventually hold the outcome for one key. The owner
/// fills it exactly once; any number of waiters block on it.
pub struct Slot<V> {
    state: Mutex<Option<V>>,
    ready: Condvar,
}

impl<V: Clone> Slot<V> {
    fn new() -> Slot<V> {
        Slot {
            state: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// Fill the slot and wake all waiters. Filling twice is a logic error.
    pub fn fill(&self, value: V) {
        let mut g = self.state.lock().unwrap();
        assert!(g.is_none(), "cache slot filled twice");
        *g = Some(value);
        drop(g);
        self.ready.notify_all();
    }

    /// Block until the owner fills the slot, then return a clone.
    pub fn wait(&self) -> V {
        let mut g = self.state.lock().unwrap();
        while g.is_none() {
            g = self.ready.wait(g).unwrap();
        }
        g.clone().unwrap()
    }

    fn is_ready(&self) -> bool {
        self.state.lock().unwrap().is_some()
    }
}

/// What a cache lookup resolved to.
pub enum Lookup<V> {
    /// First occurrence of the key: the caller owns the computation and
    /// must [`Slot::fill`] the slot when done.
    Owner(Arc<Slot<V>>),
    /// The key is cached or in flight: wait on the slot for the value.
    Shared(Arc<Slot<V>>),
}

/// Monotonic cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// First-occurrence lookups that triggered a computation.
    pub misses: u64,
    /// Lookups served from the cache — completed hits *plus* coalesced
    /// waits on an in-flight computation (the split between the two is
    /// scheduling-dependent; the sum is not).
    pub served: u64,
    /// Completed entries evicted to respect the capacity bound.
    pub evictions: u64,
}

struct Entry<V> {
    last_used: u64,
    slot: Arc<Slot<V>>,
}

struct Inner<V> {
    map: HashMap<String, Entry<V>>,
    tick: u64,
    stats: CacheStats,
}

/// Bounded LRU cache of prediction outcomes with coalesced lookups.
pub struct PredictionCache<V> {
    capacity: usize,
    inner: Mutex<Inner<V>>,
}

impl<V: Clone> PredictionCache<V> {
    /// Create a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> PredictionCache<V> {
        PredictionCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
        }
    }

    /// Look up `key`, registering the caller as the computation owner on a
    /// miss.
    pub fn begin(&self, key: &str) -> Lookup<V> {
        let mut g = self.inner.lock().unwrap();
        g.tick += 1;
        let tick = g.tick;
        if let Some(entry) = g.map.get_mut(key) {
            entry.last_used = tick;
            let slot = Arc::clone(&entry.slot);
            g.stats.served += 1;
            if obskit::enabled() {
                obskit::current().add_counter("servekit.cache.served", 1);
            }
            return Lookup::Shared(slot);
        }
        let slot = Arc::new(Slot::new());
        g.map.insert(
            key.to_string(),
            Entry {
                last_used: tick,
                slot: Arc::clone(&slot),
            },
        );
        g.stats.misses += 1;
        if g.map.len() > self.capacity {
            // Evict the least-recently-used *completed* entry. In-flight
            // entries are pinned: evicting one would detach its waiters
            // and re-run the computation on the next duplicate.
            let victim = g
                .map
                .iter()
                .filter(|(k, e)| k.as_str() != key && e.slot.is_ready())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                g.map.remove(&victim);
                g.stats.evictions += 1;
                if obskit::enabled() {
                    obskit::current().add_counter("servekit.cache.evictions", 1);
                }
            }
        }
        if obskit::enabled() {
            obskit::current().add_counter("servekit.cache.miss", 1);
        }
        Lookup::Owner(slot)
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().unwrap().stats
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_lookup_is_served_and_coalesces() {
        let cache: PredictionCache<u32> = PredictionCache::new(8);
        let owner = match cache.begin("k") {
            Lookup::Owner(s) => s,
            Lookup::Shared(_) => panic!("first lookup must own"),
        };
        let shared = match cache.begin("k") {
            Lookup::Shared(s) => s,
            Lookup::Owner(_) => panic!("duplicate must coalesce"),
        };
        // Fill from another thread while the duplicate waits.
        let waiter = std::thread::spawn(move || shared.wait());
        owner.fill(41);
        assert_eq!(waiter.join().unwrap(), 41);
        let s = cache.stats();
        assert_eq!((s.misses, s.served, s.evictions), (1, 1, 0));
    }

    #[test]
    fn lru_evicts_least_recently_used_completed_entry() {
        let cache: PredictionCache<u32> = PredictionCache::new(2);
        for (k, v) in [("a", 1), ("b", 2)] {
            match cache.begin(k) {
                Lookup::Owner(s) => s.fill(v),
                Lookup::Shared(_) => panic!("fresh key must own"),
            }
        }
        // Touch "a" so "b" becomes LRU, then overflow with "c".
        assert!(matches!(cache.begin("a"), Lookup::Shared(_)));
        match cache.begin("c") {
            Lookup::Owner(s) => s.fill(3),
            Lookup::Shared(_) => panic!(),
        }
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.begin("a"), Lookup::Shared(_)), "a survived");
        assert!(matches!(cache.begin("b"), Lookup::Owner(_)), "b evicted");
    }

    #[test]
    fn in_flight_entries_are_never_evicted() {
        let cache: PredictionCache<u32> = PredictionCache::new(1);
        let pending = match cache.begin("pending") {
            Lookup::Owner(s) => s,
            Lookup::Shared(_) => panic!(),
        };
        // Overflow while "pending" is still in flight: nothing evictable.
        match cache.begin("other") {
            Lookup::Owner(s) => s.fill(2),
            Lookup::Shared(_) => panic!(),
        }
        assert_eq!(cache.stats().evictions, 0);
        assert!(matches!(cache.begin("pending"), Lookup::Shared(_)));
        pending.fill(1);
    }
}
