//! Cache storage: the [`CacheStore`] trait and the in-memory
//! [`ShardedLru`] backend.

use crate::key::CacheKey;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock the store, recovering the guard if a previous holder panicked.
/// The critical sections below only move plain map entries — they can't
/// be left mid-update by a panic — so a poisoned store is always safe to
/// keep serving rather than wedging every worker that shares the cache.
///
/// This is the `dosa-cache` poisoning-recovery perimeter, the local
/// equivalent of `fault::lock` in `dosa-search` (which this crate cannot
/// depend on without inverting the crate graph).
fn lock<V>(lru: &Mutex<Lru<V>>) -> MutexGuard<'_, Lru<V>> {
    // dosa-lint: allow(raw-mutex-lock) — this IS the store-lock perimeter: the one
    // place dosa-cache touches a raw Mutex, recovering poisoned guards for callers.
    lru.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A content-addressed store a result cache can journal into and replay
/// from. Implementations must be safe to share across the service's
/// worker threads (`Send + Sync`); values are cloned out on
/// [`get`](CacheStore::get), so callers typically store `Arc`ed results.
///
/// The in-memory [`ShardedLru`] is the only backend today; the trait
/// exists so a persistent store (disk journal, redis, ...) can slot in
/// behind the same service wiring without touching the search layer.
pub trait CacheStore<V>: Send + Sync {
    /// Look `key` up, cloning the stored value out on a hit.
    fn get(&self, key: &CacheKey) -> Option<V>;

    /// Insert (or overwrite) `key` → `value`.
    fn put(&self, key: CacheKey, value: V);

    /// Number of entries currently stored.
    fn len(&self) -> usize;

    /// Whether the store holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// A BTreeMap rather than a HashMap (the `nondet-iteration` invariant):
// eviction scans the map, and keeping every scan in key order keeps the
// store's behavior independent of hash seeds.
struct Lru<V> {
    /// Each value with the tick of its last touch (insert or hit); the
    /// smallest tick marks the least-recently-used entry.
    map: BTreeMap<CacheKey, (u64, V)>,
    /// Bumped under the lock on every touch, so ticks are unique.
    tick: u64,
}

/// An in-memory, capacity-bounded, exact-LRU [`CacheStore`].
///
/// One map behind one lock holds every entry. Recency is a tick stamped
/// under the lock on every insert and hit; an insert that would overflow
/// the capacity first evicts the entry with the smallest tick (an
/// `O(len)` scan — eviction is off the lookup fast path, so the
/// simplicity is worth more than a doubly-linked intrusive list). The
/// store keeps exactly `capacity` entries once full.
///
/// Despite its name the store is not sharded; the name stays for
/// existing importers.
pub struct ShardedLru<V> {
    inner: Mutex<Lru<V>>,
    capacity: usize,
}

impl<V: Clone + Send> ShardedLru<V> {
    /// A store holding at most `capacity` entries (at least one),
    /// evicting the least-recently-used entry on an insert that would
    /// overflow it.
    pub fn new(capacity: usize) -> ShardedLru<V> {
        ShardedLru {
            inner: Mutex::new(Lru {
                map: BTreeMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
        }
    }
}

impl<V: Clone + Send + Sync> CacheStore<V> for ShardedLru<V> {
    fn get(&self, key: &CacheKey) -> Option<V> {
        let lru = &mut *lock(&self.inner);
        lru.tick += 1;
        let (last_used, value) = lru.map.get_mut(key)?;
        *last_used = lru.tick;
        Some(value.clone())
    }

    fn put(&self, key: CacheKey, value: V) {
        let lru = &mut *lock(&self.inner);
        lru.tick += 1;
        if lru.map.len() >= self.capacity && !lru.map.contains_key(&key) {
            let oldest = lru
                .map
                .iter()
                .min_by_key(|(_, e)| e.0)
                .map(|(k, _)| k.clone());
            if let Some(oldest) = oldest {
                lru.map.remove(&oldest);
            }
        }
        lru.map.insert(key, (lru.tick, value));
    }

    fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Fingerprinter;

    fn key(n: u64) -> CacheKey {
        Fingerprinter::new("lru-test-v1").u64(n).finish()
    }

    #[test]
    fn roundtrip_and_overwrite() {
        let lru: ShardedLru<u64> = ShardedLru::new(64);
        assert!(lru.is_empty());
        assert_eq!(lru.get(&key(1)), None);
        lru.put(key(1), 10);
        lru.put(key(2), 20);
        assert_eq!(lru.get(&key(1)), Some(10));
        assert_eq!(lru.get(&key(2)), Some(20));
        assert_eq!(lru.len(), 2);
        lru.put(key(1), 11);
        assert_eq!(lru.get(&key(1)), Some(11));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn holds_exactly_its_capacity_and_evicts_the_least_recent() {
        // Keys from several fingerprint prefixes, like a mixed job deck.
        let keys: Vec<CacheKey> = ["gd-start-v1", "random-design-v1", "bbbo-network-v1"]
            .iter()
            .flat_map(|prefix| (0..30).map(move |n| Fingerprinter::new(prefix).u64(n).finish()))
            .collect();
        let lru: ShardedLru<usize> = ShardedLru::new(64);
        for (i, k) in keys[..64].iter().enumerate() {
            lru.put(k.clone(), i);
        }
        assert_eq!(lru.len(), 64);
        for (i, k) in keys[..64].iter().enumerate() {
            assert_eq!(lru.get(k), Some(i), "entry {i} evicted below capacity");
        }
        // Every entry was just refreshed in order, so entry 0 is the
        // least recent: each further insert evicts exactly the oldest.
        for (i, k) in keys[64..].iter().enumerate() {
            lru.put(k.clone(), 64 + i);
            assert_eq!(lru.len(), 64);
            assert_eq!(lru.get(&keys[i]), None, "entry {i} should be evicted");
            assert_eq!(lru.get(k), Some(64 + i));
        }
    }

    #[test]
    fn get_refreshes_recency() {
        let lru: ShardedLru<u64> = ShardedLru::new(2);
        lru.put(key(0), 0);
        lru.put(key(1), 1);
        assert_eq!(lru.get(&key(0)), Some(0)); // refresh 0: 1 is now oldest
        lru.put(key(2), 2); // evicts 1, not 0
        assert_eq!(lru.get(&key(0)), Some(0));
        assert_eq!(lru.get(&key(2)), Some(2));
        assert_eq!(lru.get(&key(1)), None);
    }
}
