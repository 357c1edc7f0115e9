//! The bounded LRU behind the query path, and the process-unique
//! instance ids its keys embed. What is cached, under which key, and how
//! probes are counted is [`crate::query`]'s business; writes never touch
//! this cache — they move the key.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Process-unique id source for cache-keyed objects (dataset entries,
/// coordinator routes). Never reused within a process, so a dropped and
/// re-created dataset gets a fresh keyspace.
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

/// A fresh process-unique instance id.
pub fn next_instance() -> u64 {
    NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed)
}

struct Slot<V> {
    value: V,
    /// Logical timestamp of the last touch (insert or hit) — the LRU
    /// ordering.
    used: u64,
}

struct Inner<K, V> {
    map: HashMap<K, Slot<V>>,
    tick: u64,
}

/// A bounded, thread-safe, least-recently-used result cache.
///
/// Capacity 0 disables it entirely: `get` always misses without counting
/// and `insert` is a no-op, so a tier configured cache-off behaves
/// byte-for-byte like one that never had a cache (the stale-result
/// property tests compare exactly these two configurations).
pub struct QueryCache<K, V> {
    capacity: usize,
    inner: Mutex<Inner<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> QueryCache<K, V> {
    /// A cache holding at most `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        QueryCache {
            capacity,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Whether caching is on at all.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Looks up `key`, refreshing its recency on a hit. Counts a hit or a
    /// miss; a disabled cache counts nothing.
    pub fn get(&self, key: &K) -> Option<V> {
        if !self.enabled() {
            return None;
        }
        let mut inner = self.inner.lock().expect("cache lock is never poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(slot) => {
                slot.used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(slot.value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `key → value`, evicting the least-recently-used entry when
    /// full. The eviction scan is linear, which is fine at the intended
    /// capacities (tens of entries of expensive-to-recompute results).
    pub fn insert(&self, key: K, value: V) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.inner.lock().expect("cache lock is never poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
            }
        }
        inner.map.insert(key, Slot { value, used: tick });
    }

    /// Drops every entry whose key fails `keep` — dataset drops purge
    /// their instance's keys eagerly rather than waiting for LRU aging.
    pub fn retain(&self, keep: impl Fn(&K) -> bool) {
        if !self.enabled() {
            return;
        }
        self.inner
            .lock()
            .expect("cache lock is never poisoned")
            .map
            .retain(|k, _| keep(k));
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("cache lock is never poisoned")
            .map
            .len()
    }

    /// Whether the cache currently holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses_are_counted() {
        let cache: QueryCache<u32, String> = QueryCache::new(4);
        assert_eq!(cache.get(&1), None);
        cache.insert(1, "one".into());
        assert_eq!(cache.get(&1).as_deref(), Some("one"));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let cache: QueryCache<u32, u32> = QueryCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(cache.get(&1), Some(10));
        cache.insert(3, 30);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&2), None, "LRU entry must be evicted");
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get(&3), Some(30));
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let cache: QueryCache<u32, u32> = QueryCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        cache.insert(2, 21);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get(&2), Some(21));
    }

    #[test]
    fn capacity_zero_disables_everything() {
        let cache: QueryCache<u32, u32> = QueryCache::new(0);
        assert!(!cache.enabled());
        cache.insert(1, 10);
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0, "a disabled cache counts nothing");
        assert!(cache.is_empty());
    }

    #[test]
    fn retain_purges_matching_keys() {
        let cache: QueryCache<(u64, u32), u32> = QueryCache::new(8);
        cache.insert((1, 0), 100);
        cache.insert((1, 1), 101);
        cache.insert((2, 0), 200);
        cache.retain(|&(instance, _)| instance != 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&(2, 0)), Some(200));
        assert_eq!(cache.get(&(1, 0)), None);
    }

    #[test]
    fn instance_ids_are_unique() {
        let a = next_instance();
        let b = next_instance();
        assert_ne!(a, b);
    }
}
