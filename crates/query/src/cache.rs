//! Sharded LRU cache of decoded rows.
//!
//! Keys are probe ids, values are `Arc`s of whatever the caller decodes —
//! the engine stores each probe's log rows. The key space is spread over a
//! power-of-two number of shards by a splitmix hash, each shard behind its
//! own mutex, so readers of different probes rarely contend. Each shard
//! holds its slice of the byte budget and evicts least-recently-used
//! entries when an insert pushes it over — except the entry just inserted,
//! which always survives long enough to be returned (a probe larger than a
//! whole shard budget is still served, it just won't keep neighbours).
//!
//! The cache only ever affects *when* a probe's rows are decoded, never
//! *what* the decode produces: a fill is a pure function of the file
//! bytes, and a racing fill on two threads yields the same rows, so query
//! responses are byte-identical at any cache state.
//!
//! Hit/miss/eviction counts accumulate in local atomics on the hot path
//! (one shared-registry lock per lookup would serialize exactly the
//! workload this cache exists to parallelize) and are published to the
//! `dynaddr-obs` registry in deltas via [`ShardedLru::publish_obs`]:
//! `query.cache.hits` / `query.cache.misses` / `query.cache.evictions`
//! counters and the `query.cache.bytes` gauge.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache geometry: shard count (rounded up to a power of two) and the
/// total decoded-byte budget split evenly across shards.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Number of shards; rounded up to the next power of two, min 1.
    pub shards: usize,
    /// Total budget in decoded bytes across all shards.
    pub budget_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            shards: 16,
            budget_bytes: 256 << 20,
        }
    }
}

/// A point-in-time view of the cache counters. In the query engine one
/// lookup is one probe's: a `ProbeRecords` or `ProbeSeries` request whose
/// probe a log segment's span holds, and one entry is that probe's rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a resident entry.
    pub hits: u64,
    /// Lookups that had to decode.
    pub misses: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Decoded bytes currently resident.
    pub bytes: u64,
}

impl CacheStats {
    /// hits / (hits + misses); 1.0 for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry<V> {
    value: Arc<V>,
    cost: usize,
    stamp: u64,
}

struct Shard<V> {
    map: HashMap<usize, Entry<V>>,
    /// LRU order: recency stamp → key. Stamps are unique per shard.
    order: BTreeMap<u64, usize>,
    clock: u64,
    bytes: usize,
}

impl<V> Shard<V> {
    fn new() -> Shard<V> {
        Shard {
            map: HashMap::new(),
            order: BTreeMap::new(),
            clock: 0,
            bytes: 0,
        }
    }

    /// Moves `key`'s entry to most-recently-used and returns its value.
    fn touch(&mut self, key: usize) -> Option<Arc<V>> {
        let old_stamp = self.map.get(&key)?.stamp;
        self.order.remove(&old_stamp);
        self.clock += 1;
        let stamp = self.clock;
        self.order.insert(stamp, key);
        let e = self.map.get_mut(&key).expect("entry present");
        e.stamp = stamp;
        Some(e.value.clone())
    }
}

/// The sharded LRU. See the module docs for the contract.
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    mask: usize,
    budget_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    // Last values published to the obs registry (counters are cumulative
    // there, so only deltas are added).
    published_hits: AtomicU64,
    published_misses: AtomicU64,
    published_evictions: AtomicU64,
}

impl<V> ShardedLru<V> {
    /// Builds an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> ShardedLru<V> {
        let shards = cfg.shards.max(1).next_power_of_two();
        ShardedLru {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            mask: shards - 1,
            budget_per_shard: cfg.budget_bytes / shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            published_hits: AtomicU64::new(0),
            published_misses: AtomicU64::new(0),
            published_evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: usize) -> &Mutex<Shard<V>> {
        // Sequential probe ids must spread over shards, not stripe into
        // one; splitmix is the same mixer the workload generator uses.
        &self.shards[(crate::workload::splitmix64(key as u64) as usize) & self.mask]
    }

    /// Returns `key`'s entry, filling it with `fill` on miss. `fill`
    /// returns the value and its byte cost; it runs outside the shard lock
    /// so a slow decode doesn't serialize the shard, and if two threads
    /// race the same key the first insert wins (both decodes are pure, so
    /// both values are identical).
    pub fn get_or_try_insert<E>(
        &self,
        key: usize,
        fill: impl FnOnce() -> Result<(V, usize), E>,
    ) -> Result<Arc<V>, E> {
        let shard = self.shard_of(key);
        if let Some(v) = shard.lock().expect("cache shard poisoned").touch(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(v);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (value, cost) = fill()?;
        let value = Arc::new(value);
        let mut g = shard.lock().expect("cache shard poisoned");
        if let Some(v) = g.touch(key) {
            // Lost the race: keep the resident entry so both callers see
            // the same Arc.
            return Ok(v);
        }
        g.clock += 1;
        let stamp = g.clock;
        g.map.insert(
            key,
            Entry {
                value: value.clone(),
                cost,
                stamp,
            },
        );
        g.order.insert(stamp, key);
        g.bytes += cost;
        while g.bytes > self.budget_per_shard && g.map.len() > 1 {
            let (&oldest, &victim) = g.order.iter().next().expect("order non-empty");
            if victim == key {
                break;
            }
            g.order.remove(&oldest);
            let dropped = g.map.remove(&victim).expect("victim resident");
            g.bytes -= dropped.cost;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(value)
    }

    /// Drops every entry (counters keep accumulating).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut g = shard.lock().expect("cache shard poisoned");
            g.map.clear();
            g.order.clear();
            g.bytes = 0;
        }
    }

    /// Snapshot of the counters and residency.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for shard in &self.shards {
            let g = shard.lock().expect("cache shard poisoned");
            entries += g.map.len() as u64;
            bytes += g.bytes as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }

    /// Publishes counter deltas since the last publish into the obs
    /// registry (`query.cache.*`) and sets the residency gauge. Callers
    /// batch this (per connection, per benchmark run) to keep registry
    /// locking off the per-lookup path.
    pub fn publish_obs(&self) {
        let stats = self.stats();
        for (counter, published, name) in [
            (stats.hits, &self.published_hits, "query.cache.hits"),
            (stats.misses, &self.published_misses, "query.cache.misses"),
            (
                stats.evictions,
                &self.published_evictions,
                "query.cache.evictions",
            ),
        ] {
            let prev = published.swap(counter, Ordering::Relaxed);
            if counter > prev {
                dynaddr_obs::counter_add(name, counter - prev);
            }
        }
        dynaddr_obs::gauge_set("query.cache.bytes", stats.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(v: u32, cost: usize) -> impl FnOnce() -> Result<(u32, usize), ()> {
        move || Ok((v, cost))
    }

    #[test]
    fn hit_after_miss_returns_same_value() {
        let c: ShardedLru<u32> = ShardedLru::new(CacheConfig {
            shards: 4,
            budget_bytes: 1024,
        });
        let a = c.get_or_try_insert(7, fill(70, 10)).unwrap();
        let b = c.get_or_try_insert(7, fill(999, 10)).unwrap();
        assert_eq!(*a, 70);
        assert_eq!(*b, 70, "second lookup must hit, not re-fill");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.bytes), (1, 1, 1, 10));
    }

    #[test]
    fn evicts_least_recently_used_first() {
        // One shard so the eviction order is fully observable.
        let c: ShardedLru<u32> = ShardedLru::new(CacheConfig {
            shards: 1,
            budget_bytes: 30,
        });
        c.get_or_try_insert(1, fill(1, 10)).unwrap();
        c.get_or_try_insert(2, fill(2, 10)).unwrap();
        c.get_or_try_insert(3, fill(3, 10)).unwrap();
        // Touch 1 so 2 becomes the LRU, then overflow.
        c.get_or_try_insert(1, fill(0, 10)).unwrap();
        c.get_or_try_insert(4, fill(4, 10)).unwrap();
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.bytes, 30);
        // 2 was evicted; 1, 3, 4 are resident.
        assert_eq!(c.stats().hits, 1);
        c.get_or_try_insert(2, fill(2, 10)).unwrap();
        assert_eq!(c.stats().misses, 5, "2 must have been the evicted entry");
    }

    #[test]
    fn oversized_entry_is_still_served_and_kept() {
        let c: ShardedLru<u32> = ShardedLru::new(CacheConfig {
            shards: 1,
            budget_bytes: 8,
        });
        let v = c.get_or_try_insert(5, fill(50, 100)).unwrap();
        assert_eq!(*v, 50);
        let s = c.stats();
        assert_eq!(
            s.entries, 1,
            "the just-inserted entry is never its own victim"
        );
        // The next insert evicts it.
        c.get_or_try_insert(6, fill(60, 100)).unwrap();
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn budget_holds_across_shards() {
        let c: ShardedLru<u32> = ShardedLru::new(CacheConfig {
            shards: 4,
            budget_bytes: 400,
        });
        for k in 0..1000usize {
            c.get_or_try_insert(k, fill(k as u32, 10)).unwrap();
        }
        let s = c.stats();
        assert!(
            s.bytes <= 400,
            "resident {} bytes exceeds the 400-byte budget",
            s.bytes
        );
        assert_eq!(s.misses - s.evictions, s.entries);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let c: ShardedLru<u32> = ShardedLru::new(CacheConfig::default());
        c.get_or_try_insert(1, fill(1, 10)).unwrap();
        c.clear();
        let s = c.stats();
        assert_eq!((s.entries, s.bytes), (0, 0));
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn fill_error_is_propagated_and_nothing_is_cached() {
        let c: ShardedLru<u32> = ShardedLru::new(CacheConfig::default());
        let r: Result<Arc<u32>, &str> = c.get_or_try_insert(9, || Err("boom"));
        assert_eq!(r.unwrap_err(), "boom");
        assert_eq!(c.stats().entries, 0);
        // A later successful fill works.
        let v: Result<Arc<u32>, &str> = c.get_or_try_insert(9, || Ok((90, 4)));
        assert_eq!(*v.unwrap(), 90);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let c: ShardedLru<u32> = ShardedLru::new(CacheConfig {
            shards: 5,
            budget_bytes: 800,
        });
        assert_eq!(c.shards.len(), 8);
        assert_eq!(c.budget_per_shard, 100);
    }
}
