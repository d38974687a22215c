//! Dynamic address pools spanning multiple BGP-routed prefixes.
//!
//! §6 of the paper finds that nearly half of all address changes also change
//! BGP prefix: ISP pools are not a single contiguous block. A pool here is a
//! list of prefixes flattened into one index space, with an allocation policy
//! that decides how strongly a fresh allocation is attracted to the
//! requester's *previous* prefix. That single knob reproduces the per-ISP
//! spread in Table 7 (DTAG 24% cross-BGP vs Telecom Italia 85%).
//!
//! ## Implicit background occupancy
//!
//! The background load that makes "same address again by chance" rare is not
//! stored as a bitmap. Instead, the *default* occupancy of flat index `i` is
//! the pure function `unit_hash(pool_seed, i) < background_occupancy` — a
//! splitmix-style keyed hash evaluated on demand. Only deviations from that
//! default (our own allocations, released background addresses, background
//! claims of previously-free addresses) live in a small override map touched
//! on allocate/release. Construction is therefore O(prefixes) instead of
//! O(addresses), no RNG is consumed, and pools far larger than the old
//! 2^24-address bitmap ceiling are representable. A `#[cfg(test)]` eager
//! bitmap oracle plus proptest equivalence pins the two representations to
//! identical allocate/release/occupancy behaviour.

use dynaddr_types::ip::{ipv4_to_u32, Prefix};
use dynaddr_types::rng::splitmix64;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Identifier of an access-network client (one per CPE).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct ClientId(pub u64);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client#{}", self.0)
    }
}

/// How a pool chooses the address for a (re)connecting client.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AllocationPolicy {
    /// Re-issue the client's previous address whenever it is free; fall back
    /// to a random free address. This is the RFC 2131 §4.3.1 behaviour.
    PreferPrevious,
    /// Draw uniformly from the free addresses of the whole pool. The
    /// RADIUS-without-memory behaviour Maier et al. observed.
    RandomAny,
    /// With probability `bias`, draw from the free addresses of the client's
    /// previous *prefix*; otherwise from the whole pool. `bias = 0.0`
    /// degenerates to [`AllocationPolicy::RandomAny`].
    SamePrefixBias(f64),
}

/// Static description of a pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolConfig {
    /// The BGP-routed prefixes the pool allocates from (pairwise disjoint).
    pub prefixes: Vec<Prefix>,
    /// Allocation policy.
    pub policy: AllocationPolicy,
    /// Fraction of the pool pre-occupied by customers outside the simulated
    /// probe population (`0.0..1.0`). High occupancy makes "same address
    /// again by chance" rare, as in real ISPs.
    pub background_occupancy: f64,
}

impl PoolConfig {
    /// Convenience constructor.
    pub fn new(prefixes: Vec<Prefix>, policy: AllocationPolicy) -> PoolConfig {
        PoolConfig {
            prefixes,
            policy,
            background_occupancy: 0.6,
        }
    }
}

/// A concrete pool instance with allocation state.
///
/// Addresses are indexed `0..total`, flattened across the prefixes in order.
/// Background occupancy is implicit — a keyed hash of the flat index against
/// the occupancy fraction — and only indices whose real state deviates from
/// that default (plus the holder map of *our* allocations) are stored. The
/// structure deliberately has no notion of time: lease/session lifetimes
/// live in the DHCP/PPP layers above.
#[derive(Debug, Clone)]
pub struct AddressPool {
    prefixes: Arc<Vec<Prefix>>,
    /// Exclusive cumulative end index of each prefix in the flat space.
    cum_end: Vec<u64>,
    /// `(base address, prefix slot)` sorted by base, for O(log n) reverse
    /// lookup of an address's prefix.
    by_base: Vec<(u32, usize)>,
    policy: AllocationPolicy,
    background_occupancy: f64,
    /// Seed of the implicit background-occupancy function.
    seed: u64,
    /// Indices whose occupancy deviates from the background default.
    overrides: HashMap<u64, bool>,
    /// Occupancy count relative to the pure background state.
    occupied_delta: i64,
    /// Lazily counted background occupancy (an O(total) sweep on first use;
    /// only accounting queries need it, never allocation).
    bg_count: Cell<Option<u64>>,
    /// Current holder of each of *our* allocations (not background load).
    held: HashMap<ClientId, u64>,
}

impl AddressPool {
    /// Builds a pool whose background occupancy is derived from `seed`.
    /// Construction is O(prefixes): no bitmap, no RNG sweep.
    pub fn new(config: &PoolConfig, seed: u64) -> AddressPool {
        AddressPool::from_parts(
            Arc::new(config.prefixes.clone()),
            config.policy,
            config.background_occupancy,
            seed,
        )
    }

    /// Like [`AddressPool::new`], but shares an existing prefix list instead
    /// of cloning one (the simulator hands the same `Arc` to every share-net
    /// of an ISP).
    pub fn from_parts(
        prefixes: Arc<Vec<Prefix>>,
        policy: AllocationPolicy,
        background_occupancy: f64,
        seed: u64,
    ) -> AddressPool {
        assert!(!prefixes.is_empty(), "pool needs at least one prefix");
        assert!(
            (0.0..1.0).contains(&background_occupancy),
            "background occupancy must be in [0,1): {background_occupancy}"
        );
        let mut cum_end = Vec::with_capacity(prefixes.len());
        let mut total = 0u64;
        for p in prefixes.iter() {
            total += p.size();
            cum_end.push(total);
        }
        let mut by_base: Vec<(u32, usize)> = prefixes
            .iter()
            .enumerate()
            .map(|(slot, p)| (ipv4_to_u32(p.base()), slot))
            .collect();
        by_base.sort_unstable();
        for w in by_base.windows(2) {
            let (base_a, slot_a) = w[0];
            let (base_b, _) = w[1];
            assert!(
                u64::from(base_a) + prefixes[slot_a].size() <= u64::from(base_b),
                "pool prefixes must be disjoint: {} overlaps {}",
                prefixes[slot_a],
                prefixes[w[1].1]
            );
        }
        AddressPool {
            prefixes,
            cum_end,
            by_base,
            policy,
            background_occupancy,
            seed,
            overrides: HashMap::new(),
            occupied_delta: 0,
            bg_count: Cell::new(None),
            held: HashMap::new(),
        }
    }

    /// Total number of addresses across all prefixes.
    pub fn total(&self) -> u64 {
        *self.cum_end.last().expect("at least one prefix")
    }

    /// Number of currently free addresses.
    ///
    /// The first call sweeps the index space once to count the implicit
    /// background load (cached afterwards); allocation never needs this.
    pub fn free_count(&self) -> u64 {
        let occupied = (self.background_count() as i64 + self.occupied_delta) as u64;
        self.total() - occupied
    }

    /// The prefixes of the pool.
    pub fn prefixes(&self) -> &[Prefix] {
        &self.prefixes
    }

    /// The address a client currently holds, if any.
    pub fn address_of(&self, client: ClientId) -> Option<Ipv4Addr> {
        self.held.get(&client).map(|&i| self.index_to_addr(i))
    }

    /// Whether the *background default* (ignoring overrides) occupies `i`.
    fn background_occupied(&self, index: u64) -> bool {
        unit_hash(self.seed, index) < self.background_occupancy
    }

    fn background_count(&self) -> u64 {
        if let Some(n) = self.bg_count.get() {
            return n;
        }
        let n = (0..self.total())
            .filter(|&i| self.background_occupied(i))
            .count() as u64;
        self.bg_count.set(Some(n));
        n
    }

    /// Whether flat index `i` is currently occupied (override, else default).
    fn occupied(&self, index: u64) -> bool {
        match self.overrides.get(&index) {
            Some(&state) => state,
            None => self.background_occupied(index),
        }
    }

    fn index_to_addr(&self, index: u64) -> Ipv4Addr {
        let slot = self.cum_end.partition_point(|&end| end <= index);
        let start = if slot == 0 { 0 } else { self.cum_end[slot - 1] };
        self.prefixes[slot].nth(index - start)
    }

    /// Reverse lookup via the base-sorted prefix table — O(log prefixes)
    /// rather than a linear scan on every release/renew.
    fn addr_to_index(&self, addr: Ipv4Addr) -> Option<u64> {
        let v = ipv4_to_u32(addr);
        let cand = self.by_base.partition_point(|&(base, _)| base <= v);
        let (_, slot) = *self.by_base.get(cand.checked_sub(1)?)?;
        let off = self.prefixes[slot].index_of(addr)?;
        let start = if slot == 0 { 0 } else { self.cum_end[slot - 1] };
        Some(start + off)
    }

    /// The index range `[start, end)` of the prefix containing flat `index`.
    fn prefix_range_of(&self, index: u64) -> (u64, u64) {
        let slot = self.cum_end.partition_point(|&end| end <= index);
        let start = if slot == 0 { 0 } else { self.cum_end[slot - 1] };
        (start, self.cum_end[slot])
    }

    /// Whether an address is currently free.
    pub fn is_free(&self, addr: Ipv4Addr) -> bool {
        self.addr_to_index(addr)
            .map(|i| !self.occupied(i))
            .unwrap_or(false)
    }

    /// Marks an arbitrary free address in `[lo, hi)` occupied, returning its
    /// index. Rejection-samples, then falls back to a linear sweep from a
    /// random start so allocation cannot fail while space remains.
    fn take_free_in<R: Rng + ?Sized>(&mut self, rng: &mut R, lo: u64, hi: u64) -> Option<u64> {
        debug_assert!(lo < hi);
        for _ in 0..64 {
            let i = rng.gen_range(lo..hi);
            if !self.occupied(i) {
                self.occupy(i);
                return Some(i);
            }
        }
        let span = hi - lo;
        let start = rng.gen_range(0..span);
        for k in 0..span {
            let i = lo + (start + k) % span;
            if !self.occupied(i) {
                self.occupy(i);
                return Some(i);
            }
        }
        None
    }

    fn occupy(&mut self, index: u64) {
        debug_assert!(!self.occupied(index));
        if self.background_occupied(index) {
            // The override said "free"; dropping it restores the default.
            self.overrides.remove(&index);
        } else {
            self.overrides.insert(index, true);
        }
        self.occupied_delta += 1;
    }

    fn vacate(&mut self, index: u64) {
        debug_assert!(self.occupied(index));
        if self.background_occupied(index) {
            self.overrides.insert(index, false);
        } else {
            self.overrides.remove(&index);
        }
        self.occupied_delta -= 1;
    }

    /// Allocates an address for `client` according to the pool policy.
    ///
    /// `previous` is the client's last known address (it need not be
    /// currently held — e.g. after an expired lease). Returns `None` only
    /// when the pool is completely full.
    pub fn allocate<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        client: ClientId,
        previous: Option<Ipv4Addr>,
    ) -> Option<Ipv4Addr> {
        assert!(
            !self.held.contains_key(&client),
            "{client} already holds an address; release first"
        );
        let prev_index = previous.and_then(|a| self.addr_to_index(a));

        let chosen = match self.policy {
            AllocationPolicy::PreferPrevious => match prev_index {
                Some(i) if !self.occupied(i) => {
                    self.occupy(i);
                    Some(i)
                }
                _ => self.take_free_in(rng, 0, self.total()),
            },
            AllocationPolicy::RandomAny => self.take_free_in(rng, 0, self.total()),
            AllocationPolicy::SamePrefixBias(bias) => {
                let in_prev_prefix = prev_index
                    .filter(|_| rng.gen::<f64>() < bias)
                    .map(|i| self.prefix_range_of(i));
                match in_prev_prefix {
                    Some((lo, hi)) => self
                        .take_free_in(rng, lo, hi)
                        .or_else(|| self.take_free_in(rng, 0, self.total())),
                    None => self.take_free_in(rng, 0, self.total()),
                }
            }
        }?;
        self.held.insert(client, chosen);
        Some(self.index_to_addr(chosen))
    }

    /// Re-claims a *specific* free address for a client (used by DHCP when
    /// honouring an expired-but-unclaimed binding). Returns `false` when the
    /// address is occupied or foreign.
    pub fn claim_specific(&mut self, client: ClientId, addr: Ipv4Addr) -> bool {
        assert!(
            !self.held.contains_key(&client),
            "{client} already holds an address; release first"
        );
        match self.addr_to_index(addr) {
            Some(i) if !self.occupied(i) => {
                self.occupy(i);
                self.held.insert(client, i);
                true
            }
            _ => false,
        }
    }

    /// Releases the client's current address back to the free set.
    pub fn release(&mut self, client: ClientId) -> Option<Ipv4Addr> {
        let index = self.held.remove(&client)?;
        self.vacate(index);
        Some(self.index_to_addr(index))
    }

    /// Marks a currently-free address occupied by background demand (the
    /// churn process that makes expired DHCP bindings unrecoverable).
    pub fn background_claim(&mut self, addr: Ipv4Addr) -> bool {
        match self.addr_to_index(addr) {
            Some(i) if !self.occupied(i) => {
                self.occupy(i);
                true
            }
            _ => false,
        }
    }

    /// Replaces the pool's prefixes wholesale — administrative renumbering.
    /// All held allocations and overrides are discarded and the background
    /// occupancy re-derived from `seed`; clients must re-acquire addresses
    /// (and will land in the new space).
    pub fn migrate_prefixes(
        &mut self,
        prefixes: Arc<Vec<Prefix>>,
        background_occupancy: f64,
        seed: u64,
    ) {
        *self = AddressPool::from_parts(prefixes, self.policy, background_occupancy, seed);
    }
}

/// Maps `(seed, index)` to a uniform f64 in `[0, 1)` — FNV/splitmix-style
/// avalanche, so adjacent indices give unrelated values.
fn unit_hash(seed: u64, index: u64) -> f64 {
    let z = splitmix64(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    const SEED: u64 = 7;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(7)
    }

    fn pool(prefixes: &[&str], policy: AllocationPolicy, occ: f64) -> AddressPool {
        let config = PoolConfig {
            prefixes: prefixes.iter().map(|s| p(s)).collect(),
            policy,
            background_occupancy: occ,
        };
        AddressPool::new(&config, SEED)
    }

    #[test]
    fn totals_span_prefixes() {
        let pool = pool(
            &["10.0.0.0/24", "10.1.0.0/24"],
            AllocationPolicy::RandomAny,
            0.0,
        );
        assert_eq!(pool.total(), 512);
        assert_eq!(pool.free_count(), 512);
    }

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut pool = pool(&["192.0.2.0/24"], AllocationPolicy::RandomAny, 0.0);
        let mut r = rng();
        let a = pool.allocate(&mut r, ClientId(1), None).unwrap();
        assert!(p("192.0.2.0/24").contains(a));
        assert_eq!(pool.address_of(ClientId(1)), Some(a));
        assert!(!pool.is_free(a));
        assert_eq!(pool.release(ClientId(1)), Some(a));
        assert!(pool.is_free(a));
        assert_eq!(pool.release(ClientId(1)), None);
    }

    #[test]
    fn prefer_previous_reissues_same_address() {
        let mut pool = pool(&["192.0.2.0/24"], AllocationPolicy::PreferPrevious, 0.5);
        let mut r = rng();
        let a = pool.allocate(&mut r, ClientId(1), None).unwrap();
        pool.release(ClientId(1));
        let b = pool.allocate(&mut r, ClientId(1), Some(a)).unwrap();
        assert_eq!(a, b, "RFC 2131 §4.3.1: same address when free");
    }

    #[test]
    fn prefer_previous_falls_back_when_taken() {
        let mut pool = pool(&["192.0.2.0/24"], AllocationPolicy::PreferPrevious, 0.0);
        let mut r = rng();
        let a = pool.allocate(&mut r, ClientId(1), None).unwrap();
        pool.release(ClientId(1));
        assert!(pool.background_claim(a));
        let b = pool.allocate(&mut r, ClientId(1), Some(a)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn random_any_rarely_reissues_same() {
        let mut pool = pool(&["10.0.0.0/20"], AllocationPolicy::RandomAny, 0.6);
        let mut r = rng();
        let mut same = 0;
        let mut prev = pool.allocate(&mut r, ClientId(1), None).unwrap();
        for _ in 0..200 {
            pool.release(ClientId(1));
            let next = pool.allocate(&mut r, ClientId(1), Some(prev)).unwrap();
            if next == prev {
                same += 1;
            }
            prev = next;
        }
        assert!(same <= 2, "random allocation almost never repeats: {same}");
    }

    #[test]
    fn same_prefix_bias_controls_cross_prefix_rate() {
        let prefixes = [
            "10.0.0.0/22",
            "10.32.0.0/22",
            "10.64.0.0/22",
            "10.96.0.0/22",
        ];
        for (bias, lo, hi) in [(0.0, 0.60, 0.90), (0.9, 0.02, 0.25)] {
            let mut pool = pool(&prefixes, AllocationPolicy::SamePrefixBias(bias), 0.3);
            let mut r = rng();
            let mut crossings = 0;
            let mut prev = pool.allocate(&mut r, ClientId(1), None).unwrap();
            let n = 400;
            for _ in 0..n {
                pool.release(ClientId(1));
                let next = pool.allocate(&mut r, ClientId(1), Some(prev)).unwrap();
                let crossed = prefixes.iter().find(|s| p(s).contains(prev))
                    != prefixes.iter().find(|s| p(s).contains(next));
                if crossed {
                    crossings += 1;
                }
                prev = next;
            }
            let frac = crossings as f64 / n as f64;
            assert!(
                (lo..hi).contains(&frac),
                "bias {bias}: cross-prefix fraction {frac} outside [{lo},{hi})"
            );
        }
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let mut pool = pool(&["192.0.2.0/30"], AllocationPolicy::RandomAny, 0.0);
        let mut r = rng();
        for i in 0..4 {
            assert!(pool.allocate(&mut r, ClientId(i), None).is_some());
        }
        assert_eq!(pool.free_count(), 0);
        assert!(pool.allocate(&mut r, ClientId(99), None).is_none());
    }

    #[test]
    fn claim_specific_honours_occupancy() {
        let mut pool = pool(&["192.0.2.0/24"], AllocationPolicy::RandomAny, 0.0);
        let addr: Ipv4Addr = "192.0.2.5".parse().unwrap();
        assert!(pool.claim_specific(ClientId(1), addr));
        assert_eq!(pool.address_of(ClientId(1)), Some(addr));
        assert!(!pool.claim_specific(ClientId(2), addr));
        // Foreign address:
        assert!(!pool.claim_specific(ClientId(2), "10.0.0.1".parse().unwrap()));
    }

    #[test]
    #[should_panic(expected = "already holds an address")]
    fn double_allocate_panics() {
        let mut pool = pool(&["192.0.2.0/24"], AllocationPolicy::RandomAny, 0.0);
        let mut r = rng();
        pool.allocate(&mut r, ClientId(1), None).unwrap();
        pool.allocate(&mut r, ClientId(1), None);
    }

    #[test]
    #[should_panic(expected = "must be disjoint")]
    fn overlapping_prefixes_rejected() {
        pool(
            &["10.0.0.0/16", "10.0.4.0/24"],
            AllocationPolicy::RandomAny,
            0.0,
        );
    }

    #[test]
    fn background_occupancy_seeds_load() {
        let pool = pool(&["10.0.0.0/16"], AllocationPolicy::RandomAny, 0.6);
        let frac = 1.0 - pool.free_count() as f64 / pool.total() as f64;
        assert!((frac - 0.6).abs() < 0.02, "occupancy {frac}");
    }

    #[test]
    fn background_occupancy_differs_across_seeds() {
        let config = PoolConfig {
            prefixes: vec![p("10.0.0.0/24")],
            policy: AllocationPolicy::RandomAny,
            background_occupancy: 0.5,
        };
        let a = AddressPool::new(&config, 1);
        let b = AddressPool::new(&config, 2);
        let pattern = |pool: &AddressPool| -> Vec<bool> {
            (0..pool.total()).map(|i| pool.occupied(i)).collect()
        };
        assert_ne!(
            pattern(&a),
            pattern(&b),
            "seeds must decorrelate background load"
        );
        assert_eq!(
            pattern(&a),
            pattern(&AddressPool::new(&config, 1)),
            "same seed, same load"
        );
    }

    #[test]
    fn giant_pool_constructs_in_o_prefixes() {
        // 2^26 addresses — far past the old bitmap ceiling. Construction and
        // allocation must not sweep the space.
        let mut pool = pool(&["8.0.0.0/6"], AllocationPolicy::RandomAny, 0.6);
        assert_eq!(pool.total(), 1 << 26);
        let mut r = rng();
        let a = pool.allocate(&mut r, ClientId(1), None).unwrap();
        assert!(p("8.0.0.0/6").contains(a));
        assert!(!pool.is_free(a));
        assert_eq!(pool.release(ClientId(1)), Some(a));
    }

    #[test]
    fn free_count_tracks_allocations_exactly() {
        let mut pool = pool(
            &["10.0.0.0/24", "10.1.0.0/25"],
            AllocationPolicy::RandomAny,
            0.3,
        );
        let before = pool.free_count();
        let mut r = rng();
        let a = pool.allocate(&mut r, ClientId(1), None).unwrap();
        assert_eq!(pool.free_count(), before - 1);
        pool.background_claim(pool.address_of(ClientId(1)).map(|_| a).unwrap());
        assert_eq!(
            pool.free_count(),
            before - 1,
            "occupied address cannot be re-claimed"
        );
        pool.release(ClientId(1));
        assert_eq!(pool.free_count(), before);
    }

    #[test]
    fn migrate_prefixes_moves_address_space() {
        let mut pool = pool(&["10.0.0.0/24"], AllocationPolicy::RandomAny, 0.0);
        let mut r = rng();
        let a = pool.allocate(&mut r, ClientId(1), None).unwrap();
        assert!(p("10.0.0.0/24").contains(a));
        pool.migrate_prefixes(Arc::new(vec![p("172.16.0.0/24")]), 0.0, SEED ^ 1);
        assert_eq!(pool.address_of(ClientId(1)), None, "allocations reset");
        let b = pool.allocate(&mut r, ClientId(1), Some(a)).unwrap();
        assert!(p("172.16.0.0/24").contains(b));
    }

    #[test]
    fn addr_to_index_agrees_with_linear_scan() {
        // Prefix list deliberately not sorted by base.
        let pool = pool(
            &["100.96.0.0/20", "100.64.0.0/18", "100.80.0.0/21"],
            AllocationPolicy::RandomAny,
            0.0,
        );
        let linear = |addr: Ipv4Addr| -> Option<u64> {
            let mut start = 0u64;
            for pfx in pool.prefixes().iter() {
                if let Some(off) = pfx.index_of(addr) {
                    return Some(start + off);
                }
                start += pfx.size();
            }
            None
        };
        let mut probe_addrs: Vec<Ipv4Addr> = Vec::new();
        for pfx in pool.prefixes().iter() {
            probe_addrs.push(pfx.base());
            probe_addrs.push(pfx.nth(pfx.size() - 1));
            probe_addrs.push(pfx.nth(pfx.size() / 2));
        }
        probe_addrs.push("100.64.255.255".parse().unwrap());
        probe_addrs.push("9.9.9.9".parse().unwrap());
        probe_addrs.push("100.96.16.0".parse().unwrap()); // just past the /20
        for addr in probe_addrs {
            assert_eq!(pool.addr_to_index(addr), linear(addr), "{addr}");
        }
        // Round trip: every index maps to an address that maps back.
        for i in [0u64, 1, 4_095, 4_096, 16_383, 16_384, 18_431] {
            let addr = pool.index_to_addr(i);
            assert_eq!(pool.addr_to_index(addr), Some(i), "index {i} via {addr}");
        }
    }
}

#[cfg(test)]
mod oracle {
    //! An eager-bitmap mirror of [`AddressPool`]: identical allocation logic
    //! over an explicit `Vec<bool>` seeded from the same background hash.
    //! The proptests below drive both through the same operation sequences
    //! and RNG streams and demand identical observable behaviour — pinning
    //! the override bookkeeping to the materialized representation the pool
    //! used before background occupancy became implicit.

    use super::*;

    pub struct EagerPool {
        prefixes: Vec<Prefix>,
        cum_end: Vec<u64>,
        occupied: Vec<bool>,
        policy: AllocationPolicy,
        held: HashMap<ClientId, u64>,
    }

    impl EagerPool {
        pub fn new(config: &PoolConfig, seed: u64) -> EagerPool {
            let mut cum_end = Vec::new();
            let mut total = 0u64;
            for p in &config.prefixes {
                total += p.size();
                cum_end.push(total);
            }
            let occupied = (0..total)
                .map(|i| unit_hash(seed, i) < config.background_occupancy)
                .collect();
            EagerPool {
                prefixes: config.prefixes.clone(),
                cum_end,
                occupied,
                policy: config.policy,
                held: HashMap::new(),
            }
        }

        fn total(&self) -> u64 {
            *self.cum_end.last().unwrap()
        }

        pub fn free_count(&self) -> u64 {
            self.occupied.iter().filter(|&&o| !o).count() as u64
        }

        fn index_to_addr(&self, index: u64) -> Ipv4Addr {
            let slot = self.cum_end.partition_point(|&end| end <= index);
            let start = if slot == 0 { 0 } else { self.cum_end[slot - 1] };
            self.prefixes[slot].nth(index - start)
        }

        fn addr_to_index(&self, addr: Ipv4Addr) -> Option<u64> {
            let mut start = 0u64;
            for p in &self.prefixes {
                if let Some(off) = p.index_of(addr) {
                    return Some(start + off);
                }
                start += p.size();
            }
            None
        }

        fn prefix_range_of(&self, index: u64) -> (u64, u64) {
            let slot = self.cum_end.partition_point(|&end| end <= index);
            let start = if slot == 0 { 0 } else { self.cum_end[slot - 1] };
            (start, self.cum_end[slot])
        }

        pub fn is_free(&self, addr: Ipv4Addr) -> bool {
            self.addr_to_index(addr)
                .map(|i| !self.occupied[i as usize])
                .unwrap_or(false)
        }

        fn take_free_in<R: Rng + ?Sized>(&mut self, rng: &mut R, lo: u64, hi: u64) -> Option<u64> {
            for _ in 0..64 {
                let i = rng.gen_range(lo..hi);
                if !self.occupied[i as usize] {
                    self.occupied[i as usize] = true;
                    return Some(i);
                }
            }
            let span = hi - lo;
            let start = rng.gen_range(0..span);
            for k in 0..span {
                let i = lo + (start + k) % span;
                if !self.occupied[i as usize] {
                    self.occupied[i as usize] = true;
                    return Some(i);
                }
            }
            None
        }

        pub fn allocate<R: Rng + ?Sized>(
            &mut self,
            rng: &mut R,
            client: ClientId,
            previous: Option<Ipv4Addr>,
        ) -> Option<Ipv4Addr> {
            let prev_index = previous.and_then(|a| self.addr_to_index(a));
            let chosen = match self.policy {
                AllocationPolicy::PreferPrevious => match prev_index {
                    Some(i) if !self.occupied[i as usize] => {
                        self.occupied[i as usize] = true;
                        Some(i)
                    }
                    _ => self.take_free_in(rng, 0, self.total()),
                },
                AllocationPolicy::RandomAny => self.take_free_in(rng, 0, self.total()),
                AllocationPolicy::SamePrefixBias(bias) => {
                    let in_prev = prev_index
                        .filter(|_| rng.gen::<f64>() < bias)
                        .map(|i| self.prefix_range_of(i));
                    match in_prev {
                        Some((lo, hi)) => self
                            .take_free_in(rng, lo, hi)
                            .or_else(|| self.take_free_in(rng, 0, self.total())),
                        None => self.take_free_in(rng, 0, self.total()),
                    }
                }
            }?;
            self.held.insert(client, chosen);
            Some(self.index_to_addr(chosen))
        }

        pub fn claim_specific(&mut self, client: ClientId, addr: Ipv4Addr) -> bool {
            match self.addr_to_index(addr) {
                Some(i) if !self.occupied[i as usize] => {
                    self.occupied[i as usize] = true;
                    self.held.insert(client, i);
                    true
                }
                _ => false,
            }
        }

        pub fn release(&mut self, client: ClientId) -> Option<Ipv4Addr> {
            let index = self.held.remove(&client)?;
            self.occupied[index as usize] = false;
            Some(self.index_to_addr(index))
        }

        pub fn background_claim(&mut self, addr: Ipv4Addr) -> bool {
            match self.addr_to_index(addr) {
                Some(i) if !self.occupied[i as usize] => {
                    self.occupied[i as usize] = true;
                    true
                }
                _ => false,
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::oracle::EagerPool;
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn policy_from(code: u8) -> AllocationPolicy {
        match code % 3 {
            0 => AllocationPolicy::PreferPrevious,
            1 => AllocationPolicy::RandomAny,
            _ => AllocationPolicy::SamePrefixBias(0.7),
        }
    }

    fn prefixes_from(code: u8) -> Vec<Prefix> {
        let parse = |s: &str| s.parse().unwrap();
        match code % 3 {
            0 => vec![parse("10.0.0.0/24")],
            1 => vec![parse("10.0.0.0/24"), parse("10.1.0.0/25")],
            _ => vec![
                parse("100.96.0.0/26"),
                parse("10.0.0.0/25"),
                parse("10.1.0.0/24"),
            ],
        }
    }

    proptest! {
        /// The lazy pool and the eager-bitmap oracle, driven by identical
        /// RNG streams and operation sequences, return identical addresses
        /// and report identical occupancy — across policies, occupancy
        /// levels, and multi-prefix layouts.
        #[test]
        fn lazy_pool_equals_eager_bitmap(
            seed in any::<u64>(),
            pool_seed in any::<u64>(),
            policy_code in 0u8..3,
            prefix_code in 0u8..3,
            occ_pct in 0u8..95,
            ops in proptest::collection::vec((0u8..4, 0u64..5), 1..150),
        ) {
            let config = PoolConfig {
                prefixes: prefixes_from(prefix_code),
                policy: policy_from(policy_code),
                background_occupancy: f64::from(occ_pct) / 100.0,
            };
            let mut lazy = AddressPool::new(&config, pool_seed);
            let mut eager = EagerPool::new(&config, pool_seed);
            let mut lazy_rng = ChaCha12Rng::seed_from_u64(seed);
            let mut eager_rng = ChaCha12Rng::seed_from_u64(seed);
            let mut last: HashMap<ClientId, Ipv4Addr> = HashMap::new();
            let mut live: Vec<ClientId> = Vec::new();
            for (op, client) in ops {
                let client = ClientId(client);
                match op {
                    0 if lazy.address_of(client).is_none() => {
                        let prev = last.get(&client).copied();
                        let a = lazy.allocate(&mut lazy_rng, client, prev);
                        let b = eager.allocate(&mut eager_rng, client, prev);
                        prop_assert_eq!(a, b, "allocate diverged");
                        if let Some(addr) = a {
                            last.insert(client, addr);
                            live.push(client);
                        }
                    }
                    1 => {
                        let a = lazy.release(client);
                        let b = eager.release(client);
                        prop_assert_eq!(a, b, "release diverged");
                        live.retain(|&c| c != client);
                    }
                    2 => {
                        if let Some(&addr) = last.get(&client) {
                            if lazy.address_of(client).is_none() {
                                let a = lazy.claim_specific(client, addr);
                                let b = eager.claim_specific(client, addr);
                                prop_assert_eq!(a, b, "claim_specific diverged");
                                if a {
                                    live.push(client);
                                }
                            }
                        }
                    }
                    _ => {
                        if let Some(&addr) = last.get(&client) {
                            let a = lazy.background_claim(addr);
                            let b = eager.background_claim(addr);
                            prop_assert_eq!(a, b, "background_claim diverged");
                        }
                    }
                }
                prop_assert_eq!(lazy.free_count(), eager.free_count(), "free_count diverged");
                for c in &live {
                    prop_assert_eq!(lazy.address_of(*c).map(|a| eager.is_free(a)), Some(false));
                }
                for addr in last.values() {
                    prop_assert_eq!(lazy.is_free(*addr), eager.is_free(*addr), "is_free diverged");
                }
            }
        }

        /// Free count plus our allocations plus background load always
        /// equals the pool total, across any interleaving of operations.
        #[test]
        fn accounting_invariant(seed in any::<u64>(), ops in proptest::collection::vec(0u8..4, 1..200)) {
            let mut r = ChaCha12Rng::seed_from_u64(seed);
            let config = PoolConfig {
                prefixes: vec!["10.0.0.0/24".parse().unwrap(), "10.1.0.0/25".parse().unwrap()],
                policy: AllocationPolicy::RandomAny,
                background_occupancy: 0.3,
            };
            let mut pool = AddressPool::new(&config, seed ^ 0xA5A5);
            let mut live: Vec<ClientId> = Vec::new();
            let mut next_id = 0u64;
            let mut released: Vec<Ipv4Addr> = Vec::new();
            for op in ops {
                match op {
                    0 => {
                        let c = ClientId(next_id);
                        next_id += 1;
                        if pool.allocate(&mut r, c, None).is_some() {
                            live.push(c);
                        }
                    }
                    1 => {
                        if let Some(c) = live.pop() {
                            let a = pool.release(c).unwrap();
                            released.push(a);
                        }
                    }
                    2 => {
                        if let Some(a) = released.pop() {
                            pool.background_claim(a);
                        }
                    }
                    _ => {
                        if let Some(a) = released.pop() {
                            let c = ClientId(next_id);
                            next_id += 1;
                            if pool.claim_specific(c, a) {
                                live.push(c);
                            }
                        }
                    }
                }
                // Each live client's address must be distinct and occupied.
                let mut seen = std::collections::HashSet::new();
                for c in &live {
                    let a = pool.address_of(*c).unwrap();
                    prop_assert!(seen.insert(a), "duplicate allocation {a}");
                    prop_assert!(!pool.is_free(a));
                }
                prop_assert!(pool.free_count() <= pool.total());
            }
        }
    }
}
