//! DHCP server model (RFC 2131).
//!
//! The model captures exactly the protocol features the paper reasons about:
//!
//! * leases with a configurable duration; clients renew half-way through
//!   (§2.1), and a renewal always yields the *same* address;
//! * the §4.3.1 design goal: when a client returns after its lease expired,
//!   the server re-issues the old address *if nobody claimed it meanwhile*;
//! * pool churn: once a lease expires the address returns to the pool and
//!   background demand claims it at a configurable rate — the longer the
//!   outage, the likelier the address is gone (the Fig. 9 LGI shape).
//!
//! Time is handled lazily: nothing needs a periodic tick. Expiry and churn
//! are resolved at the next client interaction, which keeps the simulator's
//! event queue small.

use crate::pool::{AddressPool, ClientId};
use dynaddr_types::{SimDuration, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Configuration of a DHCP server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DhcpConfig {
    /// Lease duration handed to clients.
    pub lease: SimDuration,
    /// Fraction of the lease after which a client attempts renewal
    /// (RFC 2131 T1; default 0.5).
    pub renew_at: f64,
    /// Rate (events per hour) at which background demand claims a *freed*
    /// address. The probability an expired binding survives `t` hours
    /// unclaimed is `exp(-rate × t)`.
    pub churn_rate_per_hour: f64,
    /// Mean interval between administrative pool rotations per client
    /// (`None` = never). Cable ISPs periodically rebalance CMTS pools,
    /// handing customers a new address at a renewal boundary even though the
    /// client kept renewing — the weeks-scale, non-periodic churn the paper
    /// measures for Verizon and LGI (Fig. 2). Intervals are exponential, so
    /// rotations produce no modal durations.
    pub rotation_mean: Option<SimDuration>,
}

impl Default for DhcpConfig {
    fn default() -> DhcpConfig {
        DhcpConfig {
            lease: SimDuration::from_hours(6),
            renew_at: 0.5,
            churn_rate_per_hour: 0.03,
            rotation_mean: None,
        }
    }
}

#[derive(Debug, Clone)]
struct Binding {
    addr: Ipv4Addr,
    expiry: SimTime,
}

/// The outcome of a client interaction with the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseOutcome {
    /// The address now bound to the client.
    pub addr: Ipv4Addr,
    /// Whether the address differs from the client's previous one.
    pub changed: bool,
    /// When the client should attempt its next renewal (T1).
    pub renew_at: SimTime,
}

/// A DHCP server bound to (but not owning) an [`AddressPool`].
///
/// ```
/// use dynaddr_ispnet::pool::{AddressPool, AllocationPolicy, ClientId, PoolConfig};
/// use dynaddr_ispnet::{DhcpConfig, DhcpServer};
/// use dynaddr_types::{SimDuration, SimTime};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
/// let mut pool = AddressPool::new(
///     &PoolConfig {
///         prefixes: vec!["100.64.0.0/20".parse().unwrap()],
///         policy: AllocationPolicy::PreferPrevious,
///         background_occupancy: 0.5,
///     },
///     1,
/// );
/// let mut server = DhcpServer::new(DhcpConfig::default());
///
/// // First lease, then a renewal within the lease: same address.
/// let first = server.acquire(&mut pool, &mut rng, ClientId(1), SimTime(0));
/// let renewed = server.renew(&mut pool, &mut rng, ClientId(1), first.renew_at);
/// assert_eq!(first.addr, renewed.addr);
/// assert!(!renewed.changed);
///
/// // Even after expiry, §4.3.1 re-issues the address while it is unclaimed
/// // (churn here is probabilistic; with default config it usually holds).
/// let later = SimTime(0) + SimDuration::from_hours(9);
/// let back = server.acquire(&mut pool, &mut rng, ClientId(1), later);
/// assert_eq!(back.addr, first.addr);
/// ```
#[derive(Debug, Clone)]
pub struct DhcpServer {
    config: DhcpConfig,
    bindings: HashMap<ClientId, Binding>,
}

impl DhcpServer {
    /// Creates a server with the given configuration.
    pub fn new(config: DhcpConfig) -> DhcpServer {
        assert!(config.lease.is_positive(), "lease must be positive");
        assert!(
            (0.0..=1.0).contains(&config.renew_at) && config.renew_at > 0.0,
            "renew_at must be in (0, 1]"
        );
        assert!(
            config.churn_rate_per_hour >= 0.0,
            "churn rate must be non-negative"
        );
        DhcpServer {
            config,
            bindings: HashMap::new(),
        }
    }

    /// The server configuration.
    pub fn config(&self) -> &DhcpConfig {
        &self.config
    }

    fn renew_time(&self, now: SimTime) -> SimTime {
        now + SimDuration::from_secs(
            (self.config.lease.secs() as f64 * self.config.renew_at) as i64,
        )
    }

    /// The client's current address, if it has an unexpired binding.
    pub fn address_of(&self, client: ClientId, now: SimTime) -> Option<Ipv4Addr> {
        self.bindings
            .get(&client)
            .filter(|b| now <= b.expiry)
            .map(|b| b.addr)
    }

    /// Client (re)acquires an address: initial boot, reboot, or return from
    /// an outage. Implements the RFC 2131 §4.3.1 stability goal with lazy
    /// expiry + churn resolution.
    pub fn acquire<R: Rng + ?Sized>(
        &mut self,
        pool: &mut AddressPool,
        rng: &mut R,
        client: ClientId,
        now: SimTime,
    ) -> LeaseOutcome {
        let renew_at = self.renew_time(now);
        let expiry = now + self.config.lease;

        match self.bindings.get(&client).cloned() {
            // Active lease: plain renewal, same address.
            Some(b) if now <= b.expiry => {
                self.bindings.insert(
                    client,
                    Binding {
                        addr: b.addr,
                        expiry,
                    },
                );
                LeaseOutcome {
                    addr: b.addr,
                    changed: false,
                    renew_at,
                }
            }
            // Expired lease: the address went back to the pool at b.expiry.
            // Background demand may have claimed it since.
            Some(b) => {
                // Consistency with the pool: the pool held the address for
                // the binding's lifetime; free it before deciding its fate.
                // (It may already be gone after administrative renumbering.)
                let was_held = pool.address_of(client) == Some(b.addr);
                if was_held {
                    pool.release(client);
                }
                let idle_hours = (now - b.expiry).secs() as f64 / 3_600.0;
                let survives = was_held
                    && rng.gen::<f64>() < (-self.config.churn_rate_per_hour * idle_hours).exp();
                if survives && pool.claim_specific(client, b.addr) {
                    self.bindings.insert(
                        client,
                        Binding {
                            addr: b.addr,
                            expiry,
                        },
                    );
                    return LeaseOutcome {
                        addr: b.addr,
                        changed: false,
                        renew_at,
                    };
                }
                if was_held && !survives {
                    // Someone else took it while the client was away.
                    pool.background_claim(b.addr);
                }
                let addr = pool
                    .allocate(rng, client, Some(b.addr))
                    .expect("pool exhausted");
                let changed = addr != b.addr;
                self.bindings.insert(client, Binding { addr, expiry });
                LeaseOutcome {
                    addr,
                    changed,
                    renew_at,
                }
            }
            // Unknown client: fresh allocation.
            None => {
                let addr = pool.allocate(rng, client, None).expect("pool exhausted");
                self.bindings.insert(client, Binding { addr, expiry });
                LeaseOutcome {
                    addr,
                    changed: false,
                    renew_at,
                }
            }
        }
    }

    /// In-lease renewal at T1. Extends the lease and keeps the address; if
    /// the lease already lapsed this degenerates to [`DhcpServer::acquire`].
    pub fn renew<R: Rng + ?Sized>(
        &mut self,
        pool: &mut AddressPool,
        rng: &mut R,
        client: ClientId,
        now: SimTime,
    ) -> LeaseOutcome {
        self.acquire(pool, rng, client, now)
    }

    /// Samples the next administrative rotation instant after `now`, if the
    /// server rotates at all.
    pub fn next_rotation<R: Rng + ?Sized>(&self, rng: &mut R, now: SimTime) -> Option<SimTime> {
        let mean = self.config.rotation_mean?;
        let gap = dynaddr_types::dist::DurationDist::Exponential {
            mean: mean.secs() as f64,
        };
        Some(now + gap.sample_duration(rng))
    }

    /// Administrative pool rotation: the server moves the client to a fresh
    /// address at a renewal boundary. The old address returns to the pool.
    pub fn rotate<R: Rng + ?Sized>(
        &mut self,
        pool: &mut AddressPool,
        rng: &mut R,
        client: ClientId,
        now: SimTime,
    ) -> LeaseOutcome {
        let renew_at = self.renew_time(now);
        let expiry = now + self.config.lease;
        let prev = self.bindings.get(&client).map(|b| b.addr);
        if prev.is_some() && pool.address_of(client).is_some() {
            pool.release(client);
        }
        // Allocate afresh (no previous-address preference): the rotation's
        // purpose is to move the client.
        let addr = pool.allocate(rng, client, None).expect("pool exhausted");
        self.bindings.insert(client, Binding { addr, expiry });
        LeaseOutcome {
            addr,
            changed: prev.map(|p| p != addr).unwrap_or(false),
            renew_at,
        }
    }

    /// Records that the client kept renewing (on schedule) until `until`.
    ///
    /// The simulator uses this instead of materializing every T1 renewal
    /// event: a client that was online and renewing until the moment it went
    /// offline holds a lease that expires one full lease duration after its
    /// last renewal. Extends the binding's expiry to `until + lease`; never
    /// shortens it.
    pub fn note_renewed_until(&mut self, client: ClientId, until: SimTime) {
        let lease = self.config.lease;
        if let Some(b) = self.bindings.get_mut(&client) {
            b.expiry = b.expiry.max(until + lease);
        }
    }

    /// Client releases its address (DHCPRELEASE).
    pub fn release(&mut self, pool: &mut AddressPool, client: ClientId) {
        if self.bindings.remove(&client).is_some() && pool.address_of(client).is_some() {
            pool.release(client);
        }
    }

    /// Forgets every binding (administrative renumbering support). The pool
    /// is assumed to have been rebuilt by the caller.
    pub fn reset_all(&mut self) {
        self.bindings.clear();
    }

    /// Number of known bindings (including lazily-expired ones).
    pub fn binding_count(&self) -> usize {
        self.bindings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{AllocationPolicy, PoolConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn setup(churn: f64) -> (DhcpServer, AddressPool, ChaCha12Rng) {
        let rng = ChaCha12Rng::seed_from_u64(11);
        let pool = AddressPool::new(
            &PoolConfig {
                prefixes: vec!["100.64.0.0/18".parse().unwrap()],
                policy: AllocationPolicy::PreferPrevious,
                background_occupancy: 0.5,
            },
            11,
        );
        let server = DhcpServer::new(DhcpConfig {
            lease: SimDuration::from_hours(6),
            renew_at: 0.5,
            churn_rate_per_hour: churn,
            rotation_mean: None,
        });
        (server, pool, rng)
    }

    const T0: SimTime = SimTime(0);

    #[test]
    fn fresh_client_gets_address_and_t1() {
        let (mut s, mut pool, mut r) = setup(0.03);
        let out = s.acquire(&mut pool, &mut r, ClientId(1), T0);
        assert!(!out.changed);
        assert_eq!(out.renew_at, T0 + SimDuration::from_hours(3));
        assert_eq!(s.address_of(ClientId(1), T0), Some(out.addr));
    }

    #[test]
    fn renewals_never_change_address() {
        let (mut s, mut pool, mut r) = setup(0.03);
        let first = s.acquire(&mut pool, &mut r, ClientId(1), T0);
        let mut now = T0;
        for _ in 0..100 {
            now += SimDuration::from_hours(3);
            let out = s.renew(&mut pool, &mut r, ClientId(1), now);
            assert_eq!(out.addr, first.addr);
            assert!(!out.changed);
        }
    }

    #[test]
    fn short_outage_within_lease_keeps_address() {
        let (mut s, mut pool, mut r) = setup(10.0); // vicious churn
        let first = s.acquire(&mut pool, &mut r, ClientId(1), T0);
        // Outage of 5 hours; lease is 6h, so the binding never expired.
        let out = s.acquire(
            &mut pool,
            &mut r,
            ClientId(1),
            T0 + SimDuration::from_hours(5),
        );
        assert_eq!(out.addr, first.addr);
        assert!(!out.changed);
    }

    #[test]
    fn expired_lease_with_zero_churn_reissues_same_address() {
        let (mut s, mut pool, mut r) = setup(0.0);
        let first = s.acquire(&mut pool, &mut r, ClientId(1), T0);
        let out = s.acquire(
            &mut pool,
            &mut r,
            ClientId(1),
            T0 + SimDuration::from_days(30),
        );
        assert_eq!(out.addr, first.addr, "no churn → §4.3.1 keeps the address");
        assert!(!out.changed);
    }

    #[test]
    fn long_outage_with_churn_changes_address() {
        let (mut s, mut pool, mut r) = setup(1.0); // ~1 claim/hour
        let first = s.acquire(&mut pool, &mut r, ClientId(1), T0);
        // Expired for days under heavy churn: address is certainly gone.
        let out = s.acquire(
            &mut pool,
            &mut r,
            ClientId(1),
            T0 + SimDuration::from_days(10),
        );
        assert_ne!(out.addr, first.addr);
        assert!(out.changed);
    }

    #[test]
    fn change_probability_grows_with_outage_duration() {
        // Statistical check of the Fig. 9 LGI mechanism.
        let mut changed_short = 0;
        let mut changed_long = 0;
        let trials = 300;
        for seed in 0..trials {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let mut pool = AddressPool::new(
                &PoolConfig {
                    prefixes: vec!["100.64.0.0/18".parse().unwrap()],
                    policy: AllocationPolicy::PreferPrevious,
                    background_occupancy: 0.5,
                },
                seed,
            );
            let mut s = DhcpServer::new(DhcpConfig {
                lease: SimDuration::from_hours(6),
                renew_at: 0.5,
                churn_rate_per_hour: 0.05,
                rotation_mean: None,
            });
            s.acquire(&mut pool, &mut rng, ClientId(1), T0);
            // 8-hour outage: expired for 2 h.
            let o1 = s.acquire(
                &mut pool,
                &mut rng,
                ClientId(1),
                T0 + SimDuration::from_hours(8),
            );
            if o1.changed {
                changed_short += 1;
            }
            // Another 3-day outage on top.
            let o2 = s.acquire(
                &mut pool,
                &mut rng,
                ClientId(1),
                T0 + SimDuration::from_days(4),
            );
            if o2.changed {
                changed_long += 1;
            }
        }
        let p_short = changed_short as f64 / trials as f64;
        let p_long = changed_long as f64 / trials as f64;
        assert!(p_short < 0.25, "short-outage change rate {p_short}");
        assert!(p_long > 2.0 * p_short, "long {p_long} vs short {p_short}");
    }

    #[test]
    fn release_frees_the_address() {
        let (mut s, mut pool, mut r) = setup(0.0);
        let out = s.acquire(&mut pool, &mut r, ClientId(1), T0);
        s.release(&mut pool, ClientId(1));
        assert!(pool.is_free(out.addr));
        assert_eq!(s.binding_count(), 0);
    }

    #[test]
    fn reset_all_survives_pool_migration() {
        let (mut s, mut pool, mut r) = setup(0.0);
        s.acquire(&mut pool, &mut r, ClientId(1), T0);
        pool.migrate_prefixes(
            std::sync::Arc::new(vec!["198.18.0.0/19".parse().unwrap()]),
            0.2,
            42,
        );
        s.reset_all();
        let out = s.acquire(
            &mut pool,
            &mut r,
            ClientId(1),
            T0 + SimDuration::from_hours(1),
        );
        assert!("198.18.0.0/19"
            .parse::<dynaddr_types::Prefix>()
            .unwrap()
            .contains(out.addr));
    }

    #[test]
    fn expired_binding_after_migration_does_not_panic() {
        // A binding whose address vanished from the pool (admin renumbering
        // without reset_all) must be handled gracefully.
        let (mut s, mut pool, mut r) = setup(0.0);
        s.acquire(&mut pool, &mut r, ClientId(1), T0);
        pool.migrate_prefixes(
            std::sync::Arc::new(vec!["198.18.0.0/19".parse().unwrap()]),
            0.2,
            42,
        );
        let out = s.acquire(
            &mut pool,
            &mut r,
            ClientId(1),
            T0 + SimDuration::from_days(1),
        );
        assert!(out.changed);
    }

    #[test]
    #[should_panic(expected = "lease must be positive")]
    fn zero_lease_rejected() {
        DhcpServer::new(DhcpConfig {
            lease: SimDuration::ZERO,
            renew_at: 0.5,
            churn_rate_per_hour: 0.0,
            rotation_mean: None,
        });
    }
}
