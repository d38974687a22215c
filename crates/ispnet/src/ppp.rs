//! PPP/PPPoE + RADIUS session model.
//!
//! The paper's ground truth (private communication with a large European
//! ISP, §4.3.2 and §5.4) describes PPPoE DSL lines where *any*
//! reboot/reconnect event yields a fresh address from the dynamic pool, and
//! where the ISP caps session length — 24 hours for DTAG-style networks,
//! one week for Orange-style networks — forcing periodic renumbering even of
//! connected, functioning equipment.
//!
//! Mechanisms modelled here:
//!
//! * a **hold timer**: connectivity loss shorter than the timer keeps the
//!   session (and address) alive; anything longer tears the session down;
//! * **renumber-on-reconnect**: a new session draws a fresh address from the
//!   pool (RADIUS without address memory). Can be disabled to model PPP
//!   deployments that do remember addresses;
//! * a **session cap** with optional jitter, producing the periodic address
//!   durations of §4;
//! * a **skip probability**: a scheduled cap termination is occasionally
//!   skipped (the session runs another full period), reproducing the
//!   harmonic durations of §4.4.2 (48 h / 72 h modes on a 24 h plan).

use crate::pool::{AddressPool, ClientId};
use dynaddr_types::dist::DurationDist;
use dynaddr_types::{SimDuration, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Configuration of a PPP/RADIUS access server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PppConfig {
    /// Connectivity loss longer than this tears the session down.
    pub hold_timer: SimDuration,
    /// Whether a new session receives a fresh address (true for the ISPs in
    /// the paper's Table 6).
    pub renumber_on_reconnect: bool,
    /// ISP-imposed maximum session length (periodic renumbering period d).
    pub session_cap: Option<SimDuration>,
    /// Random slack added on top of the cap each time it is armed. `None`
    /// means the cap fires exactly on schedule.
    pub cap_jitter: Option<DurationDist>,
    /// Probability that a scheduled cap termination is skipped and the
    /// session runs on.
    pub skip_renumber_prob: f64,
    /// How much longer a skipped session runs before the next termination
    /// attempt. `None` means one full period (harmonic overruns: 48 h / 72 h
    /// on a 24 h plan); a distribution yields non-harmonic overruns like
    /// Global Village Telecom's in Table 5.
    pub skip_extension: Option<DurationDist>,
}

impl Default for PppConfig {
    fn default() -> PppConfig {
        PppConfig {
            hold_timer: SimDuration::from_secs(60),
            renumber_on_reconnect: true,
            session_cap: None,
            cap_jitter: None,
            skip_renumber_prob: 0.0,
            skip_extension: None,
        }
    }
}

#[derive(Debug, Clone)]
struct Session {
    addr: Ipv4Addr,
    /// When the session was established.
    started: SimTime,
}

/// Outcome of a connect or cap-expiry interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionOutcome {
    /// The address bound to the client after the interaction.
    pub addr: Ipv4Addr,
    /// Whether it differs from the previous address.
    pub changed: bool,
    /// When the ISP will next force this session to terminate, if capped.
    pub cap_deadline: Option<SimTime>,
}

/// A PPP/RADIUS access server bound to (but not owning) an [`AddressPool`].
///
/// ```
/// use dynaddr_ispnet::pool::{AddressPool, AllocationPolicy, ClientId, PoolConfig};
/// use dynaddr_ispnet::{PppConfig, PppServer};
/// use dynaddr_types::{SimDuration, SimTime};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
/// let mut pool = AddressPool::new(
///     &PoolConfig {
///         prefixes: vec!["100.64.0.0/20".parse().unwrap()],
///         policy: AllocationPolicy::RandomAny,
///         background_occupancy: 0.5,
///     },
///     1,
/// );
/// // A DTAG-style 24-hour session cap.
/// let mut server = PppServer::new(PppConfig {
///     session_cap: Some(SimDuration::from_hours(24)),
///     ..PppConfig::default()
/// });
///
/// let session = server.connect(&mut pool, &mut rng, ClientId(1), SimTime(0), None);
/// let deadline = session.cap_deadline.unwrap();
/// assert_eq!(deadline, SimTime(0) + SimDuration::from_hours(24));
///
/// // The cap fires: fresh session, fresh address.
/// let renumbered = server.on_cap_expiry(&mut pool, &mut rng, ClientId(1), deadline);
/// assert!(renumbered.changed);
/// assert_ne!(renumbered.addr, session.addr);
/// ```
#[derive(Debug, Clone)]
pub struct PppServer {
    config: PppConfig,
    sessions: HashMap<ClientId, Session>,
}

impl PppServer {
    /// Creates a server with the given configuration.
    pub fn new(config: PppConfig) -> PppServer {
        assert!(
            config.hold_timer.secs() >= 0,
            "hold timer must be non-negative"
        );
        if let Some(cap) = config.session_cap {
            assert!(cap.is_positive(), "session cap must be positive");
        }
        assert!(
            (0.0..1.0).contains(&config.skip_renumber_prob),
            "skip probability must be in [0,1)"
        );
        PppServer {
            config,
            sessions: HashMap::new(),
        }
    }

    /// The server configuration.
    pub fn config(&self) -> &PppConfig {
        &self.config
    }

    /// The client's current address, if a session exists.
    pub fn address_of(&self, client: ClientId) -> Option<Ipv4Addr> {
        self.sessions.get(&client).map(|s| s.addr)
    }

    /// Arms the cap deadline for a session started at `started`.
    fn cap_deadline<R: Rng + ?Sized>(&self, rng: &mut R, started: SimTime) -> Option<SimTime> {
        let cap = self.config.session_cap?;
        let jitter = self
            .config
            .cap_jitter
            .as_ref()
            .map(|d| d.sample_duration(rng))
            .unwrap_or(SimDuration::ZERO);
        Some(started + cap + jitter)
    }

    /// Client connects — initial dial-in, reboot, or return from an outage
    /// that may or may not have exceeded the hold timer.
    ///
    /// `offline_for` is how long the subscriber was unreachable before this
    /// connect (`None`/zero for a first connect or an ISP-forced reconnect).
    pub fn connect<R: Rng + ?Sized>(
        &mut self,
        pool: &mut AddressPool,
        rng: &mut R,
        client: ClientId,
        now: SimTime,
        offline_for: Option<SimDuration>,
    ) -> SessionOutcome {
        let offline = offline_for.unwrap_or(SimDuration::ZERO);
        match self.sessions.get(&client).cloned() {
            // Blip shorter than the hold timer: session survives unchanged.
            Some(s) if offline <= self.config.hold_timer => {
                let deadline = self.cap_deadline_resample_free(s.started);
                self.sessions.insert(
                    client,
                    Session {
                        addr: s.addr,
                        started: s.started,
                    },
                );
                SessionOutcome {
                    addr: s.addr,
                    changed: false,
                    cap_deadline: deadline,
                }
            }
            // Session torn down while the subscriber was away.
            Some(s) => {
                let prev = s.addr;
                if pool.address_of(client) == Some(prev) {
                    pool.release(client);
                }
                let addr = if self.config.renumber_on_reconnect {
                    pool.allocate(rng, client, Some(prev))
                        .expect("pool exhausted")
                } else if pool.claim_specific(client, prev) {
                    prev
                } else {
                    pool.allocate(rng, client, Some(prev))
                        .expect("pool exhausted")
                };
                let deadline = self.cap_deadline(rng, now);
                self.sessions.insert(client, Session { addr, started: now });
                SessionOutcome {
                    addr,
                    changed: addr != prev,
                    cap_deadline: deadline,
                }
            }
            // Unknown client: fresh session.
            None => {
                let addr = pool.allocate(rng, client, None).expect("pool exhausted");
                let deadline = self.cap_deadline(rng, now);
                self.sessions.insert(client, Session { addr, started: now });
                SessionOutcome {
                    addr,
                    changed: false,
                    cap_deadline: deadline,
                }
            }
        }
    }

    /// Deadline recomputation without jitter re-sampling, used when a session
    /// survives a blip: the original deadline (relative to the session start)
    /// still stands. Without jitter this is exact; with jitter we conservatively
    /// re-arm from the cap alone.
    fn cap_deadline_resample_free(&self, started: SimTime) -> Option<SimTime> {
        self.config.session_cap.map(|cap| started + cap)
    }

    /// The CPE deliberately tears the session down and re-dials (the
    /// scheduled nightly reconnect privacy feature of §4.4.3). Unlike
    /// [`PppServer::connect`], this never takes the survives-a-blip path:
    /// the old session ends now regardless of the hold timer.
    pub fn reconnect_new_session<R: Rng + ?Sized>(
        &mut self,
        pool: &mut AddressPool,
        rng: &mut R,
        client: ClientId,
        now: SimTime,
    ) -> SessionOutcome {
        let prev = self.sessions.get(&client).map(|s| s.addr);
        if let Some(prev) = prev {
            if pool.address_of(client) == Some(prev) {
                pool.release(client);
            }
        }
        let addr = match prev {
            Some(prev)
                if !self.config.renumber_on_reconnect && pool.claim_specific(client, prev) =>
            {
                prev
            }
            Some(prev) => pool
                .allocate(rng, client, Some(prev))
                .expect("pool exhausted"),
            None => pool.allocate(rng, client, None).expect("pool exhausted"),
        };
        let deadline = self.cap_deadline(rng, now);
        self.sessions.insert(client, Session { addr, started: now });
        SessionOutcome {
            addr,
            changed: prev.is_some() && prev != Some(addr),
            cap_deadline: deadline,
        }
    }

    /// The ISP's scheduled session-cap expiry fires. With probability
    /// `skip_renumber_prob` the termination is skipped and the session runs
    /// one more full period; otherwise the session is torn down and the
    /// client immediately re-dials, receiving a fresh address.
    pub fn on_cap_expiry<R: Rng + ?Sized>(
        &mut self,
        pool: &mut AddressPool,
        rng: &mut R,
        client: ClientId,
        now: SimTime,
    ) -> SessionOutcome {
        let cap = self
            .config
            .session_cap
            .expect("on_cap_expiry on an uncapped server");
        // The session may have vanished under the client (administrative
        // renumbering resets all sessions): treat the expiry as a re-dial.
        let Some(session) = self.sessions.get(&client).cloned() else {
            return self.reconnect_new_session(pool, rng, client, now);
        };
        if rng.gen::<f64>() < self.config.skip_renumber_prob {
            // Skipped: session continues until one more period (harmonic)
            // or a sampled extension (non-harmonic) elapses.
            let extension = self
                .config
                .skip_extension
                .as_ref()
                .map(|d| d.sample_duration(rng).max(SimDuration::from_mins(30)))
                .unwrap_or(cap);
            return SessionOutcome {
                addr: session.addr,
                changed: false,
                cap_deadline: Some(now + extension),
            };
        }
        // Tear down and immediately reconnect with a fresh address.
        let prev = session.addr;
        if pool.address_of(client) == Some(prev) {
            pool.release(client);
        }
        let addr = if self.config.renumber_on_reconnect {
            pool.allocate(rng, client, Some(prev))
                .expect("pool exhausted")
        } else if pool.claim_specific(client, prev) {
            prev
        } else {
            pool.allocate(rng, client, Some(prev))
                .expect("pool exhausted")
        };
        let deadline = self.cap_deadline(rng, now);
        self.sessions.insert(client, Session { addr, started: now });
        SessionOutcome {
            addr,
            changed: addr != prev,
            cap_deadline: deadline,
        }
    }

    /// Client disconnects cleanly; the address returns to the pool.
    pub fn disconnect(&mut self, pool: &mut AddressPool, client: ClientId) {
        if self.sessions.remove(&client).is_some() && pool.address_of(client).is_some() {
            pool.release(client);
        }
    }

    /// Forgets every session (administrative renumbering support).
    pub fn reset_all(&mut self) {
        self.sessions.clear();
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{AllocationPolicy, PoolConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    const T0: SimTime = SimTime(0);

    fn setup(config: PppConfig) -> (PppServer, AddressPool, ChaCha12Rng) {
        let rng = ChaCha12Rng::seed_from_u64(23);
        let pool = AddressPool::new(
            &PoolConfig {
                prefixes: vec!["100.64.0.0/18".parse().unwrap()],
                policy: AllocationPolicy::RandomAny,
                background_occupancy: 0.6,
            },
            23,
        );
        (PppServer::new(config), pool, rng)
    }

    #[test]
    fn blip_within_hold_timer_keeps_address() {
        let (mut s, mut pool, mut r) = setup(PppConfig::default());
        let a = s.connect(&mut pool, &mut r, ClientId(1), T0, None);
        let b = s.connect(
            &mut pool,
            &mut r,
            ClientId(1),
            T0 + SimDuration::from_secs(90),
            Some(SimDuration::from_secs(45)),
        );
        assert_eq!(a.addr, b.addr);
        assert!(!b.changed);
    }

    #[test]
    fn outage_beyond_hold_timer_renumbers() {
        let (mut s, mut pool, mut r) = setup(PppConfig::default());
        let a = s.connect(&mut pool, &mut r, ClientId(1), T0, None);
        let b = s.connect(
            &mut pool,
            &mut r,
            ClientId(1),
            T0 + SimDuration::from_mins(5),
            Some(SimDuration::from_mins(4)),
        );
        assert_ne!(a.addr, b.addr, "PPPoE renumbers on any reconnect");
        assert!(b.changed);
    }

    #[test]
    fn renumber_disabled_keeps_address_across_outages() {
        let (mut s, mut pool, mut r) = setup(PppConfig {
            renumber_on_reconnect: false,
            ..PppConfig::default()
        });
        let a = s.connect(&mut pool, &mut r, ClientId(1), T0, None);
        let b = s.connect(
            &mut pool,
            &mut r,
            ClientId(1),
            T0 + SimDuration::from_hours(10),
            Some(SimDuration::from_hours(9)),
        );
        assert_eq!(a.addr, b.addr);
    }

    #[test]
    fn session_cap_sets_deadline_and_renumbers() {
        let cap = SimDuration::from_hours(24);
        let (mut s, mut pool, mut r) = setup(PppConfig {
            session_cap: Some(cap),
            ..PppConfig::default()
        });
        let a = s.connect(&mut pool, &mut r, ClientId(1), T0, None);
        assert_eq!(a.cap_deadline, Some(T0 + cap));
        let b = s.on_cap_expiry(&mut pool, &mut r, ClientId(1), T0 + cap);
        assert!(b.changed);
        assert_eq!(b.cap_deadline, Some(T0 + cap + cap));
    }

    #[test]
    fn skip_probability_produces_harmonics() {
        let cap = SimDuration::from_hours(24);
        let (mut s, mut pool, mut r) = setup(PppConfig {
            session_cap: Some(cap),
            skip_renumber_prob: 0.5,
            ..PppConfig::default()
        });
        s.connect(&mut pool, &mut r, ClientId(1), T0, None);
        let mut skips = 0;
        let mut fires = 0;
        let mut deadline = T0 + cap;
        for _ in 0..200 {
            let out = s.on_cap_expiry(&mut pool, &mut r, ClientId(1), deadline);
            if out.changed {
                fires += 1;
            } else {
                skips += 1;
            }
            deadline = out.cap_deadline.unwrap();
        }
        assert!(skips > 60 && fires > 60, "skips {skips}, fires {fires}");
    }

    #[test]
    fn cap_jitter_extends_deadline() {
        let cap = SimDuration::from_hours(48);
        let (mut s, mut pool, mut r) = setup(PppConfig {
            session_cap: Some(cap),
            cap_jitter: Some(DurationDist::Uniform {
                lo: 0.0,
                hi: 6.0 * 3600.0,
            }),
            ..PppConfig::default()
        });
        for i in 0..50 {
            let out = s.connect(&mut pool, &mut r, ClientId(i), T0, None);
            let d = out.cap_deadline.unwrap() - T0;
            assert!(
                d >= cap && d <= cap + SimDuration::from_hours(6),
                "deadline {d}"
            );
        }
    }

    #[test]
    fn blip_preserves_original_deadline() {
        let cap = SimDuration::from_hours(24);
        let (mut s, mut pool, mut r) = setup(PppConfig {
            session_cap: Some(cap),
            ..PppConfig::default()
        });
        s.connect(&mut pool, &mut r, ClientId(1), T0, None);
        let out = s.connect(
            &mut pool,
            &mut r,
            ClientId(1),
            T0 + SimDuration::from_hours(3),
            Some(SimDuration::from_secs(30)),
        );
        assert_eq!(
            out.cap_deadline,
            Some(T0 + cap),
            "deadline anchored to session start"
        );
    }

    #[test]
    fn disconnect_frees_address() {
        let (mut s, mut pool, mut r) = setup(PppConfig::default());
        let out = s.connect(&mut pool, &mut r, ClientId(1), T0, None);
        s.disconnect(&mut pool, ClientId(1));
        assert!(pool.is_free(out.addr));
        assert_eq!(s.session_count(), 0);
    }

    #[test]
    fn uncapped_sessions_have_no_deadline() {
        let (mut s, mut pool, mut r) = setup(PppConfig::default());
        let out = s.connect(&mut pool, &mut r, ClientId(1), T0, None);
        assert_eq!(out.cap_deadline, None);
    }

    #[test]
    #[should_panic(expected = "uncapped")]
    fn cap_expiry_on_uncapped_server_panics() {
        let (mut s, mut pool, mut r) = setup(PppConfig::default());
        s.connect(&mut pool, &mut r, ClientId(1), T0, None);
        s.on_cap_expiry(
            &mut pool,
            &mut r,
            ClientId(1),
            T0 + SimDuration::from_hours(1),
        );
    }
}
