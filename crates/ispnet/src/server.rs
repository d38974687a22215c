//! The [`IspNetwork`] facade: one object per ISP that the Atlas simulator
//! drives, hiding whether the access technology is DHCP or PPP.
//!
//! The simulator only needs four verbs:
//!
//! * [`IspNetwork::connect`] — CPE boots, reconnects, or recovers from an
//!   outage; the ISP decides whether the address survives;
//! * [`IspNetwork::next_action`] — when the ISP side will next act on its
//!   own (DHCP T1 renewal, PPP session-cap expiry);
//! * [`IspNetwork::handle_action`] — execute that scheduled action;
//! * [`IspNetwork::admin_renumber`] — en-masse migration to new prefixes
//!   (the rare administrative renumbering of §8).

use crate::dhcp::{DhcpConfig, DhcpServer};
use crate::pool::{AddressPool, ClientId, PoolConfig};
use crate::ppp::{PppConfig, PppServer};
use dynaddr_types::{Asn, Prefix, SimDuration, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Access-technology configuration for an ISP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AccessConfig {
    /// DHCP-based access (cable-style): stable addresses, outage-driven
    /// changes gated by lease expiry and pool churn.
    Dhcp(DhcpConfig),
    /// PPP/PPPoE + RADIUS access (DSL-style): renumber on reconnect,
    /// optional periodic session caps.
    Ppp(PppConfig),
}

impl AccessConfig {
    /// The configured periodic renumbering period, if any (ground truth for
    /// validating Table 5).
    pub fn periodic_period(&self) -> Option<SimDuration> {
        match self {
            AccessConfig::Dhcp(_) => None,
            AccessConfig::Ppp(c) => c.session_cap,
        }
    }

    /// Whether reconnects after connectivity loss renumber (ground truth
    /// for validating Table 6).
    pub fn renumbers_on_reconnect(&self) -> bool {
        match self {
            AccessConfig::Dhcp(_) => false,
            AccessConfig::Ppp(c) => c.renumber_on_reconnect,
        }
    }
}

enum AccessServer {
    Dhcp(DhcpServer),
    Ppp(PppServer),
}

/// Result of a client-facing interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The client's (possibly new) address.
    pub addr: Ipv4Addr,
    /// Whether the address changed relative to before the interaction.
    pub changed: bool,
}

/// The next ISP-initiated event for a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextIspAction {
    /// DHCP T1 renewal the client should perform (address never changes).
    Renew(SimTime),
    /// PPP session-cap expiry; the ISP may terminate the session then.
    CapExpiry(SimTime),
}

impl NextIspAction {
    /// When the action is due.
    pub fn due(self) -> SimTime {
        match self {
            NextIspAction::Renew(t) | NextIspAction::CapExpiry(t) => t,
        }
    }
}

/// One ISP's access network: pool + access server + per-client schedule.
pub struct IspNetwork {
    asn: Asn,
    pool: AddressPool,
    server: AccessServer,
    access: AccessConfig,
    /// Pending ISP-initiated action per client.
    schedule: HashMap<ClientId, NextIspAction>,
}

impl IspNetwork {
    /// Builds an ISP network; background occupancy is the implicit function
    /// of `pool_seed` (construction is O(prefixes), no RNG is consumed).
    pub fn new(
        asn: Asn,
        pool_config: &PoolConfig,
        access: AccessConfig,
        pool_seed: u64,
    ) -> IspNetwork {
        IspNetwork::with_pool(asn, AddressPool::new(pool_config, pool_seed), access)
    }

    /// Builds an ISP network around an already-constructed pool (the
    /// simulator builds pools from `Arc`-shared prefix lists per shard).
    pub fn with_pool(asn: Asn, pool: AddressPool, access: AccessConfig) -> IspNetwork {
        let server = match &access {
            AccessConfig::Dhcp(c) => AccessServer::Dhcp(DhcpServer::new(c.clone())),
            AccessConfig::Ppp(c) => AccessServer::Ppp(PppServer::new(c.clone())),
        };
        IspNetwork {
            asn,
            pool,
            server,
            access,
            schedule: HashMap::new(),
        }
    }

    /// The ISP's autonomous system number.
    pub fn asn(&self) -> Asn {
        self.asn
    }

    /// The access configuration (ground truth for validation).
    pub fn access(&self) -> &AccessConfig {
        &self.access
    }

    /// The prefixes the pool currently allocates from.
    pub fn prefixes(&self) -> &[Prefix] {
        self.pool.prefixes()
    }

    /// The client's current address, if the ISP believes it holds one.
    pub fn address_of(&self, client: ClientId, now: SimTime) -> Option<Ipv4Addr> {
        match &self.server {
            AccessServer::Dhcp(s) => s.address_of(client, now),
            AccessServer::Ppp(s) => s.address_of(client),
        }
    }

    /// CPE connects: first boot, reboot, or recovery after being offline for
    /// `offline_for`. Returns the assigned address and whether it changed;
    /// reschedules the next ISP-initiated action.
    pub fn connect<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        client: ClientId,
        now: SimTime,
        offline_for: Option<SimDuration>,
    ) -> AccessOutcome {
        match &mut self.server {
            AccessServer::Dhcp(s) => {
                // A client that was online kept renewing until it went
                // offline; reflect that before deciding expiry.
                if let Some(off) = offline_for {
                    s.note_renewed_until(client, now - off);
                }
                let out = s.acquire(&mut self.pool, rng, client, now);
                // Administrative pool rotations are ISP-initiated renumber
                // actions; plain T1 renewals never change the address and
                // need no events.
                match s.next_rotation(rng, now) {
                    Some(t) => {
                        self.schedule.insert(client, NextIspAction::CapExpiry(t));
                    }
                    None => {
                        self.schedule
                            .insert(client, NextIspAction::Renew(out.renew_at));
                    }
                }
                AccessOutcome {
                    addr: out.addr,
                    changed: out.changed,
                }
            }
            AccessServer::Ppp(s) => {
                let out = s.connect(&mut self.pool, rng, client, now, offline_for);
                match out.cap_deadline {
                    Some(t) => {
                        self.schedule.insert(client, NextIspAction::CapExpiry(t));
                    }
                    None => {
                        self.schedule.remove(&client);
                    }
                }
                AccessOutcome {
                    addr: out.addr,
                    changed: out.changed,
                }
            }
        }
    }

    /// When the ISP will next act on its own for this client.
    pub fn next_action(&self, client: ClientId) -> Option<NextIspAction> {
        self.schedule.get(&client).copied()
    }

    /// Executes the scheduled ISP action at `now`. For DHCP this is the T1
    /// renewal (never a change); for PPP it is the session-cap expiry (a
    /// change unless skipped). Returns the outcome and reschedules.
    pub fn handle_action<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        client: ClientId,
        now: SimTime,
    ) -> AccessOutcome {
        match &mut self.server {
            AccessServer::Dhcp(s) => {
                let pending = self.schedule.get(&client).copied();
                let out = if matches!(pending, Some(NextIspAction::CapExpiry(_))) {
                    s.rotate(&mut self.pool, rng, client, now)
                } else {
                    s.renew(&mut self.pool, rng, client, now)
                };
                match s.next_rotation(rng, now) {
                    Some(t) => {
                        self.schedule.insert(client, NextIspAction::CapExpiry(t));
                    }
                    None => {
                        self.schedule
                            .insert(client, NextIspAction::Renew(out.renew_at));
                    }
                }
                AccessOutcome {
                    addr: out.addr,
                    changed: out.changed,
                }
            }
            AccessServer::Ppp(s) => {
                let out = s.on_cap_expiry(&mut self.pool, rng, client, now);
                match out.cap_deadline {
                    Some(t) => {
                        self.schedule.insert(client, NextIspAction::CapExpiry(t));
                    }
                    None => {
                        self.schedule.remove(&client);
                    }
                }
                AccessOutcome {
                    addr: out.addr,
                    changed: out.changed,
                }
            }
        }
    }

    /// The CPE deliberately tears its session down and re-dials (scheduled
    /// nightly reconnect). For PPP this always establishes a fresh session
    /// (renumbering unless the server remembers addresses); for DHCP it is
    /// an INIT-REBOOT re-acquire that keeps the address.
    pub fn force_reconnect<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        client: ClientId,
        now: SimTime,
    ) -> AccessOutcome {
        match &mut self.server {
            AccessServer::Dhcp(s) => {
                let out = s.acquire(&mut self.pool, rng, client, now);
                self.schedule
                    .insert(client, NextIspAction::Renew(out.renew_at));
                AccessOutcome {
                    addr: out.addr,
                    changed: out.changed,
                }
            }
            AccessServer::Ppp(s) => {
                let out = s.reconnect_new_session(&mut self.pool, rng, client, now);
                match out.cap_deadline {
                    Some(t) => {
                        self.schedule.insert(client, NextIspAction::CapExpiry(t));
                    }
                    None => {
                        self.schedule.remove(&client);
                    }
                }
                AccessOutcome {
                    addr: out.addr,
                    changed: out.changed,
                }
            }
        }
    }

    /// Client leaves the network for good.
    pub fn disconnect(&mut self, client: ClientId) {
        match &mut self.server {
            AccessServer::Dhcp(s) => s.release(&mut self.pool, client),
            AccessServer::Ppp(s) => s.disconnect(&mut self.pool, client),
        }
        self.schedule.remove(&client);
    }

    /// Administrative renumbering: the ISP migrates its dynamic pool to new
    /// prefixes. All bindings are forgotten; every client receives an
    /// address from the new space at its next `connect`. The new background
    /// load is seeded by one draw from `rng`.
    pub fn admin_renumber<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        new_prefixes: Arc<Vec<Prefix>>,
        background_occupancy: f64,
    ) {
        let seed = rng.gen::<u64>();
        self.pool
            .migrate_prefixes(new_prefixes, background_occupancy, seed);
        match &mut self.server {
            AccessServer::Dhcp(s) => s.reset_all(),
            AccessServer::Ppp(s) => s.reset_all(),
        }
        self.schedule.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::AllocationPolicy;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    const T0: SimTime = SimTime(0);

    fn pool_config() -> PoolConfig {
        PoolConfig {
            prefixes: vec![
                "100.64.0.0/18".parse().unwrap(),
                "100.65.0.0/18".parse().unwrap(),
            ],
            policy: AllocationPolicy::RandomAny,
            background_occupancy: 0.5,
        }
    }

    fn dhcp_isp() -> (IspNetwork, ChaCha12Rng) {
        let rng = ChaCha12Rng::seed_from_u64(31);
        let isp = IspNetwork::new(
            Asn(6830),
            &pool_config(),
            AccessConfig::Dhcp(DhcpConfig::default()),
            31,
        );
        (isp, rng)
    }

    fn ppp_isp(cap_hours: i64) -> (IspNetwork, ChaCha12Rng) {
        let rng = ChaCha12Rng::seed_from_u64(31);
        let isp = IspNetwork::new(
            Asn(3320),
            &pool_config(),
            AccessConfig::Ppp(PppConfig {
                session_cap: Some(SimDuration::from_hours(cap_hours)),
                ..PppConfig::default()
            }),
            31,
        );
        (isp, rng)
    }

    #[test]
    fn dhcp_schedules_renewals() {
        let (mut isp, mut rng) = dhcp_isp();
        let out = isp.connect(&mut rng, ClientId(1), T0, None);
        let action = isp.next_action(ClientId(1)).unwrap();
        assert!(matches!(action, NextIspAction::Renew(_)));
        assert_eq!(action.due(), T0 + SimDuration::from_hours(3));
        let renewed = isp.handle_action(&mut rng, ClientId(1), action.due());
        assert_eq!(renewed.addr, out.addr);
        assert!(!renewed.changed);
        // Renewal chain keeps marching forward.
        let next = isp.next_action(ClientId(1)).unwrap();
        assert_eq!(next.due(), action.due() + SimDuration::from_hours(3));
    }

    #[test]
    fn ppp_schedules_cap_expiry_and_renumbers() {
        let (mut isp, mut rng) = ppp_isp(24);
        let out = isp.connect(&mut rng, ClientId(1), T0, None);
        let action = isp.next_action(ClientId(1)).unwrap();
        assert!(matches!(action, NextIspAction::CapExpiry(_)));
        assert_eq!(action.due(), T0 + SimDuration::from_hours(24));
        let renum = isp.handle_action(&mut rng, ClientId(1), action.due());
        assert!(renum.changed);
        assert_ne!(renum.addr, out.addr);
    }

    #[test]
    fn ground_truth_accessors() {
        let (isp, _) = ppp_isp(24);
        assert_eq!(
            isp.access().periodic_period(),
            Some(SimDuration::from_hours(24))
        );
        assert!(isp.access().renumbers_on_reconnect());
        let (isp, _) = dhcp_isp();
        assert_eq!(isp.access().periodic_period(), None);
        assert!(!isp.access().renumbers_on_reconnect());
    }

    #[test]
    fn admin_renumber_moves_all_clients() {
        let (mut isp, mut rng) = dhcp_isp();
        let before = isp.connect(&mut rng, ClientId(1), T0, None);
        isp.admin_renumber(
            &mut rng,
            Arc::new(vec!["198.18.0.0/17".parse().unwrap()]),
            0.3,
        );
        assert_eq!(isp.next_action(ClientId(1)), None);
        let after = isp.connect(&mut rng, ClientId(1), T0 + SimDuration::from_hours(1), None);
        // `changed` is relative to the server's (reset) memory; the caller
        // observes the change by comparing addresses.
        assert_ne!(before.addr, after.addr);
        assert!("198.18.0.0/17"
            .parse::<Prefix>()
            .unwrap()
            .contains(after.addr));
    }

    #[test]
    fn disconnect_clears_schedule() {
        let (mut isp, mut rng) = dhcp_isp();
        isp.connect(&mut rng, ClientId(1), T0, None);
        assert!(isp.next_action(ClientId(1)).is_some());
        isp.disconnect(ClientId(1));
        assert!(isp.next_action(ClientId(1)).is_none());
        assert_eq!(isp.address_of(ClientId(1), T0), None);
    }

    #[test]
    fn ppp_outage_recovery_changes_address() {
        let (mut isp, mut rng) = ppp_isp(24);
        let a = isp.connect(&mut rng, ClientId(1), T0, None);
        let b = isp.connect(
            &mut rng,
            ClientId(1),
            T0 + SimDuration::from_mins(30),
            Some(SimDuration::from_mins(29)),
        );
        assert!(b.changed);
        assert_ne!(a.addr, b.addr);
    }

    #[test]
    fn dhcp_outage_recovery_within_lease_is_stable() {
        let (mut isp, mut rng) = dhcp_isp();
        let a = isp.connect(&mut rng, ClientId(1), T0, None);
        let b = isp.connect(
            &mut rng,
            ClientId(1),
            T0 + SimDuration::from_hours(2),
            Some(SimDuration::from_hours(2)),
        );
        assert!(!b.changed);
        assert_eq!(a.addr, b.addr);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::pool::AllocationPolicy;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn pool_config() -> PoolConfig {
        PoolConfig {
            prefixes: vec![
                "10.0.0.0/22".parse().unwrap(),
                "10.1.0.0/23".parse().unwrap(),
            ],
            policy: AllocationPolicy::PreferPrevious,
            background_occupancy: 0.4,
        }
    }

    proptest! {
        /// Driving an ISP (either access technology) through arbitrary
        /// interleavings of connects, outages, scheduled actions, forced
        /// reconnects, and disconnects never panics, never double-assigns an
        /// address across live clients, and keeps the ISP's view consistent
        /// with what clients were told.
        #[test]
        fn isp_state_machine_is_consistent(
            seed in any::<u64>(),
            use_ppp in any::<bool>(),
            ops in proptest::collection::vec((0u8..5, 0u64..6, 1i64..100_000), 1..120),
        ) {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let access = if use_ppp {
                AccessConfig::Ppp(PppConfig {
                    session_cap: Some(SimDuration::from_hours(24)),
                    skip_renumber_prob: 0.2,
                    ..PppConfig::default()
                })
            } else {
                AccessConfig::Dhcp(DhcpConfig {
                    churn_rate_per_hour: 0.5,
                    rotation_mean: Some(SimDuration::from_days(10)),
                    ..DhcpConfig::default()
                })
            };
            let mut isp = IspNetwork::new(Asn(64500), &pool_config(), access, seed);
            let mut now = SimTime(0);
            // What each connected client was last told it holds.
            let mut held: std::collections::HashMap<ClientId, std::net::Ipv4Addr> =
                Default::default();
            for (op, client, dt) in ops {
                now += SimDuration::from_secs(dt);
                let client = ClientId(client);
                match op {
                    0 => {
                        let out = isp.connect(&mut rng, client, now, None);
                        held.insert(client, out.addr);
                    }
                    1 => {
                        // Outage recovery with a random offline period.
                        let off = SimDuration::from_secs(dt * 7);
                        let out = isp.connect(&mut rng, client, now, Some(off));
                        held.insert(client, out.addr);
                    }
                    2 => {
                        if let std::collections::hash_map::Entry::Occupied(mut e) = held.entry(client) {
                            if let Some(action) = isp.next_action(client) {
                                let at = action.due().max(now);
                                let out = isp.handle_action(&mut rng, client, at);
                                now = at;
                                e.insert(out.addr);
                            }
                        }
                    }
                    3 => {
                        if held.contains_key(&client) {
                            let out = isp.force_reconnect(&mut rng, client, now);
                            held.insert(client, out.addr);
                        }
                    }
                    _ => {
                        isp.disconnect(client);
                        held.remove(&client);
                    }
                }
                // Invariant: live clients hold pairwise-distinct addresses.
                let mut seen = std::collections::HashSet::new();
                for (c, addr) in &held {
                    prop_assert!(
                        seen.insert(*addr),
                        "duplicate address {addr} at op on {c}"
                    );
                }
                // Invariant: the ISP's own view agrees where it has one.
                for (c, addr) in &held {
                    if let Some(isp_view) = isp.address_of(*c, now) {
                        prop_assert_eq!(isp_view, *addr, "ISP and client disagree for {}", c);
                    }
                }
            }
        }
    }
}
