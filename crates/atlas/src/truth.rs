//! Ground truth emitted by the simulator alongside the logs.
//!
//! The paper validates inferences against private ISP communication; we can
//! do better — the simulator knows exactly why every address changed and
//! when every outage happened. The analysis pipeline never sees this; tests
//! and `EXPERIMENTS.md` compare pipeline inferences against it.

use dynaddr_types::{Asn, ProbeId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Why an address change happened, from the simulator's omniscient view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChangeCause {
    /// ISP session cap (periodic renumbering) fired.
    PeriodicCap,
    /// DHCP administrative pool rotation moved the client (non-periodic,
    /// weeks-scale churn).
    PoolRotation,
    /// CPE's scheduled nightly reconnect (privacy feature) fired.
    ScheduledReconnect,
    /// Recovery from a network outage.
    NetworkOutage,
    /// Recovery from a power outage (includes CPE reboots).
    PowerOutage,
    /// Administrative en-masse renumbering.
    AdminRenumber,
    /// The probe physically moved to a different ISP.
    Moved,
}

impl ChangeCause {
    /// The cause's fixed code in `truth.store` and on the query wire. Each
    /// code is written out here, so reordering the variants changes no
    /// stored or sent byte.
    pub fn code(self) -> u8 {
        match self {
            ChangeCause::PeriodicCap => 0,
            ChangeCause::PoolRotation => 1,
            ChangeCause::ScheduledReconnect => 2,
            ChangeCause::NetworkOutage => 3,
            ChangeCause::PowerOutage => 4,
            ChangeCause::AdminRenumber => 5,
            ChangeCause::Moved => 6,
        }
    }

    /// The cause whose [`code`](Self::code) is `code`, if any.
    pub fn from_code(code: u8) -> Option<ChangeCause> {
        [
            ChangeCause::PeriodicCap,
            ChangeCause::PoolRotation,
            ChangeCause::ScheduledReconnect,
            ChangeCause::NetworkOutage,
            ChangeCause::PowerOutage,
            ChangeCause::AdminRenumber,
            ChangeCause::Moved,
        ]
        .into_iter()
        .find(|c| c.code() == code)
    }
}

/// One address change with its true cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TruthChange {
    /// Affected probe.
    pub probe: ProbeId,
    /// When the new address took effect.
    pub time: SimTime,
    /// Address before the change (None at first assignment).
    pub from: Option<Ipv4Addr>,
    /// Address after the change.
    pub to: Ipv4Addr,
    /// Why it changed.
    pub cause: ChangeCause,
}

/// Kind of a true outage event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TruthOutageKind {
    /// Loss of connectivity while the probe stayed powered.
    Network,
    /// Loss of power to CPE and probe (fate-shared), incl. reboots.
    Power,
    /// Loss of power to the CPE only (probe on independent power) — appears
    /// to the probe as a network outage.
    CpeOnlyPower,
    /// Probe-only reboot (firmware update or v1/v2 fragility); the CPE and
    /// its address are unaffected.
    ProbeOnlyReboot,
}

impl TruthOutageKind {
    /// The kind's fixed code in `truth.store` and on the query wire. Each
    /// code is written out here, so reordering the variants changes no
    /// stored or sent byte.
    pub fn code(self) -> u8 {
        match self {
            TruthOutageKind::Network => 0,
            TruthOutageKind::Power => 1,
            TruthOutageKind::CpeOnlyPower => 2,
            TruthOutageKind::ProbeOnlyReboot => 3,
        }
    }

    /// The kind whose [`code`](Self::code) is `code`, if any.
    pub fn from_code(code: u8) -> Option<TruthOutageKind> {
        [
            TruthOutageKind::Network,
            TruthOutageKind::Power,
            TruthOutageKind::CpeOnlyPower,
            TruthOutageKind::ProbeOnlyReboot,
        ]
        .into_iter()
        .find(|k| k.code() == code)
    }
}

/// One true outage event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TruthOutage {
    /// Affected probe.
    pub probe: ProbeId,
    /// Outage kind.
    pub kind: TruthOutageKind,
    /// When connectivity/power was lost.
    pub start: SimTime,
    /// How long it lasted.
    pub duration: SimDuration,
    /// Whether the recovery came with a new address.
    pub address_changed: bool,
}

/// Ground-truth summary of one ISP's configured policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IspPolicyTruth {
    /// ISP display name.
    pub name: String,
    /// Country code of the ISP's main footprint.
    pub country: String,
    /// Configured periodic renumbering period in hours, if any. Mixed
    /// deployments may carry several (e.g. Orange Polska's 22 h and 24 h).
    pub periodic_hours: Vec<i64>,
    /// Whether reconnects renumber (PPP-style).
    pub renumbers_on_reconnect: bool,
    /// Fraction of the customer base on periodically-renumbered plans.
    pub periodic_weight: f64,
    /// Number of simulated probes in the ISP.
    pub probes: usize,
}

/// Everything the simulator knows that the pipeline must re-infer.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Every address change with its cause.
    pub changes: Vec<TruthChange>,
    /// Every outage event.
    pub outages: Vec<TruthOutage>,
    /// Probe reboots caused by firmware pushes: (probe, reboot time).
    pub firmware_reboots: Vec<(ProbeId, SimTime)>,
    /// Configured policy per ISP ASN.
    pub isp_policies: BTreeMap<u32, IspPolicyTruth>,
    /// The dates firmware updates were pushed.
    pub firmware_dates: Vec<SimTime>,
    /// ASN that performed an administrative renumbering, with the date.
    pub admin_renumbering: Option<(Asn, SimTime)>,
}

impl GroundTruth {
    /// Puts the event vectors into canonical order: changes by
    /// (time, probe), outages by (start, probe), firmware reboots by
    /// (time, probe). Per-probe events come from one simulation shard in
    /// deterministic relative order, so after this stable sort the truth is
    /// byte-identical no matter how shards were grouped or merged.
    pub fn normalize(&mut self) {
        self.changes.sort_by_key(|c| (c.time, c.probe));
        self.outages.sort_by_key(|o| (o.start, o.probe));
        self.firmware_reboots.sort_by_key(|&(p, t)| (t, p));
    }

    /// Encodes the truth as one segmented columnar store file
    /// (see [`crate::store`]).
    pub fn to_store_bytes(&self) -> Vec<u8> {
        crate::store::truth_to_bytes(self)
    }

    /// Decodes a truth from store bytes, failing on the first corrupt
    /// segment.
    pub fn from_store_bytes(bytes: &[u8]) -> Result<GroundTruth, dynaddr_store::StoreError> {
        crate::store::truth_from_bytes(bytes, dynaddr_store::ReadMode::Strict)
            .map(|(truth, _)| truth)
    }

    /// Decodes a truth from store bytes, skipping corrupt segments and
    /// reporting what was dropped.
    pub fn from_store_bytes_recover(
        bytes: &[u8],
    ) -> Result<(GroundTruth, dynaddr_store::RecoveryReport), dynaddr_store::StoreError> {
        crate::store::truth_from_bytes(bytes, dynaddr_store::ReadMode::Recover)
    }

    /// Counts changes by cause across all probes.
    pub fn cause_histogram(&self) -> BTreeMap<String, usize> {
        let mut h = BTreeMap::new();
        for c in &self.changes {
            *h.entry(format!("{:?}", c.cause)).or_insert(0) += 1;
        }
        h
    }

    /// Fraction of outages of a kind that changed the address.
    pub fn outage_change_rate(&self, kind: TruthOutageKind) -> Option<f64> {
        let of_kind: Vec<&TruthOutage> =
            self.outages.iter().filter(|o| o.kind == kind).collect();
        if of_kind.is_empty() {
            return None;
        }
        let changed = of_kind.iter().filter(|o| o.address_changed).count();
        Some(changed as f64 / of_kind.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn change(probe: u32, time: i64, cause: ChangeCause) -> TruthChange {
        TruthChange {
            probe: ProbeId(probe),
            time: SimTime(time),
            from: None,
            to: Ipv4Addr::new(10, 0, 0, 1),
            cause,
        }
    }

    #[test]
    fn codes_decode_back_and_stay_fixed() {
        for c in 0..=u8::MAX {
            let cause = ChangeCause::from_code(c).map(ChangeCause::code);
            assert_eq!(cause, (c < 7).then_some(c));
            let kind = TruthOutageKind::from_code(c).map(TruthOutageKind::code);
            assert_eq!(kind, (c < 4).then_some(c));
        }
        assert_eq!(ChangeCause::Moved.code(), 6);
        assert_eq!(TruthOutageKind::ProbeOnlyReboot.code(), 3);
    }

    #[test]
    fn cause_histogram_counts() {
        let mut gt = GroundTruth::default();
        gt.changes.push(change(1, 0, ChangeCause::PeriodicCap));
        gt.changes.push(change(1, 1, ChangeCause::PeriodicCap));
        gt.changes.push(change(2, 2, ChangeCause::PowerOutage));
        let h = gt.cause_histogram();
        assert_eq!(h.get("PeriodicCap"), Some(&2));
        assert_eq!(h.get("PowerOutage"), Some(&1));
    }

    #[test]
    fn outage_change_rate() {
        let mut gt = GroundTruth::default();
        for (i, changed) in [(0, true), (1, true), (2, false), (3, false)] {
            gt.outages.push(TruthOutage {
                probe: ProbeId(i),
                kind: TruthOutageKind::Network,
                start: SimTime(0),
                duration: SimDuration::from_mins(5),
                address_changed: changed,
            });
        }
        assert_eq!(gt.outage_change_rate(TruthOutageKind::Network), Some(0.5));
        assert_eq!(gt.outage_change_rate(TruthOutageKind::Power), None);
    }
}
