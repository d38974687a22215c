//! Probe identity: ids, hardware versions, and user-provided tags.
//!
//! RIPE Atlas hardware versions matter to the analysis: v1/v2 probes are
//! vulnerable to memory fragmentation and may spontaneously reboot when they
//! create new TCP connections (§5.1), so the paper excludes them from the
//! power-outage analysis. Tags are voluntary labels used by the Table 2
//! filtering step ("multihomed", "datacentre", "core").

use serde::{Deserialize, Serialize};
use std::fmt;

/// Unique identifier of a RIPE-Atlas-style probe.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct ProbeId(pub u32);

impl fmt::Display for ProbeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "probe#{}", self.0)
    }
}

/// Probe hardware generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProbeVersion {
    /// First generation (Lantronix XPort Pro): fragile under memory
    /// fragmentation; may reboot on new TCP connections.
    V1,
    /// Second generation: same fragility caveat as v1.
    V2,
    /// Third generation (TP-Link powered over USB): the majority of the
    /// deployment (>75% in 2015), reliable uptime counters.
    V3,
}

impl ProbeVersion {
    /// Whether power-outage inference is trustworthy on this hardware
    /// (the paper discards v1/v2 for that analysis, §5.1).
    pub fn reliable_uptime(self) -> bool {
        matches!(self, ProbeVersion::V3)
    }

    /// The version's fixed code in the store's meta table and on the query
    /// wire. Each code is written out here, so reordering the variants
    /// changes no stored or sent byte.
    pub fn code(self) -> u8 {
        match self {
            ProbeVersion::V1 => 1,
            ProbeVersion::V2 => 2,
            ProbeVersion::V3 => 3,
        }
    }

    /// The version whose [`code`](Self::code) is `code`, if any.
    pub fn from_code(code: u8) -> Option<ProbeVersion> {
        [ProbeVersion::V1, ProbeVersion::V2, ProbeVersion::V3]
            .into_iter()
            .find(|v| v.code() == code)
    }
}

impl fmt::Display for ProbeVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeVersion::V1 => write!(f, "v1"),
            ProbeVersion::V2 => write!(f, "v2"),
            ProbeVersion::V3 => write!(f, "v3"),
        }
    }
}

/// Voluntary, user-provided probe tags relevant to filtering (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum ProbeTag {
    /// Host declared the probe multihomed.
    Multihomed,
    /// Probe hosted in a datacenter.
    Datacentre,
    /// Probe in a network core / exchange point.
    Core,
    /// Host declared a DSL access line.
    Dsl,
    /// Host declared a cable access line.
    Cable,
    /// Host declared a fibre access line.
    Fibre,
    /// Host declared NAT in front of the probe.
    Nat,
    /// Home connection.
    Home,
}

impl ProbeTag {
    /// Tags that cause a probe to be dropped from the analysis outright
    /// (Table 2 row "Multihomed / Core / Datacenter (tags)").
    pub fn disqualifies(self) -> bool {
        matches!(
            self,
            ProbeTag::Multihomed | ProbeTag::Datacentre | ProbeTag::Core
        )
    }

    /// The tag's fixed code in the store's meta table and on the query
    /// wire. Each code is written out here, so reordering the variants
    /// changes no stored or sent byte.
    pub fn code(self) -> u8 {
        match self {
            ProbeTag::Multihomed => 0,
            ProbeTag::Datacentre => 1,
            ProbeTag::Core => 2,
            ProbeTag::Dsl => 3,
            ProbeTag::Cable => 4,
            ProbeTag::Fibre => 5,
            ProbeTag::Nat => 6,
            ProbeTag::Home => 7,
        }
    }

    /// The tag whose [`code`](Self::code) is `code`, if any.
    pub fn from_code(code: u8) -> Option<ProbeTag> {
        [
            ProbeTag::Multihomed,
            ProbeTag::Datacentre,
            ProbeTag::Core,
            ProbeTag::Dsl,
            ProbeTag::Cable,
            ProbeTag::Fibre,
            ProbeTag::Nat,
            ProbeTag::Home,
        ]
        .into_iter()
        .find(|t| t.code() == code)
    }
}

impl fmt::Display for ProbeTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProbeTag::Multihomed => "multihomed",
            ProbeTag::Datacentre => "datacentre",
            ProbeTag::Core => "core",
            ProbeTag::Dsl => "dsl",
            ProbeTag::Cable => "cable",
            ProbeTag::Fibre => "fibre",
            ProbeTag::Nat => "nat",
            ProbeTag::Home => "home",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_v3_has_reliable_uptime() {
        assert!(!ProbeVersion::V1.reliable_uptime());
        assert!(!ProbeVersion::V2.reliable_uptime());
        assert!(ProbeVersion::V3.reliable_uptime());
    }

    #[test]
    fn disqualifying_tags() {
        assert!(ProbeTag::Multihomed.disqualifies());
        assert!(ProbeTag::Datacentre.disqualifies());
        assert!(ProbeTag::Core.disqualifies());
        assert!(!ProbeTag::Dsl.disqualifies());
        assert!(!ProbeTag::Home.disqualifies());
    }

    #[test]
    fn codes_decode_back_and_stay_fixed() {
        for c in 0..=u8::MAX {
            let version = ProbeVersion::from_code(c).map(ProbeVersion::code);
            assert_eq!(version, (1..=3).contains(&c).then_some(c));
            assert_eq!(
                ProbeTag::from_code(c).map(ProbeTag::code),
                (c < 8).then_some(c)
            );
        }
        assert_eq!((ProbeVersion::V3.code(), ProbeTag::Home.code()), (3, 7));
    }

    #[test]
    fn display_forms() {
        assert_eq!(ProbeId(206).to_string(), "probe#206");
        assert_eq!(ProbeVersion::V3.to_string(), "v3");
        assert_eq!(ProbeTag::Datacentre.to_string(), "datacentre");
    }
}
