//! World configuration: the knobs that define a simulated deployment.
//!
//! A world is a set of ISPs hosting *analyzable* probes (the event-driven
//! part of the simulation), plus populations of *filler* probes — dual-stack,
//! IPv6-only, multihomed, never-changed, testing-address — generated
//! procedurally so the Table 2 filtering funnel has realistic input.

use dynaddr_ispnet::pool::AllocationPolicy;
use dynaddr_ispnet::AccessConfig;
use dynaddr_types::dist::DurationDist;
use dynaddr_types::{Asn, Country, Prefix, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// How the CPEs of an ISP are split across access configurations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccessShare {
    /// Relative weight of this share (need not sum to 1 across shares).
    pub weight: f64,
    /// Access configuration for CPEs in this share.
    pub access: AccessConfig,
    /// CPE scheduled nightly reconnect (the privacy feature of §4.4.3):
    /// fraction of this share's CPEs that disconnect/reconnect daily at a
    /// fixed local hour.
    pub schedule: Option<CpeSchedule>,
}

/// Per-CPE scheduled daily reconnect.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpeSchedule {
    /// Fraction of CPEs in the share that have the feature enabled.
    pub adoption: f64,
    /// GMT hours `[start, end)` the reconnect time is drawn from. May wrap
    /// midnight (e.g. `start=22, end=6`).
    pub window_start_hour: u32,
    /// End of the window (exclusive).
    pub window_end_hour: u32,
    /// Probability a given night's reconnect is skipped (harmonics).
    pub skip_prob: f64,
}

/// Outage processes of an ISP's customer base.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutageSpec {
    /// Mean network outages per probe per year.
    pub network_per_year: f64,
    /// Network outage duration distribution (seconds).
    pub network_duration: DurationDist,
    /// Mean power outages (incl. CPE reboots) per probe per year.
    pub power_per_year: f64,
    /// Power outage duration distribution (seconds).
    pub power_duration: DurationDist,
}

impl OutageSpec {
    /// A typical residential profile: a couple of outages per month, most
    /// of them minutes long, with a heavy tail reaching days.
    pub fn residential() -> OutageSpec {
        OutageSpec {
            network_per_year: 22.0,
            network_duration: DurationDist::Mixture(vec![
                // Short blips and reconnects: a few minutes.
                (
                    0.55,
                    DurationDist::LogNormal {
                        mu: 5.6,
                        sigma: 0.6,
                    },
                ), // ~4.5 min
                // Medium outages: tens of minutes to hours.
                (
                    0.33,
                    DurationDist::LogNormal {
                        mu: 8.0,
                        sigma: 1.0,
                    },
                ), // ~50 min
                // Heavy tail: many hours to days.
                (
                    0.12,
                    DurationDist::Pareto {
                        xm: 4.0 * 3600.0,
                        alpha: 1.1,
                    },
                ),
            ]),
            power_per_year: 12.0,
            power_duration: DurationDist::Mixture(vec![
                // CPE reboots: 1.5–4 minutes.
                (
                    0.62,
                    DurationDist::Uniform {
                        lo: 90.0,
                        hi: 240.0,
                    },
                ),
                // Real power cuts: tens of minutes to hours.
                (
                    0.28,
                    DurationDist::LogNormal {
                        mu: 7.6,
                        sigma: 1.0,
                    },
                ), // ~33 min
                // Long cuts: heavy tail.
                (
                    0.10,
                    DurationDist::Pareto {
                        xm: 3.0 * 3600.0,
                        alpha: 1.2,
                    },
                ),
            ]),
        }
    }

    /// A quieter profile (well-provisioned networks).
    pub fn stable() -> OutageSpec {
        let mut spec = OutageSpec::residential();
        spec.network_per_year = 10.0;
        spec.power_per_year = 6.0;
        spec
    }
}

/// One ISP hosting analyzable probes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IspSpec {
    /// Display name (matches the paper's tables).
    pub name: String,
    /// Autonomous system number.
    pub asn: Asn,
    /// Country of the deployment.
    pub country: Country,
    /// Number of probes hosted in this ISP.
    pub probes: usize,
    /// Prefixes of the dynamic pool.
    pub prefixes: Vec<Prefix>,
    /// Pool allocation policy (controls Table 7 cross-prefix rates).
    pub allocation: AllocationPolicy,
    /// Background pool occupancy `0.0..1.0`.
    pub occupancy: f64,
    /// Access-technology shares.
    pub shares: Vec<AccessShare>,
    /// Outage processes.
    pub outages: OutageSpec,
    /// Fraction of probes powered over the CPE's USB port (fate-shared
    /// power, §5.1).
    pub usb_fate_shared: f64,
    /// Probe hardware mix `(v1, v2, v3)` fractions; normalized on use.
    pub version_mix: (f64, f64, f64),
}

impl IspSpec {
    /// A plain DHCP ISP with sensible defaults; customize from here.
    pub fn new(name: &str, asn: u32, country: &str, probes: usize) -> IspSpec {
        IspSpec {
            name: name.to_string(),
            asn: Asn(asn),
            country: Country::new(country).expect("valid country code"),
            probes,
            prefixes: Vec::new(),
            allocation: AllocationPolicy::PreferPrevious,
            occupancy: 0.6,
            shares: vec![AccessShare {
                weight: 1.0,
                access: AccessConfig::Dhcp(dynaddr_ispnet::DhcpConfig::default()),
                schedule: None,
            }],
            outages: OutageSpec::residential(),
            usb_fate_shared: 0.85,
            version_mix: (0.08, 0.12, 0.80),
        }
    }
}

/// Counts of procedurally generated filler probes (Table 2 funnel input).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FillerSpec {
    /// Probes whose address never changes all year.
    pub never_changed: usize,
    /// Dual-stack probes alternating IPv4/IPv6 connections.
    pub dual_stack: usize,
    /// IPv6-only probes.
    pub ipv6_only: usize,
    /// Probes carrying a disqualifying tag (multihomed/datacentre/core).
    pub tagged: usize,
    /// Fraction of tagged probes that also *behave* multihomed
    /// (alternate between a fixed and a changing address).
    pub tagged_alternating_frac: f64,
    /// Untagged probes with multihomed (alternating-address) behaviour.
    pub alternating: usize,
    /// Probes whose only address change is away from 193.0.0.78.
    pub testing_static: usize,
}

impl FillerSpec {
    /// No filler at all (unit-test worlds).
    pub fn none() -> FillerSpec {
        FillerSpec {
            never_changed: 0,
            dual_stack: 0,
            ipv6_only: 0,
            tagged: 0,
            tagged_alternating_frac: 0.2,
            alternating: 0,
            testing_static: 0,
        }
    }
}

/// The full world configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Root seed for all randomness.
    pub seed: u64,
    /// ISPs hosting analyzable probes.
    pub isps: Vec<IspSpec>,
    /// Filler probe populations.
    pub filler: FillerSpec,
    /// Number of probes that move between two ISPs mid-year (multi-AS
    /// probes, filtered from the AS-level analysis).
    pub movers: usize,
    /// Firmware push dates (§5.2; five in 2015).
    pub firmware_dates: Vec<SimTime>,
    /// Fraction of probes that install a given firmware update (and hence
    /// reboot shortly after the push date).
    pub firmware_uptake: f64,
    /// Cadence of materialized all-OK k-root heartbeat records. The probe
    /// logically measures every 4 minutes; quiet periods are thinned to this
    /// cadence in the emitted log (records around outages are always
    /// materialized at the 4-minute grid, so detection is unaffected).
    pub kroot_heartbeat: SimDuration,
    /// Probability that a v1/v2 probe spontaneously reboots when it makes a
    /// new TCP connection (memory fragmentation, §5.1).
    pub frail_reboot_prob: f64,
    /// Rate of controller-side connection drops per probe per year (gaps
    /// with neither outage nor address change).
    pub controller_drops_per_year: f64,
    /// Optional administrative renumbering: (ASN, date, new prefixes).
    pub admin_renumber: Option<(Asn, SimTime, Vec<Prefix>)>,
}

impl WorldConfig {
    /// An empty world with the given seed; add ISPs and filler.
    pub fn empty(seed: u64) -> WorldConfig {
        WorldConfig {
            seed,
            isps: Vec::new(),
            filler: FillerSpec::none(),
            movers: 0,
            firmware_dates: Vec::new(),
            firmware_uptake: 0.85,
            kroot_heartbeat: SimDuration::from_hours(12),
            frail_reboot_prob: 0.35,
            controller_drops_per_year: 10.0,
            admin_renumber: None,
        }
    }

    /// The five firmware push dates the paper identifies in 2015 (§5.2).
    pub fn firmware_dates_2015() -> Vec<SimTime> {
        vec![
            SimTime::from_date(1, 25, 10, 0, 0),
            SimTime::from_date(3, 23, 10, 0, 0),
            SimTime::from_date(4, 14, 10, 0, 0),
            SimTime::from_date(7, 6, 10, 0, 0),
            SimTime::from_date(10, 5, 10, 0, 0),
        ]
    }

    /// Total probe count across ISPs, filler, and movers.
    pub fn total_probes(&self) -> usize {
        self.isps.iter().map(|i| i.probes).sum::<usize>()
            + self.filler.never_changed
            + self.filler.dual_stack
            + self.filler.ipv6_only
            + self.filler.tagged
            + self.filler.alternating
            + self.filler.testing_static
            + self.movers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residential_outage_profile_is_plausible() {
        let spec = OutageSpec::residential();
        // Mean power outage duration should be minutes-to-hours scale.
        let mean = spec.power_duration.mean();
        // Pareto alpha > 1 so a mean exists.
        let mean = mean.expect("finite mean");
        assert!(mean > 60.0 && mean < 24.0 * 3600.0, "mean {mean}s");
    }

    #[test]
    fn isp_spec_defaults() {
        let spec = IspSpec::new("TestNet", 64500, "DE", 10);
        assert_eq!(spec.asn, Asn(64500));
        assert_eq!(spec.country.code(), "DE");
        assert_eq!(spec.shares.len(), 1);
        let (v1, v2, v3) = spec.version_mix;
        assert!((v1 + v2 + v3 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn firmware_dates_match_paper() {
        let dates = WorldConfig::firmware_dates_2015();
        assert_eq!(dates.len(), 5);
        assert_eq!(dates[0].month_day(), (1, 25));
        assert_eq!(dates[2].month_day(), (4, 14));
        assert_eq!(dates[4].month_day(), (10, 5));
        assert!(dates.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn total_probes_sums_everything() {
        let mut w = WorldConfig::empty(1);
        w.isps.push(IspSpec::new("A", 1, "DE", 10));
        w.isps.push(IspSpec::new("B", 2, "FR", 5));
        w.filler.never_changed = 7;
        w.filler.dual_stack = 3;
        w.movers = 2;
        assert_eq!(w.total_probes(), 27);
    }
}
