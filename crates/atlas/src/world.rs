//! The scripted "paper world": a deployment whose configured ground truth
//! mirrors the populations behind the paper's tables and figures.
//!
//! Every named ISP in Tables 5, 6, and 7 is present with its ASN, country,
//! probe count, periodic-renumbering plan (period, skip probability, CPE
//! schedule), access technology, and a pool prefix layout chosen so the
//! cross-BGP / cross-/16 / cross-/8 rates land near the paper's Table 7.
//! Background ISPs per continent shape the Fig. 1 geography, and filler
//! populations feed the Table 2 funnel.
//!
//! Everything scales with a single `scale` factor so tests can run a 5%
//! world while the `repro` harness runs a large one. Named ISPs keep a
//! minimum probe count so the per-AS tables stay populated at any scale.

use crate::config::{AccessShare, CpeSchedule, FillerSpec, IspSpec, OutageSpec, WorldConfig};
use dynaddr_ip2as::{MonthlySnapshots, RouteTable};
use dynaddr_ispnet::pool::AllocationPolicy;
use dynaddr_ispnet::{AccessConfig, DhcpConfig, PppConfig};
use dynaddr_types::dist::DurationDist;
use dynaddr_types::{Asn, Prefix, SimDuration, SimTime};

// ---------------------------------------------------------------------------
// Access-config shorthands
// ---------------------------------------------------------------------------

fn ppp_cap(hours: i64, skip: f64) -> AccessConfig {
    AccessConfig::Ppp(PppConfig {
        session_cap: Some(SimDuration::from_hours(hours)),
        skip_renumber_prob: skip,
        ..PppConfig::default()
    })
}

/// Cap whose skipped terminations extend the session by a random,
/// non-harmonic amount — Global Village Telecom's odd Table 5 row.
fn ppp_cap_nonharmonic(hours: i64, skip: f64, ext_hours: (f64, f64)) -> AccessConfig {
    AccessConfig::Ppp(PppConfig {
        session_cap: Some(SimDuration::from_hours(hours)),
        skip_renumber_prob: skip,
        skip_extension: Some(DurationDist::Uniform {
            lo: ext_hours.0 * 3_600.0,
            hi: ext_hours.1 * 3_600.0,
        }),
        ..PppConfig::default()
    })
}

fn ppp_uncapped() -> AccessConfig {
    AccessConfig::Ppp(PppConfig::default())
}

fn dhcp(lease_hours: i64, churn_per_hour: f64) -> AccessConfig {
    AccessConfig::Dhcp(DhcpConfig {
        lease: SimDuration::from_hours(lease_hours),
        renew_at: 0.5,
        churn_rate_per_hour: churn_per_hour,
        rotation_mean: None,
    })
}

/// DHCP with administrative pool rotation every ~`rotation_days` on average:
/// the weeks-scale, modeless churn of North American and cable ISPs.
fn dhcp_rotating(lease_hours: i64, churn_per_hour: f64, rotation_days: i64) -> AccessConfig {
    AccessConfig::Dhcp(DhcpConfig {
        lease: SimDuration::from_hours(lease_hours),
        renew_at: 0.5,
        churn_rate_per_hour: churn_per_hour,
        rotation_mean: Some(SimDuration::from_days(rotation_days)),
    })
}

fn share(weight: f64, access: AccessConfig) -> AccessShare {
    AccessShare {
        weight,
        access,
        schedule: None,
    }
}

fn share_scheduled(weight: f64, window: (u32, u32), skip: f64) -> AccessShare {
    AccessShare {
        weight,
        // The CPE schedule drives the daily renumbering; the session itself
        // is uncapped so the two mechanisms do not race.
        access: ppp_uncapped(),
        schedule: Some(CpeSchedule {
            adoption: 1.0,
            window_start_hour: window.0,
            window_end_hour: window.1,
            skip_prob: skip,
        }),
    }
}

// ---------------------------------------------------------------------------
// Prefix carving
// ---------------------------------------------------------------------------

/// Hands out disjoint /8 blocks to ISPs and carves pool prefixes from them.
struct PrefixAlloc {
    next: u8,
}

impl PrefixAlloc {
    fn new() -> PrefixAlloc {
        PrefixAlloc { next: 2 }
    }

    fn slash8(&mut self) -> u8 {
        loop {
            let v = self.next;
            assert!(v < 224, "ran out of /8 space for the world");
            self.next += 1;
            // Skip private space (10/8), loopback (127/8), the filler
            // address space (130–190, used by procedurally generated filler
            // probes), and 193/8 (the RIPE testing address lives there).
            if v == 10 || (127..=190).contains(&v) || v == 193 {
                continue;
            }
            return v;
        }
    }

    /// `layout`: per prefix, `(slash8_slot, second_octet, len)`. Slots index
    /// into freshly allocated /8s for this ISP, so e.g. slots `[0,0,1]` put
    /// two prefixes in one /8 and the third in another.
    fn carve(&mut self, layout: &[(usize, u8, u8)]) -> Vec<Prefix> {
        let slots_needed = layout.iter().map(|(s, _, _)| *s).max().unwrap_or(0) + 1;
        let bases: Vec<u8> = (0..slots_needed).map(|_| self.slash8()).collect();
        layout
            .iter()
            .map(|&(slot, second, len)| {
                Prefix::new(std::net::Ipv4Addr::new(bases[slot], second, 0, 0), len)
                    .expect("static layouts are valid")
            })
            .collect()
    }
}

fn scaled(n: usize, scale: f64, min: usize) -> usize {
    ((n as f64 * scale).round() as usize).max(min)
}

// ---------------------------------------------------------------------------
// The world
// ---------------------------------------------------------------------------

/// Builds the scripted paper world at a given scale (1.0 ≈ the paper's
/// 10,977-probe deployment; tests typically use 0.05–0.2).
pub fn paper_world(scale: f64, seed: u64) -> WorldConfig {
    assert!(scale > 0.0, "scale must be positive");
    let mut w = WorldConfig::empty(seed);
    w.firmware_dates = WorldConfig::firmware_dates_2015();
    let mut alloc = PrefixAlloc::new();
    let s = scale;

    let mut isps: Vec<IspSpec> = Vec::new();

    // --- Periodic ISPs (Table 5) ------------------------------------------

    // Orange FR: one-week sessions, free-running; 68% of changes cross BGP
    // prefixes (Table 7) — four /16s in three /8s, nearly random allocation.
    let mut orange = IspSpec::new("Orange", 3215, "FR", scaled(130, s, 8));
    orange.prefixes = alloc.carve(&[(0, 0, 16), (0, 64, 16), (1, 0, 16), (2, 0, 16)]);
    orange.allocation = AllocationPolicy::SamePrefixBias(0.10);
    orange.shares = vec![
        share(0.86, ppp_cap(168, 0.0)),
        share(0.04, ppp_cap(168, 0.012)),
        share(0.10, ppp_uncapped()),
    ];
    isps.push(orange);

    // Deutsche Telekom: 24-hour renumbering, ~72% of it scheduled by CPEs
    // between 00:00 and 06:00 GMT (Fig. 5); low cross-prefix rates (Table 7).
    let mut dtag = IspSpec::new("DTAG", 3320, "DE", scaled(70, s, 8));
    dtag.prefixes = alloc.carve(&[(0, 0, 16), (0, 80, 16), (0, 160, 16), (1, 0, 16)]);
    dtag.allocation = AllocationPolicy::SamePrefixBias(0.70);
    dtag.shares = vec![
        share_scheduled(0.52, (0, 6), 0.0),
        share_scheduled(0.13, (0, 6), 0.02),
        share(0.17, ppp_cap(24, 0.0)),
        share(0.08, ppp_cap(24, 0.015)),
        share(0.10, ppp_uncapped()),
    ];
    isps.push(dtag);

    // Telefonica Germany (two ASes): 24-hour periods, most probes see the
    // occasional skipped night (low MAX ≤ d in Table 5).
    let mut tef2 = IspSpec::new("Telefonica DE 2", 6805, "DE", scaled(18, s, 6));
    tef2.prefixes = alloc.carve(&[(0, 0, 16), (0, 128, 16), (1, 0, 16)]);
    tef2.allocation = AllocationPolicy::SamePrefixBias(0.35);
    tef2.shares = vec![
        share(0.22, ppp_cap(24, 0.0)),
        share(0.66, ppp_cap(24, 0.006)),
        share(0.12, ppp_uncapped()),
    ];
    isps.push(tef2);

    let mut tef1 = IspSpec::new("Telefonica DE 1", 13184, "DE", scaled(15, s, 6));
    tef1.prefixes = alloc.carve(&[(0, 0, 16), (0, 128, 16), (1, 0, 16)]);
    tef1.allocation = AllocationPolicy::SamePrefixBias(0.35);
    tef1.shares = vec![
        share(0.18, ppp_cap(24, 0.0)),
        share(0.75, ppp_cap(24, 0.006)),
        share(0.07, ppp_uncapped()),
    ];
    isps.push(tef1);

    let mut rostelecom = IspSpec::new("PJSC Rostelecom", 8997, "RU", scaled(23, s, 6));
    rostelecom.prefixes = alloc.carve(&[(0, 0, 16), (1, 0, 16)]);
    rostelecom.allocation = AllocationPolicy::SamePrefixBias(0.15);
    rostelecom.shares = vec![
        share(0.15, ppp_cap(24, 0.0)),
        share(0.45, ppp_cap(24, 0.008)),
        share(0.40, dhcp(6, 0.01)),
    ];
    isps.push(rostelecom);

    // BT: weak two-week periodicity — only a fifth of probes, frequently
    // skipped; BGP prefixes are /15s so /16 changes outnumber BGP changes.
    let mut bt = IspSpec::new("BT", 2856, "GB", scaled(70, s, 8));
    bt.prefixes = alloc.carve(&[(0, 0, 15), (1, 0, 15), (2, 0, 15)]);
    bt.allocation = AllocationPolicy::SamePrefixBias(0.34);
    bt.shares = vec![
        share(0.12, ppp_cap(337, 0.0)),
        share(0.10, ppp_cap(337, 0.05)),
        share(0.45, ppp_uncapped()),
        share(0.33, dhcp(12, 0.01)),
    ];
    isps.push(bt);

    // Proximus: two line types — 36 h (never clean: all skippers) and 24 h.
    let mut proximus = IspSpec::new("Proximus", 5432, "BE", scaled(41, s, 8));
    proximus.prefixes = alloc.carve(&[(0, 0, 15), (0, 128, 16), (1, 0, 16)]);
    proximus.allocation = AllocationPolicy::SamePrefixBias(0.35);
    proximus.shares = vec![
        share(0.30, ppp_cap(36, 0.015)),
        share(0.10, ppp_cap(24, 0.012)),
        share(0.35, ppp_uncapped()),
        share(0.25, dhcp(8, 0.02)),
    ];
    isps.push(proximus);

    let mut a1 = IspSpec::new("A1 Telekom", 8447, "AT", scaled(12, s, 5));
    a1.prefixes = alloc.carve(&[(0, 0, 16), (1, 0, 16)]);
    a1.allocation = AllocationPolicy::SamePrefixBias(0.4);
    a1.shares = vec![
        share(0.70, ppp_cap(24, 0.0)),
        share(0.22, ppp_cap(24, 0.008)),
        share(0.08, ppp_uncapped()),
    ];
    isps.push(a1);

    // Vodafone DE: periodic minority, every periodic probe occasionally
    // overruns (MAX ≤ d = 0% in Table 5); renumbers on outages (Table 6).
    let mut vodafone = IspSpec::new("Vodafone GmbH", 3209, "DE", scaled(21, s, 6));
    vodafone.prefixes = alloc.carve(&[(0, 0, 16), (1, 0, 16)]);
    vodafone.allocation = AllocationPolicy::SamePrefixBias(0.3);
    vodafone.shares = vec![
        share(0.43, ppp_cap(24, 0.012)),
        share(0.45, ppp_uncapped()),
        share(0.12, dhcp(8, 0.02)),
    ];
    isps.push(vodafone);

    let mut hrvatski = IspSpec::new("Hrvatski", 5391, "HR", scaled(7, s, 5));
    hrvatski.prefixes = alloc.carve(&[(0, 0, 16), (1, 0, 16)]);
    hrvatski.allocation = AllocationPolicy::SamePrefixBias(0.15);
    hrvatski.shares = vec![
        share(0.55, ppp_cap(24, 0.0)),
        share(0.45, ppp_cap(24, 0.008)),
    ];
    isps.push(hrvatski);

    let mut iskon = IspSpec::new("ISKON", 13046, "HR", scaled(6, s, 5));
    iskon.prefixes = alloc.carve(&[(0, 0, 16), (1, 0, 16)]);
    iskon.allocation = AllocationPolicy::RandomAny;
    iskon.shares = vec![share(0.9, ppp_cap(24, 0.012)), share(0.1, ppp_uncapped())];
    isps.push(iskon);

    // ANTEL Uruguay: 12-hour sessions.
    let mut antel = IspSpec::new("ANTEL", 6057, "UY", scaled(6, s, 5));
    antel.prefixes = alloc.carve(&[(0, 0, 16), (0, 128, 16), (1, 0, 16)]);
    antel.allocation = AllocationPolicy::SamePrefixBias(0.1);
    antel.shares = vec![share(0.6, ppp_cap(12, 0.0)), share(0.4, ppp_cap(12, 0.006))];
    isps.push(antel);

    // Global Village Telecom: 48-hour sessions with substantial jitter —
    // overruns are not harmonic multiples (Table 5's odd row).
    let mut gvt = IspSpec::new("Global Village Telecom", 18881, "BR", scaled(6, s, 5));
    gvt.prefixes = alloc.carve(&[(0, 0, 16), (1, 0, 16)]);
    gvt.allocation = AllocationPolicy::SamePrefixBias(0.2);
    gvt.shares = vec![share(1.0, ppp_cap_nonharmonic(48, 0.22, (4.0, 44.0)))];
    isps.push(gvt);

    let mut mauritius = IspSpec::new("Mauritius Telecom", 23889, "MU", scaled(6, s, 5));
    mauritius.prefixes = alloc.carve(&[(0, 0, 16), (1, 0, 16)]);
    mauritius.allocation = AllocationPolicy::RandomAny;
    mauritius.shares = vec![
        share(0.70, ppp_cap(24, 0.008)),
        share(0.15, ppp_cap(24, 0.0)),
        share(0.15, ppp_uncapped()),
    ];
    isps.push(mauritius);

    let mut kazakh = IspSpec::new("JSC Kazakhtelecom", 9198, "KZ", scaled(15, s, 6));
    kazakh.prefixes = alloc.carve(&[(0, 0, 16), (1, 0, 16)]);
    kazakh.allocation = AllocationPolicy::SamePrefixBias(0.2);
    kazakh.shares = vec![
        share(0.30, ppp_cap(24, 0.004)),
        share(0.35, ppp_uncapped()),
        share(0.35, dhcp(8, 0.015)),
    ];
    isps.push(kazakh);

    // Orange Polska: two plans, 22 h and 24 h, both strongly periodic.
    let mut opl = IspSpec::new("Orange Polska", 5617, "PL", scaled(10, s, 6));
    opl.prefixes = alloc.carve(&[(0, 0, 16), (0, 128, 16), (1, 0, 16)]);
    opl.allocation = AllocationPolicy::SamePrefixBias(0.2);
    opl.shares = vec![
        share(0.45, ppp_cap(22, 0.005)),
        share(0.40, ppp_cap(24, 0.005)),
        share(0.15, ppp_uncapped()),
    ];
    isps.push(opl);

    let mut vipnet = IspSpec::new("VIPnet", 31012, "HR", scaled(7, s, 5));
    vipnet.prefixes = alloc.carve(&[(0, 0, 16), (1, 0, 16)]);
    vipnet.allocation = AllocationPolicy::RandomAny;
    vipnet.shares = vec![
        share(0.45, ppp_cap(92, 0.015)),
        share(0.15, ppp_cap(92, 0.05)),
        share(0.40, dhcp(8, 0.02)),
    ];
    isps.push(vipnet);

    let mut digi = IspSpec::new("Digi Tavkozlesi", 20845, "HU", scaled(4, s, 4));
    digi.prefixes = alloc.carve(&[(0, 0, 16), (1, 0, 16)]);
    digi.allocation = AllocationPolicy::RandomAny;
    digi.shares = vec![share(1.0, ppp_cap(168, 0.004))];
    isps.push(digi);

    let mut free = IspSpec::new("Free SAS", 12322, "FR", scaled(12, s, 6));
    free.prefixes = alloc.carve(&[(0, 0, 16), (1, 0, 16)]);
    free.allocation = AllocationPolicy::SamePrefixBias(0.5);
    free.shares = vec![
        share(0.25, ppp_cap(24, 0.01)),
        share(0.75, dhcp_rotating(24, 0.012, 90)),
    ];
    isps.push(free);

    let mut sonatel = IspSpec::new("SONATEL-AS", 8346, "SN", scaled(7, s, 5));
    sonatel.prefixes = alloc.carve(&[(0, 0, 16), (1, 0, 16)]);
    sonatel.allocation = AllocationPolicy::RandomAny;
    sonatel.shares = vec![share(0.40, ppp_cap(24, 0.012)), share(0.60, ppp_uncapped())];
    isps.push(sonatel);

    let mut nbn = IspSpec::new("Net by Net", 12714, "RU", scaled(7, s, 5));
    nbn.prefixes = alloc.carve(&[(0, 0, 16), (1, 0, 16)]);
    nbn.allocation = AllocationPolicy::RandomAny;
    nbn.shares = vec![share(0.45, ppp_cap(47, 0.01)), share(0.55, dhcp(8, 0.02))];
    isps.push(nbn);

    // --- Non-periodic ISPs (Tables 6 & 7, Figs. 2/7/8/9) -------------------

    // Liberty Global: DHCP cable — the Fig. 9 left panel. Changes require an
    // outage long enough to outlive the lease plus pool churn.
    let mut lgi = IspSpec::new("LGI", 6830, "NL", scaled(90, s, 8));
    lgi.prefixes = alloc.carve(&[(0, 0, 16), (0, 128, 15), (1, 0, 16), (2, 0, 16)]);
    lgi.allocation = AllocationPolicy::SamePrefixBias(0.25);
    lgi.shares = vec![share(1.0, dhcp_rotating(4, 0.045, 40))];
    isps.push(lgi);

    // Verizon: the long-lived North American addresses of Fig. 2.
    let mut verizon = IspSpec::new("Verizon", 701, "US", scaled(55, s, 8));
    verizon.prefixes = alloc.carve(&[(0, 0, 16), (0, 96, 16), (1, 0, 16), (1, 128, 16)]);
    verizon.allocation = AllocationPolicy::SamePrefixBias(0.70);
    verizon.outages = OutageSpec::stable();
    verizon.shares = vec![share(1.0, dhcp_rotating(12, 0.02, 75))];
    isps.push(verizon);

    let mut comcast = IspSpec::new("Comcast", 7922, "US", scaled(30, s, 6));
    comcast.prefixes = alloc.carve(&[(0, 0, 16), (0, 128, 16), (1, 0, 16)]);
    comcast.allocation = AllocationPolicy::SamePrefixBias(0.45);
    comcast.outages = OutageSpec::stable();
    comcast.shares = vec![share(1.0, dhcp_rotating(8, 0.022, 55))];
    isps.push(comcast);

    // Telecom Italia: uncapped PPP — high P(ac|outage) (Table 6) and very
    // high cross-prefix rates (Table 7: 85% / 88% / 47%).
    let mut ti = IspSpec::new("Telecom Italia", 3269, "IT", scaled(30, s, 8));
    ti.prefixes = alloc.carve(&[
        (0, 0, 15),
        (0, 64, 15),
        (0, 128, 15),
        (0, 192, 15),
        (1, 0, 15),
        (1, 64, 15),
        (1, 128, 15),
        (1, 192, 15),
    ]);
    ti.allocation = AllocationPolicy::RandomAny;
    ti.shares = vec![share(1.0, ppp_uncapped())];
    isps.push(ti);

    let mut wind = IspSpec::new("Wind Telecomunicazioni", 1267, "IT", scaled(12, s, 6));
    wind.prefixes = alloc.carve(&[(0, 0, 16), (0, 128, 16), (1, 0, 16)]);
    wind.allocation = AllocationPolicy::SamePrefixBias(0.2);
    wind.shares = vec![share(0.85, ppp_uncapped()), share(0.15, dhcp(8, 0.02))];
    isps.push(wind);

    // SFR: mixed plant — only some probes renumber on outages.
    let mut sfr = IspSpec::new("SFR", 15557, "FR", scaled(16, s, 6));
    sfr.prefixes = alloc.carve(&[(0, 0, 16), (0, 128, 16)]);
    sfr.allocation = AllocationPolicy::SamePrefixBias(0.4);
    sfr.shares = vec![
        share(0.40, ppp_uncapped()),
        share(0.60, dhcp_rotating(6, 0.01, 60)),
    ];
    isps.push(sfr);

    let mut ziggo = IspSpec::new("Ziggo", 9143, "NL", scaled(12, s, 5));
    ziggo.prefixes = alloc.carve(&[(0, 0, 16), (0, 128, 16)]);
    ziggo.allocation = AllocationPolicy::SamePrefixBias(0.5);
    ziggo.shares = vec![share(1.0, dhcp_rotating(6, 0.02, 45))];
    isps.push(ziggo);

    // Virgin Media: rare changes, but when they happen they span prefixes
    // (Table 7: 84% / 89% / 71%).
    let mut virgin = IspSpec::new("Virgin Media", 5089, "GB", scaled(10, s, 5));
    virgin.prefixes = alloc.carve(&[
        (0, 0, 15),
        (1, 0, 15),
        (2, 0, 15),
        (3, 0, 15),
        (0, 128, 15),
        (1, 128, 15),
    ]);
    virgin.allocation = AllocationPolicy::RandomAny;
    virgin.shares = vec![share(1.0, dhcp_rotating(6, 0.05, 75))];
    isps.push(virgin);

    // The stable German cable ISPs of Fig. 3.
    let mut kabel_de = IspSpec::new("Kabel Deutschland", 31334, "DE", scaled(25, s, 6));
    kabel_de.prefixes = alloc.carve(&[(0, 0, 16), (0, 128, 16)]);
    kabel_de.allocation = AllocationPolicy::PreferPrevious;
    kabel_de.outages = OutageSpec::stable();
    kabel_de.shares = vec![share(1.0, dhcp_rotating(12, 0.012, 55))];
    isps.push(kabel_de);

    let mut kabel_bw = IspSpec::new("Kabel BW", 29562, "DE", scaled(8, s, 5));
    kabel_bw.prefixes = alloc.carve(&[(0, 0, 16)]);
    kabel_bw.allocation = AllocationPolicy::PreferPrevious;
    kabel_bw.outages = OutageSpec::stable();
    kabel_bw.shares = vec![share(1.0, dhcp_rotating(12, 0.012, 55))];
    isps.push(kabel_bw);

    // --- Background ISPs shaping Fig. 1 -------------------------------------

    let mut bg_asn = 64_600u32;
    let background = |alloc: &mut PrefixAlloc,
                      isps: &mut Vec<IspSpec>,
                      bg_asn: &mut u32,
                      probes: usize,
                      cc: &str,
                      label: &str,
                      shares: Vec<AccessShare>,
                      scale: f64| {
        let mut isp = IspSpec::new(label, *bg_asn, cc, scaled(probes, scale, 3));
        *bg_asn += 1;
        isp.prefixes = alloc.carve(&[(0, 0, 16), (1, 0, 16)]);
        isp.allocation = AllocationPolicy::SamePrefixBias(0.25);
        isp.shares = shares;
        isps.push(isp);
    };

    // Europe: a mix of daily/weekly periodic and stable plant.
    let eu_mix = vec![
        share(0.10, ppp_cap(24, 0.0)),
        share(0.05, ppp_cap(24, 0.01)),
        share(0.04, ppp_cap(168, 0.0)),
        share(0.01, ppp_cap(168, 0.008)),
        share(0.30, ppp_uncapped()),
        share(0.50, dhcp_rotating(8, 0.025, 60)),
    ];
    for (i, cc) in [
        "DE", "FR", "GB", "NL", "SE", "CZ", "PL", "IT", "ES", "CH", "RO", "FI",
    ]
    .iter()
    .enumerate()
    {
        background(
            &mut alloc,
            &mut isps,
            &mut bg_asn,
            42,
            cc,
            &format!("bg-eu-{i}"),
            eu_mix.clone(),
            s,
        );
    }

    // North America: stable DHCP, quiet networks.
    let na_mix = vec![share(1.0, dhcp_rotating(12, 0.018, 70))];
    for (i, cc) in ["US", "US", "US", "CA", "CA", "MX"].iter().enumerate() {
        let mut isp = IspSpec::new(&format!("bg-na-{i}"), bg_asn, cc, scaled(56, s, 3));
        bg_asn += 1;
        isp.prefixes = alloc.carve(&[(0, 0, 16), (0, 128, 16)]);
        isp.allocation = AllocationPolicy::PreferPrevious;
        isp.outages = OutageSpec::stable();
        isp.shares = na_mix.clone();
        isps.push(isp);
    }

    // Asia: a 24-hour mode exists but is weaker than Europe's.
    let as_mix = vec![
        share(0.06, ppp_cap(24, 0.0)),
        share(0.03, ppp_cap(24, 0.01)),
        share(0.34, ppp_uncapped()),
        share(0.57, dhcp_rotating(8, 0.022, 55)),
    ];
    for (i, cc) in ["JP", "IN", "SG", "KR", "TR", "ID", "TH", "HK"]
        .iter()
        .enumerate()
    {
        background(
            &mut alloc,
            &mut isps,
            &mut bg_asn,
            28,
            cc,
            &format!("bg-as-{i}"),
            as_mix.clone(),
            s,
        );
    }

    // Africa: a pronounced 24-hour mode (total time fraction ≈ 0.16).
    let af_mix = vec![
        share(0.13, ppp_cap(24, 0.0)),
        share(0.07, ppp_cap(24, 0.009)),
        share(0.32, ppp_uncapped()),
        share(0.48, dhcp_rotating(8, 0.025, 50)),
    ];
    for (i, cc) in ["ZA", "EG", "KE", "NG", "MA"].iter().enumerate() {
        background(
            &mut alloc,
            &mut isps,
            &mut bg_asn,
            20,
            cc,
            &format!("bg-af-{i}"),
            af_mix.clone(),
            s,
        );
    }

    // South America: the multi-mode continent — 12 h, 28 h, 48 h, 192 h.
    let sa_mixes: Vec<(&str, Vec<AccessShare>)> = vec![
        (
            "UY",
            vec![
                share(0.22, ppp_cap(12, 0.0)),
                share(0.10, ppp_cap(12, 0.008)),
                share(0.68, dhcp_rotating(8, 0.025, 50)),
            ],
        ),
        (
            "AR",
            vec![
                share(0.16, ppp_cap(28, 0.0)),
                share(0.10, ppp_cap(28, 0.009)),
                share(0.74, ppp_uncapped()),
            ],
        ),
        (
            "BR",
            vec![
                share(0.22, ppp_cap(48, 0.0)),
                share(0.10, ppp_cap(48, 0.009)),
                share(0.68, dhcp_rotating(8, 0.025, 50)),
            ],
        ),
        (
            "CL",
            vec![
                share(0.18, ppp_cap(192, 0.0)),
                share(0.06, ppp_cap(192, 0.007)),
                share(0.76, dhcp_rotating(8, 0.025, 50)),
            ],
        ),
        (
            "CO",
            vec![
                share(0.14, ppp_cap(12, 0.0)),
                share(0.08, ppp_cap(12, 0.009)),
                share(0.78, ppp_uncapped()),
            ],
        ),
        (
            "BR",
            vec![
                share(0.16, ppp_cap(48, 0.0)),
                share(0.10, ppp_cap(48, 0.01)),
                share(0.74, ppp_uncapped()),
            ],
        ),
    ];
    for (i, (cc, mix)) in sa_mixes.into_iter().enumerate() {
        background(
            &mut alloc,
            &mut isps,
            &mut bg_asn,
            24,
            cc,
            &format!("bg-sa-{i}"),
            mix,
            s,
        );
    }

    // Oceania: stable, no modes.
    for (i, cc) in ["AU", "AU", "NZ"].iter().enumerate() {
        let mut isp = IspSpec::new(&format!("bg-oc-{i}"), bg_asn, cc, scaled(18, s, 3));
        bg_asn += 1;
        isp.prefixes = alloc.carve(&[(0, 0, 16)]);
        isp.allocation = AllocationPolicy::PreferPrevious;
        isp.outages = OutageSpec::stable();
        isp.shares = vec![share(1.0, dhcp_rotating(12, 0.02, 70))];
        isps.push(isp);
    }

    w.isps = isps;

    // --- Movers, filler, administrative renumbering -------------------------

    w.movers = scaled(766, s, 2);
    w.filler = FillerSpec {
        never_changed: scaled(2_850, s, 2),
        dual_stack: scaled(3_728, s, 2),
        ipv6_only: scaled(237, s, 1),
        tagged: scaled(174, s, 2),
        tagged_alternating_frac: 0.2,
        alternating: scaled(511, s, 2),
        testing_static: scaled(216, s, 1),
    };

    // One administrative renumbering, on a background EU ISP in September
    // ("we found only one instance", §8).
    let admin_asn = Asn(64_600);
    let admin_prefixes = alloc.carve(&[(0, 0, 16), (0, 128, 16)]);
    w.admin_renumber = Some((
        admin_asn,
        SimTime::from_date(9, 15, 2, 0, 0),
        admin_prefixes,
    ));

    w
}

/// Builds the monthly IP-to-AS snapshots for a world: every ISP's pool
/// prefixes announced by its ASN, with admin-renumbering target prefixes
/// appearing from their migration month onward.
pub fn paper_route_tables(config: &WorldConfig) -> MonthlySnapshots {
    let mut base = RouteTable::new();
    for isp in &config.isps {
        for p in &isp.prefixes {
            base.announce(*p, isp.asn);
        }
    }
    let mut snaps = MonthlySnapshots::uniform(base.clone());
    if let Some((asn, when, new_prefixes)) = &config.admin_renumber {
        let mut after = base;
        for p in new_prefixes {
            after.announce(*p, *asn);
        }
        snaps.set_from_month(when.month_of_2015(), after);
    }
    snaps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_builds_at_small_scale() {
        let w = paper_world(0.05, 1);
        assert!(w.isps.len() > 40, "isps: {}", w.isps.len());
        assert!(w.total_probes() > 200);
        // Named ISPs retain minimum populations.
        let orange = w.isps.iter().find(|i| i.name == "Orange").unwrap();
        assert!(orange.probes >= 8);
    }

    #[test]
    fn prefixes_are_globally_disjoint() {
        let w = paper_world(0.05, 1);
        let mut all: Vec<(Prefix, &str)> = Vec::new();
        for isp in &w.isps {
            for p in &isp.prefixes {
                all.push((*p, &isp.name));
            }
        }
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert!(
                    !all[i].0.covers(all[j].0) && !all[j].0.covers(all[i].0),
                    "{} ({}) overlaps {} ({})",
                    all[i].0,
                    all[i].1,
                    all[j].0,
                    all[j].1
                );
            }
        }
    }

    #[test]
    fn route_tables_cover_every_pool() {
        let w = paper_world(0.05, 1);
        let snaps = paper_route_tables(&w);
        for isp in &w.isps {
            for p in &isp.prefixes {
                let origin = snaps.month(1).origin(p.nth(1)).unwrap();
                assert_eq!(origin.asn, isp.asn, "prefix {p} of {}", isp.name);
            }
        }
    }

    #[test]
    fn admin_prefixes_appear_from_september() {
        let w = paper_world(0.05, 1);
        let snaps = paper_route_tables(&w);
        let (asn, when, prefixes) = w.admin_renumber.clone().unwrap();
        assert_eq!(when.month_of_2015(), 9);
        let addr = prefixes[0].nth(5);
        assert_eq!(snaps.month(8).asn_of(addr), Asn::UNKNOWN);
        assert_eq!(snaps.month(9).asn_of(addr), asn);
        assert_eq!(snaps.month(12).asn_of(addr), asn);
    }

    #[test]
    fn scale_scales_probe_counts() {
        let small = paper_world(0.05, 1);
        let large = paper_world(0.5, 1);
        assert!(large.total_probes() > 3 * small.total_probes());
        assert_eq!(
            small.isps.len(),
            large.isps.len(),
            "ISP roster is scale-free"
        );
    }

    #[test]
    fn paper_scale_approximates_paper_population() {
        let w = paper_world(1.0, 1);
        let total = w.total_probes();
        assert!(
            (9_000..13_000).contains(&total),
            "full-scale world has {total} probes; paper had 10,977"
        );
    }

    #[test]
    fn table5_asns_present() {
        let w = paper_world(0.1, 1);
        for asn in [
            3215u32, 3320, 6805, 13184, 8997, 2856, 5432, 8447, 3209, 5391, 13046, 6057, 18881,
            23889, 9198, 5617, 31012, 20845, 12322, 8346, 12714,
        ] {
            assert!(
                w.isps.iter().any(|i| i.asn == Asn(asn)),
                "AS{asn} missing from the world"
            );
        }
    }

    #[test]
    fn periodic_ground_truth_matches_table5() {
        let w = paper_world(0.1, 1);
        let find = |asn: u32| w.isps.iter().find(|i| i.asn == Asn(asn)).unwrap();
        let period_of = |asn: u32| -> Vec<i64> {
            let mut v: Vec<i64> = find(asn)
                .shares
                .iter()
                .filter_map(|s| s.access.periodic_period().map(|d| d.secs() / 3600))
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        assert_eq!(period_of(3215), vec![168]);
        assert_eq!(period_of(6057), vec![12]);
        assert_eq!(period_of(5617), vec![22, 24]);
        assert_eq!(period_of(2856), vec![337]);
        assert!(period_of(6830).is_empty(), "LGI must not be periodic");
        assert!(period_of(701).is_empty(), "Verizon must not be periodic");
    }
}
