//! A differential net under the three analysis drivers.
//!
//! The batch analyzer (`analyze`), the out-of-core analyzer
//! (`analyze_streamed_batched`) and the live analyzer, fed record by
//! record (`IncrementalAnalyzer::replay`) or probe-major in batches
//! (`build_probes` + `install`), then sealed, must agree byte for byte on
//! every dataset, not just on the paper world `tests/determinism.rs`
//! pins. The two live paths must also end with the same rolling counts
//! and ingest counters. The property test builds small random worlds the way
//! `examples/custom_world.rs` builds one by hand; the named tests build
//! datasets row by row with the edge shapes the drivers could split on.

use dynaddr::analysis::pipeline::{
    analyze, analyze_streamed_batched, AnalysisConfig, AnalysisReport,
};
use dynaddr::analysis::{batch_ranges, build_probes, IncrementalAnalyzer};
use dynaddr::atlas::config::{
    AccessShare, CpeSchedule, FillerSpec, IspSpec, OutageSpec, WorldConfig,
};
use dynaddr::atlas::stream::DEFAULT_BATCH_PROBES;
use dynaddr::atlas::world::paper_route_tables;
use dynaddr::atlas::{
    simulate, AtlasDataset, ConnectionLogEntry, KrootPingRecord, PeerAddr, ProbeMeta,
    SosUptimeRecord,
};
use dynaddr::ip2as::{MonthlySnapshots, RouteTable};
use dynaddr::ispnet::{AccessConfig, AllocationPolicy, DhcpConfig, PppConfig};
use dynaddr::store::{FileReader, StreamWriter, DEFAULT_SEGMENT_ROWS};
use dynaddr::types::dist::DurationDist;
use dynaddr::types::time::DAY;
use dynaddr::types::{Asn, Country, ProbeId, ProbeVersion, SimDuration, SimTime};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Running every driver
// ---------------------------------------------------------------------------

/// The worker count is process-wide; tests in this binary take turns so
/// each "1 thread" and "2 threads" run really gets its count.
static THREADS: Mutex<()> = Mutex::new(());

/// Writes `ds` as a store file with `segment_rows` rows per segment.
fn write_store(ds: &AtlasDataset, segment_rows: usize) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "dynaddr-differential-{}-{}.store",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let file = std::fs::File::create(&path).expect("create store file");
    let mut w = StreamWriter::with_segment_rows(file, segment_rows).expect("write magic");
    w.write_table(&ds.meta).expect("write meta");
    w.write_table(&ds.connections).expect("write connections");
    w.write_table(&ds.kroot).expect("write kroot");
    w.write_table(&ds.uptime).expect("write uptime");
    w.finish().expect("write footer");
    path
}

/// Every driver's report on `ds` as `(driver, JSON)`: `analyze` at 1 and
/// 2 threads, the streamed analyzer at batch sizes 1, 7 and the default
/// over a store file cut every `segment_rows` rows, and a full replay
/// through the live analyzer, then seal: record by record, and probe-major
/// at batch sizes 1, 7 and the default. The probe-major replays must end
/// with the record replay's rolling counts and ingest counters.
fn reports(
    ds: &AtlasDataset,
    snaps: &MonthlySnapshots,
    cfg: &AnalysisConfig,
    segment_rows: usize,
) -> Vec<(String, String)> {
    let _turn = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let json = |r: AnalysisReport| serde_json::to_string(&r).expect("report serializes");
    let mut out = Vec::new();
    for threads in [1, 2] {
        dynaddr_exec::set_threads(Some(threads));
        out.push((
            format!("analyze threads={threads}"),
            json(analyze(ds, snaps, cfg)),
        ));
    }
    dynaddr_exec::set_threads(None);

    let path = write_store(ds, segment_rows);
    for batch in [1, 7, DEFAULT_BATCH_PROBES] {
        let report = analyze_streamed_batched(&path, snaps, cfg, batch).expect("streamed analyze");
        out.push((
            format!("analyze_streamed_batched batch={batch}"),
            json(report),
        ));
    }
    std::fs::remove_file(&path).ok();

    let mut record = IncrementalAnalyzer::new(snaps.clone());
    record.replay(ds);
    out.push(("replay+seal".to_string(), json(record.seal(cfg))));
    for batch in [1, 7, DEFAULT_BATCH_PROBES] {
        let mut live = IncrementalAnalyzer::new(snaps.clone());
        for range in batch_ranges(ds.meta.len(), batch) {
            live.install(build_probes(ds, range, snaps));
        }
        assert_eq!(
            live.rolling_counts(),
            record.rolling_counts(),
            "install batch={batch}"
        );
        assert_eq!(live.stats(), record.stats(), "install batch={batch}");
        out.push((
            format!("build_probes+install+seal batch={batch}"),
            json(live.seal(cfg)),
        ));
    }
    out
}

/// The first driver whose report differs from `analyze` at 1 thread.
fn divergence(
    ds: &AtlasDataset,
    snaps: &MonthlySnapshots,
    cfg: &AnalysisConfig,
    segment_rows: usize,
) -> Option<String> {
    let all = reports(ds, snaps, cfg, segment_rows);
    let (base_name, base) = &all[0];
    all[1..]
        .iter()
        .find(|(_, r)| r != base)
        .map(|(name, r)| format!("{name} differs from {base_name}:\n{r}\nvs\n{base}"))
}

fn assert_drivers_agree(ds: &AtlasDataset, snaps: &MonthlySnapshots, segment_rows: usize) {
    let cfg = AnalysisConfig {
        fig3_min_years: 0.0,
        min_outages: 1,
        hourly_panels: vec![(64_900, 24)],
        fig9_ases: vec![64_900],
        ..AnalysisConfig::default()
    };
    if let Some(diff) = divergence(ds, snaps, &cfg, segment_rows) {
        panic!("{diff}");
    }
}

// ---------------------------------------------------------------------------
// Property: small random worlds
// ---------------------------------------------------------------------------

/// DHCP lease lengths (hours): Table 5's periods and the short leases
/// Argon et al. measured.
const LEASES_H: [i64; 4] = [1, 8, 24, 168];
/// PPP session caps (hours), `None` for uncapped.
const CAPS_H: [Option<i64>; 5] = [None, Some(24), Some(36), Some(48), Some(168)];
/// Probabilities that a cap termination or scheduled reconnect is skipped.
const SKIPS: [f64; 3] = [0.0, 0.01, 0.2];

/// One access share: `(kind, period index, skip index, flag)`. Kind 0 is
/// DHCP (flag: periodic pool rotation), kind 1 PPP (flag: skipped caps
/// overrun by a non-harmonic amount, like GVT's), kind 2 an uncapped PPP
/// share with a CPE reconnect schedule.
fn arb_share() -> impl Strategy<Value = AccessShare> {
    (0u8..3, 0usize..5, 0usize..3, any::<bool>()).prop_map(|(kind, period, skip, flag)| {
        let skip = SKIPS[skip];
        let window_start = period as u32 * 5;
        match kind {
            0 => AccessShare {
                weight: 1.0,
                access: AccessConfig::Dhcp(DhcpConfig {
                    lease: SimDuration::from_hours(LEASES_H[period % 4]),
                    churn_rate_per_hour: 0.02,
                    rotation_mean: flag.then(|| SimDuration::from_days(40)),
                    ..DhcpConfig::default()
                }),
                schedule: None,
            },
            1 => AccessShare {
                weight: 1.0,
                access: AccessConfig::Ppp(PppConfig {
                    session_cap: CAPS_H[period].map(SimDuration::from_hours),
                    skip_renumber_prob: skip,
                    skip_extension: flag.then_some(DurationDist::Uniform {
                        lo: 4.0 * 3_600.0,
                        hi: 44.0 * 3_600.0,
                    }),
                    ..PppConfig::default()
                }),
                schedule: None,
            },
            _ => AccessShare {
                weight: 1.0,
                access: AccessConfig::Ppp(PppConfig::default()),
                schedule: Some(CpeSchedule {
                    adoption: if flag { 1.0 } else { 0.5 },
                    window_start_hour: window_start % 24,
                    window_end_hour: (window_start + 1 + period as u32) % 24,
                    skip_prob: skip,
                }),
            },
        }
    })
}

/// One ISP's knobs: probes, first share, optional second share, then
/// allocation policy and an outage-rate multiplier in `[0, 3]`.
type IspKnobs = ((usize, AccessShare, Option<AccessShare>), (u8, f64));

fn arb_isp() -> impl Strategy<Value = IspKnobs> {
    let second = (any::<bool>(), arb_share()).prop_map(|(two, share)| two.then_some(share));
    ((3usize..=12, arb_share(), second), (0u8..3, 0.0f64..=3.0))
}

/// Filler probes of every Table 2 class (0–3 each), movers (0–2),
/// firmware pushes on or off, and an optional admin renumbering
/// `(ISP index, day of year)`.
type WorldKnobs = (FillerSpec, usize, bool, Option<(usize, i64)>);

fn arb_world_knobs() -> impl Strategy<Value = WorldKnobs> {
    let filler = (
        (0usize..=3, 0usize..=3, 0usize..=3),
        (0usize..=3, 0usize..=3, 0usize..=3),
    )
        .prop_map(
            |((never, dual, v6), (tagged, alternating, testing))| FillerSpec {
                never_changed: never,
                dual_stack: dual,
                ipv6_only: v6,
                tagged,
                tagged_alternating_frac: 0.5,
                alternating,
                testing_static: testing,
            },
        );
    let admin =
        (any::<bool>(), 0usize..4, 30i64..330).prop_map(|(on, isp, day)| on.then_some((isp, day)));
    (filler, 0usize..=2, any::<bool>(), admin)
}

const COUNTRIES: [&str; 4] = ["DE", "FR", "BR", "US"];

fn build_world(seed: u64, isps: Vec<IspKnobs>, knobs: WorldKnobs) -> WorldConfig {
    let (filler, movers, firmware, admin) = knobs;
    let mut world = WorldConfig::empty(seed);
    for (k, ((probes, first, second), (allocation, outage_mult))) in isps.into_iter().enumerate() {
        let asn = 64_900 + k as u32;
        let mut isp = IspSpec::new(&format!("ISP {k}"), asn, COUNTRIES[k % 4], probes);
        isp.prefixes = (0..2)
            .map(|j| format!("{}.{j}.0.0/16", 20 + k).parse().expect("prefix"))
            .collect();
        isp.allocation = match allocation {
            0 => AllocationPolicy::PreferPrevious,
            1 => AllocationPolicy::RandomAny,
            _ => AllocationPolicy::SamePrefixBias(0.3),
        };
        isp.shares = std::iter::once(first).chain(second).collect();
        let mut outages = OutageSpec::residential();
        outages.network_per_year *= outage_mult;
        outages.power_per_year *= outage_mult;
        isp.outages = outages;
        world.isps.push(isp);
    }
    world.filler = filler;
    world.movers = movers;
    if firmware {
        world.firmware_dates = WorldConfig::firmware_dates_2015();
    }
    if let Some((isp, day)) = admin {
        let k = isp % world.isps.len();
        let fresh = vec![format!("{}.0.0.0/16", 40 + k).parse().expect("prefix")];
        world.admin_renumber = Some((world.isps[k].asn, SimTime(day * DAY + 2 * 3_600), fresh));
    }
    world
}

/// Panels keyed to the world's own ASNs, so every report section has
/// something to disagree about.
fn config_for(world: &WorldConfig) -> AnalysisConfig {
    let mut cfg = AnalysisConfig {
        fig3_min_years: 0.0,
        min_outages: 1,
        fig3_country: world.isps[0].country.code().to_string(),
        hourly_panels: world.isps.iter().map(|i| (i.asn.0, 24)).collect(),
        fig9_ases: world.isps.iter().map(|i| i.asn.0).collect(),
        ..AnalysisConfig::default()
    };
    for isp in &world.isps {
        cfg.as_names.insert(isp.asn.0, isp.name.clone());
    }
    cfg
}

proptest! {
    /// Every driver renders the same report on a small random world.
    #[test]
    fn drivers_agree_on_random_worlds(
        seed in any::<u64>(),
        isps in proptest::collection::vec(arb_isp(), 2..5),
        knobs in arb_world_knobs(),
        segment_rows in 0usize..3,
    ) {
        let world = build_world(seed, isps, knobs);
        let out = simulate(&world);
        let snaps = paper_route_tables(&world);
        let segment_rows = [16, 500, DEFAULT_SEGMENT_ROWS][segment_rows];
        let diff = divergence(&out.dataset, &snaps, &config_for(&world), segment_rows);
        prop_assert!(diff.is_none(), "seed {seed}: {}", diff.unwrap_or_default());
    }
}

// ---------------------------------------------------------------------------
// Named edge shapes, built row by row
// ---------------------------------------------------------------------------

/// Seconds between k-root rounds.
const ROUND: i64 = 240;
const HOUR: i64 = 3_600;

fn snaps() -> MonthlySnapshots {
    let mut table = RouteTable::new();
    table.announce("20.0.0.0/8".parse().expect("prefix"), Asn(64_900));
    MonthlySnapshots::uniform(table)
}

/// One analyzable v3 probe over `days` days. It renumbers at every day
/// boundary and across every outage. Power outages `[start, end)` leave
/// no k-root rounds and no uptime reports, then the probe boots at `end`;
/// network outages `[start, end]` lose every ping while the LTS grows.
/// K-root rounds fall on the `ROUND` grid and uptime reports on the hour,
/// so every uptime report shares its timestamp with a k-root round.
struct Probe {
    id: u32,
    days: i64,
    power: Vec<(i64, i64)>,
    network: Vec<(i64, i64)>,
}

impl Probe {
    fn new(id: u32, days: i64) -> Probe {
        Probe {
            id,
            days,
            power: Vec::new(),
            network: Vec::new(),
        }
    }

    fn dark(&self, t: i64) -> bool {
        self.power.iter().any(|&(s, e)| s <= t && t < e)
    }

    fn rows(&self, ds: &mut AtlasDataset) {
        let probe = ProbeId(self.id);
        let end = self.days * DAY;
        ds.meta.push(ProbeMeta {
            probe,
            version: ProbeVersion::V3,
            country: Country::new("DE").expect("country"),
            tags: Vec::new(),
        });
        for t in (0..end).step_by(ROUND as usize).filter(|&t| !self.dark(t)) {
            let lost = self.network.iter().find(|&&(s, e)| s <= t && t <= e);
            ds.kroot.push(KrootPingRecord {
                probe,
                timestamp: SimTime(t),
                sent: 3,
                success: if lost.is_some() { 0 } else { 3 },
                lts_secs: lost.map_or(30, |&(s, _)| t - s + 60),
            });
        }
        for t in (0..end).step_by(HOUR as usize).filter(|&t| !self.dark(t)) {
            let boot = self.power.iter().map(|&(_, e)| e).filter(|&e| e <= t).max();
            ds.uptime.push(SosUptimeRecord {
                probe,
                timestamp: SimTime(t),
                uptime_secs: (t - boot.unwrap_or(-DAY)) as u64,
            });
        }
        // Connections break at each day boundary and across each outage,
        // coming back on a fresh address.
        let mut breaks: Vec<(i64, i64)> = (1..self.days).map(|d| (d * DAY - 60, d * DAY)).collect();
        breaks.extend(self.power.iter().chain(&self.network).copied());
        breaks.sort_unstable();
        let mut start = 0;
        for (k, &(gap_start, gap_end)) in breaks.iter().chain([&(end, end)]).enumerate() {
            if gap_start > start {
                ds.connections.push(ConnectionLogEntry {
                    probe,
                    start: SimTime(start),
                    end: SimTime(gap_start),
                    peer: PeerAddr::V4(Ipv4Addr::new(20, 0, self.id as u8, k as u8)),
                });
            }
            start = start.max(gap_end + 60);
        }
    }
}

fn dataset(probes: &[Probe]) -> AtlasDataset {
    let mut ds = AtlasDataset::default();
    for p in probes {
        p.rows(&mut ds);
    }
    ds.normalize();
    ds
}

/// A probe with an hour-long power cut and a forty-minute network outage
/// on day 1, both renumbering it.
fn outaged(id: u32) -> Probe {
    let mut p = Probe::new(id, 3);
    p.power
        .push((DAY + 6 * HOUR + 7 * ROUND, DAY + 7 * HOUR + 3 * ROUND + 17));
    p.network
        .push((DAY + 12 * HOUR, DAY + 12 * HOUR + 10 * ROUND));
    p
}

#[test]
fn probe_without_kroot_rows_and_probe_without_uptime_rows() {
    let mut ds = dataset(&[outaged(1), outaged(2), outaged(3)]);
    ds.kroot.retain(|r| r.probe != ProbeId(2));
    ds.uptime.retain(|r| r.probe != ProbeId(3));
    ds.normalize();
    assert!(ds.kroot_of(ProbeId(2)).is_empty() && !ds.uptime_of(ProbeId(2)).is_empty());
    assert!(ds.uptime_of(ProbeId(3)).is_empty() && !ds.kroot_of(ProbeId(3)).is_empty());
    assert_drivers_agree(&ds, &snaps(), 64);
}

#[test]
fn probe_rows_straddle_segment_boundaries() {
    let ds = dataset(&[outaged(1), outaged(2), outaged(3)]);
    // 97-row segments cut every table mid-probe, the k-root table (about
    // a thousand rows per probe) many times over.
    let segment_rows = 97;
    let path = write_store(&ds, segment_rows);
    let bytes = std::fs::read(&path).expect("read store");
    std::fs::remove_file(&path).ok();
    let reader = FileReader::open(&bytes).expect("open store");
    let straddles = reader
        .segments()
        .windows(2)
        .filter(|w| w[0].table == w[1].table && w[0].key_hi == w[1].key_lo)
        .count();
    assert!(
        straddles > 10,
        "only {straddles} segment boundaries fall inside a probe"
    );
    assert_drivers_agree(&ds, &snaps(), segment_rows);
}

#[test]
fn network_outage_open_at_the_last_kroot_record() {
    // The probe's k-root log stops at `last`, one lost round into an
    // outage whose connection gap is followed by a fresh connection. The
    // outage exists only if the open loss run is flushed at the end.
    let last = 2 * DAY + 12 * HOUR;
    let mut p = outaged(1);
    p.network.push((last - 200, last + 2 * HOUR));
    let mut ds = dataset(&[p, outaged(2)]);
    ds.kroot
        .retain(|r| r.probe != ProbeId(1) || r.timestamp <= SimTime(last));
    ds.normalize();
    let kroot = ds.kroot_of(ProbeId(1));
    assert!(kroot
        .last()
        .is_some_and(|r| r.all_lost() && r.timestamp == SimTime(last)));
    let network = dynaddr::analysis::outages::detect_network_outages(kroot);
    assert_eq!(
        network.last().map(|n| (n.start, n.end)),
        Some((SimTime(last), SimTime(last)))
    );
    assert_drivers_agree(&ds, &snaps(), 64);
}

#[test]
fn reboot_at_the_instant_of_a_kroot_round() {
    let mut p = Probe::new(1, 3);
    // The probe boots exactly on a k-root round, which then brackets the
    // dark window from the right.
    let boot = DAY + 9 * HOUR + 5 * ROUND;
    p.power.push((DAY + 8 * HOUR + 2 * ROUND + 11, boot));
    let ds = dataset(&[p, outaged(2)]);
    assert!(ds
        .kroot_of(ProbeId(1))
        .iter()
        .any(|r| r.timestamp == SimTime(boot)));
    let reboots = dynaddr::analysis::outages::detect_reboots(ds.uptime_of(ProbeId(1)));
    assert_eq!(
        reboots.iter().map(|r| r.boot_time).collect::<Vec<_>>(),
        [SimTime(boot)]
    );
    assert_drivers_agree(&ds, &snaps(), 64);
}

#[test]
fn uptime_and_kroot_records_share_a_timestamp() {
    let mut p = Probe::new(1, 3);
    // The post-boot uptime report that reveals the reboot lands on a
    // k-root round too, so replay order decides which machine sees its
    // timestamp first.
    p.power
        .push((DAY + 3 * HOUR + 100, DAY + 3 * HOUR + 40 * 60 + 30));
    let ds = dataset(&[p, outaged(2)]);
    let kroot: Vec<SimTime> = ds
        .kroot_of(ProbeId(1))
        .iter()
        .map(|r| r.timestamp)
        .collect();
    let reboots = dynaddr::analysis::outages::detect_reboots(ds.uptime_of(ProbeId(1)));
    assert_eq!(reboots.len(), 1);
    assert!(kroot.contains(&reboots[0].report_time));
    assert!(ds
        .uptime
        .iter()
        .all(|u| kroot.contains(&u.timestamp) || u.probe != ProbeId(1)));
    assert_drivers_agree(&ds, &snaps(), 64);
}

#[test]
fn log_rows_of_probes_without_a_meta_row() {
    // Probes 1, 3 and 9 have log rows but no meta row: below the first
    // meta id, between two, and past the last.
    let mut ds = dataset(&[outaged(2), outaged(4)]);
    let orphans = dataset(&[outaged(1), outaged(3), outaged(9)]);
    ds.connections.extend(orphans.connections.iter().cloned());
    ds.kroot.extend(orphans.kroot.iter().cloned());
    ds.uptime.extend(orphans.uptime.iter().cloned());
    ds.normalize();
    let orphan_rows =
        (orphans.connections.len() + orphans.kroot.len() + orphans.uptime.len()) as u64;
    let all_rows = (ds.connections.len() + ds.kroot.len() + ds.uptime.len()) as u64;
    assert_drivers_agree(&ds, &snaps(), 64);

    // The daemon's probe-major replay and its paced, record-by-record one
    // count them alike.
    use dynaddr_daemon::{Daemon, Rate};
    for rate in [Rate::Max, Rate::Multiplier(1e12)] {
        let daemon = Daemon::new(snaps(), AnalysisConfig::default());
        daemon.replay(&ds, rate);
        let ingest = daemon.ingest_reply();
        assert_eq!(ingest.unknown_probe_rows, orphan_rows, "{rate:?}");
        assert_eq!(
            (ingest.rows_ingested, ingest.rows_planned),
            (all_rows, all_rows),
            "{rate:?}"
        );
        assert_eq!(ingest.meta_rows, 2, "{rate:?}");
    }
}
