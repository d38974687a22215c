//! # dynaddr-daemon
//!
//! The live ingestion daemon behind the `dynaddrd` binary: a resident
//! [`Daemon`] wraps [`dynaddr_core::live::IncrementalAnalyzer`] — the
//! whole paper pipeline as per-probe state machines — behind a mutex, and
//! serves its rolling state over the same Unix-socket protocol `queryd`
//! speaks. `dynaddrd` and `queryd` share one serving front-end
//! ([`dynaddr_query::server`]); only the
//! [`Answerer`](dynaddr_query::Answerer) behind it differs.
//!
//! Two ways records arrive:
//!
//! * **Replay at full speed** ([`Daemon::replay_stream`] over a
//!   [`DatasetStream`], or [`Daemon::replay`] with [`Rate::Max`] over a
//!   loaded dataset): probe-major, one batch of whole probes at a time.
//!   Each batch runs through the per-probe kernel on the executor's
//!   workers with no lock held ([`build_probes`]), then goes in under
//!   one short lock hold. The paper's method is per probe, so no global
//!   time order is needed, and a store replays in the memory of one
//!   batch plus the machines. This is the CI-pinned path: a full
//!   replay followed by [`Daemon::seal_text`] renders **byte-for-byte**
//!   the report the batch `analyze` binary prints for the same directory.
//! * **Paced replay** ([`Daemon::replay`] with [`Rate::Multiplier`]):
//!   every record of a loaded dataset in arrival order
//!   ([`replay_plan`]), each pushed at its recorded time scaled by the
//!   rate.
//!
//! Point queries ([`Request::DaemonSnapshot`], [`Request::DaemonProbe`],
//! [`Request::IngestStats`]) answer from rolling state in O(1)–O(log n)
//! under a brief lock. Sealing finishes clones of the per-probe machines
//! under the lock and runs the global finish after releasing it, so the
//! stream keeps flowing while a report renders. Ingest volume and seal
//! spans flow into `dynaddr-obs` (`daemon.*` counters, `daemon.replay`
//! heartbeats) and from there into the `--trace` sidecar.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dynaddr_atlas::logs::AtlasDataset;
use dynaddr_atlas::stream::DEFAULT_BATCH_PROBES;
use dynaddr_atlas::{DatasetStream, StoreError};
use dynaddr_core::live::{batch_ranges, build_probes, replay_plan, IncrementalAnalyzer, ProbeBatch};
use dynaddr_core::pipeline::AnalysisConfig;
use dynaddr_core::report::render_full;
use dynaddr_core::ProbeClass;
use dynaddr_ip2as::MonthlySnapshots;
use dynaddr_query::proto::{DaemonProbeReply, DaemonSnapshotReply, IngestStatsReply};
use dynaddr_query::{Request, Response};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Replay pacing: how fast recorded time is pushed relative to wall time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rate {
    /// No pacing; records are pushed as fast as they apply.
    Max,
    /// `N` seconds of recorded time per wall-clock second.
    Multiplier(f64),
}

impl Rate {
    /// Parses `"max"` or a positive multiplier.
    pub fn parse(s: &str) -> Result<Rate, String> {
        if s.eq_ignore_ascii_case("max") {
            return Ok(Rate::Max);
        }
        match s.parse::<f64>() {
            Ok(m) if m > 0.0 && m.is_finite() => Ok(Rate::Multiplier(m)),
            _ => Err(format!("--rate wants \"max\" or a positive number, got {s:?}")),
        }
    }
}

/// The resident daemon state: the incremental analyzer plus the ingest
/// bookkeeping the wire protocol reports.
pub struct Daemon {
    live: Mutex<IncrementalAnalyzer>,
    /// The analyzer's snapshots, for building batches off the lock.
    snapshots: MonthlySnapshots,
    cfg: AnalysisConfig,
    started: Instant,
    rows_planned: AtomicU64,
    rows_ingested: AtomicU64,
    sealed: AtomicBool,
}

fn class_code(c: ProbeClass) -> u8 {
    match c {
        ProbeClass::Ipv6Only => 0,
        ProbeClass::DualStack => 1,
        ProbeClass::Tagged => 2,
        ProbeClass::Multihomed => 3,
        ProbeClass::TestingOnly => 4,
        ProbeClass::NeverChanged => 5,
        ProbeClass::Analyzable => 6,
    }
}

impl Daemon {
    /// An empty daemon over the given IP-to-AS snapshots and analysis
    /// configuration (the same `AnalysisConfig` the batch `analyze` run
    /// would use, so sealed reports are comparable).
    pub fn new(snapshots: MonthlySnapshots, cfg: AnalysisConfig) -> Daemon {
        Daemon {
            live: Mutex::new(IncrementalAnalyzer::new(snapshots.clone())),
            snapshots,
            cfg,
            started: Instant::now(),
            rows_planned: AtomicU64::new(0),
            rows_ingested: AtomicU64::new(0),
            sealed: AtomicBool::new(false),
        }
    }

    /// The analyzer, locked. A poisoned lock means a thread panicked in
    /// the middle of an update, so the rolling state is no longer whole.
    fn state(&self) -> MutexGuard<'_, IncrementalAnalyzer> {
        self.live.lock().expect("a thread panicked while holding the daemon state")
    }

    /// Replays a whole dataset, paced by `rate`, into a daemon that
    /// tracks none of its probes yet. Point queries interleave freely.
    ///
    /// At [`Rate::Max`] the replay is probe-major: the dataset's meta rows
    /// in batches of [`DEFAULT_BATCH_PROBES`], each built off the lock and
    /// installed whole, exactly as [`replay_stream`](Self::replay_stream)
    /// replays a store. Paced, it pushes all meta rows first, then every
    /// record in arrival order ([`replay_plan`]) at its recorded time
    /// scaled by the rate, one lock hold per record. `ds` must be
    /// normalized.
    pub fn replay(&self, ds: &AtlasDataset, rate: Rate) {
        let rows = (ds.connections.len() + ds.kroot.len() + ds.uptime.len()) as u64;
        self.rows_planned.store(rows, Ordering::Relaxed);
        let progress = dynaddr_obs::Progress::start("daemon.replay", rows);
        match rate {
            Rate::Max => {
                for range in batch_ranges(ds.meta.len(), DEFAULT_BATCH_PROBES) {
                    self.install(build_probes(ds, range, &self.snapshots), &progress);
                }
            }
            Rate::Multiplier(m) => self.replay_paced(ds, m, &progress),
        }
        progress.finish();
    }

    /// The paced half of [`replay`](Self::replay): meta rows, then the
    /// arrival-order plan, one record per lock hold.
    fn replay_paced(&self, ds: &AtlasDataset, m: f64, progress: &dynaddr_obs::Progress) {
        {
            let mut live = self.state();
            for meta in &ds.meta {
                live.push_meta(meta);
            }
        }
        dynaddr_obs::counter_add("daemon.meta_rows", ds.meta.len() as u64);
        let plan = replay_plan(ds);
        let Some(first) = plan.first() else {
            return;
        };
        let origin = first.time.0;
        let wall_start = Instant::now();
        for step in &plan {
            let due = Duration::from_secs_f64(((step.time.0 - origin).max(0) as f64) / m);
            let elapsed = wall_start.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
            self.state().apply(ds, step.row);
            self.rows_ingested.fetch_add(1, Ordering::Relaxed);
            dynaddr_obs::counter_add("daemon.rows_ingested", 1);
            progress.add(1);
        }
    }

    /// Replays a store at full speed, probe-major, into a daemon that
    /// tracks none of its probes yet: each [`DatasetStream`] batch is
    /// built off the lock and installed whole, so the daemon holds one
    /// decoded batch beside its machines, never the store. The planned row
    /// count comes from the store's footer. A store error ends the replay;
    /// the batches installed before it stay.
    pub fn replay_stream(&self, mut stream: DatasetStream) -> Result<(), StoreError> {
        let rows = stream.total_log_rows();
        self.rows_planned.store(rows, Ordering::Relaxed);
        let progress = dynaddr_obs::Progress::start("daemon.replay", rows);
        while let Some(batch) = stream.next_batch()? {
            self.install(build_probes(&batch, 0..batch.meta.len(), &self.snapshots), &progress);
        }
        progress.finish();
        Ok(())
    }

    /// Installs one built batch under a single lock hold.
    fn install(&self, batch: ProbeBatch, progress: &dynaddr_obs::Progress) {
        let (probes, rows) = (batch.stats().meta_rows, batch.stats().log_rows());
        self.state().install(batch);
        self.rows_ingested.fetch_add(rows, Ordering::Relaxed);
        dynaddr_obs::counter_add("daemon.meta_rows", probes);
        dynaddr_obs::counter_add("daemon.rows_ingested", rows);
        progress.add(rows);
    }

    /// Seals a snapshot of the live stream into the full rendered report —
    /// the exact text the batch `analyze` binary prints, once the stream
    /// is complete. Only the per-probe half holds the lock; the global
    /// finish and rendering run after it is released, and the live state
    /// keeps ingesting afterwards.
    pub fn seal_text(&self) -> String {
        let probes = self.state().seal_probes();
        let report = probes.finish(&self.cfg);
        self.sealed.store(true, Ordering::Relaxed);
        dynaddr_obs::counter_add("daemon.seals", 1);
        render_full(&report, &self.cfg.as_names)
    }

    /// The analysis configuration sealed reports use.
    pub fn config(&self) -> &AnalysisConfig {
        &self.cfg
    }

    /// The rolling funnel + event totals, as the wire reports them.
    pub fn snapshot_reply(&self) -> DaemonSnapshotReply {
        let live = self.state();
        let c = live.rolling_counts();
        let s = live.stats();
        DaemonSnapshotReply {
            total: c.total as u64,
            ipv6_only: c.ipv6_only as u64,
            dual_stack: c.dual_stack as u64,
            tagged: c.tagged as u64,
            multihomed: c.multihomed as u64,
            testing_only: c.testing_only as u64,
            never_changed: c.never_changed as u64,
            analyzable_geo: c.analyzable_geo as u64,
            multi_as: c.multi_as as u64,
            analyzable_as: c.analyzable_as as u64,
            changes: s.changes,
            gaps: s.gaps,
            network_outages: s.network_outages,
            reboots: s.reboots,
            frontier_secs: s.frontier_secs,
            probes_tracked: live.probes_tracked() as u64,
            sealed: self.sealed.load(Ordering::Relaxed),
        }
    }

    /// One probe's rolling state, if introduced.
    pub fn probe_reply(&self, id: u32) -> Option<DaemonProbeReply> {
        let view = self.state().probe_view(id)?;
        Some(DaemonProbeReply {
            probe: id,
            class: class_code(view.class),
            multi_as: view.multi_as,
            entries: view.entries as u64,
            changes: view.changes as u64,
            gaps: view.gaps as u64,
            network_outages: view.network_outages as u64,
            reboots: view.reboots as u64,
            had_testing: view.had_testing,
        })
    }

    /// The ingest counters and replay progress, as the wire reports them.
    pub fn ingest_reply(&self) -> IngestStatsReply {
        let stats = self.state().stats().clone();
        IngestStatsReply {
            meta_rows: stats.meta_rows,
            connection_rows: stats.connection_rows,
            kroot_rows: stats.kroot_rows,
            uptime_rows: stats.uptime_rows,
            unknown_probe_rows: stats.unknown_probe_rows,
            frontier_secs: stats.frontier_secs,
            rows_ingested: self.rows_ingested.load(Ordering::Relaxed),
            rows_planned: self.rows_planned.load(Ordering::Relaxed),
            elapsed_ms: self.started.elapsed().as_millis() as u64,
            sealed: self.sealed.load(Ordering::Relaxed),
        }
    }

    /// Answers one request from the rolling state. Dataset queries belong
    /// to `queryd`; here they are a typed error, not a panic.
    pub fn answer_request(&self, req: &Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::DaemonSnapshot => Response::DaemonSnapshot(self.snapshot_reply()),
            Request::DaemonProbe(p) => Response::DaemonProbe(self.probe_reply(p.0)),
            Request::IngestStats => Response::IngestStats(self.ingest_reply()),
            Request::ServerStats => {
                Response::Error("ServerStats is answered by the serving front-end".into())
            }
            _ => Response::Error(
                "dynaddrd serves daemon requests only; dataset queries belong to queryd"
                    .into(),
            ),
        }
    }
}

#[cfg(unix)]
impl dynaddr_query::Answerer for Daemon {
    fn answer(&self, req: &Request) -> Response {
        self.answer_request(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaddr_atlas::world::{paper_route_tables, paper_world};

    fn small_daemon() -> (Daemon, AtlasDataset) {
        let world = paper_world(0.01, 3);
        let out = dynaddr_atlas::simulate(&world);
        let snaps = paper_route_tables(&world);
        let mut cfg = AnalysisConfig { fig3_min_years: 0.01, ..AnalysisConfig::default() };
        for (asn, policy) in &out.truth.isp_policies {
            cfg.as_names.insert(*asn, policy.name.clone());
        }
        (Daemon::new(snaps, cfg), out.dataset)
    }

    #[test]
    fn replay_then_seal_matches_batch() {
        let (daemon, ds) = small_daemon();
        daemon.replay(&ds, Rate::Max);
        let ingest = daemon.ingest_reply();
        assert_eq!(ingest.rows_ingested, ingest.rows_planned);
        assert!(!ingest.sealed);
        let sealed = daemon.seal_text();
        let snaps = {
            // Rebuild inputs independently for the batch reference.
            let world = paper_world(0.01, 3);
            paper_route_tables(&world)
        };
        let batch = dynaddr_core::pipeline::analyze(&ds, &snaps, daemon.config());
        assert_eq!(sealed, render_full(&batch, &daemon.config().as_names));
        assert!(daemon.ingest_reply().sealed);
    }

    /// Streaming the store file ends where the in-memory replay ends: the
    /// same ingest counters, rolling state and sealed report, with the
    /// planned rows read from the footer.
    #[test]
    fn stream_replay_matches_in_memory_replay() {
        let (daemon, ds) = small_daemon();
        daemon.replay(&ds, Rate::Max);
        let dir = std::env::temp_dir().join(format!("dynaddrd-stream-{}", std::process::id()));
        ds.save_dir(&dir).unwrap();
        let (streamed, _) = small_daemon();
        streamed.replay_stream(DatasetStream::open(&dir.join("dataset.store")).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let (a, b) = (daemon.ingest_reply(), streamed.ingest_reply());
        assert_eq!(b.rows_planned, a.rows_planned);
        assert_eq!(b.rows_ingested, b.rows_planned);
        assert_eq!(
            (b.meta_rows, b.connection_rows, b.kroot_rows, b.uptime_rows, b.unknown_probe_rows),
            (a.meta_rows, a.connection_rows, a.kroot_rows, a.uptime_rows, a.unknown_probe_rows)
        );
        assert_eq!(b.frontier_secs, a.frontier_secs);
        assert_eq!(streamed.snapshot_reply(), daemon.snapshot_reply());
        assert_eq!(streamed.seal_text(), daemon.seal_text());
    }

    /// While a max-rate replay runs, every probe a query sees is whole: its
    /// reply already equals the one after the replay. Probes arrive a
    /// batch at a time, and the planned rows are known from the start.
    #[test]
    fn mid_replay_state_shows_whole_probes() {
        use std::sync::atomic::AtomicBool;

        let world = paper_world(0.1, 3);
        let ds = dynaddr_atlas::simulate(&world).dataset;
        assert!(ds.meta.len() > 2 * DEFAULT_BATCH_PROBES, "three batches or more");
        let rows = (ds.connections.len() + ds.kroot.len() + ds.uptime.len()) as u64;
        let daemon = Daemon::new(paper_route_tables(&world), AnalysisConfig::default());
        let done = AtomicBool::new(false);
        let (seen, mid_replay) = std::thread::scope(|s| {
            let asker = s.spawn(|| {
                let (mut seen, mut mid_replay) = (Vec::new(), 0usize);
                let mut k = 0usize;
                while daemon.ingest_reply().rows_planned == 0 && !done.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                while !done.load(Ordering::Acquire) {
                    k = (k + 97) % ds.meta.len();
                    seen.extend(daemon.probe_reply(ds.meta[k].probe.0));
                    let ingest = daemon.ingest_reply();
                    assert_eq!(ingest.rows_planned, rows);
                    let tracked = daemon.snapshot_reply().probes_tracked as usize;
                    assert!(
                        tracked.is_multiple_of(DEFAULT_BATCH_PROBES) || tracked == ds.meta.len(),
                        "{tracked} probes tracked: not whole batches"
                    );
                    mid_replay += usize::from(tracked < ds.meta.len());
                }
                (seen, mid_replay)
            });
            daemon.replay(&ds, Rate::Max);
            done.store(true, Ordering::Release);
            asker.join().expect("query thread")
        });
        for reply in &seen {
            assert_eq!(daemon.probe_reply(reply.probe).as_ref(), Some(reply));
        }
        let ingest = daemon.ingest_reply();
        assert_eq!((ingest.rows_ingested, ingest.rows_planned), (rows, rows));
        eprintln!("{} probe replies checked, {mid_replay} taken mid-replay", seen.len());
    }

    #[test]
    fn snapshot_and_probe_queries_answer_rolling_state() {
        let (daemon, ds) = small_daemon();
        daemon.replay(&ds, Rate::Max);
        let snap = daemon.snapshot_reply();
        assert_eq!(snap.total as usize, ds.meta.len());
        assert_eq!(snap.probes_tracked as usize, ds.meta.len());
        assert!(snap.frontier_secs > 0);
        let some_probe = ds.meta[0].probe.0;
        let view = daemon.probe_reply(some_probe).expect("probe is tracked");
        assert_eq!(view.probe, some_probe);
        assert!(view.class <= 6);
        assert!(daemon.probe_reply(u32::MAX).is_none());
    }

    #[test]
    fn dataset_queries_are_typed_errors() {
        let (daemon, _) = small_daemon();
        assert!(matches!(
            daemon.answer_request(&Request::TopMovers(5)),
            Response::Error(_)
        ));
        assert!(matches!(daemon.answer_request(&Request::Ping), Response::Pong));
    }

    #[test]
    fn rate_parses() {
        assert_eq!(Rate::parse("max").unwrap(), Rate::Max);
        assert_eq!(Rate::parse("MAX").unwrap(), Rate::Max);
        assert_eq!(Rate::parse("1000").unwrap(), Rate::Multiplier(1000.0));
        assert!(Rate::parse("0").is_err());
        assert!(Rate::parse("-3").is_err());
        assert!(Rate::parse("soon").is_err());
    }

    /// End-to-end over a real socket: serve the daemon, replay, and check
    /// the three daemon queries plus the front-end's ServerStats.
    #[cfg(unix)]
    #[test]
    fn daemon_serves_over_unix_socket() {
        use dynaddr_query::{serve, QueryClient};
        use std::sync::Arc;

        let (daemon, ds) = small_daemon();
        let daemon = Arc::new(daemon);
        let sock = std::env::temp_dir()
            .join(format!("dynaddrd-test-{}.sock", std::process::id()));
        let server = serve(Arc::clone(&daemon), &sock).expect("bind");
        let handle = server.handle();
        let srv = std::thread::spawn(move || server.run());

        daemon.replay(&ds, Rate::Max);
        let mut client =
            QueryClient::connect_retry(&sock, Duration::from_secs(5)).expect("connect");
        match client.request(&Request::DaemonSnapshot).unwrap() {
            Response::DaemonSnapshot(s) => {
                assert_eq!(s.total as usize, ds.meta.len());
            }
            other => panic!("unexpected {other:?}"),
        }
        match client.request(&Request::IngestStats).unwrap() {
            Response::IngestStats(s) => {
                assert_eq!(s.rows_ingested, s.rows_planned);
            }
            other => panic!("unexpected {other:?}"),
        }
        match client.request(&Request::DaemonProbe(ds.meta[0].probe)).unwrap() {
            Response::DaemonProbe(Some(p)) => assert_eq!(p.probe, ds.meta[0].probe.0),
            other => panic!("unexpected {other:?}"),
        }
        match client.request(&Request::ServerStats).unwrap() {
            Response::ServerStats(s) => {
                assert!(s.requests_total >= 4);
                assert_eq!(s.connections_total, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        match client.request(&Request::TopMovers(3)).unwrap() {
            Response::Error(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        drop(client);
        handle.stop();
        srv.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&sock);
    }
}
