//! Live incremental analysis: the whole pipeline as per-probe state
//! machines over an append-only record stream.
//!
//! [`IncrementalAnalyzer`] holds one per-probe kernel (see
//! [`crate::pipeline`]) for every probe: a [`ProbeMachine`] and the outage
//! machines. Records reach it two ways:
//!
//! * **record by record**, in arrival order, through
//!   [`push_meta`](IncrementalAnalyzer::push_meta) and the three row
//!   pushes (or [`apply`](IncrementalAnalyzer::apply) over a
//!   [`replay_plan`]) — the path for a paced replay or a live collector;
//! * **a batch of whole probes at a time**: [`build_probes`] runs a batch
//!   through the kernel on the executor's workers with no analyzer in
//!   sight, and [`install`](IncrementalAnalyzer::install) adds the built
//!   probes and their rolling deltas in one step — the path for replaying
//!   a store at full speed, probe-major.
//!
//! Both paths push through the same per-probe methods, so a probe fed the
//! same rows ends in the same state either way. Rolling Table 2 counts
//! (provisional until the stream ends) and ingest statistics are kept as
//! records arrive, and [`seal`](IncrementalAnalyzer::seal) renders a full
//! [`AnalysisReport`] at any point.
//!
//! **Replay equivalence** is the module's contract: replaying a complete
//! dataset through the analyzer (all meta rows, then every record in
//! arrival order — see [`replay_plan`] — or every probe through
//! [`build_probes`]) and sealing produces a report byte-for-byte
//! identical to [`crate::pipeline::analyze`] over the same dataset. Seal
//! finishes clones of the machines and hands their output to the global
//! finish every driver shares, and every driver feeds each probe's
//! machines the same per-table record order, so nothing per-probe or
//! global exists twice.

use crate::filtering::{FilterCounts, FilterReport, ProbeClass, ProbeMachine};
use crate::outages::{in_arrival_order, OutageMachines, ProbeOutages};
use crate::pipeline::{finish_analysis, finish_outages, AnalysisConfig, AnalysisReport};
use dynaddr_atlas::logs::{
    AtlasDataset, ConnectionLogEntry, KrootPingRecord, ProbeMeta, SosUptimeRecord,
};
use dynaddr_exec::par_map;
use dynaddr_ip2as::MonthlySnapshots;
use dynaddr_types::{ProbeId, SimTime};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Range;

/// Rolling ingest counters — cheap integers a daemon can report without
/// touching per-probe state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Probe-meta rows accepted.
    pub meta_rows: u64,
    /// Connection-log rows accepted.
    pub connection_rows: u64,
    /// K-root ping rows accepted.
    pub kroot_rows: u64,
    /// SOS-uptime rows accepted.
    pub uptime_rows: u64,
    /// Rows dropped because no meta row introduced their probe.
    pub unknown_probe_rows: u64,
    /// Address changes emitted so far.
    pub changes: u64,
    /// Inter-connection gaps emitted so far.
    pub gaps: u64,
    /// Completed network outages so far (an open loss run is not counted).
    pub network_outages: u64,
    /// Reboots detected so far.
    pub reboots: u64,
    /// Largest record arrival time seen (seconds; 0 before any record).
    pub frontier_secs: i64,
}

impl IngestStats {
    /// Log rows taken in: the three log tables' accepted rows plus the
    /// unknown-probe rows dropped.
    pub fn log_rows(&self) -> u64 {
        self.connection_rows + self.kroot_rows + self.uptime_rows + self.unknown_probe_rows
    }

    /// Adds a batch's counters; the frontier is the later of the two.
    fn add(&mut self, other: &IngestStats) {
        let IngestStats {
            meta_rows,
            connection_rows,
            kroot_rows,
            uptime_rows,
            unknown_probe_rows,
            changes,
            gaps,
            network_outages,
            reboots,
            frontier_secs,
        } = other;
        self.meta_rows += meta_rows;
        self.connection_rows += connection_rows;
        self.kroot_rows += kroot_rows;
        self.uptime_rows += uptime_rows;
        self.unknown_probe_rows += unknown_probe_rows;
        self.changes += changes;
        self.gaps += gaps;
        self.network_outages += network_outages;
        self.reboots += reboots;
        self.frontier_secs = self.frontier_secs.max(*frontier_secs);
    }
}

/// A point-in-time view of one probe's rolling state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeView {
    /// The funnel verdict over the entries seen so far.
    pub class: ProbeClass,
    /// Whether any change so far crossed autonomous systems.
    pub multi_as: bool,
    /// Retained (stripped, IPv4) connection entries.
    pub entries: usize,
    /// Address changes emitted so far.
    pub changes: usize,
    /// Inter-connection gaps emitted so far.
    pub gaps: usize,
    /// Completed network outages so far.
    pub network_outages: usize,
    /// Reboots detected so far.
    pub reboots: usize,
    /// Whether a leading testing-address entry was stripped.
    pub had_testing: bool,
}

/// The rolling aggregates pushes add to: the funnel counts and the ingest
/// counters. The analyzer keeps the running totals; a [`ProbeBatch`]
/// carries its own, which [`IncrementalAnalyzer::install`] adds.
#[derive(Debug, Clone, Default)]
struct Rolling {
    counts: FilterCounts,
    stats: IngestStats,
}

impl Rolling {
    fn add(&mut self, other: &Rolling) {
        self.counts.add(&other.counts);
        self.stats.add(&other.stats);
    }

    fn arrived(&mut self, t: SimTime) {
        self.stats.frontier_secs = self.stats.frontier_secs.max(t.0);
    }
}

/// One probe's kernel: the funnel machine and the outage machines. Its
/// methods are the only per-record logic; both ingest paths call them.
#[derive(Debug, Clone)]
struct ProbeState {
    machine: ProbeMachine,
    outages: OutageMachines,
    reboot_count: usize,
    /// Funnel bucket this probe currently occupies in the rolling counts.
    counted: (ProbeClass, bool),
}

impl ProbeState {
    /// A fresh probe, tallied into `to`.
    fn new(meta: &ProbeMeta, to: &mut Rolling) -> ProbeState {
        let machine = ProbeMachine::new(meta.clone());
        let counted = (machine.class(), machine.multi_as());
        to.counts.tally(counted.0, counted.1, true);
        to.counts.total += 1;
        to.stats.meta_rows += 1;
        ProbeState { machine, outages: OutageMachines::default(), reboot_count: 0, counted }
    }

    /// Feeds one connection-log entry (per-probe start-time order).
    fn push_connection(
        &mut self,
        e: &ConnectionLogEntry,
        snapshots: &MonthlySnapshots,
        to: &mut Rolling,
    ) {
        let (changes0, gaps0) = (self.machine.changes_len(), self.machine.gaps_len());
        self.machine.push(e, snapshots);
        let now = (self.machine.class(), self.machine.multi_as());
        if now != self.counted {
            to.counts.tally(self.counted.0, self.counted.1, false);
            to.counts.tally(now.0, now.1, true);
            self.counted = now;
        }
        // Counts reset to zero when a probe settles out of the analyzable
        // funnel (heavy state dropped); only forward motion is tallied.
        to.stats.changes += self.machine.changes_len().saturating_sub(changes0) as u64;
        to.stats.gaps += self.machine.gaps_len().saturating_sub(gaps0) as u64;
        to.stats.connection_rows += 1;
        to.arrived(e.start);
    }

    /// Feeds one k-root ping record (per-probe time order).
    fn push_kroot(&mut self, r: &KrootPingRecord, to: &mut Rolling) {
        let before = self.outages.network_outages();
        self.outages.push_kroot(r);
        to.stats.network_outages += (self.outages.network_outages() - before) as u64;
        to.stats.kroot_rows += 1;
        to.arrived(r.timestamp);
    }

    /// Feeds one SOS-uptime record (per-probe time order).
    fn push_uptime(&mut self, r: &SosUptimeRecord, to: &mut Rolling) {
        if self.outages.push_uptime(r) {
            self.reboot_count += 1;
            to.stats.reboots += 1;
        }
        to.stats.uptime_rows += 1;
        to.arrived(r.timestamp);
    }
}

/// The live pipeline: per-probe state machines + rolling aggregates.
///
/// Feed [`push_meta`](Self::push_meta) first for every probe, then records
/// in arrival order via [`push_connection`](Self::push_connection) /
/// [`push_kroot`](Self::push_kroot) / [`push_uptime`](Self::push_uptime)
/// (or [`apply`](Self::apply) over a [`replay_plan`]); or
/// [`install`](Self::install) whole probes that [`build_probes`] built.
/// Query rolling state any time; [`seal`](Self::seal) renders the full
/// report without disturbing the live state.
pub struct IncrementalAnalyzer {
    snapshots: MonthlySnapshots,
    probes: BTreeMap<u32, ProbeState>,
    rolling: Rolling,
}

impl IncrementalAnalyzer {
    /// An empty analyzer over the given IP-to-AS snapshots.
    pub fn new(snapshots: MonthlySnapshots) -> IncrementalAnalyzer {
        IncrementalAnalyzer { snapshots, probes: BTreeMap::new(), rolling: Rolling::default() }
    }

    /// Introduces a probe. Records for probes without a meta row are
    /// dropped (and counted), matching the batch pipeline, which iterates
    /// the meta table.
    pub fn push_meta(&mut self, meta: &ProbeMeta) {
        if let Entry::Vacant(slot) = self.probes.entry(meta.probe.0) {
            slot.insert(ProbeState::new(meta, &mut self.rolling));
        }
    }

    /// Feeds one connection-log entry (per-probe start-time order).
    pub fn push_connection(&mut self, e: &ConnectionLogEntry) {
        match self.probes.get_mut(&e.probe.0) {
            Some(st) => st.push_connection(e, &self.snapshots, &mut self.rolling),
            None => self.rolling.stats.unknown_probe_rows += 1,
        }
    }

    /// Feeds one k-root ping record (per-probe time order).
    pub fn push_kroot(&mut self, r: &KrootPingRecord) {
        match self.probes.get_mut(&r.probe.0) {
            Some(st) => st.push_kroot(r, &mut self.rolling),
            None => self.rolling.stats.unknown_probe_rows += 1,
        }
    }

    /// Feeds one SOS-uptime record (per-probe time order).
    pub fn push_uptime(&mut self, r: &SosUptimeRecord) {
        match self.probes.get_mut(&r.probe.0) {
            Some(st) => st.push_uptime(r, &mut self.rolling),
            None => self.rolling.stats.unknown_probe_rows += 1,
        }
    }

    /// Applies one replay step against its source dataset.
    pub fn apply(&mut self, ds: &AtlasDataset, row: ReplayRow) {
        match row {
            ReplayRow::Connection(i) => self.push_connection(&ds.connections[i]),
            ReplayRow::Kroot(i) => self.push_kroot(&ds.kroot[i]),
            ReplayRow::Uptime(i) => self.push_uptime(&ds.uptime[i]),
        }
    }

    /// Replays a whole dataset record by record: all meta rows, then every
    /// record in arrival order. After this, [`seal`](Self::seal) matches
    /// the batch report.
    pub fn replay(&mut self, ds: &AtlasDataset) {
        for meta in &ds.meta {
            self.push_meta(meta);
        }
        for step in replay_plan(ds) {
            self.apply(ds, step.row);
        }
    }

    /// Adds the probes [`build_probes`] built, with their rolling deltas,
    /// in one step: a reader sees either none of the batch or all of it,
    /// each probe whole. The batch's probes must be new to the analyzer,
    /// as they are when one store is replayed probe-major into a fresh
    /// analyzer.
    pub fn install(&mut self, batch: ProbeBatch) {
        debug_assert!(batch.probes.iter().all(|(id, _)| !self.probes.contains_key(id)));
        self.rolling.add(&batch.delta);
        self.probes.extend(batch.probes);
    }

    /// The rolling Table 2 funnel counts (provisional classes over the
    /// records seen so far; identical to the sealed counts once the stream
    /// is complete).
    pub fn rolling_counts(&self) -> &FilterCounts {
        &self.rolling.counts
    }

    /// The rolling ingest counters.
    pub fn stats(&self) -> &IngestStats {
        &self.rolling.stats
    }

    /// Number of probes introduced so far.
    pub fn probes_tracked(&self) -> usize {
        self.probes.len()
    }

    /// A point-in-time view of one probe, if introduced.
    pub fn probe_view(&self, id: u32) -> Option<ProbeView> {
        let st = self.probes.get(&id)?;
        Some(ProbeView {
            class: st.machine.class(),
            multi_as: st.machine.multi_as(),
            entries: st.machine.entries_len(),
            changes: st.machine.changes_len(),
            gaps: st.machine.gaps_len(),
            network_outages: st.outages.network_outages(),
            reboots: st.reboot_count,
            had_testing: st.machine.had_testing(),
        })
    }

    /// The per-probe half of a [`seal`](Self::seal): clones of every
    /// probe's machines, finished. A daemon takes this under its state
    /// lock and runs [`SealedProbes::finish`] after releasing it.
    pub fn seal_probes(&self) -> SealedProbes {
        let _sp = dynaddr_obs::span("live_seal_probes");
        let states: Vec<(&u32, &ProbeState)> = self.probes.iter().collect();
        let verdicts = par_map(&states, |(_, st)| st.machine.clone().finish());
        let mut report = FilterReport::default();
        for ((id, _), (class, probe)) in states.iter().zip(verdicts) {
            report.push(**id, class, probe);
        }
        let outages =
            par_map(&report.probes, |p| self.probes[&p.probe().0].outages.clone().finish());
        SealedProbes { report, outages, snapshots: self.snapshots.clone() }
    }

    /// Seals a snapshot of the live state into the full report. The live
    /// state is untouched (machines are cloned to run their `finish`), so a
    /// daemon can keep ingesting afterwards. After a complete replay this
    /// is byte-identical to [`crate::pipeline::analyze`].
    pub fn seal(&self, cfg: &AnalysisConfig) -> AnalysisReport {
        let _sp = dynaddr_obs::span("live_seal");
        self.seal_probes().finish(cfg)
    }
}

/// Every probe's finished machines at one instant: the per-probe half of
/// [`IncrementalAnalyzer::seal`], detached from the analyzer.
pub struct SealedProbes {
    report: FilterReport,
    outages: Vec<ProbeOutages>,
    snapshots: MonthlySnapshots,
}

impl SealedProbes {
    /// The global half of a seal: the outage finish (firmware series,
    /// strip, power verdicts, association) and every table and figure.
    pub fn finish(self, cfg: &AnalysisConfig) -> AnalysisReport {
        let _sp = dynaddr_obs::span("live_seal_finish");
        let oa = finish_outages(&self.report.probes, self.outages, true);
        finish_analysis(self.report, oa, &self.snapshots, cfg)
    }
}

/// A batch of probes run through the per-probe kernel by
/// [`build_probes`], with the rolling deltas they add, ready for
/// [`IncrementalAnalyzer::install`].
pub struct ProbeBatch {
    probes: Vec<(u32, ProbeState)>,
    delta: Rolling,
}

impl ProbeBatch {
    /// What installing the batch adds to [`IncrementalAnalyzer::stats`].
    pub fn stats(&self) -> &IngestStats {
        &self.delta.stats
    }
}

/// Runs one batch of whole probes through the per-probe kernel on the
/// executor's workers, apart from any analyzer: the meta rows
/// `ds.meta[probes]` and every log row of `ds` in their span.
///
/// The span starts after the previous meta row's probe id and runs
/// through the range's last id, or through the end of every log table
/// when the range ends the meta table. Ranges that partition `ds.meta`
/// therefore partition the log rows too, so a log row whose probe has no
/// meta row is counted in `unknown_probe_rows` by exactly one batch, as
/// the record path counts it. A meta row repeating its predecessor's id
/// is skipped, as [`IncrementalAnalyzer::push_meta`] keeps the first.
///
/// Each probe gets what the record path gives it: its connections in
/// table order, then its k-root and uptime rows merged k-root first on
/// equal timestamps, the only orders its machines are sensitive to. `ds`
/// must be normalized: a [`DatasetStream`](dynaddr_atlas::DatasetStream)
/// batch is, with `probes` covering its whole meta table.
pub fn build_probes(
    ds: &AtlasDataset,
    probes: Range<usize>,
    snapshots: &MonthlySnapshots,
) -> ProbeBatch {
    let _sp = dynaddr_obs::span("build_probes");
    let fresh: Vec<&ProbeMeta> = probes
        .clone()
        .filter(|&i| i == 0 || ds.meta[i - 1].probe != ds.meta[i].probe)
        .map(|i| &ds.meta[i])
        .collect();
    let built = par_map(&fresh, |meta| {
        let mut to = Rolling::default();
        let mut st = ProbeState::new(meta, &mut to);
        for e in ds.connections_of(meta.probe) {
            st.push_connection(e, snapshots, &mut to);
        }
        let mut fed = (st, to);
        in_arrival_order(
            ds.kroot_of(meta.probe),
            ds.uptime_of(meta.probe),
            &mut fed,
            |(st, to), r| st.push_kroot(r, to),
            |(st, to), u| st.push_uptime(u, to),
        );
        fed
    });
    let mut batch =
        ProbeBatch { probes: Vec::with_capacity(built.len()), delta: Rolling::default() };
    for (meta, (st, delta)) in fresh.iter().zip(built) {
        batch.delta.add(&delta);
        batch.probes.push((meta.probe.0, st));
    }
    let stats = &mut batch.delta.stats;
    stats.unknown_probe_rows = span_rows(ds, &probes, &ds.connections, |e| e.probe)
        + span_rows(ds, &probes, &ds.kroot, |r| r.probe)
        + span_rows(ds, &probes, &ds.uptime, |r| r.probe)
        - stats.connection_rows
        - stats.kroot_rows
        - stats.uptime_rows;
    batch
}

/// The meta ranges a probe-major replay of a whole in-memory dataset
/// hands [`build_probes`]: consecutive runs of `per_batch` meta rows (at
/// least one), or a single empty range when there are no meta rows, so
/// that their log rows are still counted.
pub fn batch_ranges(meta_rows: usize, per_batch: usize) -> impl Iterator<Item = Range<usize>> {
    let per_batch = per_batch.max(1);
    let batches = meta_rows.div_ceil(per_batch).max(1);
    (0..batches).map(move |b| b * per_batch..((b + 1) * per_batch).min(meta_rows))
}

/// How many rows of one probe-sorted log table lie in `ds.meta[probes]`'s
/// span (see [`build_probes`]).
fn span_rows<R>(
    ds: &AtlasDataset,
    probes: &Range<usize>,
    rows: &[R],
    probe: impl Fn(&R) -> ProbeId,
) -> u64 {
    // Rows up to and including the probe of meta row `i - 1`.
    let cut = |i: usize| match i.checked_sub(1) {
        None => 0,
        Some(last) => rows.partition_point(|r| probe(r) <= ds.meta[last].probe),
    };
    let end = if probes.end == ds.meta.len() { rows.len() } else { cut(probes.end) };
    (end - cut(probes.start)) as u64
}

/// One row of a replay plan: an index into its dataset table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayRow {
    /// `dataset.connections[i]`.
    Connection(usize),
    /// `dataset.kroot[i]`.
    Kroot(usize),
    /// `dataset.uptime[i]`.
    Uptime(usize),
}

/// One replay step: a record reference and its arrival time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStep {
    /// Arrival time (connection entries arrive at their start; pings and
    /// uptime reports at their timestamp).
    pub time: SimTime,
    /// The record.
    pub row: ReplayRow,
}

/// Builds the arrival-order replay plan for a normalized dataset: every
/// record of the three log tables, stably sorted by arrival time.
///
/// Stability is what makes replay equivalent to batch: the tables are
/// sorted by `(probe, time)`, so for ties in arrival time each probe's
/// records keep their per-table order — the only order the per-probe
/// machines are sensitive to. Cross-probe and cross-table interleaving is
/// free: machines are per-probe, and the k-root/uptime interplay in the
/// bracketer is tie-insensitive (a k-root round at the exact boot instant
/// brackets identically whichever side of the reboot it lands).
pub fn replay_plan(ds: &AtlasDataset) -> Vec<ReplayStep> {
    let mut plan =
        Vec::with_capacity(ds.connections.len() + ds.kroot.len() + ds.uptime.len());
    for (i, e) in ds.connections.iter().enumerate() {
        plan.push(ReplayStep { time: e.start, row: ReplayRow::Connection(i) });
    }
    for (i, r) in ds.kroot.iter().enumerate() {
        plan.push(ReplayStep { time: r.timestamp, row: ReplayRow::Kroot(i) });
    }
    for (i, r) in ds.uptime.iter().enumerate() {
        plan.push(ReplayStep { time: r.timestamp, row: ReplayRow::Uptime(i) });
    }
    plan.sort_by_key(|s| s.time); // stable
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::analyze;
    use crate::report::render_full;
    use dynaddr_atlas::world::{paper_route_tables, paper_world};

    /// The keystone property on a small world: full replay + seal renders
    /// byte-identically to the batch pipeline, and the rolling Table 2
    /// counts converge to the sealed ones.
    #[test]
    fn replay_seal_matches_batch_analyze() {
        let world = paper_world(0.02, 11);
        let out = dynaddr_atlas::simulate(&world);
        let snaps = paper_route_tables(&world);
        let mut cfg = AnalysisConfig { fig3_min_years: 0.03, ..AnalysisConfig::default() };
        for (asn, policy) in &out.truth.isp_policies {
            cfg.as_names.insert(*asn, policy.name.clone());
        }
        let batch = analyze(&out.dataset, &snaps, &cfg);

        let mut live = IncrementalAnalyzer::new(snaps);
        live.replay(&out.dataset);
        let sealed = live.seal(&cfg);

        assert_eq!(
            render_full(&sealed, &cfg.as_names),
            render_full(&batch, &cfg.as_names),
            "replayed seal must render byte-identically to batch analyze"
        );
        assert_eq!(*live.rolling_counts(), batch.filter, "rolling counts converge");
        let st = live.stats();
        assert_eq!(st.meta_rows as usize, out.dataset.meta.len());
        assert_eq!(st.connection_rows as usize, out.dataset.connections.len());
        assert_eq!(st.kroot_rows as usize, out.dataset.kroot.len());
        assert_eq!(st.uptime_rows as usize, out.dataset.uptime.len());
        assert_eq!(st.unknown_probe_rows, 0);
    }

    /// Sealing mid-stream must not disturb the live state: a seal after
    /// every prefix of the stream, then a final seal, still matches batch.
    #[test]
    fn mid_stream_seal_is_non_destructive() {
        let world = paper_world(0.01, 3);
        let out = dynaddr_atlas::simulate(&world);
        let snaps = paper_route_tables(&world);
        let cfg = AnalysisConfig { fig3_min_years: 0.01, ..AnalysisConfig::default() };
        let batch = analyze(&out.dataset, &snaps, &cfg);

        let mut live = IncrementalAnalyzer::new(snaps);
        for meta in &out.dataset.meta {
            live.push_meta(meta);
        }
        let plan = replay_plan(&out.dataset);
        for (i, step) in plan.iter().enumerate() {
            if i == plan.len() / 3 || i == 2 * plan.len() / 3 {
                let _ = live.seal(&cfg); // must not perturb anything
            }
            live.apply(&out.dataset, step.row);
        }
        let sealed = live.seal(&cfg);
        assert_eq!(
            render_full(&sealed, &cfg.as_names),
            render_full(&batch, &cfg.as_names)
        );
    }

    /// Replays `ds` probe-major: every batch of `per_batch` probes built
    /// apart from the analyzer, then installed.
    fn install_in_batches(live: &mut IncrementalAnalyzer, ds: &AtlasDataset, per_batch: usize) {
        for range in batch_ranges(ds.meta.len(), per_batch) {
            let batch = build_probes(ds, range, &live.snapshots);
            live.install(batch);
        }
    }

    /// The batch path ends where the record path ends: the same probe
    /// views, rolling counts, ingest counters and sealed report, at any
    /// batch size.
    #[test]
    fn installed_batches_match_the_record_path() {
        let world = paper_world(0.01, 3);
        let out = dynaddr_atlas::simulate(&world);
        let ds = &out.dataset;
        let snaps = paper_route_tables(&world);
        let cfg = AnalysisConfig { fig3_min_years: 0.01, ..AnalysisConfig::default() };
        let mut record = IncrementalAnalyzer::new(snaps.clone());
        record.replay(ds);
        let want = render_full(&record.seal(&cfg), &cfg.as_names);
        for per_batch in [1, 7, 100_000] {
            let mut live = IncrementalAnalyzer::new(snaps.clone());
            install_in_batches(&mut live, ds, per_batch);
            assert_eq!(live.stats(), record.stats(), "per_batch={per_batch}");
            assert_eq!(live.rolling_counts(), record.rolling_counts(), "per_batch={per_batch}");
            for m in &ds.meta {
                assert_eq!(live.probe_view(m.probe.0), record.probe_view(m.probe.0));
            }
            assert_eq!(render_full(&live.seal(&cfg), &cfg.as_names), want, "per_batch={per_batch}");
        }
        let rows = ds.connections.len() + ds.kroot.len() + ds.uptime.len();
        assert_eq!(record.stats().log_rows() as usize, rows);
    }

    /// Log rows of probes without a meta row, below the first meta id,
    /// between two and past the last, are counted once by whichever batch
    /// spans them, as the record path counts them.
    #[test]
    fn unknown_probe_rows_are_counted_once_at_any_batch_size() {
        let snaps = MonthlySnapshots::uniform(dynaddr_ip2as::RouteTable::new());
        let conn = |probe: u32, start: i64| ConnectionLogEntry {
            probe: dynaddr_types::ProbeId(probe),
            start: SimTime(start),
            end: SimTime(start + 60),
            peer: dynaddr_atlas::logs::PeerAddr::V4("10.0.0.1".parse().unwrap()),
        };
        let uptime = |probe: u32, t: i64| SosUptimeRecord {
            probe: dynaddr_types::ProbeId(probe),
            timestamp: SimTime(t),
            uptime_secs: t as u64,
        };
        let meta =
            |probe: u32| ProbeMeta { probe: dynaddr_types::ProbeId(probe), ..ProbeMeta::default() };
        let mut ds = AtlasDataset {
            meta: vec![meta(3), meta(5), meta(8)],
            connections: [1, 3, 3, 4, 5, 6, 6, 8, 9, 12]
                .iter()
                .map(|&p| conn(p, 100 * p as i64))
                .collect(),
            uptime: [2, 5, 7, 8, 20].iter().map(|&p| uptime(p, 10 * p as i64)).collect(),
            ..AtlasDataset::default()
        };
        ds.normalize();
        let mut record = IncrementalAnalyzer::new(snaps.clone());
        record.replay(&ds);
        assert_eq!(record.stats().unknown_probe_rows, 9);
        let per_batch: Vec<u64> = batch_ranges(ds.meta.len(), 1)
            .map(|range| build_probes(&ds, range, &snaps).stats().unknown_probe_rows)
            .collect();
        assert_eq!(per_batch, [2, 1, 6], "ids 1-2 | 4 | 6, 7, 9, 12, 20");
        for per_batch in [1, 2, 3] {
            let mut live = IncrementalAnalyzer::new(snaps.clone());
            install_in_batches(&mut live, &ds, per_batch);
            assert_eq!(live.stats(), record.stats(), "per_batch={per_batch}");
        }
        // No meta rows at all: one empty range still counts every row.
        let orphans = AtlasDataset { meta: Vec::new(), ..ds.clone() };
        let mut live = IncrementalAnalyzer::new(snaps);
        install_in_batches(&mut live, &orphans, 512);
        assert_eq!(live.stats().unknown_probe_rows, 15);
        assert_eq!(live.probes_tracked(), 0);
    }

    #[test]
    fn rows_before_meta_are_dropped_and_counted() {
        let snaps = MonthlySnapshots::uniform(dynaddr_ip2as::RouteTable::new());
        let mut live = IncrementalAnalyzer::new(snaps);
        live.push_connection(&ConnectionLogEntry {
            probe: dynaddr_types::ProbeId(7),
            start: SimTime(0),
            end: SimTime(60),
            peer: dynaddr_atlas::logs::PeerAddr::V4("10.0.0.1".parse().unwrap()),
        });
        assert_eq!(live.stats().unknown_probe_rows, 1);
        assert_eq!(live.probes_tracked(), 0);
        assert!(live.probe_view(7).is_none());
    }
}
