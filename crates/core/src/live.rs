//! Live incremental analysis: the whole pipeline as per-probe state
//! machines over an append-only record stream.
//!
//! [`IncrementalAnalyzer`] is the record-by-record driver of the per-probe
//! kernel (see [`crate::pipeline`]). Each probe gets a [`ProbeMachine`] and
//! the outage machines, fed in arrival order. Rolling Table 2 counts
//! (provisional until the stream ends) and ingest statistics are kept as
//! records arrive, and [`seal`](IncrementalAnalyzer::seal) renders a full
//! [`AnalysisReport`] at any point.
//!
//! **Replay equivalence** is the module's contract: replaying a complete
//! dataset through the analyzer (all meta rows, then every record in
//! arrival order — see [`replay_plan`]) and sealing produces a report
//! byte-for-byte identical to [`crate::pipeline::analyze`] over the same
//! dataset. Seal finishes clones of the machines and hands their output to
//! the global finish every driver shares, and the batch drivers feed each
//! probe's machines the same per-table record order, so nothing per-probe
//! or global exists twice.

use crate::filtering::{FilterCounts, FilterReport, ProbeClass, ProbeMachine};
use crate::outages::OutageMachines;
use crate::pipeline::{finish_analysis, finish_outages, AnalysisConfig, AnalysisReport};
use dynaddr_atlas::logs::{
    AtlasDataset, ConnectionLogEntry, KrootPingRecord, ProbeMeta, SosUptimeRecord,
};
use dynaddr_exec::par_map;
use dynaddr_ip2as::MonthlySnapshots;
use dynaddr_types::SimTime;
use std::collections::BTreeMap;

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

/// One probe's kernel: the funnel machine and the outage machines.
#[derive(Debug, Clone)]
struct ProbeState {
    machine: ProbeMachine,
    outages: OutageMachines,
    reboot_count: usize,
    /// Funnel bucket this probe currently occupies in the rolling counts.
    counted: (ProbeClass, bool),
}

/// The live pipeline: per-probe state machines + rolling aggregates.
///
/// Feed [`push_meta`](Self::push_meta) first for every probe, then records
/// in arrival order via [`push_connection`](Self::push_connection) /
/// [`push_kroot`](Self::push_kroot) / [`push_uptime`](Self::push_uptime)
/// (or [`apply`](Self::apply) over a [`replay_plan`]). Query rolling state
/// any time; [`seal`](Self::seal) renders the full report without
/// disturbing the live state.
pub struct IncrementalAnalyzer {
    snapshots: MonthlySnapshots,
    probes: BTreeMap<u32, ProbeState>,
    counts: FilterCounts,
    stats: IngestStats,
}

impl IncrementalAnalyzer {
    /// An empty analyzer over the given IP-to-AS snapshots.
    pub fn new(snapshots: MonthlySnapshots) -> IncrementalAnalyzer {
        IncrementalAnalyzer {
            snapshots,
            probes: BTreeMap::new(),
            counts: FilterCounts::default(),
            stats: IngestStats::default(),
        }
    }

    /// Introduces a probe. Records for probes without a meta row are
    /// dropped (and counted), matching the batch pipeline, which iterates
    /// the meta table.
    pub fn push_meta(&mut self, meta: &ProbeMeta) {
        let id = meta.probe.0;
        if self.probes.contains_key(&id) {
            return;
        }
        let machine = ProbeMachine::new(meta.clone());
        let counted = (machine.class(), machine.multi_as());
        self.counts.tally(counted.0, counted.1, true);
        self.counts.total += 1;
        let outages = OutageMachines::default();
        self.probes.insert(id, ProbeState { machine, outages, reboot_count: 0, counted });
        self.stats.meta_rows += 1;
    }

    fn frontier(&mut self, t: SimTime) {
        self.stats.frontier_secs = self.stats.frontier_secs.max(t.0);
    }

    /// Feeds one connection-log entry (per-probe start-time order).
    pub fn push_connection(&mut self, e: &ConnectionLogEntry) {
        let Some(st) = self.probes.get_mut(&e.probe.0) else {
            self.stats.unknown_probe_rows += 1;
            return;
        };
        let (changes0, gaps0) = (st.machine.changes_len(), st.machine.gaps_len());
        st.machine.push(e, &self.snapshots);
        let now = (st.machine.class(), st.machine.multi_as());
        if now != st.counted {
            self.counts.tally(st.counted.0, st.counted.1, false);
            self.counts.tally(now.0, now.1, true);
            st.counted = now;
        }
        // Counts reset to zero when a probe settles out of the analyzable
        // funnel (heavy state dropped); only forward motion is tallied.
        self.stats.changes += st.machine.changes_len().saturating_sub(changes0) as u64;
        self.stats.gaps += st.machine.gaps_len().saturating_sub(gaps0) as u64;
        self.stats.connection_rows += 1;
        self.frontier(e.start);
    }

    /// Feeds one k-root ping record (per-probe time order).
    pub fn push_kroot(&mut self, r: &KrootPingRecord) {
        let Some(st) = self.probes.get_mut(&r.probe.0) else {
            self.stats.unknown_probe_rows += 1;
            return;
        };
        let before = st.outages.network_outages();
        st.outages.push_kroot(r);
        self.stats.network_outages += (st.outages.network_outages() - before) as u64;
        self.stats.kroot_rows += 1;
        self.frontier(r.timestamp);
    }

    /// Feeds one SOS-uptime record (per-probe time order).
    pub fn push_uptime(&mut self, r: &SosUptimeRecord) {
        let Some(st) = self.probes.get_mut(&r.probe.0) else {
            self.stats.unknown_probe_rows += 1;
            return;
        };
        if st.outages.push_uptime(r) {
            st.reboot_count += 1;
            self.stats.reboots += 1;
        }
        self.stats.uptime_rows += 1;
        self.frontier(r.timestamp);
    }

    /// Applies one replay step against its source dataset.
    pub fn apply(&mut self, ds: &AtlasDataset, row: ReplayRow) {
        match row {
            ReplayRow::Connection(i) => self.push_connection(&ds.connections[i]),
            ReplayRow::Kroot(i) => self.push_kroot(&ds.kroot[i]),
            ReplayRow::Uptime(i) => self.push_uptime(&ds.uptime[i]),
        }
    }

    /// Replays a whole dataset: all meta rows, then every record in arrival
    /// order. After this, [`seal`](Self::seal) matches the batch report.
    pub fn replay(&mut self, ds: &AtlasDataset) {
        for meta in &ds.meta {
            self.push_meta(meta);
        }
        for step in replay_plan(ds) {
            self.apply(ds, step.row);
        }
    }

    /// The rolling Table 2 funnel counts (provisional classes over the
    /// records seen so far; identical to the sealed counts once the stream
    /// is complete).
    pub fn rolling_counts(&self) -> &FilterCounts {
        &self.counts
    }

    /// The rolling ingest counters.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
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

    /// Seals a snapshot of the live state into the full report. The live
    /// state is untouched (machines are cloned to run their `finish`), so a
    /// daemon can keep ingesting afterwards. After a complete replay this
    /// is byte-identical to [`crate::pipeline::analyze`].
    pub fn seal(&self, cfg: &AnalysisConfig) -> AnalysisReport {
        let _sp = dynaddr_obs::span("live_seal");
        let states: Vec<(&u32, &ProbeState)> = self.probes.iter().collect();
        let verdicts = par_map(&states, |(_, st)| st.machine.clone().finish());
        let mut report = FilterReport::default();
        for ((id, _), (class, probe)) in states.iter().zip(verdicts) {
            report.push(**id, class, probe);
        }
        let outages =
            par_map(&report.probes, |p| self.probes[&p.probe().0].outages.clone().finish());
        let oa = finish_outages(&report.probes, outages, true);
        finish_analysis(report, oa, &self.snapshots, cfg)
    }
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
