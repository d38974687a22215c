//! The end-to-end analysis pipeline: dataset in, every table and figure out.
//!
//! [`analyze`] runs the paper's full methodology in order: the Table 2
//! filtering funnel, duration extraction, the geography and per-AS
//! total-time-fraction distributions (Figs. 1–3), periodic classification
//! (Table 5), hour-of-day synchronization (Figs. 4–5), outage detection with
//! firmware filtering (Fig. 6), conditional change probabilities
//! (Figs. 7–8, Table 6), duration-bucketed renumbering (Fig. 9), and the
//! prefix-change analysis (Table 7).
//!
//! The method is per probe except for one global step. The per-probe
//! kernel is the funnel's [`ProbeMachine`](crate::filtering::ProbeMachine)
//! over a probe's connections, then the outage machines over its k-root and
//! uptime rows. Only the §5.2 firmware filter needs every probe's reboots,
//! so one global finish follows the kernel: firmware series → strip →
//! power verdicts from the k-root brackets → association →
//! `finish_analysis`. Three drivers feed the kernel:
//!
//! * [`analyze`] runs it over the whole dataset as one batch;
//! * [`analyze_streamed_batched`] runs it over each [`DatasetStream`]
//!   batch, reading the store file once;
//! * [`crate::live::IncrementalAnalyzer`] runs it record by record.
//!
//! A batch gets two fan-outs: the funnel over its meta rows, then the
//! outage machines over its analyzable probes only.

use crate::assoc::{
    associate_network, associate_power, AssociatedOutage, CondProb, DurationBuckets,
    OutageKind,
};
use crate::filtering::{filter_probes, AnalyzableProbe, FilterCounts, FilterReport};
use crate::firmware::{reboot_series, strip_firmware_reboots, RebootSeries};
use crate::geo::{as_distributions, continent_distributions, country_as_distributions};
use crate::hourly::{peak_window_fraction, periodic_change_hours};
use crate::outages::{
    classify_bracket, DarkBracket, NetworkOutage, OutageMachines, PowerOutage, ProbeOutages,
    Reboot,
};
use crate::periodic::{table5, PeriodicConfig, Table5Row};
use crate::prefixes::{prefix_changes, Table7};
use crate::ttf::TtfCurve;
use dynaddr_atlas::logs::AtlasDataset;
use dynaddr_atlas::stream::{DatasetStream, DEFAULT_BATCH_PROBES};
use dynaddr_exec::{par_map, par_map_flat, par_run};
use dynaddr_ip2as::MonthlySnapshots;
use dynaddr_store::StoreError;
use dynaddr_types::{Asn, ProbeId};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Periodic-detection thresholds (Table 5).
    pub periodic: PeriodicConfig,
    /// Country for the Fig. 3 panel.
    pub fig3_country: String,
    /// Minimum total address time (years) for a Fig. 3 AS. The paper used 3
    /// years at full scale; scale proportionally for smaller worlds.
    pub fig3_min_years: f64,
    /// Number of ASes in the Fig. 2 / Fig. 7 / Fig. 8 panels.
    pub top_n_ases: usize,
    /// Minimum outages for a probe to yield a conditional probability.
    pub min_outages: usize,
    /// ASes (with expected period d) for the hour-of-day panels; defaults to
    /// Orange weekly and DTAG daily.
    pub hourly_panels: Vec<(u32, i64)>,
    /// ASes for the Fig. 9 duration-bucket panels; defaults to LGI & Orange.
    pub fig9_ases: Vec<u32>,
    /// Display names per ASN (cosmetic; unknown ASNs print as `AS<n>`).
    pub as_names: BTreeMap<u32, String>,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            periodic: PeriodicConfig::default(),
            fig3_country: "DE".to_string(),
            fig3_min_years: 0.3,
            top_n_ases: 5,
            min_outages: 3,
            hourly_panels: vec![(3215, 168), (3320, 24)],
            fig9_ases: vec![6830, 3215],
            as_names: BTreeMap::new(),
        }
    }
}

/// A rendered total-time-fraction distribution.
#[derive(Debug, Clone, Serialize)]
pub struct TtfSummary {
    /// Label (continent, AS name, …).
    pub label: String,
    /// Total address time in years (the legend numbers of Figs. 1–3).
    pub total_years: f64,
    /// Number of durations.
    pub n_durations: usize,
    /// CDF sampled at the paper's breakpoints `(hours, fraction ≤)`.
    pub curve: Vec<(f64, f64)>,
    /// Total time fraction at the 24-hour mode (±5%).
    pub mode_24h: f64,
    /// Total time fraction at the one-week mode (±5%).
    pub mode_168h: f64,
    /// Median duration in hours, by total-time weight.
    pub median_hours: f64,
}

impl TtfSummary {
    fn build(label: String, curve: TtfCurve) -> TtfSummary {
        let grid: Vec<f64> = log_grid();
        TtfSummary {
            label,
            total_years: curve.total_years(),
            n_durations: curve.count(),
            curve: curve.sampled_curve(&grid),
            mode_24h: curve.fraction_at_mode(24.0, 0.05),
            mode_168h: curve.fraction_at_mode(168.0, 0.05),
            median_hours: median_hours(&curve),
        }
    }
}

/// Median duration in hours, by total-time weight: the first curve step at
/// or past the 0.5 crossing. An empty distribution has no median and
/// reports 0.0. A non-empty curve whose accumulated fraction never reaches
/// 0.5 (possible only through floating-point round-off in the final step)
/// reports its last breakpoint rather than collapsing to zero.
fn median_hours(curve: &TtfCurve) -> f64 {
    let steps = curve.curve();
    let Some(last) = steps.last().copied() else {
        return 0.0;
    };
    steps
        .iter()
        .find(|(_, f)| *f >= 0.5)
        .map(|(h, _)| *h)
        .unwrap_or(last.0)
}

/// Log-spaced sampling grid from 15 minutes to two months, densified around
/// the paper's breakpoints.
fn log_grid() -> Vec<f64> {
    let mut grid: Vec<f64> = (0..64)
        .map(|i| 0.25 * (1_440.0f64 / 0.25).powf(i as f64 / 63.0))
        .collect();
    grid.extend(crate::ttf::paper_breakpoints_hours());
    grid.sort_by(|a, b| a.partial_cmp(b).expect("finite grid"));
    grid.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    grid
}

/// An hour-of-day panel (Fig. 4 / Fig. 5).
#[derive(Debug, Clone, Serialize)]
pub struct HourlyPanel {
    /// AS label.
    pub label: String,
    /// The ASN.
    pub asn: u32,
    /// The period whose span-ends are histogrammed.
    pub d_hours: i64,
    /// Changes per GMT hour.
    pub hist: [usize; 24],
    /// Fraction of changes in the densest 6-hour window.
    pub peak6h_fraction: f64,
}

/// One per-probe conditional-probability population (Fig. 7 / Fig. 8).
#[derive(Debug, Clone, Serialize)]
pub struct CondProbPanel {
    /// AS label.
    pub label: String,
    /// The ASN.
    pub asn: u32,
    /// Per-probe probabilities, sorted ascending (the CDF's x-values).
    pub probs: Vec<f64>,
}

impl CondProbPanel {
    /// Fraction of probes with probability ≥ `p`.
    pub fn fraction_ge(&self, p: f64) -> f64 {
        if self.probs.is_empty() {
            return 0.0;
        }
        let below = self.probs.partition_point(|&x| x < p);
        (self.probs.len() - below) as f64 / self.probs.len() as f64
    }
}

/// One Table 6 row.
#[derive(Debug, Clone, Serialize)]
pub struct Table6Row {
    /// ISP display name.
    pub name: String,
    /// The ASN (0 for the "All" row).
    pub asn: u32,
    /// Probes with ≥3 network and ≥3 power outages.
    pub n: usize,
    /// Percentage with P(ac|nw) > 0.8.
    pub pct_nw_gt08: f64,
    /// Percentage with P(ac|nw) = 1.
    pub pct_nw_eq1: f64,
    /// Percentage with P(ac|pw) > 0.8.
    pub pct_pw_gt08: f64,
    /// Percentage with P(ac|pw) = 1.
    pub pct_pw_eq1: f64,
}

/// The Fig. 6 reboot series.
#[derive(Debug, Clone, Serialize)]
pub struct FirmwarePanel {
    /// Unique rebooting probes per day of year.
    pub daily: Vec<usize>,
    /// Median daily count.
    pub median: f64,
    /// Detected update days (day-of-year).
    pub update_days: Vec<i64>,
}

/// A Fig. 9 panel.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9Panel {
    /// AS label.
    pub label: String,
    /// The ASN.
    pub asn: u32,
    /// Bucketed outages.
    pub buckets: DurationBuckets,
}

/// Everything the paper reports, as structured data.
#[derive(Debug, Clone, Serialize)]
pub struct AnalysisReport {
    /// Table 2.
    pub filter: FilterCounts,
    /// Fig. 1.
    pub fig1_continents: Vec<TtfSummary>,
    /// Fig. 2.
    pub fig2_top_ases: Vec<TtfSummary>,
    /// Fig. 3.
    pub fig3_country: Vec<TtfSummary>,
    /// Table 5.
    pub table5: Vec<Table5Row>,
    /// Figs. 4–5 (one per configured panel).
    pub hourly: Vec<HourlyPanel>,
    /// Fig. 6.
    pub firmware: FirmwarePanel,
    /// Fig. 7.
    pub fig7_network: Vec<CondProbPanel>,
    /// Fig. 8.
    pub fig8_power: Vec<CondProbPanel>,
    /// Table 6.
    pub table6: Vec<Table6Row>,
    /// Fig. 9.
    pub fig9: Vec<Fig9Panel>,
    /// Table 7.
    pub table7: Table7,
}

/// Per-probe outage analysis retained for downstream consumers (examples,
/// ablations, tests).
pub struct OutageAnalysis {
    /// Associated outages per probe (network + power).
    pub outages: Vec<AssociatedOutage>,
    /// Reboots after firmware filtering.
    pub reboots: Vec<Reboot>,
    /// The Fig. 6 series.
    pub firmware: FirmwarePanel,
}

/// Runs outage detection + association over the analyzable probes.
pub fn outage_analysis(
    dataset: &AtlasDataset,
    probes: &[AnalyzableProbe],
) -> OutageAnalysis {
    outage_analysis_opts(dataset, probes, true)
}

/// [`outage_analysis`] with the firmware spike filter switchable — the
/// `repro ablation-firmware` experiment quantifies what the filter buys.
pub fn outage_analysis_opts(
    dataset: &AtlasDataset,
    probes: &[AnalyzableProbe],
    filter_firmware: bool,
) -> OutageAnalysis {
    finish_outages(probes, probe_outages(dataset, probes), filter_firmware)
}

/// The kernel's second fan-out: the outage machines over each analyzable
/// probe's k-root and uptime rows in `batch`.
fn probe_outages(batch: &AtlasDataset, probes: &[AnalyzableProbe]) -> Vec<ProbeOutages> {
    par_map(probes, |p| OutageMachines::run(batch.kroot_of(p.probe()), batch.uptime_of(p.probe())))
}

/// Runs the complete pipeline.
pub fn analyze(
    dataset: &AtlasDataset,
    snapshots: &MonthlySnapshots,
    cfg: &AnalysisConfig,
) -> AnalysisReport {
    let _sp = dynaddr_obs::span("analyze");
    // ----- Filtering (Table 2) -------------------------------------------
    let report = {
        let _sp = dynaddr_obs::span("filter_probes");
        filter_probes(dataset, snapshots)
    };
    // ----- Outage detection (the only other dataset consumer) ------------
    let oa = {
        let _sp = dynaddr_obs::span("outage_analysis");
        outage_analysis(dataset, &report.probes)
    };
    finish_analysis(report, oa, snapshots, cfg)
}

/// [`analyze`] over a `dataset.store` file, one probe batch at a time, in
/// one pass over the file.
///
/// Only the per-probe kernel reads raw logs, and it needs nothing global,
/// so each batch of whole probes runs the same two fan-outs [`analyze`]
/// runs over the whole dataset: the funnel classifies the batch's probes,
/// then the outage machines run over its analyzable ones. The batch is
/// dropped after that. The global finish (firmware series, strip, power
/// verdicts, association) and everything downstream then run exactly as
/// in [`analyze`], so the report is byte-identical to the materialized
/// path's. Peak memory is the analyzable probes and their outage-machine
/// output plus one batch, not the dataset.
pub fn analyze_streamed(
    path: &Path,
    snapshots: &MonthlySnapshots,
    cfg: &AnalysisConfig,
) -> Result<AnalysisReport, StoreError> {
    analyze_streamed_batched(path, snapshots, cfg, DEFAULT_BATCH_PROBES)
}

/// [`analyze_streamed`] with an explicit batch size (probes per batch).
pub fn analyze_streamed_batched(
    path: &Path,
    snapshots: &MonthlySnapshots,
    cfg: &AnalysisConfig,
    batch_probes: usize,
) -> Result<AnalysisReport, StoreError> {
    let _sp = dynaddr_obs::span("analyze_streamed");
    let mut stream = DatasetStream::with_batch_probes(path, batch_probes)?;
    let progress = dynaddr_obs::Progress::start("analyze_streamed", stream.total_probes());
    let mut report = FilterReport::default();
    let mut outages = Vec::new();
    while let Some(batch) = stream.next_batch()? {
        let fresh = report.probes.len();
        report.push_batch(&batch, snapshots);
        outages.extend(probe_outages(&batch, &report.probes[fresh..]));
        progress.add(batch.meta.len() as u64);
    }
    progress.finish();
    let oa = finish_outages(&report.probes, outages, true);
    Ok(finish_analysis(report, oa, snapshots, cfg))
}

/// The global finish of the outage side, shared by every driver: the
/// Fig. 6 series over all analyzable probes' reboots, the firmware strip
/// (unless the ablation turns it off), the power verdicts from each
/// probe's brackets, and gap association. `per_probe` is parallel to
/// `probes`.
pub(crate) fn finish_outages(
    probes: &[AnalyzableProbe],
    per_probe: Vec<ProbeOutages>,
    filter_firmware: bool,
) -> OutageAnalysis {
    let all_reboots: Vec<Reboot> =
        per_probe.iter().flat_map(|o| o.brackets.iter().map(|(r, _)| *r)).collect();
    let RebootSeries { daily_unique_probes, median, update_days } = reboot_series(&all_reboots);
    let cleaned = if filter_firmware {
        strip_firmware_reboots(&all_reboots, &update_days)
    } else {
        all_reboots
    };
    let firmware = FirmwarePanel { daily: daily_unique_probes, median, update_days };

    let mut by_probe: BTreeMap<u32, Vec<Reboot>> = BTreeMap::new();
    for r in &cleaned {
        by_probe.entry(r.probe.0).or_default().push(*r);
    }
    let zipped: Vec<(&AnalyzableProbe, ProbeOutages)> = probes.iter().zip(per_probe).collect();
    let outages = par_map_flat(&zipped, |(p, o)| {
        let mut found = associate_network(&p.events.gaps, &o.network);
        // Power analysis only on hardware with reliable uptime counters.
        if p.meta.version.reliable_uptime() {
            let reboots = by_probe.get(&p.probe().0).map(|v| v.as_slice()).unwrap_or(&[]);
            let power = power_from_brackets(reboots, &o.brackets, &o.network);
            found.extend(associate_power(&p.events.gaps, &power));
        }
        found
    });
    OutageAnalysis { outages, reboots: cleaned, firmware }
}

/// The power-outage verdicts for a firmware-cleaned reboot subsequence,
/// from the probe's resolved brackets. `pairs` holds every detected reboot
/// of the probe in order with its bracket, and `cleaned` is a subsequence
/// of those reboots; a bracket depends only on its own boot instant and
/// the k-root timestamps, so this matches `detect_power_outages` over
/// `cleaned` and the probe's k-root rows.
fn power_from_brackets(
    cleaned: &[Reboot],
    pairs: &[(Reboot, DarkBracket)],
    network: &[NetworkOutage],
) -> Vec<PowerOutage> {
    let mut out = Vec::new();
    let mut j = 0usize;
    for r in cleaned {
        while j < pairs.len() && pairs[j].0 != *r {
            j += 1;
        }
        let Some((_, bracket)) = pairs.get(j) else {
            debug_assert!(false, "cleaned reboot missing from bracket list");
            break;
        };
        if let Some(p) = classify_bracket(r, *bracket, network) {
            out.push(p);
        }
        j += 1;
    }
    out
}

/// Everything downstream of the per-probe kernel and the outage finish:
/// turns the filter report and outage analysis into the full
/// [`AnalysisReport`]. Shared verbatim by [`analyze`], [`analyze_streamed`],
/// and the live analyzer's seal
/// ([`crate::live::IncrementalAnalyzer::seal`]).
pub(crate) fn finish_analysis(
    report: FilterReport,
    oa: OutageAnalysis,
    snapshots: &MonthlySnapshots,
    cfg: &AnalysisConfig,
) -> AnalysisReport {
    let _sp = dynaddr_obs::span("finish_analysis");
    let name_of = |asn: u32| {
        cfg.as_names
            .get(&asn)
            .cloned()
            .unwrap_or_else(|| format!("AS{asn}"))
    };
    let probes = &report.probes;

    // ----- Durations & TTF (Figs. 1–3) ------------------------------------
    // The three panels read the same probe set but share no state; each gets
    // its own scoped thread when the executor allows it.
    let ttf_tasks: Vec<Box<dyn FnOnce() -> Vec<TtfSummary> + Send + '_>> = vec![
        Box::new(|| {
            continent_distributions(probes)
                .into_iter()
                .map(|(c, d)| TtfSummary::build(c.to_string(), d))
                .collect()
        }),
        Box::new(|| {
            as_distributions(probes, cfg.top_n_ases)
                .into_iter()
                .map(|(asn, d, n)| {
                    TtfSummary::build(format!("{} ({} probes)", name_of(asn.0), n), d)
                })
                .collect()
        }),
        Box::new(|| {
            country_as_distributions(probes, &cfg.fig3_country, cfg.fig3_min_years)
                .into_iter()
                .map(|(asn, d)| TtfSummary::build(name_of(asn.0), d))
                .collect()
        }),
    ];
    let mut ttf_panels = par_run(ttf_tasks).into_iter();
    let fig1_continents = ttf_panels.next().expect("three TTF panels");
    let fig2_top_ases = ttf_panels.next().expect("three TTF panels");
    let fig3_country = ttf_panels.next().expect("three TTF panels");

    // ----- Periodic classification (Table 5) -------------------------------
    let (table5_rows, _verdicts) = table5(probes, &cfg.as_names, &cfg.periodic);

    // ----- Hour-of-day (Figs. 4–5) ----------------------------------------
    let hourly = cfg
        .hourly_panels
        .iter()
        .map(|&(asn, d)| {
            let hist = periodic_change_hours(probes, Asn(asn), d, cfg.periodic.tolerance);
            HourlyPanel {
                label: name_of(asn),
                asn,
                d_hours: d,
                peak6h_fraction: peak_window_fraction(&hist),
                hist,
            }
        })
        .collect();

    // ----- Outages (Figs. 6–9, Table 6) ------------------------------------
    // Per-probe conditional probabilities over the AS-level population.
    struct ProbeCp {
        asn: u32,
        changed_once: bool,
        nw: crate::assoc::CondProb,
        pw: crate::assoc::CondProb,
        v3: bool,
    }
    // One grouping pass over the outages; scanning the global list per
    // probe (as `cond_prob` does) is O(probes × outages) and dominated
    // analyze beyond 10× paper scale.
    let mut cp_counts: BTreeMap<u32, [(usize, usize); 2]> = BTreeMap::new();
    for o in &oa.outages {
        let slot = &mut cp_counts.entry(o.probe.0).or_insert([(0, 0); 2])
            [(o.kind == OutageKind::Power) as usize];
        slot.0 += 1;
        slot.1 += o.address_changed as usize;
    }
    let mut probe_cps: Vec<ProbeCp> = Vec::new();
    for p in probes {
        if p.multi_as {
            continue;
        }
        let id: ProbeId = p.probe();
        let [nw, pw] = cp_counts.get(&id.0).copied().unwrap_or([(0, 0); 2]);
        probe_cps.push(ProbeCp {
            asn: p.primary_asn.0,
            changed_once: !p.events.changes.is_empty(),
            nw: CondProb { probe: id, outages: nw.0, changed: nw.1 },
            pw: CondProb { probe: id, outages: pw.0, changed: pw.1 },
            v3: p.meta.version.reliable_uptime(),
        });
    }

    // Fig. 7/8 panels for the top ASes by qualifying probe count.
    let panel_for = |kind: OutageKind| -> Vec<CondProbPanel> {
        let mut per_as: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for cp in &probe_cps {
            let (count, p) = match kind {
                OutageKind::Network => (cp.nw.outages, cp.nw.p()),
                OutageKind::Power => {
                    if !cp.v3 {
                        continue;
                    }
                    (cp.pw.outages, cp.pw.p())
                }
            };
            if cp.changed_once && count >= cfg.min_outages {
                per_as.entry(cp.asn).or_default().push(p);
            }
        }
        let mut order: Vec<(u32, usize)> =
            per_as.iter().map(|(a, v)| (*a, v.len())).collect();
        order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        order
            .into_iter()
            .take(cfg.top_n_ases)
            .map(|(asn, n)| {
                let mut probs = per_as.remove(&asn).expect("present");
                probs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                CondProbPanel { label: format!("{} ({n})", name_of(asn)), asn, probs }
            })
            .collect()
    };
    let fig7_network = panel_for(OutageKind::Network);
    let fig8_power = panel_for(OutageKind::Power);

    // Table 6: probes with ≥min outages of BOTH kinds (v3 only, since the
    // power side requires it).
    let mut t6_groups: BTreeMap<u32, Vec<&ProbeCp>> = BTreeMap::new();
    let mut t6_all: Vec<&ProbeCp> = Vec::new();
    for cp in &probe_cps {
        if cp.v3 && cp.nw.outages >= cfg.min_outages && cp.pw.outages >= cfg.min_outages {
            t6_groups.entry(cp.asn).or_default().push(cp);
            t6_all.push(cp);
        }
    }
    let pctf = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            100.0 * num as f64 / den as f64
        }
    };
    let row_from = |name: String, asn: u32, group: &[&ProbeCp]| {
        let n = group.len();
        Table6Row {
            name,
            asn,
            n,
            pct_nw_gt08: pctf(group.iter().filter(|c| c.nw.p() > 0.8).count(), n),
            pct_nw_eq1: pctf(
                group.iter().filter(|c| c.nw.changed == c.nw.outages).count(),
                n,
            ),
            pct_pw_gt08: pctf(group.iter().filter(|c| c.pw.p() > 0.8).count(), n),
            pct_pw_eq1: pctf(
                group.iter().filter(|c| c.pw.changed == c.pw.outages).count(),
                n,
            ),
        }
    };
    let mut table6 = vec![row_from("All".to_string(), 0, &t6_all)];
    let mut as_rows: Vec<Table6Row> = t6_groups
        .iter()
        .filter(|(_, g)| g.iter().filter(|c| c.nw.p() > 0.8).count() >= 5)
        .map(|(asn, g)| row_from(name_of(*asn), *asn, g))
        .collect();
    as_rows.sort_by(|a, b| b.n.cmp(&a.n).then(a.asn.cmp(&b.asn)));
    table6.extend(as_rows);

    // Fig. 9 panels.
    let asn_of_probe: BTreeMap<u32, u32> = probes
        .iter()
        .filter(|p| !p.multi_as)
        .map(|p| (p.probe().0, p.primary_asn.0))
        .collect();
    let fig9 = cfg
        .fig9_ases
        .iter()
        .map(|&asn| {
            let of_as: Vec<AssociatedOutage> = oa
                .outages
                .iter()
                .filter(|o| asn_of_probe.get(&o.probe.0) == Some(&asn))
                .copied()
                .collect();
            Fig9Panel { label: name_of(asn), asn, buckets: DurationBuckets::build(&of_as) }
        })
        .collect();

    // ----- Prefix changes (Table 7) -----------------------------------------
    let table7 = prefix_changes(probes, snapshots);

    AnalysisReport {
        filter: report.counts,
        fig1_continents,
        fig2_top_ases,
        fig3_country,
        table5: table5_rows,
        hourly,
        firmware: oa.firmware,
        fig7_network,
        fig8_power,
        table6,
        fig9,
        table7,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaddr_atlas::world::{paper_route_tables, paper_world};

    /// A smoke test over a very small simulated world: the pipeline must run
    /// end to end and produce populated sections. Heavier shape assertions
    /// live in the workspace integration tests.
    #[test]
    fn pipeline_runs_on_small_world() {
        let world = paper_world(0.03, 7);
        let out = dynaddr_atlas::simulate(&world);
        let snaps = paper_route_tables(&world);
        let mut cfg = AnalysisConfig { fig3_min_years: 0.05, ..AnalysisConfig::default() };
        for (asn, policy) in &out.truth.isp_policies {
            cfg.as_names.insert(*asn, policy.name.clone());
        }
        let report = analyze(&out.dataset, &snaps, &cfg);

        assert!(report.filter.total > 200, "total {}", report.filter.total);
        assert!(report.filter.analyzable_geo > 100);
        assert!(!report.fig1_continents.is_empty());
        assert!(!report.fig2_top_ases.is_empty());
        assert!(!report.table5.is_empty(), "periodic ISPs must be detected");
        assert!(report.table7.overall.changes > 1_000);
        assert_eq!(report.hourly.len(), 2);
        assert_eq!(report.fig9.len(), 2);
        // Firmware spikes: five updates were pushed.
        assert!(
            !report.firmware.update_days.is_empty(),
            "firmware spikes must be detected"
        );
    }
}
