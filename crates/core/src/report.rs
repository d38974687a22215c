//! Text rendering of the analysis report: aligned tables and ASCII curves,
//! one renderer per paper table/figure. The `repro` harness prints these.

use crate::assoc::DURATION_BUCKETS;
use crate::pipeline::{
    AnalysisReport, CondProbPanel, Fig9Panel, FirmwarePanel, HourlyPanel, TtfSummary,
};
use crate::prefixes::Table7;
use crate::ttf::paper_breakpoints_hours;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Renders a simple aligned table: `header` row plus `rows`.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{cell:>width$}", width = widths[i]);
        }
        out.push('\n');
    };
    fmt_row(
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
        &mut out,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        fmt_row(row, &widths, &mut out);
    }
    out
}

fn fmt_pct(v: f64) -> String {
    format!("{v:.0}%")
}

/// Table 2: the filtering funnel.
pub fn render_table2(r: &AnalysisReport) -> String {
    let f = &r.filter;
    let rows = vec![
        vec!["Total Probes".into(), f.total.to_string()],
        vec!["  Never changed".into(), f.never_changed.to_string()],
        vec!["  Dual Stack".into(), f.dual_stack.to_string()],
        vec!["  IPv6".into(), f.ipv6_only.to_string()],
        vec![
            "  Multihomed/Core/Datacenter (tags)".into(),
            f.tagged.to_string(),
        ],
        vec![
            "  Multihomed (alternating addresses)".into(),
            f.multihomed.to_string(),
        ],
        vec![
            "  Only change from 193.0.0.78".into(),
            f.testing_only.to_string(),
        ],
        vec![
            "Analyzable (geography)".into(),
            f.analyzable_geo.to_string(),
        ],
        vec!["  Multiple ASes".into(), f.multi_as.to_string()],
        vec!["Analyzable (AS-level)".into(), f.analyzable_as.to_string()],
    ];
    format!(
        "Table 2: probe filtering funnel\n{}",
        render_table(&["Category", "Probes"], &rows)
    )
}

/// A Fig. 1/2/3-style panel: one row per curve, sampled at the paper's
/// breakpoints, with total years and the 24 h / 1 w mode masses.
pub fn render_ttf_panel(title: &str, summaries: &[TtfSummary]) -> String {
    let breaks = paper_breakpoints_hours();
    let labels = ["1h", "6h", "12h", "1d", "3d", "1w", "2w", "1mo", "2mo"];
    let mut header: Vec<&str> = vec!["series", "years", "n"];
    header.extend(labels.iter());
    header.extend(["@24h", "@1w"].iter());
    let rows: Vec<Vec<String>> = summaries
        .iter()
        .map(|s| {
            let mut row = vec![
                s.label.clone(),
                format!("{:.1}", s.total_years),
                s.n_durations.to_string(),
            ];
            for &b in &breaks {
                let frac = s
                    .curve
                    .iter()
                    .take_while(|(h, _)| *h <= b + 1e-9)
                    .last()
                    .map(|(_, f)| *f)
                    .unwrap_or(0.0);
                row.push(format!("{frac:.2}"));
            }
            row.push(format!("{:.2}", s.mode_24h));
            row.push(format!("{:.2}", s.mode_168h));
            row
        })
        .collect();
    format!("{title}\n{}", render_table(&header, &rows))
}

/// Table 5: periodic ASes.
pub fn render_table5(r: &AnalysisReport) -> String {
    let rows: Vec<Vec<String>> = r
        .table5
        .iter()
        .map(|row| {
            vec![
                row.name.clone(),
                if row.asn == 0 {
                    String::new()
                } else {
                    row.asn.to_string()
                },
                row.d_hours.to_string(),
                row.n.to_string(),
                row.fp25.to_string(),
                fmt_pct(row.pct_fp50),
                fmt_pct(row.pct_fp75),
                fmt_pct(row.pct_max_le_d),
                fmt_pct(row.pct_harmonic),
            ]
        })
        .collect();
    format!(
        "Table 5: periodically renumbering ASes\n{}",
        render_table(
            &["AS", "ASN", "d", "N", "f>0.25", "f>0.5", "f>0.75", "MAX<=d", "Harmonic"],
            &rows,
        )
    )
}

/// Fig. 4/5: hour-of-day histogram, rendered as a bar chart.
pub fn render_hourly(panel: &HourlyPanel) -> String {
    let max = panel.hist.iter().copied().max().unwrap_or(0).max(1);
    let mut out = format!(
        "Hour-of-day of periodic changes — {} (d = {} h), peak 6h window holds {:.0}%\n",
        panel.label,
        panel.d_hours,
        100.0 * panel.peak6h_fraction
    );
    for (h, &count) in panel.hist.iter().enumerate() {
        let bar = "#".repeat((count * 50).div_ceil(max));
        let _ = writeln!(out, "{h:>2}h {count:>6} {bar}");
    }
    out
}

/// Fig. 6: reboots per day with detected firmware-update days.
pub fn render_firmware(panel: &FirmwarePanel) -> String {
    let mut out = format!(
        "Fig 6: unique rebooting probes per day (median {:.0}); detected update days: {:?}\n",
        panel.median, panel.update_days
    );
    // Render the weekly maxima to keep the chart compact.
    let max = panel.daily.iter().copied().max().unwrap_or(0).max(1);
    for week in 0..52 {
        let lo = week * 7;
        let hi = (lo + 7).min(panel.daily.len());
        if lo >= panel.daily.len() {
            break;
        }
        let peak = panel.daily[lo..hi].iter().copied().max().unwrap_or(0);
        let bar = "#".repeat((peak * 50).div_ceil(max));
        let marker = if panel
            .update_days
            .iter()
            .any(|d| (*d as usize) >= lo && (*d as usize) < hi)
        {
            " <= update"
        } else {
            ""
        };
        let _ = writeln!(out, "wk{week:>2} {peak:>5} {bar}{marker}");
    }
    out
}

/// Fig. 7/8: per-probe P(ac|outage) CDF summary.
pub fn render_condprob(title: &str, panels: &[CondProbPanel]) -> String {
    let rows: Vec<Vec<String>> = panels
        .iter()
        .map(|p| {
            let n = p.probs.len().max(1);
            let med = p.probs.get(p.probs.len() / 2).copied().unwrap_or(0.0);
            vec![
                p.label.clone(),
                p.probs.len().to_string(),
                format!("{med:.2}"),
                format!("{:.0}%", 100.0 * p.fraction_ge(0.8)),
                format!(
                    "{:.0}%",
                    100.0 * p.probs.iter().filter(|&&x| x >= 1.0).count() as f64 / n as f64
                ),
            ]
        })
        .collect();
    format!(
        "{title}\n{}",
        render_table(&["AS (probes)", "n", "median P", "P>=0.8", "P=1"], &rows)
    )
}

/// Table 6: outage-renumbering ASes.
pub fn render_table6(r: &AnalysisReport) -> String {
    let rows: Vec<Vec<String>> = r
        .table6
        .iter()
        .map(|row| {
            vec![
                row.name.clone(),
                if row.asn == 0 {
                    String::new()
                } else {
                    row.asn.to_string()
                },
                row.n.to_string(),
                fmt_pct(row.pct_nw_gt08),
                fmt_pct(row.pct_nw_eq1),
                fmt_pct(row.pct_pw_gt08),
                fmt_pct(row.pct_pw_eq1),
            ]
        })
        .collect();
    format!(
        "Table 6: probability of address change upon outages\n{}",
        render_table(
            &[
                "AS",
                "ASN",
                "N",
                "P(ac|nw)>0.8",
                "P(ac|nw)=1",
                "P(ac|pw)>0.8",
                "P(ac|pw)=1"
            ],
            &rows,
        )
    )
}

/// Fig. 9: renumbering by outage duration for one AS.
pub fn render_fig9(panel: &Fig9Panel) -> String {
    let mut rows = Vec::new();
    let pcts = panel.buckets.percentages();
    for (i, (label, _, _)) in DURATION_BUCKETS.iter().enumerate() {
        rows.push(vec![
            label.to_string(),
            panel.buckets.total[i].to_string(),
            panel.buckets.renumbered[i].to_string(),
            pcts[i]
                .map(|p| format!("{p:.0}%"))
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    format!(
        "Fig 9 panel — {}: renumbering by outage duration\n{}",
        panel.label,
        render_table(&["duration", "outages", "renumbered", "%"], &rows)
    )
}

/// Table 7: prefix changes.
pub fn render_table7(r: &AnalysisReport, names: &BTreeMap<u32, String>) -> String {
    let t: &Table7 = &r.table7;
    let mut rows = vec![vec![
        "All".to_string(),
        String::new(),
        t.overall.changes.to_string(),
        format!("{} ({:.1}%)", t.overall.diff_bgp, t.overall.pct_bgp()),
        format!("{} ({:.1}%)", t.overall.diff_16, t.overall.pct_16()),
        format!("{} ({:.1}%)", t.overall.diff_8, t.overall.pct_8()),
    ]];
    let mut per_as: Vec<(&u32, &crate::prefixes::PrefixChangeCounts)> = t.per_as.iter().collect();
    per_as.sort_by_key(|(_, c)| std::cmp::Reverse(c.changes));
    for (asn, c) in per_as.into_iter().take(12) {
        rows.push(vec![
            names
                .get(asn)
                .cloned()
                .unwrap_or_else(|| format!("AS{asn}")),
            asn.to_string(),
            c.changes.to_string(),
            format!("{} ({:.1}%)", c.diff_bgp, c.pct_bgp()),
            format!("{} ({:.1}%)", c.diff_16, c.pct_16()),
            format!("{} ({:.1}%)", c.diff_8, c.pct_8()),
        ]);
    }
    format!(
        "Table 7: address changes across prefixes\n{}",
        render_table(
            &["AS", "ASN", "Changes", "Diff BGP", "Diff /16", "Diff /8"],
            &rows
        )
    )
}

/// The complete report, every table and figure in paper order.
pub fn render_full(r: &AnalysisReport, names: &BTreeMap<u32, String>) -> String {
    let mut out = String::new();
    out.push_str(&render_table2(r));
    out.push('\n');
    out.push_str(&render_ttf_panel(
        "Fig 1: total time fraction by continent",
        &r.fig1_continents,
    ));
    out.push('\n');
    out.push_str(&render_ttf_panel("Fig 2: top ASes", &r.fig2_top_ases));
    out.push('\n');
    out.push_str(&render_ttf_panel("Fig 3: German ASes", &r.fig3_country));
    out.push('\n');
    out.push_str(&render_table5(r));
    out.push('\n');
    for panel in &r.hourly {
        out.push_str(&render_hourly(panel));
        out.push('\n');
    }
    out.push_str(&render_firmware(&r.firmware));
    out.push('\n');
    out.push_str(&render_condprob(
        "Fig 7: P(address change | network outage) per probe",
        &r.fig7_network,
    ));
    out.push('\n');
    out.push_str(&render_condprob(
        "Fig 8: P(address change | power outage) per probe (v3 only)",
        &r.fig8_power,
    ));
    out.push('\n');
    out.push_str(&render_table6(r));
    out.push('\n');
    for panel in &r.fig9 {
        out.push_str(&render_fig9(panel));
        out.push('\n');
    }
    out.push_str(&render_table7(r, names));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["a", "bb"],
            &[
                vec!["1".into(), "2".into()],
                vec!["10".into(), "20000".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("a"));
        assert!(lines[1].starts_with('-'));
        // All rows equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn fig9_renders_dashes_for_empty_buckets() {
        let panel = Fig9Panel {
            label: "LGI".to_string(),
            asn: 6830,
            buckets: crate::assoc::DurationBuckets {
                total: [0; 12],
                renumbered: [0; 12],
            },
        };
        let s = render_fig9(&panel);
        assert!(s.contains('-'));
        assert!(s.contains("<5m"));
        assert!(s.contains(">1w"));
    }

    #[test]
    fn hourly_renders_24_rows() {
        let panel = HourlyPanel {
            label: "DTAG".to_string(),
            asn: 3320,
            d_hours: 24,
            hist: [5; 24],
            peak6h_fraction: 0.25,
        };
        let s = render_hourly(&panel);
        assert_eq!(s.lines().count(), 25);
    }
}
