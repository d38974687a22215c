//! Integration tests asserting the *qualitative shapes* of every table and
//! figure — the reproduction criteria of EXPERIMENTS.md. Absolute numbers
//! are world-scale-dependent; who wins, by roughly what factor, and where
//! the crossovers fall must match the paper.

mod common;

use common::harness;
use dynaddr::analysis::report;

// ---------------------------------------------------------------------------
// Table 2 — the filtering funnel
// ---------------------------------------------------------------------------

#[test]
fn table2_funnel_proportions() {
    let f = &harness().report.filter;
    // Partition property.
    assert_eq!(
        f.never_changed
            + f.dual_stack
            + f.ipv6_only
            + f.tagged
            + f.multihomed
            + f.testing_only
            + f.analyzable_geo,
        f.total
    );
    assert_eq!(f.analyzable_geo, f.analyzable_as + f.multi_as);
    // Paper proportions (of 10,977): dual-stack ≈ 34%, never ≈ 28%,
    // analyzable-geo ≈ 28%, v6-only ≈ 2%. Allow generous slack.
    let frac = |n: usize| n as f64 / f.total as f64;
    assert!(
        (0.25..0.45).contains(&frac(f.dual_stack)),
        "dual {}",
        frac(f.dual_stack)
    );
    assert!(
        (0.20..0.45).contains(&frac(f.never_changed)),
        "never {}",
        frac(f.never_changed)
    );
    assert!(
        (0.15..0.40).contains(&frac(f.analyzable_geo)),
        "geo {}",
        frac(f.analyzable_geo)
    );
    assert!(frac(f.ipv6_only) < 0.05);
    // Multi-AS probes are a strict minority of analyzable probes but exist.
    assert!(f.multi_as > 0 && f.multi_as < f.analyzable_geo / 2);
}

// ---------------------------------------------------------------------------
// Fig. 1 — geography
// ---------------------------------------------------------------------------

fn continent<'a>(code: &str) -> &'a dynaddr::analysis::pipeline::TtfSummary {
    harness()
        .report
        .fig1_continents
        .iter()
        .find(|s| s.label == code)
        .unwrap_or_else(|| panic!("continent {code} missing"))
}

#[test]
fn fig1_europe_has_daily_and_weekly_modes() {
    let eu = continent("EU");
    assert!(eu.mode_24h > 0.10, "EU 24h mode {}", eu.mode_24h);
    assert!(eu.mode_168h > 0.04, "EU 1w mode {}", eu.mode_168h);
}

#[test]
fn fig1_north_america_is_long_lived_and_modeless() {
    let na = continent("NA");
    let eu = continent("EU");
    assert!(na.mode_24h < 0.05, "NA 24h mode {}", na.mode_24h);
    // Paper: NA spent more than half its time in durations > 50 days.
    let le_50d = na
        .curve
        .iter()
        .take_while(|(h, _)| *h <= 50.0 * 24.0)
        .last()
        .map(|(_, f)| *f)
        .unwrap_or(0.0);
    assert!(le_50d < 0.5, "NA fraction ≤ 50d is {le_50d}");
    // And much longer-lived than Europe at the one-week mark.
    let at_1w = |s: &dynaddr::analysis::pipeline::TtfSummary| {
        s.curve
            .iter()
            .take_while(|(h, _)| *h <= 168.0 + 1e-9)
            .last()
            .map(|(_, f)| *f)
            .unwrap_or(0.0)
    };
    assert!(
        at_1w(eu) > 3.0 * at_1w(na),
        "EU {} vs NA {}",
        at_1w(eu),
        at_1w(na)
    );
}

#[test]
fn fig1_africa_has_pronounced_daily_mode() {
    let af = continent("AF");
    assert!(af.mode_24h > 0.10, "AF 24h mode {}", af.mode_24h);
}

#[test]
fn fig1_south_america_has_multiple_modes() {
    let sa = continent("SA");
    // Paper: modes at 12 h (0.11), 28 h, 48 h, 192 h — and notably weak at
    // exactly 24 h compared to other continents.
    let twelve = sa
        .curve
        .iter()
        .take_while(|(h, _)| *h <= 12.6)
        .last()
        .map(|(_, f)| *f)
        .unwrap_or(0.0);
    assert!(twelve > 0.08, "SA 12h mass {twelve}");
    assert!(sa.mode_24h < 0.10, "SA 24h mode {}", sa.mode_24h);
}

// ---------------------------------------------------------------------------
// Figs. 2–3 — per-AS distributions
// ---------------------------------------------------------------------------

#[test]
fn fig2_top_ases_include_contrasting_regimes() {
    let r = &harness().report;
    assert!(r.fig2_top_ases.len() >= 4);
    // At least one strongly daily AS and one modeless long-lived AS.
    assert!(
        r.fig2_top_ases.iter().any(|s| s.mode_24h > 0.5),
        "a DTAG-like series must exist"
    );
    assert!(
        r.fig2_top_ases
            .iter()
            .any(|s| s.mode_24h < 0.05 && s.median_hours > 24.0 * 7.0),
        "an LGI/Verizon-like series must exist: {:?}",
        r.fig2_top_ases
            .iter()
            .map(|s| (&s.label, s.mode_24h, s.median_hours))
            .collect::<Vec<_>>()
    );
}

#[test]
fn fig3_germany_mixes_daily_and_stable_isps() {
    let de = &harness().report.fig3_country;
    assert!(de.len() >= 2, "need several German ASes, got {}", de.len());
    assert!(
        de.iter().any(|s| s.mode_24h > 0.5),
        "German daily renumberers must dominate some AS"
    );
}

// ---------------------------------------------------------------------------
// Table 5 — periodic ISPs
// ---------------------------------------------------------------------------

#[test]
fn table5_detects_the_flagship_periods() {
    let rows = &harness().report.table5;
    let d_of = |asn: u32| rows.iter().find(|r| r.asn == asn).map(|r| r.d_hours);
    assert_eq!(d_of(3215), Some(168), "Orange renumbers weekly");
    assert_eq!(d_of(3320), Some(24), "DTAG renumbers daily");
    assert_eq!(d_of(6057), Some(12), "ANTEL renumbers twice a day");
    assert_eq!(d_of(18881), Some(48), "GVT renumbers every two days");
    assert_eq!(d_of(6830), None, "LGI must not appear periodic");
    assert_eq!(d_of(701), None, "Verizon must not appear periodic");
    assert_eq!(
        d_of(31334),
        None,
        "Kabel Deutschland must not appear periodic"
    );
}

#[test]
fn table5_all_rows_exist_and_24h_dominates() {
    let rows = &harness().report.table5;
    let all24 = rows
        .iter()
        .find(|r| r.name == "All" && r.d_hours == 24)
        .expect("All@24h");
    let all168 = rows
        .iter()
        .find(|r| r.name == "All" && r.d_hours == 168)
        .expect("All@168h");
    assert!(
        all24.fp25 > all168.fp25,
        "daily renumbering is the most common period"
    );
    // Paper: 8.5% of AS-level probes at 24 h, 5.4% at one week.
    let f24 = all24.fp25 as f64 / all24.n as f64;
    let f168 = all168.fp25 as f64 / all168.n as f64;
    assert!((0.05..0.75).contains(&f24), "24h periodic fraction {f24}");
    assert!(
        (0.02..0.40).contains(&f168),
        "168h periodic fraction {f168}"
    );
    // Weekly plans are overwhelmingly harmonic/bounded (paper: 94–98%).
    assert!(all168.pct_max_le_d > 70.0);
    assert!(all168.pct_harmonic > 80.0);
}

#[test]
fn table5_gvt_overruns_are_not_harmonic() {
    let rows = &harness().report.table5;
    let gvt = rows.iter().find(|r| r.asn == 18881).expect("GVT row");
    assert!(gvt.pct_max_le_d < 30.0, "GVT probes overrun the cap");
    assert!(
        gvt.pct_harmonic < 40.0,
        "GVT overruns are not multiples of d"
    );
    // Contrast with an orderly daily ISP.
    let dtag = rows.iter().find(|r| r.asn == 3320).expect("DTAG row");
    assert!(dtag.pct_harmonic > 60.0);
}

// ---------------------------------------------------------------------------
// Figs. 4–5 — synchronization
// ---------------------------------------------------------------------------

#[test]
fn fig4_fig5_orange_free_runs_dtag_synchronizes() {
    let hourly = &harness().report.hourly;
    let orange = hourly.iter().find(|h| h.asn == 3215).expect("Orange panel");
    let dtag = hourly.iter().find(|h| h.asn == 3320).expect("DTAG panel");
    assert!(orange.hist.iter().sum::<usize>() > 100);
    assert!(dtag.hist.iter().sum::<usize>() > 300);
    // Orange: roughly uniform (peak 6h window near 0.25); DTAG: most
    // changes between 00:00 and 06:00 GMT (paper: almost three quarters).
    assert!(
        orange.peak6h_fraction < 0.45,
        "Orange peak {}",
        orange.peak6h_fraction
    );
    assert!(
        dtag.peak6h_fraction > 0.55,
        "DTAG peak {}",
        dtag.peak6h_fraction
    );
    let night: usize = dtag.hist[0..6].iter().sum();
    let total: usize = dtag.hist.iter().sum();
    assert!(
        night as f64 / total as f64 > 0.5,
        "DTAG night-window fraction {}",
        night as f64 / total as f64
    );
}

// ---------------------------------------------------------------------------
// Fig. 6 — firmware spikes
// ---------------------------------------------------------------------------

#[test]
fn fig6_firmware_spikes_land_on_push_dates() {
    let fw = &harness().report.firmware;
    let configured: Vec<i64> = harness()
        .out
        .truth
        .firmware_dates
        .iter()
        .map(|d| d.day_of_year())
        .collect();
    assert_eq!(configured.len(), 5);
    // Every detected spike must be within 2 days of a configured push, and
    // most pushes must be detected.
    for day in &fw.update_days {
        assert!(
            configured.iter().any(|c| (c - day).abs() <= 2),
            "spurious spike on day {day}; configured {configured:?}"
        );
    }
    assert!(
        fw.update_days.len() >= 3,
        "at least 3 of 5 pushes detected: {:?}",
        fw.update_days
    );
    // Spike days dwarf the median.
    for &day in &fw.update_days {
        assert!(fw.daily[day as usize] as f64 > 2.0 * fw.median);
    }
}

// ---------------------------------------------------------------------------
// Figs. 7–8 and Table 6 — outage-driven changes
// ---------------------------------------------------------------------------

#[test]
fn fig7_ppp_isps_renumber_on_network_outages() {
    let panels = &harness().report.fig7_network;
    assert!(!panels.is_empty());
    let orange = panels
        .iter()
        .find(|p| p.asn == 3215)
        .expect("Orange in Fig 7");
    // Paper: around half of Orange probes had P(ac|nw) = 1.
    assert!(
        orange.fraction_ge(1.0) > 0.4,
        "Orange P=1 fraction {}",
        orange.fraction_ge(1.0)
    );
    assert!(orange.fraction_ge(0.8) > 0.6);
}

#[test]
fn fig7_dhcp_isps_rarely_renumber_on_outages() {
    // LGI/Verizon probes — fetch their per-probe conditional probabilities
    // regardless of panel membership.
    use dynaddr::analysis::assoc::{cond_prob, OutageKind};
    use dynaddr::analysis::filtering::filter_probes;
    use dynaddr::analysis::pipeline::outage_analysis;
    let h = harness();
    let filtered = filter_probes(&h.out.dataset, &h.snaps);
    let oa = outage_analysis(&h.out.dataset, &filtered.probes);
    let mut lgi_probs = Vec::new();
    for p in &filtered.probes {
        if p.multi_as || p.primary_asn.0 != 6830 {
            continue;
        }
        let cp = cond_prob(p.probe(), &oa.outages, OutageKind::Network);
        if cp.outages >= 3 {
            lgi_probs.push(cp.p());
        }
    }
    assert!(
        lgi_probs.len() >= 4,
        "LGI probes with outages: {}",
        lgi_probs.len()
    );
    let high = lgi_probs.iter().filter(|&&p| p > 0.8).count();
    assert!(
        (high as f64) < 0.3 * lgi_probs.len() as f64,
        "LGI probes mostly keep addresses across outages: {lgi_probs:?}"
    );
}

#[test]
fn table6_is_consistent_and_headed_by_ppp_isps() {
    let t6 = &harness().report.table6;
    let all = &t6[0];
    assert_eq!(all.name, "All");
    assert!(all.n > 30);
    for row in t6 {
        assert!(row.pct_nw_eq1 <= row.pct_nw_gt08 + 1e-9);
        assert!(row.pct_pw_eq1 <= row.pct_pw_gt08 + 1e-9);
        if row.asn != 0 {
            // Rows qualify via P(ac|nw) > 0.8 probes; power behaviour
            // corroborates (paper §5.3 finding).
            assert!(
                row.pct_pw_gt08 > 30.0,
                "{}: power {}",
                row.name,
                row.pct_pw_gt08
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Fig. 9 — renumbering by outage duration
// ---------------------------------------------------------------------------

#[test]
fn fig9_lgi_rises_with_duration_orange_flat_high() {
    let f9 = &harness().report.fig9;
    let lgi = f9.iter().find(|p| p.asn == 6830).expect("LGI panel");
    let orange = f9.iter().find(|p| p.asn == 3215).expect("Orange panel");

    // LGI: short outages almost never renumber; 12h+ outages often do.
    let pct = lgi.buckets.percentages();
    let short = pct[0].unwrap_or(0.0); // <5m
    assert!(short < 10.0, "LGI <5m renumber rate {short}");
    let long_total: usize = lgi.buckets.total[8..].iter().sum();
    let long_renum: usize = lgi.buckets.renumbered[8..].iter().sum();
    assert!(long_total > 0, "LGI must see some 12h+ outages");
    let long_rate = 100.0 * long_renum as f64 / long_total as f64;
    assert!(long_rate > 25.0, "LGI 12h+ renumber rate {long_rate}");

    // Orange: even the shortest outages renumber (paper: 91% under 5 min).
    let o_pct = orange.buckets.percentages();
    assert!(
        o_pct[0].unwrap_or(0.0) > 75.0,
        "Orange <5m rate {:?}",
        o_pct[0]
    );
    assert!(
        orange.buckets.total[0] > 30,
        "Orange sees many short outages"
    );
}

// ---------------------------------------------------------------------------
// Table 7 — prefix changes
// ---------------------------------------------------------------------------

#[test]
fn table7_changes_span_prefixes() {
    let t7 = &harness().report.table7;
    assert!(t7.overall.changes > 10_000);
    // Paper: 48.9% of changes crossed BGP prefixes, 33.5% crossed /8s.
    assert!(
        (25.0..70.0).contains(&t7.overall.pct_bgp()),
        "overall diff-BGP {}",
        t7.overall.pct_bgp()
    );
    assert!(
        (15.0..55.0).contains(&t7.overall.pct_8()),
        "overall diff-/8 {}",
        t7.overall.pct_8()
    );
    // DTAG is among the most prefix-local ISPs (paper: 24%).
    let dtag = t7.per_as.get(&3320).expect("DTAG in Table 7");
    assert!(dtag.pct_bgp() < t7.overall.pct_bgp());
    // Consistency: diff_8 ≤ diff_16 cannot be asserted in general (BGP
    // prefixes are not nested in /16s), but counts never exceed changes.
    for (asn, c) in &t7.per_as {
        assert!(
            c.diff_bgp <= c.changes && c.diff_16 <= c.changes && c.diff_8 <= c.changes,
            "AS{asn} counts exceed changes"
        );
        assert!(
            c.diff_8 <= c.diff_16,
            "/8 change implies /16 change (AS{asn})"
        );
    }
}

// ---------------------------------------------------------------------------
// Rendering — the full report renders without panicking and mentions
// every experiment
// ---------------------------------------------------------------------------

#[test]
fn full_report_renders() {
    let h = harness();
    let text = report::render_full(&h.report, &h.cfg.as_names);
    for needle in [
        "Table 2",
        "Fig 1",
        "Fig 2",
        "Fig 3",
        "Table 5",
        "Hour-of-day",
        "Fig 6",
        "Fig 7",
        "Fig 8",
        "Table 6",
        "Fig 9",
        "Table 7",
    ] {
        assert!(text.contains(needle), "rendered report misses {needle}");
    }
    assert!(text.len() > 4_000);
}
