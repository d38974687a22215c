//! Criterion benches for the analysis pipeline — one measurement per paper
//! experiment, so regressions in any stage are visible individually.

use criterion::{criterion_group, criterion_main, Criterion};
use dynaddr_atlas::world::{paper_route_tables, paper_world};
use dynaddr_atlas::{simulate, SimOutput};
use dynaddr_core::filtering::{filter_probes, FilterReport};
use dynaddr_core::geo::continent_distributions;
use dynaddr_core::periodic::{table5, PeriodicConfig};
use dynaddr_core::pipeline::{analyze, outage_analysis, AnalysisConfig};
use dynaddr_core::prefixes::prefix_changes;
use dynaddr_ip2as::MonthlySnapshots;
use std::sync::OnceLock;

fn world() -> &'static (SimOutput, MonthlySnapshots, FilterReport) {
    static W: OnceLock<(SimOutput, MonthlySnapshots, FilterReport)> = OnceLock::new();
    W.get_or_init(|| {
        let config = paper_world(0.05, 11);
        let out = simulate(&config);
        let snaps = paper_route_tables(&config);
        let filtered = filter_probes(&out.dataset, &snaps);
        (out, snaps, filtered)
    })
}

fn bench_filtering(c: &mut Criterion) {
    let (out, snaps, _) = world();
    c.bench_function("table2_filtering", |b| {
        b.iter(|| filter_probes(&out.dataset, snaps))
    });
}

fn bench_table5(c: &mut Criterion) {
    let (_, _, filtered) = world();
    let names = Default::default();
    let cfg = PeriodicConfig::default();
    c.bench_function("table5_periodic_classification", |b| {
        b.iter(|| table5(&filtered.probes, &names, &cfg))
    });
}

fn bench_geo(c: &mut Criterion) {
    let (_, _, filtered) = world();
    c.bench_function("fig1_continent_rollup", |b| {
        b.iter(|| continent_distributions(&filtered.probes))
    });
}

fn bench_outages(c: &mut Criterion) {
    let (out, _, filtered) = world();
    c.bench_function("outage_detection_and_association", |b| {
        b.iter(|| outage_analysis(&out.dataset, &filtered.probes))
    });
}

fn bench_prefixes(c: &mut Criterion) {
    let (_, snaps, filtered) = world();
    c.bench_function("table7_prefix_changes", |b| {
        b.iter(|| prefix_changes(&filtered.probes, snaps))
    });
}

fn bench_full(c: &mut Criterion) {
    let (out, snaps, _) = world();
    let cfg = AnalysisConfig::default();
    let mut group = c.benchmark_group("full");
    group.sample_size(10);
    group.bench_function("analyze_everything", |b| {
        b.iter(|| analyze(&out.dataset, snaps, &cfg))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_filtering,
    bench_table5,
    bench_geo,
    bench_outages,
    bench_prefixes,
    bench_full
);
criterion_main!(benches);
