//! Shared harness for the integration tests: one simulated paper world and
//! one analysis report, built lazily and reused by every test in the binary.

use dynaddr::analysis::pipeline::{analyze, AnalysisConfig, AnalysisReport};
use dynaddr::atlas::world::{paper_route_tables, paper_world};
use dynaddr::atlas::{simulate, SimOutput};
use dynaddr::ip2as::MonthlySnapshots;
use std::sync::OnceLock;

/// The scale used by integration tests: big enough for every named ISP to
/// carry its minimum population, small enough to run in seconds.
pub const SCALE: f64 = 0.1;
/// The seed all shape tests share.
pub const SEED: u64 = 2015;

#[allow(dead_code)] // different test binaries use different fields
pub struct Harness {
    pub out: SimOutput,
    pub snaps: MonthlySnapshots,
    pub cfg: AnalysisConfig,
    pub report: AnalysisReport,
}

static HARNESS: OnceLock<Harness> = OnceLock::new();

/// The shared world + report.
pub fn harness() -> &'static Harness {
    HARNESS.get_or_init(|| {
        let world = paper_world(SCALE, SEED);
        let out = simulate(&world);
        let snaps = paper_route_tables(&world);
        let mut cfg = AnalysisConfig {
            fig3_min_years: 3.0 * SCALE,
            ..AnalysisConfig::default()
        };
        for (asn, policy) in &out.truth.isp_policies {
            cfg.as_names.insert(*asn, policy.name.clone());
        }
        let report = analyze(&out.dataset, &snaps, &cfg);
        Harness {
            out,
            snaps,
            cfg,
            report,
        }
    })
}
