//! The out-of-core analyzer reads its store file once: every segment is
//! decoded exactly one time. The `dynaddr-obs` counters are process-wide,
//! so this check is its own test binary with a single test.

use dynaddr::analysis::pipeline::{analyze_streamed, AnalysisConfig};
use dynaddr::atlas::world::{paper_route_tables, paper_world};
use dynaddr::atlas::{simulate_to_store, SimOptions};
use dynaddr::store::FileReader;

#[test]
fn streamed_analyze_reads_each_segment_once() {
    let dir = std::env::temp_dir().join(format!("dynaddr-reads-once-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("dataset.store");
    let world = paper_world(0.01, 3);
    simulate_to_store(&world, &SimOptions::default(), &path).expect("streamed sim");
    let bytes = std::fs::read(&path).expect("read store");
    let segments = FileReader::open(&bytes).expect("store opens").segments().len() as u64;

    dynaddr_obs::reset_metrics();
    analyze_streamed(&path, &paper_route_tables(&world), &AnalysisConfig::default())
        .expect("streamed analyze");
    let read = dynaddr_obs::metrics_snapshot()
        .counters
        .iter()
        .find(|(name, _)| *name == "store.segments_read")
        .map_or(0, |&(_, n)| n);
    assert_eq!(read, segments, "segments decoded vs segments in the file");
    std::fs::remove_dir_all(&dir).ok();
}
