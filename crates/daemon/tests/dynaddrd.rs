//! `dynaddrd` as a process: a replay that cannot complete must end the
//! daemon with exit status 1, an error naming the file at fault, and no
//! report, instead of leaving it serving forever.

use dynaddr_atlas::world::{paper_route_tables, paper_world};
use dynaddr_atlas::{simulate, KrootPingRecord};
use dynaddr_store::{ColumnarRecord, FileReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long a failing daemon may take to exit.
const DEADLINE: Duration = Duration::from_secs(30);

/// A fresh directory holding a scale-0.01 dataset: `dataset.store`,
/// `ip2as/`, and a `reports/` directory for the daemon to write into.
fn dataset_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dynaddrd-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let world = paper_world(0.01, 5);
    simulate(&world).dataset.save_dir(&dir).expect("write dataset");
    paper_route_tables(&world).save_dir(&dir.join("ip2as")).expect("write snapshots");
    std::fs::create_dir(dir.join("reports")).expect("reports directory");
    dir
}

/// Runs `dynaddrd` in daemon mode until it exits; panics if it is still
/// running at the deadline. Returns the exit code and stderr.
fn run_daemon(dir: &Path, replay: &Path, report: &Path) -> (Option<i32>, String) {
    let err_path = dir.join("dynaddrd.err");
    let err = std::fs::File::create(&err_path).expect("stderr file");
    let mut child = Command::new(env!("CARGO_BIN_EXE_dynaddrd"))
        .arg("--replay")
        .arg(replay)
        .arg("--data")
        .arg(dir)
        .arg("--socket")
        .arg(dir.join("d.sock"))
        .args(["--rate", "max", "--exit-after-replay", "--report"])
        .arg(report)
        .stdout(Stdio::null())
        .stderr(err)
        .spawn()
        .expect("spawn dynaddrd");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait for dynaddrd") {
            break status;
        }
        if started.elapsed() > DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            panic!("dynaddrd still running after {DEADLINE:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    (status.code(), std::fs::read_to_string(&err_path).unwrap_or_default())
}

#[test]
fn unwritable_report_exits_1_naming_the_path() {
    let dir = dataset_dir("unwritable");
    let report = dir.join("missing").join("report.txt");
    let (code, stderr) = run_daemon(&dir, &dir.join("dataset.store"), &report);
    assert_eq!(code, Some(1), "stderr:\n{stderr}");
    assert!(stderr.contains(&report.display().to_string()), "stderr:\n{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_kroot_segment_exits_1_and_publishes_no_report() {
    let dir = dataset_dir("corrupt");
    let store = dir.join("dataset.store");
    let mut bytes = std::fs::read(&store).expect("read store");
    let reader = FileReader::open(&bytes).expect("intact store");
    let seg = *reader
        .segments()
        .iter()
        .find(|s| s.table == KrootPingRecord::TABLE_ID)
        .expect("a k-root segment");
    // Inside the segment body, well past its length prefix; the footer
    // stays intact, so only the replay itself can find the damage.
    bytes[(seg.offset + seg.len / 2) as usize] ^= 0x5A;
    let corrupt = dir.join("corrupt.store");
    std::fs::write(&corrupt, &bytes).expect("write corrupt store");
    FileReader::open(&bytes).expect("footer still parses");

    let report = dir.join("reports").join("report.txt");
    let (code, stderr) = run_daemon(&dir, &corrupt, &report);
    assert_eq!(code, Some(1), "stderr:\n{stderr}");
    assert!(stderr.contains(&corrupt.display().to_string()), "stderr:\n{stderr}");
    let published: Vec<_> = std::fs::read_dir(dir.join("reports")).unwrap().collect();
    assert!(published.is_empty(), "a failed replay published {published:?}");
    std::fs::remove_dir_all(&dir).ok();
}
