//! Periodic progress heartbeat for long runs.
//!
//! A [`Progress`] tracks completed units with a lock-free counter;
//! [`Progress::add`] occasionally (default every 5 s, tunable via
//! `DYNADDR_HEARTBEAT_SECS`) emits a heartbeat — rate, ETA, live RSS — to
//! the leveled logger and, when tracing is on, the JSONL sidecar.
//! [`Progress::finish`] always writes a final trace event so a traced run
//! is guaranteed at least one `heartbeat` line per labeled phase.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub struct Progress {
    label: &'static str,
    total: u64,
    done: AtomicU64,
    start: Instant,
    interval_s: f64,
    last_emit: Mutex<Instant>,
}

fn heartbeat_interval() -> f64 {
    std::env::var("DYNADDR_HEARTBEAT_SECS")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(5.0)
}

impl Progress {
    /// Start tracking `total` units of work under `label` (0 = unknown
    /// total; ETA is omitted).
    pub fn start(label: &'static str, total: u64) -> Self {
        let now = Instant::now();
        Progress {
            label,
            total,
            done: AtomicU64::new(0),
            start: now,
            interval_s: heartbeat_interval(),
            last_emit: Mutex::new(now),
        }
    }

    /// Record `n` completed units; emits a heartbeat if the interval has
    /// elapsed. Safe to call from worker threads.
    pub fn add(&self, n: u64) {
        let done = self.done.fetch_add(n, Ordering::Relaxed) + n;
        // Cheap time check outside the lock; the lock only arbitrates which
        // thread emits.
        let mut last = match self.last_emit.try_lock() {
            Ok(g) => g,
            Err(_) => return,
        };
        if last.elapsed().as_secs_f64() >= self.interval_s {
            *last = Instant::now();
            drop(last);
            self.emit(done, false);
        }
    }

    /// Emit the final heartbeat. The trace event is unconditional; the
    /// stderr line appears only for runs long enough to have heartbeated.
    pub fn finish(&self) {
        let done = self.done.load(Ordering::Relaxed);
        self.emit(done, true);
    }

    fn emit(&self, done: u64, fin: bool) {
        let elapsed = self.start.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        let eta_s = if self.total > done && rate > 0.0 {
            (self.total - done) as f64 / rate
        } else {
            0.0
        };
        let rss = crate::rss::rss_bytes();
        if !fin || elapsed >= self.interval_s {
            if self.total > 0 {
                crate::info!(
                    "{}: {}/{} ({:.0}/s, eta {:.0}s, rss {} MB)",
                    self.label,
                    done,
                    self.total,
                    rate,
                    eta_s,
                    rss / (1024 * 1024)
                );
            } else {
                crate::info!(
                    "{}: {} ({:.0}/s, rss {} MB)",
                    self.label,
                    done,
                    rate,
                    rss / (1024 * 1024)
                );
            }
        }
        if crate::trace::trace_enabled() {
            crate::trace::emit_event(
                "heartbeat",
                &[
                    ("label", crate::trace::Value::Str(self.label)),
                    ("done", crate::trace::Value::U64(done)),
                    ("total", crate::trace::Value::U64(self.total)),
                    ("elapsed_s", crate::trace::Value::F64(elapsed)),
                    ("rate", crate::trace::Value::F64(rate)),
                    ("eta_s", crate::trace::Value::F64(eta_s)),
                    ("rss_bytes", crate::trace::Value::U64(rss)),
                    ("final", crate::trace::Value::Bool(fin)),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_across_threads() {
        let p = Progress::start("test_progress", 100);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..25 {
                        p.add(1);
                    }
                });
            }
        });
        assert_eq!(p.done.load(Ordering::Relaxed), 100);
        p.finish();
    }

    #[test]
    fn finish_emits_trace_event() {
        let _g = crate::testlock::LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!("dynaddr_obs_hb_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hb.jsonl");
        crate::trace::init_trace(&path).unwrap();
        let p = Progress::start("hb_phase", 10);
        p.add(10);
        p.finish();
        crate::trace::disable_trace();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"ev\":\"heartbeat\""));
        assert!(body.contains("\"label\":\"hb_phase\""));
        assert!(body.contains("\"final\":true"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
