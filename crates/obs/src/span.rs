//! RAII stage/sub-stage timers.
//!
//! A [`Span`] records wall-clock duration from creation to drop (or
//! [`Span::finish_secs`]), tagged with its full `parent/child` path from a
//! per-thread nesting stack. Events land in a thread-local buffer; buffers
//! flush into a global list on thread exit or [`take_spans`], which sorts
//! by `(start_us, seq)` so the merged order is deterministic regardless of
//! which worker finished first.
//!
//! Spans measure time, and time is inherently nondeterministic — so spans
//! are telemetry only. Nothing may branch on a span's duration.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Leaf name as passed to [`span`].
    pub name: &'static str,
    /// Slash-joined path of enclosing spans on this thread, e.g.
    /// `"simulate/sim_event_loop"`.
    pub path: String,
    /// Start offset from process epoch, microseconds.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Arbitrary thread tag (stable within a thread, not across runs).
    pub thread: u64,
    /// Global creation sequence number; tie-breaker for sorting.
    pub seq: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

static SEQ: AtomicU64 = AtomicU64::new(0);
static THREAD_IDS: AtomicU64 = AtomicU64::new(0);
static FINISHED: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Cap on buffered span events; long test runs that never drain would
/// otherwise grow without bound. Overflow increments a counter instead.
const BUFFER_CAP: usize = 1 << 16;

struct ThreadBuf {
    id: u64,
    stack: Vec<&'static str>,
    buf: Vec<SpanEvent>,
}

impl ThreadBuf {
    fn new() -> Self {
        ThreadBuf {
            id: THREAD_IDS.fetch_add(1, Ordering::Relaxed),
            stack: Vec::new(),
            buf: Vec::new(),
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            flush_into_global(&mut self.buf);
        }
    }
}

fn flush_into_global(buf: &mut Vec<SpanEvent>) {
    let mut global = FINISHED.lock().unwrap();
    let room = BUFFER_CAP.saturating_sub(global.len());
    if buf.len() > room {
        DROPPED.fetch_add((buf.len() - room) as u64, Ordering::Relaxed);
        buf.truncate(room);
    }
    global.append(buf);
}

thread_local! {
    static TLS: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

/// Live RAII span. Records on drop; use [`Span::finish_secs`] to also get
/// the elapsed seconds (replacing hand-rolled `Instant` pairs).
pub struct Span {
    name: &'static str,
    path: String,
    start: Instant,
    start_us: u64,
    seq: u64,
    done: bool,
}

/// Open a span named `name`, nested under any span already open on this
/// thread.
pub fn span(name: &'static str) -> Span {
    let start = Instant::now();
    let start_us = start.duration_since(epoch()).as_micros() as u64;
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let path = TLS.with(|tls| {
        let mut t = tls.borrow_mut();
        let path = if t.stack.is_empty() {
            name.to_string()
        } else {
            let mut p = t.stack.join("/");
            p.push('/');
            p.push_str(name);
            p
        };
        t.stack.push(name);
        path
    });
    Span {
        name,
        path,
        start,
        start_us,
        seq,
        done: false,
    }
}

impl Span {
    /// Close the span now and return elapsed seconds.
    pub fn finish_secs(mut self) -> f64 {
        let secs = self.start.elapsed().as_secs_f64();
        self.close();
        secs
    }

    fn close(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let dur_us = self.start.elapsed().as_micros() as u64;
        TLS.with(|tls| {
            let mut t = tls.borrow_mut();
            // Spans drop in LIFO order; truncating at our frame also clears
            // any frames a leaked child failed to pop.
            if let Some(pos) = t.stack.iter().rposition(|&n| n == self.name) {
                t.stack.truncate(pos);
            }
            let ev = SpanEvent {
                name: self.name,
                path: std::mem::take(&mut self.path),
                start_us: self.start_us,
                dur_us,
                thread: t.id,
                seq: self.seq,
            };
            if t.buf.len() < BUFFER_CAP {
                t.buf.push(ev);
            } else {
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// Drain all finished spans (this thread's buffer plus the global list),
/// sorted by `(start_us, seq)` for a deterministic merged order. Returns
/// the events and the number dropped to the buffer cap since the last
/// drain.
pub fn take_spans() -> (Vec<SpanEvent>, u64) {
    TLS.with(|tls| {
        let mut t = tls.borrow_mut();
        let mut buf = std::mem::take(&mut t.buf);
        flush_into_global(&mut buf);
    });
    let mut events = std::mem::take(&mut *FINISHED.lock().unwrap());
    events.sort_by_key(|e| (e.start_us, e.seq));
    (events, DROPPED.swap(0, Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The span buffer is global; serialize tests that drain it so parallel
    // test threads cannot interleave events.
    use crate::testlock::LOCK;

    #[test]
    fn nesting_builds_paths_and_drop_order_pops() {
        let _g = LOCK.lock().unwrap();
        let _ = take_spans();
        {
            let _a = span("outer");
            {
                let _b = span("inner");
            }
            let _c = span("sibling");
        }
        let (events, dropped) = take_spans();
        assert_eq!(dropped, 0);
        let paths: Vec<&str> = events.iter().map(|e| e.path.as_str()).collect();
        assert!(paths.contains(&"outer"));
        assert!(paths.contains(&"outer/inner"));
        assert!(paths.contains(&"outer/sibling"));
        // Sorted by (start_us, seq): outer opened first.
        assert_eq!(events[0].path, "outer");
    }

    #[test]
    fn finish_secs_records_once() {
        let _g = LOCK.lock().unwrap();
        let _ = take_spans();
        let s = span("timed");
        let secs = s.finish_secs();
        assert!(secs >= 0.0);
        let (events, _) = take_spans();
        assert_eq!(events.iter().filter(|e| e.name == "timed").count(), 1);
    }

    #[test]
    fn cross_thread_spans_merge() {
        let _g = LOCK.lock().unwrap();
        let _ = take_spans();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = span("worker");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (events, _) = take_spans();
        assert_eq!(events.iter().filter(|e| e.name == "worker").count(), 4);
        // Deterministic order: sorted keys are non-decreasing.
        assert!(events
            .windows(2)
            .all(|w| (w[0].start_us, w[0].seq) <= (w[1].start_us, w[1].seq)));
    }
}
