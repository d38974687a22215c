//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Spans nest on one thread: each records its name, layer, start, end,
//! parent and the request it served. They stay in memory while the traced
//! run works and are written out once it ends. A layer's self time is the
//! summed duration of its spans minus the time their child spans cover,
//! and the root span's self time is the run's unattributed remainder, so
//! the layers' self times plus `unattributed` add up to the root's wall
//! time exactly.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// The call that was timed.
    pub name: &'static str,
    /// The layer (crate) the call belongs to.
    pub layer: &'static str,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request (0 when none).
    pub request: u64,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans on one thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose root span (`layer` "bench") opens now.
    pub fn new() -> Recorder {
        let root = Span {
            name: "run",
            layer: "bench",
            parent: None,
            request: 0,
            start_ns: 0,
            end_ns: 0,
        };
        Recorder {
            origin: Instant::now(),
            spans: vec![root],
            open: vec![0],
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; the span nests under the innermost open one.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Closes the root span and returns every span recorded.
    pub fn finish(mut self) -> Vec<Span> {
        self.spans[0].end_ns = self.now_ns();
        self.spans
    }
}

/// Per-layer self time in seconds, keyed by layer; the root's self time
/// appears under `"unattributed"`.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let key = if s.parent.is_none() {
            "unattributed"
        } else {
            s.layer
        };
        *out.entry(key).or_default() += (s.dur_ns() - child_ns[i]) as f64 / 1e9;
    }
    out
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.layer, s.name, s.request, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_and_unattributed_sum_to_wall() {
        let mut rec = Recorder::new();
        busy(200);
        rec.span("core", "analyze", 0, |rec| {
            busy(300);
            rec.span("store", "load", 0, |_| busy(400));
        });
        rec.span("query", "engine", 7, |rec| {
            rec.span("query", "encode", 7, |_| busy(100))
        });
        let spans = rec.finish();
        let wall = spans[0].dur_ns() as f64 / 1e9;
        let st = self_times(&spans);
        let sum: f64 = st.values().sum();
        assert!((sum - wall).abs() < 1e-9, "self times {sum} vs wall {wall}");
        assert!(st["store"] >= 400e-6 && st["core"] >= 300e-6 && st["unattributed"] >= 200e-6);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[4].request, 7);
        let mut buf = Vec::new();
        write_jsonl(&spans, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), spans.len());
    }
}
