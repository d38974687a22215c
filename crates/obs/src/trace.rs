//! JSONL trace sidecar.
//!
//! `init_trace(path)` opens a buffered writer; every event becomes one
//! JSON object per line with an `"ev"` discriminant and a `"t_us"`
//! timestamp. The JSON is hand-built (this crate has no deps) with full
//! string escaping, so each line parses under any strict JSON parser —
//! ci.sh pipes every line through `python3 -m json.tool`.
//!
//! The sidecar is write-only telemetry: nothing in the pipeline reads it
//! back, and when no sink is installed `emit_event` returns after one
//! relaxed atomic load.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<BufWriter<File>>> = Mutex::new(None);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// True when a trace sink is installed; callers can skip building event
/// payloads entirely when this is false.
pub fn trace_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Open `path` as the trace sink (truncating) and emit a `trace_open`
/// header event.
pub fn init_trace(path: &std::path::Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    *SINK.lock().unwrap() = Some(BufWriter::new(file));
    ENABLED.store(true, Ordering::Relaxed);
    emit_event(
        "trace_open",
        &[("pid", Value::U64(std::process::id() as u64))],
    );
    Ok(())
}

/// Flush and drop the sink; subsequent events are discarded.
pub fn disable_trace() {
    ENABLED.store(false, Ordering::Relaxed);
    if let Some(mut w) = SINK.lock().unwrap().take() {
        let _ = w.flush();
    }
}

/// A JSON-encodable field value.
pub enum Value<'a> {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(&'a str),
    OwnedStr(String),
    U64s(&'a [u64]),
    F64s(&'a [f64]),
    /// `[[a,b],...]` pairs — used for histogram buckets.
    Pairs(&'a [(u64, u64)]),
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, v: f64) {
    // JSON has no NaN/Inf; clamp to 0 rather than emit an invalid token.
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push('0');
    }
}

fn push_value(out: &mut String, v: &Value<'_>) {
    match v {
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(f) => push_f64(out, *f),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Str(s) => push_json_str(out, s),
        Value::OwnedStr(s) => push_json_str(out, s),
        Value::U64s(xs) => {
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&x.to_string());
            }
            out.push(']');
        }
        Value::F64s(xs) => {
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_f64(out, *x);
            }
            out.push(']');
        }
        Value::Pairs(ps) => {
            out.push('[');
            for (i, (a, b)) in ps.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                out.push_str(&a.to_string());
                out.push(',');
                out.push_str(&b.to_string());
                out.push(']');
            }
            out.push(']');
        }
    }
}

/// Render one event as a JSON line (exposed for tests).
pub fn render_event(ev: &str, fields: &[(&str, Value<'_>)]) -> String {
    let t_us = epoch().elapsed().as_micros() as u64;
    let mut line = String::with_capacity(64 + fields.len() * 24);
    line.push_str("{\"ev\":");
    push_json_str(&mut line, ev);
    line.push_str(",\"t_us\":");
    line.push_str(&t_us.to_string());
    for (k, v) in fields {
        line.push(',');
        push_json_str(&mut line, k);
        line.push(':');
        push_value(&mut line, v);
    }
    line.push('}');
    line
}

/// Write one event line to the sink (no-op when tracing is off).
pub fn emit_event(ev: &str, fields: &[(&str, Value<'_>)]) {
    if !trace_enabled() {
        return;
    }
    let line = render_event(ev, fields);
    if let Some(w) = SINK.lock().unwrap().as_mut() {
        let _ = writeln!(w, "{line}");
    }
}

/// Drain spans and the metrics registry into the sidecar, then flush the
/// writer. Call at end of run (and optionally at checkpoints).
pub fn flush_trace() {
    if !trace_enabled() {
        return;
    }
    let (spans, dropped) = crate::span::take_spans();
    for s in &spans {
        emit_event(
            "span",
            &[
                ("name", Value::Str(s.name)),
                ("path", Value::Str(&s.path)),
                ("start_us", Value::U64(s.start_us)),
                ("dur_us", Value::U64(s.dur_us)),
                ("thread", Value::U64(s.thread)),
            ],
        );
    }
    if dropped > 0 {
        emit_event("span_overflow", &[("dropped", Value::U64(dropped))]);
    }
    let snap = crate::metrics::metrics_snapshot();
    for (name, v) in &snap.counters {
        emit_event(
            "counter",
            &[("name", Value::Str(name)), ("value", Value::U64(*v))],
        );
    }
    for (name, v) in &snap.gauges {
        emit_event(
            "gauge",
            &[("name", Value::Str(name)), ("value", Value::U64(*v))],
        );
    }
    for (name, h) in &snap.hists {
        let buckets = h.nonzero();
        emit_event(
            "hist",
            &[
                ("name", Value::Str(name)),
                ("count", Value::U64(h.count())),
                ("sum", Value::U64(h.sum())),
                ("p50", Value::U64(h.quantile(0.5))),
                ("p99", Value::U64(h.quantile(0.99))),
                ("buckets", Value::Pairs(&buckets)),
            ],
        );
    }
    if let Some(w) = SINK.lock().unwrap().as_mut() {
        let _ = w.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_escaped_json() {
        let line = render_event(
            "log",
            &[
                ("msg", Value::Str("a \"quoted\"\nline\t\\")),
                ("n", Value::U64(7)),
                ("x", Value::F64(1.5)),
                ("bad", Value::F64(f64::NAN)),
                ("ok", Value::Bool(true)),
                ("xs", Value::U64s(&[1, 2, 3])),
                ("ps", Value::Pairs(&[(1, 2), (3, 4)])),
            ],
        );
        assert!(line.starts_with("{\"ev\":\"log\",\"t_us\":"));
        assert!(line.contains("\\\"quoted\\\"\\nline\\t\\\\"));
        assert!(line.contains("\"n\":7"));
        assert!(line.contains("\"x\":1.5"));
        assert!(line.contains("\"bad\":0"));
        assert!(line.contains("\"ok\":true"));
        assert!(line.contains("\"xs\":[1,2,3]"));
        assert!(line.contains("\"ps\":[[1,2],[3,4]]"));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn control_chars_are_escaped() {
        let mut s = String::new();
        push_json_str(&mut s, "\u{1}\u{1f}");
        assert_eq!(s, "\"\\u0001\\u001f\"");
    }

    #[test]
    fn sidecar_round_trip() {
        let _g = crate::testlock::LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!("dynaddr_obs_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        init_trace(&path).unwrap();
        emit_event("heartbeat", &[("done", Value::U64(10))]);
        crate::metrics::reset_metrics();
        crate::metrics::counter_add("test.trace.counter", 3);
        flush_trace();
        disable_trace();
        crate::metrics::reset_metrics();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.lines().count() >= 3);
        assert!(body.contains("\"ev\":\"trace_open\""));
        assert!(body.contains("\"ev\":\"heartbeat\""));
        assert!(body.contains("test.trace.counter"));
        // Every line is a single JSON object.
        for line in body.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "bad line: {line}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
