//! `dynaddr-obs` — structured observability for the dynaddr pipeline.
//!
//! Std-only, zero dependencies, and strictly off the output path: nothing
//! in this crate may influence report bytes, store bytes, or stage
//! orderings. Everything here is either append-only telemetry (spans,
//! counters, histograms) merged with commutative u64 adds — bit-identical
//! regardless of worker count — or side-channel emission (stderr logging,
//! heartbeats, the `--trace` JSONL sidecar).
//!
//! Layers:
//! - [`span`](mod@span): RAII stage timers with parent nesting, per-thread buffers,
//!   and a deterministic global merge (`take_spans` sorts by start, seq).
//! - [`metrics`]: global counters, gauges, and fixed-bucket log2
//!   [`Histogram`]s whose `merge` is elementwise u64 addition.
//! - [`log`]: leveled stderr logger driven by `DYNADDR_LOG`.
//! - [`progress`]: periodic heartbeat (rate, ETA, live RSS) for long runs.
//! - [`trace`]: JSONL sidecar writer (`--trace <file>`); every span, metric
//!   snapshot, heartbeat, and log line becomes one JSON object per line.

pub mod log;
pub mod metrics;
pub mod progress;
pub mod rss;
pub mod span;
pub mod trace;

pub use crate::log::{log_at, set_log_level, Level};
pub use metrics::{
    counter_add, gauge_max, gauge_set, hist_merge, hist_record, metrics_snapshot, reset_metrics,
    Histogram, MetricsSnapshot,
};
pub use progress::Progress;
pub use rss::{peak_rss_bytes, rss_bytes};
pub use span::{span, take_spans, Span, SpanEvent};
pub use trace::{
    disable_trace, emit_event, flush_trace, init_trace, trace_enabled, Value,
};

/// Serializes tests that touch crate-global state (span buffer, metrics
/// registry, trace sink) across test modules.
#[cfg(test)]
pub(crate) mod testlock {
    pub static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
}

/// Log at `error` level (always printed unless logging is disabled).
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => { $crate::log_at($crate::Level::Error, format_args!($($arg)*)) };
}

/// Log at `warn` level.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => { $crate::log_at($crate::Level::Warn, format_args!($($arg)*)) };
}

/// Log at `info` level (the default threshold).
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => { $crate::log_at($crate::Level::Info, format_args!($($arg)*)) };
}

/// Log at `debug` level (enabled via `DYNADDR_LOG=debug`).
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => { $crate::log_at($crate::Level::Debug, format_args!($($arg)*)) };
}
