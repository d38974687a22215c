//! Leveled stderr logger.
//!
//! The threshold comes from `DYNADDR_LOG` (`error|warn|info|debug`),
//! parsed once and cached in an atomic; `info` is the default. Lines at
//! or below the threshold go to stderr; when a trace sink is active they
//! are also mirrored into the sidecar as `{"ev":"log",...}` events so a
//! trace file is self-contained.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// Severity levels, ordered most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" | "trace" => Some(Level::Debug),
            _ => None,
        }
    }
}

const LEVEL_UNSET: u8 = 255;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

fn threshold() -> Level {
    let raw = LEVEL.load(Ordering::Relaxed);
    if raw != LEVEL_UNSET {
        return match raw {
            0 => Level::Error,
            1 => Level::Warn,
            3 => Level::Debug,
            _ => Level::Info,
        };
    }
    let lvl = std::env::var("DYNADDR_LOG")
        .ok()
        .and_then(|v| Level::parse(&v))
        .unwrap_or(Level::Info);
    LEVEL.store(lvl as u8, Ordering::Relaxed);
    lvl
}

/// Override the log threshold programmatically (e.g. from a `-q`/`-v`
/// flag). `None` re-arms the lazy `DYNADDR_LOG` lookup.
pub fn set_log_level(level: Option<Level>) {
    LEVEL.store(
        level.map(|l| l as u8).unwrap_or(LEVEL_UNSET),
        Ordering::Relaxed,
    );
}

/// Core logging entry point; use the `error!`/`warn!`/`info!`/`debug!`
/// macros rather than calling this directly.
pub fn log_at(level: Level, args: fmt::Arguments<'_>) {
    if level > threshold() {
        return;
    }
    let msg = args.to_string();
    match level {
        Level::Error => eprintln!("error: {msg}"),
        Level::Warn => eprintln!("warning: {msg}"),
        Level::Info | Level::Debug => eprintln!("{msg}"),
    }
    if crate::trace::trace_enabled() {
        crate::trace::emit_event(
            "log",
            &[
                ("level", crate::trace::Value::Str(level.as_str())),
                ("msg", crate::trace::Value::OwnedStr(msg)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_matches_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn parse_accepts_aliases() {
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse(" debug "), Some(Level::Debug));
        assert_eq!(Level::parse("nope"), None);
    }
}
