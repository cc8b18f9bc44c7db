//! Leveled diagnostic logging with a process-wide verbosity gate.
//!
//! Progress and debug chatter across the workspace routes through here
//! instead of raw `eprintln!`, so one knob (`OCELOT_LOG` or
//! [`set_verbosity`]) silences or amplifies everything. Final experiment
//! tables remain on stdout, untouched by this gate.
//!
//! The default level is [`Level::Info`], which preserves the CLI's existing
//! progress output; `OCELOT_LOG=warn` (or `error`, `debug`, `trace`, `off`)
//! overrides it.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Once;

/// Log severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or data-affecting problems.
    Error = 1,
    /// Degraded but continuing (retries, fallbacks).
    Warn = 2,
    /// Progress milestones a CLI user wants by default.
    Info = 3,
    /// Per-stage diagnostics.
    Debug = 4,
    /// Per-item firehose.
    Trace = 5,
}

impl Level {
    fn from_u8(v: u8) -> Option<Level> {
        match v {
            1 => Some(Level::Error),
            2 => Some(Level::Warn),
            3 => Some(Level::Info),
            4 => Some(Level::Debug),
            5 => Some(Level::Trace),
            _ => None,
        }
    }

    /// Parses `error|warn|info|debug|trace|off` (case-insensitive);
    /// `off`/`none`/`0` yields `None`.
    pub fn parse(s: &str) -> Option<Option<Level>> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Some(Level::Error)),
            "warn" | "warning" => Some(Some(Level::Warn)),
            "info" => Some(Some(Level::Info)),
            "debug" => Some(Some(Level::Debug)),
            "trace" => Some(Some(Level::Trace)),
            "off" | "none" | "0" => Some(None),
            _ => None,
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

/// 0 = off; otherwise the max enabled `Level as u8`.
static VERBOSITY: AtomicU8 = AtomicU8::new(Level::Info as u8);
static INIT: Once = Once::new();

fn init_from_env() {
    INIT.call_once(|| {
        if let Ok(v) = std::env::var("OCELOT_LOG") {
            if let Some(parsed) = Level::parse(&v) {
                VERBOSITY.store(parsed.map(|l| l as u8).unwrap_or(0), Ordering::Relaxed);
            }
        }
    });
}

/// Sets the gate explicitly (`None` disables all logging). Overrides
/// `OCELOT_LOG`.
pub fn set_verbosity(level: Option<Level>) {
    init_from_env(); // consume the env once so it can't override us later
    VERBOSITY.store(level.map(|l| l as u8).unwrap_or(0), Ordering::Relaxed);
}

/// Current gate (`None` = all logging off).
pub fn verbosity() -> Option<Level> {
    init_from_env();
    Level::from_u8(VERBOSITY.load(Ordering::Relaxed))
}

/// True when messages at `level` pass the gate.
pub fn enabled(level: Level) -> bool {
    verbosity().is_some_and(|max| level <= max)
}

/// Writes one gated line to stderr. Prefer the [`error!`](crate::error),
/// [`warn!`](crate::warn), [`info!`](crate::info), [`debug!`](crate::debug),
/// and [`trace!`](crate::trace) macros, which skip argument formatting when
/// the gate is closed.
pub fn log(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    if enabled(level) {
        eprintln!("[{:5} {target}] {args}", level.tag());
    }
}

/// Logs at [`Level::Error`]: `obs::error!("target", "context: {e}")`.
#[macro_export]
macro_rules! error {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Error) {
            $crate::log::log($crate::log::Level::Error, $target, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Warn) {
            $crate::log::log($crate::log::Level::Warn, $target, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Info) {
            $crate::log::log($crate::log::Level::Info, $target, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Debug) {
            $crate::log::log($crate::log::Level::Debug, $target, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Trace) {
            $crate::log::log($crate::log::Level::Trace, $target, format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_gate() {
        assert_eq!(Level::parse("DEBUG"), Some(Some(Level::Debug)));
        assert_eq!(Level::parse("off"), Some(None));
        assert_eq!(Level::parse("bogus"), None);

        set_verbosity(Some(Level::Warn));
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        set_verbosity(None);
        assert!(!enabled(Level::Error));
        set_verbosity(Some(Level::Info));
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
    }
}
