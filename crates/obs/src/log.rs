//! Structured event log: leveled, timestamped, bounded-ring records.
//!
//! An [`EventLog`] is a cheap, clonable handle (shared ring) that
//! operational code logs structured events into: a [`LogLevel`], a
//! `target` naming the subsystem (`serve.job`, `serve.journal`, …), a
//! human message, and flat key/value fields. Records are sequence-
//! numbered and wall-clock timestamped (microseconds since the Unix
//! epoch), held in a bounded ring — old records are evicted, with the
//! eviction count visible via [`EventLog::dropped`] — and rendered as
//! NDJSON (one JSON object per line), the format `GET /logs` serves and
//! `--log-out` appends to a file.
//!
//! Like the other observability engines, the log never touches simulated
//! state: it records what the *host* process did, when.

use silo_types::write_json_escaped;
use std::collections::VecDeque;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

/// Severity of a log record, ordered `Debug < Info < Warn < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// High-volume operational detail (per-point progress, journal IO).
    Debug,
    /// Normal lifecycle events (job submitted/completed, daemon up).
    Info,
    /// Something degraded but the process continues (dropped journal
    /// entries, cache evictions under pressure).
    Warn,
    /// A request or job failed.
    Error,
}

impl LogLevel {
    /// The lowercase wire name (`"debug"`, `"info"`, `"warn"`,
    /// `"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }

    /// Parses a wire name, case-insensitively. `None` for unknown names.
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s.to_ascii_lowercase().as_str() {
            "debug" => Some(LogLevel::Debug),
            "info" => Some(LogLevel::Info),
            "warn" | "warning" => Some(LogLevel::Warn),
            "error" => Some(LogLevel::Error),
            _ => None,
        }
    }
}

/// One structured log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// Monotonic sequence number, 1-based, never reused — so a paginated
    /// reader can detect gaps left by ring eviction.
    pub seq: u64,
    /// Wall-clock timestamp, microseconds since the Unix epoch.
    pub unix_us: u64,
    /// Severity.
    pub level: LogLevel,
    /// Subsystem that produced the record (`serve.job`, `sim.run`, …).
    pub target: String,
    /// Human-readable message.
    pub message: String,
    /// Flat key/value context fields, in insertion order.
    pub fields: Vec<(String, String)>,
}

impl LogRecord {
    /// Renders the record as one NDJSON line (no trailing newline).
    pub fn ndjson(&self) -> String {
        let mut out = format!(
            "{{\"seq\":{},\"ts_us\":{},\"level\":\"{}\"",
            self.seq,
            self.unix_us,
            self.level.as_str(),
        );
        let fields = [("target", &self.target), ("msg", &self.message)]
            .into_iter()
            .chain(self.fields.iter().map(|(k, v)| (k.as_str(), v)));
        for (k, v) in fields {
            out.push_str(",\"");
            let _ = write_json_escaped(&mut out, k);
            out.push_str("\":\"");
            let _ = write_json_escaped(&mut out, v);
            out.push('"');
        }
        out.push('}');
        out
    }
}

struct LogState {
    next_seq: u64,
    ring: VecDeque<LogRecord>,
    sink: Option<File>,
}

struct Inner {
    capacity: usize,
    dropped: AtomicU64,
    state: Mutex<LogState>,
}

/// A shared, bounded, structured event log. Clones share the ring.
#[derive(Clone)]
pub struct EventLog {
    inner: Arc<Inner>,
}

impl EventLog {
    /// Creates a log holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "event log capacity must be positive");
        EventLog {
            inner: Arc::new(Inner {
                capacity,
                dropped: AtomicU64::new(0),
                state: Mutex::new(LogState {
                    next_seq: 1,
                    ring: VecDeque::with_capacity(capacity),
                    sink: None,
                }),
            }),
        }
    }

    /// Like [`EventLog::new`], additionally appending every record as an
    /// NDJSON line to the file at `path` (created if absent). The ring
    /// stays bounded; the file keeps everything.
    ///
    /// # Errors
    ///
    /// Propagates the open/create failure.
    pub fn with_sink(capacity: usize, path: &Path) -> std::io::Result<Self> {
        let log = EventLog::new(capacity);
        let file = File::options().create(true).append(true).open(path)?;
        log.lock().sink = Some(file);
        Ok(log)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LogState> {
        self.inner.state.lock().expect("event log poisoned")
    }

    /// Appends a record. Fields are borrowed key/value pairs; the record
    /// is timestamped now and sequence-numbered. Sink write failures are
    /// swallowed (logging must never take the daemon down).
    pub fn log(&self, level: LogLevel, target: &str, message: &str, fields: &[(&str, &str)]) {
        let unix_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_micros() as u64);
        let mut s = self.lock();
        let record = LogRecord {
            seq: s.next_seq,
            unix_us,
            level,
            target: target.to_string(),
            message: message.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
        };
        s.next_seq += 1;
        if let Some(sink) = &mut s.sink {
            let _ = writeln!(sink, "{}", record.ndjson());
        }
        if s.ring.len() == self.inner.capacity {
            s.ring.pop_front();
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        s.ring.push_back(record);
    }

    /// [`EventLog::log`] at [`LogLevel::Debug`].
    pub fn debug(&self, target: &str, message: &str, fields: &[(&str, &str)]) {
        self.log(LogLevel::Debug, target, message, fields);
    }

    /// [`EventLog::log`] at [`LogLevel::Info`].
    pub fn info(&self, target: &str, message: &str, fields: &[(&str, &str)]) {
        self.log(LogLevel::Info, target, message, fields);
    }

    /// [`EventLog::log`] at [`LogLevel::Warn`].
    pub fn warn(&self, target: &str, message: &str, fields: &[(&str, &str)]) {
        self.log(LogLevel::Warn, target, message, fields);
    }

    /// [`EventLog::log`] at [`LogLevel::Error`].
    pub fn error(&self, target: &str, message: &str, fields: &[(&str, &str)]) {
        self.log(LogLevel::Error, target, message, fields);
    }

    /// Number of records currently in the ring.
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted from the ring since construction.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// The last `n` records at `min_level` or above, oldest first.
    pub fn tail(&self, min_level: LogLevel, n: usize) -> Vec<LogRecord> {
        let s = self.lock();
        let mut out: Vec<LogRecord> = s
            .ring
            .iter()
            .rev()
            .filter(|r| r.level >= min_level)
            .take(n)
            .cloned()
            .collect();
        out.reverse();
        out
    }

    /// [`EventLog::tail`] rendered as NDJSON (one line per record,
    /// trailing newline when nonempty).
    pub fn ndjson(&self, min_level: LogLevel, n: usize) -> String {
        let mut out = String::new();
        for r in self.tail(min_level, n) {
            out.push_str(&r.ndjson());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(LogLevel::parse("INFO"), Some(LogLevel::Info));
        assert_eq!(LogLevel::parse("warning"), Some(LogLevel::Warn));
        assert_eq!(LogLevel::parse("nope"), None);
        assert!(LogLevel::Debug < LogLevel::Info);
        assert!(LogLevel::Warn < LogLevel::Error);
        assert_eq!(LogLevel::Error.as_str(), "error");
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let log = EventLog::new(3);
        for i in 0..5 {
            log.info("t", &format!("m{i}"), &[]);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let tail = log.tail(LogLevel::Debug, 10);
        assert_eq!(tail.len(), 3);
        // Oldest first, sequence numbers survive eviction.
        assert_eq!(tail[0].seq, 3);
        assert_eq!(tail[2].seq, 5);
        assert_eq!(tail[2].message, "m4");
    }

    #[test]
    fn tail_filters_by_level_and_paginates() {
        let log = EventLog::new(16);
        log.debug("t", "d", &[]);
        log.info("t", "i", &[]);
        log.warn("t", "w", &[]);
        log.error("t", "e", &[]);
        let warn_up = log.tail(LogLevel::Warn, 10);
        assert_eq!(warn_up.len(), 2);
        assert_eq!(warn_up[0].message, "w");
        let last_one = log.tail(LogLevel::Debug, 1);
        assert_eq!(last_one.len(), 1);
        assert_eq!(last_one[0].message, "e");
    }

    #[test]
    fn ndjson_renders_fields_and_escapes() {
        let log = EventLog::new(4);
        log.info(
            "serve.job",
            "submitted \"x\"",
            &[("job", "1"), ("client", "a\nb")],
        );
        let text = log.ndjson(LogLevel::Debug, 10);
        let line = text.trim_end();
        assert!(line.starts_with("{\"seq\":1,\"ts_us\":"));
        assert!(line.contains("\"level\":\"info\""));
        assert!(line.contains("\"target\":\"serve.job\""));
        assert!(line.contains("\"msg\":\"submitted \\\"x\\\"\""));
        assert!(line.contains("\"job\":\"1\""));
        assert!(line.contains("\"client\":\"a\\nb\""));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn sink_appends_ndjson_lines() {
        let dir = std::env::temp_dir().join(format!("silo-obs-log-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.ndjson");
        let _ = std::fs::remove_file(&path);
        {
            let log = EventLog::with_sink(2, &path).unwrap();
            for i in 0..4 {
                log.info("t", &format!("m{i}"), &[]);
            }
            assert_eq!(log.len(), 2, "ring stays bounded");
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 4, "sink keeps everything");
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
