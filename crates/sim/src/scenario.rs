//! Run settings and the declarative scenario files that carry them.
//!
//! [`SETTINGS`] is the one table of run settings. Each row names a
//! scenario key, the `--help` text of its CLI flag and the parser that
//! stores its value in a [`Scenario`], so a setting is declared once
//! and parsed in one place, [`Scenario::set`], whether it comes from a
//! scenario file, a `silo-sim` flag or a daemon submission.
//!
//! A scenario file (`--scenario` on the CLI, [`Scenario::load`] from
//! library code) sets them as one `key = value` per line. `#` starts a
//! comment at the start of a line or after whitespace, so a `#` inside
//! a value (`trace:file=/tmp/a#b.silotrace`) is kept; blank lines are
//! skipped; list values are comma-separated, and more than one value on
//! `cores`, `scale`, `mlp` or `vault` makes a sweep axis:
//!
//! ```text
//! # Fig. 11-style three-way comparison.
//! systems   = SILO, baseline, baseline-2x
//! workloads = uniform-private, zipf:theta=0.9,footprint=4x
//! workload  = pointer-chase:dependent=0.8      # appends one more
//! cores     = 16          # multiple values create a sweep axis
//! scale     = 64
//! mlp       = 8
//! vault     = table2
//! seed      = 42
//! refs      = 4000        # per-core reference-count override
//! threads   = 4
//! warmup    = 6400        # telemetry: refs of cache warmup (0 = off)
//! epoch     = 16000       # telemetry: refs per timeline epoch
//! check     = 50000       # invariant-oracle sweep period (refs)
//! profile   = on          # hot-loop self-profiler (1/0/true/false/on/off)
//! ```
//!
//! The keys are the table's: `systems`, `workloads`, `cores`, `scale`,
//! `mlp`, `vault`, `seed`, `refs`, `threads`, `warmup`, `epoch`, `check`
//! and `profile`. The file adds the repeatable `workload`, whose specs
//! are appended after the `workloads` list wherever they appear.
//! Workload lists use the same grammar as `--workloads`
//! ([`WorkloadSpec::split_list`]): preset names, `base:key=value`
//! custom parameterizations keeping their comma-separated parameters,
//! and `trace:file=PATH` replays of `.silotrace` captures. Every parse
//! failure is a typed [`ConfigError::Scenario`] naming the 1-based
//! line, and workload-spec failures restate the accepted grammar.

use crate::error::ConfigError;
use crate::workload::WorkloadSpec;
use std::path::Path;
use std::str::FromStr;

/// One run setting as both front ends see it.
pub struct Setting {
    /// The scenario key; `silo-sim` spells the flag `--<key>`
    /// (`--vault-design` for `vault`).
    pub key: &'static str,
    /// The value placeholder `--help` shows. Empty for the on/off
    /// setting, which the CLI spells as a bare switch.
    pub arg: &'static str,
    /// The `--help` text, one `\n` per line break.
    pub help: &'static str,
    set: fn(&mut Scenario, &str) -> Result<(), String>,
}

/// Declares [`Scenario`], one `Option` field per setting, together with
/// the [`SETTINGS`] row that parses it and [`Scenario::overlay`].
macro_rules! settings {
    ($($(#[doc = $doc:literal])* $field:ident: $ty:ty =
        $key:literal $parse:ident $arg:literal $help:literal;)*) => {
        /// A set of run settings, every one optional: parsed from a
        /// scenario file or from flags, and overlaid onto a
        /// [`crate::SimulationBuilder`] (settings applied later win).
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct Scenario {
            $($(#[doc = $doc])* pub $field: Option<$ty>,)*
        }

        /// Every run setting, in `--help` order.
        pub const SETTINGS: &[Setting] = &[$(Setting {
            key: $key,
            arg: $arg,
            help: $help,
            set: |s, value| {
                s.$field = Some($parse($key, value)?);
                Ok(())
            },
        },)*];

        impl Scenario {
            /// Overlays `other`: every setting it has replaces this one's.
            pub(crate) fn overlay(&mut self, other: &Scenario) {
                $(if other.$field.is_some() {
                    self.$field.clone_from(&other.$field);
                })*
            }
        }
    };
}

settings! {
    /// Registry names of the systems to compare.
    systems: Vec<String> = "systems" list "a,b,c"
        "systems to compare (default SILO,baseline;\nsee --list-systems)";
    /// Workload spec strings (preset names or custom parameterizations).
    workloads: Vec<String> = "workloads" workloads "a,b,c"
        "comma-separated workloads: presets, custom\nspecs like \
         zipf:theta=0.9,footprint=4x, or\ntrace:file=PATH to replay a .silotrace capture";
    /// Core-count axis.
    cores: Vec<usize> = "cores" list "LIST" "cores / mesh nodes (default 16, max 64)";
    /// Capacity-scale axis.
    scales: Vec<u64> = "scale" list "LIST"
        "capacity scaling factor for caches AND working\nsets (default 64; \
         1 = full 256 MiB vaults)";
    /// MSHR-count axis.
    mlps: Vec<usize> = "mlp" list "LIST" "MSHRs per core (default 8)";
    /// Vault-design names.
    vaults: Vec<String> = "vault" list "LIST"
        "vault designs from the silo-dram sweep:\n'latency' (256 MiB-class), 'capacity'\n\
         (512 MiB-class), or 'table2' (the Table II\nconstants, default)";
    /// Workload RNG seed.
    seed: u64 = "seed" scalar "N" "workload RNG seed (default 42)";
    /// Per-core reference-count override.
    refs: usize = "refs" scalar "N" "references per core (default: per-workload preset)";
    /// Worker threads.
    threads: usize = "threads" scalar "N"
        "worker threads (default: available parallelism,\nat least 4)";
    /// Telemetry warmup window in references (0 disables it).
    warmup: u64 = "warmup" scalar "N"
        "telemetry: treat the first N references (summed\nacross cores) as cache \
         warmup — measurement\ncounters reset, simulated state is kept (0 = off)";
    /// Telemetry epoch length in references.
    epoch: u64 = "epoch" scalar "N"
        "telemetry: record a timeline epoch every N\nreferences (IPC, served levels, \
         LLC latency\npercentiles, link utilization, vault occupancy)";
    /// Run-time invariant oracle period in references (`--check`).
    check: u64 = "check" scalar "N"
        "run-time invariant oracle: every N references,\nre-verify the engine's \
         structural invariants\n(directory consistency, occupancy accounting)\nand \
         the run loop's cross-layer assertions\n(MSHR bounds, counter monotonicity); \
         results\nstay bit-identical to an unchecked run";
    /// Hot-loop self-profiler toggle (`--profile`).
    profile: bool = "profile" on_off ""
        "hot-loop self-profiler: time each stage of\nevery run's batch loop (caller: \
         pull / retire /\nwait; engine: execute / wait) with a few clock\nreads per \
         batch, and print the phase tree and\nthe stage that bounds the run; results \
         stay\nbit-identical to an unprofiled run (mutually\nexclusive with --check)";
}

/// Parses a comma-separated list, skipping empty segments (so `a,,b`
/// and trailing commas are fine).
///
/// # Errors
///
/// Names `key` and the first item that does not parse as `T`, or says
/// the list is empty.
pub fn list<T: FromStr>(key: &str, value: &str) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    for part in value.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        out.push(scalar(key, part)?);
    }
    if out.is_empty() {
        return Err(format!("{key} needs at least one value"));
    }
    Ok(out)
}

/// Parses one value of `key`.
///
/// # Errors
///
/// Names `key` and `value` when it does not parse as `T`.
pub fn scalar<T: FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad {key} value '{value}'"))
}

/// Parses a boolean: `1`/`0`, `true`/`false`, `on`/`off`
/// (case-insensitive).
fn on_off(key: &str, value: &str) -> Result<bool, String> {
    match value.to_ascii_lowercase().as_str() {
        "1" | "true" | "on" => Ok(true),
        "0" | "false" | "off" => Ok(false),
        _ => Err(format!(
            "bad {key} value '{value}' (use 1/0, true/false, or on/off)"
        )),
    }
}

/// Grammar reminder appended to workload-spec failures, so a scenario
/// author sees the accepted forms without leaving the error message.
const SPEC_HINT: &str = " (workload specs are preset names, base:key=value custom \
     forms like zipf:theta=0.9,footprint=4x, or trace:file=PATH replays \
     of .silotrace captures — see --list-workloads)";

/// Validates one workload spec, so a malformed parameter is reported
/// where it was written, not later by the builder.
fn workload(spec: &str) -> Result<(), String> {
    WorkloadSpec::parse(spec)
        .map(drop)
        .map_err(|e| format!("{e}{SPEC_HINT}"))
}

/// Splits a workload list with the `--workloads` grammar and validates
/// every spec.
fn workloads(key: &str, value: &str) -> Result<Vec<String>, String> {
    let items = WorkloadSpec::split_list(value).map_err(|e| format!("{e}{SPEC_HINT}"))?;
    if items.is_empty() {
        return Err(format!("{key} needs at least one value"));
    }
    items.iter().try_for_each(|item| workload(item))?;
    Ok(items)
}

/// Cuts a line at its comment: a `#` at the start of the line or after
/// whitespace.
fn strip_comment(line: &str) -> &str {
    let mut prev = ' ';
    for (i, c) in line.char_indices() {
        if c == '#' && prev.is_whitespace() {
            return &line[..i];
        }
        prev = c;
    }
    line
}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError::Scenario {
        line,
        message: message.into(),
    }
}

impl Scenario {
    /// Parses `value` as the setting `key` and stores it, replacing any
    /// earlier value.
    ///
    /// # Errors
    ///
    /// Returns a message naming the key and the offending value: an
    /// unknown key, a malformed number or boolean, an empty list, or an
    /// invalid workload spec (restating the spec grammar).
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let setting = SETTINGS
            .iter()
            .find(|s| s.key == key)
            .ok_or_else(|| format!("unknown key '{key}'"))?;
        (setting.set)(self, value)
    }

    /// Parses a scenario document.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Scenario`] with the offending 1-based line
    /// number for any syntax problem: missing `=`, unknown or duplicate
    /// keys, unparseable values, or empty lists.
    pub fn parse(text: &str) -> Result<Scenario, ConfigError> {
        let mut s = Scenario::default();
        let mut seen: Vec<String> = Vec::new();
        let mut appended: Vec<String> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let n = i + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(n, format!("expected 'key = value', got '{line}'")))?;
            let (key, value) = (key.trim().to_ascii_lowercase(), value.trim());
            if value.is_empty() {
                return Err(err(n, format!("key '{key}' has no value")));
            }
            if key == "workload" {
                workload(value).map_err(|m| err(n, m))?;
                appended.push(value.to_string());
                continue;
            }
            if seen.contains(&key) {
                return Err(err(n, format!("duplicate key '{key}'")));
            }
            s.set(&key, value).map_err(|m| err(n, m))?;
            seen.push(key);
        }
        if !appended.is_empty() {
            s.workloads.get_or_insert_with(Vec::new).extend(appended);
        }
        Ok(s)
    }

    /// Reads and parses a scenario file.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Io`] when the file cannot be read and
    /// [`ConfigError::Scenario`] for parse failures.
    pub fn load(path: &Path) -> Result<Scenario, ConfigError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigError::Io(format!("cannot read {}: {e}", path.display())))?;
        Scenario::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_scenario() {
        let s = Scenario::parse(
            "# three-way comparison\n\
             systems = SILO, baseline, baseline-2x\n\
             workloads = uniform-private, zipf:theta=0.9,footprint=4x\n\
             workload = pointer-chase:dependent=0.8  # appended\n\
             cores = 4, 8\n\
             scale = 64\n\
             mlp = 8\n\
             vault = table2\n\
             seed = 42\n\
             refs = 4000\n\
             threads = 2\n\
             warmup = 800\n\
             epoch = 1000\n\
             check = 5000\n\
             profile = off\n",
        )
        .expect("valid scenario");
        assert_eq!(
            s.systems.as_deref(),
            Some(&["SILO".to_string(), "baseline".into(), "baseline-2x".into()][..])
        );
        assert_eq!(
            s.workloads.as_deref(),
            Some(
                &[
                    "uniform-private".to_string(),
                    "zipf:theta=0.9,footprint=4x".into(),
                    "pointer-chase:dependent=0.8".into(),
                ][..]
            )
        );
        assert_eq!(s.cores.as_deref(), Some(&[4usize, 8][..]));
        assert_eq!(s.scales.as_deref(), Some(&[64u64][..]));
        assert_eq!(s.seed, Some(42));
        assert_eq!(s.refs, Some(4000));
        assert_eq!(s.threads, Some(2));
        assert_eq!(s.warmup, Some(800));
        assert_eq!(s.epoch, Some(1000));
        assert_eq!(s.check, Some(5000));
        assert_eq!(s.profile, Some(false));
    }

    #[test]
    fn profile_accepts_every_boolean_spelling() {
        for (value, want) in [
            ("1", true),
            ("true", true),
            ("ON", true),
            ("0", false),
            ("False", false),
            ("off", false),
        ] {
            let s = Scenario::parse(&format!("profile = {value}\n")).expect(value);
            assert_eq!(s.profile, Some(want), "profile = {value}");
        }
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let s = Scenario::parse("\n# all comments\n\n  # indented\n").expect("empty is fine");
        assert_eq!(s, Scenario::default());
    }

    #[test]
    fn malformed_lines_report_their_line_number() {
        for (text, needle) in [
            ("cores 16", "expected 'key = value'"),
            ("warp = 9", "unknown key"),
            ("cores = twelve", "bad cores value"),
            ("cores =", "no value"),
            ("seed = 1\nseed = 2", "duplicate key"),
            ("workloads = footprint=4x", "must follow"),
            ("workloads = zipf:theta=skewed", "not a number"),
            ("workload = zipf:bogus=1", "unknown parameter"),
            ("warmup = soon", "bad warmup value"),
            ("epoch = -5", "bad epoch value"),
            ("check = never", "bad check value"),
            ("profile = maybe", "bad profile value"),
            ("profile = 1\nprofile = 0", "duplicate key"),
            ("cores = ,", "at least one value"),
            ("systems = ,", "at least one value"),
            ("vault = ,", "at least one value"),
        ] {
            let e = Scenario::parse(text).expect_err(text);
            match e {
                ConfigError::Scenario { line, message } => {
                    assert!(line >= 1, "{text}: line {line}");
                    assert!(
                        message.contains(needle),
                        "'{text}' produced '{message}', wanted '{needle}'"
                    );
                }
                other => panic!("'{text}' produced non-scenario error {other:?}"),
            }
        }
    }

    #[test]
    fn workload_spec_errors_restate_the_grammar() {
        for text in [
            "workloads = zipf:bogus=1",
            "workload = trace:file=",
            "workloads = footprint=4x",
        ] {
            let e = Scenario::parse(text).expect_err(text);
            let msg = e.to_string();
            assert!(
                msg.contains("base:key=value") && msg.contains("trace:file=PATH"),
                "'{text}' error must document the spec grammar, got: {msg}"
            );
        }
    }

    #[test]
    fn load_reports_missing_files_as_io_errors() {
        let e = Scenario::load(Path::new("/nonexistent/x.scenario")).expect_err("missing");
        assert!(matches!(e, ConfigError::Io(_)));
    }

    #[test]
    fn a_hash_inside_a_value_is_not_a_comment() {
        let s = Scenario::parse(
            "workloads = trace:file=/tmp/a#b.silotrace  # comment\n\
             # a full-line comment\n\
             seed = 7 #trailing\n",
        )
        .expect("valid scenario");
        assert_eq!(
            s.workloads.as_deref(),
            Some(&["trace:file=/tmp/a#b.silotrace".to_string()][..])
        );
        assert_eq!(s.seed, Some(7));
    }

    #[test]
    fn every_setting_has_a_distinct_key_and_help() {
        for (i, setting) in SETTINGS.iter().enumerate() {
            assert!(!setting.help.is_empty(), "{}", setting.key);
            assert!(
                SETTINGS[..i].iter().all(|s| s.key != setting.key),
                "duplicate key {}",
                setting.key
            );
        }
        assert_eq!(SETTINGS.len(), 13);
    }

    #[test]
    fn set_replaces_and_overlay_keeps_unset_settings() {
        let mut base = Scenario::default();
        base.set("cores", "4, 8").expect("valid");
        base.set("seed", "3").expect("valid");
        base.set("seed", "5").expect("valid");
        assert_eq!(base.seed, Some(5), "a later set replaces the value");
        let mut top = Scenario::default();
        top.set("cores", "16").expect("valid");
        base.overlay(&top);
        assert_eq!(base.cores.as_deref(), Some(&[16usize][..]));
        assert_eq!(base.seed, Some(5), "settings the overlay lacks survive");
        assert_eq!(
            Scenario::default().set("warp", "9"),
            Err("unknown key 'warp'".into())
        );
    }
}
