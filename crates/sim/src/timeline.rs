//! Timeline CSV export.
//!
//! Renders the epoch rows of every `(sweep point, system)` run into a
//! single flat CSV, one line per epoch, keyed by the point dimensions
//! and the system name. Written by `silo-sim --timeline <path>` next to
//! the `silo-bench/v1` JSON; columns are documented in the README's
//! "Telemetry & timelines" section.
//!
//! Rendering is purely a function of the simulated results, so the CSV
//! is bit-identical whether the sweep ran sequentially or across worker
//! threads.

use crate::bench::BenchRecord;
use silo_telemetry::ServiceLevel;
use std::fmt::Write as _;
use std::path::Path;

/// The CSV header line (no trailing newline).
pub const TIMELINE_HEADER: &str = "workload,system,cores,scale,mlp,vault,epoch,warmup,refs,\
instructions,cycles,ipc,l1,l2,local_vault,remote_vault,shared_llc,memory,llc_accesses,\
llc_p50,llc_p95,llc_p99,mesh_messages,mesh_max_link_flits,mesh_mean_link_flits,\
vault_busy_cycles,vault_occupancy";

/// RFC-4180 field quoting: custom workload specs legitimately contain
/// commas (`zipf:theta=0.9,footprint=4x`), so any field holding a
/// comma, quote, or newline is double-quoted with quotes doubled.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders the timeline CSV (header plus one line per epoch per run).
/// Runs without epoch sampling contribute no lines.
pub fn timeline_csv(records: &[BenchRecord]) -> String {
    let mut out = String::from(TIMELINE_HEADER);
    out.push('\n');
    for r in records {
        for run in &r.runs {
            for row in run.telemetry.timeline.rows() {
                let _ = write!(
                    out,
                    "{},{},{},{},{},{},{},{},{},{},{},{:.6}",
                    csv_field(&r.point.workload.name),
                    csv_field(&run.stats.system),
                    r.point.cores,
                    r.point.scale,
                    r.point.mlp,
                    r.point.vault.name(),
                    row.epoch,
                    u8::from(row.warmup),
                    row.refs,
                    row.instructions,
                    row.cycles,
                    row.ipc(),
                );
                for level in ServiceLevel::ALL {
                    let _ = write!(out, ",{}", row.served[level.index()]);
                }
                let _ = writeln!(
                    out,
                    ",{},{:.2},{:.2},{:.2},{},{},{:.3},{},{:.6}",
                    row.llc_accesses,
                    row.llc_p50,
                    row.llc_p95,
                    row.llc_p99,
                    row.mesh_messages,
                    row.mesh_max_link_flits,
                    row.mesh_mean_link_flits,
                    row.vault_busy_cycles,
                    row.vault_occupancy,
                );
            }
        }
    }
    out
}

/// Renders one record's epoch rows as typed NDJSON lines — the
/// `{"type":"epoch",...}` records `silo-sim serve` interleaves into an
/// epoch-opt-in `/jobs/ID/stream`. Every key mirrors a [`TIMELINE_HEADER`]
/// column and every value uses the exact format specifier of
/// [`timeline_csv`], so a streamed record is field-equal to the
/// corresponding CSV line. Deliberately *without* a point index: the
/// lines are cached under the point's content key, which the same point
/// can hold at a different index in another job — the daemon wraps in
/// the job-local index at stream time. Runs without epoch sampling
/// yield no lines.
pub fn epoch_ndjson(r: &BenchRecord) -> Vec<String> {
    use crate::json::Json;
    let mut out = Vec::new();
    for run in &r.runs {
        for row in run.telemetry.timeline.rows() {
            let mut line = format!(
                "{{\"type\":\"epoch\",\"workload\":{},\"system\":{},\"cores\":{},\
                 \"scale\":{},\"mlp\":{},\"vault\":{},\"epoch\":{},\"warmup\":{},\
                 \"refs\":{},\"instructions\":{},\"cycles\":{},\"ipc\":{:.6}",
                Json::Str(r.point.workload.name.clone()),
                Json::Str(run.stats.system.clone()),
                r.point.cores,
                r.point.scale,
                r.point.mlp,
                Json::Str(r.point.vault.name().into()),
                row.epoch,
                u8::from(row.warmup),
                row.refs,
                row.instructions,
                row.cycles,
                row.ipc(),
            );
            for level in ServiceLevel::ALL {
                let _ = write!(line, ",\"{}\":{}", level.name(), row.served[level.index()]);
            }
            let _ = write!(
                line,
                ",\"llc_accesses\":{},\"llc_p50\":{:.2},\"llc_p95\":{:.2},\
                 \"llc_p99\":{:.2},\"mesh_messages\":{},\"mesh_max_link_flits\":{},\
                 \"mesh_mean_link_flits\":{:.3},\"vault_busy_cycles\":{},\
                 \"vault_occupancy\":{:.6}}}",
                row.llc_accesses,
                row.llc_p50,
                row.llc_p95,
                row.llc_p99,
                row.mesh_messages,
                row.mesh_max_link_flits,
                row.mesh_mean_link_flits,
                row.vault_busy_cycles,
                row.vault_occupancy,
            );
            out.push(line);
        }
    }
    out
}

/// Writes the timeline CSV to `path` and returns the number of data
/// rows written.
///
/// # Errors
///
/// Propagates filesystem errors from the write.
pub fn write_timeline_csv(path: &Path, records: &[BenchRecord]) -> std::io::Result<usize> {
    let csv = timeline_csv(records);
    let rows = csv.lines().count() - 1;
    std::fs::write(path, csv)?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;

    #[test]
    fn header_and_rows_have_the_same_column_count() {
        let sim = Simulation::builder()
            .systems(["SILO", "baseline"])
            .workloads(["uniform-private"])
            .cores([2])
            .refs_per_core(600)
            .epoch_refs(400)
            .seed(3)
            .build()
            .expect("valid");
        let records = crate::bench::run_sweep(sim.spec(), 1);
        let csv = timeline_csv(&records);
        let mut lines = csv.lines();
        let header = lines.next().expect("header");
        assert_eq!(header, TIMELINE_HEADER);
        let columns = header.split(',').count();
        let mut rows = 0;
        for line in lines {
            assert_eq!(line.split(',').count(), columns, "row: {line}");
            rows += 1;
        }
        // 2 cores x 600 refs = 1200 refs at 400/epoch = 3 epochs for
        // each of the two systems.
        assert_eq!(rows, 6);
    }

    /// Raw text of `key`'s value in a flat one-line JSON object (no
    /// value in these records contains `,"`).
    fn field_text<'a>(line: &'a str, key: &str) -> &'a str {
        let pat = format!("\"{key}\":");
        let start = line.find(&pat).map(|i| i + pat.len()).expect("key present");
        let rest = &line[start..];
        &rest[..rest.find(",\"").unwrap_or(rest.len() - 1)]
    }

    #[test]
    fn epoch_ndjson_is_field_equal_to_the_csv() {
        let sim = Simulation::builder()
            .systems(["SILO", "baseline"])
            .workloads(["uniform-private"])
            .cores([2])
            .refs_per_core(600)
            .epoch_refs(400)
            .seed(3)
            .build()
            .expect("valid");
        let records = crate::bench::run_sweep(sim.spec(), 1);
        let lines: Vec<String> = records.iter().flat_map(epoch_ndjson).collect();
        // ceil(1200 refs / 400 per epoch) = 3 epochs x 2 systems.
        assert_eq!(lines.len(), 6);
        let csv = timeline_csv(&records);
        let columns: Vec<&str> = TIMELINE_HEADER.split(',').collect();
        for (csv_row, line) in csv.lines().skip(1).zip(&lines) {
            crate::json::Json::parse(line).expect("epoch line parses");
            assert_eq!(field_text(line, "type"), "\"epoch\"");
            for (col, raw) in columns.iter().zip(csv_row.split(',')) {
                let want = if matches!(*col, "workload" | "system" | "vault") {
                    format!("\"{raw}\"")
                } else {
                    raw.to_string()
                };
                assert_eq!(field_text(line, col), want, "column {col} of {line}");
            }
        }
    }

    #[test]
    fn comma_bearing_workload_names_are_quoted() {
        let sim = Simulation::builder()
            .systems(["SILO"])
            .workloads(["zipf:theta=0.9,footprint=4x"])
            .cores([2])
            .refs_per_core(300)
            .epoch_refs(600)
            .seed(3)
            .build()
            .expect("valid");
        let csv = timeline_csv(&crate::bench::run_sweep(sim.spec(), 1));
        let columns = TIMELINE_HEADER.split(',').count();
        let row = csv.lines().nth(1).expect("one epoch row");
        assert!(row.starts_with("\"zipf:theta=0.9,footprint=4x\",SILO,"));
        // Splitting on commas outside quotes yields the header arity.
        let mut fields = 0;
        let mut quoted = false;
        for ch in row.chars() {
            match ch {
                '"' => quoted = !quoted,
                ',' if !quoted => fields += 1,
                _ => {}
            }
        }
        assert_eq!(fields + 1, columns);
    }

    #[test]
    fn disabled_meter_renders_only_the_header() {
        let sim = Simulation::builder()
            .workloads(["uniform-private"])
            .cores([2])
            .refs_per_core(200)
            .seed(3)
            .build()
            .expect("valid");
        let records = crate::bench::run_sweep(sim.spec(), 1);
        assert_eq!(timeline_csv(&records).lines().count(), 1);
    }
}
