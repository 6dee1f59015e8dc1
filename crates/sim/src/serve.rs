//! The simulator behind `silo-sim serve`: wires the generic
//! `silo-serve` daemon to this crate's scenario parser, validation
//! path, sweep decomposition, and row renderer.
//!
//! A submission body is a scenario file — the same `key = value`
//! format `--scenario` loads — validated through the exact
//! [`Simulation::builder`] path the CLI uses, so the daemon rejects
//! precisely what the CLI rejects, with the same messages. Planning
//! resolves the scenario to a [`SweepSpec`], expands its points, and
//! content-addresses each one via [`crate::canon`]; running a point is
//! [`crate::bench::run_point`] plus the [`crate::bench::record_json`]
//! renderer, so a served row is byte-identical to the corresponding
//! row of a direct `silo-sim` run — and the assembled document
//! ([`crate::canon::document_from_rows`]) byte-identical to `--json`
//! output, `wall_ms` values aside.

use crate::bench::{record_json, run_point, SweepPoint, SweepSpec};
use crate::builder::Simulation;
use crate::canon;
use crate::scenario::Scenario;
use crate::timeline::epoch_ndjson;
use silo_serve::{JobEngine, JobPlan, PointOutput};

/// One planned serve job: the resolved sweep, its expanded points, and
/// their precomputed content keys (trace files are hashed exactly once,
/// at plan time).
pub struct SimJob {
    spec: SweepSpec,
    points: Vec<SweepPoint>,
    keys: Vec<String>,
}

impl SimJob {
    /// The resolved sweep this job runs.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }
}

/// The [`JobEngine`] implementation backing `silo-sim serve`.
pub struct SimJobEngine;

impl JobEngine for SimJobEngine {
    type Job = SimJob;

    fn plan(&self, body: &str) -> Result<JobPlan<SimJob>, String> {
        let scenario = Scenario::parse(body).map_err(|e| e.to_string())?;
        let sim = Simulation::builder()
            .scenario(&scenario)
            .build()
            .map_err(|e| e.to_string())?;
        let spec = sim.spec().clone();
        let points = spec.points();
        let keys = canon::point_keys(&spec)?;
        let sweep_hash = canon::sweep_hash_of_keys(&keys);
        Ok(JobPlan {
            points: points.len(),
            job: SimJob { spec, points, keys },
            sweep_hash,
        })
    }

    fn point_key(&self, job: &SimJob, index: usize) -> String {
        job.keys[index].clone()
    }

    fn run_point(&self, job: &SimJob, index: usize) -> Result<PointOutput, String> {
        let record = run_point(&job.spec, &job.points[index]);
        Ok(PointOutput {
            row: record_json(&record).to_string(),
            events: epoch_ndjson(&record),
        })
    }

    fn document(&self, job: &SimJob, rows: &[String]) -> String {
        canon::document_from_rows(rows, job.spec.seed)
            .expect("cached rows are rows this engine rendered")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCENARIO: &str = "\
systems = SILO, baseline
workloads = uniform-private
cores = 2
scale = 64, 128
refs = 400
seed = 9
";

    #[test]
    fn plan_resolves_points_and_keys() {
        let plan = SimJobEngine.plan(SCENARIO).expect("valid scenario");
        assert_eq!(plan.points, 2);
        assert_eq!(plan.sweep_hash.len(), 64);
        let k0 = SimJobEngine.point_key(&plan.job, 0);
        let k1 = SimJobEngine.point_key(&plan.job, 1);
        assert_ne!(k0, k1);
    }

    #[test]
    fn plan_rejects_what_the_builder_rejects() {
        let Err(err) = SimJobEngine.plan("systems = no-such-system\n") else {
            panic!("unknown system must fail to plan");
        };
        assert!(err.contains("no-such-system"), "{err}");
        assert!(SimJobEngine.plan("cores = zero\n").is_err());
    }

    /// Drops every `wall_ms` field — the one host-dependent value in a
    /// bench document — so two independent runs can be compared.
    fn strip_wall_ms(j: &mut crate::json::Json) {
        use crate::json::Json;
        match j {
            Json::Obj(fields) => {
                fields.retain(|(k, _)| k != "wall_ms");
                for (_, v) in fields {
                    strip_wall_ms(v);
                }
            }
            Json::Arr(items) => {
                for item in items {
                    strip_wall_ms(item);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn epoch_metered_points_emit_typed_epoch_events() {
        let scenario = "\
systems = SILO, baseline
workloads = uniform-private
cores = 2
refs = 600
epoch = 400
seed = 9
";
        let plan = SimJobEngine.plan(scenario).expect("valid scenario");
        let out = SimJobEngine.run_point(&plan.job, 0).expect("point runs");
        // ceil(2 cores x 600 refs / 400 per epoch) = 3 epochs x 2 systems.
        assert_eq!(out.events.len(), 6);
        for line in &out.events {
            assert!(line.starts_with("{\"type\":\"epoch\","), "{line}");
            assert!(!line.contains("\"point\""), "no job-local index: {line}");
            crate::json::Json::parse(line).expect("event line parses");
        }
        // The events are exactly the record's timeline rendering.
        let record = run_point(plan.job.spec(), &plan.job.spec().points()[0]);
        assert_eq!(out.events, epoch_ndjson(&record));
    }

    #[test]
    fn run_point_rows_assemble_into_the_direct_document() {
        let plan = SimJobEngine.plan(SCENARIO).expect("valid scenario");
        let rows: Vec<String> = (0..plan.points)
            .map(|i| {
                let out = SimJobEngine.run_point(&plan.job, i).expect("point runs");
                assert!(out.events.is_empty(), "no epoch meter, no events");
                out.row
            })
            .collect();
        let doc = SimJobEngine.document(&plan.job, &rows);
        let direct = format!(
            "{}\n",
            crate::bench::sweep_json(
                &crate::bench::run_sweep(plan.job.spec(), 1),
                plan.job.spec().seed
            )
        );
        let mut served = crate::json::Json::parse(&doc).expect("served doc parses");
        let mut want = crate::json::Json::parse(&direct).expect("direct doc parses");
        strip_wall_ms(&mut served);
        strip_wall_ms(&mut want);
        assert_eq!(
            served.to_string(),
            want.to_string(),
            "served document is bit-identical, wall_ms aside"
        );
    }
}
