//! The traced run's per-layer battery. Hot-loop layers are split by
//! isolated passes over one materialised round-robin reference stream
//! (a clock read per reference would swamp what it measures); service
//! layers are timed call by call through the library and one probe
//! daemon. Every step runs inside a span of the run's tracer.

use crate::env::Tracer;
use crate::env::{rss_mib, RUN_DIR};
use crate::loops::drain;
use crate::serve::{prom_value, submit, workers, Daemon, CACHED_PER_COLD};
use crate::stats::{median, Report};
use silo_coherence::AccessResult;
use silo_obs::SpanRecorder;
use silo_serve::{JobEngine, RowCache};
use silo_sim::{
    canon, run_metered_source, Json, MeterConfig, Protocol, SimJobEngine, SliceTrace,
    SyntheticTrace, SystemConfig, SystemSpec, TraceHeader, TraceReader, TraceSource, TraceWriter,
    WorkloadSpec,
};
use silo_types::MemRef;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Duration;

/// Repetitions of each timed step; the median is reported.
const REPS: usize = 3;

/// One workload's inputs to the battery.
pub struct Battery {
    /// The simulated machine.
    pub cfg: SystemConfig,
    /// Systems instantiated per point; the first is the one simulated.
    pub systems: Vec<SystemSpec>,
    /// The synthetic generator behind the stream.
    pub generator: WorkloadSpec,
    /// The generator seed.
    pub seed: u64,
    /// The workload as a scenario, for the service layers.
    pub scenario: String,
    /// A fresh directory for the battery's cache rows.
    pub scratch: PathBuf,
}

fn ns_per(d: Duration, n: usize) -> f64 {
    d.as_secs_f64() * 1e9 / n.max(1) as f64
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Writes the recorder's spans as a Chrome trace under [`RUN_DIR`].
pub fn write_trace(rec: &SpanRecorder, workload: &str, seed: u64) {
    let path = std::path::Path::new(RUN_DIR).join(format!("trace-{workload}-seed{seed}.json"));
    match std::fs::write(&path, rec.chrome_json()) {
        Ok(()) => println!(
            "{workload}: wrote {} spans to {}",
            rec.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
}

impl Battery {
    /// The battery's generator at its seed.
    pub fn generator_source(&self) -> SyntheticTrace {
        SyntheticTrace::new(&self.generator, self.cfg.cores, self.cfg.scale, self.seed)
    }

    /// Runs every step over the workload's own input `source`, adding
    /// each layer's metrics to `report`.
    pub fn run(&self, source: &mut dyn TraceSource, report: &mut Report, tracer: &Tracer) {
        let (traces, _) = tracer.span("materialise", "trace", None, |_| {
            let mut traces: Vec<Vec<MemRef>> = vec![Vec::new(); self.cfg.cores];
            drain(source, self.cfg.cores, |c, mr| traces[c].push(mr));
            traces
        });
        let refs: usize = traces.iter().map(Vec::len).sum();
        report.check(refs > 0, "the battery stream is empty");
        self.workload_layer(report, tracer);
        self.trace_layer(report, tracer, &traces, refs);
        self.registry_layer(report, tracer);
        let engine_ns = self.coherence_layer(report, tracer, &traces, refs);
        self.timing_layer(report, tracer, &traces, refs, engine_ns);
        if let Err(e) = self.service_layers(report, tracer) {
            report.check(false, &format!("service battery: {e}"));
        }
    }

    fn workload_layer(&self, report: &mut Report, tracer: &Tracer) {
        let mut samples = Vec::new();
        for _ in 0..REPS {
            let (n, took) = tracer.span("pull", "workload", None, |_| {
                let mut n = 0usize;
                drain(&mut self.generator_source(), self.cfg.cores, |c, mr| {
                    black_box((c, mr));
                    n += 1;
                });
                n
            });
            samples.push(ns_per(took, n));
        }
        report.put("workload.pull_ns_per_ref", median(&samples), "ns");
    }

    fn trace_layer(
        &self,
        report: &mut Report,
        tracer: &Tracer,
        traces: &[Vec<MemRef>],
        refs: usize,
    ) {
        let header = TraceHeader {
            cores: self.cfg.cores,
            refs_per_core: traces.first().map_or(0, Vec::len) as u64,
            seed: self.seed,
            name: self.generator.name.clone(),
            provenance: "perfbench battery".into(),
        };
        let (mut write, mut read, mut bytes) = (Vec::new(), Vec::new(), 0);
        for _ in 0..REPS {
            let (buf, took) = tracer.span("write", "trace", None, |_| {
                let mut w = TraceWriter::new(Vec::with_capacity(refs * 4), &header)
                    .map_err(|e| e.to_string())?;
                let mut res = Ok(());
                drain(&mut SliceTrace::new(traces), self.cfg.cores, |c, mr| {
                    if res.is_ok() {
                        res = w.write(c, mr);
                    }
                });
                res.map_err(|e| e.to_string())?;
                w.finish().map_err(|e| e.to_string())
            });
            let buf = match buf {
                Ok(b) => b,
                Err(e) => return report.check(false, &format!("trace write: {e}")),
            };
            write.push(ns_per(took, refs));
            bytes = buf.len();
            let (decoded, took) = tracer.span("read", "trace", None, |_| {
                let mut back: Vec<Vec<MemRef>> = vec![Vec::new(); self.cfg.cores];
                let mut reader = TraceReader::new(&buf[..]).map_err(|e| e.to_string())?;
                drain(&mut reader, self.cfg.cores, |c, mr| back[c].push(mr));
                Ok::<_, String>(back)
            });
            read.push(ns_per(took, refs));
            report.check(
                decoded.as_deref() == Ok(traces),
                "the trace round trip changed the stream",
            );
        }
        report.put("trace.write_ns_per_ref", median(&write), "ns");
        report.put("trace.read_ns_per_ref", median(&read), "ns");
        report.put(
            "trace.bytes_per_ref",
            bytes as f64 / refs.max(1) as f64,
            "B",
        );
    }

    fn registry_layer(&self, report: &mut Report, tracer: &Tracer) {
        let (mut ms, mut mib) = (Vec::new(), Vec::new());
        for _ in 0..REPS {
            let before = rss_mib();
            let (instances, took) = tracer.span("instantiate", "registry", None, |_| {
                self.systems
                    .iter()
                    .map(|s| s.instantiate(&self.cfg))
                    .collect::<Vec<_>>()
            });
            mib.push(rss_mib() - before);
            ms.push(took.as_secs_f64() * 1e3);
            drop(instances);
        }
        report.put("registry.instantiate_ms", median(&ms), "ms");
        report.put("registry.instance_rss_mib", median(&mib), "MiB");
    }

    /// The engine-only pass; returns its median ns per reference.
    fn coherence_layer(
        &self,
        report: &mut Report,
        tracer: &Tracer,
        traces: &[Vec<MemRef>],
        refs: usize,
    ) -> f64 {
        let (mut ns, mut steps, mut background) = (Vec::new(), 0usize, 0usize);
        for _ in 0..REPS {
            let mut engine = self.systems[0].instantiate(&self.cfg).engine;
            let mut out = AccessResult::default();
            let (counts, took) = tracer.span("access", "coherence", None, |_| {
                let (mut steps, mut background) = (0, 0);
                drain(&mut SliceTrace::new(traces), self.cfg.cores, |c, mr| {
                    engine.access_into(c, mr, &mut out);
                    steps += out.steps.len();
                    background += out.background.len();
                });
                (steps, background)
            });
            ns.push(ns_per(took, refs));
            (steps, background) = counts;
        }
        let per = |n: usize| n as f64 / refs.max(1) as f64;
        let engine_ns = median(&ns);
        report.put("coherence.access_ns_per_ref", engine_ns, "ns");
        report.put("coherence.steps_per_access", per(steps), "1");
        report.put("coherence.background_per_access", per(background), "1");
        engine_ns
    }

    fn timing_layer(
        &self,
        report: &mut Report,
        tracer: &Tracer,
        traces: &[Vec<MemRef>],
        refs: usize,
        engine_ns: f64,
    ) {
        let mut ns = Vec::new();
        let mut last = None;
        for _ in 0..REPS {
            let mut inst = self.systems[0].instantiate(&self.cfg);
            let ((stats, _), took) = tracer.span("run", "timing", None, |_| {
                run_metered_source(
                    &mut inst.engine,
                    &mut inst.timing,
                    &self.cfg,
                    &self.generator.name,
                    &mut SliceTrace::new(traces),
                    &MeterConfig::default(),
                )
            });
            ns.push(ns_per(took, refs));
            last = Some((stats, inst.timing));
        }
        let Some((stats, timing)) = last else { return };
        report.check(
            stats.served.total() == refs as u64,
            "battery run: served levels do not sum to the stream",
        );
        report.put("timing.self_ns_per_ref", median(&ns) - engine_ns, "ns");
        let s = &stats.served;
        use silo_coherence::ServedBy;
        report.put("sim.llc_accesses", stats.llc_accesses as f64, "count");
        report.put("sim.served_l1", s.fraction(ServedBy::L1), "1");
        report.put(
            "sim.served_local_vault",
            s.fraction(ServedBy::LocalVault),
            "1",
        );
        report.put(
            "sim.served_remote_vault",
            s.fraction(ServedBy::RemoteVault),
            "1",
        );
        report.put(
            "sim.served_shared_llc",
            s.fraction(ServedBy::SharedLlc),
            "1",
        );
        report.put("sim.served_memory", s.fraction(ServedBy::Memory), "1");
        report.put(
            "sim.mean_llc_latency_cycles",
            stats.mean_llc_latency(),
            "cycles",
        );
        report.put(
            "sim.memory_accesses",
            timing.memory_accesses() as f64,
            "count",
        );
        report.put("noc.mesh_messages", stats.mesh_messages as f64, "count");
        report.put("noc.avg_hops", stats.avg_hops(), "1");
        report.put(
            "noc.max_link_flits",
            stats.mesh_max_link_flits as f64,
            "count",
        );
        report.put(
            "dram.vault_busy_cycles",
            timing.vault_busy_cycles() as f64,
            "count",
        );
    }

    fn service_layers(&self, report: &mut Report, tracer: &Tracer) -> Result<(), String> {
        let mut plan_us = Vec::new();
        let mut plan = None;
        for _ in 0..REPS * 3 {
            let (p, took) = tracer.span("plan", "scenario", None, |_| {
                SimJobEngine.plan(&self.scenario)
            });
            plan_us.push(us(took));
            plan = Some(p?);
        }
        let plan = plan.ok_or("no plan")?;
        report.put("scenario.plan_us", median(&plan_us), "us");
        let spec = plan.job.spec();
        let points = spec.points();
        let mut key_us = Vec::new();
        for _ in 0..REPS * 3 {
            let (keys, took) = tracer.span("point_key", "canon", None, |_| {
                points
                    .iter()
                    .map(|p| canon::point_key(spec, p))
                    .collect::<Result<Vec<_>, _>>()
            });
            keys?;
            key_us.push(us(took) / points.len() as f64);
        }
        report.put("canon.point_key_us", median(&key_us), "us");

        let mut rows = Vec::new();
        let mut point_ms = Vec::new();
        for i in 0..plan.points {
            let (out, took) = tracer.span("run_point", "bench", None, |_| {
                SimJobEngine.run_point(&plan.job, i)
            });
            rows.push(out?.row);
            point_ms.push(took.as_secs_f64() * 1e3);
        }
        report.put("bench.point_ms", median(&point_ms), "ms");
        self.telemetry_layer(report, tracer, &plan.job)?;

        let mut doc_ms = Vec::new();
        for _ in 0..REPS * 3 {
            let (doc, took) = tracer.span("document", "json", None, |_| {
                SimJobEngine.document(&plan.job, &rows)
            });
            let n = Json::parse(&doc)?
                .get("points")
                .and_then(Json::as_arr)
                .map_or(0, <[Json]>::len);
            report.check(n == rows.len(), "document row count");
            doc_ms.push(took.as_secs_f64() * 1e3);
        }
        report.put("json.document_ms", median(&doc_ms), "ms");
        let row_bytes = rows.iter().map(String::len).sum::<usize>() as f64 / rows.len() as f64;
        report.put("json.row_bytes", row_bytes, "B");

        self.cache_layer(report, tracer, &rows)?;
        self.daemon_layer(report, tracer)
    }

    /// `run_point` under the scenario's meter against the same point
    /// with the meter off, alternated.
    fn telemetry_layer(
        &self,
        report: &mut Report,
        tracer: &Tracer,
        metered: &silo_sim::SimJob,
    ) -> Result<(), String> {
        let unmetered_body: String = self
            .scenario
            .lines()
            .filter(|l| !l.starts_with("warmup") && !l.starts_with("epoch"))
            .map(|l| format!("{l}\n"))
            .collect();
        let unmetered = SimJobEngine.plan(&unmetered_body)?;
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for _ in 0..REPS {
            for (job, name, times) in [
                (metered, "point_metered", &mut on),
                (&unmetered.job, "point_unmetered", &mut off),
            ] {
                let (out, took) =
                    tracer.span(name, "telemetry", None, |_| SimJobEngine.run_point(job, 0));
                out?;
                times.push(took.as_secs_f64());
            }
        }
        report.put("telemetry.overhead_ratio", median(&on) / median(&off), "1");
        Ok(())
    }

    fn cache_layer(
        &self,
        report: &mut Report,
        tracer: &Tracer,
        rows: &[String],
    ) -> Result<(), String> {
        let cache =
            RowCache::open(&self.scratch.join("rows"), 100_000).map_err(|e| e.to_string())?;
        let (mut put_us, mut get_us) = (Vec::new(), Vec::new());
        for rep in 0..REPS * 10 {
            for (i, row) in rows.iter().enumerate() {
                let key =
                    silo_types::sha::sha256_hex(format!("{}:{rep}:{i}", self.seed).as_bytes());
                let (put, took) = tracer.span("put", "serve", None, |_| cache.put(&key, row));
                put.map_err(|e| e.to_string())?;
                put_us.push(us(took));
                let (got, took) = tracer.span("get", "serve", None, |_| cache.get(&key));
                get_us.push(us(took));
                report.check(got.as_deref() == Some(row.as_str()), "row cache read back");
            }
        }
        report.put("serve.cache_get_us", median(&get_us), "us");
        report.put("serve.cache_put_us", median(&put_us), "us");
        Ok(())
    }

    /// A probe daemon serving the workload's scenario with the serve
    /// workload's traffic mix: one cold submission, then cached ones.
    fn daemon_layer(&self, report: &mut Report, tracer: &Tracer) -> Result<(), String> {
        let daemon = Daemon::start(&self.scratch.join("daemon")).map_err(|e| e.to_string())?;
        daemon.wait_healthy()?;
        let addr = daemon.addr();
        let (cold, cold_wall) = tracer.span("cold-request", "http", None, |id| {
            submit(addr, &self.scenario, tracer, id)
        });
        let cold = cold?;
        for _ in 0..CACHED_PER_COLD {
            let (again, _) = tracer.span("cached-request", "http", None, |id| {
                submit(addr, &self.scenario, tracer, id)
            });
            report.check(again? == cold, "probe daemon: cached document differs");
        }
        let mut rtt = Vec::new();
        for _ in 0..REPS * 20 {
            let (resp, took) = tracer.span("healthz", "http", None, |_| {
                crate::http::request(addr, "GET", "/healthz", "")
            });
            report.check(
                resp.is_ok_and(|r| r.status == 200),
                "probe daemon: /healthz",
            );
            rtt.push(us(took));
        }
        let metrics = crate::http::request(addr, "GET", "/metrics", "")
            .map_err(|e| e.to_string())?
            .body;
        let value = |name: &str| prom_value(&metrics, name).ok_or(format!("/metrics lacks {name}"));
        let (hits, misses) = (
            value("silo_serve_cache_hits_total")?,
            value("silo_serve_cache_misses_total")?,
        );
        let busy_us = value("silo_serve_point_run_microseconds_sum")?;
        report.put("serve.cache_hit_ratio", hits / (hits + misses), "1");
        report.put("http.roundtrip_us", median(&rtt), "us");
        report.put(
            "bench.worker_efficiency",
            busy_us / (workers() as f64 * us(cold_wall)),
            "1",
        );
        Ok(())
    }
}
