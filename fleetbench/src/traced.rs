//! The serial pass: every device simulated one after another under
//! `catch_unwind`, with each call into a layer timed from here, outside the
//! program. It doubles as the correctness oracle — its reports and the
//! output text it renders must match what the parallel executor produced.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use cinder_apps::TraceBackend;
use cinder_fleet::{
    simulate_device_with, DeviceReport, DeviceScratch, FaultPlan, FleetCheckpoint, FleetReport,
    PresenceTrace, ReportSlab, Scenario, StreamReport, StreamSummary, Workload,
};

use crate::pipeline::{split_point, Family};

/// Devices per executor chunk: the serial fold deals chunks of this size
/// round-robin over per-worker partial summaries, as the executors do.
const CHUNK: u64 = 16;

/// One timed call into a layer. Spans of the same device share `device`.
struct Span {
    /// Layer call, named after the function the benchmark timed.
    name: &'static str,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// The device the call served, if it served one.
    device: Option<u64>,
    /// Start, ns since the tracer was created.
    start_ns: u128,
    /// End, ns since the tracer was created.
    end_ns: u128,
}

/// In-memory span recorder. Disabled, it still times each call (the serial
/// pass needs the durations for its checks) but keeps no spans.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Opens a span (none when disabled); close it with [`Tracer::end`].
    fn begin(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.epoch.elapsed().as_nanos();
        self.spans.push(Span {
            name,
            parent,
            device: None,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    fn end(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.epoch.elapsed().as_nanos();
        }
    }

    /// Times `f` as one span and returns its result and duration.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        device: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        if self.enabled {
            let start_ns = (start - self.epoch).as_nanos();
            self.spans.push(Span {
                name,
                parent,
                device,
                start_ns,
                end_ns: start_ns + took.as_nanos(),
            });
        }
        (out, took)
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(out, "{{\"id\": {i}, \"name\": \"{}\"", s.name);
            if let Some(p) = s.parent {
                let _ = write!(out, ", \"parent\": {p}");
            }
            if let Some(d) = s.device {
                let _ = write!(out, ", \"device\": {d}");
            }
            let _ = writeln!(
                out,
                ", \"start_ns\": {}, \"end_ns\": {}}}",
                s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// What the serial pass found.
pub struct Pass {
    /// Report per device id; `None` where the device panicked.
    pub reports: Vec<Option<DeviceReport>>,
    /// The pipeline's output text rendered from the serial reports (`None`
    /// if a device panicked).
    pub text: Option<String>,
    /// Host time of the whole pass.
    pub wall: Duration,
    /// Σ host time of `simulate_device_with` over every device.
    pub device_time: Duration,
    /// Per-layer metric values by name (absent layers are left out).
    pub layers: BTreeMap<String, f64>,
    /// Checks that failed inside the pass.
    pub problems: Vec<String>,
}

fn per_call(total: Duration, calls: u64) -> f64 {
    total.as_secs_f64() / calls.max(1) as f64
}

/// Linear-interpolated quantile of an ascending slice (`p` in 0..=1).
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

fn median_us(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    quantile(&samples, 0.5) * 1e6
}

/// Simulates every device of `scenario` serially, times each layer call,
/// and renders the family's output text from the serial reports.
/// `checkpoint` is the executor's paused fleet (`storm`), whose text codec
/// the pass times and round-trips.
pub fn serial_pass(
    family: Family,
    scenario: &Scenario,
    workers: usize,
    checkpoint: Option<&FleetCheckpoint>,
    tracer: &mut Tracer,
) -> Pass {
    let start = Instant::now();
    let root = tracer.begin("serial_pass", None);
    let n = u64::from(scenario.devices);
    let mut layers = BTreeMap::new();
    let mut problems = Vec::new();

    let (_, took) = tracer.span("scenario.spec_for", root, None, || {
        for id in 0..n {
            black_box(scenario.spec_for(id));
        }
    });
    layers.insert("scenario.spec_us".into(), per_call(took, n) * 1e6);

    let mut scratch = DeviceScratch::default();
    let mut reports = Vec::with_capacity(n as usize);
    let mut device_time: Vec<(&'static str, Duration)> = Vec::with_capacity(n as usize);
    let (mut trace_s, mut plan_s, mut presence_s) = (Vec::new(), Vec::new(), Vec::new());
    for id in 0..n {
        let spec = scenario.spec_for(id);
        // The pure builders each device runs internally, re-run here so
        // their cost shows on its own.
        if let (Some(profile), Workload::Offloader) = (spec.offload, spec.workload) {
            let outages = spec.faults.and_then(|f| f.outages);
            let (_, took) = tracer.span("offload.trace_build", root, Some(id), || {
                black_box(match outages {
                    Some(o) => TraceBackend::build_with_outages(profile, spec.horizon, o),
                    None => TraceBackend::build(profile, spec.horizon),
                })
            });
            trace_s.push(took.as_secs_f64());
        }
        if let Some(config) = spec.faults.filter(|c| c.any_device_faults()) {
            let (_, took) = tracer.span("faults.plan", root, Some(id), || {
                black_box(FaultPlan::generate(
                    spec.seed,
                    spec.quantum,
                    spec.horizon,
                    &config,
                ))
            });
            plan_s.push(took.as_secs_f64());
        }
        if spec.policy.is_some() {
            let (_, took) = tracer.span("policy.presence", root, Some(id), || {
                black_box(PresenceTrace::generate(spec.seed, spec.horizon))
            });
            presence_s.push(took.as_secs_f64());
        }
        let (result, took) = tracer.span("device.simulate", root, Some(id), || {
            catch_unwind(AssertUnwindSafe(|| {
                simulate_device_with(&spec, &mut scratch)
            }))
        });
        match result {
            Ok(report) => {
                device_time.push((spec.workload.tag(), took));
                reports.push(Some(report));
            }
            Err(_) => {
                problems.push(format!("device {id} panicked"));
                scratch = DeviceScratch::default();
                reports.push(None);
            }
        }
    }
    let horizon_h = scenario.horizon.as_secs_f64() / 3_600.0;
    for tag in Workload::ALL.map(Workload::tag) {
        let (count, total) = device_time
            .iter()
            .filter(|&&(t, _)| t == tag)
            .fold((0u64, Duration::ZERO), |(c, s), &(_, d)| (c + 1, s + d));
        if count > 0 {
            layers.insert(
                format!("device.ms_per_device_hour.{tag}"),
                total.as_secs_f64() * 1e3 / (count as f64 * horizon_h),
            );
        }
    }
    let mut latencies: Vec<f64> = device_time
        .iter()
        .map(|&(_, d)| d.as_secs_f64() * 1e3)
        .collect();
    latencies.sort_by(f64::total_cmp);
    layers.insert("device.ms_p50".into(), quantile(&latencies, 0.5));
    layers.insert("device.ms_p99".into(), quantile(&latencies, 0.99));
    for (name, samples) in [
        ("offload.trace_build_us", trace_s),
        ("faults.plan_us", plan_s),
        ("policy.presence_us", presence_s),
    ] {
        if !samples.is_empty() {
            layers.insert(name.into(), median_us(samples));
        }
    }

    let ok: Vec<&DeviceReport> = reports.iter().flatten().collect();
    sim_counts(&ok, &mut layers);
    let text = (ok.len() == reports.len()).then(|| match family {
        Family::Mixed => retained(scenario, &ok, tracer, root, &mut layers),
        Family::Steady | Family::Storm => {
            streamed(family, scenario, &ok, workers, tracer, root, &mut layers)
        }
    });

    if let Some(cp) = checkpoint {
        let (text, took) = tracer.span("checkpoint.to_text", root, None, || cp.to_text());
        layers.insert("checkpoint.to_text_ms".into(), took.as_secs_f64() * 1e3);
        layers.insert("checkpoint.bytes".into(), text.len() as f64);
        let (back, took) = tracer.span("checkpoint.from_text", root, None, || {
            FleetCheckpoint::from_text(&text)
        });
        layers.insert("checkpoint.from_text_ms".into(), took.as_secs_f64() * 1e3);
        if back.as_ref() != Ok(cp) {
            problems.push("checkpoint text does not round-trip bit-exactly".into());
        }
    }
    tracer.end(root);
    Pass {
        reports,
        text,
        wall: start.elapsed(),
        device_time: device_time.iter().map(|&(_, d)| d).sum(),
        layers,
        problems,
    }
}

/// The simulated statistics: exact functions of the fleet seed, so they
/// must repeat bit for bit and no host-side speedup may move them.
fn sim_counts(reports: &[&DeviceReport], layers: &mut BTreeMap<String, f64>) {
    let sum = |f: fn(&DeviceReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
    layers.insert("sim.ops".into(), sum(|r| r.ops as f64));
    layers.insert(
        "sim.radio_activations".into(),
        sum(|r| r.radio_activations as f64),
    );
    layers.insert("sim.net_bytes".into(), sum(|r| r.net_bytes as f64));
    layers.insert("sim.starved_s".into(), sum(|r| r.starved_s));
    layers.insert(
        "sim.offload_completed".into(),
        sum(|r| r.offload_completed as f64),
    );
    layers.insert("sim.link_flaps".into(), sum(|r| r.link_flaps as f64));
    layers.insert("sim.crashes".into(), sum(|r| r.crashes as f64));
    layers.insert(
        "sim.policy_rerates".into(),
        sum(|r| r.policy_rerates as f64),
    );
    let mut lifetimes: Vec<f64> = reports.iter().map(|r| r.lifetime_h).collect();
    lifetimes.sort_by(f64::total_cmp);
    layers.insert("sim.lifetime_h_p50".into(), quantile(&lifetimes, 0.5));
}

/// `mixed`'s aggregation: slab, summary, CSV and JSON from the serial
/// reports. Returns the same text the executor's pipeline exports.
fn retained(
    scenario: &Scenario,
    reports: &[&DeviceReport],
    tracer: &mut Tracer,
    root: Option<usize>,
    layers: &mut BTreeMap<String, f64>,
) -> String {
    let n = reports.len() as u64;
    let (slab, took) = tracer.span("slab.set", root, None, || {
        let mut slab = ReportSlab::with_len(reports.len());
        for (i, r) in reports.iter().enumerate() {
            slab.set(i, r);
        }
        slab
    });
    layers.insert("slab.set_ns".into(), per_call(took, n) * 1e9);
    let (_, took) = tracer.span("slab.get", root, None, || {
        for i in 0..reports.len() {
            black_box(slab.get(i));
        }
    });
    layers.insert("slab.get_ns".into(), per_call(took, n) * 1e9);
    let report = FleetReport::new(scenario, slab);
    let (_, took) = tracer.span("report.summary", root, None, || black_box(report.summary()));
    layers.insert("report.summary_ms".into(), took.as_secs_f64() * 1e3);
    let (csv, took) = tracer.span("report.csv", root, None, || report.to_csv());
    layers.insert("report.csv_ms".into(), took.as_secs_f64() * 1e3);
    let (mut text, took) = tracer.span("report.json", root, None, || report.to_json());
    layers.insert("report.json_ms".into(), took.as_secs_f64() * 1e3);
    text.push_str(&csv);
    text
}

/// `steady`/`storm` aggregation: fold per-worker partials the way the
/// streaming executor does (and, for `storm`, the checkpointed prefix and
/// the resumed rest separately), merge, and render the stream JSON.
fn streamed(
    family: Family,
    scenario: &Scenario,
    reports: &[&DeviceReport],
    workers: usize,
    tracer: &mut Tracer,
    root: Option<usize>,
    layers: &mut BTreeMap<String, f64>,
) -> String {
    let n = reports.len() as u64;
    let split = match family {
        Family::Storm => split_point(scenario.devices),
        _ => 0,
    };
    let ranges: Vec<_> = [0..split, split..n]
        .into_iter()
        .filter(|r| !r.is_empty())
        .collect();
    let (partials, took) = tracer.span("stream.observe", root, None, || {
        ranges
            .iter()
            .map(|range| {
                let mut locals = vec![StreamSummary::new(scenario.horizon); workers];
                for id in range.clone() {
                    let worker = ((id - range.start) / CHUNK) as usize % workers;
                    locals[worker].observe(reports[id as usize]);
                }
                locals
            })
            .collect::<Vec<_>>()
    });
    layers.insert("stream.observe_ns".into(), per_call(took, n) * 1e9);
    let merges = partials.iter().map(|p| p.len() as u64 + 1).sum();
    let (summary, took) = tracer.span("stream.merge", root, None, || {
        let mut total = StreamSummary::new(scenario.horizon);
        for locals in &partials {
            let mut part = StreamSummary::new(scenario.horizon);
            for local in locals {
                part.merge(local);
            }
            total.merge(&part);
        }
        total
    });
    layers.insert("stream.merge_us".into(), per_call(took, merges) * 1e6);
    let report = StreamReport {
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        horizon: scenario.horizon,
        summary,
    };
    let (text, took) = tracer.span("stream.json", root, None, || report.to_json());
    layers.insert("stream.json_ms".into(), took.as_secs_f64() * 1e3);
    text
}
