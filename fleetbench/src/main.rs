//! Fleet benchmark: host milliseconds per simulated device-hour on three
//! scenario families, plus a traced serial pass that splits the cost by
//! layer. `README.md` beside this crate lists the workloads and metrics.
//!
//! ```text
//! fleetbench --workload mixed|steady|storm [--seed N] [--seconds S]
//!            [--trace 0|1] [--devices N]
//! ```
//!
//! Every run measures the untraced pipeline for `--seconds`, then
//! simulates the fleet once more serially under `catch_unwind` and checks
//! that the executor's output matches it. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones (and writes the
//! serial pass's spans under `out/`). The last line of standard output is
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod pipeline;
mod probe;
mod traced;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use cinder_fleet::Workload;

use pipeline::Family;
use traced::{quantile, Tracer};

/// The fleet seed when `--seed` is absent; the only seed with pinned digests.
const DEFAULT_SEED: u64 = 2011;
/// Devices per fleet when `--devices` is absent.
const DEFAULT_DEVICES: u32 = 1_000;
/// Fleet size of the smoke test's tiny instances (also pinned).
const SMOKE_DEVICES: u32 = 24;
/// Scenario builds timed per batch for `setup_s`; one batch runs with
/// every timed pipeline repetition.
const SETUP_REPS: usize = 51;
/// Pipeline repetitions timed per run even when `--seconds` is shorter.
const MIN_REPS: usize = 3;

/// FNV-1a 64 of each family's output text under [`DEFAULT_SEED`], by fleet
/// size. A mismatch means the program's exported bytes changed.
const PINNED: [(Family, u32, u64); 6] = [
    (Family::Mixed, DEFAULT_DEVICES, 0x695e_12a8_72b4_924c),
    (Family::Steady, DEFAULT_DEVICES, 0xa10c_d6de_66ca_2161),
    (Family::Storm, DEFAULT_DEVICES, 0x2058_a521_8881_1e0c),
    (Family::Mixed, SMOKE_DEVICES, 0xc572_aa5f_6413_2024),
    (Family::Steady, SMOKE_DEVICES, 0xad7a_5a15_11b2_b45e),
    (Family::Storm, SMOKE_DEVICES, 0x5d0f_36c2_7971_651a),
];

/// End-to-end metrics (`--trace 0`), as named in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 3] = [
    ("ms_per_device_hour", "ms/device-h"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`) besides the per-tag device costs. A
/// layer the workload does not run reads 0.
const PER_LAYER: [(&str, &str); 28] = [
    ("scenario.spec_us", "us"),
    ("device.ms_p50", "ms"),
    ("device.ms_p99", "ms"),
    ("offload.trace_build_us", "us"),
    ("faults.plan_us", "us"),
    ("policy.presence_us", "us"),
    ("executor.efficiency", "ratio"),
    ("slab.set_ns", "ns"),
    ("slab.get_ns", "ns"),
    ("report.summary_ms", "ms"),
    ("report.csv_ms", "ms"),
    ("report.json_ms", "ms"),
    ("stream.observe_ns", "ns"),
    ("stream.merge_us", "us"),
    ("stream.json_ms", "ms"),
    ("checkpoint.to_text_ms", "ms"),
    ("checkpoint.from_text_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("sim.ops", "count"),
    ("sim.radio_activations", "count"),
    ("sim.net_bytes", "bytes"),
    ("sim.starved_s", "s"),
    ("sim.offload_completed", "count"),
    ("sim.link_flaps", "count"),
    ("sim.crashes", "count"),
    ("sim.policy_rerates", "count"),
    ("sim.lifetime_h_p50", "h"),
    ("trace.overhead_ratio", "ratio"),
];

struct Args {
    family: Family,
    seed: u64,
    seconds: f64,
    trace: bool,
    devices: u32,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut family = None;
        let mut parsed = Args {
            family: Family::Mixed,
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            devices: DEFAULT_DEVICES,
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => {
                    family = Some(Family::parse(&value).ok_or_else(|| {
                        format!("unknown workload `{value}` (mixed, steady, storm)")
                    })?)
                }
                "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--devices" => parsed.devices = value.parse().map_err(|_| bad())?,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        parsed.family = family.ok_or("--workload is required")?;
        if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) || parsed.devices == 0 {
            return Err("--seconds must be ≥ 0 and --devices ≥ 1".into());
        }
        Ok(parsed)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc;
    let family = args.family;
    println!(
        "# fleetbench workload={} seed={} devices={} workers={workers} nproc={nproc} trace={}",
        family.name(),
        args.seed,
        args.devices,
        u8::from(args.trace),
    );
    let mut problems: Vec<String> = Vec::new();

    let scenario = family.scenario(args.seed, args.devices);
    let device_hours = f64::from(args.devices) * scenario.horizon.as_secs_f64() / 3_600.0;

    // Untraced end to end: one warm-up run kept as the reference output,
    // then timed repetitions for the measuring window. `walls` holds host
    // seconds, `scaled` the same rescaled to the probe's nominal speed.
    let run = || {
        catch_unwind(AssertUnwindSafe(|| {
            pipeline::run(family, &scenario, workers)
        }))
    };
    let reference = match run() {
        Ok(Ok(out)) => Some(out),
        Ok(Err(e)) => {
            problems.push(format!("pipeline failed: {e}"));
            None
        }
        Err(_) => {
            problems.push("pipeline panicked".into());
            None
        }
    };
    // Read before any probe runs: the probe's buffers are not the program's.
    let peak_rss_mb = peak_rss_mb().unwrap_or_else(|e| {
        problems.push(format!("peak RSS unreadable: {e}"));
        0.0
    });
    let (mut walls, mut scaled, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    if let Some(reference) = &reference {
        let window = Instant::now();
        while walls.len() < MIN_REPS || window.elapsed().as_secs_f64() < args.seconds {
            // A setup batch rides in each repetition's probe bracket, so a
            // burst of interference spoils at most a few batches.
            let ((setup, out, wall), _, scale) = probe::timed(workers, || {
                let setup = setup_seconds(family, args.seed, args.devices);
                let start = Instant::now();
                let out = run();
                (setup, out, start.elapsed().as_secs_f64())
            });
            setups.push(setup * scale);
            walls.push(wall);
            scaled.push(wall * scale);
            if !matches!(&out, Ok(Ok(o)) if o.text == reference.text) {
                problems.push(format!("repetition {} changed the output", walls.len()));
                break;
            }
        }
    }

    if let Some(reference) = &reference {
        let digest = fnv1a_64(reference.text.as_bytes());
        let pin = PINNED
            .iter()
            .find(|&&(f, n, _)| f == family && n == args.devices)
            .filter(|_| args.seed == DEFAULT_SEED);
        match pin {
            Some(&(_, _, want)) if want == digest => {
                println!("# digest {digest:016x}: matches the pin")
            }
            Some(&(_, _, want)) => problems.push(format!(
                "output digest {digest:016x} differs from the pinned {want:016x}"
            )),
            None => println!("# digest {digest:016x}: not pinned for this seed and size"),
        }
    }

    // One untraced run on a single worker: the baseline the serial traced
    // pass is compared with, and a worker-count independence check.
    let single_s = (args.trace && reference.is_some()).then(|| {
        let (out, wall, scale) = probe::timed(1, || pipeline::run(family, &scenario, 1));
        if !matches!((&out, &reference), (Ok(o), Some(r)) if o.text == r.text) {
            problems.push("one worker and all workers export different output".into());
        }
        wall * scale
    });

    let mut tracer = Tracer::new(args.trace);
    let checkpoint = reference.as_ref().and_then(|r| r.checkpoint.as_ref());
    let (pass, _, pass_scale) = probe::timed(1, || {
        traced::serial_pass(family, &scenario, workers, checkpoint, &mut tracer)
    });
    problems.extend(pass.problems.iter().cloned());

    // Cross check: the serial reports must equal the executor's rows, and
    // render to the same output text.
    let mut failed = pass.reports.iter().filter(|r| r.is_none()).count();
    if let Some(reference) = &reference {
        if let Some(retained) = &reference.retained {
            let mismatched = pass
                .reports
                .iter()
                .enumerate()
                .filter(|(i, r)| r.as_ref().is_some_and(|r| retained.devices.get(*i) != *r))
                .count();
            if mismatched > 0 {
                problems.push(format!("{mismatched} devices disagree with the executor"));
            }
            failed += mismatched;
        }
        if pass.text.as_ref().is_some_and(|t| *t != reference.text) {
            problems.push("the serial pass renders different output than the executor".into());
        }
    }
    println!(
        "# cross check: {} of {} devices match the executor",
        pass.reports.len() - failed,
        pass.reports.len()
    );
    if !walls.is_empty() {
        let ms = |v: &[f64]| median(v) * 1e3 / device_hours;
        println!(
            "# {} reps: ms_per_device_hour host {:.4} (min {:.4}), rescaled {:.4}",
            walls.len(),
            ms(&walls),
            walls.iter().copied().fold(f64::INFINITY, f64::min) * 1e3 / device_hours,
            ms(&scaled),
        );
    }

    let mut values = BTreeMap::new();
    let names: Vec<(String, &str)> = if args.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
            "out/spans-{}-seed{}-devices{}.jsonl",
            family.name(),
            args.seed,
            args.devices
        ));
        match tracer.write(&path) {
            Ok(()) => println!("# spans: {}", path.display()),
            Err(e) => problems.push(format!("writing {}: {e}", path.display())),
        }
        let names: Vec<(String, &str)> = Workload::ALL
            .map(|w| {
                (
                    format!("device.ms_per_device_hour.{}", w.tag()),
                    "ms/device-h",
                )
            })
            .into_iter()
            .chain(PER_LAYER.map(|(n, u)| (n.to_string(), u)))
            .collect();
        // Layer timings are rescaled like the end-to-end ones.
        for (name, unit) in &names {
            if let Some(v) = pass.layers.get(name) {
                let is_time = matches!(*unit, "ns" | "us" | "ms" | "ms/device-h");
                values.insert(name.clone(), if is_time { v * pass_scale } else { *v });
            }
        }
        let device_s = pass.device_time.as_secs_f64() * pass_scale;
        values.insert(
            "executor.efficiency".into(),
            device_s / (workers as f64 * median(&scaled)),
        );
        if let Some(single_s) = single_s {
            values.insert(
                "trace.overhead_ratio".into(),
                pass.wall.as_secs_f64() * pass_scale / single_s,
            );
        }
        names
    } else {
        // Without a clean executor run, the serial pass is the only timing.
        let pipeline_s = if scaled.is_empty() {
            pass.wall.as_secs_f64() * pass_scale
        } else {
            median(&scaled)
        };
        values.insert("ms_per_device_hour".into(), pipeline_s * 1e3 / device_hours);
        if setups.is_empty() {
            let (setup, _, scale) =
                probe::timed(1, || setup_seconds(family, args.seed, args.devices));
            setups.push(setup * scale);
        }
        values.insert("setup_s".into(), median(&setups));
        values.insert("peak_rss_mb".into(), peak_rss_mb);
        END_TO_END.map(|(n, u)| (n.to_string(), u)).to_vec()
    };

    for p in &problems {
        println!("# FAILED: {p}");
    }
    let mut metrics = String::new();
    for (name, unit) in &names {
        let value = values.get(name).copied().unwrap_or(0.0);
        println!("{name} = {value} {unit}");
        let sep = if metrics.is_empty() { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if value.is_finite() { value } else { 0.0 }
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        problems.is_empty() && failed == 0,
        pass.reports.len(),
    );
    ExitCode::SUCCESS
}

/// Median host time of building the scenario and expanding its specs — all
/// the work before the first device reaches an executor.
fn setup_seconds(family: Family, seed: u64, devices: u32) -> f64 {
    let samples: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let start = Instant::now();
            black_box(family.scenario(seed, devices).specs());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
