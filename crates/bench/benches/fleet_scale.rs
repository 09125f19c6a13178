//! `fleet_scale`: the population-scale acceptance benchmark — a
//! 1,000-device × 1-simulated-hour mixed-workload fleet, single-threaded
//! versus sharded across all cores.
//!
//! Besides the criterion entries (on a smaller fleet, to fit the bench
//! budget), the head-to-head runs the full 1,000-device fleet once per
//! configuration, asserts the two reports are byte-identical (the
//! determinism contract), and writes `BENCH_fleet_scale.json` at the repo
//! root to seed the benchmark trajectory. The report also covers the
//! fleet-at-scale acceptance runs: a fault-heavy fleet under the
//! calibrated fault storm (byte-identical across workers and with
//! fast-forward on vs off, fault ledger recorded), the steady-heavy
//! fast-forward differential (on vs off, byte-identical, speedup
//! recorded), a
//! 10,000-device streaming smoke, one million device-hours single-threaded
//! (must fit in five minutes), and a checkpoint/resume split run that must
//! equal the one-pass run byte-for-byte.

#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

use cinder_fleet::{
    checkpoint_fleet, resume_fleet, run_fleet_with, simulate_device, stream_fleet_with,
    FleetCheckpoint, Scenario,
};
use cinder_sim::SimDuration;

const HORIZON_S: u64 = 3_600;

/// Acceptance fleet size: 1,000 devices unless `CINDER_FLEET_DEVICES`
/// overrides it (the knob CI and local profiling use to scale the run
/// without editing the bench).
fn acceptance_devices() -> u32 {
    std::env::var("CINDER_FLEET_DEVICES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000)
}

fn acceptance_scenario(devices: u32) -> Scenario {
    Scenario {
        horizon: SimDuration::from_secs(HORIZON_S),
        ..Scenario::mixed("fleet-scale", 2_026, devices)
    }
}

/// The peripheral-heavy population: navigators and screen-on browsers
/// exercising the reserve-gated backlight/GPS layer at fleet scale.
fn peripheral_scenario(devices: u32) -> Scenario {
    Scenario {
        horizon: SimDuration::from_secs(HORIZON_S),
        ..Scenario::peripheral_heavy("fleet-scale-peripheral", 2_027, devices)
    }
}

/// The offload-heavy population: break-even offloaders against a shared
/// responsive backend (capacity 64 against the default mean-field load).
fn offload_scenario(devices: u32) -> Scenario {
    Scenario {
        horizon: SimDuration::from_secs(HORIZON_S),
        ..Scenario::offload_heavy("fleet-scale-offload", 2_031, devices, 64)
    }
}

/// The policy-heavy population: screen-heavy interactive devices under the
/// user-aware lifetime-target controller, ticking policy decisions on the
/// quantum grid at fleet scale.
fn policy_scenario(devices: u32) -> Scenario {
    Scenario {
        horizon: SimDuration::from_secs(HORIZON_S),
        ..Scenario::policy_heavy("fleet-scale-policy", 2_032, devices)
    }
}

/// The fault-heavy population: the calibrated fault storm — link flaps,
/// kill/respawn crashes, battery aging, shared backend outages — layered
/// over an offloading, policy-controlled mixture.
fn fault_scenario(devices: u32) -> Scenario {
    Scenario {
        horizon: SimDuration::from_secs(HORIZON_S),
        ..Scenario::fault_heavy("fleet-scale-faults", 2_033, devices)
    }
}

/// Worker count for the sharded side: all cores, but at least two so the
/// sharded path (and its determinism) is exercised even on a 1-CPU runner.
fn sharded_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2)
}

fn bench_fleet_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_scale_100dev_1h");
    let scenario = acceptance_scenario(100);
    group.bench_function("threads_1", |b| b.iter(|| run_fleet_with(&scenario, 1)));
    let threads = sharded_threads();
    group.bench_function(format!("threads_{threads}"), |b| {
        b.iter(|| run_fleet_with(&scenario, threads))
    });
    let peripheral = peripheral_scenario(100);
    group.bench_function("peripheral_threads_1", |b| {
        b.iter(|| run_fleet_with(&peripheral, 1))
    });
    let offload = offload_scenario(100);
    group.bench_function("offload_heavy_threads_1", |b| {
        b.iter(|| run_fleet_with(&offload, 1))
    });
    let policy = policy_scenario(100);
    group.bench_function("policy_heavy_threads_1", |b| {
        b.iter(|| run_fleet_with(&policy, 1))
    });
    let faults = fault_scenario(100);
    group.bench_function("fault_heavy_threads_1", |b| {
        b.iter(|| run_fleet_with(&faults, 1))
    });
    group.finish();
}

/// The full acceptance run: 1,000 devices for one simulated hour, swept at
/// 1 / 2 / 4 workers, reports compared byte-for-byte at every width.
///
/// The JSON records `available_parallelism` so a flat curve on a
/// core-starved CI box (1 core → every width ~1.00x, expected) is
/// distinguishable from a genuine serialization bug (many cores, still
/// ~1.00x).
fn scale_report(_c: &mut Criterion) {
    let devices = acceptance_devices();
    let scenario = acceptance_scenario(devices);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut sweep = Vec::new();
    let mut baseline: Option<cinder_fleet::FleetReport> = None;
    let mut single_s = 0.0;
    for threads in [1usize, 2, 4] {
        let start = Instant::now();
        let report = run_fleet_with(&scenario, threads);
        let wall_s = start.elapsed().as_secs_f64();
        match &baseline {
            None => {
                single_s = wall_s;
                baseline = Some(report);
            }
            Some(single) => {
                assert_eq!(
                    single.to_json(),
                    report.to_json(),
                    "aggregate report must be thread-count invariant ({threads} threads)"
                );
                assert_eq!(single.to_csv(), report.to_csv());
            }
        }
        sweep.push((threads, wall_s));
    }

    let single = baseline.expect("sweep ran");
    let summary = single.summary();
    let lifetime = summary.lifetime_h.expect("non-empty fleet");
    let power = summary.avg_power_mw.expect("non-empty fleet");
    for &(threads, wall_s) in &sweep {
        println!(
            "fleet_scale: {devices} devices x {HORIZON_S} s  {threads} thread(s) {wall_s:.2} s \
             ({:.2}x, {cores} core(s) available)",
            single_s / wall_s
        );
    }
    println!(
        "fleet_scale: lifetime p50 {:.2} h p99 {:.2} h, tail power p99 {:.1} mW",
        lifetime.p50, lifetime.p99, power.p99
    );

    // The peripheral-heavy acceptance fleet: the reserve-gated
    // backlight/GPS layer at the same scale, byte-identical across
    // workers, with its forced-shutdown and drain telemetry recorded.
    let peripheral = peripheral_scenario(devices);
    let start = Instant::now();
    let peripheral_single = run_fleet_with(&peripheral, 1);
    let peripheral_s = start.elapsed().as_secs_f64();
    let peripheral_sharded = run_fleet_with(&peripheral, 2);
    assert_eq!(
        peripheral_single.to_json(),
        peripheral_sharded.to_json(),
        "peripheral fleet must be thread-count invariant"
    );
    let peripheral_summary = peripheral_single.summary();
    println!(
        "fleet_scale: peripheral fleet {devices} devices x {HORIZON_S} s  1 thread {peripheral_s:.2} s \
         ({:.1} kJ peripheral drain, {} forced shutdowns)",
        peripheral_summary.peripheral_energy_j / 1e3,
        peripheral_summary.forced_shutdowns
    );

    // --- Offload-heavy acceptance fleet: thousands of break-even
    // decisions against one shared backend trace, byte-identical across
    // workers, with the economy's price and latency tail recorded.
    let offload = offload_scenario(devices);
    let start = Instant::now();
    let offload_single = run_fleet_with(&offload, 1);
    let offload_s = start.elapsed().as_secs_f64();
    let offload_sharded = run_fleet_with(&offload, 2);
    assert_eq!(
        offload_single.to_json(),
        offload_sharded.to_json(),
        "offload fleet must be thread-count invariant"
    );
    let offload_summary = offload_single.summary();
    assert!(
        offload_summary.offload_completed > 0,
        "the responsive backend must complete requests"
    );
    let offload_lat = offload_summary
        .offload_latency_s
        .expect("completed requests imply a latency distribution");
    println!(
        "fleet_scale: offload fleet {devices} devices x {HORIZON_S} s  1 thread {offload_s:.2} s \
         ({} completed, latency p50 {:.0} ms p99 {:.0} ms, {:.1} J/request)",
        offload_summary.offload_completed,
        offload_lat.p50 * 1e3,
        offload_lat.p99 * 1e3,
        offload_summary.joules_per_request
    );

    // --- Policy-heavy acceptance fleet: the user-aware lifetime-target
    // controller ticking on every device, byte-identical across 1/2/4
    // workers, and with the fast-forward on vs off (policy ticks
    // end every run span, so decisions land on the same instants).
    let policy = policy_scenario(devices);
    let start = Instant::now();
    let policy_single = run_fleet_with(&policy, 1);
    let policy_s = start.elapsed().as_secs_f64();
    for threads in [2usize, 4] {
        let sharded = run_fleet_with(&policy, threads);
        assert_eq!(
            policy_single.to_json(),
            sharded.to_json(),
            "policy fleet must be thread-count invariant ({threads} threads)"
        );
        assert_eq!(policy_single.to_csv(), sharded.to_csv());
    }
    let start = Instant::now();
    let policy_stepped: Vec<_> = policy
        .specs()
        .into_iter()
        .map(|mut spec| {
            spec.fast_forward = false;
            simulate_device(&spec)
        })
        .collect();
    let policy_stepped_s = start.elapsed().as_secs_f64();
    let policy_ff_identical = policy_single.devices.iter().eq(policy_stepped);
    assert!(
        policy_ff_identical,
        "fast-forward must not change any policy-fleet report"
    );
    let policy_summary = policy_single.summary();
    assert!(
        policy_summary.policy_rerates > 0,
        "the controller must act at scale"
    );
    println!(
        "fleet_scale: policy fleet {devices} devices x {HORIZON_S} s  1 thread {policy_s:.2} s \
         ({}/{} lifetime targets hit, {} re-rates, {} demotions; ff vs stepped byte-identical)",
        policy_summary.lifetime_target_hits,
        policy_summary.devices,
        policy_summary.policy_rerates,
        policy_summary.policy_demotions
    );

    // --- Fault-heavy acceptance fleet: the calibrated fault storm at the
    // same scale. Faults must ride the determinism contract unchanged —
    // byte-identical across workers and with fast-forward on vs off — and
    // the fault ledger (flaps, crashes/restarts, retries, fade) must show
    // the storm actually landed.
    let faults = fault_scenario(devices);
    let start = Instant::now();
    let fault_single = run_fleet_with(&faults, 1);
    let fault_s = start.elapsed().as_secs_f64();
    for threads in [2usize, 4] {
        let sharded = run_fleet_with(&faults, threads);
        assert_eq!(
            fault_single.to_json(),
            sharded.to_json(),
            "fault fleet must be thread-count invariant ({threads} threads)"
        );
        assert_eq!(fault_single.to_csv(), sharded.to_csv());
    }
    let fault_stepped: Vec<_> = faults
        .specs()
        .into_iter()
        .map(|mut spec| {
            spec.fast_forward = false;
            simulate_device(&spec)
        })
        .collect();
    let fault_ff_identical = fault_single.devices.iter().eq(fault_stepped);
    assert!(
        fault_ff_identical,
        "fast-forward must not change any fault-fleet report"
    );
    let fault_summary = fault_single.summary();
    assert!(fault_summary.link_flaps > 0, "the storm must flap links");
    assert!(fault_summary.crashes > 0, "the storm must kill programs");
    assert!(fault_summary.restarts > 0, "kills must respawn");
    assert!(fault_summary.retries > 0, "backoff must engage");
    assert!(fault_summary.fade_j > 0.0, "batteries must age");
    println!(
        "fleet_scale: fault fleet {devices} devices x {HORIZON_S} s  1 thread {fault_s:.2} s \
         ({} flaps, {} crashes / {} restarts, {} retries ({} exhausted), {:.0} J fade; \
         ff vs stepped byte-identical)",
        fault_summary.link_flaps,
        fault_summary.crashes,
        fault_summary.restarts,
        fault_summary.retries,
        fault_summary.retries_exhausted,
        fault_summary.fade_j
    );

    // --- Steady-heavy fast-forward acceptance: small-battery fleets whose
    // resource graphs drain and freeze mid-run. The same devices simulate
    // with the fast-forward on (the fleet default) and off, both
    // single-threaded; reports must match bit-for-bit and the pooled and
    // frozen jumps must buy a large speedup.
    let steady = Scenario::steady_heavy("fleet-scale-steady", 2_028, 200);
    let steady_dev_h = 200.0 * steady.horizon.as_secs_f64() / 3_600.0;
    let start = Instant::now();
    let ff_report = run_fleet_with(&steady, 1);
    let ff_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let stepped: Vec<_> = steady
        .specs()
        .into_iter()
        .map(|mut spec| {
            spec.fast_forward = false;
            simulate_device(&spec)
        })
        .collect();
    let stepped_s = start.elapsed().as_secs_f64();
    let steady_identical = ff_report.devices.iter().eq(stepped);
    assert!(steady_identical, "fast-forward must not change any report");
    let ff_speedup = stepped_s / ff_s;
    assert!(
        ff_speedup >= 5.0,
        "steady-heavy fast-forward must pay for itself: {ff_speedup:.1}x"
    );
    println!(
        "fleet_scale: steady-heavy 200 devices x 24 h  ff {ff_s:.2} s vs stepped {stepped_s:.2} s \
         ({ff_speedup:.1}x, byte-identical)"
    );

    // --- Streaming 10k-device smoke: O(workers × bins) memory, all cores.
    let stream_scenario = Scenario {
        horizon: SimDuration::from_secs(HORIZON_S),
        ..Scenario::mixed("fleet-scale-stream", 2_026, 10_000)
    };
    let start = Instant::now();
    let streamed = stream_fleet_with(&stream_scenario, cores);
    let stream_10k_s = start.elapsed().as_secs_f64();
    assert_eq!(streamed.summary.devices, 10_000);
    println!(
        "fleet_scale: streaming 10000 devices x {HORIZON_S} s  {cores} worker(s) \
         {stream_10k_s:.2} s ({:.3} ms/device-hour)",
        stream_10k_s / 10_000.0 * 1e3
    );

    // --- One million device-hours, single-threaded: the steady-heavy
    // regime the fast-forward targets, streamed so memory stays O(bins).
    let million = Scenario::steady_heavy("fleet-scale-million", 2_029, 41_667);
    let million_dev_h = 41_667.0 * 24.0;
    let start = Instant::now();
    let million_report = stream_fleet_with(&million, 1);
    let million_s = start.elapsed().as_secs_f64();
    assert_eq!(million_report.summary.devices, 41_667);
    assert!(
        million_s < 300.0,
        "1M device-hours must fit in five minutes single-threaded: {million_s:.1} s"
    );
    println!(
        "fleet_scale: 1M device-hours (41667 devices x 24 h, steady-heavy) 1 thread \
         {million_s:.1} s ({:.4} ms/device-hour)",
        million_s / million_dev_h * 1e3
    );

    // --- Checkpoint/resume smoke: split the streamed acceptance fleet at
    // an uneven point, push the checkpoint through its text format, and
    // require the resumed summary to equal the one-pass run byte-for-byte.
    let ckpt_scenario = Scenario {
        horizon: SimDuration::from_secs(HORIZON_S),
        ..Scenario::mixed("fleet-scale-ckpt", 2_026, 200)
    };
    let one_pass = stream_fleet_with(&ckpt_scenario, 2);
    let cp = checkpoint_fleet(&ckpt_scenario, 73, 2);
    let revived = FleetCheckpoint::from_text(&cp.to_text()).expect("checkpoint round-trip");
    let resumed = resume_fleet(&revived, &ckpt_scenario, 2).expect("identity matches");
    let split_equals_single = resumed.to_json() == one_pass.to_json();
    assert!(split_equals_single, "split run diverged from single run");
    println!("fleet_scale: checkpoint/resume split at 73/200 is byte-identical");

    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|&(threads, wall_s)| {
            format!(
                "  \"threads_{threads}\": {{ \"wall_s\": {wall_s:.3}, \"speedup\": {:.2} }}",
                single_s / wall_s
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"fleet_scale\",\n  \"scenario\": {{ \"devices\": {devices}, \
         \"sim_seconds\": {HORIZON_S}, \"mix\": \"pollers-coop:4 pollers-uncoop:2 browser:2 \
         gallery:1 spinner:1\" }},\n  \"available_parallelism\": {cores},\n{},\n  \
         \"reports_byte_identical\": true,\n  \"lifetime_h\": {{ \"p50\": {:.3}, \"p90\": {:.3}, \
         \"p99\": {:.3} }},\n  \"tail_power_mw_p99\": {:.3},\n  \"peripheral_fleet\": {{ \
         \"devices\": {devices}, \"mix\": \"navigator:5 screen-on:4 pollers-coop:1\", \
         \"wall_s\": {peripheral_s:.3}, \"peripheral_energy_j\": {:.1}, \"forced_shutdowns\": {}, \
         \"reports_byte_identical\": true }},\n  \"offload_heavy\": {{ \"devices\": {devices}, \
         \"mix\": \"offloader:8 pollers-coop:2\", \"backend_capacity\": 64, \
         \"wall_s\": {offload_s:.3}, \"completed\": {}, \"rejected\": {}, \"timed_out\": {}, \
         \"latency_s\": {{ \"p50\": {:.4}, \"p99\": {:.4} }}, \"joules_per_request\": {:.3}, \
         \"reports_byte_identical\": true }},\n  \"policy_heavy\": {{ \"devices\": {devices}, \
         \"sim_seconds\": {HORIZON_S}, \"mix\": \"screen-on:6 navigator:1 pollers-coop:2 \
         spinner:1\", \"policy\": \"user-aware\", \"wall_s\": {policy_s:.3}, \
         \"stepped_wall_s\": {policy_stepped_s:.3}, \"lifetime_target_hits\": {}, \
         \"policy_rerates\": {}, \"policy_demotions\": {}, \
         \"ff_byte_identical\": {policy_ff_identical}, \
         \"reports_byte_identical\": true }},\n  \"fault_heavy\": {{ \"devices\": {devices}, \
         \"sim_seconds\": {HORIZON_S}, \"mix\": \"offloader:4 pollers-coop:4 spinner:2\", \
         \"faults\": \"flaps+crashes+aging+outages\", \"wall_s\": {fault_s:.3}, \
         \"link_flaps\": {}, \"crashes\": {}, \"restarts\": {}, \"retries\": {}, \
         \"retries_exhausted\": {}, \"fade_j\": {:.1}, \
         \"ff_byte_identical\": {fault_ff_identical}, \
         \"reports_byte_identical\": true }},\n  \"steady_heavy\": {{ \"devices\": 200, \
         \"sim_hours_per_device\": 24, \"mix\": \"pollers-coop:5 spinner:3\", \
         \"ff_wall_s\": {ff_s:.3}, \"stepped_wall_s\": {stepped_s:.3}, \
         \"ff_speedup\": {ff_speedup:.1}, \"device_hours\": {steady_dev_h:.0}, \
         \"reports_byte_identical\": {steady_identical} }},\n  \"streaming_10k\": {{ \
         \"devices\": 10000, \"sim_seconds\": {HORIZON_S}, \"workers\": {cores}, \
         \"wall_s\": {stream_10k_s:.3}, \"memory\": \"O(workers x bins)\" }},\n  \
         \"million_device_hours\": {{ \"devices\": 41667, \"sim_hours_per_device\": 24, \
         \"mix\": \"steady-heavy\", \"threads\": 1, \"wall_s\": {million_s:.3}, \
         \"ms_per_device_hour\": {:.4}, \"under_5_min\": {} }},\n  \"checkpoint_resume\": {{ \
         \"split_at\": 73, \"devices\": 200, \"split_equals_single\": {split_equals_single} \
         }}\n}}\n",
        sweep_json.join(",\n"),
        lifetime.p50,
        lifetime.p90,
        lifetime.p99,
        power.p99,
        peripheral_summary.peripheral_energy_j,
        peripheral_summary.forced_shutdowns,
        offload_summary.offload_completed,
        offload_summary.offload_rejected,
        offload_summary.offload_timed_out,
        offload_lat.p50,
        offload_lat.p99,
        offload_summary.joules_per_request,
        policy_summary.lifetime_target_hits,
        policy_summary.policy_rerates,
        policy_summary.policy_demotions,
        fault_summary.link_flaps,
        fault_summary.crashes,
        fault_summary.restarts,
        fault_summary.retries,
        fault_summary.retries_exhausted,
        fault_summary.fade_j,
        million_s / million_dev_h * 1e3,
        million_s < 300.0,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet_scale.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("(wrote {path})"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_fleet_scale, scale_report);
criterion_main!(benches);
