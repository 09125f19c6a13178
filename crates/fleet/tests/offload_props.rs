//! Fleet-level properties of the cloud-offload economy.
//!
//! * An offload-heavy fleet — thousands of break-even decisions against a
//!   shared backend trace — is byte-identical across 1, 2, and 4 workers
//!   (property-tested): the backend is configuration, not shared mutable
//!   state, so sharding cannot leak into results.
//! * The differential satellite: a fleet with offload disabled carries
//!   all-zero offload telemetry, and an inert `offload` profile (no
//!   offloader devices in the mix) changes nothing byte-for-byte.
//! * Checkpoint/resume with offloaders in the mix: a split run equals a
//!   single run byte-for-byte, through the v2 text format.

use cinder_fleet::{
    checkpoint_fleet, resume_fleet, run_fleet_with, simulate_device, stream_fleet_with,
    FleetCheckpoint, Scenario, Workload,
};
use cinder_offload::OffloadProfile;
use cinder_sim::SimDuration;
use proptest::prelude::*;

/// An offload-heavy fleet short enough for tests: 300 s item cadence
/// against a 900 s horizon still gives every offloader several decisions.
fn offload_scenario(seed: u64, devices: u32, capacity: u32) -> Scenario {
    Scenario {
        horizon: SimDuration::from_secs(900),
        ..Scenario::offload_heavy("offload-prop", seed, devices, capacity)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Acceptance: offload-heavy fleet reports are byte-identical across
    /// 1, 2, and 4 workers — retained and streaming paths both.
    #[test]
    fn offload_heavy_fleet_is_worker_invariant(
        seed in 0u64..1_000,
        devices in 6u32..16,
        capacity in 1u32..64,
    ) {
        let scenario = offload_scenario(seed, devices, capacity);
        let single = run_fleet_with(&scenario, 1);
        let streamed = stream_fleet_with(&scenario, 1);
        for threads in [2usize, 4] {
            let sharded = run_fleet_with(&scenario, threads);
            prop_assert_eq!(&single.devices, &sharded.devices, "{} workers", threads);
            prop_assert_eq!(single.to_csv(), sharded.to_csv(), "{} workers", threads);
            prop_assert_eq!(single.to_json(), sharded.to_json(), "{} workers", threads);
            let sharded_stream = stream_fleet_with(&scenario, threads);
            prop_assert_eq!(&streamed.summary, &sharded_stream.summary, "{} workers", threads);
            prop_assert_eq!(streamed.to_json(), sharded_stream.to_json(), "{} workers", threads);
        }
    }
}

/// The economy shows up in the aggregates: a responsive backend completes
/// requests, the latency distribution is populated, and joules-per-request
/// is a real price. Retained and streaming tallies agree.
#[test]
fn offload_heavy_summary_prices_the_economy() {
    let scenario = offload_scenario(7, 16, 64);
    let report = run_fleet_with(&scenario, 4);
    let summary = report.summary();
    assert!(summary.offload_attempts > 0, "{}", report.to_json());
    assert!(summary.offload_completed > 0, "{}", report.to_json());
    assert!(
        summary.offload_accepted >= summary.offload_completed,
        "{}",
        report.to_json()
    );
    let lat = summary.offload_latency_s.expect("completed requests");
    assert!(lat.mean > 0.0 && lat.p99 >= lat.p50, "{lat:?}");
    assert!(
        summary.joules_per_request > 0.0,
        "remote work costs radio energy: {}",
        report.to_json()
    );

    let streamed = stream_fleet_with(&scenario, 4).summary;
    assert_eq!(
        summary.offload_attempts as u128,
        streamed.offload_attempts()
    );
    assert_eq!(
        summary.offload_completed as u128,
        streamed.offload_completed()
    );
    assert_eq!(
        summary.offload_rejected as u128,
        streamed.offload_rejected()
    );
    assert_eq!(
        summary.offload_timed_out as u128,
        streamed.offload_timed_out()
    );
    assert!((summary.joules_per_request - streamed.joules_per_request()).abs() < 1e-6);
}

/// The saturation feedback loop reaches the aggregates: shrinking the
/// backend drives devices back to local compute — fewer completions, and
/// the ones that do land see worse latency.
#[test]
fn shrinking_the_backend_pushes_work_local() {
    let wide_report = run_fleet_with(&offload_scenario(11, 14, 64), 4);
    // Capacity 1 against a 100k-device mean-field load: the trace saturates,
    // the admission gate closes, and break-even prices items back to local.
    let narrow_scenario = Scenario {
        offload: Some(OffloadProfile {
            capacity: 1,
            queue_limit: 4,
            load_devices: 100_000,
            ..OffloadProfile::default()
        }),
        ..offload_scenario(11, 14, 1)
    };
    let narrow_report = run_fleet_with(&narrow_scenario, 4);
    let wide = wide_report.summary();
    let narrow = narrow_report.summary();
    assert!(
        narrow.offload_completed < wide.offload_completed,
        "narrow {} vs wide {}",
        narrow.offload_completed,
        wide.offload_completed
    );
    // Items keep completing either way — locally when the backend can't.
    // (Local compute is slower than a round trip, so a throttled device may
    // slip an item or two past the schedule; the fleet must stay close.)
    let ops = |r: &cinder_fleet::FleetReport| -> u64 { r.devices.iter().map(|d| d.ops).sum() };
    assert!(
        ops(&narrow_report) * 4 >= ops(&wide_report) * 3,
        "local fallback keeps items flowing: narrow {} vs wide {}",
        ops(&narrow_report),
        ops(&wide_report)
    );
}

/// Differential satellite: with offload disabled the new telemetry is
/// inert — every offload column is zero, the summary reports no economy,
/// and a profile with no offloader devices changes nothing byte-for-byte.
#[test]
fn offload_disabled_fleet_is_byte_identical_to_baseline() {
    let baseline = Scenario {
        horizon: SimDuration::from_secs(600),
        ..Scenario::mixed("no-offload", 29, 18)
    };
    assert!(
        baseline.offload.is_none(),
        "mixed() must not enable offload"
    );
    let report = run_fleet_with(&baseline, 4);
    for d in &report.devices {
        assert_eq!(
            (
                d.offload_attempts,
                d.offload_accepted,
                d.offload_completed,
                d.offload_rejected,
                d.offload_timed_out,
                d.offload_latency_us,
            ),
            (0, 0, 0, 0, 0, 0),
            "{d:?}"
        );
    }
    let summary = report.summary();
    assert_eq!(summary.offload_attempts, 0);
    assert!(summary.offload_latency_s.is_none());
    assert_eq!(summary.joules_per_request, 0.0);

    // An offload profile is pure configuration: with no offloader in the
    // mix it must not perturb a single byte of the fleet report.
    assert!(
        !baseline.mix.iter().any(|(w, _)| *w == Workload::Offloader),
        "mixed() must not schedule offloaders"
    );
    let inert = Scenario {
        offload: Some(OffloadProfile::default()),
        ..baseline.clone()
    };
    let with_profile = run_fleet_with(&inert, 4);
    assert_eq!(report.devices, with_profile.devices);
    assert_eq!(report.to_csv(), with_profile.to_csv());
    assert_eq!(report.to_json(), with_profile.to_json());
    assert_eq!(
        stream_fleet_with(&baseline, 3).to_json(),
        stream_fleet_with(&inert, 3).to_json()
    );
}

/// Offloaders ride the steady-state fast-forward bit-identically: a
/// blocked offload is a wake source every jump must respect, so turning
/// the fast-forward off cannot change a single report byte.
#[test]
fn offloaders_ride_fast_forward_byte_identically() {
    let scenario = offload_scenario(31, 10, 8);
    for spec in scenario.specs() {
        let mut on = spec.clone();
        on.fast_forward = true;
        let mut off = spec;
        off.fast_forward = false;
        assert_eq!(
            simulate_device(&on),
            simulate_device(&off),
            "device {}",
            on.id
        );
    }
}

/// Checkpoint satellite: split_run_equals_single_run with offloaders in
/// the mix — the v2 checkpoint carries the offload accumulators and the
/// latency channel, and the resumed run is byte-identical.
#[test]
fn split_run_equals_single_run_with_offloaders() {
    let scenario = offload_scenario(23, 18, 8);
    let single = stream_fleet_with(&scenario, 1);
    assert!(
        single.summary.offload_completed() > 0,
        "the mix must actually offload: {}",
        single.to_json()
    );
    for split in [0u64, 5, 11, 18] {
        let cp = checkpoint_fleet(&scenario, split, 2);
        let text = cp.to_text();
        assert!(
            text.starts_with(cinder_fleet::CHECKPOINT_FORMAT),
            "offload fields need the current checkpoint format: {}",
            text.lines().next().unwrap_or("")
        );
        let revived = FleetCheckpoint::from_text(&text).expect("round-trip");
        assert_eq!(revived, cp, "split at {split}");
        let resumed = resume_fleet(&revived, &scenario, 3).expect("identity matches");
        assert_eq!(resumed.to_json(), single.to_json(), "split at {split}");
        assert_eq!(resumed.summary, single.summary, "split at {split}");
    }
}
