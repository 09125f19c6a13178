//! Offload smoke run: one device pricing its work against a shared cloud
//! backend, then a small offload-heavy fleet against the same economy.
//!
//! ```text
//! cargo run --release --example offload_smoke
//! ```
//!
//! The single device runs twice — against a responsive backend (items ship
//! remote through the `offload` syscall) and against a saturated one (the
//! break-even policy prices every item back to local compute). The fleet
//! pass spot-checks the determinism contract and prints the economy's
//! aggregate price.

use cinder::apps::{OffloadLog, Offloader, OffloaderConfig, TraceBackend};
use cinder::core::{Actor, RateSpec};
use cinder::fleet::{run_fleet_with, Scenario};
use cinder::kernel::{Kernel, KernelConfig, OffloadStats};
use cinder::label::Label;
use cinder::net::CoopNetd;
use cinder::offload::OffloadProfile;
use cinder::sim::{Energy, Power, SimDuration, SimTime};

const HORIZON: SimDuration = SimDuration::from_secs(3_600);

/// One offloader device against the given backend profile.
fn device(profile: OffloadProfile) -> (OffloadStats, u64, u64, u64) {
    let mut k = Kernel::new(KernelConfig {
        seed: 11,
        fast_forward: true,
        ..KernelConfig::default()
    });
    let netd = CoopNetd::with_defaults(k.graph_mut());
    k.install_net(Box::new(netd));
    k.install_offload(Box::new(TraceBackend::build(profile, HORIZON)));

    // A reserve seeded and fed from the battery: the break-even inputs
    // (reserve level, radio price, CPU price) stay live all hour.
    let root = Actor::kernel();
    let battery = k.battery();
    let r = k
        .graph_mut()
        .create_reserve(&root, "offload", Label::default_label())
        .expect("root creates the reserve");
    k.graph_mut()
        .transfer(&root, battery, r, Energy::from_joules(30))
        .expect("battery covers the seed");
    k.graph_mut()
        .create_tap(
            &root,
            "offload-feed",
            battery,
            r,
            RateSpec::constant(Power::from_microwatts(60_000)),
            Label::default_label(),
        )
        .expect("root taps the battery");

    let log = OffloadLog::shared();
    let offloader = Offloader::new(OffloaderConfig::from_profile(&profile), log.clone());
    k.spawn_unprivileged("offloader", Box::new(offloader), r);
    k.run_until(SimTime::ZERO + HORIZON);

    let stats = k.offload_stats();
    let log = log.borrow();
    (stats, log.items, log.remote, log.local)
}

fn main() {
    let responsive = OffloadProfile {
        capacity: 64,
        ..OffloadProfile::default()
    };
    let saturated = OffloadProfile {
        capacity: 1,
        queue_limit: 4,
        load_devices: 100_000,
        ..OffloadProfile::default()
    };

    for (name, profile) in [("responsive", responsive), ("saturated", saturated)] {
        let (stats, items, remote, local) = device(profile);
        println!(
            "{name:>10} backend: {items} items — {remote} remote, {local} local \
             ({} accepted, {} rejected, {} timed out, mean latency {:.0} ms)",
            stats.accepted,
            stats.rejected,
            stats.timed_out,
            if stats.completed > 0 {
                stats.latency_us_sum as f64 / stats.completed as f64 / 1e3
            } else {
                0.0
            }
        );
        assert_eq!(items, remote + local);
        match name {
            "responsive" => assert!(remote > local, "a cheap backend must win items"),
            _ => assert!(local > remote, "a saturated backend must lose items"),
        }
    }

    // The fleet pass: 100 offload-heavy devices against one shared trace,
    // byte-identical at any worker count.
    let scenario = Scenario {
        horizon: HORIZON,
        ..Scenario::offload_heavy("offload-smoke", 42, 100, 64)
    };
    let report = run_fleet_with(&scenario, 4);
    assert_eq!(
        report.to_json(),
        run_fleet_with(&scenario, 1).to_json(),
        "offload fleet must not depend on the worker count"
    );
    let summary = report.summary();
    assert!(summary.offload_completed > 0, "the fleet must offload");
    let lat = summary.offload_latency_s.expect("completed requests");
    println!(
        "fleet: {} devices — {} requests completed ({} rejected, {} timed out), \
         latency p50 {:.0} ms p99 {:.0} ms, {:.1} J/request",
        scenario.devices,
        summary.offload_completed,
        summary.offload_rejected,
        summary.offload_timed_out,
        lat.p50 * 1e3,
        lat.p99 * 1e3,
        summary.joules_per_request
    );
    println!("offload smoke: OK");
}
