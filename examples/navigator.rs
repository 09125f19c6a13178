//! Navigator smoke run: a single device duty-cycling its GPS under a
//! reserve, first healthily funded, then starved so the adaptive interval
//! and the kernel's forced shutdown both show up.
//!
//! ```text
//! cargo run --release --example navigator
//! ```

use cinder::apps::{NavLog, Navigator, NavigatorConfig};
use cinder::core::{Actor, RateSpec, ReserveId};
use cinder::kernel::{Kernel, KernelConfig, PeripheralKind};
use cinder::label::Label;
use cinder::sim::{Energy, Power, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Builds one navigator device: a GPS reserve seeded and fed from the
/// battery, the navigator thread drawing CPU from the same reserve.
fn device(feed_uw: u64, seed_j: i64) -> (Kernel, ReserveId, Rc<RefCell<NavLog>>) {
    let mut k = Kernel::new(KernelConfig {
        seed: 7,
        fast_forward: true,
        ..KernelConfig::default()
    });
    let root = Actor::kernel();
    let battery = k.battery();
    let gps_r = k
        .graph_mut()
        .create_reserve(&root, "gps", Label::default_label())
        .expect("root creates the gps reserve");
    k.graph_mut()
        .transfer(&root, battery, gps_r, Energy::from_joules(seed_j))
        .expect("battery covers the seed");
    k.graph_mut()
        .create_tap(
            &root,
            "gps-feed",
            battery,
            gps_r,
            RateSpec::constant(Power::from_microwatts(feed_uw)),
            Label::default_label(),
        )
        .expect("root taps the battery");
    let log = NavLog::shared();
    let nav = Navigator::new(NavigatorConfig::fleet_default(), gps_r, log.clone());
    k.spawn_unprivileged("nav", Box::new(nav), gps_r);
    (k, gps_r, log)
}

fn run(label: &str, feed_uw: u64, seed_j: i64, horizon_s: u64) -> (usize, u64, u64) {
    let (mut k, gps_r, log) = device(feed_uw, seed_j);
    let start = std::time::Instant::now();
    k.run_until(SimTime::from_secs(horizon_s));
    let wall = start.elapsed().as_secs_f64();
    let log = log.borrow();
    let residual = k
        .graph()
        .reserve(gps_r)
        .map(|r| r.balance())
        .unwrap_or(Energy::ZERO);
    let drained = k.peripheral_energy(PeripheralKind::Gps);
    let shutdowns = k.peripheral_forced_shutdowns(PeripheralKind::Gps);
    println!(
        "{label}: {} fixes, {} stretched sleeps, {} aborted, {:.1} J gps drain, \
         {:.1} J residual, {} forced shutdowns  ({:.0} s simulated in {:.3} s wall)",
        log.fixes.len(),
        log.stretched_sleeps,
        log.aborted_fixes,
        drained.as_microjoules() as f64 / 1e6,
        residual.as_microjoules() as f64 / 1e6,
        shutdowns,
        SimDuration::from_secs(horizon_s).as_secs_f64(),
        wall,
    );
    (log.fixes.len(), log.stretched_sleeps, shutdowns)
}

fn main() {
    println!("navigator: duty-cycled GPS fixes under a reserve-gated peripheral");
    // Healthily funded: fixes on the base cadence, no adaptation needed.
    let (fixes, stretched, shutdowns) = run("  funded (52.5 mW feed)", 52_500, 20, 3_600);
    assert!(fixes >= 40, "a funded navigator fixes steadily: {fixes}");
    assert_eq!(shutdowns, 0, "a funded receiver is never forced down");
    let _ = stretched;

    // Starved: the interval stretches and the kernel eventually cuts a fix.
    let (fixes, stretched, shutdowns) = run("  starved (15 mW feed) ", 15_000, 6, 3_600);
    assert!(fixes >= 1, "even a starved navigator lands some fixes");
    assert!(
        stretched >= 3,
        "a sagging reserve must stretch the interval: {stretched}"
    );
    assert!(
        shutdowns >= 1,
        "an empty reserve must force the receiver down: {shutdowns}"
    );
    println!("ok: adaptation and forced shutdown both observed");
}
