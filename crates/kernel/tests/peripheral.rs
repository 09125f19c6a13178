//! Reserve-gated peripheral tests: exact accounting, forced shutdown, and
//! differential bit-identity of the fast paths with peripherals lit.
//!
//! The peripheral layer must compose with `KernelConfig::fast_forward` as
//! a pure wall-clock optimisation, netd pooling included: a
//! funded lit peripheral is steady state the fast-forward may jump, while a
//! near-empty peripheral reserve pins the slow path so the forced shutdown
//! lands on exactly the boundary per-quantum stepping would choose.

use cinder_apps::{PeriodicPoller, PollerLog};
use cinder_core::{quota, Actor, Quantity, RateSpec, ReserveId, ResourceKind};
use cinder_kernel::{Ctx, FnProgram, Kernel, KernelConfig, KernelError, PeripheralKind, Step};
use cinder_label::Label;
use cinder_net::CoopNetd;
use cinder_sim::{Energy, Power, SimDuration, SimTime};

/// Everything observable about a finished run, for exact comparison.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    now_us: u64,
    meter_uj: i64,
    balances: Vec<i64>,
    consumed: Vec<i64>,
    radio_activations: u64,
    thread_energy: Vec<i64>,
    thread_throttled_us: Vec<u64>,
    peripheral_enabled: Vec<bool>,
    peripheral_energy_uj: Vec<i64>,
    peripheral_shutdowns: Vec<u64>,
}

fn fingerprint(k: &Kernel) -> Fingerprint {
    Fingerprint {
        now_us: k.now().as_micros(),
        meter_uj: k.meter().total_energy().as_microjoules(),
        balances: k
            .graph()
            .reserves()
            .map(|(_, r)| r.balance().as_microjoules())
            .collect(),
        consumed: k
            .graph()
            .reserves()
            .map(|(_, r)| r.stats().consumed.as_microjoules())
            .collect(),
        radio_activations: k.arm9().radio().stats().activations,
        thread_energy: k
            .thread_ids()
            .iter()
            .map(|&t| k.thread_consumed(t).as_microjoules())
            .collect(),
        thread_throttled_us: k
            .thread_ids()
            .iter()
            .map(|&t| k.thread_throttled(t).as_micros())
            .collect(),
        peripheral_enabled: PeripheralKind::ALL
            .iter()
            .map(|&p| k.peripheral_enabled(p))
            .collect(),
        peripheral_energy_uj: PeripheralKind::ALL
            .iter()
            .map(|&p| k.peripheral_energy(p).as_microjoules())
            .collect(),
        peripheral_shutdowns: PeripheralKind::ALL
            .iter()
            .map(|&p| k.peripheral_forced_shutdowns(p))
            .collect(),
    }
}

fn config(fast_forward: bool) -> KernelConfig {
    KernelConfig {
        seed: 23,
        fast_forward,
        ..KernelConfig::default()
    }
}

/// A reserve seeded with `joules` from the battery.
fn funded(k: &mut Kernel, name: &str, joules: i64) -> ReserveId {
    let root = Actor::kernel();
    let battery = k.battery();
    let r = k
        .graph_mut()
        .create_reserve(&root, name, Label::default_label())
        .unwrap();
    k.graph_mut()
        .transfer(&root, battery, r, Energy::from_joules(joules))
        .unwrap();
    r
}

/// A reserve fed `uw` from the battery (optionally pre-seeded).
fn tapped(k: &mut Kernel, name: &str, uw: u64, seed_uj: i64) -> ReserveId {
    let root = Actor::kernel();
    let battery = k.battery();
    let r = k
        .graph_mut()
        .create_reserve(&root, name, Label::default_label())
        .unwrap();
    if seed_uj > 0 {
        k.graph_mut()
            .transfer(&root, battery, r, Energy::from_microjoules(seed_uj))
            .unwrap();
    }
    k.graph_mut()
        .create_tap(
            &root,
            &format!("{name}-tap"),
            battery,
            r,
            RateSpec::constant(Power::from_microwatts(uw)),
            Label::default_label(),
        )
        .unwrap();
    r
}

/// The backlight drain is exact flow-engine arithmetic: 555 mW held for
/// exactly 10 s drains exactly 5.55 J into the accounting sink, and the
/// meter sees the same 5.55 J above its baseline.
#[test]
fn backlight_accounting_is_exact() {
    let mut k = Kernel::new(KernelConfig {
        graph: cinder_core::GraphConfig {
            decay: None,
            ..cinder_core::GraphConfig::default()
        },
        ..KernelConfig::default()
    });
    let cpu_r = funded(&mut k, "cpu", 10);
    let screen_r = funded(&mut k, "screen", 10);
    let mut step = 0;
    k.spawn_unprivileged(
        "ui",
        Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
            step += 1;
            match step {
                1 => {
                    ctx.peripheral_acquire(PeripheralKind::Backlight, screen_r)
                        .unwrap();
                    ctx.peripheral_enable(PeripheralKind::Backlight).unwrap();
                    Step::SleepUntil(SimTime::from_secs(10))
                }
                _ => {
                    ctx.peripheral_disable(PeripheralKind::Backlight).unwrap();
                    Step::Exit
                }
            }
        })),
        cpu_r,
    );
    k.run_until(SimTime::from_secs(20));
    assert_eq!(
        k.peripheral_energy(PeripheralKind::Backlight),
        Energy::from_microjoules(5_550_000),
        "10 s of 555 mW, drained tick-exactly"
    );
    assert!(!k.peripheral_enabled(PeripheralKind::Backlight));
    assert_eq!(k.peripheral_forced_shutdowns(PeripheralKind::Backlight), 0);
    // The reserve paid exactly what the sink received.
    let residual = k.graph().reserve(screen_r).unwrap().balance();
    assert_eq!(residual, Energy::from_microjoules(10_000_000 - 5_550_000));
    // The meter's trace carried the lit span too: 20 s idle floor + 10 s
    // of backlight + two dispatch quanta of CPU.
    let meter = k.meter().total_energy().as_microjoules();
    let floor = 699_000 * 20 + 555_000 * 10;
    assert!(
        (floor..floor + 5_000).contains(&meter),
        "meter {meter} vs floor {floor}"
    );
    assert!(k.graph().totals().conserved());
}

/// The gating preconditions, each refused with a typed error.
#[test]
fn enable_is_gated_on_an_acquired_funded_energy_reserve() {
    let mut k = Kernel::with_defaults();
    // Not acquired yet.
    assert_eq!(
        k.peripheral_enable(PeripheralKind::Gps),
        Err(KernelError::NoPeripheralReserve {
            peripheral: PeripheralKind::Gps
        })
    );
    // An empty reserve acquires fine but cannot light the hardware.
    let root = Actor::kernel();
    let empty = k
        .graph_mut()
        .create_reserve(&root, "empty", Label::default_label())
        .unwrap();
    k.peripheral_acquire(PeripheralKind::Gps, empty).unwrap();
    assert_eq!(
        k.peripheral_enable(PeripheralKind::Gps),
        Err(KernelError::PeripheralUnfunded {
            peripheral: PeripheralKind::Gps
        })
    );
    // A byte reserve is the wrong kind entirely.
    k.graph_mut()
        .create_root(&root, "byte-pool", Quantity::network_bytes(1_000))
        .unwrap();
    let plan = k
        .graph_mut()
        .create_reserve_kind(
            &root,
            "plan",
            Label::default_label(),
            ResourceKind::NetworkBytes,
        )
        .unwrap();
    let pool = k.graph_mut().root(ResourceKind::NetworkBytes).unwrap();
    k.graph_mut()
        .transfer(&root, pool, plan, quota::bytes(1_000))
        .unwrap();
    assert!(matches!(
        k.peripheral_acquire(PeripheralKind::Gps, plan),
        Err(KernelError::Graph(
            cinder_core::GraphError::KindMismatch { .. }
        ))
    ));
    // Funded: lights up. Re-acquiring while lit is refused.
    let fuel = funded(&mut k, "fuel", 5);
    k.peripheral_acquire(PeripheralKind::Gps, fuel).unwrap();
    k.peripheral_enable(PeripheralKind::Gps).unwrap();
    assert!(k.peripheral_enabled(PeripheralKind::Gps));
    assert_eq!(
        k.peripheral_acquire(PeripheralKind::Gps, fuel),
        Err(KernelError::PeripheralBusy {
            peripheral: PeripheralKind::Gps
        })
    );
    // Enable is idempotent while lit.
    assert_eq!(k.peripheral_enable(PeripheralKind::Gps), Ok(()));
}

/// A reserve with no feed drains and the kernel forces the hardware down;
/// the residual is less than one quantum of draw.
#[test]
fn drained_reserve_forces_the_peripheral_down() {
    let mut k = Kernel::new(KernelConfig {
        graph: cinder_core::GraphConfig {
            decay: None,
            ..cinder_core::GraphConfig::default()
        },
        ..KernelConfig::default()
    });
    // 1 J funds ~1.8 s of 555 mW backlight.
    let screen_r = funded(&mut k, "screen", 1);
    k.peripheral_acquire(PeripheralKind::Backlight, screen_r)
        .unwrap();
    k.peripheral_enable(PeripheralKind::Backlight).unwrap();
    k.run_until(SimTime::from_secs(10));
    assert!(!k.peripheral_enabled(PeripheralKind::Backlight));
    assert_eq!(k.peripheral_forced_shutdowns(PeripheralKind::Backlight), 1);
    let drained = k.peripheral_energy(PeripheralKind::Backlight);
    let residual = k.graph().reserve(screen_r).unwrap().balance();
    assert_eq!(drained + residual, Energy::from_joules(1));
    let quantum_need = Power::from_milliwatts(555).energy_over(SimDuration::from_millis(10));
    assert!(
        residual < quantum_need,
        "forced shutdown leaves less than a quantum of draw: {residual}"
    );
    assert!(k.graph().totals().conserved());
}

/// A funded lit backlight is steady state: long sleeps under it fast-forward
/// bit-identically (decay is ON, so the coverage bound's leak term is
/// exercised too).
#[test]
fn lit_backlight_identical_with_and_without_skip() {
    let run = |fast_forward: bool| {
        let mut k = Kernel::new(config(fast_forward));
        let screen_r = tapped(&mut k, "screen", 600_000, 30_000_000);
        let cpu_r = tapped(&mut k, "cpu", 10_000, 2_000_000);
        let mut step = 0;
        k.spawn_unprivileged(
            "ui",
            Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
                step += 1;
                match step {
                    1 => {
                        ctx.peripheral_acquire(PeripheralKind::Backlight, screen_r)
                            .unwrap();
                        ctx.peripheral_enable(PeripheralKind::Backlight).unwrap();
                        Step::SleepUntil(ctx.now() + SimDuration::from_secs(120))
                    }
                    // Re-check and keep sleeping under the lit screen.
                    2..=3 => Step::SleepUntil(ctx.now() + SimDuration::from_secs(120)),
                    4 => {
                        ctx.peripheral_set_drive(PeripheralKind::Backlight, 400_000)
                            .unwrap();
                        Step::SleepUntil(ctx.now() + SimDuration::from_secs(60))
                    }
                    _ => {
                        ctx.peripheral_disable(PeripheralKind::Backlight).unwrap();
                        Step::Exit
                    }
                }
            })),
            cpu_r,
        );
        k.run_until(SimTime::from_secs(600));
        fingerprint(&k)
    };
    let base = run(false);
    let fast = run(true);
    assert_eq!(base, fast);
    assert!(
        base.peripheral_energy_uj[PeripheralKind::Backlight.index()] > 100_000_000,
        "the screen must have burned real energy: {base:?}"
    );
}

/// A duty-cycled GPS (the navigator shape): enable for a fix, disable,
/// sleep — every phase boundary lands identically under the fast-forward.
#[test]
fn duty_cycled_gps_identical_with_and_without_skip() {
    let run = |fast_forward: bool| {
        let mut k = Kernel::new(config(fast_forward));
        let gps_r = tapped(&mut k, "gps", 60_000, 8_000_000);
        let cpu_r = tapped(&mut k, "cpu", 10_000, 2_000_000);
        let mut acquired = false;
        k.spawn_unprivileged(
            "nav",
            Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
                if ctx.peripheral_enabled(PeripheralKind::Gps) {
                    // Fix finished (or the kernel forced us down mid-fix).
                    ctx.peripheral_disable(PeripheralKind::Gps).unwrap();
                    return Step::SleepUntil(ctx.now() + SimDuration::from_secs(50));
                }
                if !acquired {
                    acquired = true;
                    ctx.peripheral_acquire(PeripheralKind::Gps, gps_r).unwrap();
                }
                match ctx.peripheral_enable(PeripheralKind::Gps) {
                    Ok(()) => Step::SleepUntil(ctx.now() + SimDuration::from_secs(10)),
                    Err(_) => Step::SleepUntil(ctx.now() + SimDuration::from_secs(30)),
                }
            })),
            cpu_r,
        );
        k.run_until(SimTime::from_secs(600));
        fingerprint(&k)
    };
    let base = run(false);
    let fast = run(true);
    assert_eq!(base, fast);
    assert!(
        base.peripheral_energy_uj[PeripheralKind::Gps.index()] > 10_000_000,
        "the receiver must have tracked for real: {base:?}"
    );
}

/// A peripheral outrunning its trickle feed keeps crossing the shutdown
/// threshold: the near-empty reserve must pin the slow path so every
/// forced shutdown lands on the same boundary, fast-forward on or off.
#[test]
fn forced_shutdowns_land_identically_under_skip() {
    let run = |fast_forward: bool| {
        let mut k = Kernel::new(config(fast_forward));
        // 150 mW feed for a 555 mW screen: lights for a stretch, browns
        // out, recovers, repeats.
        let screen_r = tapped(&mut k, "screen", 150_000, 4_000_000);
        let cpu_r = tapped(&mut k, "cpu", 10_000, 2_000_000);
        let mut acquired = false;
        k.spawn_unprivileged(
            "flicker",
            Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
                if !acquired {
                    acquired = true;
                    ctx.peripheral_acquire(PeripheralKind::Backlight, screen_r)
                        .unwrap();
                }
                if ctx.peripheral_enabled(PeripheralKind::Backlight) {
                    // Still lit: check back later.
                    return Step::SleepUntil(ctx.now() + SimDuration::from_secs(15));
                }
                match ctx.peripheral_enable(PeripheralKind::Backlight) {
                    Ok(()) => Step::SleepUntil(ctx.now() + SimDuration::from_secs(15)),
                    Err(_) => Step::SleepUntil(ctx.now() + SimDuration::from_secs(5)),
                }
            })),
            cpu_r,
        );
        k.run_until(SimTime::from_secs(600));
        fingerprint(&k)
    };
    let base = run(false);
    let fast = run(true);
    assert_eq!(base, fast);
    assert!(
        base.peripheral_shutdowns[PeripheralKind::Backlight.index()] >= 2,
        "scenario must exercise forced shutdown: {base:?}"
    );
}

/// A *second* outbound tap on the peripheral's reserve drains it far
/// faster than the peripheral alone: the span-coverage guard must count
/// the reserve's total outflow, so the forced shutdown lands on the same
/// boundary whether or not the fast-forward is on.
#[test]
fn second_outbound_tap_pins_the_slow_path_identically() {
    let run = |fast_forward: bool| {
        let mut k = Kernel::new(config(fast_forward));
        // 40 J funds ~72 s of backlight alone — but a 2 W sibling tap
        // (another consumer sharing the budget) empties it in ~15.6 s.
        let screen_r = tapped(&mut k, "screen", 0, 40_000_000);
        let root = Actor::kernel();
        let sibling = k
            .graph_mut()
            .create_reserve(&root, "sibling", Label::default_label())
            .unwrap();
        k.graph_mut()
            .create_tap(
                &root,
                "sibling-tap",
                screen_r,
                sibling,
                RateSpec::constant(Power::from_microwatts(2_000_000)),
                Label::default_label(),
            )
            .unwrap();
        let cpu_r = tapped(&mut k, "cpu", 10_000, 2_000_000);
        let mut lit = false;
        k.spawn_unprivileged(
            "ui",
            Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
                if !lit {
                    lit = true;
                    ctx.peripheral_acquire(PeripheralKind::Backlight, screen_r)
                        .unwrap();
                    ctx.peripheral_enable(PeripheralKind::Backlight).unwrap();
                }
                // Sleep straight through: the shutdown must come from the
                // kernel, at the boundary the slow path would pick.
                Step::SleepUntil(ctx.now() + SimDuration::from_secs(60))
            })),
            cpu_r,
        );
        k.run_until(SimTime::from_secs(180));
        fingerprint(&k)
    };
    let base = run(false);
    let fast = run(true);
    assert_eq!(base, fast);
    assert_eq!(
        base.peripheral_shutdowns[PeripheralKind::Backlight.index()],
        1,
        "the sibling tap must starve the screen mid-sleep: {base:?}"
    );
}

/// §3.5 protection: a peripheral acquired on a protected reserve cannot be
/// enabled, disabled, dimmed, or re-acquired by a thread whose label does
/// not grant modify on that reserve.
#[test]
fn protected_reserve_locks_out_stranger_control() {
    let mut k = Kernel::with_defaults();
    let cat = k.alloc_category();
    let secret = cinder_label::Label::with(&[(cat, cinder_label::Level::L3)]);
    let root = Actor::kernel();
    let battery = k.battery();
    let screen_r = k
        .graph_mut()
        .create_reserve(&root, "screen", secret)
        .unwrap();
    k.graph_mut()
        .transfer(&root, battery, screen_r, Energy::from_joules(50))
        .unwrap();
    // The kernel (owner) acquires and lights it.
    k.peripheral_acquire(PeripheralKind::Backlight, screen_r)
        .unwrap();
    k.peripheral_enable(PeripheralKind::Backlight).unwrap();
    let cpu_r = funded(&mut k, "cpu", 1);
    k.spawn_unprivileged(
        "snoop",
        Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
            // Cannot switch it off…
            assert!(matches!(
                ctx.peripheral_disable(PeripheralKind::Backlight),
                Err(KernelError::Denied { .. })
            ));
            // …nor dim it…
            assert!(matches!(
                ctx.peripheral_set_drive(PeripheralKind::Backlight, 100_000),
                Err(KernelError::Denied { .. })
            ));
            // …nor re-light it, and the GPS cannot be acquired onto the
            // protected reserve either.
            assert!(matches!(
                ctx.peripheral_enable(PeripheralKind::Backlight),
                Err(KernelError::Denied { .. })
            ));
            assert!(ctx
                .peripheral_acquire(PeripheralKind::Gps, screen_r)
                .is_err());
            Step::Exit
        })),
        cpu_r,
    );
    k.run_until(SimTime::from_secs(1));
    assert!(
        k.peripheral_enabled(PeripheralKind::Backlight),
        "the stranger must not have taken the screen down"
    );
    assert_eq!(k.peripheral_drive_ppm(PeripheralKind::Backlight), 1_000_000);
}

/// Pooling netd (blocked senders) composed with a lit backlight: grants,
/// wakes, and the screen's drain all land on identical boundaries. Pooled
/// jumps refuse while anything is lit, so the fast run takes them once
/// the screen is off.
#[test]
fn netd_pooling_with_lit_backlight_identical() {
    let run = |fast_forward: bool| {
        let mut k = Kernel::new(config(fast_forward));
        let netd = CoopNetd::with_defaults(k.graph_mut());
        k.install_net(Box::new(netd));
        let log = PollerLog::shared();
        let r_rss = tapped(&mut k, "rss", 37_500, 0);
        let r_mail = tapped(&mut k, "mail", 37_500, 0);
        k.spawn_unprivileged("rss", Box::new(PeriodicPoller::rss(log.clone())), r_rss);
        k.spawn_unprivileged("mail", Box::new(PeriodicPoller::mail(log.clone())), r_mail);
        let screen_r = tapped(&mut k, "screen", 700_000, 20_000_000);
        let cpu_r = tapped(&mut k, "cpu", 10_000, 2_000_000);
        let mut step = 0;
        k.spawn_unprivileged(
            "ui",
            Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
                step += 1;
                match step {
                    1 => {
                        ctx.peripheral_acquire(PeripheralKind::Backlight, screen_r)
                            .unwrap();
                        ctx.peripheral_enable(PeripheralKind::Backlight).unwrap();
                        Step::SleepUntil(ctx.now() + SimDuration::from_secs(300))
                    }
                    _ => {
                        ctx.peripheral_disable(PeripheralKind::Backlight).unwrap();
                        Step::Exit
                    }
                }
            })),
            cpu_r,
        );
        k.run_until(SimTime::from_secs(600));
        let (sends, blocked) = {
            let log = log.borrow();
            (log.sends.clone(), log.blocked_first)
        };
        (fingerprint(&k), sends, blocked, k.run_profile())
    };
    let (base, base_sends, base_blocked, _) = run(false);
    let (fast, fast_sends, fast_blocked, profile) = run(true);
    assert_eq!(base, fast);
    assert_eq!(base_sends, fast_sends);
    assert_eq!(base_blocked, fast_blocked);
    assert!(base_blocked >= 2, "scenario must exercise pooling");
    assert!(base.peripheral_energy_uj[PeripheralKind::Backlight.index()] > 0);
    assert!(profile.pooled_jumps > 0, "{profile:?}");
}
