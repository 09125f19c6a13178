//! `kernel_hot_path`: the run loop's per-quantum cost, isolated from flow
//! arithmetic — the overhead the fleet pays 36,000 times per device-hour.
//!
//! Three device-hour shapes:
//!
//! * **busy** — one spinner thread with an ample reserve: every quantum
//!   schedules, charges, and meters. Measures the slab-indexed dispatch
//!   path (`pick_next` fast path, single-probe charge, meter dedupe).
//! * **duty-cycled** — a spinner throttled by a half-power tap: quanta
//!   alternate run/starve, exercising the throttle accounting and the
//!   flow tick every boundary.
//! * **idle-heavy** — a thread sleeping in long stretches, run both with
//!   and without `idle_skip`, so the O(1) idle-skip guard's effect is the
//!   ratio between the two.
//! * **backlit-idle** — the idle-heavy shape with a funded, lit backlight:
//!   the reserve-gated peripheral layer's steady state must still
//!   fast-forward (the coverage guard proves the span enforcement-free),
//!   bit-identically on the metered energy *and* the peripheral's drained
//!   energy.
//! * **netd-pooling** — §6.4's cooperative pollers for one hour on the
//!   fleet's 100 ms quantum, with `fast_forward` on vs off (`idle_skip` on
//!   in both): the pooled jump's closed form, with the sleeping poller's
//!   reserve as a decay lane, against the full loop stepping every
//!   pooling quantum, bit-identical on every reserve, the meter, and the
//!   poll log.
//! * **retrying-pollers** — the same rig with the fault layer's bounded
//!   retry: a backoff wake leaves a Ready poller whose reserve netd keeps
//!   sweeping, which `fast_forward` crosses with gated pooled jumps and
//!   the stepped run pays quantum by quantum — bit-identical on the same
//!   observables plus every thread's throttled time.
//! * **browser-quantum** — Fig 6b's browser, plugin and extension on the
//!   fleet's 100 ms quantum for one hour: no quantum jumps, so this is the
//!   full loop's per-quantum cost (flow tick over three constant and two
//!   proportional taps with decay, a multi-Ready pick, a charge).
//!
//! Writes `BENCH_kernel_hot_path.json` at the repo root.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

use cinder_apps::{build_browser, build_pollers_with_retry, BrowserConfig};
use cinder_core::{Actor, RateSpec, SchedulerConfig};
use cinder_fleet::{FaultConfig, RetryPolicy};
use cinder_kernel::{Ctx, FnProgram, Kernel, KernelConfig, PeripheralKind, Program, Step};
use cinder_label::Label;
use cinder_net::CoopNetd;
use cinder_sim::{Energy, Power, SimDuration, SimTime};

/// Simulated span per measured run.
const SIM_SECS: u64 = 600;

fn kernel(idle_skip: bool) -> Kernel {
    Kernel::new(KernelConfig {
        idle_skip,
        ..KernelConfig::default()
    })
}

fn spinner() -> Box<dyn Program> {
    Box::new(FnProgram(|_ctx: &mut Ctx<'_>| {
        Step::compute(SimDuration::from_secs(1))
    }))
}

/// A thread that sleeps 60 s between 10 ms bursts — the poller shape with
/// the radio taken out of the picture.
fn sleeper() -> Box<dyn Program> {
    Box::new(FnProgram(|ctx: &mut Ctx<'_>| {
        Step::SleepUntil(ctx.now() + SimDuration::from_secs(60))
    }))
}

fn busy_kernel() -> Kernel {
    let mut k = kernel(false);
    let battery = k.battery();
    let r = k
        .graph_mut()
        .create_reserve(&Actor::kernel(), "spin", Label::default_label())
        .unwrap();
    k.graph_mut()
        .transfer(&Actor::kernel(), battery, r, Energy::from_joules(1_000))
        .unwrap();
    k.spawn_unprivileged("spin", spinner(), r);
    k
}

fn duty_cycled_kernel() -> Kernel {
    let mut k = kernel(false);
    let battery = k.battery();
    let r = k
        .graph_mut()
        .create_reserve(&Actor::kernel(), "half", Label::default_label())
        .unwrap();
    k.graph_mut()
        .create_tap(
            &Actor::kernel(),
            "68.5mW",
            battery,
            r,
            RateSpec::constant(Power::from_microwatts(68_500)),
            Label::default_label(),
        )
        .unwrap();
    k.spawn_unprivileged("hog", spinner(), r);
    k
}

fn idle_heavy_kernel(idle_skip: bool) -> Kernel {
    let mut k = kernel(idle_skip);
    let battery = k.battery();
    let r = k
        .graph_mut()
        .create_reserve(&Actor::kernel(), "sleepy", Label::default_label())
        .unwrap();
    k.graph_mut()
        .transfer(&Actor::kernel(), battery, r, Energy::from_joules(100))
        .unwrap();
    k.spawn_unprivileged("sleepy", sleeper(), r);
    k
}

/// The idle-heavy device with a funded, lit backlight: the peripheral
/// drain runs in the flow engine while the sleeper's long gaps invite the
/// fast-forward — the guard must prove the lit span steady and jump it.
fn backlit_idle_kernel(idle_skip: bool) -> Kernel {
    let mut k = idle_heavy_kernel(idle_skip);
    let battery = k.battery();
    let screen = k
        .graph_mut()
        .create_reserve(&Actor::kernel(), "screen", Label::default_label())
        .unwrap();
    k.graph_mut()
        .transfer(&Actor::kernel(), battery, screen, Energy::from_joules(100))
        .unwrap();
    k.graph_mut()
        .create_tap(
            &Actor::kernel(),
            "screen-tap",
            battery,
            screen,
            RateSpec::constant(Power::from_microwatts(600_000)),
            Label::default_label(),
        )
        .unwrap();
    k.peripheral_acquire(PeripheralKind::Backlight, screen)
        .unwrap();
    k.peripheral_enable(PeripheralKind::Backlight).unwrap();
    k
}

/// Simulated span of the netd-pooling case.
const POOLING_SECS: u64 = 3_600;

/// The fault-heavy fleet's client retry policy.
fn heavy_retry() -> Option<RetryPolicy> {
    FaultConfig::heavy(0).retry
}

/// §6.4's coop pollers on a fleet-shaped kernel (100 ms quanta), with the
/// given `fast_forward` and retry policy: both threads spend most of the
/// hour waiting on netd while their feeds fill its pool — blocked, or
/// (retrying) Ready after a backoff wake with netd sweeping their reserves.
fn netd_pooling_kernel(
    fast_forward: bool,
    retry: Option<RetryPolicy>,
) -> (Kernel, cinder_apps::PollerHandles) {
    let mut k = Kernel::new(KernelConfig {
        idle_skip: true,
        fast_forward,
        sched: SchedulerConfig {
            quantum: SimDuration::from_millis(100),
            ..SchedulerConfig::default()
        },
        ..KernelConfig::default()
    });
    let netd = CoopNetd::with_defaults(k.graph_mut());
    k.install_net(Box::new(netd));
    let handles = build_pollers_with_retry(
        &mut k,
        Power::from_microwatts(37_513),
        SimDuration::from_secs(60),
        SimDuration::from_secs(60),
        retry,
    )
    .unwrap();
    (k, handles)
}

/// Fig 6b's browser on a fleet-shaped kernel (100 ms quanta, `idle_skip`
/// and `fast_forward` on).
fn browser_kernel() -> Kernel {
    let mut k = Kernel::new(KernelConfig {
        idle_skip: true,
        fast_forward: true,
        sched: SchedulerConfig {
            quantum: SimDuration::from_millis(100),
            ..SchedulerConfig::default()
        },
        ..KernelConfig::default()
    });
    build_browser(&mut k, BrowserConfig::fig6b()).unwrap();
    k
}

fn run(mut k: Kernel) -> Kernel {
    k.run_until(SimTime::from_secs(SIM_SECS));
    k
}

fn bench_kernel_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_hot_path_10min");
    group.bench_function("busy_spinner", |b| b.iter_with_setup(busy_kernel, run));
    group.bench_function("duty_cycled_spinner", |b| {
        b.iter_with_setup(duty_cycled_kernel, run)
    });
    group.bench_function("idle_heavy_no_skip", |b| {
        b.iter_with_setup(|| idle_heavy_kernel(false), run)
    });
    group.bench_function("idle_heavy_idle_skip", |b| {
        b.iter_with_setup(|| idle_heavy_kernel(true), run)
    });
    group.bench_function("backlit_idle_no_skip", |b| {
        b.iter_with_setup(|| backlit_idle_kernel(false), run)
    });
    group.bench_function("backlit_idle_idle_skip", |b| {
        b.iter_with_setup(|| backlit_idle_kernel(true), run)
    });
    group.finish();
    let mut group = c.benchmark_group("kernel_hot_path_1h");
    let run_pooling = |(mut k, _): (Kernel, cinder_apps::PollerHandles)| {
        k.run_until(SimTime::from_secs(POOLING_SECS));
        k
    };
    group.bench_function("netd_pooling_ff_off", |b| {
        b.iter_with_setup(|| netd_pooling_kernel(false, None), run_pooling)
    });
    group.bench_function("netd_pooling_fast_forward", |b| {
        b.iter_with_setup(|| netd_pooling_kernel(true, None), run_pooling)
    });
    group.bench_function("retrying_pollers_ff_off", |b| {
        b.iter_with_setup(|| netd_pooling_kernel(false, heavy_retry()), run_pooling)
    });
    group.bench_function("retrying_pollers_fast_forward", |b| {
        b.iter_with_setup(|| netd_pooling_kernel(true, heavy_retry()), run_pooling)
    });
    group.bench_function("browser_quantum", |b| {
        b.iter_with_setup(browser_kernel, |mut k| {
            k.run_until(SimTime::from_secs(POOLING_SECS));
            k
        })
    });
    group.finish();
}

/// Fixed-iteration wall times, sanity checks (skip/no-skip bit-identity on
/// the metered energy), and the seed JSON.
fn hot_path_report(_c: &mut Criterion) {
    fn time_runs<F: FnMut() -> Kernel>(mut build: F, iters: u32) -> (f64, Energy) {
        let mut total = 0.0;
        let mut energy = Energy::ZERO;
        for _ in 0..iters {
            let mut k = build();
            let start = Instant::now();
            k.run_until(SimTime::from_secs(SIM_SECS));
            total += start.elapsed().as_secs_f64() * 1e3;
            energy = k.meter().total_energy();
        }
        (total / iters as f64, energy)
    }

    let (busy_ms, _) = time_runs(busy_kernel, 10);
    let (duty_ms, _) = time_runs(duty_cycled_kernel, 10);
    let (idle_ms, idle_energy) = time_runs(|| idle_heavy_kernel(false), 10);
    let (skip_ms, skip_energy) = time_runs(|| idle_heavy_kernel(true), 10);
    assert_eq!(
        idle_energy, skip_energy,
        "idle_skip must be bit-identical on metered energy"
    );
    // The funded-peripheral steady state: a lit backlight must not pin the
    // loop — the fast-forward still engages, with identical observables.
    let run_backlit = |idle_skip: bool| {
        let mut k = backlit_idle_kernel(idle_skip);
        let start = Instant::now();
        k.run_until(SimTime::from_secs(SIM_SECS));
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        (
            wall_ms,
            k.meter().total_energy(),
            k.peripheral_energy(PeripheralKind::Backlight),
            k.peripheral_forced_shutdowns(PeripheralKind::Backlight),
        )
    };
    let (backlit_ms, backlit_energy, backlit_drain, backlit_cuts) = run_backlit(false);
    let (backlit_skip_ms, skip_backlit_energy, skip_drain, skip_cuts) = run_backlit(true);
    assert_eq!(
        (backlit_energy, backlit_drain, backlit_cuts),
        (skip_backlit_energy, skip_drain, skip_cuts),
        "a lit peripheral must not perturb the fast-forward's observables"
    );
    assert_eq!(backlit_cuts, 0, "the funded backlight must stay lit");
    assert!(
        backlit_drain >= Energy::from_joules(300),
        "600 s of 555 mW drained through the flow engine: {backlit_drain}"
    );
    // netd pooling: pooled jumps against the ff-off loop. Everything
    // observable must match — every reserve's balance and flow stats, the
    // meter, the radio, when each poll went out, and how long each thread
    // was throttled.
    let run_pooling = |fast_forward: bool, retry: Option<RetryPolicy>| {
        let mut wall_ms = f64::INFINITY;
        let mut seen = None;
        for _ in 0..5 {
            let (mut k, handles) = netd_pooling_kernel(fast_forward, retry);
            let start = Instant::now();
            k.run_until(SimTime::from_secs(POOLING_SECS));
            wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
            let reserves: Vec<_> = k
                .graph()
                .reserves()
                .map(|(_, r)| (r.balance(), r.stats()))
                .collect();
            let throttled: Vec<_> = k.thread_id_iter().map(|t| k.thread_throttled(t)).collect();
            let observed = (
                reserves,
                k.meter().total_energy(),
                k.arm9().radio().stats().activations,
                handles.log.borrow().sends.clone(),
                throttled,
            );
            seen = Some((observed, k.run_profile()));
        }
        let (observed, profile) = seen.expect("ran");
        (wall_ms, observed, profile)
    };
    let (pool_ms, pool_observed, _) = run_pooling(false, None);
    let (pool_ff_ms, pool_ff_observed, pool_profile) = run_pooling(true, None);
    assert_eq!(
        pool_observed, pool_ff_observed,
        "pooled jumps must be bit-identical to stepping"
    );
    assert!(
        pool_profile.pooled_jumps > 0,
        "the pooling case must take pooled jumps: {pool_profile:?}"
    );
    let pooled_share = pool_profile.pooled_quanta as f64 / pool_profile.quanta() as f64;
    let pool_speedup = pool_ms / pool_ff_ms;
    // Retrying pollers: gated jumps against the ff-off loop, which steps
    // every quantum a swept Ready poller waits out in full.
    let (retry_ms, retry_observed, _) = run_pooling(false, heavy_retry());
    let (retry_ff_ms, retry_ff_observed, retry_profile) = run_pooling(true, heavy_retry());
    assert_eq!(
        retry_observed, retry_ff_observed,
        "gated jumps must be bit-identical to stepping"
    );
    assert!(
        retry_profile.gated_quanta > 0,
        "the retrying case must cross gated Ready quanta: {retry_profile:?}"
    );
    let gated_share = retry_profile.gated_quanta as f64 / retry_profile.quanta() as f64;
    let retry_speedup = retry_ms / retry_ff_ms;

    // The browser's full loop: best of five hours, in ns per quantum.
    let mut browser_ns = f64::INFINITY;
    let mut browser_full_quanta = 0;
    for _ in 0..5 {
        let mut k = browser_kernel();
        let start = Instant::now();
        k.run_until(SimTime::from_secs(POOLING_SECS));
        let wall_ns = start.elapsed().as_secs_f64() * 1e9;
        browser_full_quanta = k.run_profile().full_quanta;
        browser_ns = browser_ns.min(wall_ns / browser_full_quanta as f64);
    }

    let quanta = SIM_SECS * 100; // default 10 ms quantum
    let skip_speedup = idle_ms / skip_ms;
    let backlit_speedup = backlit_ms / backlit_skip_ms;
    println!(
        "kernel_hot_path: busy {busy_ms:.2} ms ({:.0} ns/quantum), duty-cycled {duty_ms:.2} ms, \
         idle {idle_ms:.2} ms vs idle_skip {skip_ms:.3} ms ({skip_speedup:.0}x), backlit idle \
         {backlit_ms:.2} ms vs skip {backlit_skip_ms:.3} ms ({backlit_speedup:.0}x), netd pooling \
         1 h {pool_ms:.2} ms vs fast_forward {pool_ff_ms:.3} ms ({pool_speedup:.1}x, {:.0}% of \
         quanta in {} pooled jumps), retrying pollers 1 h {retry_ms:.2} ms vs fast_forward \
         {retry_ff_ms:.3} ms ({retry_speedup:.1}x, {:.0}% of quanta gated), browser \
         {browser_ns:.1} ns/quantum over {browser_full_quanta} full-loop quanta",
        busy_ms * 1e6 / quanta as f64,
        pooled_share * 100.0,
        pool_profile.pooled_jumps,
        gated_share * 100.0,
    );

    let json = format!(
        "{{\n  \"bench\": \"kernel_hot_path\",\n  \"scenario\": {{ \"sim_seconds\": {SIM_SECS}, \
         \"quantum_ms\": 10, \"quanta\": {quanta} }},\n  \"busy_spinner\": {{ \"wall_ms\": \
         {busy_ms:.3}, \"ns_per_quantum\": {:.1} }},\n  \"duty_cycled_spinner\": {{ \"wall_ms\": \
         {duty_ms:.3} }},\n  \"idle_heavy\": {{ \"no_skip_wall_ms\": {idle_ms:.3}, \
         \"idle_skip_wall_ms\": {skip_ms:.4}, \"skip_speedup\": {skip_speedup:.1}, \
         \"metered_energy_bit_identical\": true }},\n  \"backlit_idle\": {{ \"no_skip_wall_ms\": \
         {backlit_ms:.3}, \"idle_skip_wall_ms\": {backlit_skip_ms:.4}, \"skip_speedup\": \
         {backlit_speedup:.1}, \"backlight_drain_j\": {:.3}, \"forced_shutdowns\": {backlit_cuts}, \
         \"observables_bit_identical\": true }},\n  \"netd_pooling\": {{ \"sim_seconds\": \
         {POOLING_SECS}, \"quantum_ms\": 100, \"ff_off_wall_ms\": {pool_ms:.3}, \
         \"fast_forward_wall_ms\": {pool_ff_ms:.4}, \"skip_speedup\": {pool_speedup:.1}, \
         \"pooled_jumps\": {}, \"pooled_quanta_share\": {pooled_share:.3}, \
         \"observables_bit_identical\": true }},\n  \"retrying_pollers\": {{ \"sim_seconds\": \
         {POOLING_SECS}, \"quantum_ms\": 100, \"ff_off_wall_ms\": {retry_ms:.3}, \
         \"fast_forward_wall_ms\": {retry_ff_ms:.4}, \"skip_speedup\": {retry_speedup:.1}, \
         \"gated_quanta_share\": {gated_share:.3}, \"observables_bit_identical\": true }},\n  \
         \"browser_quantum\": {{ \"sim_seconds\": {POOLING_SECS}, \"quantum_ms\": 100, \
         \"ns_per_quantum\": {browser_ns:.1}, \"full_quanta\": {browser_full_quanta} }}\n}}\n",
        busy_ms * 1e6 / quanta as f64,
        backlit_drain.as_microjoules() as f64 / 1e6,
        pool_profile.pooled_jumps
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_kernel_hot_path.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("(wrote {path})"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_kernel_hot_path, hot_path_report);
criterion_main!(benches);
