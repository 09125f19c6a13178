//! `kernel_hot_path`: the run loop's per-quantum cost, isolated from flow
//! arithmetic — the overhead the fleet pays 36,000 times per device-hour.
//!
//! Every case but the first runs with `fast_forward` off and on: off, the
//! literal loop steps every quantum; on, the run loop's jumps cross what
//! their certificate allows.
//!
//! * **busy** — one spinner thread with an ample reserve: every quantum
//!   schedules, charges, and meters. Measures the slab-indexed dispatch
//!   path (`pick_next` fast path, single-probe charge, meter dedupe).
//! * **duty-cycled** — Fig 9's hog, an endless spinner throttled by a
//!   half-power tap: off, quanta alternate run/starve through the full
//!   loop; on, duty jumps settle them with the hog's reserve as a charged
//!   decay lane — bit-identical on every reserve, the meter, and every
//!   thread's charged energy, throttled time and power estimate.
//! * **idle-heavy** — a thread sleeping in long stretches, so the O(1)
//!   idle-jump guard's effect is the ratio between the two sides.
//! * **backlit-idle** — the idle-heavy shape with a funded, lit backlight:
//!   the reserve-gated peripheral layer's steady state must still
//!   fast-forward (the coverage guard proves the span enforcement-free),
//!   bit-identically on the metered energy *and* the peripheral's drained
//!   energy.
//! * **netd-pooling** — §6.4's cooperative pollers for one hour on the
//!   fleet's 100 ms quantum: the pooled jump's closed form, with the
//!   sleeping poller's reserve as a decay lane, against the full loop
//!   stepping every quantum, bit-identical on every reserve, the meter,
//!   and the poll log.
//! * **retrying-pollers** — the same rig with the fault layer's bounded
//!   retry: a backoff wake leaves a Ready poller whose reserve netd keeps
//!   sweeping, which `fast_forward` crosses with gated pooled jumps and
//!   the stepped run pays quantum by quantum — bit-identical on the same
//!   observables plus every thread's throttled time.
//! * **browser-quantum** — Fig 6b's browser, plugin and extension on the
//!   fleet's 100 ms quantum for one hour: off, every quantum runs the full
//!   loop (flow tick over three constant and two proportional taps with
//!   decay, a multi-Ready pick, a charge); on, duty jumps cross the plugin's
//!   sole-Ready windows between page loads, ticking the graph between its
//!   quanta — bit-identical on the same observables. Reported in ns per
//!   simulated quantum.
//!
//! Each speedup is the ratio of the best wall times of the two sides, run
//! in alternating pairs so that drift on a shared host hits both alike.
//! Writes `BENCH_kernel_hot_path.json` at the repo root.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

use cinder_apps::{build_browser, build_pollers_with_retry, BrowserConfig, Spinner};
use cinder_core::{Actor, RateSpec, ReserveStats, SchedulerConfig};
use cinder_fleet::{FaultConfig, RetryPolicy};
use cinder_kernel::{Ctx, FnProgram, Kernel, KernelConfig, PeripheralKind, Program, Step};
use cinder_label::Label;
use cinder_net::CoopNetd;
use cinder_sim::{Energy, Power, SimDuration, SimTime};

/// Simulated span per measured run.
const SIM_SECS: u64 = 600;

fn kernel(fast_forward: bool) -> Kernel {
    Kernel::new(KernelConfig {
        fast_forward,
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

fn duty_cycled_kernel(fast_forward: bool) -> Kernel {
    let mut k = kernel(fast_forward);
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
    k.spawn_unprivileged("hog", Box::new(Spinner::new()), r);
    k
}

fn idle_heavy_kernel(fast_forward: bool) -> Kernel {
    let mut k = kernel(fast_forward);
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
fn backlit_idle_kernel(fast_forward: bool) -> Kernel {
    let mut k = idle_heavy_kernel(fast_forward);
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

/// Fig 6b's browser on a fleet-shaped kernel (100 ms quanta) with the
/// given `fast_forward`.
fn browser_kernel(fast_forward: bool) -> Kernel {
    let mut k = Kernel::new(KernelConfig {
        fast_forward,
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
    group.bench_function("duty_cycled_spinner_ff_off", |b| {
        b.iter_with_setup(|| duty_cycled_kernel(false), run)
    });
    group.bench_function("duty_cycled_spinner_fast_forward", |b| {
        b.iter_with_setup(|| duty_cycled_kernel(true), run)
    });
    group.bench_function("idle_heavy_ff_off", |b| {
        b.iter_with_setup(|| idle_heavy_kernel(false), run)
    });
    group.bench_function("idle_heavy_fast_forward", |b| {
        b.iter_with_setup(|| idle_heavy_kernel(true), run)
    });
    group.bench_function("backlit_idle_ff_off", |b| {
        b.iter_with_setup(|| backlit_idle_kernel(false), run)
    });
    group.bench_function("backlit_idle_fast_forward", |b| {
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
    let run_hour = |mut k: Kernel| {
        k.run_until(SimTime::from_secs(POOLING_SECS));
        k
    };
    group.bench_function("browser_quantum_ff_off", |b| {
        b.iter_with_setup(|| browser_kernel(false), run_hour)
    });
    group.bench_function("browser_quantum_fast_forward", |b| {
        b.iter_with_setup(|| browser_kernel(true), run_hour)
    });
    group.finish();
}

/// Everything a fast path must leave as stepping does: every reserve's
/// balance and stats, the meter, radio activations, and each thread's
/// charged energy, throttled time and power estimate.
type Observed = (
    Vec<(Energy, ReserveStats)>,
    Energy,
    u64,
    Vec<(Energy, SimDuration, Power)>,
);

fn observe(k: &mut Kernel) -> Observed {
    let reserves = k
        .graph()
        .reserves()
        .map(|(_, r)| (r.balance(), r.stats()))
        .collect();
    let threads = k
        .thread_ids()
        .into_iter()
        .map(|t| {
            let energy = k.thread_consumed(t);
            let throttled = k.thread_throttled(t);
            (energy, throttled, k.thread_power_estimate(t))
        })
        .collect();
    (
        reserves,
        k.meter().total_energy(),
        k.arm9().radio().stats().activations,
        threads,
    )
}

/// Runs `k` to `secs` and returns its wall time in ms.
fn timed(k: &mut Kernel, secs: u64) -> f64 {
    let start = Instant::now();
    k.run_until(SimTime::from_secs(secs));
    start.elapsed().as_secs_f64() * 1e3
}

/// Alternating pairs per speedup.
const PAIRS: usize = 7;

/// Times `run(false)` against `run(true)`, a fast path off and on, in
/// [`PAIRS`] pairs that alternate which side runs first; `run` returns its
/// wall ms and what it observed. Returns each side's best wall ms and its
/// last observation, off side first.
fn alternate<T>(mut run: impl FnMut(bool) -> (f64, T)) -> [(f64, T); 2] {
    let mut sides: [(f64, Option<T>); 2] = [(f64::INFINITY, None), (f64::INFINITY, None)];
    for pair in 0..PAIRS {
        for on in [pair % 2 == 1, pair % 2 == 0] {
            let (ms, seen) = run(on);
            let side = &mut sides[usize::from(on)];
            side.0 = side.0.min(ms);
            side.1 = Some(seen);
        }
    }
    sides.map(|(ms, seen)| (ms, seen.expect("every side ran")))
}

/// Wall times, bit-identity checks of each fast path against its
/// stepped side, and the seed JSON.
fn hot_path_report(_c: &mut Criterion) {
    let busy_ms = (0..PAIRS)
        .map(|_| timed(&mut busy_kernel(), SIM_SECS))
        .fold(f64::INFINITY, f64::min);
    let [(idle_ms, idle_energy), (idle_ff_ms, idle_ff_energy)] = alternate(|fast_forward| {
        let mut k = idle_heavy_kernel(fast_forward);
        (timed(&mut k, SIM_SECS), k.meter().total_energy())
    });
    assert_eq!(
        idle_energy, idle_ff_energy,
        "idle jumps must be bit-identical on metered energy"
    );
    // The funded-peripheral steady state: a lit backlight must not pin the
    // loop — the fast-forward still engages, with identical observables.
    let [(backlit_ms, backlit), (backlit_ff_ms, backlit_ff)] = alternate(|fast_forward| {
        let mut k = backlit_idle_kernel(fast_forward);
        let wall_ms = timed(&mut k, SIM_SECS);
        let seen = (
            k.meter().total_energy(),
            k.peripheral_energy(PeripheralKind::Backlight),
            k.peripheral_forced_shutdowns(PeripheralKind::Backlight),
        );
        (wall_ms, seen)
    });
    assert_eq!(
        backlit, backlit_ff,
        "a lit peripheral must not perturb the fast-forward's observables"
    );
    let (_, backlit_drain, backlit_cuts) = backlit;
    assert_eq!(backlit_cuts, 0, "the funded backlight must stay lit");
    assert!(
        backlit_drain >= Energy::from_joules(300),
        "600 s of 555 mW drained through the flow engine: {backlit_drain}"
    );
    // Fig 9's hog: duty jumps against the ff-off loop, which steps every
    // run-or-throttle quantum.
    let [(duty_ms, duty_observed), (duty_ff_ms, (duty_ff_observed, duty_profile))] =
        alternate(|fast_forward| {
            let mut k = duty_cycled_kernel(fast_forward);
            let wall_ms = timed(&mut k, SIM_SECS);
            (wall_ms, (observe(&mut k), k.run_profile()))
        });
    assert_eq!(
        duty_observed.0, duty_ff_observed,
        "duty jumps must be bit-identical to stepping"
    );
    assert!(
        duty_profile.duty_jumps > 0,
        "the duty-cycled case must take duty jumps: {duty_profile:?}"
    );
    let duty_share = duty_profile.duty_quanta as f64 / duty_profile.quanta() as f64;
    let duty_speedup = duty_ms / duty_ff_ms;
    // netd pooling: pooled jumps against the ff-off loop. Everything
    // observable must match — every reserve's balance and flow stats, the
    // meter, the radio, when each poll went out, and each thread's
    // accounting.
    let run_pooling = |fast_forward: bool, retry: Option<RetryPolicy>| {
        let (mut k, handles) = netd_pooling_kernel(fast_forward, retry);
        let wall_ms = timed(&mut k, POOLING_SECS);
        let sends = handles.log.borrow().sends.clone();
        (wall_ms, ((observe(&mut k), sends), k.run_profile()))
    };
    let [(pool_ms, pool_observed), (pool_ff_ms, pool_ff_observed)] =
        alternate(|ff| run_pooling(ff, None));
    let pool_profile = pool_ff_observed.1;
    assert_eq!(
        pool_observed.0, pool_ff_observed.0,
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
    let [(retry_ms, retry_observed), (retry_ff_ms, retry_ff_observed)] =
        alternate(|ff| run_pooling(ff, heavy_retry()));
    let retry_profile = retry_ff_observed.1;
    assert_eq!(
        retry_observed.0, retry_ff_observed.0,
        "gated jumps must be bit-identical to stepping"
    );
    assert!(
        retry_profile.gated_quanta > 0,
        "the retrying case must cross gated Ready quanta: {retry_profile:?}"
    );
    let gated_share = retry_profile.gated_quanta as f64 / retry_profile.quanta() as f64;
    let retry_speedup = retry_ms / retry_ff_ms;

    // Fig 6b's browser: duty jumps against the ff-off loop, which steps
    // every quantum; both in ns per simulated quantum.
    let [(browser_ms, browser_observed), (browser_ff_ms, (browser_ff_observed, browser_profile))] =
        alternate(|fast_forward| {
            let mut k = browser_kernel(fast_forward);
            let wall_ms = timed(&mut k, POOLING_SECS);
            (wall_ms, (observe(&mut k), k.run_profile()))
        });
    assert_eq!(
        browser_observed.0, browser_ff_observed,
        "the browser's duty jumps must be bit-identical to stepping"
    );
    let browser_quanta = browser_profile.quanta();
    let browser_share = browser_profile.duty_quanta as f64 / browser_quanta as f64;
    let browser_ns = browser_ms * 1e6 / browser_quanta as f64;
    let browser_ff_ns = browser_ff_ms * 1e6 / browser_quanta as f64;
    let browser_speedup = browser_ms / browser_ff_ms;

    let quanta = SIM_SECS * 100; // default 10 ms quantum
    let idle_speedup = idle_ms / idle_ff_ms;
    let backlit_speedup = backlit_ms / backlit_ff_ms;
    println!(
        "kernel_hot_path: busy {busy_ms:.2} ms ({:.0} ns/quantum), duty-cycled {duty_ms:.2} ms \
         vs fast_forward {duty_ff_ms:.3} ms ({duty_speedup:.0}x, {:.0}% of quanta in {} duty \
         jumps), idle {idle_ms:.2} ms vs fast_forward {idle_ff_ms:.3} ms ({idle_speedup:.0}x), backlit \
         idle {backlit_ms:.2} ms vs fast_forward {backlit_ff_ms:.3} ms ({backlit_speedup:.0}x), \
         netd pooling \
         1 h {pool_ms:.2} ms vs fast_forward {pool_ff_ms:.3} ms ({pool_speedup:.1}x, {:.0}% of \
         quanta in {} pooled jumps), retrying pollers 1 h {retry_ms:.2} ms vs fast_forward \
         {retry_ff_ms:.3} ms ({retry_speedup:.1}x, {:.0}% of quanta gated), browser \
         {browser_ns:.1} ns/quantum vs fast_forward {browser_ff_ns:.1} ns/quantum \
         ({browser_speedup:.1}x, {:.0}% of quanta in {} duty jumps)",
        busy_ms * 1e6 / quanta as f64,
        duty_share * 100.0,
        duty_profile.duty_jumps,
        pooled_share * 100.0,
        pool_profile.pooled_jumps,
        gated_share * 100.0,
        browser_share * 100.0,
        browser_profile.duty_jumps,
    );

    let json = format!(
        "{{\n  \"bench\": \"kernel_hot_path\",\n  \"scenario\": {{ \"sim_seconds\": {SIM_SECS}, \
         \"quantum_ms\": 10, \"quanta\": {quanta} }},\n  \"busy_spinner\": {{ \"wall_ms\": \
         {busy_ms:.3}, \"ns_per_quantum\": {:.1} }},\n  \"duty_cycled_spinner\": {{ \"ff_off_wall_ms\": \
         {duty_ms:.3}, \"fast_forward_wall_ms\": {duty_ff_ms:.4}, \"skip_speedup\": \
         {duty_speedup:.1}, \"duty_jumps\": {}, \"duty_quanta_share\": {duty_share:.3}, \
         \"observables_bit_identical\": true }},\n  \"idle_heavy\": {{ \"ff_off_wall_ms\": {idle_ms:.3}, \
         \"fast_forward_wall_ms\": {idle_ff_ms:.4}, \"skip_speedup\": {idle_speedup:.1}, \
         \"metered_energy_bit_identical\": true }},\n  \"backlit_idle\": {{ \"ff_off_wall_ms\": \
         {backlit_ms:.3}, \"fast_forward_wall_ms\": {backlit_ff_ms:.4}, \"skip_speedup\": \
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
         \"quanta\": {browser_quanta}, \"ff_off_ns_per_quantum\": {browser_ns:.1}, \
         \"fast_forward_ns_per_quantum\": {browser_ff_ns:.1}, \"skip_speedup\": \
         {browser_speedup:.2}, \"duty_jumps\": {}, \"duty_quanta_share\": {browser_share:.3}, \
         \"full_quanta\": {}, \"observables_bit_identical\": true }}\n}}\n",
        busy_ms * 1e6 / quanta as f64,
        duty_profile.duty_jumps,
        backlit_drain.as_microjoules() as f64 / 1e6,
        pool_profile.pooled_jumps,
        browser_profile.duty_jumps,
        browser_profile.full_quanta,
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
