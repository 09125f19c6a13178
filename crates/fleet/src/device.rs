//! The device driver: one [`DeviceSpec`] in, one [`DeviceReport`] out.
//!
//! Each device gets its own [`Kernel`] built from its spec — battery
//! capacity, seed, and workload topology with the device's jitter applied —
//! run to the horizon in one loop whose spans end only at policy ticks and
//! fault boundaries (the kernel's bit-exact idle, frozen, and pooled jumps
//! cross the rest), then torn down into a compact report. Devices sharing
//! nothing is what lets the executor shard them freely.
//!
//! The driver is workload-agnostic: [`crate::scenario::Workload::program`] resolves the
//! spec's tag to a [`cinder_apps::WorkloadProgram`], which shapes the
//! kernel config (e.g. the gallery's laptop NIC), installs its own
//! topology, and hands back the probe the extraction pass reads — the seam
//! that let the peripheral workloads (navigator, screen-on) plug in
//! without touching this file's logic.

use cinder_apps::{InstalledWorkload, OffloadSetup, WorkloadEnv};
use cinder_core::{quota, ResourceKind, SchedulerConfig};
use cinder_kernel::{Kernel, KernelConfig, PeripheralKind, RunProfile};
use cinder_sim::{Energy, SimDuration, SimTime};

use crate::fault_driver::FaultRuntime;
use crate::policy_driver::PolicyRuntime;
use crate::scenario::DeviceSpec;
#[cfg(test)]
use crate::scenario::Workload;

/// The per-device telemetry schema: one row per [`DeviceReport`] field, in
/// CSV column order. A row is the field's doc, name and type, then an
/// optional `as "header"` where the CSV column is not named after the field,
/// then an optional `=> f` for a derived CSV column `f(&row, horizon_s)`
/// that follows it. `$gen` consumes the rows: this module's
/// [`DeviceReport`], [`crate::slab`]'s columns, and [`crate::report`]'s CSV
/// writer each have one generator, so a new field is one row here plus its
/// line in the extraction below.
macro_rules! device_fields {
    ($gen:ident) => {
        $gen! {
            /// Workload tag (see [`crate::scenario::Workload::tag`]).
            workload: &'static str,
            /// Battery capacity the device started with.
            battery_capacity_uj: i64 as "battery_uj",
            /// Root-reserve balance at the horizon.
            battery_remaining_uj: i64,
            /// Total platform energy the meter integrated over the horizon.
            total_energy_uj: i64,
            /// Energy charged to threads by the energy-aware scheduler (CPU
            /// subsystem share of the total).
            cpu_energy_uj: i64,
            /// Energy the backlight drained from its reserve (peripheral layer).
            backlight_energy_uj: i64,
            /// Energy the GPS drained from its reserve (peripheral layer).
            gps_energy_uj: i64,
            /// Times the kernel forced the backlight dark on an empty reserve.
            backlight_shutdowns: u64,
            /// Times the kernel forced the GPS down on an empty reserve.
            gps_shutdowns: u64,
            /// Projected battery lifetime at the observed average draw, in hours.
            lifetime_h: f64 => avg_power_mw,
            /// Radio idle→active transitions (phone workloads).
            radio_activations: u64,
            /// Total radio-active time in seconds.
            radio_active_s: f64,
            /// Bytes moved over the network (radio tx+rx, or NIC downloads for the
            /// gallery).
            net_bytes: u64,
            /// Completed application operations (polls sent / pages / images /
            /// GPS fixes).
            ops: u64,
            /// Time threads spent denied the CPU on an empty reserve.
            starved_s: f64,
            /// Reserves in debt (negative balance) at the horizon — the
            /// after-the-fact billing of §5.5.2 at work.
            debt_reserves: u32,
            /// Whether the §9 data plan ran out before the horizon: a send blocked
            /// on bytes in the kernel (online enforcement, not an offline replay).
            quota_exhausted: bool,
            /// Bytes left on the in-kernel data-plan reserve (0 when no plan is
            /// carried; may be negative if reply bytes drove the plan into debt).
            quota_remaining_bytes: i64,
            /// Sends the kernel held because the plan could not cover them.
            bytes_blocked_sends: u64,
            /// `offload` syscalls that reached the backend admission check.
            offload_attempts: u64,
            /// Offload requests the backend admitted and the stack accepted.
            offload_accepted: u64,
            /// Accepted offloads whose response woke the thread in time.
            offload_completed: u64,
            /// Offloads refused up front (backend full, plan uncovered).
            offload_rejected: u64,
            /// Accepted offloads whose deadline fired before the response.
            offload_timed_out: u64,
            /// Σ observed request latency over completed offloads, µs.
            offload_latency_us: u64,
            /// Tap/drive re-rates the policy engine applied (0 with no policy).
            policy_rerates: u64,
            /// False→true edges of the policy's background-demotion flag.
            policy_demotions: u64,
            /// Seconds the user model spent Active over the horizon.
            presence_active_s: u64,
            /// Seconds the user model spent Ambient over the horizon.
            presence_ambient_s: u64,
            /// Seconds the user model spent Away over the horizon.
            presence_away_s: u64,
            /// Seconds the user model spent Asleep over the horizon.
            presence_asleep_s: u64,
            /// Whether the projected lifetime covered the policy's target
            /// duration (false with no policy configured).
            lifetime_target_hit: bool,
            /// Radio link flaps the fault injector landed (0 without faults).
            link_flaps: u64,
            /// Exact link-down time within the horizon, µs (plan-derived, so it
            /// includes flap tails past the last kernel step).
            link_down_us: u64,
            /// Bytes of in-flight deliveries lost to drop-semantics flaps.
            flap_lost_bytes: u64,
            /// Transient app kills the fault supervisor landed.
            crashes: u64,
            /// Fresh program instances the supervisor respawned.
            restarts: u64,
            /// Backoff retries the workload's resilience layer scheduled.
            retries: u64,
            /// Work items abandoned after the retry budget ran out.
            retries_exhausted: u64,
            /// Battery capacity fade the aging tap drained, µJ (exact).
            fade_uj: i64,
        }
    };
}
pub(crate) use device_fields;

macro_rules! report_struct {
    ($($(#[$doc:meta])* $name:ident: $ty:ty $(as $csv:literal)? $(=> $derived:ident)?,)*) => {
        /// Compact per-device telemetry, the unit the aggregator consumes.
        ///
        /// Everything here is either an exact integer read off the kernel or a
        /// float computed from exact integers, so reports are bit-stable across
        /// runs and worker layouts.
        #[derive(Debug, Clone, PartialEq)]
        pub struct DeviceReport {
            /// Device id (fleet index).
            pub id: u64,
            $($(#[$doc])* pub $name: $ty,)*
        }
    };
}
device_fields!(report_struct);

/// Reusable per-worker buffers for [`simulate_device_with`]: a worker keeps
/// one of these across its whole chunk, so the per-device extraction pass
/// allocates nothing in steady state.
#[derive(Debug, Default)]
pub struct DeviceScratch {
    /// Thread ids of the device under extraction (refilled per device).
    thread_ids: Vec<cinder_kernel::ThreadId>,
    /// The run-loop path counters of the most recent device. Telemetry
    /// only — deliberately *not* part of [`DeviceReport`], so a report
    /// stays byte-identical with fast-forward on or off.
    pub profile: RunProfile,
}

/// [`simulate_device`] with caller-provided worker scratch (the executor's
/// per-worker reuse path).
pub fn simulate_device_with(spec: &DeviceSpec, scratch: &mut DeviceScratch) -> DeviceReport {
    simulate_device_inner(spec, scratch)
}

/// Builds the device's kernel, runs it to the spec's horizon, and distils
/// the report.
pub fn simulate_device(spec: &DeviceSpec) -> DeviceReport {
    simulate_device_inner(spec, &mut DeviceScratch::default())
}

fn simulate_device_inner(spec: &DeviceSpec, scratch: &mut DeviceScratch) -> DeviceReport {
    let workload = spec.workload.program();
    let mut config = KernelConfig {
        battery: spec.battery,
        seed: spec.seed,
        fast_forward: spec.fast_forward,
        sched: SchedulerConfig {
            quantum: spec.quantum,
            ..SchedulerConfig::default()
        },
        ..KernelConfig::default()
    };
    workload.configure(&mut config);
    let mut kernel = Kernel::new(config);
    let env = WorkloadEnv {
        rate_scale_ppm: spec.rate_scale_ppm,
        interval_scale_ppm: spec.interval_scale_ppm,
        data_plan_bytes: spec.data_plan.map(|p| p.bytes),
        offload: spec.offload.map(|profile| OffloadSetup {
            profile,
            horizon: spec.horizon,
            outages: spec.faults.and_then(|f| f.outages),
        }),
        faults: spec.faults,
    };
    let mut installed = workload
        .install(&mut kernel, &env)
        .expect("root can install the workload topology");

    // The fault injector executes the device's pure fault schedule: link
    // flaps and kills land only at quantum-aligned span boundaries (the
    // loop below clamps every span to `next_boundary`), and the aging tap
    // drains capacity fade through the typed graph. The plan draws from
    // the seed's dedicated fault stream, so a fault-free device is
    // byte-identical whether this layer exists or not.
    let mut fault_rt = spec
        .faults
        .filter(|config| config.any_device_faults())
        .map(|config| FaultRuntime::new(config, spec, &mut kernel));

    // The policy engine ticks on its own grid-aligned cadence; its first
    // decision lands before the run starts (a lifetime-target controller
    // that waits a tick starts behind). The run loop below clamps its
    // spans to `next_tick`, so a decision instant is always a span
    // boundary — the chunk-safe `run_span` guarantees the observables
    // read there are identical however the surrounding spans were split,
    // which is what keeps policy fleets byte-identical across worker
    // counts and fast-forward on/off.
    let mut policy_rt = spec
        .policy
        .map(|config| PolicyRuntime::new(config, spec, &installed));
    if let Some(rt) = policy_rt.as_mut() {
        rt.apply(&mut kernel, spec);
    }

    // One loop, identical with fast-forward on or off: spans end only at
    // policy ticks and fault boundaries, where the runtimes act between
    // spans. The chunk-safe `run_span` makes the split points invisible,
    // and the kernel's own fast paths cross everything in between.
    let end = SimTime::ZERO + spec.horizon;
    let mut now = kernel.now();
    while now < end {
        // Fault boundaries due at `now` fire before the span: the clamp
        // below guarantees the kernel never ran past one.
        if let Some(frt) = fault_rt.as_mut() {
            frt.apply(&mut kernel, &mut installed.respawns, now);
        }
        let mut target = end;
        if let Some(rt) = policy_rt.as_ref() {
            target = target.min(rt.next_tick());
        }
        if let Some(boundary) = fault_rt.as_ref().and_then(|frt| frt.next_boundary()) {
            if boundary > now {
                target = target.min(boundary);
            }
        }
        kernel.run_span(target);
        let landed = kernel.now();
        // `run_span` only advances to quantum boundaries; force progress
        // past a sub-quantum tail so the loop terminates.
        now = if landed > now { landed } else { target };
        if let Some(rt) = policy_rt.as_mut() {
            if rt.due(now) && now < end {
                rt.apply(&mut kernel, spec);
            }
        }
    }
    // Settle radio/meter/flows at the horizon for extraction.
    kernel.run_until(end);
    scratch.profile = kernel.run_profile();
    extract_report(
        spec,
        &kernel,
        &installed,
        scratch,
        policy_rt.as_ref(),
        fault_rt.as_ref(),
    )
}

fn extract_report(
    spec: &DeviceSpec,
    kernel: &Kernel,
    installed: &InstalledWorkload,
    scratch: &mut DeviceScratch,
    policy: Option<&PolicyRuntime>,
    faults: Option<&FaultRuntime>,
) -> DeviceReport {
    // Invariant #1, per kind: every device kernel conserves each resource
    // kind exactly at teardown (energy *and* the data plan's bytes).
    for kind in ResourceKind::ALL {
        assert!(
            kernel.graph().totals_for(kind).conserved(),
            "device {} violated {kind} conservation: {:?}",
            spec.id,
            kernel.graph().totals_for(kind)
        );
    }
    let horizon_s = spec.horizon.as_secs_f64();
    let total_energy = kernel.meter().total_energy();
    // One id sweep into the worker scratch covers all three per-thread
    // aggregations below.
    scratch.thread_ids.clear();
    scratch.thread_ids.extend(kernel.thread_id_iter());
    let cpu_energy: Energy = scratch
        .thread_ids
        .iter()
        .map(|&t| kernel.thread_consumed(t))
        .fold(Energy::ZERO, |a, b| a + b);
    let starved: SimDuration = scratch
        .thread_ids
        .iter()
        .map(|&t| kernel.thread_throttled(t))
        .fold(SimDuration::ZERO, |a, b| a + b);
    let radio = kernel.arm9().radio().stats();
    let radio_active_s = kernel
        .arm9()
        .radio()
        .total_active(kernel.now())
        .as_secs_f64();
    let debt_reserves = kernel
        .graph()
        .reserves()
        .filter(|(_, r)| r.balance().is_negative())
        .count() as u32;
    let battery_remaining = kernel
        .graph()
        .reserve(kernel.battery())
        .map(|r| r.balance())
        .unwrap_or(Energy::ZERO);

    let ops = installed.probe.ops(kernel);
    let app_bytes = installed.probe.app_net_bytes(kernel);
    let net_bytes = if app_bytes > 0 {
        app_bytes
    } else {
        radio.tx_bytes + radio.rx_bytes
    };

    // §9 data-plan state read straight off the kernel: how many sends the
    // plan held back, whether any are still waiting, and the live balance.
    let bytes_blocked_sends: u64 = scratch
        .thread_ids
        .iter()
        .map(|&t| kernel.thread_bytes_blocked(t))
        .sum();
    let (quota_exhausted, quota_remaining_bytes) = match installed.plan_reserve {
        Some(plan) => (
            bytes_blocked_sends > 0,
            kernel
                .graph()
                .reserve(plan)
                .map(|r| quota::as_bytes(r.balance()))
                .unwrap_or(0),
        ),
        None => (false, spec.data_plan.map(|p| p.bytes as i64).unwrap_or(0)),
    };

    let offload = kernel.offload_stats();

    // Projected lifetime at the observed average draw: exact-integer
    // energies, one final float division.
    let lifetime_h = if total_energy.is_positive() {
        spec.battery.as_microjoules() as f64 / total_energy.as_microjoules() as f64 * horizon_s
            / 3_600.0
    } else {
        f64::INFINITY
    };

    let presence = policy
        .map(|rt| rt.presence_seconds(spec.horizon))
        .unwrap_or([0; 4]);

    let fault_counters = kernel.fault_counters();

    DeviceReport {
        id: spec.id,
        workload: spec.workload.tag(),
        battery_capacity_uj: spec.battery.as_microjoules(),
        battery_remaining_uj: battery_remaining.as_microjoules(),
        total_energy_uj: total_energy.as_microjoules(),
        cpu_energy_uj: cpu_energy.as_microjoules(),
        backlight_energy_uj: kernel
            .peripheral_energy(PeripheralKind::Backlight)
            .as_microjoules(),
        gps_energy_uj: kernel
            .peripheral_energy(PeripheralKind::Gps)
            .as_microjoules(),
        backlight_shutdowns: kernel.peripheral_forced_shutdowns(PeripheralKind::Backlight),
        gps_shutdowns: kernel.peripheral_forced_shutdowns(PeripheralKind::Gps),
        lifetime_h,
        radio_activations: radio.activations,
        radio_active_s,
        net_bytes,
        ops,
        starved_s: starved.as_secs_f64(),
        debt_reserves,
        quota_exhausted,
        quota_remaining_bytes,
        bytes_blocked_sends,
        offload_attempts: offload.attempts,
        offload_accepted: offload.accepted,
        offload_completed: offload.completed,
        offload_rejected: offload.rejected,
        offload_timed_out: offload.timed_out,
        offload_latency_us: offload.latency_us_sum,
        policy_rerates: policy.map(|rt| rt.rerates).unwrap_or(0),
        policy_demotions: policy.map(|rt| rt.demotions).unwrap_or(0),
        presence_active_s: presence[0],
        presence_ambient_s: presence[1],
        presence_away_s: presence[2],
        presence_asleep_s: presence[3],
        lifetime_target_hit: policy.is_some_and(|rt| rt.target_hit(lifetime_h)),
        link_flaps: fault_counters.link_flaps,
        link_down_us: faults
            .map(|frt| frt.plan().link_down_us(spec.horizon))
            .unwrap_or(0),
        flap_lost_bytes: fault_counters.lost_bytes,
        crashes: faults.map(|frt| frt.crashes).unwrap_or(0),
        restarts: faults.map(|frt| frt.restarts).unwrap_or(0),
        retries: installed.probe.retries(kernel),
        retries_exhausted: installed.probe.retries_exhausted(kernel),
        fade_uj: faults
            .map(|frt| frt.fade(kernel).as_microjoules())
            .unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{DataPlan, Scenario};

    fn spec_for(workload: Workload, horizon_s: u64) -> DeviceSpec {
        DeviceSpec {
            id: 0,
            seed: 42,
            workload,
            battery: Energy::from_joules(15_000),
            rate_scale_ppm: 1_000_000,
            interval_scale_ppm: 1_000_000,
            horizon: SimDuration::from_secs(horizon_s),
            quantum: SimDuration::from_millis(100),
            data_plan: None,
            offload: None,
            fast_forward: true,
            policy: None,
            faults: None,
        }
    }

    #[test]
    fn poller_device_polls_and_uses_radio() {
        let r = simulate_device(&spec_for(Workload::Pollers { coop: false }, 600));
        assert!(r.ops >= 8, "polls: {}", r.ops);
        assert!(r.radio_activations >= 2);
        assert!(r.net_bytes > 0);
        assert!(r.total_energy_uj > 0);
        assert!(
            r.lifetime_h > 1.0 && r.lifetime_h < 12.0,
            "{}",
            r.lifetime_h
        );
    }

    #[test]
    fn coop_poller_device_pools() {
        let r = simulate_device(&spec_for(Workload::Pollers { coop: true }, 1_200));
        // Pooling defers the first sends but they do complete.
        assert!(r.ops >= 1, "coop polls: {}", r.ops);
        assert!(r.radio_activations >= 1);
    }

    #[test]
    fn spinner_device_is_throttled_by_its_tap() {
        let r = simulate_device(&spec_for(Workload::Spinner, 600));
        // A 68.5 mW feed duty-cycles the 137 mW CPU: roughly half the run
        // is starved.
        assert!(
            r.starved_s > 120.0 && r.starved_s < 480.0,
            "starved {}",
            r.starved_s
        );
        assert!(r.cpu_energy_uj > 0);
    }

    #[test]
    fn gallery_device_downloads() {
        let r = simulate_device(&spec_for(Workload::Gallery { adaptive: true }, 3_000));
        assert!(r.ops >= 32, "images: {}", r.ops);
        assert!(r.net_bytes > 1_000_000);
        assert_eq!(r.radio_activations, 0, "gallery uses the laptop NIC");
    }

    #[test]
    fn browser_device_runs() {
        let r = simulate_device(&spec_for(Workload::Browser, 300));
        assert!(r.total_energy_uj > 0);
        assert!(r.cpu_energy_uj > 0);
    }

    #[test]
    fn navigator_device_fixes_and_burns_gps_energy() {
        let r = simulate_device(&spec_for(Workload::Navigator, 1_800));
        // ~70 s per fix cycle: two dozen fixes in half an hour.
        assert!(r.ops >= 15, "fixes: {}", r.ops);
        // Each 10 s fix drains 3.5 J from the reserve.
        assert!(
            r.gps_energy_uj >= 50_000_000,
            "gps energy: {}",
            r.gps_energy_uj
        );
        assert_eq!(r.backlight_energy_uj, 0);
        assert_eq!(r.radio_activations, 0, "the navigator never transmits");
    }

    #[test]
    fn screen_on_device_browses_under_the_backlight() {
        let r = simulate_device(&spec_for(Workload::ScreenOn, 1_800));
        assert!(r.ops >= 50, "pages: {}", r.ops);
        // Six 2-minute sessions at roughly full brightness.
        assert!(
            r.backlight_energy_uj >= 200_000_000,
            "backlight energy: {}",
            r.backlight_energy_uj
        );
        assert_eq!(r.gps_energy_uj, 0);
    }

    #[test]
    fn offloader_device_ships_work_to_the_backend() {
        let mut spec = spec_for(Workload::Offloader, 1_800);
        spec.offload = Some(cinder_offload::OffloadProfile {
            capacity: 64,
            queue_limit: 10_000,
            ..Default::default()
        });
        let r = simulate_device(&spec);
        assert!(r.ops >= 5, "items: {r:?}");
        assert!(r.offload_completed >= 4, "completions: {r:?}");
        assert!(r.offload_attempts >= r.offload_accepted);
        assert!(
            r.offload_latency_us > 0,
            "completed offloads observed latency: {r:?}"
        );
        assert!(r.radio_activations >= 1, "round trips use the radio");
        assert!(r.net_bytes > 0);
    }

    #[test]
    fn offload_counters_conserve() {
        // A spec without an explicit economy falls back to the workload's
        // nominal backend; whatever mix of remote/local/timeout results,
        // the counters must tie out at the horizon.
        let r = simulate_device(&spec_for(Workload::Offloader, 1_200));
        assert!(r.ops >= 3, "items: {r:?}");
        assert!(
            r.offload_accepted >= r.offload_completed + r.offload_timed_out,
            "conservation: {r:?}"
        );
        assert!(r.offload_attempts >= r.offload_accepted + r.offload_rejected);
    }

    #[test]
    fn starving_navigator_is_forced_down() {
        // A tenth of the nominal feed cannot hold a fix window: the kernel
        // cuts the receiver and the report records it.
        let mut spec = spec_for(Workload::Navigator, 3_600);
        spec.rate_scale_ppm = 100_000;
        let r = simulate_device(&spec);
        assert!(
            r.gps_shutdowns >= 1,
            "forced shutdowns must surface in the report: {r:?}"
        );
    }

    #[test]
    fn reports_are_deterministic() {
        let spec = spec_for(Workload::Pollers { coop: false }, 900);
        assert_eq!(simulate_device(&spec), simulate_device(&spec));
    }

    #[test]
    fn tiny_data_plan_exhausts() {
        let mut spec = spec_for(Workload::Pollers { coop: false }, 1_800);
        // ~8.4 KB per RSS poll + ~4.6 KB per mail poll: 20 KB dies fast.
        spec.data_plan = Some(DataPlan { bytes: 20_000 });
        let r = simulate_device(&spec);
        assert!(r.quota_exhausted, "plan should run out: {r:?}");
        assert!(
            r.bytes_blocked_sends > 0,
            "sends must block in-kernel: {r:?}"
        );
        assert!(r.quota_remaining_bytes < 20_000);
    }

    #[test]
    fn generous_data_plan_survives() {
        let mut spec = spec_for(Workload::Pollers { coop: false }, 1_800);
        spec.data_plan = Some(DataPlan { bytes: 5_000_000 });
        let r = simulate_device(&spec);
        assert!(!r.quota_exhausted);
        assert_eq!(r.bytes_blocked_sends, 0);
        assert!(r.quota_remaining_bytes > 4_000_000);
    }

    #[test]
    fn exhausted_plan_throttles_polls_online() {
        // The scenario the offline replay could not express: exhaustion
        // changes device *behaviour* — polls stop completing and the radio
        // goes quiet once the plan runs dry mid-run.
        let base = spec_for(Workload::Pollers { coop: false }, 1_800);
        let free = simulate_device(&base);
        let mut capped = base.clone();
        capped.data_plan = Some(DataPlan { bytes: 30_000 });
        let throttled = simulate_device(&capped);
        assert!(throttled.quota_exhausted);
        assert!(
            throttled.ops < free.ops,
            "online exhaustion must cut completed polls: {} vs {}",
            throttled.ops,
            free.ops
        );
        assert!(
            throttled.net_bytes < free.net_bytes,
            "blocked sends never reach the radio"
        );
    }

    #[test]
    fn run_profile_accounts_for_every_quantum() {
        // One device of every workload tag, fast-forward on and off: the
        // path counters sum to exactly the quanta the run advanced, and
        // with it off the run loop steps every quantum and consults no
        // certificate.
        let mut seen = Vec::new();
        for spec in Scenario::all_workloads("profile", 5, 11).specs() {
            if seen.contains(&spec.workload.tag()) {
                continue;
            }
            seen.push(spec.workload.tag());
            for fast_forward in [true, false] {
                let spec = DeviceSpec {
                    horizon: SimDuration::from_secs(900),
                    fast_forward,
                    ..spec.clone()
                };
                let mut scratch = DeviceScratch::default();
                simulate_device_with(&spec, &mut scratch);
                let p = scratch.profile;
                let tag = spec.workload.tag();
                assert_eq!(
                    p.quanta(),
                    spec.horizon.as_micros() / spec.quantum.as_micros(),
                    "{tag} ff={fast_forward}: {p:?}"
                );
                if !fast_forward {
                    let stepped = RunProfile {
                        full_quanta: p.quanta(),
                        lane_ticks: p.lane_ticks,
                        lane_ticks_stepped: p.lane_ticks_stepped,
                        ..RunProfile::default()
                    };
                    assert_eq!(p, stepped, "{tag} ff=false takes the literal loop");
                }
            }
        }
        assert_eq!(seen.len(), 9, "every tag covered: {seen:?}");
    }

    #[test]
    fn pooled_jumps_cover_steady_pooling() {
        // Every coop-poller device of the steady fleet: pooled jumps cross
        // at least 95% of the quanta they and the full loop take between
        // them. Counts are deterministic.
        let mut coop = 0;
        for spec in Scenario::steady_heavy("coverage", 2011, 24).specs() {
            if spec.workload != (Workload::Pollers { coop: true }) {
                continue;
            }
            coop += 1;
            let mut scratch = DeviceScratch::default();
            simulate_device_with(&spec, &mut scratch);
            let p = scratch.profile;
            let pooling = p.pooled_quanta + p.full_quanta;
            assert!(
                p.pooled_quanta * 100 >= pooling * 95,
                "device {}: {p:?}",
                spec.id
            );
        }
        assert!(coop >= 10, "{coop} coop devices");
    }

    #[test]
    fn gated_jumps_cover_storm_coop_pollers() {
        // The fleetbench `storm` mixture (every tag under fault_heavy's
        // offload, policy and faults; seed 2011, 1 h), first 44 devices:
        // every coop poller — whose retry backoff wakes it while netd
        // still pools its send — steps at most 5% of its quanta in the
        // full loop, because pooled and idle jumps cross its reserve-gated
        // Ready quanta. Counts are deterministic.
        let name = "storm-coverage";
        let storm = Scenario {
            mix: Scenario::all_workloads(name, 2011, 44).mix,
            ..Scenario::fault_heavy(name, 2011, 44)
        };
        let mut coop = 0;
        for spec in storm.specs() {
            if spec.workload != (Workload::Pollers { coop: true }) {
                continue;
            }
            coop += 1;
            let mut scratch = DeviceScratch::default();
            simulate_device_with(&spec, &mut scratch);
            let p = scratch.profile;
            assert!(
                p.full_quanta * 20 <= p.quanta(),
                "device {}: {p:?}",
                spec.id
            );
            assert!(p.gated_quanta > 0, "device {}: {p:?}", spec.id);
        }
        assert!(coop >= 8, "{coop} coop devices");
    }

    #[test]
    fn duty_jumps_cover_hogs() {
        // The fleetbench mixtures at seed 2011: a spinner's run-or-throttle
        // quanta, an offloader's while it computes locally, and the
        // browser plugin's sole-Ready windows between page loads (its
        // reserve, which a backward proportional tap drains, is ticked)
        // are crossed by duty jumps. Counts are deterministic.
        let name = "duty-coverage";
        let storm = Scenario {
            mix: Scenario::all_workloads(name, 2011, 44).mix,
            ..Scenario::fault_heavy(name, 2011, 44)
        };
        let duty_share = |p: RunProfile| p.duty_quanta * 1_000 / (p.duty_quanta + p.full_quanta);
        type Pin = fn(RunProfile, u64) -> bool;
        let pins: [(Scenario, Workload, Pin); 6] = [
            (
                Scenario::steady_heavy(name, 2011, 24),
                Workload::Spinner,
                |p, _| p.full_quanta <= 20,
            ),
            (
                Scenario::mixed(name, 2011, 40),
                Workload::Spinner,
                |p, _| p.full_quanta <= 10,
            ),
            (storm.clone(), Workload::Spinner, |_, share| share >= 980),
            (storm.clone(), Workload::Offloader, |_, share| share >= 900),
            (storm, Workload::Browser, |_, share| share >= 550),
            (
                Scenario::mixed(name, 2011, 40),
                Workload::Browser,
                |_, share| share >= 550,
            ),
        ];
        for (scenario, workload, pin) in pins {
            let mut devices = 0;
            for spec in scenario
                .specs()
                .into_iter()
                .filter(|s| s.workload == workload)
            {
                devices += 1;
                let mut scratch = DeviceScratch::default();
                simulate_device_with(&spec, &mut scratch);
                let p = scratch.profile;
                assert!(
                    pin(p, duty_share(p)),
                    "{} device {}: {p:?}",
                    workload.tag(),
                    spec.id
                );
            }
            assert!(devices >= 4, "{devices} {} devices", workload.tag());
        }
    }

    #[test]
    fn lanes_count_rather_than_step() {
        // The fleetbench mixtures at seed 2011: a spinner's charged lane
        // settles by its run count (it steps none of its lane-ticks), and
        // an adaptive gallery's idle decay lane jumps its long leak bands
        // (it steps 1.2-1.3%). Counts are deterministic.
        let name = "lane-counts";
        let pins = [
            (Scenario::steady_heavy(name, 2011, 24), Workload::Spinner, 1),
            (Scenario::mixed(name, 2011, 40), Workload::Spinner, 1),
            (
                Scenario::mixed(name, 2011, 40),
                Workload::Gallery { adaptive: true },
                2,
            ),
        ];
        for (scenario, workload, pct) in pins {
            let mut devices = 0;
            for spec in scenario
                .specs()
                .into_iter()
                .filter(|s| s.workload == workload)
            {
                devices += 1;
                let mut scratch = DeviceScratch::default();
                simulate_device_with(&spec, &mut scratch);
                let p = scratch.profile;
                assert!(
                    p.lane_ticks > 0 && p.lane_ticks_stepped * 100 <= p.lane_ticks * pct,
                    "{} device {}: {p:?}",
                    workload.tag(),
                    spec.id
                );
            }
            assert!(devices >= 4, "{devices} {} devices", workload.tag());
        }
    }

    #[test]
    fn every_mixed_workload_simulates() {
        for spec in Scenario::all_workloads("all", 9, 10).specs() {
            let mut quick = spec.clone();
            quick.horizon = SimDuration::from_secs(120);
            let r = simulate_device(&quick);
            assert!(r.total_energy_uj > 0, "{:?}", quick.workload);
        }
    }
}
