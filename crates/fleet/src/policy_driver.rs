//! The policy engine's kernel wiring: observables in, syscalls out.
//!
//! `cinder-policy` keeps decisions pure — `decide(&PolicyInputs) ->
//! PolicyActions` over plain values. This module owns everything impure
//! about running one: snapshotting kernel observables at a tick, applying
//! tap re-rates through [`Kernel::rerate_tap`] and drive caps through
//! [`Kernel::peripheral_set_drive`], writing the workload's drive-cap
//! hint cell, and counting the telemetry the fleet reports. The device
//! driver calls [`PolicyRuntime::apply`] only at tick instants that land
//! on the quantum grid, which is what keeps policy-enabled fleets
//! byte-identical across worker counts and fast-forward on/off.

use cinder_apps::{DriveCap, InstalledWorkload, PolicyTapHandle};
use cinder_kernel::{Kernel, PeripheralKind};
use cinder_policy::{
    Policy, PolicyConfig, PolicyInputs, PresenceTrace, TapObservation, FULL_DRIVE_PPM,
};
use cinder_sim::{Energy, Power, SimDuration, SimTime};

use crate::scenario::DeviceSpec;

/// One device's live policy engine: the pure policy, its user model, the
/// workload's throttle handles, and the applied-state the driver needs to
/// count re-rates exactly once.
pub struct PolicyRuntime {
    config: PolicyConfig,
    policy: Box<dyn Policy>,
    trace: PresenceTrace,
    taps: Vec<PolicyTapHandle>,
    /// Rates as last applied (starts at nominal): the diff base for
    /// counting re-rates.
    rates: Vec<Power>,
    drive_cap: Option<DriveCap>,
    /// Decision cadence, rounded up to the quantum grid.
    tick: SimDuration,
    /// The next instant a decision is due.
    next_tick: SimTime,
    /// Whether the background demotion flag was set at the last tick.
    demoted: bool,
    /// Tap re-rates + drive re-rates applied (telemetry).
    pub rerates: u64,
    /// False→true edges of the demotion flag (telemetry).
    pub demotions: u64,
}

impl PolicyRuntime {
    /// Builds the runtime for one device: the policy object from the
    /// spec's config, the presence trace from the device seed's child
    /// stream, and the throttle handles off the installed workload.
    pub fn new(config: PolicyConfig, spec: &DeviceSpec, installed: &InstalledWorkload) -> Self {
        let quantum_us = spec.quantum.as_micros().max(1);
        let tick_us = config.tick.as_micros().max(quantum_us);
        let tick = SimDuration::from_micros(tick_us.div_ceil(quantum_us) * quantum_us);
        PolicyRuntime {
            policy: config.build(),
            config,
            trace: PresenceTrace::generate(spec.seed, spec.horizon),
            rates: installed.policy_taps.iter().map(|t| t.nominal).collect(),
            taps: installed.policy_taps.clone(),
            drive_cap: installed.drive_cap.clone(),
            tick,
            next_tick: SimTime::ZERO,
            demoted: false,
            rerates: 0,
            demotions: 0,
        }
    }

    /// The device's user model (the driver reads time-in-state telemetry
    /// off it at extraction).
    pub fn trace(&self) -> &PresenceTrace {
        &self.trace
    }

    /// The next instant a decision is due; the device loop ends every run
    /// span there (a pending re-rate can change tap rates and drive
    /// levels, so no jump may cross it).
    pub fn next_tick(&self) -> SimTime {
        self.next_tick
    }

    /// True once `now` has reached the pending tick.
    pub fn due(&self, now: SimTime) -> bool {
        now >= self.next_tick
    }

    /// Snapshots observables, runs the pure decision, applies the
    /// actions, and schedules the next tick. Must be called between run
    /// spans (the kernel parked at a quantum boundary).
    pub fn apply(&mut self, kernel: &mut Kernel, spec: &DeviceSpec) {
        let obs = kernel.observables();
        let taps: Vec<TapObservation> = self
            .taps
            .iter()
            .zip(&self.rates)
            .map(|(handle, &current)| TapObservation {
                nominal: handle.nominal,
                current,
                level: kernel.reserve_level(handle.reserve),
                background: handle.background,
            })
            .collect();
        // Battery aging: the fault model's capacity fade has already cost
        // the pack `fade` (a parasitic drain the meter never sees), and
        // voltage sag clamps how much of the remainder the policy may plan
        // against. A lifetime-target controller that budgets the nameplate
        // capacity under faults would promise hours the cells cannot hold.
        let (fade, sag_ppm) = spec
            .faults
            .map(|f| (f.fade_at(obs.now), f.sag_ppm))
            .unwrap_or((Energy::ZERO, 1_000_000));
        let inputs = PolicyInputs {
            now: obs.now,
            horizon: spec.horizon,
            presence: self.trace.state_at(obs.now),
            // The policy's gauge is the projected remaining charge —
            // capacity minus fade minus everything the meter integrated
            // (baseline included) — not the root reserve's balance, which
            // only tap draws deplete.
            battery_level: (spec.battery - fade - obs.total_energy).clamp_non_negative(),
            battery_capacity: (spec.battery - fade)
                .clamp_non_negative()
                .scale_ppm(sag_ppm),
            taps: &taps,
            backlight_enabled: obs.backlight_enabled,
            backlight_drive_ppm: obs.backlight_drive_ppm,
            offload_completed: obs.offload.completed,
        };
        let actions = self.policy.decide(&inputs);

        for (i, want) in actions.tap_rates.iter().enumerate() {
            let Some(want) = *want else { continue };
            if want != self.rates[i] {
                kernel
                    .rerate_tap(self.taps[i].tap, want)
                    .expect("policy re-rates run with kernel authority");
                self.rates[i] = want;
                self.rerates += 1;
            }
        }
        match actions.backlight_cap_ppm {
            Some(cap) => {
                // Future sessions read the hint; a lit screen above the
                // cap is re-rated right now.
                if let Some(cell) = &self.drive_cap {
                    cell.set(cap);
                }
                if obs.backlight_enabled && obs.backlight_drive_ppm > cap {
                    kernel
                        .peripheral_set_drive(PeripheralKind::Backlight, cap)
                        .expect("drive caps run with kernel authority");
                    self.rerates += 1;
                }
            }
            None => {
                if let Some(cell) = &self.drive_cap {
                    cell.set(FULL_DRIVE_PPM);
                }
            }
        }
        if actions.demote_background && !self.demoted {
            self.demotions += 1;
        }
        self.demoted = actions.demote_background;
        self.next_tick = obs.now.max(self.next_tick) + self.tick;
    }

    /// Whether the device met its lifetime target: the projected
    /// lifetime covers the configured target duration.
    pub fn target_hit(&self, lifetime_h: f64) -> bool {
        lifetime_h * 3_600.0 >= self.config.target.as_secs_f64()
    }

    /// Seconds in each presence state over the device's horizon.
    pub fn presence_seconds(&self, horizon: SimDuration) -> [u64; 4] {
        self.trace.seconds_by_state(horizon)
    }
}
