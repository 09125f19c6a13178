//! The navigator: duty-cycled GPS fixes under a reserve.
//!
//! The paper names the GPS among the "most energy hungry, dynamic, and
//! informative components" (§4.1) but never evaluates a workload for it.
//! `Navigator` is that workload, built on the kernel's reserve-gated
//! peripheral layer: the receiver is funded by a dedicated reserve (fed by
//! a tap from the battery), each fix holds it lit for a fixed window, and
//! the *interval between fixes stretches as the reserve drops* — the
//! sensor duty-cycling pattern energy-pattern catalogues describe, driven
//! by exactly the reserve-level polling the paper's gallery uses (§5.3).
//! If the reserve empties mid-fix the kernel forces the receiver down and
//! the fix is lost.

use std::cell::RefCell;
use std::rc::Rc;

use cinder_core::ReserveId;
use cinder_kernel::{Ctx, PeripheralKind, Program, Step};
use cinder_sim::{Energy, SimDuration, SimTime};

/// Navigator tuning.
#[derive(Debug, Clone, Copy)]
pub struct NavigatorConfig {
    /// How long the receiver stays lit per fix.
    pub fix_duration: SimDuration,
    /// Sleep between fixes with a healthy reserve.
    pub base_interval: SimDuration,
    /// Reserve level below which the interval doubles.
    pub low_mark: Energy,
    /// Reserve level below which the interval quadruples.
    pub critical_mark: Energy,
    /// Back-off when the receiver cannot even be lit.
    pub retry_backoff: SimDuration,
}

impl NavigatorConfig {
    /// The fleet study's shape: 10 s fixes, nominally every 60 s, adapting
    /// below 10 J / 4 J.
    pub fn fleet_default() -> Self {
        NavigatorConfig {
            fix_duration: SimDuration::from_secs(10),
            base_interval: SimDuration::from_secs(60),
            low_mark: Energy::from_joules(10),
            critical_mark: Energy::from_joules(4),
            retry_backoff: SimDuration::from_secs(30),
        }
    }
}

/// Shared navigator telemetry.
#[derive(Debug, Default)]
pub struct NavLog {
    /// Completion times of successful fixes.
    pub fixes: Vec<SimTime>,
    /// Fixes lost to a kernel forced shutdown mid-fix.
    pub aborted_fixes: u64,
    /// Sleeps that were stretched beyond the base interval (adaptation
    /// engaging).
    pub stretched_sleeps: u64,
}

impl NavLog {
    /// A fresh shared log.
    pub fn shared() -> Rc<RefCell<NavLog>> {
        Rc::new(RefCell::new(NavLog::default()))
    }
}

enum State {
    /// Not yet acquired the receiver.
    Boot,
    /// Receiver lit; sleeping through the fix window.
    Fixing,
    /// Receiver dark; sleeping until the next fix.
    Idle,
}

/// The navigator program.
pub struct Navigator {
    config: NavigatorConfig,
    reserve: ReserveId,
    state: State,
    log: Rc<RefCell<NavLog>>,
}

impl Navigator {
    /// A navigator funding its receiver from `reserve`.
    pub fn new(config: NavigatorConfig, reserve: ReserveId, log: Rc<RefCell<NavLog>>) -> Self {
        Navigator {
            config,
            reserve,
            state: State::Boot,
            log,
        }
    }

    /// The sleep the current reserve level earns: base, doubled below the
    /// low mark, quadrupled below the critical mark.
    fn interval_for(&self, level: Energy) -> SimDuration {
        if level < self.config.critical_mark {
            self.config.base_interval * 4
        } else if level < self.config.low_mark {
            self.config.base_interval * 2
        } else {
            self.config.base_interval
        }
    }

    /// Tries to light the receiver; returns the step either way.
    fn start_fix(&mut self, ctx: &mut Ctx<'_>) -> Step {
        match ctx.peripheral_enable(PeripheralKind::Gps) {
            Ok(()) => {
                self.state = State::Fixing;
                Step::SleepUntil(ctx.now() + self.config.fix_duration)
            }
            Err(_) => {
                self.state = State::Idle;
                Step::SleepUntil(ctx.now() + self.config.retry_backoff)
            }
        }
    }
}

impl Program for Navigator {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
        match self.state {
            State::Boot => {
                if ctx
                    .peripheral_acquire(PeripheralKind::Gps, self.reserve)
                    .is_err()
                {
                    return Step::Exit;
                }
                self.start_fix(ctx)
            }
            State::Fixing => {
                // Woken at the end of the fix window — unless the kernel
                // forced the receiver down when the reserve drained.
                if ctx.peripheral_enabled(PeripheralKind::Gps) {
                    ctx.peripheral_disable(PeripheralKind::Gps)
                        .expect("the navigator controls its own receiver");
                    self.log.borrow_mut().fixes.push(ctx.now());
                } else {
                    self.log.borrow_mut().aborted_fixes += 1;
                }
                let level = ctx.level(self.reserve).unwrap_or(Energy::ZERO);
                let sleep = self.interval_for(level);
                if sleep > self.config.base_interval {
                    self.log.borrow_mut().stretched_sleeps += 1;
                }
                self.state = State::Idle;
                Step::SleepUntil(ctx.now() + sleep)
            }
            State::Idle => self.start_fix(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinder_core::{Actor, RateSpec};
    use cinder_kernel::{Kernel, KernelConfig};
    use cinder_label::Label;
    use cinder_sim::Power;

    fn rig(feed_uw: u64, seed_uj: i64) -> (Kernel, ReserveId, Rc<RefCell<NavLog>>) {
        let mut k = Kernel::new(KernelConfig {
            seed: 3,
            fast_forward: true,
            ..KernelConfig::default()
        });
        let root = Actor::kernel();
        let battery = k.battery();
        let r = k
            .graph_mut()
            .create_reserve(&root, "gps", Label::default_label())
            .unwrap();
        k.graph_mut()
            .transfer(&root, battery, r, Energy::from_microjoules(seed_uj))
            .unwrap();
        k.graph_mut()
            .create_tap(
                &root,
                "gps-feed",
                battery,
                r,
                RateSpec::constant(Power::from_microwatts(feed_uw)),
                Label::default_label(),
            )
            .unwrap();
        let log = NavLog::shared();
        let nav = Navigator::new(NavigatorConfig::fleet_default(), r, log.clone());
        k.spawn_unprivileged("nav", Box::new(nav), r);
        (k, r, log)
    }

    #[test]
    fn healthy_reserve_fixes_on_the_base_cadence() {
        let (mut k, _, log) = rig(60_000, 30_000_000);
        k.run_until(SimTime::from_secs(600));
        let log = log.borrow();
        // ~70 s start-to-start: 8 fixes in 10 minutes.
        assert!((7..=9).contains(&log.fixes.len()), "fixes: {:?}", log.fixes);
        assert_eq!(log.aborted_fixes, 0);
        assert_eq!(log.stretched_sleeps, 0);
        assert!(k.peripheral_energy(PeripheralKind::Gps) >= Energy::from_joules(24));
    }

    #[test]
    fn starving_reserve_stretches_the_interval() {
        // 20 mW feed cannot sustain a 50 mW duty cycle: the reserve sags
        // and the navigator adapts.
        let (mut k, _, log) = rig(20_000, 12_000_000);
        k.run_until(SimTime::from_secs(1_800));
        let log = log.borrow();
        assert!(log.stretched_sleeps >= 3, "no adaptation: {log:?}");
        assert!(!log.fixes.is_empty());
    }

    #[test]
    fn empty_reserve_aborts_fixes_via_forced_shutdown() {
        // A trickle feed lights the receiver but cannot hold it for a full
        // fix: the kernel cuts it mid-window.
        let (mut k, _, log) = rig(5_000, 2_000_000);
        k.run_until(SimTime::from_secs(1_800));
        let log = log.borrow();
        assert!(
            log.aborted_fixes >= 1,
            "forced shutdown must abort a fix: {log:?}"
        );
        assert!(k.peripheral_forced_shutdowns(PeripheralKind::Gps) >= 1);
    }
}
