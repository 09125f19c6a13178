//! Screen-on browsing: the backlight held by a reserve.
//!
//! The paper measures the Dream's 555 mW backlight as the platform's
//! single biggest managed draw (§4.2). `ScreenOn` models interactive
//! browsing sessions on the kernel's reserve-gated peripheral layer: the
//! backlight is funded by a dedicated reserve, a session alternates short
//! page-render bursts with reading pauses under the lit screen, and the
//! program *dims* to a configured drive level when the reserve sags (the
//! screen-dimming energy pattern). If the reserve empties outright the
//! kernel forces the screen dark and the session ends early.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use cinder_core::ReserveId;
use cinder_hw::FULL_DRIVE_PPM;
use cinder_kernel::{Ctx, PeripheralKind, Program, Step};
use cinder_sim::{Energy, SimDuration, SimTime};

use crate::workload::DriveCap;

/// Screen-on browsing tuning.
#[derive(Debug, Clone, Copy)]
pub struct ScreenOnConfig {
    /// Screen-on session length.
    pub session: SimDuration,
    /// Dark gap between sessions.
    pub gap: SimDuration,
    /// CPU burst to render a page.
    pub page_work: SimDuration,
    /// Reading pause per page, screen lit.
    pub page_read: SimDuration,
    /// Reserve level below which the session dims to `dim_ppm`.
    pub dim_mark: Energy,
    /// The dimmed drive level (ppm of full brightness).
    pub dim_ppm: u64,
    /// Back-off when the screen cannot be lit at all.
    pub retry_backoff: SimDuration,
}

impl ScreenOnConfig {
    /// The fleet study's shape: 2-minute sessions every 5 minutes, 8 s a
    /// page, dimming to 40% below 30 J.
    pub fn fleet_default() -> Self {
        ScreenOnConfig {
            session: SimDuration::from_secs(120),
            gap: SimDuration::from_secs(180),
            page_work: SimDuration::from_millis(50),
            page_read: SimDuration::from_secs(8),
            dim_mark: Energy::from_joules(30),
            dim_ppm: 400_000,
            retry_backoff: SimDuration::from_secs(30),
        }
    }
}

/// Shared browsing telemetry.
#[derive(Debug, Default)]
pub struct BrowseLog {
    /// Pages rendered under a lit screen.
    pub pages: u64,
    /// Sessions completed to their full length.
    pub sessions: u64,
    /// Sessions the program dimmed mid-way.
    pub dimmed_sessions: u64,
    /// Sessions the kernel cut short by forcing the screen dark.
    pub dark_sessions: u64,
}

impl BrowseLog {
    /// A fresh shared log.
    pub fn shared() -> Rc<RefCell<BrowseLog>> {
        Rc::new(RefCell::new(BrowseLog::default()))
    }
}

enum State {
    /// Screen dark; next wake starts a session.
    Idle { acquired: bool },
    /// A page burst is rendering; `end` is the session deadline.
    Working { end: SimTime },
    /// Reading a rendered page under the lit screen.
    Reading { end: SimTime },
}

/// The screen-on browsing program.
pub struct ScreenOn {
    config: ScreenOnConfig,
    reserve: ReserveId,
    state: State,
    dimmed: bool,
    log: Rc<RefCell<BrowseLog>>,
    /// Policy-written drive ceiling; sessions never brighten past it.
    drive_cap: DriveCap,
}

impl ScreenOn {
    /// A browser lighting its screen from `reserve`.
    pub fn new(config: ScreenOnConfig, reserve: ReserveId, log: Rc<RefCell<BrowseLog>>) -> Self {
        ScreenOn {
            config,
            reserve,
            state: State::Idle { acquired: false },
            dimmed: false,
            log,
            drive_cap: Rc::new(Cell::new(FULL_DRIVE_PPM)),
        }
    }

    /// The shared drive-cap cell a policy driver writes (starts uncapped).
    pub fn drive_cap_handle(&self) -> DriveCap {
        self.drive_cap.clone()
    }

    /// Ends the current session and sleeps the dark gap.
    fn end_session(&mut self, ctx: &mut Ctx<'_>, completed: bool) -> Step {
        if ctx.peripheral_enabled(PeripheralKind::Backlight) {
            ctx.peripheral_disable(PeripheralKind::Backlight)
                .expect("the browser controls its own screen");
        }
        let mut log = self.log.borrow_mut();
        if completed {
            log.sessions += 1;
        } else {
            log.dark_sessions += 1;
        }
        self.state = State::Idle { acquired: true };
        Step::SleepUntil(ctx.now() + self.config.gap)
    }
}

impl Program for ScreenOn {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
        match self.state {
            State::Idle { acquired } => {
                if !acquired
                    && ctx
                        .peripheral_acquire(PeripheralKind::Backlight, self.reserve)
                        .is_err()
                {
                    return Step::Exit;
                }
                // Sessions start as bright as the policy cap allows; dim is
                // re-derived from the level as the session runs.
                self.dimmed = false;
                let _ = ctx.peripheral_set_drive(
                    PeripheralKind::Backlight,
                    FULL_DRIVE_PPM.min(self.drive_cap.get()),
                );
                match ctx.peripheral_enable(PeripheralKind::Backlight) {
                    Ok(()) => {
                        self.state = State::Working {
                            end: ctx.now() + self.config.session,
                        };
                        Step::compute(self.config.page_work)
                    }
                    Err(_) => {
                        self.state = State::Idle { acquired: true };
                        Step::SleepUntil(ctx.now() + self.config.retry_backoff)
                    }
                }
            }
            State::Working { end } => {
                // The page burst just finished rendering.
                if !ctx.peripheral_enabled(PeripheralKind::Backlight) {
                    return self.end_session(ctx, false);
                }
                self.log.borrow_mut().pages += 1;
                if !self.dimmed {
                    let level = ctx.level(self.reserve).unwrap_or(Energy::ZERO);
                    if level < self.config.dim_mark {
                        self.dimmed = true;
                        self.log.borrow_mut().dimmed_sessions += 1;
                        let _ = ctx.peripheral_set_drive(
                            PeripheralKind::Backlight,
                            self.config.dim_ppm.min(self.drive_cap.get()),
                        );
                    }
                }
                self.state = State::Reading { end };
                Step::SleepUntil(ctx.now() + self.config.page_read)
            }
            State::Reading { end } => {
                if !ctx.peripheral_enabled(PeripheralKind::Backlight) {
                    return self.end_session(ctx, false);
                }
                if ctx.now() >= end {
                    return self.end_session(ctx, true);
                }
                self.state = State::Working { end };
                Step::compute(self.config.page_work)
            }
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

    fn rig(feed_uw: u64, seed_uj: i64) -> (Kernel, ReserveId, Rc<RefCell<BrowseLog>>) {
        let mut k = Kernel::new(KernelConfig {
            seed: 4,
            fast_forward: true,
            ..KernelConfig::default()
        });
        let root = Actor::kernel();
        let battery = k.battery();
        let r = k
            .graph_mut()
            .create_reserve(&root, "screen", Label::default_label())
            .unwrap();
        k.graph_mut()
            .transfer(&root, battery, r, Energy::from_microjoules(seed_uj))
            .unwrap();
        k.graph_mut()
            .create_tap(
                &root,
                "screen-feed",
                battery,
                r,
                RateSpec::constant(Power::from_microwatts(feed_uw)),
                Label::default_label(),
            )
            .unwrap();
        let log = BrowseLog::shared();
        let app = ScreenOn::new(ScreenOnConfig::fleet_default(), r, log.clone());
        k.spawn_unprivileged("browse", Box::new(app), r);
        (k, r, log)
    }

    #[test]
    fn funded_screen_browses_full_sessions() {
        let (mut k, _, log) = rig(400_000, 80_000_000);
        k.run_until(SimTime::from_secs(900));
        let log = log.borrow();
        // Three 5-minute cycles: three full sessions, ~15 pages each.
        assert_eq!(log.sessions, 3, "{log:?}");
        assert!(log.pages >= 40, "{log:?}");
        assert_eq!(log.dark_sessions, 0);
        assert!(k.peripheral_energy(PeripheralKind::Backlight) >= Energy::from_joules(150));
    }

    #[test]
    fn sagging_reserve_dims_before_it_dies() {
        // A deficit feed: the level sags under the dim mark, the program
        // dims, and the dimmed draw then fits inside the feed.
        let (mut k, r, log) = rig(190_000, 40_000_000);
        k.run_until(SimTime::from_secs(1_800));
        let log = log.borrow();
        assert!(log.dimmed_sessions >= 1, "{log:?}");
        assert!(
            log.sessions >= 3,
            "dimming should save the sessions: {log:?}"
        );
        let _ = r;
    }

    #[test]
    fn empty_reserve_forces_the_screen_dark() {
        let (mut k, _, log) = rig(60_000, 25_000_000);
        k.run_until(SimTime::from_secs(1_800));
        let log = log.borrow();
        assert!(log.dark_sessions >= 1, "{log:?}");
        assert!(k.peripheral_forced_shutdowns(PeripheralKind::Backlight) >= 1);
    }
}
