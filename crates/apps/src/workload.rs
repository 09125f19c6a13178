//! The workload seam: one trait between application topologies and any
//! driver that runs them.
//!
//! The fleet's device driver used to be a monolithic `match` over its
//! workload enum; [`WorkloadProgram`] replaces that with a pluggable
//! boundary owned by the crate that owns the applications. A workload
//! gets two hooks — [`WorkloadProgram::configure`] to shape the kernel
//! before boot (e.g. the gallery's laptop NIC) and
//! [`WorkloadProgram::install`] to build its reserves, taps, stacks, and
//! threads inside it — and hands back an [`InstalledWorkload`] whose
//! [`WorkloadProbe`] the driver queries after the run for app-level
//! telemetry (completed operations, application-path bytes). New
//! workloads (the peripheral-driven [`crate::navigator`] and
//! [`crate::screen_on`]) plug in without touching the driver.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use cinder_core::{Actor, RateSpec, ReserveId, TapId};
use cinder_faults::{FaultConfig, OutageSpec};
use cinder_hw::LaptopNet;
use cinder_kernel::{Kernel, KernelConfig, KernelError, Program, ThreadId};
use cinder_label::Label;
use cinder_net::{CoopNetd, UncoopStack};
use cinder_sim::{Energy, Power, SimDuration, SimTime};

use cinder_offload::OffloadProfile;

use crate::browser::{build_browser, BrowserConfig};
use crate::image_viewer::{ImageViewer, ViewerConfig, ViewerLog};
use crate::navigator::{NavLog, Navigator, NavigatorConfig};
use crate::offloader::{OffloadLog, Offloader, OffloaderConfig, TraceBackend};
use crate::pollers::{build_pollers_with_retry, PeriodicPoller, PollerLog};
use crate::screen_on::{BrowseLog, ScreenOn, ScreenOnConfig};
use crate::spinner::Spinner;

/// The shared-backend economy a driver hands to offload-capable
/// workloads: the backend profile plus the horizon the trace must cover.
/// Plain data — the workload rebuilds the identical trace from it, which
/// is what keeps the backend deterministic across worker layouts.
#[derive(Debug, Clone, Copy)]
pub struct OffloadSetup {
    /// Backend sizing and item shape.
    pub profile: OffloadProfile,
    /// Simulation horizon the trace must span.
    pub horizon: SimDuration,
    /// Fleet-shared backend outage windows baked into the trace, if the
    /// scenario injects them.
    pub outages: Option<OutageSpec>,
}

impl OffloadSetup {
    /// The default profile over a one-hour horizon (standalone runs).
    pub fn nominal() -> Self {
        OffloadSetup {
            profile: OffloadProfile::default(),
            horizon: SimDuration::from_secs(3_600),
            outages: None,
        }
    }
}

/// Per-device parameters a driver passes through to the workload: jitter
/// scales, the optional §9 data plan, and the offload economy if the
/// scenario runs one.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadEnv {
    /// Tap-rate scale in ppm (1_000_000 = nominal).
    pub rate_scale_ppm: u64,
    /// Interval scale in ppm (staggers periodic work across a fleet).
    pub interval_scale_ppm: u64,
    /// §9 data-plan size in bytes, if the device carries one.
    pub data_plan_bytes: Option<u64>,
    /// Shared-backend offload economy, if the scenario runs one.
    pub offload: Option<OffloadSetup>,
    /// The scenario's fault model, if it injects any — workloads read
    /// the retry policy off it and opt into backoff.
    pub faults: Option<FaultConfig>,
}

impl WorkloadEnv {
    /// No jitter, no plan, no offload economy.
    pub fn nominal() -> Self {
        WorkloadEnv {
            rate_scale_ppm: 1_000_000,
            interval_scale_ppm: 1_000_000,
            data_plan_bytes: None,
            offload: None,
            faults: None,
        }
    }

    /// The retry policy the scenario's fault model prescribes, if any.
    pub fn retry(&self) -> Option<cinder_faults::RetryPolicy> {
        self.faults.and_then(|f| f.retry)
    }

    /// Scales a nominal tap rate by the device's rate jitter.
    pub fn scale(&self, p: Power) -> Power {
        p.scale_ppm(self.rate_scale_ppm)
    }

    /// Scales a nominal interval by the device's interval jitter.
    pub fn interval(&self, base: SimDuration) -> SimDuration {
        SimDuration::from_micros(base.as_micros() * self.interval_scale_ppm / 1_000_000)
    }
}

/// What a driver reads off a finished workload.
pub trait WorkloadProbe {
    /// Completed application operations (polls sent / pages / images /
    /// fixes).
    fn ops(&self, kernel: &Kernel) -> u64;

    /// Application-path bytes that never cross the radio (the gallery's
    /// NIC downloads); zero means "use the radio's byte counters".
    fn app_net_bytes(&self, _kernel: &Kernel) -> u64 {
        0
    }

    /// Backoff retries the workload's resilience layer scheduled (0 for
    /// workloads without one).
    fn retries(&self, _kernel: &Kernel) -> u64 {
        0
    }

    /// Work items abandoned after the retry budget ran out.
    fn retries_exhausted(&self, _kernel: &Kernel) -> u64 {
        0
    }
}

/// A shared backlight-drive ceiling (ppm of full drive) a policy driver
/// writes and a screen-driving workload reads when it sets its drive —
/// the "hint" half of the policy seam. `FULL_DRIVE_PPM` means uncapped.
pub type DriveCap = Rc<Cell<u64>>;

/// A throttleable feed a workload exposes to the policy engine: the tap,
/// the reserve it fills, its nominal (jitter-scaled) rate, and whether
/// the feed funds background work a policy may demote when the user is
/// away.
#[derive(Debug, Clone, Copy)]
pub struct PolicyTapHandle {
    /// The tap to re-rate.
    pub tap: TapId,
    /// The reserve the tap feeds (its level is a policy observable).
    pub reserve: ReserveId,
    /// The rate the workload installed.
    pub nominal: Power,
    /// True for feeds funding background work (pollers, hogs).
    pub background: bool,
}

/// A restartable workload thread: everything a fault supervisor needs to
/// kill it and bring a fresh instance back. `make` rebuilds the program
/// in its initial state, sharing the workload's logs (an `Rc` capture),
/// so a transient crash resets in-progress work but keeps telemetry.
pub struct RespawnHandle {
    /// The live thread (a supervisor updates this after each respawn).
    pub thread: ThreadId,
    /// The reserve the respawned program runs under.
    pub reserve: ReserveId,
    /// Thread name, reused on respawn.
    pub name: String,
    /// Builds a fresh program in its initial state.
    pub make: Box<dyn Fn() -> Box<dyn Program>>,
}

/// A workload's handles back to the driver.
pub struct InstalledWorkload {
    /// The §9 plan reserve, when the workload installed one.
    pub plan_reserve: Option<ReserveId>,
    /// Post-run telemetry reader.
    pub probe: Box<dyn WorkloadProbe>,
    /// The feeds a policy engine may observe and re-rate, in install
    /// order. Empty for workloads that own their rates (the browser's
    /// internal taps are its own business).
    pub policy_taps: Vec<PolicyTapHandle>,
    /// The backlight-cap hint cell, for workloads that drive the screen.
    pub drive_cap: Option<DriveCap>,
    /// Threads a fault supervisor may kill and respawn. Empty for
    /// workloads that don't support transient-crash injection.
    pub respawns: Vec<RespawnHandle>,
}

impl InstalledWorkload {
    fn plain(probe: Box<dyn WorkloadProbe>) -> Self {
        InstalledWorkload {
            plan_reserve: None,
            probe,
            policy_taps: Vec::new(),
            drive_cap: None,
            respawns: Vec::new(),
        }
    }
}

/// One of the application studies, as a pluggable device workload.
pub trait WorkloadProgram {
    /// Shapes the kernel configuration before boot (default: no change).
    fn configure(&self, _config: &mut KernelConfig) {}

    /// Builds the workload's topology — reserves, taps, network stack,
    /// threads — inside the freshly booted kernel.
    fn install(
        &self,
        kernel: &mut Kernel,
        env: &WorkloadEnv,
    ) -> Result<InstalledWorkload, KernelError>;
}

/// A probe with nothing app-level to report.
struct NullProbe;

impl WorkloadProbe for NullProbe {
    fn ops(&self, _kernel: &Kernel) -> u64 {
        0
    }
}

/// Creates a reserve seeded with `seed` and fed `feed` from the battery —
/// the standard funding shape every tap-throttled workload uses. Returns
/// the reserve and its feed tap so workloads can hand the tap to the
/// policy engine.
fn seeded_tapped_reserve(
    kernel: &mut Kernel,
    name: &str,
    seed: Energy,
    feed: Power,
) -> Result<(ReserveId, TapId), KernelError> {
    let root = Actor::kernel();
    let battery = kernel.battery();
    let g = kernel.graph_mut();
    let r = g.create_reserve(&root, name, Label::default_label())?;
    if seed.is_positive() {
        g.transfer(&root, battery, r, seed)?;
    }
    let tap = g.create_tap(
        &root,
        &format!("{name}-tap"),
        battery,
        r,
        RateSpec::constant(feed),
        Label::default_label(),
    )?;
    Ok((r, tap))
}

// ----- the §5/§6 studies ---------------------------------------------------

/// §6.4's mail + RSS pollers, cooperative (netd) or not.
pub struct PollersWorkload {
    /// Use the cooperative netd stack.
    pub coop: bool,
}

struct PollerProbe {
    log: Rc<RefCell<PollerLog>>,
}

impl WorkloadProbe for PollerProbe {
    fn ops(&self, _kernel: &Kernel) -> u64 {
        self.log.borrow().sends.len() as u64
    }

    fn retries(&self, _kernel: &Kernel) -> u64 {
        self.log.borrow().retries
    }

    fn retries_exhausted(&self, _kernel: &Kernel) -> u64 {
        self.log.borrow().gave_up
    }
}

impl WorkloadProgram for PollersWorkload {
    fn install(
        &self,
        kernel: &mut Kernel,
        env: &WorkloadEnv,
    ) -> Result<InstalledWorkload, KernelError> {
        if self.coop {
            let netd = CoopNetd::with_defaults(kernel.graph_mut());
            kernel.install_net(Box::new(netd));
        } else {
            kernel.install_net(Box::new(UncoopStack::new()));
        }
        let feed = env.scale(Power::from_microwatts(37_500));
        let retry = env.retry();
        let rss_interval = env.interval(SimDuration::from_secs(60));
        let mail_interval = env.interval(SimDuration::from_secs(60));
        let handles = build_pollers_with_retry(kernel, feed, rss_interval, mail_interval, retry)?;
        // §9 in-kernel: the device carries a NetworkBytes root pool whose
        // plan reserve gates both pollers' sends online — blocked-on-bytes
        // is kernel state, not an offline replay.
        let plan_reserve = match env.data_plan_bytes {
            Some(bytes) => Some(kernel.install_byte_plan(bytes, &[handles.rss, handles.mail])?),
            None => None,
        };
        let rss_log = handles.log.clone();
        let mail_log = handles.log.clone();
        let respawns = vec![
            RespawnHandle {
                thread: handles.rss,
                reserve: handles.rss_reserve,
                name: "rss".into(),
                make: Box::new(move || {
                    Box::new(
                        PeriodicPoller::new(
                            SimTime::ZERO,
                            rss_interval,
                            256,
                            8_192,
                            rss_log.clone(),
                        )
                        .with_retry(retry),
                    )
                }),
            },
            RespawnHandle {
                thread: handles.mail,
                reserve: handles.mail_reserve,
                name: "mail".into(),
                make: Box::new(move || {
                    Box::new(
                        PeriodicPoller::new(
                            SimTime::from_secs(15),
                            mail_interval,
                            512,
                            4_096,
                            mail_log.clone(),
                        )
                        .with_retry(retry),
                    )
                }),
            },
        ];
        Ok(InstalledWorkload {
            plan_reserve,
            probe: Box::new(PollerProbe { log: handles.log }),
            // Both pollers are classic background work: first in line for
            // away-time demotion.
            policy_taps: vec![
                PolicyTapHandle {
                    tap: handles.rss_tap,
                    reserve: handles.rss_reserve,
                    nominal: feed,
                    background: true,
                },
                PolicyTapHandle {
                    tap: handles.mail_tap,
                    reserve: handles.mail_reserve,
                    nominal: feed,
                    background: true,
                },
            ],
            drive_cap: None,
            respawns,
        })
    }
}

/// §5.2's browser with isolated plugin and ad-block extension (Fig 6b).
pub struct BrowserWorkload;

impl WorkloadProgram for BrowserWorkload {
    fn install(
        &self,
        kernel: &mut Kernel,
        env: &WorkloadEnv,
    ) -> Result<InstalledWorkload, KernelError> {
        let base = BrowserConfig::fig6b();
        build_browser(
            kernel,
            BrowserConfig {
                browser_tap: env.scale(base.browser_tap),
                plugin_tap: env.scale(base.plugin_tap),
                extension_tap: env.scale(base.extension_tap),
                ..base
            },
        )?;
        Ok(InstalledWorkload::plain(Box::new(NullProbe)))
    }
}

/// §5.3/§6.2's energy-aware picture gallery on the laptop platform.
pub struct GalleryWorkload {
    /// Scale image quality to the reserve level (Fig 11 vs Fig 10).
    pub adaptive: bool,
}

struct ViewerProbe {
    log: Rc<RefCell<ViewerLog>>,
}

impl WorkloadProbe for ViewerProbe {
    fn ops(&self, _kernel: &Kernel) -> u64 {
        self.log.borrow().images.len() as u64
    }

    fn app_net_bytes(&self, _kernel: &Kernel) -> u64 {
        self.log.borrow().total_bytes()
    }
}

impl WorkloadProgram for GalleryWorkload {
    fn configure(&self, config: &mut KernelConfig) {
        config.laptop = Some(LaptopNet::t60p());
    }

    fn install(
        &self,
        kernel: &mut Kernel,
        env: &WorkloadEnv,
    ) -> Result<InstalledWorkload, KernelError> {
        let feed = env.scale(Power::from_microwatts(4_000));
        let (r, tap) = seeded_tapped_reserve(
            kernel,
            "downloader",
            Energy::from_microjoules(200_000),
            feed,
        )?;
        let log = ViewerLog::shared();
        let config = if self.adaptive {
            ViewerConfig::fig11()
        } else {
            ViewerConfig::fig10()
        };
        kernel.spawn_unprivileged("viewer", Box::new(ImageViewer::new(config, log.clone())), r);
        Ok(InstalledWorkload {
            policy_taps: vec![PolicyTapHandle {
                tap,
                reserve: r,
                nominal: feed,
                background: true,
            }],
            ..InstalledWorkload::plain(Box::new(ViewerProbe { log }))
        })
    }
}

/// A background CPU hog throttled behind a tap (the Fig 9 shape).
pub struct SpinnerWorkload;

impl WorkloadProgram for SpinnerWorkload {
    fn install(
        &self,
        kernel: &mut Kernel,
        env: &WorkloadEnv,
    ) -> Result<InstalledWorkload, KernelError> {
        let feed = env.scale(Power::from_microwatts(68_500));
        let (r, tap) = seeded_tapped_reserve(kernel, "hog", Energy::ZERO, feed)?;
        let tid = kernel.spawn_unprivileged("hog", Box::new(Spinner::new()), r);
        Ok(InstalledWorkload {
            policy_taps: vec![PolicyTapHandle {
                tap,
                reserve: r,
                nominal: feed,
                background: true,
            }],
            respawns: vec![RespawnHandle {
                thread: tid,
                reserve: r,
                name: "hog".into(),
                make: Box::new(|| Box::new(Spinner::new())),
            }],
            ..InstalledWorkload::plain(Box::new(NullProbe))
        })
    }
}

// ----- the peripheral workloads --------------------------------------------

/// Duty-cycled GPS fixes under a tapped reserve (see [`crate::navigator`]).
pub struct NavigatorWorkload;

struct NavigatorProbe {
    log: Rc<RefCell<NavLog>>,
}

impl WorkloadProbe for NavigatorProbe {
    fn ops(&self, _kernel: &Kernel) -> u64 {
        self.log.borrow().fixes.len() as u64
    }
}

impl WorkloadProgram for NavigatorWorkload {
    fn install(
        &self,
        kernel: &mut Kernel,
        env: &WorkloadEnv,
    ) -> Result<InstalledWorkload, KernelError> {
        // ~50 mW sustains the nominal 10 s / 60 s duty cycle; the jittered
        // feed leaves some devices stretching their fix interval.
        let feed = env.scale(Power::from_microwatts(52_500));
        let (r, tap) = seeded_tapped_reserve(kernel, "gps", Energy::from_joules(20), feed)?;
        let log = NavLog::shared();
        let nav = Navigator::new(NavigatorConfig::fleet_default(), r, log.clone());
        kernel.spawn_unprivileged("nav", Box::new(nav), r);
        Ok(InstalledWorkload {
            // Navigation is user-facing: the lifetime controller may scale
            // it, but away-time demotion leaves it alone.
            policy_taps: vec![PolicyTapHandle {
                tap,
                reserve: r,
                nominal: feed,
                background: false,
            }],
            ..InstalledWorkload::plain(Box::new(NavigatorProbe { log }))
        })
    }
}

/// Backlit browsing sessions under a tapped reserve (see
/// [`crate::screen_on`]).
pub struct ScreenOnWorkload;

struct ScreenOnProbe {
    log: Rc<RefCell<BrowseLog>>,
}

impl WorkloadProbe for ScreenOnProbe {
    fn ops(&self, _kernel: &Kernel) -> u64 {
        self.log.borrow().pages
    }
}

impl WorkloadProgram for ScreenOnWorkload {
    fn install(
        &self,
        kernel: &mut Kernel,
        env: &WorkloadEnv,
    ) -> Result<InstalledWorkload, KernelError> {
        // A deficit feed against full brightness: sessions dim as the
        // reserve sags, and the dimmed draw fits back inside the feed.
        let feed = env.scale(Power::from_microwatts(190_000));
        let (r, tap) = seeded_tapped_reserve(kernel, "screen", Energy::from_joules(40), feed)?;
        let log = BrowseLog::shared();
        let app = ScreenOn::new(ScreenOnConfig::fleet_default(), r, log.clone());
        let drive_cap = app.drive_cap_handle();
        kernel.spawn_unprivileged("browse", Box::new(app), r);
        Ok(InstalledWorkload {
            // The screen feed is user-facing; the backlight hint cell is
            // where presence policy lands.
            policy_taps: vec![PolicyTapHandle {
                tap,
                reserve: r,
                nominal: feed,
                background: false,
            }],
            drive_cap: Some(drive_cap),
            ..InstalledWorkload::plain(Box::new(ScreenOnProbe { log }))
        })
    }
}

// ----- the offload economy -------------------------------------------------

/// The cloud-offload client (see [`crate::offloader`]): periodic work
/// items priced local-vs-remote against a shared backend trace.
pub struct OffloaderWorkload;

struct OffloaderProbe {
    log: Rc<RefCell<OffloadLog>>,
}

impl WorkloadProbe for OffloaderProbe {
    fn ops(&self, _kernel: &Kernel) -> u64 {
        self.log.borrow().items
    }

    fn retries(&self, _kernel: &Kernel) -> u64 {
        self.log.borrow().retries
    }

    fn retries_exhausted(&self, _kernel: &Kernel) -> u64 {
        self.log.borrow().retries_exhausted
    }
}

impl WorkloadProgram for OffloaderWorkload {
    fn install(
        &self,
        kernel: &mut Kernel,
        env: &WorkloadEnv,
    ) -> Result<InstalledWorkload, KernelError> {
        // The radio path is the cooperative netd: offload round trips pay
        // real radio joules out of the device's reserve through the pool.
        let netd = CoopNetd::with_defaults(kernel.graph_mut());
        kernel.install_net(Box::new(netd));
        let setup = env.offload.unwrap_or_else(OffloadSetup::nominal);
        let backend = match setup.outages {
            Some(spec) => TraceBackend::build_with_outages(setup.profile, setup.horizon, spec),
            None => TraceBackend::build(setup.profile, setup.horizon),
        };
        kernel.install_offload(Box::new(backend));
        // 30 J of headroom plus a 60 mW feed: enough to keep the remote
        // path fundable at the nominal cadence, tight enough that the
        // reserve level is a live signal for the break-even policy.
        let feed = env.scale(Power::from_microwatts(60_000));
        let (r, tap) = seeded_tapped_reserve(kernel, "offload", Energy::from_joules(30), feed)?;
        let interval = env.interval(setup.profile.request_interval);
        let config = OffloaderConfig {
            interval,
            ..OffloaderConfig::from_profile(&setup.profile)
        };
        let retry = env.retry();
        let log = OffloadLog::shared();
        let tid = kernel.spawn_unprivileged(
            "offloader",
            Box::new(Offloader::new(config, log.clone()).with_retry(retry)),
            r,
        );
        let plan_reserve = match env.data_plan_bytes {
            Some(bytes) => Some(kernel.install_byte_plan(bytes, &[tid])?),
            None => None,
        };
        let respawn_log = log.clone();
        Ok(InstalledWorkload {
            plan_reserve,
            probe: Box::new(OffloaderProbe { log }),
            // Work items are deferrable compute: background by nature.
            policy_taps: vec![PolicyTapHandle {
                tap,
                reserve: r,
                nominal: feed,
                background: true,
            }],
            drive_cap: None,
            respawns: vec![RespawnHandle {
                thread: tid,
                reserve: r,
                name: "offloader".into(),
                make: Box::new(move || {
                    Box::new(Offloader::new(config, respawn_log.clone()).with_retry(retry))
                }),
            }],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinder_sim::SimTime;

    fn run(workload: &dyn WorkloadProgram, secs: u64) -> (Kernel, InstalledWorkload) {
        let mut config = KernelConfig {
            seed: 11,
            fast_forward: true,
            sched: cinder_core::SchedulerConfig {
                quantum: SimDuration::from_millis(100),
                ..cinder_core::SchedulerConfig::default()
            },
            ..KernelConfig::default()
        };
        workload.configure(&mut config);
        let mut kernel = Kernel::new(config);
        let installed = workload
            .install(&mut kernel, &WorkloadEnv::nominal())
            .expect("root installs the workload");
        kernel.run_until(SimTime::from_secs(secs));
        (kernel, installed)
    }

    #[test]
    fn every_workload_installs_and_produces_energy() {
        let workloads: Vec<Box<dyn WorkloadProgram>> = vec![
            Box::new(PollersWorkload { coop: true }),
            Box::new(PollersWorkload { coop: false }),
            Box::new(BrowserWorkload),
            Box::new(GalleryWorkload { adaptive: true }),
            Box::new(SpinnerWorkload),
            Box::new(NavigatorWorkload),
            Box::new(ScreenOnWorkload),
            Box::new(OffloaderWorkload),
        ];
        for w in &workloads {
            let (kernel, _) = run(w.as_ref(), 120);
            assert!(kernel.meter().total_energy().is_positive());
            assert!(kernel.graph().totals().conserved());
        }
    }

    #[test]
    fn probes_count_operations() {
        let (kernel, installed) = run(&PollersWorkload { coop: false }, 600);
        assert!(installed.probe.ops(&kernel) >= 8);
        assert_eq!(installed.probe.app_net_bytes(&kernel), 0);

        let (kernel, installed) = run(&NavigatorWorkload, 600);
        assert!(installed.probe.ops(&kernel) >= 5);

        let (kernel, installed) = run(&ScreenOnWorkload, 600);
        assert!(installed.probe.ops(&kernel) >= 20);

        let (kernel, installed) = run(&GalleryWorkload { adaptive: true }, 1_200);
        assert!(installed.probe.ops(&kernel) >= 8);
        assert!(installed.probe.app_net_bytes(&kernel) > 100_000);
    }

    #[test]
    fn env_scaling_is_exact() {
        let env = WorkloadEnv {
            rate_scale_ppm: 900_000,
            interval_scale_ppm: 1_100_000,
            ..WorkloadEnv::nominal()
        };
        assert_eq!(
            env.scale(Power::from_microwatts(100_000)),
            Power::from_microwatts(90_000)
        );
        assert_eq!(
            env.interval(SimDuration::from_secs(60)),
            SimDuration::from_micros(66_000_000)
        );
    }
}
