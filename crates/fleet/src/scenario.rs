//! The population model: what a fleet of devices looks like.
//!
//! A [`Scenario`] describes a device population as a *mixture* of the
//! paper's §5/§6 application workloads plus per-device parameter jitter.
//! [`Scenario::specs`] expands it into one [`DeviceSpec`] per device:
//! workloads are assigned round-robin by mixture weight (so the realised
//! mixture is exact, not sampled), while battery capacity, tap-rate scale,
//! poll intervals, and the kernel seed are drawn from the device's own
//! [`SimRng::split`] stream — adding a device never perturbs its siblings.

use cinder_apps::{
    BrowserWorkload, GalleryWorkload, NavigatorWorkload, OffloaderWorkload, PollersWorkload,
    ScreenOnWorkload, SpinnerWorkload, WorkloadProgram,
};
use cinder_faults::FaultConfig;
use cinder_offload::OffloadProfile;
use cinder_policy::{PolicyConfig, PolicyVariant};
use cinder_sim::{Energy, SimDuration, SimRng};

/// Which application study a device runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §6.4's mail + RSS pollers. `coop` selects netd pooling (Fig 13b)
    /// versus the uncooperative baseline (Fig 13a).
    Pollers {
        /// Use the cooperative netd stack.
        coop: bool,
    },
    /// §5.2's browser with an isolated, rate-limited plugin and ad-block
    /// extension (the Fig 6b topology, with backward reclamation).
    Browser,
    /// §5.3/§6.2's energy-aware picture gallery on the laptop platform.
    /// `adaptive` selects quality scaling (Fig 11) versus stalling (Fig 10).
    Gallery {
        /// Scale image quality to the reserve level.
        adaptive: bool,
    },
    /// A background CPU hog throttled behind a tap (the Fig 9 shape).
    Spinner,
    /// Duty-cycled GPS fixes under a reserve, the fix interval stretching
    /// as the reserve drops (the peripheral layer's sensor workload).
    Navigator,
    /// Backlit browsing sessions under a reserve, dimming on a sagging
    /// level and forced dark on an empty one.
    ScreenOn,
    /// The cloud-offload client: periodic work items priced local-vs-remote
    /// by the break-even policy against the scenario's shared backend.
    Offloader,
}

impl Workload {
    /// Every workload, in tag order — the domain [`Workload::from_tag`]
    /// inverts over.
    pub const ALL: [Workload; 9] = [
        Workload::Pollers { coop: true },
        Workload::Pollers { coop: false },
        Workload::Browser,
        Workload::Gallery { adaptive: true },
        Workload::Gallery { adaptive: false },
        Workload::Spinner,
        Workload::Navigator,
        Workload::ScreenOn,
        Workload::Offloader,
    ];

    /// A short stable tag for CSV columns and logs.
    pub fn tag(self) -> &'static str {
        match self {
            Workload::Pollers { coop: true } => "pollers-coop",
            Workload::Pollers { coop: false } => "pollers-uncoop",
            Workload::Browser => "browser",
            Workload::Gallery { adaptive: true } => "gallery-adaptive",
            Workload::Gallery { adaptive: false } => "gallery-fixed",
            Workload::Spinner => "spinner",
            Workload::Navigator => "navigator",
            Workload::ScreenOn => "screen-on",
            Workload::Offloader => "offloader",
        }
    }

    /// The exact inverse of [`Workload::tag`], for CSV/tooling round trips:
    /// `Workload::from_tag(w.tag()) == Some(w)` for every workload, and
    /// `None` for anything else.
    pub fn from_tag(tag: &str) -> Option<Workload> {
        match tag {
            "pollers-coop" => Some(Workload::Pollers { coop: true }),
            "pollers-uncoop" => Some(Workload::Pollers { coop: false }),
            "browser" => Some(Workload::Browser),
            "gallery-adaptive" => Some(Workload::Gallery { adaptive: true }),
            "gallery-fixed" => Some(Workload::Gallery { adaptive: false }),
            "spinner" => Some(Workload::Spinner),
            "navigator" => Some(Workload::Navigator),
            "screen-on" => Some(Workload::ScreenOn),
            "offloader" => Some(Workload::Offloader),
            _ => None,
        }
    }

    /// Resolves the tag to its [`WorkloadProgram`] — the seam the device
    /// driver installs through.
    pub fn program(self) -> Box<dyn WorkloadProgram> {
        match self {
            Workload::Pollers { coop } => Box::new(PollersWorkload { coop }),
            Workload::Browser => Box::new(BrowserWorkload),
            Workload::Gallery { adaptive } => Box::new(GalleryWorkload { adaptive }),
            Workload::Spinner => Box::new(SpinnerWorkload),
            Workload::Navigator => Box::new(NavigatorWorkload),
            Workload::ScreenOn => Box::new(ScreenOnWorkload),
            Workload::Offloader => Box::new(OffloaderWorkload),
        }
    }
}

/// A §9 data plan: the device's kernel graph carries a
/// [`cinder_core::ResourceKind::NetworkBytes`] root pool whose plan reserve
/// gates the pollers' sends **online** — transmitted bytes debit the plan
/// at the radio, received bytes bill on delivery, and a send the plan
/// cannot cover blocks in the kernel until it can (or forever, if the plan
/// is spent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataPlan {
    /// Plan size in bytes (the issue's study: 5 MB).
    pub bytes: u64,
}

/// A device population to simulate.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (report/file prefix).
    pub name: String,
    /// The fleet seed: fixes every device's parameters and kernel stream.
    pub seed: u64,
    /// Number of devices.
    pub devices: u32,
    /// Per-device simulation horizon.
    pub horizon: SimDuration,
    /// Workload mixture as `(workload, weight)`; assignment is round-robin
    /// by weight so the realised mixture is exact.
    pub mix: Vec<(Workload, u32)>,
    /// Battery capacity range `[lo, hi)`; each device draws uniformly.
    pub battery: (Energy, Energy),
    /// Per-device tap-rate jitter: rates are scaled by a factor drawn
    /// uniformly from `1 ± jitter_ppm/1e6`.
    pub jitter_ppm: u64,
    /// Scheduler quantum for fleet devices. Fleet studies default to
    /// 100 ms — ten times the single-device experiments' 10 ms — trading
    /// accounting granularity for throughput at population scale.
    pub quantum: SimDuration,
    /// Optional §9 data-plan quota carried by poller devices.
    pub data_plan: Option<DataPlan>,
    /// Shared-backend offload economy, if the scenario runs one. Every
    /// offloader device rebuilds the identical backend trace from this
    /// profile and the horizon — the backend is configuration, not
    /// runtime state, which is what keeps offload-heavy fleets
    /// byte-identical for any worker count and lets checkpoints skip
    /// backend serialisation entirely.
    pub offload: Option<OffloadProfile>,
    /// The policy engine every device runs, if the scenario runs one.
    /// Plain copyable configuration: the variant, its decision tick, and
    /// the lifetime target. `Some` with [`PolicyVariant::None`] still
    /// generates presence traces and telemetry (the head-to-head
    /// baseline); `None` skips the policy layer entirely, leaving the
    /// device loop byte-identical to a policy-free build.
    pub policy: Option<PolicyConfig>,
    /// Fault-injection plan, if the scenario runs one. Plain copyable
    /// configuration: per-device flap/crash/aging streams plus the
    /// fleet-shared outage spec. `None` skips the fault layer entirely,
    /// leaving the device loop byte-identical to a fault-free build.
    pub faults: Option<FaultConfig>,
}

/// One device, fully specified: plain data, cheap to ship to a worker
/// thread.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Device id (index in the fleet, stable across thread counts).
    pub id: u64,
    /// The device kernel's RNG seed.
    pub seed: u64,
    /// Assigned workload.
    pub workload: Workload,
    /// Battery capacity.
    pub battery: Energy,
    /// Tap-rate scale in ppm (1_000_000 = nominal).
    pub rate_scale_ppm: u64,
    /// Poll-interval scale in ppm (pollers only; staggers radio episodes
    /// across the fleet).
    pub interval_scale_ppm: u64,
    /// Simulation horizon.
    pub horizon: SimDuration,
    /// Scheduler quantum.
    pub quantum: SimDuration,
    /// Data plan, if the scenario carries one.
    pub data_plan: Option<DataPlan>,
    /// Offload economy, if the scenario carries one.
    pub offload: Option<OffloadProfile>,
    /// Enable the kernel's fast-forward
    /// ([`cinder_kernel::KernelConfig::fast_forward`]): bit-exact idle,
    /// frozen, pooled and duty jumps. Fleet scenarios default to `true`;
    /// the differential tests flip it off, which steps every quantum, to
    /// prove the reports identical either way.
    pub fast_forward: bool,
    /// Policy engine configuration, if the scenario carries one. Plain
    /// data copied off the scenario *after* the device's RNG draws —
    /// enabling a policy never perturbs battery/jitter/seed assignment.
    pub policy: Option<PolicyConfig>,
    /// Fault-injection configuration, if the scenario carries one. Copied
    /// off the scenario *after* the RNG draws, and the fault plan itself
    /// derives from a dedicated tagged child stream — enabling faults
    /// never perturbs battery/jitter/seed assignment.
    pub faults: Option<FaultConfig>,
}

impl Scenario {
    /// The default mixed-population study: the §5/§6 workloads in rough
    /// proportion to how often phones run them — mostly background pollers,
    /// some interactive browsing and gallery use, a few runaway hogs.
    pub fn mixed(name: &str, seed: u64, devices: u32) -> Scenario {
        Scenario {
            name: name.to_string(),
            seed,
            devices,
            horizon: SimDuration::from_secs(3_600),
            mix: vec![
                (Workload::Pollers { coop: true }, 4),
                (Workload::Pollers { coop: false }, 2),
                (Workload::Browser, 2),
                (Workload::Gallery { adaptive: true }, 1),
                (Workload::Spinner, 1),
            ],
            battery: (Energy::from_joules(10_000), Energy::from_joules(20_000)),
            jitter_ppm: 100_000, // ±10 %
            quantum: SimDuration::from_millis(100),
            data_plan: None,
            offload: None,
            policy: None,
            faults: None,
        }
    }

    /// Every workload tag in one population — the paper's §5/§6 studies
    /// plus the peripheral workloads — for mixture-wide differential and
    /// coverage tests.
    pub fn all_workloads(name: &str, seed: u64, devices: u32) -> Scenario {
        Scenario {
            mix: vec![
                (Workload::Pollers { coop: true }, 2),
                (Workload::Pollers { coop: false }, 1),
                (Workload::Browser, 1),
                (Workload::Gallery { adaptive: true }, 1),
                (Workload::Gallery { adaptive: false }, 1),
                (Workload::Spinner, 1),
                (Workload::Navigator, 2),
                (Workload::ScreenOn, 1),
                (Workload::Offloader, 1),
            ],
            offload: Some(OffloadProfile::default()),
            ..Scenario::mixed(name, seed, devices)
        }
    }

    /// The offload-economy study: a fleet that is mostly cloud-offload
    /// clients hammering one shared backend of `capacity` servers, with a
    /// few cooperative pollers for background radio traffic. `fig_offload`
    /// sweeps `capacity` to expose the saturation feedback loop.
    pub fn offload_heavy(name: &str, seed: u64, devices: u32, capacity: u32) -> Scenario {
        Scenario {
            mix: vec![
                (Workload::Offloader, 8),
                (Workload::Pollers { coop: true }, 2),
            ],
            offload: Some(OffloadProfile {
                capacity,
                ..OffloadProfile::default()
            }),
            ..Scenario::mixed(name, seed, devices)
        }
    }

    /// A peripheral-heavy population: mostly navigators and screen-on
    /// browsers, a few background pollers — the fleet-scale bench's
    /// stress case for the reserve-gated peripheral layer.
    pub fn peripheral_heavy(name: &str, seed: u64, devices: u32) -> Scenario {
        Scenario {
            mix: vec![
                (Workload::Navigator, 5),
                (Workload::ScreenOn, 4),
                (Workload::Pollers { coop: true }, 1),
            ],
            ..Scenario::mixed(name, seed, devices)
        }
    }

    /// The steady-heavy population for the fast-forward study: batteries
    /// two orders of magnitude under the mixed study's, against a
    /// day-long horizon. Taps drain the graph battery inside the first
    /// hour or two, after which the device sits in a frozen steady state
    /// — pollers blocked in netd's pool, the spinner Ready but unfundable
    /// — for the rest of the day. This is the regime where the kernel's
    /// fast-forward turns the pooling spans and the frozen tail into a few
    /// dozen jumps instead of ten quanta per second. (The uncooperative pollers are deliberately
    /// absent: their radio energy is unbilled, so their graph never
    /// freezes and they would only measure live-phase cost.)
    pub fn steady_heavy(name: &str, seed: u64, devices: u32) -> Scenario {
        Scenario {
            horizon: SimDuration::from_secs(24 * 3_600),
            mix: vec![
                (Workload::Pollers { coop: true }, 5),
                (Workload::Spinner, 3),
            ],
            battery: (Energy::from_joules(100), Energy::from_joules(300)),
            ..Scenario::mixed(name, seed, devices)
        }
    }

    /// The §9 data-plan study: an all-poller fleet where every device
    /// carries a byte-quota reserve (default 5 MB, the issue's figure).
    pub fn data_plan(name: &str, seed: u64, devices: u32, plan_bytes: u64) -> Scenario {
        Scenario {
            mix: vec![
                (Workload::Pollers { coop: true }, 1),
                (Workload::Pollers { coop: false }, 1),
            ],
            data_plan: Some(DataPlan { bytes: plan_bytes }),
            ..Scenario::mixed(name, seed, devices)
        }
    }

    /// The user-aware policy study: screen-heavy interactive devices with
    /// batteries sized *under* the mixture's nominal hourly appetite, so a
    /// device that burns at full brightness all hour misses the lifetime
    /// target. The default policy is the user-aware engine with the target
    /// at the horizon ("still alive at the end of the hour"); `fig-policy`
    /// swaps the variant to run the same user population under
    /// None / Static / UserAware head-to-head.
    pub fn policy_heavy(name: &str, seed: u64, devices: u32) -> Scenario {
        Scenario {
            mix: vec![
                (Workload::ScreenOn, 6),
                (Workload::Navigator, 1),
                (Workload::Pollers { coop: true }, 2),
                (Workload::Spinner, 1),
            ],
            battery: (Energy::from_joules(2_850), Energy::from_joules(2_960)),
            policy: Some(PolicyConfig::new(
                PolicyVariant::UserAware,
                SimDuration::from_secs(3_600),
            )),
            ..Scenario::mixed(name, seed, devices)
        }
    }

    /// The fault-injection study: offloaders and cooperative pollers under
    /// the heavy fault plan — radio flaps with sink semantics, fleet-shared
    /// backend outage windows, battery aging, transient app crashes — with
    /// the user-aware policy re-planning against the *effective* (faded,
    /// sagging) capacity and bounded retry/backoff on every client.
    /// `fig-faults` sweeps the plan's intensity over this population.
    pub fn fault_heavy(name: &str, seed: u64, devices: u32) -> Scenario {
        Scenario {
            mix: vec![
                (Workload::Offloader, 4),
                (Workload::Pollers { coop: true }, 4),
                (Workload::Spinner, 2),
            ],
            offload: Some(OffloadProfile::default()),
            policy: Some(PolicyConfig::new(
                PolicyVariant::UserAware,
                SimDuration::from_secs(3_600),
            )),
            faults: Some(FaultConfig::heavy(seed)),
            ..Scenario::mixed(name, seed, devices)
        }
    }

    /// The plan-exhausted-mid-hour study, expressible only with in-kernel
    /// enforcement: the plan is sized to roughly half the poller pair's
    /// hourly appetite (~780 KB/h at nominal jitter), so devices run dry
    /// partway through the hour and their remaining sends block in the
    /// kernel — polls stop completing and the radio goes quiet, instead of
    /// an offline replay merely noting the overdraft afterwards.
    pub fn plan_exhausted_mid_hour(name: &str, seed: u64, devices: u32) -> Scenario {
        Scenario::data_plan(name, seed, devices, 380_000)
    }

    /// Checks the knobs a device cannot run without, naming the one that
    /// fails: a mixture with some weight, a positive `quantum` (a zero one
    /// would never advance the run loop), and `jitter_ppm` below 1,000,000
    /// (rates scale by `1 ± jitter`, which must stay a positive factor).
    pub fn validate(&self) -> Result<(), String> {
        let refusal = if self.mix.iter().all(|&(_, w)| w == 0) {
            "has an empty workload mixture"
        } else if self.quantum.is_zero() {
            "needs a positive quantum"
        } else if self.jitter_ppm >= 1_000_000 {
            "needs jitter_ppm below 1000000"
        } else {
            return Ok(());
        };
        Err(format!("scenario '{}' {refusal}", self.name))
    }

    /// Expands one device of the scenario: the spec is a pure function of
    /// `(self, id)` — its jitter draws come only from the fleet seed's
    /// [`SimRng::split`] stream for this id, so device `i` is identical
    /// whether the fleet holds ten devices or a million, and whether its
    /// siblings were expanded first. This is the seam the streaming
    /// executor iterates over instead of materialising a spec vector.
    ///
    /// # Panics
    ///
    /// Panics, naming the knob, if [`Scenario::validate`] refuses the
    /// scenario.
    pub fn spec_for(&self, id: u64) -> DeviceSpec {
        if let Err(refusal) = self.validate() {
            panic!("{refusal}");
        }
        let total_weight: u32 = self.mix.iter().map(|&(_, w)| w).sum();
        // Round-robin through the weighted mixture: slot k of each
        // `total_weight`-sized block belongs to the workload whose
        // cumulative weight first exceeds k.
        let slot = (id % total_weight as u64) as u32;
        let mut acc = 0;
        let workload = self
            .mix
            .iter()
            .find(|&&(_, w)| {
                acc += w;
                slot < acc
            })
            .expect("slot < total weight")
            .0;
        // All device-local draws come from the device's own stream.
        let mut rng = SimRng::seed_from_u64(self.seed).split(id);
        let battery = if self.battery.0 < self.battery.1 {
            Energy::from_microjoules(rng.uniform_u64(
                self.battery.0.as_microjoules() as u64,
                self.battery.1.as_microjoules() as u64,
            ) as i64)
        } else {
            self.battery.0
        };
        let scale = |rng: &mut SimRng| {
            if self.jitter_ppm == 0 {
                1_000_000
            } else {
                rng.uniform_u64(1_000_000 - self.jitter_ppm, 1_000_000 + self.jitter_ppm + 1)
            }
        };
        let rate_scale_ppm = scale(&mut rng);
        let interval_scale_ppm = scale(&mut rng);
        DeviceSpec {
            id,
            seed: rng.uniform_u64(0, u64::MAX),
            workload,
            battery,
            rate_scale_ppm,
            interval_scale_ppm,
            horizon: self.horizon,
            quantum: self.quantum,
            data_plan: self.data_plan,
            offload: self.offload,
            fast_forward: true,
            policy: self.policy,
            faults: self.faults,
        }
    }

    /// Expands the scenario into per-device specs (see
    /// [`Scenario::spec_for`]).
    ///
    /// # Panics
    ///
    /// Panics, naming the knob, if [`Scenario::validate`] refuses the
    /// scenario.
    pub fn specs(&self) -> Vec<DeviceSpec> {
        (0..self.devices as u64)
            .map(|id| self.spec_for(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `from_tag` is the exact inverse of `tag`, exhaustively: every
    /// workload round-trips, tags are unique, and junk maps to `None`.
    #[test]
    fn tag_round_trips_exhaustively() {
        let mut seen = std::collections::BTreeSet::new();
        for w in Workload::ALL {
            let tag = w.tag();
            assert_eq!(Workload::from_tag(tag), Some(w), "tag {tag}");
            assert!(seen.insert(tag), "duplicate tag {tag}");
        }
        assert_eq!(seen.len(), Workload::ALL.len());
        for junk in ["", "pollers", "POLLERS-COOP", "gps", "screen_on", "nav"] {
            assert_eq!(Workload::from_tag(junk), None, "junk {junk:?}");
        }
    }

    /// The CSV path round-trips through `from_tag` too: every tag written
    /// by a report resolves back to the workload that produced it.
    #[test]
    fn all_scenario_covers_every_tag() {
        // One full round-robin block of the mixture (total weight 11).
        let s = Scenario::all_workloads("cover", 1, 11);
        let tags: std::collections::BTreeSet<&str> =
            s.specs().iter().map(|d| d.workload.tag()).collect();
        assert_eq!(tags.len(), Workload::ALL.len(), "tags: {tags:?}");
        for tag in tags {
            assert!(Workload::from_tag(tag).is_some());
        }
    }

    #[test]
    fn mixture_is_exact_per_block() {
        let s = Scenario::mixed("m", 1, 100);
        let specs = s.specs();
        let coop = specs
            .iter()
            .filter(|d| d.workload == Workload::Pollers { coop: true })
            .count();
        // Weight 4 of 10 → exactly 40 of 100.
        assert_eq!(coop, 40);
        assert_eq!(specs.len(), 100);
    }

    #[test]
    fn specs_are_deterministic_and_seed_scoped() {
        let a = Scenario::mixed("m", 7, 32).specs();
        let b = Scenario::mixed("m", 7, 32).specs();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.battery, y.battery);
            assert_eq!(x.rate_scale_ppm, y.rate_scale_ppm);
        }
        let c = Scenario::mixed("m", 8, 32).specs();
        assert!(a.iter().zip(&c).any(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn adding_devices_never_perturbs_existing_ones() {
        // The split-stream property: device i's spec is identical whether
        // the fleet holds 10 or 1000 devices.
        let small = Scenario::mixed("m", 3, 10).specs();
        let large = Scenario::mixed("m", 3, 1_000).specs();
        for (s, l) in small.iter().zip(&large) {
            assert_eq!(s.seed, l.seed);
            assert_eq!(s.battery, l.battery);
            assert_eq!(s.rate_scale_ppm, l.rate_scale_ppm);
            assert_eq!(s.interval_scale_ppm, l.interval_scale_ppm);
        }
    }

    #[test]
    fn jitter_stays_in_band() {
        let s = Scenario::mixed("m", 5, 200);
        for d in s.specs() {
            assert!((900_000..=1_100_000).contains(&d.rate_scale_ppm));
            assert!((900_000..=1_100_000).contains(&d.interval_scale_ppm));
            assert!(d.battery >= Energy::from_joules(10_000));
            assert!(d.battery < Energy::from_joules(20_000));
        }
    }

    #[test]
    fn data_plan_scenario_tags_every_device() {
        let s = Scenario::data_plan("q", 2, 10, 5_000_000);
        for d in s.specs() {
            assert_eq!(d.data_plan, Some(DataPlan { bytes: 5_000_000 }));
            assert!(matches!(d.workload, Workload::Pollers { .. }));
        }
    }

    #[test]
    #[should_panic(expected = "empty workload mixture")]
    fn empty_mixture_is_rejected() {
        let mut s = Scenario::mixed("m", 1, 4);
        s.mix.clear();
        let _ = s.specs();
    }

    /// A refused knob is named by `validate`, by the panic of `spec_for`
    /// (which every fleet entry point expands devices through), and by
    /// `resume_fleet`'s error.
    fn assert_knob_named(scenario: Scenario, knob: &str) {
        let refusal = scenario.validate().unwrap_err();
        assert!(refusal.contains(knob), "{refusal}");
        let panic = std::panic::catch_unwind(|| scenario.spec_for(0)).unwrap_err();
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(message.contains(knob), "{message}");
        let empty = crate::checkpoint_fleet(&scenario, 0, 1);
        let refusal = crate::resume_fleet(&empty, &scenario, 1).unwrap_err();
        assert!(refusal.contains(knob), "{refusal}");
    }

    #[test]
    fn zero_quantum_is_named() {
        let scenario = Scenario {
            quantum: SimDuration::ZERO,
            ..Scenario::mixed("m", 1, 4)
        };
        assert_knob_named(scenario, "quantum");
    }

    #[test]
    fn oversized_jitter_is_named() {
        let scenario = Scenario {
            jitter_ppm: 1_500_000,
            ..Scenario::mixed("m", 1, 4)
        };
        assert_knob_named(scenario, "jitter_ppm");
    }
}
