//! Differential tests for the run loop's fast paths
//! (`KernelConfig::fast_forward`: idle, frozen, pooled and duty jumps, and
//! the jumps across reserve-gated Ready threads), each against the literal
//! loop that the flag off leaves, which steps every quantum.
//!
//! The flag must be a pure wall-clock optimisation: every observable — the
//! meter's integrated energy, every reserve balance and accounting stat,
//! radio statistics, per-thread accounting including throttled time — is
//! bit-identical with and without it, across sleeping workloads, radio
//! episodes, the pooling (netd) stack whose blocked senders must keep being
//! polled, and Ready threads held at or below zero — swept by netd, or in
//! a deficit their constant feeds cannot close. So are a sole hog's
//! run-or-throttle quanta, which duty jumps cross (the fingerprint
//! compares every thread's power estimate, the window the duty landing
//! replays). The gate's refusals (a proportional feed, the tightest of
//! several deficits, a quantum finer than the flow tick, a re-rated feed,
//! a battery that decay refills) are differentials too. Each test checks
//! through `Kernel::run_profile` that the path it targets ran, and the
//! two-way harnesses check that the stepped run took no jump.

use cinder_apps::{build_browser, BrowserConfig, PeriodicPoller, PollerLog, Spinner};
use cinder_core::{Actor, GraphConfig, RateSpec, ReserveId, SchedulerConfig, TapId};
use cinder_faults::{FaultConfig, FlapSemantics, RetryPolicy};
use cinder_kernel::{Ctx, FnProgram, Kernel, KernelConfig, Obstacle, RunProfile, Step};
use cinder_label::Label;
use cinder_net::{CoopNetd, UncoopStack};
use cinder_sim::{Energy, Power, SimDuration, SimTime};

/// Everything observable about a finished run, for exact comparison.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    now_us: u64,
    meter_uj: i64,
    balances: Vec<i64>,
    consumed: Vec<i64>,
    flowed: Vec<[i64; 3]>,
    radio_activations: u64,
    radio_tx: u64,
    radio_rx: u64,
    thread_energy: Vec<i64>,
    thread_throttled_us: Vec<u64>,
    thread_estimates_uw: Vec<u64>,
}

/// Takes `&mut` only because reading a power estimate expires its window.
fn fingerprint(k: &mut Kernel) -> Fingerprint {
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
        flowed: k
            .graph()
            .reserves()
            .map(|(_, r)| {
                let s = r.stats();
                [s.inflow, s.outflow, s.decayed].map(|e| e.as_microjoules())
            })
            .collect(),
        radio_activations: k.arm9().radio().stats().activations,
        radio_tx: k.arm9().radio().stats().tx_bytes,
        radio_rx: k.arm9().radio().stats().rx_bytes,
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
        thread_estimates_uw: k
            .thread_ids()
            .into_iter()
            .map(|t| k.thread_power_estimate(t).as_microwatts())
            .collect(),
    }
}

fn config(fast_forward: bool) -> KernelConfig {
    KernelConfig {
        seed: 11,
        fast_forward,
        ..KernelConfig::default()
    }
}

fn tapped(k: &mut Kernel, name: &str, uw: u64) -> ReserveId {
    let root = Actor::kernel();
    let battery = k.battery();
    let r = k
        .graph_mut()
        .create_reserve(&root, name, Label::default_label())
        .unwrap();
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

/// Sleep-heavy square wave (the shape idle jumps accelerate most), with
/// decay ON so the jumped spans also exercise the decay grid.
#[test]
fn square_wave_identical_with_and_without_skip() {
    let run = |fast_forward: bool| {
        let mut k = Kernel::new(config(fast_forward));
        let r = tapped(&mut k, "wave", 200_000);
        let mut computing = false;
        k.spawn_unprivileged(
            "wave",
            Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
                computing = !computing;
                if computing {
                    Step::compute(SimDuration::from_millis(300))
                } else {
                    Step::SleepUntil(ctx.now() + SimDuration::from_secs(20))
                }
            })),
            r,
        );
        k.run_until(SimTime::from_secs(400));
        fingerprint(&mut k)
    };
    assert_eq!(run(false), run(true));
}

/// Uncooperative pollers: radio ramps, plateaus, and sleep timeouts all
/// land on identical boundaries under the fast-forward.
#[test]
fn uncoop_pollers_identical_with_and_without_skip() {
    let run = |fast_forward: bool| {
        let mut k = Kernel::new(config(fast_forward));
        k.install_net(Box::new(UncoopStack::new()));
        let log = PollerLog::shared();
        let r_rss = tapped(&mut k, "rss", 37_500);
        let r_mail = tapped(&mut k, "mail", 37_500);
        k.spawn_unprivileged("rss", Box::new(PeriodicPoller::rss(log.clone())), r_rss);
        k.spawn_unprivileged("mail", Box::new(PeriodicPoller::mail(log.clone())), r_mail);
        k.run_until(SimTime::from_secs(600));
        let sends = log.borrow().sends.clone();
        (fingerprint(&mut k), sends)
    };
    assert_eq!(run(false), run(true));
}

/// Cooperative netd: blocked senders force per-quantum polling (the stack
/// reports non-idle), so pooling grants land at identical instants.
#[test]
fn coop_netd_identical_with_and_without_skip() {
    let run = |fast_forward: bool| {
        let mut k = Kernel::new(config(fast_forward));
        let netd = CoopNetd::with_defaults(k.graph_mut());
        k.install_net(Box::new(netd));
        let log = PollerLog::shared();
        let r_rss = tapped(&mut k, "rss", 37_500);
        let r_mail = tapped(&mut k, "mail", 37_500);
        k.spawn_unprivileged("rss", Box::new(PeriodicPoller::rss(log.clone())), r_rss);
        k.spawn_unprivileged("mail", Box::new(PeriodicPoller::mail(log.clone())), r_mail);
        k.run_until(SimTime::from_secs(600));
        let (sends, blocked) = {
            let log = log.borrow();
            (log.sends.clone(), log.blocked_first)
        };
        (fingerprint(&mut k), sends, blocked)
    };
    let (base, base_sends, base_blocked) = run(false);
    let (fast, fast_sends, fast_blocked) = run(true);
    assert_eq!(base, fast);
    assert_eq!(base_sends, fast_sends);
    assert_eq!(base_blocked, fast_blocked);
    assert!(base_blocked >= 2, "scenario must exercise pooling");
}

/// Asserts that a run took the literal loop: every quantum a full one, no
/// jump taken and no refusal tallied (only the flow engine's lane
/// counters may move).
fn assert_stepped(p: &RunProfile) {
    let stepped = RunProfile {
        full_quanta: p.quanta(),
        lane_ticks: p.lane_ticks,
        lane_ticks_stepped: p.lane_ticks_stepped,
        ..RunProfile::default()
    };
    assert_eq!(*p, stepped, "fast_forward off must step every quantum");
}

/// Runs a scenario stepped (`fast_forward` off) and fast (on); asserts
/// both fingerprints agree, the stepped run took the literal loop, and
/// both advanced the same quanta; returns the two run profiles in that
/// order.
fn two_ways(run: impl Fn(bool) -> (Fingerprint, RunProfile)) -> [RunProfile; 2] {
    let (stepped, stepped_profile) = run(false);
    let (fast, fast_profile) = run(true);
    assert_eq!(stepped, fast, "fast_forward");
    assert_stepped(&stepped_profile);
    assert_eq!(
        fast_profile.quanta(),
        stepped_profile.quanta(),
        "{fast_profile:?}"
    );
    [stepped_profile, fast_profile]
}

/// A spinner on `quantum_ms` quanta fed by constant taps of the given
/// rates (µW), the first from the battery and the rest from funded
/// sources of their own: it runs a quantum, lands in debt, and sits Ready
/// but throttled until its feeds close the deficit. Returns the kernel,
/// the thread's reserve, and the feed taps.
fn trickle_kernel(
    fast_forward: bool,
    quantum_ms: u64,
    feeds_uw: &[u64],
) -> (Kernel, ReserveId, Vec<TapId>) {
    let mut k = Kernel::new(KernelConfig {
        sched: SchedulerConfig {
            quantum: SimDuration::from_millis(quantum_ms),
            ..SchedulerConfig::default()
        },
        ..config(fast_forward)
    });
    let root = Actor::kernel();
    let battery = k.battery();
    let g = k.graph_mut();
    let r = g
        .create_reserve(&root, "trickle", Label::default_label())
        .unwrap();
    let mut taps = Vec::new();
    for (i, &uw) in feeds_uw.iter().enumerate() {
        let source = if i == 0 {
            battery
        } else {
            let source = g
                .create_reserve(&root, &format!("source{i}"), Label::default_label())
                .unwrap();
            g.transfer(&root, battery, source, Energy::from_joules(50))
                .unwrap();
            source
        };
        taps.push(
            g.create_tap(
                &root,
                &format!("feed{i}"),
                source,
                r,
                RateSpec::constant(Power::from_microwatts(uw)),
                Label::default_label(),
            )
            .unwrap(),
        );
    }
    k.spawn_unprivileged(
        "trickle",
        Box::new(FnProgram(|_: &mut Ctx<'_>| {
            Step::compute(SimDuration::from_millis(10))
        })),
        r,
    );
    (k, r, taps)
}

/// A ready-but-starved thread: a 200 µW tap leaves it in a deficit for
/// seconds after every quantum it runs. The stepped run steps every
/// quantum it waits (its tap may refill it at any tick), while
/// `fast_forward` proves how many ticks the deficit outlasts and jumps
/// them — on the fleet's 100 ms quantum and the paper's 10 ms — with the
/// throttled-time accounting agreeing exactly.
#[test]
fn starved_ready_thread_jumps_only_under_fast_forward() {
    for quantum_ms in [100, 10] {
        let [stepped, fast] = two_ways(|fast_forward| {
            let (mut k, _, _) = trickle_kernel(fast_forward, quantum_ms, &[200]);
            k.run_until(SimTime::from_secs(120));
            let t = k.thread_by_name("trickle").unwrap();
            assert!(
                k.thread_throttled(t) > SimDuration::from_secs(60),
                "scenario must exercise starvation"
            );
            (fingerprint(&mut k), k.run_profile())
        });
        assert_eq!(stepped.full_quanta, stepped.quanta(), "{stepped:?}");
        assert_eq!(stepped.refused(Obstacle::Ready), 0, "{stepped:?}");
        assert!(fast.idle_jumps > 0, "{fast:?}");
        assert!(fast.gated_quanta * 10 >= fast.quanta() * 9, "{fast:?}");
        assert!(fast.full_quanta * 10 < fast.quanta(), "{fast:?}");
    }
}

/// A deficit fed by a live proportional tap is never gated: its inflow
/// depends on the source's level, so the certificate refuses with `Ready`
/// (after the frozen certificate has looked) rather than bounding it.
#[test]
fn gate_refuses_a_proportionally_fed_deficit() {
    let [_, fast] = two_ways(|fast_forward| {
        let (mut k, r, _) = trickle_kernel(fast_forward, 10, &[]);
        let root = Actor::kernel();
        let battery = k.battery();
        let g = k.graph_mut();
        let source = g
            .create_reserve(&root, "prop-source", Label::default_label())
            .unwrap();
        g.transfer(&root, battery, source, Energy::from_joules(5))
            .unwrap();
        g.set_decay_exempt(&root, source, true).unwrap();
        g.create_tap(
            &root,
            "prop-feed",
            source,
            r,
            RateSpec::Proportional { ppm_per_s: 100 },
            Label::default_label(),
        )
        .unwrap();
        k.run_until(SimTime::from_secs(60));
        (fingerprint(&mut k), k.run_profile())
    });
    assert_eq!(fast.gated_quanta, 0, "{fast:?}");
    assert!(fast.refused(Obstacle::Ready) > 1_000, "{fast:?}");
}

/// Two Ready threads in different deficits: a jump ends where the
/// shallower one could first be funded, and the round-robin queue's bulk
/// throttle counts both.
#[test]
fn gate_takes_the_tightest_of_two_deficits() {
    let [_, fast] = two_ways(|fast_forward| {
        let (mut k, _, _) = trickle_kernel(fast_forward, 10, &[200]);
        let other = tapped(&mut k, "other", 530);
        k.spawn_unprivileged(
            "other",
            Box::new(FnProgram(|_: &mut Ctx<'_>| {
                Step::compute(SimDuration::from_millis(20))
            })),
            other,
        );
        k.run_until(SimTime::from_secs(120));
        (fingerprint(&mut k), k.run_profile())
    });
    assert!(fast.idle_jumps > 10, "{fast:?}");
    assert!(fast.gated_quanta * 2 > fast.quanta(), "{fast:?}");
}

/// 10 ms quanta under the 100 ms flow tick, with two jittered feeds from
/// different sources (their carries and the `n`-µJ slack in play): a jump
/// must stop at the last quantum before the tick that could fund the
/// thread, which usually falls between ticks rather than on one.
#[test]
fn gated_jumps_stop_short_of_the_funding_tick() {
    let [_, fast] = two_ways(|fast_forward| {
        let (mut k, _, _) = trickle_kernel(fast_forward, 10, &[173, 311]);
        k.run_until(SimTime::from_secs(120));
        (fingerprint(&mut k), k.run_profile())
    });
    assert!(fast.idle_jumps > 10, "{fast:?}");
    assert!(fast.gated_quanta * 10 >= fast.quanta() * 9, "{fast:?}");
}

/// The decay pass credits the battery outside any tap: a spinner running
/// on a drained battery while a hoarding reserve leaks back into it is
/// never deficit-gated, however few taps feed the battery.
#[test]
fn gate_refuses_a_battery_that_decay_refills() {
    let [_, fast] = two_ways(|fast_forward| {
        let mut k = Kernel::new(KernelConfig {
            battery: Energy::from_joules(20),
            ..config(fast_forward)
        });
        let root = Actor::kernel();
        let battery = k.battery();
        let hoard = k
            .graph_mut()
            .create_reserve(&root, "hoard", Label::default_label())
            .unwrap();
        k.graph_mut()
            .transfer(&root, battery, hoard, Energy::from_joules(15))
            .unwrap();
        let t = k.spawn_unprivileged(
            "spinner",
            Box::new(FnProgram(|_: &mut Ctx<'_>| {
                Step::compute(SimDuration::from_millis(10))
            })),
            battery,
        );
        k.run_until(SimTime::from_secs(120));
        assert!(
            k.thread_throttled(t) > SimDuration::from_secs(60),
            "the battery must run dry and be refilled by decay"
        );
        (fingerprint(&mut k), k.run_profile())
    });
    assert_eq!(fast.gated_quanta, 0, "{fast:?}");
    assert!(fast.refused(Obstacle::Ready) > 1_000, "{fast:?}");
}

/// A feed re-rated between two `run_span` calls — faster, then slower —
/// moves the gate's bound with it: the inbound summary tracks rates, not
/// only tap counts.
#[test]
fn gate_follows_a_re_rated_feed() {
    let [_, fast] = two_ways(|fast_forward| {
        let (mut k, _, taps) = trickle_kernel(fast_forward, 10, &[200]);
        for (secs, uw) in [(30, 9_000), (60, 90), (90, 200)] {
            k.run_span(SimTime::from_secs(secs));
            k.rerate_tap(taps[0], Power::from_microwatts(uw)).unwrap();
        }
        k.run_until(SimTime::from_secs(120));
        (fingerprint(&mut k), k.run_profile())
    });
    assert!(fast.idle_jumps > 10, "{fast:?}");
    assert!(fast.gated_quanta * 2 > fast.quanta(), "{fast:?}");
}

/// Sanity: with everything exited, an idle jump sprints to the horizon
/// and the meter still integrates the idle floor exactly.
#[test]
fn idle_tail_meters_exactly() {
    let mut k = Kernel::new(KernelConfig {
        fast_forward: true,
        graph: GraphConfig {
            decay: None,
            ..GraphConfig::default()
        },
        ..KernelConfig::default()
    });
    let root = Actor::kernel();
    let battery = k.battery();
    let r = k
        .graph_mut()
        .create_reserve(&root, "brief", Label::default_label())
        .unwrap();
    k.graph_mut()
        .transfer(&root, battery, r, Energy::from_joules(1))
        .unwrap();
    let mut done = false;
    k.spawn_unprivileged(
        "brief",
        Box::new(FnProgram(move |_: &mut Ctx<'_>| {
            if done {
                Step::Exit
            } else {
                done = true;
                Step::compute(SimDuration::from_millis(10))
            }
        })),
        r,
    );
    k.run_until(SimTime::from_secs(1_000));
    // 699 mW idle floor for 1000 s + one busy quantum of 137 mW.
    let expected = 699_000 * 1_000 + 137_000 / 100;
    assert_eq!(k.meter().total_energy().as_microjoules(), expected);
}

/// The fleet's kernel shape: 100 ms quanta on the 100 ms flow grid, a
/// small battery, and `fast_forward` on or off.
fn drained_coop_kernel(fast_forward: bool) -> Kernel {
    let mut k = Kernel::new(KernelConfig {
        seed: 11,
        battery: Energy::from_joules(100),
        fast_forward,
        sched: SchedulerConfig {
            quantum: SimDuration::from_millis(100),
            ..SchedulerConfig::default()
        },
        ..KernelConfig::default()
    });
    let netd = CoopNetd::with_defaults(k.graph_mut());
    k.install_net(Box::new(netd));
    let log = PollerLog::shared();
    let r_rss = tapped(&mut k, "rss", 37_500);
    let r_mail = tapped(&mut k, "mail", 37_500);
    k.spawn_unprivileged("rss", Box::new(PeriodicPoller::rss(log.clone())), r_rss);
    k.spawn_unprivileged("mail", Box::new(PeriodicPoller::mail(log)), r_mail);
    k
}

/// The frozen hand-off: a coop-netd device whose battery drains within
/// the first hour, run as *one* `run_until(24 h)`, must leave netd's
/// pooling phases once the graph freezes and cross the frozen tail in a
/// handful of frozen jumps — bit-identical to the stepped run.
#[test]
fn drained_netd_device_jumps_its_frozen_tail_in_one_span() {
    let day = SimTime::from_secs(24 * 3_600);
    let mut stepped = drained_coop_kernel(false);
    stepped.run_until(day);
    let mut fast = drained_coop_kernel(true);
    fast.run_until(day);
    assert_eq!(fingerprint(&mut stepped), fingerprint(&mut fast));
    let quanta = 24 * 36_000;
    let profile = fast.run_profile();
    assert_eq!(profile.quanta(), quanta, "{profile:?}");
    assert_eq!(stepped.run_profile().quanta(), quanta);
    assert_eq!(stepped.run_profile().frozen_jumps, 0);
    assert!(profile.frozen_jumps <= 8, "{profile:?}");
    // The battery is gone within two hours; everything after is jumped.
    assert!(profile.frozen_quanta >= quanta - 2 * 36_000, "{profile:?}");
    assert!(profile.full_quanta <= 2 * 36_000);
}

/// The pooled jump's rig: coop netd and a set of pollers with the given
/// `(feed µW, first poll s, interval s, rx bytes)`, on a `quantum_ms`
/// scheduler, with the paper's decay or none.
struct PoolRig {
    quantum_ms: u64,
    decay: bool,
    pollers: Vec<(u64, u64, u64, u64)>,
    /// An extra constant tap (µW) from the battery into a decay-exempt
    /// side reserve.
    side_sink: Option<u64>,
    /// At the end of second `.0`, bill the first poller's reserve `.1` J
    /// after the fact (into debt, like a late reply).
    debit: Option<(u64, i64)>,
    /// Bounded backoff on held sends: a poller whose send netd holds wakes
    /// on the backoff grid and sits Ready while netd sweeps its reserve.
    retry: Option<RetryPolicy>,
}

/// What a pooled run leaves behind: the fingerprint, the poll log, the
/// lowest balance any poller reserve showed at a span end, and the
/// path counters.
type PoolRun = (Fingerprint, Vec<SimTime>, i64, cinder_kernel::RunProfile);

type SharedLog = std::rc::Rc<std::cell::RefCell<PollerLog>>;

/// Extra rig setup: called with second 0 once the pollers are spawned,
/// then at the end of every one-second span.
type Hook<'a> = &'a dyn Fn(&mut Kernel, u64);

impl PoolRig {
    /// The rig's kernel, its poll log, and the pollers' reserves.
    fn kernel(&self, fast_forward: bool) -> (Kernel, SharedLog, Vec<ReserveId>) {
        let mut graph = GraphConfig::default();
        if !self.decay {
            graph.decay = None;
        }
        let mut k = Kernel::new(KernelConfig {
            seed: 5,
            fast_forward,
            graph,
            sched: SchedulerConfig {
                quantum: SimDuration::from_millis(self.quantum_ms),
                ..SchedulerConfig::default()
            },
            ..KernelConfig::default()
        });
        let netd = CoopNetd::with_defaults(k.graph_mut());
        k.install_net(Box::new(netd));
        let log = PollerLog::shared();
        let mut reserves = Vec::new();
        for (i, &(uw, start, interval, rx)) in self.pollers.iter().enumerate() {
            let r = tapped(&mut k, &format!("poller{i}"), uw);
            let poller = PeriodicPoller::new(
                SimTime::from_secs(start),
                SimDuration::from_secs(interval),
                256,
                rx,
                log.clone(),
            )
            .with_retry(self.retry);
            k.spawn_unprivileged(&format!("poller{i}"), Box::new(poller), r);
            reserves.push(r);
        }
        if let Some(uw) = self.side_sink {
            let side = tapped(&mut k, "side", uw);
            k.graph_mut()
                .set_decay_exempt(&Actor::kernel(), side, true)
                .unwrap();
        }
        (k, log, reserves)
    }

    fn run_with(&self, fast_forward: bool, secs: u64, hook: Hook) -> PoolRun {
        let (mut k, log, reserves) = self.kernel(fast_forward);
        hook(&mut k, 0);
        // One-second spans: split points are invisible to the run, and
        // their ends sample the poller reserves.
        let mut lowest = 0;
        for s in 1..=secs {
            k.run_span(SimTime::from_secs(s));
            if let Some((_, joules)) = self.debit.filter(|&(at, _)| at == s) {
                k.graph_mut()
                    .consume_with_debt(&Actor::kernel(), reserves[0], Energy::from_joules(joules))
                    .unwrap();
            }
            hook(&mut k, s);
            for &r in &reserves {
                lowest = lowest.min(k.reserve_level(r).as_microjoules());
            }
        }
        k.run_until(SimTime::from_secs(secs));
        let sends = log.borrow().sends.clone();
        (fingerprint(&mut k), sends, lowest, k.run_profile())
    }

    /// Runs stepped (`fast_forward` off) and with every fast path on;
    /// asserts both agree exactly and the stepped run took the literal
    /// loop, and returns the fast run.
    fn differential(&self, secs: u64) -> PoolRun {
        self.differential_with(secs, &|_, _| {})
    }

    fn differential_with(&self, secs: u64, hook: Hook) -> PoolRun {
        let stepped = self.run_with(false, secs, hook);
        let fast = self.run_with(true, secs, hook);
        assert_eq!(stepped.0, fast.0, "fingerprint");
        assert_eq!(stepped.1, fast.1, "poll log");
        assert_stepped(&stepped.3);
        assert!(!stepped.1.is_empty(), "scenario must grant some polls");
        let quanta = secs * 1_000 / self.quantum_ms;
        assert_eq!(fast.3.quanta(), quanta, "{:?}", fast.3);
        fast
    }
}

/// Jittered feeds leave non-zero tap carries at every jump boundary; the
/// closed form telescopes them exactly, on the fleet's 100 ms quantum and
/// on the paper's 10 ms quantum under the 100 ms flow tick.
#[test]
fn pooled_jumps_match_stepping_with_jittered_feeds() {
    for quantum_ms in [100, 10] {
        let rig = PoolRig {
            quantum_ms,
            decay: true,
            pollers: vec![(37_513, 0, 60, 8_192), (36_977, 15, 60, 4_096)],
            side_sink: None,
            debit: None,
            retry: None,
        };
        let (_, _, _, profile) = rig.differential(900);
        assert!(profile.pooled_jumps >= 3, "{profile:?}");
        assert!(profile.pooled_quanta > profile.full_quanta, "{profile:?}");
    }
}

/// Bills landing after the fact drive a poller's reserve into debt: a
/// large reply while it sleeps (its filling reserve refuses the jump),
/// and a root debit while it waits in netd, where its sweeps move nothing
/// until it turns positive — which the jump settles exactly.
#[test]
fn pooled_jumps_settle_waiters_in_debt() {
    let rig = PoolRig {
        quantum_ms: 100,
        decay: true,
        pollers: vec![(37_500, 0, 60, 2_000_000), (38_100, 15, 60, 4_096)],
        side_sink: None,
        debit: Some((30, 3)),
        retry: None,
    };
    let (_, _, lowest, profile) = rig.differential(900);
    assert!(lowest < 0, "a reply must drive a reserve into debt");
    assert!(profile.pooled_jumps > 0, "{profile:?}");
}

/// A rich sender keeps bringing the radio up; the pollers pool through
/// its tails, where netd's memo carries an active radio signature and
/// every transition bounds the jump. (Decay off: the rich sender's
/// reserve refills between its sends, which a decaying graph refuses.)
#[test]
fn pooled_jumps_respect_radio_tails() {
    let rig = PoolRig {
        quantum_ms: 10,
        decay: false,
        pollers: vec![
            (37_500, 0, 60, 8_192),
            (37_500, 15, 60, 4_096),
            (400_000, 7, 23, 1_024),
        ],
        side_sink: None,
        debit: None,
        retry: None,
    };
    let (fp, _, _, profile) = rig.differential(900);
    assert!(fp.radio_activations >= 5, "{fp:?}");
    assert!(profile.pooled_jumps > 0, "{profile:?}");
}

/// One poller waits while the other sleeps. With decay on, the sleeper's
/// filling reserve leaks, and it advances as a decay lane beside the
/// pooled run, so those phases are jumped about as far as with decay off.
#[test]
fn pooled_jumps_with_one_waiter_and_a_sleeper() {
    let pollers = vec![(37_500, 0, 60, 8_192), (37_500, 40, 60, 4_096)];
    let decaying = PoolRig {
        quantum_ms: 100,
        decay: true,
        pollers: pollers.clone(),
        side_sink: None,
        debit: None,
        retry: None,
    };
    let (_, _, _, profile) = decaying.differential(900);
    assert_eq!(profile.refused(Obstacle::LiveFlow), 0, "{profile:?}");
    assert_eq!(profile.refused(Obstacle::LiveDecay), 0, "{profile:?}");
    let decay_free = PoolRig {
        decay: false,
        ..decaying
    };
    let (_, _, _, free) = decay_free.differential(900);
    assert!(
        profile.pooled_quanta * 100 >= free.pooled_quanta * 95,
        "{profile:?} vs {free:?}"
    );
}

/// A constant tap into a decay-exempt side reserve (the fault layer's
/// fade sink has this shape) settles alongside the waiters' feeds.
#[test]
fn pooled_jumps_carry_a_decay_exempt_side_sink() {
    let rig = PoolRig {
        quantum_ms: 100,
        decay: true,
        pollers: vec![(37_500, 0, 60, 8_192), (37_500, 15, 60, 4_096)],
        side_sink: Some(1_234),
        debit: None,
        retry: None,
    };
    let (fp, _, _, profile) = rig.differential(900);
    assert!(profile.pooled_jumps >= 3, "{profile:?}");
    assert!(fp.balances.iter().any(|&b| b > 0));
}

/// Retrying pollers whose sends netd holds: each backoff wake leaves a
/// Ready thread whose reserve netd sweeps after every tick, so it stays
/// throttled until the grant. Pooled jumps cross those quanta (on the
/// fleet's 100 ms quantum and the paper's 10 ms) and replay the throttled
/// time exactly — the fingerprint compares every thread's.
#[test]
fn pooled_jumps_cross_retrying_pollers_held_in_netd() {
    for quantum_ms in [100, 10] {
        let rig = PoolRig {
            quantum_ms,
            decay: true,
            pollers: vec![(37_513, 0, 60, 8_192), (36_977, 15, 60, 4_096)],
            side_sink: None,
            debit: None,
            retry: FaultConfig::heavy(0).retry,
        };
        let (fp, _, _, profile) = rig.differential(900);
        assert!(
            fp.thread_throttled_us.iter().all(|&us| us > 60_000_000),
            "{fp:?}"
        );
        assert!(profile.gated_quanta * 2 > profile.quanta(), "{profile:?}");
        // What refuses is the tick or two after each grant, when the
        // swept reserve is empty but no longer swept.
        assert!(
            profile.refused(Obstacle::Ready) * 100 < profile.quanta(),
            "{profile:?}"
        );
        assert!(profile.full_quanta * 4 < profile.quanta(), "{profile:?}");
    }
}

/// The one-waiter phases of the sleeper rig with a second, unfed decaying
/// reserve holding 20 J: its leak stays above zero for the whole run, and
/// it advances as a lane beside the pooled runs instead of refusing them.
#[test]
fn pooled_jumps_carry_an_unfed_decaying_hoard() {
    let rig = PoolRig {
        quantum_ms: 100,
        decay: true,
        pollers: vec![(37_500, 0, 60, 8_192), (37_500, 40, 60, 4_096)],
        side_sink: None,
        debit: None,
        retry: None,
    };
    let hoard = |k: &mut Kernel, s: u64| {
        if s == 0 {
            let root = Actor::kernel();
            let battery = k.battery();
            let g = k.graph_mut();
            let hoard = g
                .create_reserve(&root, "hoard", Label::default_label())
                .unwrap();
            g.transfer(&root, battery, hoard, Energy::from_joules(20))
                .unwrap();
        }
    };
    let (fp, _, _, profile) = rig.differential_with(900, &hoard);
    assert!(profile.pooled_jumps >= 3, "{profile:?}");
    assert_eq!(profile.refused(Obstacle::LiveDecay), 0, "{profile:?}");
    assert!(fp.flowed.iter().any(|&[_, _, decayed]| decayed > 1_000_000));
}

/// One waiter beside a sleeper on the paper's 10 ms quanta, with jittered
/// feeds: the sleeper's filling reserve is a lane whose feed's carry is
/// nonzero at every jump edge, and the jumps land between flow ticks.
#[test]
fn pooled_jumps_cross_a_jittered_sleeper() {
    let rig = PoolRig {
        quantum_ms: 10,
        decay: true,
        pollers: vec![(37_513, 0, 60, 8_192), (36_977, 40, 60, 4_096)],
        side_sink: None,
        debit: None,
        retry: None,
    };
    let (_, _, _, profile) = rig.differential(900);
    assert!(profile.pooled_jumps >= 3, "{profile:?}");
    assert_eq!(profile.refused(Obstacle::LiveFlow), 0, "{profile:?}");
    assert!(profile.pooled_quanta > profile.full_quanta, "{profile:?}");
}

/// A link flap from 230 s to 270.5 s while netd holds both pollers' sends
/// (submitted at about 220 s, granted after the flap): the downed link
/// makes the stack quiet, so idle jumps cross the flap up to the queued
/// `LinkUp`, which bounds them inside a one-second span.
#[test]
fn idle_jumps_cross_a_link_flap_while_netd_holds_a_send() {
    const DOWN_S: u64 = 230;
    const UP: SimTime = SimTime::from_millis(270_500);
    let rig = PoolRig {
        quantum_ms: 100,
        decay: true,
        pollers: vec![(37_500, 0, 60, 8_192), (37_500, 15, 60, 4_096)],
        side_sink: None,
        debit: None,
        retry: None,
    };
    let flap = |k: &mut Kernel, s: u64| {
        if s == DOWN_S {
            k.fault_link_down(UP, FlapSemantics::Stall);
        }
    };
    let (_, sends, _, _) = rig.differential_with(900, &flap);
    let down = SimTime::from_secs(DOWN_S);
    let last_before = sends.iter().copied().filter(|&t| t < down).max();
    let first_after = sends.iter().copied().find(|&t| t >= down);
    assert!(
        last_before < Some(SimTime::from_secs(DOWN_S - 60)) && first_after > Some(UP),
        "netd must hold the sends across the flap: {sends:?}"
    );
    // The fast run's path counters across the flap, in one span.
    let (mut k, _, _) = rig.kernel(true);
    k.run_span(down);
    flap(&mut k, DOWN_S);
    let before = k.run_profile();
    k.run_span(UP);
    let after = k.run_profile();
    assert!(
        k.link_is_down(),
        "`LinkUp` fires at the next span's first boundary"
    );
    let flap_quanta = UP.since(down).as_micros() / 100_000;
    let idle = after.idle_quanta - before.idle_quanta;
    assert!(
        idle * 10 >= flap_quanta * 9,
        "{idle} of {flap_quanta}: {after:?}"
    );
}

/// Fig 9's hog: an endless `Spinner` on `quantum_ms` quanta whose reserve
/// the battery feeds at 68.5 mW, half the CPU's 137 mW, so it runs about
/// every other quantum. `tweak` edits the configuration first. Returns the
/// kernel, the hog's reserve, and its feed.
fn hog_kernel(
    fast_forward: bool,
    quantum_ms: u64,
    tweak: impl FnOnce(&mut KernelConfig),
) -> (Kernel, ReserveId, TapId) {
    let mut config = KernelConfig {
        sched: SchedulerConfig {
            quantum: SimDuration::from_millis(quantum_ms),
            ..SchedulerConfig::default()
        },
        ..config(fast_forward)
    };
    tweak(&mut config);
    let mut k = Kernel::new(config);
    let r = tapped(&mut k, "hog", 68_500);
    let (feed, _) = k.graph().taps().find(|(_, t)| t.sink() == r).unwrap();
    k.spawn_unprivileged("hog", Box::new(Spinner::new()), r);
    (k, r, feed)
}

/// Runs `run` both ways (see [`two_ways`]) and checks that duty jumps
/// took at least `share_pct`% of the quanta they and the full loop took
/// in the fast run.
fn duty_two_ways(share_pct: u64, run: impl Fn(bool) -> (Fingerprint, RunProfile)) -> RunProfile {
    let [_, fast] = two_ways(run);
    assert!(fast.duty_jumps > 0, "{fast:?}");
    assert!(
        fast.duty_quanta * 100 >= (fast.duty_quanta + fast.full_quanta) * share_pct,
        "{fast:?}"
    );
    fast
}

/// The sole hog with decay on, on the fleet's 100 ms quantum and on the
/// paper's 10 ms quantum under the 100 ms tick: each tick's 6,850 µJ feed
/// is exactly 5 (or half of one) 137 mW charges, so the level lands on
/// zero and a zero level must throttle. The run ends inside a duty jump,
/// so the estimator window the landing replays is the one compared.
#[test]
fn duty_jumps_cross_a_sole_hog() {
    for quantum_ms in [100, 10] {
        let fast = duty_two_ways(99, |fast_forward| {
            let (mut k, _, _) = hog_kernel(fast_forward, quantum_ms, |_| {});
            k.run_until(SimTime::from_secs(600));
            let hog = k.thread_by_name("hog").unwrap();
            let throttled = k.thread_throttled(hog);
            assert!(throttled > SimDuration::from_secs(200), "{throttled}");
            assert!(k.thread_power_estimate(hog) > Power::from_milliwatts(60));
            (fingerprint(&mut k), k.run_profile())
        });
        assert!(fast.duty_jumps <= 2, "{fast:?}");
    }
}

/// A hog whose reserve starts at 20 J, far above the 8,620 µJ below which
/// the leak rounds to zero: it runs every quantum while its lane leaks,
/// and the leak lands before each tick's charges.
#[test]
fn duty_jumps_leak_a_full_reserve_while_the_hog_runs() {
    for quantum_ms in [100, 10] {
        duty_two_ways(99, |fast_forward| {
            let (mut k, r, _) = hog_kernel(fast_forward, quantum_ms, |_| {});
            let battery = k.battery();
            k.graph_mut()
                .transfer(&Actor::kernel(), battery, r, Energy::from_joules(20))
                .unwrap();
            k.run_until(SimTime::from_secs(600));
            let decayed = k.graph().reserve(r).unwrap().stats().decayed;
            assert!(decayed > Energy::from_joules(1), "{decayed}");
            (fingerprint(&mut k), k.run_profile())
        });
    }
}

/// The feed re-rated between spans, faster then slower: each span's jump
/// reads the new rate's carries and coverage.
#[test]
fn duty_jumps_follow_a_re_rated_feed() {
    let fast = duty_two_ways(95, |fast_forward| {
        let (mut k, _, feed) = hog_kernel(fast_forward, 10, |_| {});
        for (secs, uw) in [(30, 90_000), (60, 9_013), (90, 68_500)] {
            k.run_span(SimTime::from_secs(secs));
            k.rerate_tap(feed, Power::from_microwatts(uw)).unwrap();
        }
        k.run_until(SimTime::from_secs(120));
        (fingerprint(&mut k), k.run_profile())
    });
    assert!(fast.duty_jumps >= 4, "{fast:?}");
}

/// A 5 J battery the hog's feed drains in about 73 s: the jump stops at
/// the battery's coverage, which with decay off is its feed's coverage
/// alone, and the full loop takes the last tick or two. Once the hog's
/// reserve is spent a frozen jump takes the rest.
#[test]
fn duty_jumps_stop_at_the_battery_coverage() {
    for decay in [true, false] {
        let fast = duty_two_ways(99, |fast_forward| {
            let (mut k, _, _) = hog_kernel(fast_forward, 100, |c| {
                c.battery = Energy::from_joules(5);
                if !decay {
                    c.graph.decay = None;
                }
            });
            k.run_until(SimTime::from_secs(300));
            let battery = k.battery();
            assert_eq!(k.reserve_level(battery), Energy::ZERO);
            (fingerprint(&mut k), k.run_profile())
        });
        assert!(fast.frozen_jumps > 0, "{fast:?}");
        assert!(fast.full_quanta <= 20, "{fast:?}");
    }
}

/// Two constant feeds from different sources (`trickle_kernel`'s, the
/// second made decay-exempt: a decaying source is ticked), with jittered
/// rates whose carries are nonzero at every jump edge; the trickle thread
/// is killed and a hog spawned on its reserve.
#[test]
fn duty_jumps_carry_two_feeds() {
    for quantum_ms in [100, 10] {
        duty_two_ways(99, |fast_forward| {
            let (mut k, r, taps) = trickle_kernel(fast_forward, quantum_ms, &[40_013, 29_347]);
            let source = k.graph().tap(taps[1]).unwrap().source();
            k.graph_mut()
                .set_decay_exempt(&Actor::kernel(), source, true)
                .unwrap();
            let trickle = k.thread_by_name("trickle").unwrap();
            k.kill(trickle);
            k.spawn_unprivileged("hog", Box::new(Spinner::new()), r);
            k.run_until(SimTime::from_secs(300));
            (fingerprint(&mut k), k.run_profile())
        });
    }
}

/// Decay off: the hog's reserve is still a charged lane.
#[test]
fn duty_jumps_without_decay() {
    for quantum_ms in [100, 10] {
        duty_two_ways(99, |fast_forward| {
            let (mut k, _, _) = hog_kernel(fast_forward, quantum_ms, |c| {
                c.graph.decay = None;
            });
            k.run_until(SimTime::from_secs(300));
            (fingerprint(&mut k), k.run_profile())
        });
    }
}

/// A hog that computes in 1 s chunks and sleeps 2 s between them: its
/// queued compute caps each jump, and the landing's debit of it decides
/// when the thread next sleeps.
#[test]
fn duty_jumps_stop_at_the_queued_compute() {
    let fast = duty_two_ways(95, |fast_forward| {
        let (mut k, r, _) = hog_kernel(fast_forward, 10, |_| {});
        let hog = k.thread_by_name("hog").unwrap();
        k.kill(hog);
        let mut computing = false;
        k.spawn_unprivileged(
            "chunks",
            Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
                computing = !computing;
                if computing {
                    Step::compute(SimDuration::from_secs(1))
                } else {
                    Step::SleepUntil(ctx.now() + SimDuration::from_secs(2))
                }
            })),
            r,
        );
        k.run_until(SimTime::from_secs(300));
        (fingerprint(&mut k), k.run_profile())
    });
    assert!(fast.duty_jumps > 50, "{fast:?}");
}

/// Fig 6b's plugin: a hog whose reserve, starting at 20 J, a 100,000
/// ppm/s backward proportional tap drains to the battery. Not lane-shaped,
/// so each duty jump ticks the whole graph between its quanta.
#[test]
fn duty_jumps_cross_a_drained_reserve() {
    for quantum_ms in [100, 10] {
        let fast = duty_two_ways(99, |fast_forward| {
            let (mut k, r, _) = hog_kernel(fast_forward, quantum_ms, |_| {});
            let battery = k.battery();
            let g = k.graph_mut();
            g.transfer(&Actor::kernel(), battery, r, Energy::from_joules(20))
                .unwrap();
            g.create_tap(
                &Actor::kernel(),
                "backward",
                r,
                battery,
                RateSpec::Proportional { ppm_per_s: 100_000 },
                Label::default_label(),
            )
            .unwrap();
            k.run_until(SimTime::from_secs(120));
            let outflow = k.graph().reserve(r).unwrap().stats().outflow;
            assert!(outflow > Energy::from_joules(1), "{outflow}");
            (fingerprint(&mut k), k.run_profile())
        });
        assert!(fast.duty_jumps <= 2, "{fast:?}");
    }
}

/// A hog fed by a live proportional tap from a funded, decaying source
/// beside its constant feed: the level the tap moves depends on its
/// source's every tick, so the run is ticked.
#[test]
fn duty_jumps_cross_a_proportionally_fed_reserve() {
    for quantum_ms in [100, 10] {
        duty_two_ways(99, |fast_forward| {
            let (mut k, r, _) = hog_kernel(fast_forward, quantum_ms, |_| {});
            let root = Actor::kernel();
            let battery = k.battery();
            let g = k.graph_mut();
            let source = g
                .create_reserve(&root, "source", Label::default_label())
                .unwrap();
            g.transfer(&root, battery, source, Energy::from_joules(50))
                .unwrap();
            g.create_tap(
                &root,
                "prop",
                source,
                r,
                RateSpec::Proportional { ppm_per_s: 1_013 },
                Label::default_label(),
            )
            .unwrap();
            k.run_until(SimTime::from_secs(300));
            (fingerprint(&mut k), k.run_profile())
        });
    }
}

/// A decay-exempt hog reserve with decay on: it never leaks, so it cannot
/// be a decay lane, and the run is ticked.
#[test]
fn duty_jumps_cross_a_decay_exempt_reserve() {
    for quantum_ms in [100, 10] {
        duty_two_ways(99, |fast_forward| {
            let (mut k, r, _) = hog_kernel(fast_forward, quantum_ms, |_| {});
            let battery = k.battery();
            let g = k.graph_mut();
            g.set_decay_exempt(&Actor::kernel(), r, true).unwrap();
            g.transfer(&Actor::kernel(), battery, r, Energy::from_joules(20))
                .unwrap();
            k.run_until(SimTime::from_secs(600));
            let decayed = k.graph().reserve(r).unwrap().stats().decayed;
            assert_eq!(decayed, Energy::ZERO);
            (fingerprint(&mut k), k.run_profile())
        });
    }
}

/// A lane-shaped hog whose queued compute, 1.5 s chunks between 0.5 s
/// sleeps on 100 ms quanta, caps every span below the planner's 16-tick
/// break-even: each run is ticked rather than planned.
#[test]
fn duty_jumps_tick_spans_below_the_break_even() {
    let fast = duty_two_ways(65, |fast_forward| {
        let (mut k, r, _) = hog_kernel(fast_forward, 100, |_| {});
        let hog = k.thread_by_name("hog").unwrap();
        k.kill(hog);
        let mut computing = false;
        k.spawn_unprivileged(
            "chunks",
            Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
                computing = !computing;
                if computing {
                    Step::compute(SimDuration::from_millis(1_500))
                } else {
                    Step::SleepUntil(ctx.now() + SimDuration::from_millis(500))
                }
            })),
            r,
        );
        k.run_until(SimTime::from_secs(300));
        (fingerprint(&mut k), k.run_profile())
    });
    assert!(fast.duty_jumps > 100, "{fast:?}");
    assert!(fast.duty_quanta < fast.duty_jumps * 16, "{fast:?}");
}

/// A kernel whose meter samples a trace needs each power change, so the
/// certificate refuses, matching all the same.
#[test]
fn duty_jumps_refuse_a_sampling_meter() {
    let [_, fast] = two_ways(|fast_forward| {
        let (mut k, _, _) = hog_kernel(fast_forward, 10, |c| {
            c.meter_trace = true;
        });
        k.run_until(SimTime::from_secs(120));
        (fingerprint(&mut k), k.run_profile())
    });
    assert_eq!(fast.duty_jumps, 0, "{fast:?}");
    assert_eq!(fast.full_quanta, fast.quanta(), "{fast:?}");
}

/// The hog for the count's edge cases: `hog_kernel` on `quantum_ms`
/// quanta, decay on or off, its feed re-rated to `feed_uw` and, before it
/// runs ten minutes, `setup` applied. Checks the run both ways and
/// returns the fast run's profile.
fn counted_hog(
    quantum_ms: u64,
    decay: bool,
    feed_uw: u64,
    setup: impl Fn(&mut Kernel, ReserveId, TapId),
) -> RunProfile {
    duty_two_ways(95, |fast_forward| {
        let (mut k, r, feed) = hog_kernel(fast_forward, quantum_ms, |c| {
            if !decay {
                c.graph.decay = None;
            }
        });
        k.rerate_tap(feed, Power::from_microwatts(feed_uw)).unwrap();
        setup(&mut k, r, feed);
        k.run_until(SimTime::from_secs(600));
        (fingerprint(&mut k), k.run_profile())
    })
}

/// Whether the fast run's lanes counted: at most 1% of their ticks
/// stepped.
fn counted(p: &RunProfile) -> bool {
    p.lane_ticks > 0 && p.lane_ticks_stepped * 100 <= p.lane_ticks
}

/// A feed of exactly one tick's quanta, 13,700 µJ a tick with decay off:
/// the hog runs every quantum, its level back at the same point after
/// each tick, and the count runs them all.
#[test]
fn duty_counts_a_feed_of_exactly_a_ticks_quanta() {
    for quantum_ms in [100, 10] {
        let fast = counted_hog(quantum_ms, false, 137_000, |_, _, _| {});
        assert!(counted(&fast), "{fast:?}");
    }
}

/// A feed of 8,620 µJ a tick, the most a level can hold without leaking
/// at the default decay, is counted; one of 8,621 µJ could leak, so its
/// lane steps every tick, and both match stepping.
#[test]
fn duty_counts_up_to_the_leak_threshold() {
    for quantum_ms in [100, 10] {
        let fast = counted_hog(quantum_ms, true, 86_200, |_, _, _| {});
        assert!(counted(&fast), "{fast:?}");
        let fast = counted_hog(quantum_ms, true, 86_210, |_, _, _| {});
        assert_eq!(fast.lane_ticks_stepped, fast.lane_ticks, "{fast:?}");
    }
}

/// A reserve that starts the run 50 mJ up: the lane steps until a tick
/// ends at or below zero, then counts.
#[test]
fn duty_counts_after_a_funded_start() {
    for quantum_ms in [100, 10] {
        let fast = counted_hog(quantum_ms, true, 68_500, |k, r, _| {
            let battery = k.battery();
            k.graph_mut()
                .transfer(&Actor::kernel(), battery, r, Energy::from_millijoules(50))
                .unwrap();
        });
        assert!(counted(&fast), "{fast:?}");
    }
}

/// No feed at all and 50 mJ to spend, beside a decay lane the battery
/// feeds (so the graph never freezes): the hog runs its reserve down and
/// the count throttles it for the rest of the run.
#[test]
fn duty_counts_an_unfed_hog() {
    for quantum_ms in [100, 10] {
        let fast = counted_hog(quantum_ms, true, 68_500, |k, r, feed| {
            let root = Actor::kernel();
            tapped(k, "bystander", 41_017);
            let battery = k.battery();
            let g = k.graph_mut();
            g.delete_tap(&root, feed).unwrap();
            g.transfer(&root, battery, r, Energy::from_millijoules(50))
                .unwrap();
        });
        assert!(fast.duty_jumps > 0, "{fast:?}");
    }
}

/// The hog respawned mid-tick on 10 ms quanta, so its jumps start with
/// head quanta before their first tick.
#[test]
fn duty_counts_after_head_quanta() {
    let fast = counted_hog(10, true, 68_500, |k, r, _| {
        let hog = k.thread_by_name("hog").unwrap();
        k.kill(hog);
        k.run_span(SimTime::from_millis(530));
        k.spawn_unprivileged("late", Box::new(Spinner::new()), r);
    });
    assert!(counted(&fast), "{fast:?}");
}

/// Fig 6b's browser for an hour on 100 ms and 10 ms quanta: the plugin's
/// sole-Ready windows between page loads are duty runs its reserve, which
/// a backward proportional tap drains, ticks in the flow kernel with the
/// rest of the island, and the page loads step the full loop.
#[test]
fn duty_jumps_tick_fig6b_windows_in_the_kernel() {
    for quantum_ms in [100, 10] {
        let fast = duty_two_ways(50, |fast_forward| {
            let mut k = Kernel::new(KernelConfig {
                sched: SchedulerConfig {
                    quantum: SimDuration::from_millis(quantum_ms),
                    ..SchedulerConfig::default()
                },
                ..config(fast_forward)
            });
            let h = build_browser(&mut k, BrowserConfig::fig6b()).unwrap();
            k.run_until(SimTime::from_secs(3_600));
            let plugin = k.thread_throttled(h.plugin);
            assert!(plugin > SimDuration::from_secs(600), "{plugin}");
            (fingerprint(&mut k), k.run_profile())
        });
        assert!(fast.duty_jumps > 1_000, "{fast:?}");
    }
}

/// A hog on a funded, decay-exempt reserve no tap touches, beside a decay
/// lane the battery feeds: the flow kernel gives the run's reserve a slot
/// of its own, and the hog spends its 20 J a quantum at a time.
#[test]
fn duty_jumps_slot_an_untapped_reserve() {
    for quantum_ms in [100, 10] {
        duty_two_ways(90, |fast_forward| {
            let (mut k, r, feed) = hog_kernel(fast_forward, quantum_ms, |_| {});
            let root = Actor::kernel();
            tapped(&mut k, "bystander", 41_017);
            let battery = k.battery();
            let g = k.graph_mut();
            g.delete_tap(&root, feed).unwrap();
            g.set_decay_exempt(&root, r, true).unwrap();
            g.transfer(&root, battery, r, Energy::from_joules(20))
                .unwrap();
            k.run_until(SimTime::from_secs(300));
            let consumed = k.graph().reserve(r).unwrap().stats().consumed;
            assert!(consumed > Energy::from_joules(19), "{consumed}");
            (fingerprint(&mut k), k.run_profile())
        });
    }
}
