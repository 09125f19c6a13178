//! The `offload` syscall at the kernel boundary.
//!
//! A thread ships a work estimate to a pluggable backend, blocks until the
//! response or a deadline, and pays for the traffic exactly like any other
//! send: radio energy through the episode machinery, bytes against the
//! data plan. These tests drive the mechanism with tiny scripted backends;
//! the fleet's shared trace-backed backend lives in `cinder-apps`.

use cinder_core::{quota, Actor, GraphConfig, Quantity, ReserveId, ResourceKind};
use cinder_kernel::{
    Ctx, FnProgram, Kernel, KernelConfig, OffloadBackend, OffloadOutcome, OffloadRequest,
    OffloadStatus, OffloadVerdict, RunProfile, Step, ThreadId,
};
use cinder_label::Label;
use cinder_net::{CoopNetd, UncoopStack};
use cinder_sim::{Energy, SimDuration, SimTime};

fn kernel_no_decay(fast_forward: bool) -> Kernel {
    Kernel::new(KernelConfig {
        graph: GraphConfig {
            decay: None,
            ..GraphConfig::default()
        },
        seed: 23,
        fast_forward,
        ..KernelConfig::default()
    })
}

fn funded_energy(k: &mut Kernel, name: &str, joules: i64) -> ReserveId {
    let battery = k.battery();
    let g = k.graph_mut();
    let r = g
        .create_reserve(&Actor::kernel(), name, Label::default_label())
        .unwrap();
    g.transfer(&Actor::kernel(), battery, r, Energy::from_joules(joules))
        .unwrap();
    r
}

fn byte_plan(k: &mut Kernel, pool_bytes: u64, plan_bytes: u64) -> ReserveId {
    let root = Actor::kernel();
    let g = k.graph_mut();
    let pool = g
        .create_root(&root, "plan-pool", Quantity::network_bytes(pool_bytes))
        .unwrap();
    let plan = g
        .create_reserve_kind(
            &root,
            "plan",
            Label::default_label(),
            ResourceKind::NetworkBytes,
        )
        .unwrap();
    g.transfer(&root, pool, plan, quota::bytes(plan_bytes))
        .unwrap();
    plan
}

fn assert_all_kinds_conserved(k: &Kernel) {
    for kind in ResourceKind::ALL {
        assert!(
            k.graph().totals_for(kind).conserved(),
            "{kind} not conserved: {:?}",
            k.graph().totals_for(kind)
        );
    }
}

/// A backend that admits everything with a fixed response delay (or
/// rejects everything).
struct FixedBackend {
    delay: SimDuration,
    reject: bool,
}

impl OffloadBackend for FixedBackend {
    fn admit(&mut self, _now: SimTime, _req: &OffloadRequest) -> OffloadVerdict {
        if self.reject {
            OffloadVerdict::Rejected
        } else {
            OffloadVerdict::Admitted {
                response_delay: self.delay,
            }
        }
    }

    fn latency_estimate(&self, _now: SimTime) -> SimDuration {
        self.delay
    }
}

const REQ: OffloadRequest = OffloadRequest {
    tx_bytes: 500,
    rx_bytes: 200,
    work: SimDuration::from_secs(120),
    deadline: SimDuration::from_secs(5),
};

/// Spawns a thread that offloads once and exits on the outcome, recording
/// it through the returned closure-captured state via thread introspection.
fn spawn_offloader(k: &mut Kernel, energy: ReserveId, fallback_work: SimDuration) -> ThreadId {
    // 0 = offload, 1 = awaiting outcome, 2 = fallback compute done → exit.
    let mut phase = 0u32;
    k.spawn_unprivileged(
        "offloader",
        Box::new(FnProgram(move |ctx: &mut Ctx<'_>| match phase {
            0 => match ctx.offload(REQ) {
                Ok(OffloadStatus::Sent) => {
                    phase = 1;
                    Step::Block
                }
                Ok(OffloadStatus::Rejected) => {
                    phase = 2;
                    Step::compute(fallback_work)
                }
                Err(_) => Step::Exit,
            },
            1 => match ctx.offload_take_result() {
                Some(OffloadOutcome::Completed { .. }) => Step::Exit,
                Some(OffloadOutcome::TimedOut) => {
                    phase = 2;
                    Step::compute(fallback_work)
                }
                None => Step::Block, // spurious wake: keep waiting
            },
            _ => Step::Exit,
        })),
        energy,
    )
}

/// The happy path: backend admits, the response wakes the thread, and the
/// observed latency is RTT + transmit time + backend delay.
#[test]
fn offload_response_wakes_the_thread() {
    let mut k = kernel_no_decay(false);
    k.install_net(Box::new(UncoopStack::new()));
    k.install_offload(Box::new(FixedBackend {
        delay: SimDuration::from_millis(300),
        reject: false,
    }));
    let energy = funded_energy(&mut k, "energy", 100);
    let t = spawn_offloader(&mut k, energy, SimDuration::from_secs(60));
    k.run_until(SimTime::from_secs(10));

    assert!(
        k.thread_exited(t),
        "completed offload exits without fallback"
    );
    let stats = k.offload_stats();
    assert_eq!(stats.attempts, 1);
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.timed_out, 0);
    assert_eq!(stats.in_flight(), 0);
    // 200 ms RTT + 5 ms transmit (500 B at 100 kB/s) + 300 ms backend,
    // observed on the quantum grid (10 ms) from a quantum boundary.
    let mean_ms = stats.latency_us_sum / 1_000;
    assert!(
        (505..=515).contains(&mean_ms),
        "latency should be ~505 ms, got {mean_ms} ms"
    );
    // The request actually crossed the radio.
    assert_eq!(k.arm9().radio().stats().tx_bytes, 500);
    assert!(k.arm9().radio().stats().activations >= 1);
    assert_all_kinds_conserved(&k);
}

/// The deadline fires first: the thread wakes `TimedOut` and recomputes
/// locally; the late response still bills its bytes but wakes no one.
#[test]
fn deadline_timeout_falls_back_to_local() {
    let mut k = kernel_no_decay(false);
    k.install_net(Box::new(UncoopStack::new()));
    k.install_offload(Box::new(FixedBackend {
        delay: SimDuration::from_secs(30), // far beyond the 5 s deadline
        reject: false,
    }));
    let energy = funded_energy(&mut k, "energy", 100);
    let plan = byte_plan(&mut k, 100_000, 100_000);
    let fallback = SimDuration::from_secs(2);
    let t = spawn_offloader(&mut k, energy, fallback);
    k.set_thread_reserve_kind(t, ResourceKind::NetworkBytes, plan);
    k.run_until(SimTime::from_secs(60));

    assert!(k.thread_exited(t));
    let stats = k.offload_stats();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.timed_out, 1);
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.in_flight(), 0);
    // The fallback compute was charged (2 s at 137 mW = 274 mJ) on top of
    // dispatch overhead.
    assert!(
        k.thread_consumed(t) >= Energy::from_millijoules(274),
        "local fallback must be billed: {}",
        k.thread_consumed(t)
    );
    // The late response still debited its bytes on delivery: tx + rx.
    let consumed = k.graph().reserve(plan).unwrap().stats().consumed;
    assert_eq!(consumed, quota::bytes(500 + 200));
    assert_all_kinds_conserved(&k);
}

/// Backend rejection and an uncovered data plan both fail fast into local
/// execution with nothing sent and nothing billed.
#[test]
fn rejection_and_uncovered_plan_fail_fast() {
    // Backend full.
    let mut k = kernel_no_decay(false);
    k.install_net(Box::new(UncoopStack::new()));
    k.install_offload(Box::new(FixedBackend {
        delay: SimDuration::from_millis(100),
        reject: true,
    }));
    let energy = funded_energy(&mut k, "energy", 100);
    let t = spawn_offloader(&mut k, energy, SimDuration::from_millis(100));
    k.run_until(SimTime::from_secs(2));
    assert!(k.thread_exited(t));
    let stats = k.offload_stats();
    assert_eq!((stats.attempts, stats.rejected), (1, 1));
    assert_eq!(stats.accepted, 0);
    assert_eq!(k.arm9().radio().stats().tx_bytes, 0, "nothing was sent");

    // Plan cannot cover the round trip.
    let mut k = kernel_no_decay(false);
    k.install_net(Box::new(UncoopStack::new()));
    k.install_offload(Box::new(FixedBackend {
        delay: SimDuration::from_millis(100),
        reject: false,
    }));
    let energy = funded_energy(&mut k, "energy", 100);
    let plan = byte_plan(&mut k, 10_000, 300); // < 700 B round trip
    let t = spawn_offloader(&mut k, energy, SimDuration::from_millis(100));
    k.set_thread_reserve_kind(t, ResourceKind::NetworkBytes, plan);
    k.run_until(SimTime::from_secs(2));
    assert!(k.thread_exited(t));
    assert_eq!(k.offload_stats().rejected, 1);
    assert_eq!(
        k.graph().reserve(plan).unwrap().stats().consumed,
        Energy::ZERO,
        "an uncovered offload must not touch the plan"
    );
    assert_all_kinds_conserved(&k);
}

/// No backend installed: the syscall errors out cleanly.
#[test]
fn offload_without_backend_errors() {
    let mut k = kernel_no_decay(false);
    k.install_net(Box::new(UncoopStack::new()));
    let energy = funded_energy(&mut k, "energy", 100);
    let mut saw_err = false;
    let probe = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let probe_w = probe.clone();
    let t = k.spawn_unprivileged(
        "no-backend",
        Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
            if !saw_err {
                saw_err = true;
                let err = ctx.offload(REQ);
                probe_w.store(
                    matches!(err, Err(cinder_kernel::KernelError::NoOffload)),
                    std::sync::atomic::Ordering::Relaxed,
                );
            }
            Step::Exit
        })),
        energy,
    );
    k.run_until(SimTime::from_secs(1));
    assert!(k.thread_exited(t));
    assert!(probe.load(std::sync::atomic::Ordering::Relaxed));
    assert_eq!(k.offload_stats().attempts, 0);
}

/// An offload whose send netd *pools* (poor reserve, radio power-up not
/// yet funded) still resolves: the thread stays blocked through the
/// pooled phase and wakes on the response or the deadline — never on the
/// pool grant alone.
#[test]
fn pooled_send_keeps_offloader_blocked_until_response() {
    let mut k = kernel_no_decay(false);
    let netd = CoopNetd::with_defaults(k.graph_mut());
    k.install_net(Box::new(netd));
    k.install_offload(Box::new(FixedBackend {
        delay: SimDuration::from_millis(200),
        reject: false,
    }));
    // Not enough to fund the ~11.9 J power-up alone, so netd pools the
    // request — but a 2.5 W tap refills the reserve fast enough that the
    // sweep fills the pool past threshold within ~4 s, inside the 5 s
    // deadline: the send goes out mid-wait and the *response* (not the
    // pool grant) wakes the thread.
    let energy = funded_energy(&mut k, "poor", 4);
    let battery = k.battery();
    k.graph_mut()
        .create_tap(
            &Actor::kernel(),
            "drip",
            battery,
            energy,
            cinder_core::RateSpec::constant(cinder_sim::Power::from_microwatts(2_500_000)),
            Label::default_label(),
        )
        .unwrap();
    let t = spawn_offloader(&mut k, energy, SimDuration::from_secs(1));
    k.run_until(SimTime::from_secs(30));

    let stats = k.offload_stats();
    assert_eq!(stats.accepted, 1);
    assert_eq!(
        stats.completed, 1,
        "the pooled offload must complete via its response: {stats:?}"
    );
    assert_eq!(stats.in_flight(), 0);
    assert!(k.thread_exited(t), "completed without the local fallback");
    assert_eq!(k.arm9().radio().stats().tx_bytes, 500);
    assert_all_kinds_conserved(&k);
}

/// Killing a thread mid-offload drops its waiter state; the late response
/// delivers (billing only) without touching the dead thread.
#[test]
fn killing_an_offload_waiter_cleans_up() {
    let mut k = kernel_no_decay(false);
    k.install_net(Box::new(UncoopStack::new()));
    k.install_offload(Box::new(FixedBackend {
        delay: SimDuration::from_secs(3),
        reject: false,
    }));
    let energy = funded_energy(&mut k, "energy", 100);
    let t = spawn_offloader(&mut k, energy, SimDuration::from_secs(1));
    k.run_until(SimTime::from_secs(1));
    assert_eq!(k.offload_stats().accepted, 1);
    k.kill(t);
    // Both the response (t ≈ 3.2 s) and the deadline (t = 5 s) fire on a
    // dead thread; neither may wake anything or corrupt counters.
    k.run_until(SimTime::from_secs(10));
    assert_eq!(k.offload_stats().in_flight(), 0);
    assert_all_kinds_conserved(&k);
}

/// The fast-forward differential: a run with offloaders in the mix is
/// bit-identical with `fast_forward` on and off — blocked offload waiters
/// are jump-safe because both their wake sources are queued events. With
/// decay off and no tap the graph is frozen throughout, so the fast runs
/// cross the waits and sleeps in frozen jumps.
#[test]
fn idle_skip_is_bit_identical_with_offloaders() {
    #[derive(Debug, PartialEq)]
    struct Fingerprint {
        meter_uj: i64,
        balances: Vec<(String, i64)>,
        stats: cinder_kernel::OffloadStats,
        radio_tx: u64,
        activations: u64,
    }

    let run = |fast_forward: bool, delay_ms: u64| -> (Fingerprint, RunProfile) {
        let mut k = kernel_no_decay(fast_forward);
        k.install_net(Box::new(UncoopStack::new()));
        k.install_offload(Box::new(FixedBackend {
            delay: SimDuration::from_millis(delay_ms),
            reject: false,
        }));
        let energy = funded_energy(&mut k, "energy", 200);
        // A repeating offloader: offload, wait, idle a while, repeat.
        let mut phase = 0u32;
        let mut sleeps = 0u32;
        k.spawn_unprivileged(
            "repeat-offloader",
            Box::new(FnProgram(move |ctx: &mut Ctx<'_>| match phase {
                0 => match ctx.offload(REQ) {
                    Ok(OffloadStatus::Sent) => {
                        phase = 1;
                        Step::Block
                    }
                    Ok(OffloadStatus::Rejected) => Step::compute(SimDuration::from_secs(1)),
                    Err(_) => Step::Exit,
                },
                1 => match ctx.offload_take_result() {
                    Some(_) => {
                        phase = 0;
                        sleeps += 1;
                        if sleeps > 5 {
                            return Step::Exit;
                        }
                        Step::SleepUntil(ctx.now() + SimDuration::from_secs(40))
                    }
                    None => Step::Block,
                },
                _ => Step::Exit,
            })),
            energy,
        );
        k.run_until(SimTime::from_secs(600));
        assert_all_kinds_conserved(&k);
        let fingerprint = Fingerprint {
            meter_uj: k.meter().total_energy().as_microjoules(),
            balances: k
                .graph()
                .reserves()
                .map(|(_, r)| (r.name().to_string(), r.balance().as_microjoules()))
                .collect(),
            stats: k.offload_stats(),
            radio_tx: k.arm9().radio().stats().tx_bytes,
            activations: k.arm9().radio().stats().activations,
        };
        (fingerprint, k.run_profile())
    };

    // A delay that completes and one that always times out.
    for delay_ms in [300u64, 30_000] {
        let (plain, _) = run(false, delay_ms);
        let (fast, profile) = run(true, delay_ms);
        assert_eq!(plain, fast, "fast_forward diverged (delay={delay_ms} ms)");
        assert!(plain.stats.accepted > 1, "the loop must have offloaded");
        assert!(profile.frozen_jumps > 0, "{profile:?}");
    }
}
