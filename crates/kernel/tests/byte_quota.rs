//! Online §9 byte-quota enforcement at the kernel boundary.
//!
//! A thread whose `NetworkBytes` reserve cannot cover a send blocks *in the
//! kernel* — without being charged a byte or a joule of radio energy —
//! while remaining fully runnable for compute on its energy reserve. The
//! block is observably distinct from energy throttling
//! (`thread_bytes_blocked` / `thread_awaiting_bytes` vs
//! `thread_throttled`), taps refilling the plan un-block the send at the
//! next net poll, and the fast-forward stays bit-identical with byte-gated
//! workloads in the graph.

use cinder_apps::{PeriodicPoller, PollerLog};
use cinder_core::{quota, Actor, GraphConfig, Quantity, RateSpec, ReserveId, ResourceKind};
use cinder_kernel::{
    Ctx, FnProgram, Kernel, KernelConfig, NetSendStatus, RunProfile, Step, ThreadId,
};
use cinder_label::Label;
use cinder_net::{CoopNetd, UncoopStack};
use cinder_sim::{Energy, Power, SimDuration, SimTime};

fn kernel_no_decay(fast_forward: bool) -> Kernel {
    Kernel::new(KernelConfig {
        graph: GraphConfig {
            decay: None,
            ..GraphConfig::default()
        },
        seed: 11,
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

/// Creates a byte plan: a `NetworkBytes` root pool plus a plan reserve
/// holding `bytes`, returning the plan reserve.
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

/// The ISSUE's regression: byte reserve empty, energy reserve full — the
/// thread computes freely but blocks, uncharged, at its next send.
#[test]
fn empty_byte_reserve_blocks_send_unbilled() {
    let mut k = kernel_no_decay(false);
    k.install_net(Box::new(UncoopStack::new()));
    let energy = funded_energy(&mut k, "rich-energy", 100);
    let plan = byte_plan(&mut k, 10_000, 0); // plan holds nothing
    let mut computed = false;
    let t = k.spawn_unprivileged(
        "sender",
        Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
            if !computed {
                computed = true;
                return Step::compute(SimDuration::from_millis(200));
            }
            match ctx.net_send(1_000, 2_000) {
                Ok(NetSendStatus::Sent) => Step::Exit,
                Ok(NetSendStatus::Blocked) => Step::Block,
                Err(_) => Step::Exit,
            }
        })),
        energy,
    );
    k.set_thread_reserve_kind(t, ResourceKind::NetworkBytes, plan);
    k.run_until(SimTime::from_secs(5));

    // Compute ran on the full energy reserve…
    assert!(
        k.thread_consumed(t) >= Energy::from_microjoules(27_400),
        "200 ms of compute must have been charged: {}",
        k.thread_consumed(t)
    );
    assert_eq!(
        k.thread_throttled(t),
        SimDuration::ZERO,
        "never energy-gated"
    );
    // …but the send is held on bytes, with the plan untouched.
    assert!(k.thread_awaiting_bytes(t), "send must still be queued");
    assert_eq!(k.thread_bytes_blocked(t), 1);
    let plan_r = k.graph().reserve(plan).unwrap();
    assert_eq!(plan_r.balance(), Energy::ZERO, "no byte was charged");
    assert_eq!(plan_r.stats().consumed, Energy::ZERO);
    // The radio never powered up for the held send.
    assert_eq!(k.arm9().radio().stats().activations, 0);
    assert_eq!(k.arm9().radio().stats().tx_bytes, 0);
    assert_all_kinds_conserved(&k);
}

/// A tap refilling the plan un-blocks the held send at a later net poll,
/// and the transmitted/received bytes are debited online.
#[test]
fn tap_refilled_plan_releases_blocked_send() {
    let mut k = kernel_no_decay(false);
    k.install_net(Box::new(UncoopStack::new()));
    let energy = funded_energy(&mut k, "energy", 100);
    let plan = byte_plan(&mut k, 1_000_000, 0);
    // 1 KB/s of plan drip: the 3 KB send is covered after ~3 s.
    let pool = k.graph().root(ResourceKind::NetworkBytes).unwrap();
    k.graph_mut()
        .create_tap(
            &Actor::kernel(),
            "drip",
            pool,
            plan,
            RateSpec::constant(quota::bytes_per_sec(1_000)),
            Label::default_label(),
        )
        .unwrap();
    let mut awaiting = false;
    let t = k.spawn_unprivileged(
        "sender",
        Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
            if awaiting {
                return match ctx.net_take_result() {
                    Some(NetSendStatus::Sent) => Step::Exit,
                    _ => Step::Block, // spurious wake: keep waiting
                };
            }
            match ctx.net_send(1_000, 2_000) {
                Ok(NetSendStatus::Sent) => Step::Exit,
                Ok(NetSendStatus::Blocked) => {
                    awaiting = true;
                    Step::Block
                }
                Err(_) => Step::Exit,
            }
        })),
        energy,
    );
    k.set_thread_reserve_kind(t, ResourceKind::NetworkBytes, plan);
    k.run_until(SimTime::from_secs(10));

    assert!(
        k.thread_exited(t),
        "send must complete once the plan covers it"
    );
    assert_eq!(k.thread_bytes_blocked(t), 1, "the first attempt blocked");
    assert!(!k.thread_awaiting_bytes(t));
    assert_eq!(k.arm9().radio().stats().tx_bytes, 1_000);
    // tx debited at the radio; rx billed on delivery (within the horizon).
    let stats = k.graph().reserve(plan).unwrap().stats();
    assert_eq!(stats.consumed, quota::bytes(3_000), "1000 tx + 2000 rx");
    assert_all_kinds_conserved(&k);
}

/// An exhausted fixed plan stops a poller mid-run: polls that completed
/// before exhaustion transmitted, later ones are held, and the radio goes
/// quiet — behaviour an offline replay cannot produce.
#[test]
fn exhausted_plan_silences_the_poller_online() {
    let run = |plan_bytes: Option<u64>| -> (u64, u64, Kernel) {
        let mut k = kernel_no_decay(false);
        k.install_net(Box::new(UncoopStack::new()));
        let energy = funded_energy(&mut k, "energy", 1_000);
        let log = PollerLog::shared();
        let t = k.spawn_unprivileged("rss", Box::new(PeriodicPoller::rss(log.clone())), energy);
        if let Some(bytes) = plan_bytes {
            let plan = byte_plan(&mut k, bytes, bytes);
            k.set_thread_reserve_kind(t, ResourceKind::NetworkBytes, plan);
        }
        k.run_until(SimTime::from_secs(1_800));
        let ops = log.borrow().sends.len() as u64;
        (ops, k.thread_bytes_blocked(t), k)
    };

    // RSS polls are 256 tx + 8192 rx = 8448 bytes each; 20 KB covers two.
    let (capped_ops, blocked, capped_k) = run(Some(20_000));
    let (free_ops, _, _) = run(None);
    assert_eq!(capped_ops, 2, "20 KB covers exactly two polls");
    assert!(blocked >= 1, "the third poll must block on bytes");
    assert!(
        free_ops >= 25,
        "an unrestricted poller keeps polling: {free_ops}"
    );
    assert!(capped_k
        .thread_ids()
        .iter()
        .any(|&t| capped_k.thread_awaiting_bytes(t)));
    // The plan is nearly spent: 20_000 − 2 × 8448 = 3_104 bytes left.
    let plan = capped_k
        .graph()
        .reserves()
        .find(|(_, r)| r.name() == "plan")
        .map(|(id, _)| id)
        .unwrap();
    assert_eq!(
        quota::as_bytes(capped_k.graph().reserve(plan).unwrap().balance()),
        3_104
    );
    assert_all_kinds_conserved(&capped_k);
}

/// Killing a byte-blocked thread abandons its held send: the kernel must
/// not keep reporting it as awaiting bytes (or pin the idle fast-forward
/// on a send that can never be retried).
#[test]
fn killing_a_byte_blocked_thread_drops_its_pending_send() {
    let mut k = kernel_no_decay(false);
    k.install_net(Box::new(UncoopStack::new()));
    let energy = funded_energy(&mut k, "energy", 100);
    let plan = byte_plan(&mut k, 10_000, 0);
    let t = k.spawn_unprivileged(
        "sender",
        Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
            match ctx.net_send(1_000, 0) {
                Ok(NetSendStatus::Sent) => Step::Exit,
                Ok(NetSendStatus::Blocked) => Step::Block,
                Err(_) => Step::Exit,
            }
        })),
        energy,
    );
    k.set_thread_reserve_kind(t, ResourceKind::NetworkBytes, plan);
    k.run_until(SimTime::from_secs(1));
    assert!(k.thread_awaiting_bytes(t));
    k.kill(t);
    assert!(!k.thread_awaiting_bytes(t), "kill abandons the held send");
    k.run_until(SimTime::from_secs(2));
    assert_all_kinds_conserved(&k);
}

/// The fast-forward must stay bit-identical with byte-gated senders in the
/// graph — blocked-on-bytes quanta are not jumpable (the plan may be
/// refilling), and everything else still is, netd's pooling spans
/// included.
#[test]
fn idle_skip_is_bit_identical_with_byte_quotas() {
    #[derive(Debug, PartialEq)]
    struct Fingerprint {
        meter_uj: i64,
        balances: Vec<(String, i64)>,
        bytes_blocked: Vec<u64>,
        radio_tx: u64,
        activations: u64,
        ops: u64,
    }

    let run = |fast_forward: bool, coop: bool, plan_bytes: u64| -> (Fingerprint, RunProfile) {
        let mut k = kernel_no_decay(fast_forward);
        if coop {
            let netd = CoopNetd::with_defaults(k.graph_mut());
            k.install_net(Box::new(netd));
        } else {
            k.install_net(Box::new(UncoopStack::new()));
        }
        let log = PollerLog::shared();
        let mut threads: Vec<ThreadId> = Vec::new();
        for (name, feed_uw) in [("rss", 37_500u64), ("mail", 37_500)] {
            let battery = k.battery();
            let g = k.graph_mut();
            let r = g
                .create_reserve(&Actor::kernel(), name, Label::default_label())
                .unwrap();
            g.create_tap(
                &Actor::kernel(),
                &format!("{name}-tap"),
                battery,
                r,
                RateSpec::constant(Power::from_microwatts(feed_uw)),
                Label::default_label(),
            )
            .unwrap();
            let program: Box<dyn cinder_kernel::Program> = if name == "rss" {
                Box::new(PeriodicPoller::rss(log.clone()))
            } else {
                Box::new(PeriodicPoller::mail(log.clone()))
            };
            threads.push(k.spawn_unprivileged(name, program, r));
        }
        let plan = byte_plan(&mut k, plan_bytes, plan_bytes);
        for &t in &threads {
            k.set_thread_reserve_kind(t, ResourceKind::NetworkBytes, plan);
        }
        k.run_until(SimTime::from_secs(900));
        assert_all_kinds_conserved(&k);
        let ops = log.borrow().sends.len() as u64;
        let fingerprint = Fingerprint {
            meter_uj: k.meter().total_energy().as_microjoules(),
            balances: k
                .graph()
                .reserves()
                .map(|(_, r)| (r.name().to_string(), r.balance().as_microjoules()))
                .collect(),
            bytes_blocked: threads.iter().map(|&t| k.thread_bytes_blocked(t)).collect(),
            radio_tx: k.arm9().radio().stats().tx_bytes,
            activations: k.arm9().radio().stats().activations,
            ops,
        };
        (fingerprint, k.run_profile())
    };

    for coop in [false, true] {
        // A plan that exhausts mid-run and one that never binds.
        for plan_bytes in [30_000u64, 5_000_000] {
            let (plain, _) = run(false, coop, plan_bytes);
            let (fast, profile) = run(true, coop, plan_bytes);
            assert_eq!(
                plain, fast,
                "fast_forward diverged (coop={coop}, plan={plan_bytes})"
            );
            // Only netd pools: the uncoop stack sends at once.
            assert_eq!(profile.pooled_jumps > 0, coop, "{profile:?}");
        }
    }
}
