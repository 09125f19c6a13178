//! The network-stack plug-in boundary.
//!
//! The paper's `netd` is a user-space daemon implementing *policy* (pooling
//! energy for radio power-ups, §5.5); the kernel provides *mechanism*
//! (blocking a requesting thread, waking it, delivering and billing received
//! packets). [`NetStack`] is that boundary: `cinder-net` supplies the
//! cooperative netd and the uncooperative baseline.

use cinder_core::{ReserveId, ResourceGraph};
use cinder_hw::Arm9;
use cinder_sim::{Energy, SimDuration, SimRng, SimTime};

use crate::kernel::ThreadId;

/// A thread's request to send data and (optionally) receive a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendRequest {
    /// The requesting thread.
    pub thread: ThreadId,
    /// The thread's active energy reserve (for billing and pooled
    /// contributions).
    pub reserve: ReserveId,
    /// The thread's active `NetworkBytes` reserve, if it carries a data
    /// plan (§9): debited per transmitted byte at the radio, and after the
    /// fact for received bytes. `None` = quota-unrestricted.
    pub byte_reserve: Option<ReserveId>,
    /// Bytes to transmit.
    pub tx_bytes: u64,
    /// Bytes the remote end will send back (0 = no reply).
    pub rx_bytes: u64,
    /// Extra delay the remote end adds before replying, beyond the RTT and
    /// transfer time — an offload request carries the backend's queue wait
    /// plus service time here. Plain sends use [`SimDuration::ZERO`].
    pub extra_delay: SimDuration,
    /// Whether the reply's delivery should wake the receiving thread.
    /// Plain sends use `false` (delivery only bills, §5.5.2); the
    /// `offload` syscall blocks its thread on the response, so it sets
    /// `true`.
    pub wakes: bool,
}

/// The stack's decision on a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendVerdict {
    /// Transmitted now.
    Sent,
    /// Queued; the kernel blocks the thread until the stack's `poll` wakes
    /// it.
    Blocked,
}

/// A reply scheduled for future delivery to a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxDelivery {
    /// When the reply arrives.
    pub at: SimTime,
    /// The receiving thread.
    pub thread: ThreadId,
    /// Reply size.
    pub bytes: u64,
    /// Energy reserve to debit after the fact (`None` = unbilled, the
    /// energy-unrestricted baseline).
    pub bill: Option<ReserveId>,
    /// `NetworkBytes` reserve to debit the reply's bytes against after the
    /// fact (§5.5.2's "up to or into debt", applied to the data plan).
    pub bill_bytes: Option<ReserveId>,
    /// Whether delivery wakes the receiving thread (offload responses);
    /// plain replies only bill.
    pub wakes: bool,
}

/// What the kernel lends a stack while it makes decisions: the resource
/// graph (for pooling and billing), the ARM9 (the only path to the radio),
/// the experiment RNG, and an outbox of scheduled reply deliveries.
pub struct NetEnv<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The resource consumption graph.
    pub graph: &'a mut ResourceGraph,
    /// The coprocessor facade owning the radio.
    pub arm9: &'a mut Arm9,
    /// Deterministic randomness (radio episode draws).
    pub rng: &'a mut SimRng,
    /// Replies to schedule; the kernel moves these onto its event queue and
    /// bills them on delivery.
    pub rx_outbox: &'a mut Vec<RxDelivery>,
    /// Instantaneous data energy to add to the meter (per-byte tx costs).
    pub metered_energy: &'a mut cinder_sim::Energy,
}

impl NetEnv<'_> {
    /// Round-trip latency used when scheduling echo replies.
    pub const DEFAULT_RTT: SimDuration = SimDuration::from_millis(200);

    /// Transmits through the ARM9 now, metering the data energy, debiting
    /// the request's `NetworkBytes` reserve per transmitted byte (§9,
    /// enforced online at the radio for every stack), and scheduling the
    /// reply (if any) after [`NetEnv::DEFAULT_RTT`].
    ///
    /// `bill_rx` selects after-the-fact receive billing (§5.5.2); the
    /// unrestricted baseline passes `None`. Reply *bytes* are always billed
    /// to the byte reserve when one is carried — a data plan meters
    /// received traffic even when radio energy is unbilled.
    pub fn transmit(&mut self, req: &SendRequest, bill_rx: Option<ReserveId>) {
        let outcome = match self.arm9.request(
            self.now,
            cinder_hw::Arm9Request::RadioTransmit {
                bytes: req.tx_bytes,
            },
            self.rng,
        ) {
            Ok(cinder_hw::Arm9Response::Radio(out)) => out,
            other => unreachable!("radio transmit cannot fail: {other:?}"),
        };
        *self.metered_energy += outcome.data_energy;
        if let Some(bytes_reserve) = req.byte_reserve {
            // The kernel gated the send on the plan covering tx+rx; by the
            // time a pooled request reaches the radio other sends may have
            // drained the plan, so debit with debt rather than fail the
            // transmit the stack already paid energy for.
            let _ = self.graph.consume_with_debt(
                &cinder_core::Actor::kernel(),
                bytes_reserve,
                cinder_core::quota::bytes(req.tx_bytes),
            );
        }
        if req.rx_bytes > 0 {
            self.rx_outbox.push(RxDelivery {
                at: self.now + Self::DEFAULT_RTT + outcome.duration + req.extra_delay,
                thread: req.thread,
                bytes: req.rx_bytes,
                bill: bill_rx,
                bill_bytes: req.byte_reserve,
                wakes: req.wakes,
            });
        }
    }
}

/// A pluggable network stack.
pub trait NetStack {
    /// Handles a thread's send request at `env.now`.
    fn request(&mut self, env: &mut NetEnv<'_>, req: SendRequest) -> SendVerdict;

    /// Called periodically (each graph flow tick): progress blocked
    /// requests. Returns the threads whose requests were completed (the
    /// kernel wakes them with [`SendVerdict::Sent`]).
    fn poll(&mut self, env: &mut NetEnv<'_>) -> Vec<ThreadId>;

    /// The stack's pooled reserve, if it has one (netd's; Fig 14 traces its
    /// level).
    fn pool_reserve(&self) -> Option<ReserveId> {
        None
    }

    /// Whether the stack has no queued work and its `poll` would be a
    /// no-op. The kernel's idle jumps cross quanta only while the stack is
    /// idle (or its link is down); a stack with queued work, such as netd
    /// while blocked senders wait for their taps to fill the pool, is
    /// jumped only under [`NetStack::pooling`]'s certificate and is
    /// otherwise polled every flow tick.
    ///
    /// The default is `false` — "never skip my polls" — so a stack that
    /// does real work in `poll` but forgets to implement this is merely
    /// slower under `fast_forward`, never wrong. Stacks whose `poll` is a
    /// no-op (or that hold no queued work) should override and return
    /// `true` to let the fast-forward engage.
    fn is_idle(&self) -> bool {
        false
    }

    /// The stack's standing refusal, if its polls provably reduce to
    /// sweeps: given the caller's promise that the radio holds
    /// `radio_active` / `radio_next_transition` throughout and that only
    /// those sweeps touch the pool, every `poll` from now on moves each
    /// waiter's positive balance into the pool, wakes nobody, and keeps
    /// refusing for as long as the cumulative sweep stays below the
    /// returned shortfall. The kernel's pooled and frozen fast-forwards
    /// jump a pooling stack's polls only under this certificate (a frozen
    /// span is the case where every sweep is zero).
    ///
    /// The default, `None`, is always safe — merely slower. netd proves it
    /// off its memoised failed grant check.
    fn pooling(
        &self,
        graph: &ResourceGraph,
        radio_active: bool,
        radio_next_transition: Option<SimTime>,
    ) -> Option<Pooling<'_>> {
        let _ = (graph, radio_active, radio_next_transition);
        None
    }

    /// Records that `swept` reached the pool through polls the kernel
    /// settled in closed form under a [`NetStack::pooling`] certificate.
    fn settle_pooled(&mut self, swept: Energy) {
        let _ = swept;
    }
}

/// A pooling stack's certified refusal (see [`NetStack::pooling`]).
#[derive(Debug, Clone, Copy)]
pub struct Pooling<'a> {
    /// The reserve the sweeps fill.
    pub pool: ReserveId,
    /// The blocked requests, whose reserves each poll sweeps in order.
    pub waiters: &'a [SendRequest],
    /// What the sweeps must still add before the grant check could pass.
    pub shortfall: Energy,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinder_core::Actor;
    use cinder_hw::{Battery, RadioParams};
    use cinder_label::Label;
    use cinder_sim::Energy;

    /// A stack that always transmits immediately without billing: the
    /// simplest possible implementation, used to test the env plumbing.
    struct PassThrough;

    impl NetStack for PassThrough {
        fn request(&mut self, env: &mut NetEnv<'_>, req: SendRequest) -> SendVerdict {
            env.transmit(&req, None);
            SendVerdict::Sent
        }

        fn poll(&mut self, _env: &mut NetEnv<'_>) -> Vec<ThreadId> {
            Vec::new()
        }
    }

    #[test]
    fn transmit_meters_data_and_schedules_reply() {
        let mut graph = ResourceGraph::new(Energy::from_joules(100));
        let k = Actor::kernel();
        let reserve = graph
            .create_reserve(&k, "r", Label::default_label())
            .unwrap();
        let mut arm9 = Arm9::new(RadioParams::htc_dream(), Battery::fig1_15kj());
        let mut rng = SimRng::seed_from_u64(3);
        let mut outbox = Vec::new();
        let mut metered = Energy::ZERO;
        let mut env = NetEnv {
            now: SimTime::from_secs(1),
            graph: &mut graph,
            arm9: &mut arm9,
            rng: &mut rng,
            rx_outbox: &mut outbox,
            metered_energy: &mut metered,
        };
        let req = SendRequest {
            thread: ThreadId::test_id(1),
            reserve,
            byte_reserve: None,
            tx_bytes: 100,
            rx_bytes: 400,
            extra_delay: SimDuration::ZERO,
            wakes: false,
        };
        let verdict = PassThrough.request(&mut env, req);
        assert_eq!(verdict, SendVerdict::Sent);
        assert_eq!(metered, Energy::from_microjoules(250));
        assert_eq!(outbox.len(), 1);
        assert_eq!(outbox[0].bytes, 400);
        assert_eq!(outbox[0].bill_bytes, None);
        assert!(outbox[0].at > SimTime::from_secs(1));
        assert!(arm9.radio().is_active());
    }

    #[test]
    fn transmit_debits_the_byte_reserve_per_byte() {
        let mut graph = ResourceGraph::new(Energy::from_joules(100));
        let k = Actor::kernel();
        let reserve = graph
            .create_reserve(&k, "r", Label::default_label())
            .unwrap();
        graph
            .create_root(
                &k,
                "plan-pool",
                cinder_core::Quantity::network_bytes(10_000),
            )
            .unwrap();
        let plan = graph
            .create_reserve_kind(
                &k,
                "plan",
                Label::default_label(),
                cinder_core::ResourceKind::NetworkBytes,
            )
            .unwrap();
        let pool = graph.root(cinder_core::ResourceKind::NetworkBytes).unwrap();
        graph
            .transfer(&k, pool, plan, cinder_core::quota::bytes(10_000))
            .unwrap();
        let mut arm9 = Arm9::new(RadioParams::htc_dream(), Battery::fig1_15kj());
        let mut rng = SimRng::seed_from_u64(3);
        let mut outbox = Vec::new();
        let mut metered = Energy::ZERO;
        let mut env = NetEnv {
            now: SimTime::from_secs(1),
            graph: &mut graph,
            arm9: &mut arm9,
            rng: &mut rng,
            rx_outbox: &mut outbox,
            metered_energy: &mut metered,
        };
        let req = SendRequest {
            thread: ThreadId::test_id(1),
            reserve,
            byte_reserve: Some(plan),
            tx_bytes: 1_500,
            rx_bytes: 4_000,
            extra_delay: SimDuration::ZERO,
            wakes: false,
        };
        env.transmit(&req, None);
        // tx bytes debited at the radio, rx bytes billed at delivery.
        assert_eq!(
            cinder_core::quota::as_bytes(graph.level(&k, plan).unwrap()),
            10_000 - 1_500
        );
        assert_eq!(outbox[0].bill_bytes, Some(plan));
        assert!(graph
            .totals_for(cinder_core::ResourceKind::NetworkBytes)
            .conserved());
    }
}
