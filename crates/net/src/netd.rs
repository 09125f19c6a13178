//! The cooperative network stack, `netd`.
//!
//! Paper §5.5.2: "netd contains a reserve where threads cooperatively save
//! up energy for a radio power up event. For each thread that makes a
//! network system call, if the sum of its own reserve and netd's reserve
//! are not sufficient for the power on, the call blocks, contributes the
//! energy acquired by its taps to the netd reserve, and sleeps to
//! accumulate more. When there is sufficient energy to turn the radio on
//! and perform the transmissions requested by the waiting threads, Cinder
//! debits the reserve and permits the threads to proceed."
//!
//! Fig 14's caption adds the threshold: "netd requires 125% of this level
//! before turning the radio on, essentially mandating that applications
//! have extra energy to transmit and receive subsequent packets. Therefore,
//! the reserve does not empty to 0."
//!
//! The pool is decay-exempt: "The netd reserve is not subject to the system
//! global half-life, as the process is trusted not to hoard energy."

use cinder_core::{Actor, ReserveId, ResourceGraph};
use cinder_kernel::{NetEnv, NetStack, Pooling, SendRequest, SendVerdict, ThreadId};
use cinder_label::Label;
use cinder_sim::Energy;

/// netd configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetdConfig {
    /// Required pool level as a fraction of the estimated cost, in ppm
    /// (Fig 14: 1_250_000 = 125%).
    pub threshold_ppm: u64,
}

impl Default for NetdConfig {
    fn default() -> Self {
        NetdConfig {
            threshold_ppm: 1_250_000,
        }
    }
}

/// A memoised failed grant check (see `CoopNetd::pending_check`).
#[derive(Debug, Clone, Copy)]
struct PendingCheck {
    /// `threshold - pool` at the last full check.
    shortfall: Energy,
    /// Pool level after that check plus every contribution since.
    expected_pool: Energy,
    /// Radio signature the threshold monotonicity argument relies on.
    radio_active: bool,
    radio_next_transition: Option<cinder_sim::SimTime>,
}

/// The cooperative stack.
pub struct CoopNetd {
    config: NetdConfig,
    pool: ReserveId,
    /// Queued, blocked send requests, in arrival order.
    waiting: Vec<SendRequest>,
    /// Threads whose queued requests were granted as part of a *newcomer's*
    /// batch; reported (and woken) at the next `poll`.
    granted_backlog: Vec<ThreadId>,
    /// Reused request-batch buffer: `poll` runs every flow tick for the
    /// whole pooling window, so its per-call allocations are hot-loop cost.
    batch_scratch: Vec<SendRequest>,
    /// Outcome of the last failed grant check, letting the next polls skip
    /// re-estimating the radio cost entirely — *exactly*, not
    /// heuristically: while the radio signature is unchanged the threshold
    /// is non-decreasing, and the pool only moves by the contributions this
    /// stack sweeps (verified against `expected_pool` each poll), so
    /// `contributed < shortfall` proves the full check would fail too. Any
    /// mismatch (new activity, external pool change, waiting-set change)
    /// falls back to the full check.
    pending_check: Option<PendingCheck>,
    /// Total energy ever debited from the pool for radio work.
    spent: Energy,
    /// Number of radio power-ups netd paid for.
    grants: u64,
}

impl CoopNetd {
    /// Creates netd, allocating its pooled reserve in `graph` (decay-exempt,
    /// as the paper trusts netd not to hoard).
    pub fn new(graph: &mut ResourceGraph, config: NetdConfig) -> Self {
        let kernel = Actor::kernel();
        let pool = graph
            .create_reserve(&kernel, "netd-pool", Label::default_label())
            .expect("kernel actor can always create reserves");
        graph
            .set_decay_exempt(&kernel, pool, true)
            .expect("pool exists");
        CoopNetd {
            config,
            pool,
            waiting: Vec::new(),
            granted_backlog: Vec::new(),
            batch_scratch: Vec::new(),
            pending_check: None,
            spent: Energy::ZERO,
            grants: 0,
        }
    }

    /// With the paper's 125% threshold.
    pub fn with_defaults(graph: &mut ResourceGraph) -> Self {
        CoopNetd::new(graph, NetdConfig::default())
    }

    /// Total energy netd has debited for radio work.
    pub fn spent(&self) -> Energy {
        self.spent
    }

    /// Number of granted radio uses.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Number of requests currently blocked.
    pub fn waiting(&self) -> usize {
        self.waiting.len()
    }

    /// Sweeps a requester's accumulated tap energy into the pool
    /// ("contributes the energy acquired by its taps to the netd reserve"),
    /// returning the amount moved. Runs every flow tick for the whole
    /// pooling window, so it uses the graph's single-pass kernel sweep
    /// instead of a level + transfer pair.
    fn contribute(&self, env: &mut NetEnv<'_>, reserve: ReserveId) -> Energy {
        env.graph.sweep_kernel(reserve, self.pool)
    }

    /// The estimated cost of serving `requests` right now: one radio
    /// power-up (or extension) plus everyone's data.
    fn estimate(&self, env: &NetEnv<'_>, requests: &[SendRequest]) -> Energy {
        let radio = env.arm9.radio();
        let data_bytes: u64 = requests.iter().map(|r| r.tx_bytes + r.rx_bytes).sum();
        radio.cost_estimate(env.now, data_bytes)
    }

    fn threshold(&self, cost: Energy) -> Energy {
        cost.scale_ppm(self.config.threshold_ppm)
    }

    /// Grants a batch: debits the pool for `cost` and transmits every
    /// request. Callers must have verified the pool covers `cost`.
    fn grant(&mut self, env: &mut NetEnv<'_>, requests: &[SendRequest], cost: Energy) {
        let kernel = Actor::kernel();
        env.graph
            .consume(&kernel, self.pool, cost)
            .expect("grant checked pool level");
        self.spent += cost;
        self.grants += 1;
        for req in requests {
            // Receive costs are billed to the requester after the fact
            // (§5.5.2: debit "up to or into debt").
            env.transmit(req, Some(req.reserve));
        }
    }

    fn pool_level(&self, env: &NetEnv<'_>) -> Energy {
        env.graph
            .reserve(self.pool)
            .map(|r| r.balance())
            .unwrap_or(Energy::ZERO)
    }
}

impl NetStack for CoopNetd {
    fn request(&mut self, env: &mut NetEnv<'_>, req: SendRequest) -> SendVerdict {
        // The waiting set (and so the estimated batch cost) changes.
        self.pending_check = None;
        let kernel = Actor::kernel();
        // A newcomer is batched with everyone already waiting: "When there
        // is sufficient energy to turn the radio on and perform the
        // transmissions requested by the waiting threads, Cinder debits the
        // reserve and permits the threads to proceed."
        let mut batch: Vec<SendRequest> = self.waiting.clone();
        batch.push(req);
        let cost = self.estimate(env, &batch);
        let need = self.threshold(cost);
        let pool = self.pool_level(env);
        let own = env
            .graph
            .level(&kernel, req.reserve)
            .unwrap_or(Energy::ZERO)
            .clamp_non_negative();
        // §5.5.2: grant "if the sum of its own reserve and netd's reserve"
        // suffices; otherwise block and contribute.
        if pool + own >= need {
            // The pool must reach the full 125% threshold before power-on
            // (Fig 14) — the surplus is what keeps it from emptying to 0.
            let shortfall = (need - pool).clamp_non_negative();
            if shortfall.is_positive() {
                env.graph
                    .transfer(&kernel, req.reserve, self.pool, shortfall)
                    .expect("sum covered the threshold, so own >= shortfall");
            }
            self.grant(env, &batch, cost);
            // Waiters granted alongside the newcomer wake at the next poll.
            self.granted_backlog
                .extend(self.waiting.drain(..).map(|w| w.thread));
            SendVerdict::Sent
        } else {
            self.contribute(env, req.reserve);
            self.waiting.push(req);
            SendVerdict::Blocked
        }
    }

    fn poll(&mut self, env: &mut NetEnv<'_>) -> Vec<ThreadId> {
        let mut woken = std::mem::take(&mut self.granted_backlog);
        if self.waiting.is_empty() {
            return woken;
        }
        // Blocked threads keep contributing what their taps deliver
        // (indexed copies: `SendRequest` is `Copy`, no temporary vector).
        let mut contributed = Energy::ZERO;
        for i in 0..self.waiting.len() {
            let reserve = self.waiting[i].reserve;
            contributed += self.contribute(env, reserve);
        }
        let radio = env.arm9.radio();
        let radio_active = radio.is_active();
        let radio_next_transition = radio.next_transition();
        let pool = self.pool_level(env);
        if let Some(chk) = self.pending_check {
            if chk.radio_active == radio_active
                && chk.radio_next_transition == radio_next_transition
                && pool == chk.expected_pool + contributed
                && contributed < chk.shortfall
            {
                // pool < previous threshold ≤ current threshold: the full
                // check would refuse too. Carry the shortfall forward.
                self.pending_check = Some(PendingCheck {
                    shortfall: chk.shortfall - contributed,
                    expected_pool: pool,
                    radio_active,
                    radio_next_transition,
                });
                return woken;
            }
        }
        let mut requests = std::mem::take(&mut self.batch_scratch);
        requests.clear();
        requests.extend_from_slice(&self.waiting);
        let cost = self.estimate(env, &requests);
        let threshold = self.threshold(cost);
        if pool >= threshold {
            self.pending_check = None;
            self.grant(env, &requests, cost);
            self.waiting.clear();
            woken.extend(requests.iter().map(|r| r.thread));
        } else {
            self.pending_check = Some(PendingCheck {
                shortfall: threshold - pool,
                expected_pool: pool,
                radio_active,
                radio_next_transition,
            });
        }
        self.batch_scratch = requests;
        woken
    }

    fn pool_reserve(&self) -> Option<ReserveId> {
        Some(self.pool)
    }

    fn is_idle(&self) -> bool {
        // Waiting senders accumulate pool energy at every poll, and granted
        // backlog threads are woken by the next poll; the kernel must not
        // fast-forward past either.
        self.waiting.is_empty() && self.granted_backlog.is_empty()
    }

    fn pooling(
        &self,
        graph: &ResourceGraph,
        radio_active: bool,
        radio_next_transition: Option<cinder_sim::SimTime>,
    ) -> Option<Pooling<'_>> {
        // A poll reduces to sweeps when (a) there is no granted backlog to
        // wake and (b) the memoised failed check matches the live pool and
        // radio signature: then each poll takes the memo path, which
        // refuses while the cumulative contribution stays below the
        // memoised shortfall and rewrites the memo with exactly that
        // shortfall less the contribution. Without a memoised check the
        // full estimate could *grant* from an already-sufficient pool, so
        // nothing is certified.
        if !self.granted_backlog.is_empty() {
            return None;
        }
        let chk = self.pending_check?;
        if chk.radio_active != radio_active || chk.radio_next_transition != radio_next_transition {
            return None;
        }
        let pool = graph
            .reserve(self.pool)
            .map(|r| r.balance())
            .unwrap_or(Energy::ZERO);
        (pool == chk.expected_pool).then_some(Pooling {
            pool: self.pool,
            waiters: &self.waiting,
            shortfall: chk.shortfall,
        })
    }

    fn settle_pooled(&mut self, swept: Energy) {
        // The memo after the settled polls, exactly as they would have
        // rewritten it one contribution at a time.
        if let Some(chk) = self.pending_check.as_mut() {
            chk.shortfall -= swept;
            chk.expected_pool += swept;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinder_core::{GraphConfig, RateSpec};
    use cinder_hw::{Arm9, Battery, RadioParams};
    use cinder_sim::{Power, SimDuration, SimRng, SimTime};

    struct Rig {
        graph: ResourceGraph,
        arm9: Arm9,
        rng: SimRng,
        outbox: Vec<cinder_kernel::netstack::RxDelivery>,
        metered: Energy,
        now: SimTime,
    }

    impl Rig {
        fn new() -> Self {
            Rig {
                graph: ResourceGraph::with_config(
                    Energy::from_joules(15_000),
                    GraphConfig {
                        decay: None,
                        ..GraphConfig::default()
                    },
                ),
                arm9: Arm9::new(RadioParams::htc_dream(), Battery::fig1_15kj()),
                rng: SimRng::seed_from_u64(5),
                outbox: Vec::new(),
                metered: Energy::ZERO,
                now: SimTime::ZERO,
            }
        }

        fn env(&mut self) -> NetEnv<'_> {
            NetEnv {
                now: self.now,
                graph: &mut self.graph,
                arm9: &mut self.arm9,
                rng: &mut self.rng,
                rx_outbox: &mut self.outbox,
                metered_energy: &mut self.metered,
            }
        }

        fn reserve_with(&mut self, name: &str, joules: i64) -> ReserveId {
            let k = Actor::kernel();
            let battery = self.graph.battery();
            let r = self
                .graph
                .create_reserve(&k, name, Label::default_label())
                .unwrap();
            if joules > 0 {
                self.graph
                    .transfer(&k, battery, r, Energy::from_joules(joules))
                    .unwrap();
            }
            r
        }

        fn advance(&mut self, by: SimDuration) {
            self.now += by;
            self.arm9.advance_to(self.now);
            self.graph.flow_until(self.now);
        }
    }

    fn req(thread: u64, reserve: ReserveId, bytes: u64) -> SendRequest {
        SendRequest {
            thread: ThreadId::test_id(thread),
            reserve,
            byte_reserve: None,
            tx_bytes: bytes,
            rx_bytes: 0,
            extra_delay: SimDuration::ZERO,
            wakes: false,
        }
    }

    #[test]
    fn poor_requester_blocks_and_contributes() {
        let mut rig = Rig::new();
        let mut netd = CoopNetd::with_defaults(&mut rig.graph);
        let r = rig.reserve_with("poller", 2); // 2 J << 11.875 J needed
        let verdict = netd.request(&mut rig.env(), req(1, r, 100));
        assert_eq!(verdict, SendVerdict::Blocked);
        assert_eq!(netd.waiting(), 1);
        // The requester's 2 J moved into the pool.
        let k = Actor::kernel();
        assert_eq!(rig.graph.level(&k, r).unwrap(), Energy::ZERO);
        let pool = netd.pool_reserve().unwrap();
        assert_eq!(rig.graph.level(&k, pool).unwrap(), Energy::from_joules(2));
        // Radio untouched.
        assert!(!rig.arm9.radio().is_active());
    }

    #[test]
    fn rich_requester_sends_immediately() {
        let mut rig = Rig::new();
        let mut netd = CoopNetd::with_defaults(&mut rig.graph);
        let r = rig.reserve_with("rich", 20); // covers 125% of 9.5 J
        let verdict = netd.request(&mut rig.env(), req(1, r, 100));
        assert_eq!(verdict, SendVerdict::Sent);
        assert!(rig.arm9.radio().is_active());
        assert_eq!(netd.grants(), 1);
        // The rich thread paid only the actual cost (~9.5 J) and keeps its
        // surplus rather than having everything confiscated into the pool.
        let k = Actor::kernel();
        let remaining = rig.graph.level(&k, r).unwrap();
        assert!(
            remaining >= Energy::from_joules(8),
            "requester keeps surplus, has {remaining}"
        );
    }

    #[test]
    fn two_waiters_pool_energy_and_proceed_together() {
        // The Fig 8/13b mechanism: 37.5 mW each is not enough alone, but
        // pooling gets the radio up and both requests through.
        let mut rig = Rig::new();
        let mut netd = CoopNetd::with_defaults(&mut rig.graph);
        let k = Actor::kernel();
        let battery = rig.graph.battery();
        let mut reserves = Vec::new();
        for name in ["rss", "mail"] {
            let r = rig
                .graph
                .create_reserve(&k, name, Label::default_label())
                .unwrap();
            rig.graph
                .create_tap(
                    &k,
                    &format!("{name}-tap"),
                    battery,
                    r,
                    RateSpec::constant(Power::from_microwatts(37_500)),
                    Label::default_label(),
                )
                .unwrap();
            reserves.push(r);
        }
        assert_eq!(
            netd.request(&mut rig.env(), req(1, reserves[0], 256)),
            SendVerdict::Blocked
        );
        assert_eq!(
            netd.request(&mut rig.env(), req(2, reserves[1], 256)),
            SendVerdict::Blocked
        );
        // 75 mW pooled: 11.875 J threshold needs ≈ 158 s.
        let mut woken = Vec::new();
        for _ in 0..200 {
            rig.advance(SimDuration::from_secs(1));
            woken = netd.poll(&mut rig.env());
            if !woken.is_empty() {
                break;
            }
        }
        assert_eq!(woken.len(), 2, "both threads proceed together");
        assert!(rig.arm9.radio().is_active());
        assert!(rig.now < SimTime::from_secs(180), "granted at {}", rig.now);
        assert_eq!(netd.grants(), 1);
        assert_eq!(netd.waiting(), 0);
    }

    #[test]
    fn active_radio_makes_sends_cheap() {
        let mut rig = Rig::new();
        let mut netd = CoopNetd::with_defaults(&mut rig.graph);
        let rich = rig.reserve_with("rich", 20);
        let poor = rig.reserve_with("poor", 1);
        assert_eq!(
            netd.request(&mut rig.env(), req(1, rich, 100)),
            SendVerdict::Sent
        );
        // One second later the radio is active: the marginal cost of a poor
        // thread's send is ~1 s of plateau (≈0.43 J), covered by its 1 J.
        rig.advance(SimDuration::from_secs(1));
        assert_eq!(
            netd.request(&mut rig.env(), req(2, poor, 100)),
            SendVerdict::Sent
        );
        assert_eq!(netd.grants(), 2);
    }

    #[test]
    fn rx_costs_are_billed_to_requester() {
        let mut rig = Rig::new();
        let mut netd = CoopNetd::with_defaults(&mut rig.graph);
        let r = rig.reserve_with("poller", 20);
        let request = SendRequest {
            thread: ThreadId::test_id(1),
            reserve: r,
            byte_reserve: None,
            tx_bytes: 64,
            rx_bytes: 4_096,
            extra_delay: SimDuration::ZERO,
            wakes: false,
        };
        assert_eq!(netd.request(&mut rig.env(), request), SendVerdict::Sent);
        assert_eq!(rig.outbox.len(), 1);
        assert_eq!(rig.outbox[0].bill, Some(r));
        assert_eq!(rig.outbox[0].bytes, 4_096);
    }

    #[test]
    fn pool_is_decay_exempt() {
        let mut rig = Rig::new();
        let netd = CoopNetd::with_defaults(&mut rig.graph);
        let pool = netd.pool_reserve().unwrap();
        assert!(rig.graph.reserve(pool).unwrap().is_decay_exempt());
    }

    #[test]
    fn conservation_through_netd_cycle() {
        let mut rig = Rig::new();
        let mut netd = CoopNetd::with_defaults(&mut rig.graph);
        let r = rig.reserve_with("poller", 2);
        let _ = netd.request(&mut rig.env(), req(1, r, 100));
        for _ in 0..300 {
            rig.advance(SimDuration::from_secs(1));
            let _ = netd.poll(&mut rig.env());
            assert!(rig.graph.totals().conserved());
        }
    }
}
