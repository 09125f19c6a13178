//! The `FlowEngine`: indexed, allocation-free batch tap execution with
//! closed-form fast-forward.
//!
//! The paper notes that tap transfers "are executed in batch periodically to
//! minimize scheduling and context-switch overheads" (§3.3). The original
//! `flow_one_tick` honoured the batching but not the *minimize*: every tick
//! it allocated a fresh `BTreeMap` snapshot of **all** reserve levels and a
//! `Vec` of **all** tap ids, making `flow_until(1 hour)` cost
//! O(ticks × (R + T) log R) with two heap allocations per tick. This module
//! replaces that loop while preserving its semantics bit-for-bit (asserted
//! by the differential property tests below against the naive reference
//! model, `ResourceGraph::flow_until_reference`, built for tests and under
//! the `reference-flow` feature):
//!
//! * **Per-source adjacency index** — tap lists keyed by source reserve, in
//!   tap-creation order, maintained incrementally by
//!   [`crate::ResourceGraph::create_tap`] / `delete_tap` / `set_tap_rate` /
//!   `delete_reserve`. A global creation-order list drives application, so
//!   the documented oversubscription rule (earlier-created taps win) is
//!   unchanged.
//! * **Compiled single tick** — `FlowEngine::tick`, the kernel's
//!   per-quantum flow, runs over a plan compiled from the creation-order
//!   list: each nonzero-rate tap's ids with its rate pre-multiplied by the
//!   tick (`µW·dt_µs`, or `ppm·dt_µs` plus the slot of its source's
//!   start-of-tick level). Zero-rate taps are left out — a tick moves
//!   nothing through them and keeps their carry, and a re-rate resets the
//!   carry — so the plan is exact. The tap hooks (create, remove, re-rate;
//!   reserve GC removes taps) mark it stale, and it also recompiles for a
//!   different tick. Start-of-tick levels are read only for the sources of
//!   proportional taps: zero steady-state allocation.
//! * **Division-free carry splits** — a carry total is split by 10⁶
//!   (constant) or 10¹² (proportional) in u64, where division by a constant
//!   is a multiply and shift, falling back to the exact u128 division when
//!   the total overflows u64 (a proportional tap on a full battery above
//!   ~12,300 ppm/s does); the decay leak likewise runs in i64 when
//!   `level·ppm` fits. Quotients and remainders are the reference's:
//!   `Tap::desired_transfer` and the reference loop keep
//!   their u128/i128 arithmetic, so the oracle stays independent.
//! * **Quiescent-source skipping** — a proportional tap whose source
//!   snapshot is non-positive moves nothing and leaves its carry untouched,
//!   so it is skipped without computing a transfer.
//! * **Partitioned closed-form fast-forward** — each multi-tick
//!   `flow_until` span is planned as a *run*: sources are classified into a
//!   **dynamic** partition (sources of live proportional taps, sources near
//!   their clamp boundary, and empty sources that taps may refill) and a
//!   **linear** partition (provably covered for the whole run, or provably
//!   starved with no inflow). Every tap adjacent to a dynamic reserve is
//!   executed tick by tick over a flat structure-of-arrays loop (dense
//!   slots, no map or arena lookups); every other tap is applied in closed
//!   form over the whole run. An all-constant decay-free graph degenerates
//!   to the pure closed form (the whole span is one event); a mixed graph
//!   pays per-tick cost only for its proportional *island*, not the whole
//!   graph.
//! * **Decay lanes** — decaying sources are dynamic; exempt ones (the
//!   battery too: decay only credits it) take the coverage test. While the
//!   battery is not dynamic, a decaying reserve no tap drains and only
//!   constant taps from covered or starved sources feed is a *lane*, run
//!   alone in a scalar loop; other fed decaying reserves are dynamic.
//!
//! The partition is sound because a covered source can never clamp (its
//! balance bounds the run length, counting every out-tap in either
//! partition), so the in-run timing of its closed-formed transfers is
//! unobservable; every flow adjacent to a dynamic reserve is ticked, so
//! proportional snapshots and clamp order (tap creation order) see exactly
//! the per-tick trajectory the reference model computes; and a lane's level
//! reaches nothing but its own leak.
//!
//! The engine lives inside [`crate::ResourceGraph`]; it has no public
//! surface of its own.

use std::collections::{BTreeMap, HashMap};

use cinder_sim::{Energy, SimDuration};

use crate::arena::{Arena, RawId};
use crate::graph::TapId;
use crate::reserve::Reserve;
use crate::tap::{RateSpec, Tap};

/// Per-source slice of the adjacency index.
#[derive(Debug, Default)]
struct SourceTaps {
    /// This source's outgoing taps, keyed by creation sequence — iteration
    /// is creation order, removal is O(log n) (reserve GC can revoke many
    /// taps at once, e.g. a browser page's container being unlinked).
    taps: BTreeMap<u64, TapId>,
    /// How many of them are proportional with a nonzero rate.
    live_prop: usize,
}

/// What the run planner decided about one source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SourceRun {
    /// Balance provably covers the whole run: transfers apply unclamped, in
    /// closed form.
    Covered,
    /// Non-positive balance and no inflow: every transfer clamps to zero,
    /// only tap carries advance (closed form).
    Starved,
    /// Tick-by-tick trajectory matters: a live proportional tap reads this
    /// source's level, or it may clamp (or come alive) mid-run, or (a
    /// sink) it decays while a tap fills it. All taps touching a dynamic
    /// reserve join the ticked partition.
    Dynamic,
}

/// Decaying reserves no tap drains and only constant taps from sources
/// that cannot clamp feed, so nothing else reads their levels. Each tick a
/// lane credits what its feeds' carries release, then leaks ⌊L·ppm/10⁶⌋
/// ([`FlowEngine::tick`]'s order); the battery takes the summed leaks once,
/// and the feeds settle in closed form. Scratch for
/// [`FlowEngine::run_span`] and [`crate::ResourceGraph::settle_pooled`].
#[derive(Debug, Default)]
pub(crate) struct Lanes {
    /// Each lane's reserve and its level when opened.
    lanes: Vec<(RawId, i64)>,
    /// Each feed's lane, `rate_µW × tick_µs`, and carry when registered.
    feeds: Vec<(usize, u128, u128)>,
}

impl Lanes {
    /// Opens a lane; only its [`Lanes::feed`]s may credit it until settled.
    pub(crate) fn open(&mut self, reserves: &Arena<Reserve>, reserve: RawId) {
        let level = reserves.get(reserve).map(|r| r.balance().as_microjoules());
        self.lanes.push((reserve, level.unwrap_or(0)));
    }

    fn position(&self, reserve: RawId) -> Option<usize> {
        self.lanes.iter().position(|&(r, _)| r == reserve)
    }

    /// Registers `tap` if it is a constant feed of a lane that delivers
    /// unclamped over the run.
    pub(crate) fn feed(&mut self, tap: &Tap, dt_us: u128) {
        if let (Some(lane), RateSpec::Const(p)) = (self.position(tap.sink().0), tap.rate()) {
            let step = u128::from(p.as_microwatts()) * dt_us;
            self.feeds.push((lane, step, tap.remainder()));
        }
    }

    /// Runs every lane `ticks` ticks, debits each lane's leaks as decay,
    /// credits their sum to `battery`, and closes the lanes.
    pub(crate) fn settle(
        &mut self,
        reserves: &mut Arena<Reserve>,
        battery: RawId,
        ppm: u64,
        ticks: u64,
    ) {
        let mut reclaimed = 0;
        for (lane, &(reserve, mut level)) in self.lanes.iter().enumerate() {
            let fed = self.feeds.iter().any(|f| f.0 == lane && f.1 > 0);
            let mut leaked = 0;
            for _ in 0..ticks {
                for (_, step, carry) in self.feeds.iter_mut().filter(|f| f.0 == lane) {
                    let (moved, kept) = split::<1_000_000>(*step + *carry);
                    *carry = kept;
                    level += moved;
                }
                let leak = if level > 0 { decay_leak(level, ppm) } else { 0 };
                if leak == 0 && !fed {
                    break; // unfed, the level only falls: the leak stays zero
                }
                level -= leak;
                leaked += leak;
            }
            if let Some(r) = reserves.get_mut(reserve).filter(|_| leaked > 0) {
                r.debit_decay(Energy::from_microjoules(leaked));
                reclaimed += leaked;
            }
        }
        if reclaimed > 0 {
            reserves
                .get_mut(battery)
                .expect("battery is never deleted")
                .credit(Energy::from_microjoules(reclaimed));
        }
        self.lanes.clear();
        self.feeds.clear();
    }
}

/// How a ticked tap computes its per-tick desired transfer (the image of
/// [`RateSpec`] with the tick span pre-multiplied in), in the compiled
/// single tick and the run's SoA loop alike.
#[derive(Debug, Clone, Copy)]
enum TickRate {
    /// `step = rate_µW × dt_µs`; per tick `carry' = (carry + step) mod 1e6`
    /// and `⌊(carry + step)/1e6⌋` µJ move.
    Const { step: u128 },
    /// `ppm_dt = ppm × dt_µs`; per tick the start-of-tick source level is
    /// read from snapshot entry `snap_idx`, and `⌊(level·ppm_dt +
    /// carry)/1e12⌋` µJ move.
    Prop { ppm_dt: u128, snap_idx: u32 },
}

/// One tap of the ticked (dynamic) partition, resolved to dense slots.
#[derive(Debug, Clone, Copy)]
struct TickedTap {
    raw: RawId,
    src: u32,
    dst: u32,
    rate: TickRate,
    carry: u128,
}

/// The taps sinking into one reserve, summarised by rate class.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Inbound {
    /// Taps of any rate.
    pub(crate) taps: u32,
    /// Constant taps with a nonzero rate.
    pub(crate) const_feeds: u32,
    /// Their summed rate, µW.
    pub(crate) const_uw: u64,
    /// Proportional taps with a nonzero rate.
    pub(crate) live_prop: u32,
    /// The constant feeds' source ids folded with XOR
    /// ([`RawId::to_bits`]): exactly the sole feed's source when
    /// `const_feeds == 1`.
    const_sources: u64,
}

impl Inbound {
    /// The source of the only constant feed, if there is exactly one.
    pub(crate) fn sole_const_source(&self) -> Option<RawId> {
        (self.const_feeds == 1).then(|| RawId::from_bits(self.const_sources))
    }

    /// Counts (`add`) or uncounts a feed of `rate` from `source`.
    fn count(&mut self, source: RawId, rate: RateSpec, add: bool) {
        match rate {
            RateSpec::Const(p) if p.as_microwatts() > 0 => {
                if add {
                    self.const_feeds += 1;
                    self.const_uw += p.as_microwatts();
                } else {
                    self.const_feeds -= 1;
                    self.const_uw -= p.as_microwatts();
                }
                self.const_sources ^= source.to_bits();
            }
            RateSpec::Proportional { ppm_per_s } if ppm_per_s > 0 => {
                if add {
                    self.live_prop += 1;
                } else {
                    self.live_prop -= 1;
                }
            }
            _ => {}
        }
    }
}

/// One live tap of the compiled single tick.
#[derive(Debug, Clone, Copy)]
struct PlanTap {
    tap: RawId,
    source: RawId,
    sink: RawId,
    /// `snap_idx` indexes [`TickPlan::sources`].
    rate: TickRate,
}

/// [`FlowEngine::tick`] compiled from the creation-order list: every
/// nonzero-rate tap with its rate pre-multiplied by the tick, and the
/// sources whose start-of-tick levels the proportional taps read.
///
/// A zero-rate tap is left out: a tick moves nothing through it and keeps
/// its carry, and a re-rate (which resets the carry) recompiles the plan.
#[derive(Debug, Default)]
struct TickPlan {
    /// The tick the rates were multiplied by; `None` marks the plan stale.
    dt: Option<SimDuration>,
    /// The live taps, in creation (clamp-priority) order.
    taps: Vec<PlanTap>,
    /// Distinct sources of the proportional taps, and their start-of-tick
    /// levels (parallel arrays; the levels are per-tick scratch).
    sources: Vec<RawId>,
    levels: Vec<i64>,
}

/// Splits a carry total into the whole grains it moves and the carry it
/// keeps: `((total / UNIT) as i64, total % UNIT)`. In u64 when the total
/// fits, where division by a constant compiles to a multiply and shift;
/// by the exact u128 division otherwise. Identical results either way.
#[inline]
fn split<const UNIT: u64>(total: u128) -> (i64, u128) {
    match u64::try_from(total) {
        Ok(t) => ((t / UNIT) as i64, u128::from(t % UNIT)),
        Err(_) => ((total / u128::from(UNIT)) as i64, total % u128::from(UNIT)),
    }
}

/// The decay leak of a positive `level`: [`Energy::scale_ppm`]'s
/// `⌊level·ppm/10⁶⌋`, in i64 when `level·ppm` fits and in i128 otherwise.
#[inline]
fn decay_leak(level: i64, ppm: u64) -> i64 {
    match i64::try_from(ppm).ok().and_then(|p| level.checked_mul(p)) {
        Some(scaled) => scaled / 1_000_000,
        None => Energy::from_microjoules(level)
            .scale_ppm(ppm)
            .as_microjoules(),
    }
}

/// Indexed batch-flow executor. See the module docs for the design.
pub(crate) struct FlowEngine {
    /// All live taps as `(seq, id)`, sorted by creation sequence
    /// ([`Tap::seq`]) — iteration is the application order that defines
    /// oversubscription priority. Seqs are assigned monotonically, so
    /// insertion is a push; removal is a binary search plus shift. A dense
    /// vector beats a tree here because the per-tick loop walks it once per
    /// tick, while mutation is comparatively rare.
    order: Vec<(u64, TapId)>,
    /// Tap lists keyed by source reserve.
    by_source: HashMap<RawId, SourceTaps>,
    /// What feeds each reserve, indexed by reserve slot
    /// ([`RawId::index`]): O(1) "can a tap refill this reserve?" for run
    /// planning and the kernel's held-send guard, and the constant-feed
    /// bound behind [`crate::ResourceGraph::quiet_ticks`]. A reserve's
    /// taps are revoked before its slot can be reused, so a live reserve
    /// only ever reads its own entry.
    inbound: Vec<Inbound>,
    /// Total live proportional (nonzero-rate) taps; the pure closed form
    /// (empty ticked partition) requires zero.
    live_prop: usize,
    /// The single tick, compiled from `order`; every tap hook marks it
    /// stale (reserve GC reaches it through tap removal).
    plan: TickPlan,
    /// Scratch for run planning, reused across calls.
    run_plan: HashMap<RawId, SourceRun>,
    // ----- ticked-partition scratch (reused across runs) -----------------
    /// The ticked taps, in creation (seq) order — the clamp-priority order.
    ticked: Vec<TickedTap>,
    /// Dense slot assignment for every reserve a ticked tap touches.
    slot_of: HashMap<RawId, u32>,
    /// Reverse map: slot → reserve, for writeback.
    slot_raw: Vec<RawId>,
    /// Working balances (µJ grains) per slot.
    levels: Vec<i64>,
    /// Accumulated tap inflow / outflow per slot, applied to the reserve
    /// stats once at writeback (sums — identical to per-tick application).
    in_acc: Vec<i64>,
    out_acc: Vec<i64>,
    /// Slots needing a start-of-tick snapshot (proportional sources), and
    /// the snapshot values themselves (parallel arrays).
    prop_slots: Vec<u32>,
    snap: Vec<i64>,
    /// Slots subject to the global decay this run (Energy, non-exempt,
    /// not a lane), and the per-slot decayed totals.
    decay_slots: Vec<u32>,
    decay_acc: Vec<i64>,
    /// Decay-eligible reserves (Energy kind, not exempt), maintained by the
    /// graph's reserve lifecycle so neither the per-tick decay nor run
    /// planning walks the whole arena. Order is immaterial: per-reserve
    /// leaks are independent and the battery is credited once.
    decay_eligible: Vec<RawId>,
    /// The decay lanes of the run being settled.
    pub(crate) lanes: Lanes,
}

fn is_live_prop(rate: RateSpec) -> bool {
    matches!(rate, RateSpec::Proportional { ppm_per_s } if ppm_per_s > 0)
}

impl FlowEngine {
    pub(crate) fn new() -> Self {
        FlowEngine {
            order: Vec::new(),
            by_source: HashMap::new(),
            inbound: Vec::new(),
            live_prop: 0,
            plan: TickPlan::default(),
            run_plan: HashMap::new(),
            ticked: Vec::new(),
            slot_of: HashMap::new(),
            slot_raw: Vec::new(),
            levels: Vec::new(),
            in_acc: Vec::new(),
            out_acc: Vec::new(),
            prop_slots: Vec::new(),
            snap: Vec::new(),
            decay_slots: Vec::new(),
            decay_acc: Vec::new(),
            decay_eligible: Vec::new(),
            lanes: Lanes::default(),
        }
    }

    /// Reserve-lifecycle hooks: track decay eligibility (Energy kind and
    /// not exempt). Called by every graph path that creates, deletes, or
    /// re-flags a reserve.
    pub(crate) fn on_reserve_eligibility(&mut self, reserve: RawId, eligible: bool) {
        let present = self.decay_eligible.iter().position(|&r| r == reserve);
        match (eligible, present) {
            (true, None) => self.decay_eligible.push(reserve),
            (false, Some(i)) => {
                self.decay_eligible.swap_remove(i);
            }
            _ => {}
        }
    }

    /// True when the global decay cannot move a microjoule this tick (and
    /// so, absent balance writes, on any later tick either): every
    /// decay-eligible balance is non-positive or small enough that its
    /// per-tick leak rounds to zero. Mirrors the run planner's inert-decay
    /// test; `ResourceGraph::flow_is_frozen` composes it with the
    /// starved-taps check. Reserves for which `skip` holds are left out
    /// (the pooled-run certificate bounds its swept waiters separately).
    pub(crate) fn decay_is_inert(
        &self,
        reserves: &Arena<Reserve>,
        decay_ppm_per_tick: u64,
        skip: impl Fn(RawId) -> bool,
    ) -> bool {
        decay_ppm_per_tick == 0
            || self.decay_eligible.iter().all(|&rid| {
                skip(rid)
                    || reserves.get(rid).is_none_or(|r| {
                        let b = r.balance();
                        !b.is_positive() || !b.scale_ppm(decay_ppm_per_tick).is_positive()
                    })
            })
    }

    // ----- index maintenance (called by ResourceGraph mutators) ----------

    /// Registers a newly created tap.
    pub(crate) fn on_tap_created(
        &mut self,
        id: TapId,
        seq: u64,
        source: RawId,
        sink: RawId,
        rate: RateSpec,
    ) {
        debug_assert!(self.order.last().is_none_or(|&(s, _)| s < seq));
        self.order.push((seq, id));
        let entry = self.by_source.entry(source).or_default();
        entry.taps.insert(seq, id);
        let slot = sink.index() as usize;
        if slot >= self.inbound.len() {
            self.inbound.resize(slot + 1, Inbound::default());
        }
        let feeds = &mut self.inbound[slot];
        feeds.taps += 1;
        feeds.count(source, rate, true);
        if is_live_prop(rate) {
            entry.live_prop += 1;
            self.live_prop += 1;
        }
        self.plan.dt = None;
    }

    /// Unregisters a tap about to be (or just) removed.
    pub(crate) fn on_tap_removed(&mut self, seq: u64, source: RawId, sink: RawId, rate: RateSpec) {
        if let Ok(i) = self.order.binary_search_by_key(&seq, |&(s, _)| s) {
            self.order.remove(i);
        }
        if let Some(entry) = self.by_source.get_mut(&source) {
            entry.taps.remove(&seq);
            if is_live_prop(rate) {
                entry.live_prop -= 1;
                self.live_prop -= 1;
            }
            if entry.taps.is_empty() {
                self.by_source.remove(&source);
            }
        }
        self.plan.dt = None;
        let feeds = &mut self.inbound[sink.index() as usize];
        feeds.taps -= 1;
        feeds.count(source, rate, false);
    }

    /// Whether any live tap (of any rate) sinks into `reserve` — O(1).
    pub(crate) fn has_inbound(&self, reserve: RawId) -> bool {
        self.inbound(reserve).taps > 0
    }

    /// The summary of the taps sinking into `reserve` — O(1).
    pub(crate) fn inbound(&self, reserve: RawId) -> Inbound {
        self.inbound
            .get(reserve.index() as usize)
            .copied()
            .unwrap_or_default()
    }

    /// The live taps draining `reserve`, in creation order — O(outbound
    /// taps of that reserve), off the per-source adjacency index.
    pub(crate) fn outbound(&self, reserve: RawId) -> impl Iterator<Item = TapId> + '_ {
        self.by_source
            .get(&reserve)
            .into_iter()
            .flat_map(|entry| entry.taps.values().copied())
    }

    /// Updates prop/const classification when a tap's rate changes.
    pub(crate) fn on_tap_rate_changed(
        &mut self,
        source: RawId,
        sink: RawId,
        old: RateSpec,
        new: RateSpec,
    ) {
        let feeds = &mut self.inbound[sink.index() as usize];
        feeds.count(source, old, false);
        feeds.count(source, new, true);
        self.plan.dt = None;
        let (was, is) = (is_live_prop(old), is_live_prop(new));
        if was == is {
            return;
        }
        let entry = self
            .by_source
            .get_mut(&source)
            .expect("rate change on unindexed tap");
        if is {
            entry.live_prop += 1;
            self.live_prop += 1;
        } else {
            entry.live_prop -= 1;
            self.live_prop -= 1;
        }
    }

    /// True when no live proportional tap exists (the whole graph is
    /// closed-form eligible). Test introspection; the planner re-derives
    /// this per source.
    #[cfg(test)]
    pub(crate) fn all_const(&self) -> bool {
        self.live_prop == 0
    }

    #[cfg(test)]
    pub(crate) fn index_len(&self) -> (usize, usize) {
        (self.order.len(), self.by_source.len())
    }

    // ----- per-tick execution ---------------------------------------------

    /// Compiles [`FlowEngine::tick`]'s plan for ticks of `dt` from the
    /// creation-order list.
    fn compile(&mut self, taps: &Arena<Tap>, dt: SimDuration) {
        let dt_us = u128::from(dt.as_micros());
        let plan = &mut self.plan;
        plan.taps.clear();
        plan.sources.clear();
        for &(_, tid) in &self.order {
            let tap = taps.get(tid.0).expect("flow index out of sync");
            let source = tap.source().0;
            let rate = match tap.rate() {
                RateSpec::Const(p) if p.as_microwatts() > 0 => TickRate::Const {
                    step: u128::from(p.as_microwatts()) * dt_us,
                },
                RateSpec::Proportional { ppm_per_s } if ppm_per_s > 0 => {
                    let snap_idx = match plan.sources.iter().position(|&s| s == source) {
                        Some(i) => i,
                        None => {
                            plan.sources.push(source);
                            plan.sources.len() - 1
                        }
                    };
                    TickRate::Prop {
                        ppm_dt: u128::from(ppm_per_s) * dt_us,
                        snap_idx: snap_idx as u32,
                    }
                }
                // Zero rate: the tick moves nothing and keeps the carry.
                _ => continue,
            };
            plan.taps.push(PlanTap {
                tap: tid.0,
                source,
                sink: tap.sink().0,
                rate,
            });
        }
        plan.levels.clear();
        plan.levels.resize(plan.sources.len(), 0);
        plan.dt = Some(dt);
    }

    /// Runs one batch tick: taps in creation order against start-of-tick
    /// source levels, then the global decay. Runs over the compiled plan,
    /// recompiled first if a tap hook marked it stale or `dt` changed.
    /// Semantically identical to the naive reference loop, without its
    /// per-tick allocations.
    pub(crate) fn tick(
        &mut self,
        reserves: &mut Arena<Reserve>,
        taps: &mut Arena<Tap>,
        battery: RawId,
        decay_ppm_per_tick: u64,
        dt: SimDuration,
    ) {
        if self.plan.dt != Some(dt) {
            self.compile(taps, dt);
        }
        let plan = &mut self.plan;
        for (level, &source) in plan.levels.iter_mut().zip(&plan.sources) {
            *level = reserves
                .get(source)
                .map_or(0, |r| r.balance().as_microjoules());
        }
        for entry in &plan.taps {
            let tap = taps.get_mut(entry.tap).expect("the plan holds live taps");
            let desired = match entry.rate {
                TickRate::Const { step } => {
                    let (moved, carry) = split::<1_000_000>(step + tap.remainder());
                    tap.set_remainder(carry);
                    moved
                }
                TickRate::Prop { ppm_dt, snap_idx } => {
                    let level = plan.levels[snap_idx as usize];
                    if level <= 0 {
                        // Quiescent source: the transfer is zero and the
                        // carry is untouched — skip the arithmetic.
                        continue;
                    }
                    let total = level as u128 * ppm_dt + tap.remainder();
                    let (moved, carry) = split::<1_000_000_000_000>(total);
                    tap.set_remainder(carry);
                    moved
                }
            };
            if desired == 0 {
                continue;
            }
            let Some(src) = reserves.get_mut(entry.source) else {
                continue;
            };
            let amount = desired.min(src.balance().as_microjoules().max(0));
            if amount == 0 {
                continue;
            }
            let amount = Energy::from_microjoules(amount);
            src.debit_outflow(amount);
            reserves
                .get_mut(entry.sink)
                .expect("taps to dead sinks are GC'd")
                .credit(amount);
        }
        if decay_ppm_per_tick > 0 {
            let mut reclaimed = 0;
            for &rid in &self.decay_eligible {
                let Some(r) = reserves.get_mut(rid) else {
                    continue;
                };
                let level = r.balance().as_microjoules();
                if level <= 0 {
                    continue;
                }
                let leak = decay_leak(level, decay_ppm_per_tick);
                if leak > 0 {
                    r.debit_decay(Energy::from_microjoules(leak));
                    reclaimed += leak;
                }
            }
            if reclaimed > 0 {
                reserves
                    .get_mut(battery)
                    .expect("battery is never deleted")
                    .credit(Energy::from_microjoules(reclaimed));
            }
        }
    }

    // ----- partitioned closed-form fast-forward ---------------------------

    /// Whether [`FlowEngine::run_span`] declines a span of `ticks` outright:
    /// with a live proportional tap or decay, planning and the SoA build
    /// cost more than ticking a span shorter than `MIN_PARTITIONED_SPAN`.
    pub(crate) fn declines_span(&self, ticks: u64, decaying: bool) -> bool {
        (self.live_prop > 0 || decaying) && ticks < MIN_PARTITIONED_SPAN
    }

    /// Attempts to advance up to `max_ticks` ticks as one planned *run*,
    /// returning how many were applied (0 means: run one tick the slow
    /// way).
    ///
    /// Sources are classified per run:
    ///
    /// * **Dynamic** — a live proportional tap reads this source's level,
    ///   or decay re-shapes it every tick, or it could clamp mid-run
    ///   (balance covers less than the demotion threshold of the span), or
    ///   it is empty but a tap may refill it. Every tap touching a dynamic
    ///   reserve (either endpoint) joins the ticked partition and is
    ///   executed tick by tick over dense SoA arrays — bit-identical to
    ///   [`FlowEngine::tick`], minus the map and arena lookups.
    /// * **Covered** — balance ≥ n × an upper bound of its per-tick outflow
    ///   (each const tap moves at most ⌊(p·dt + 999_999)/1e6⌋ µJ per tick,
    ///   counting taps of *both* partitions), so no clamp can engage within
    ///   the run and its closed-formed taps telescope exactly
    ///   ([`Tap::bulk_advance_const`]). Decay-exempt sources qualify under
    ///   decay too: decay only ever credits the battery.
    /// * **Starved** — non-positive balance, no inbound tap, no live
    ///   proportional outflow *or* provably stuck at ≤ 0: every transfer
    ///   clamps to zero for the whole run, only carries advance.
    ///
    /// With decay on, decaying reserves no tap drains are [`Lanes`] or
    /// dynamic sinks (see the module docs). With no dynamic reserve this is
    /// the pure closed form plus the lanes; otherwise only the dynamic
    /// island pays per-tick cost.
    pub(crate) fn run_span(
        &mut self,
        reserves: &mut Arena<Reserve>,
        taps: &mut Arena<Tap>,
        dt: SimDuration,
        max_ticks: u64,
        decay_ppm_per_tick: u64,
        battery: RawId,
    ) -> u64 {
        debug_assert!(max_ticks > 0);
        let decaying = decay_ppm_per_tick > 0;
        if self.order.is_empty() && !decaying {
            // No taps at all: nothing moves, whole span is one event.
            return max_ticks;
        }
        if self.declines_span(max_ticks, decaying) {
            return 0;
        }
        let dt_us = dt.as_micros() as u128;

        // ----- plan: classify every source ------------------------------
        // A source whose balance covers less than `demote_below` ticks is
        // ticked rather than letting it cap the whole run near 1: ticking a
        // few taps per tick is cheaper than replanning O(R + T) every
        // handful of ticks.
        let demote_below = (max_ticks / 4).max(MIN_PARTITIONED_SPAN);
        self.run_plan.clear();
        let mut n = max_ticks;
        let mut any_dynamic = false;
        for (&source, entry) in &self.by_source {
            let reserve = reserves.get(source);
            let balance = reserve.map(|r| r.balance());
            let decays = decaying
                && reserve.is_some_and(|r| {
                    r.kind() == crate::kind::ResourceKind::Energy && !r.is_decay_exempt()
                });
            if entry.live_prop > 0 || decays {
                // A live proportional tap reads this level every tick, and
                // decay re-shapes a positive decaying balance every tick —
                // unless the source is provably stuck at ≤ 0 (no inflow
                // possible), in which case nothing ever moves or touches a
                // carry and the whole run is a no-op for its taps.
                let stuck = balance.is_some_and(|b| !b.is_positive()) && !self.has_inbound(source);
                if stuck {
                    self.run_plan.insert(source, SourceRun::Starved);
                } else {
                    self.run_plan.insert(source, SourceRun::Dynamic);
                    any_dynamic = true;
                }
                continue;
            }
            // Upper bound of this source's per-tick outflow in µJ.
            let mut bound_uj: u128 = 0;
            for &tid in entry.taps.values() {
                let tap = taps.get(tid.0).expect("flow index out of sync");
                if let RateSpec::Const(p) = tap.rate() {
                    bound_uj += (p.as_microwatts() as u128 * dt_us).div_ceil(1_000_000);
                }
            }
            if bound_uj == 0 {
                // Only zero-rate taps: inert, no constraint either way
                // (closed form moves zero and leaves carries untouched,
                // exactly like the per-tick loop).
                continue;
            }
            let Some(balance) = balance else {
                // Dead source (unreachable: reserve GC revokes its taps):
                // carries advance, nothing can move.
                self.run_plan.insert(source, SourceRun::Starved);
                continue;
            };
            if balance.is_positive() {
                let n_src = (balance.as_microjoules() as u128 / bound_uj) as u64;
                if n_src < demote_below {
                    // Near the clamp boundary: tick it out.
                    self.run_plan.insert(source, SourceRun::Dynamic);
                    any_dynamic = true;
                } else {
                    n = n.min(n_src);
                    self.run_plan.insert(source, SourceRun::Covered);
                }
            } else if self.has_inbound(source) {
                // Empty (or indebted) but refillable: it may come alive
                // mid-run, so its clamps must be computed per tick.
                self.run_plan.insert(source, SourceRun::Dynamic);
                any_dynamic = true;
            } else {
                self.run_plan.insert(source, SourceRun::Starved);
            }
        }

        // A drained battery is not starved while decay may credit it: a
        // leak, or a flow into a decaying reserve, revives its taps.
        if decaying
            && self.run_plan.get(&battery) == Some(&SourceRun::Starved)
            && (self.run_plan.values().any(|&run| run != SourceRun::Starved)
                || !self.decay_is_inert(reserves, decay_ppm_per_tick, |_| false))
        {
            self.run_plan.insert(battery, SourceRun::Dynamic);
            any_dynamic = true;
        }

        // ----- lanes: the decaying reserves nothing else reads -----------
        // Lane leaks reach the battery at the run's end, so a dynamic
        // battery closes every lane. A feed that could not feed a lane
        // makes its sink dynamic: its inflow must land each tick ahead of
        // its decay.
        if decaying {
            let lanes = self.run_plan.get(&battery) != Some(&SourceRun::Dynamic);
            self.open_lanes(reserves, |_| false);
            for &(_, tid) in &self.order {
                let tap = taps.get(tid.0).expect("flow index out of sync");
                let Some(lane) = self.lanes.position(tap.sink().0) else {
                    continue;
                };
                let source = self.run_plan.get(&tap.source().0);
                if !lanes
                    || !matches!(tap.rate(), RateSpec::Const(_))
                    || !matches!(source, Some(SourceRun::Covered | SourceRun::Starved))
                {
                    self.lanes.lanes.swap_remove(lane);
                    self.run_plan.insert(tap.sink().0, SourceRun::Dynamic);
                    any_dynamic = true;
                }
            }
            if !lanes {
                self.lanes.lanes.clear(); // unfed: decayed in the SoA loop
            }
        }

        // With nothing dynamic, no closed form below touches a decaying
        // balance but a lane's. If every other decaying balance is too
        // small for its leak to round above zero, the SoA decay pass is a
        // provable no-op: skip the SoA build and the per-tick loop. This
        // is what lets a drained device settle a span in O(R + T) instead
        // of O(ticks) — the fleet's dead-battery tail.
        let decay_inert = decaying
            && !any_dynamic
            && self.decay_is_inert(reserves, decay_ppm_per_tick, |rid| {
                self.lanes.position(rid).is_some()
            });

        // ----- apply the linear partition, collect the ticked one --------
        // Still in creation order (order is immaterial in an unclamped
        // linear run, but keeping it makes review trivial). Ticked taps are
        // gathered in the same order, which *is* their clamp priority.
        self.ticked.clear();
        self.slot_of.clear();
        self.slot_raw.clear();
        self.levels.clear();
        self.prop_slots.clear();
        self.decay_slots.clear();
        let mut battery_slot = u32::MAX;
        if decaying && !decay_inert {
            // Every decaying reserve but the lanes joins the ticked arrays,
            // plus the battery to receive the leakage. Safe to slot before
            // the closed forms below: they touch no dynamic or decaying
            // reserve but the lanes, and writeback applies deltas.
            for i in 0..self.decay_eligible.len() {
                let rid = self.decay_eligible[i];
                debug_assert!(rid != battery, "battery is always exempt");
                if self.lanes.position(rid).is_some() {
                    continue;
                }
                let slot = slot_for(
                    &mut self.slot_of,
                    &mut self.slot_raw,
                    &mut self.levels,
                    reserves,
                    rid,
                );
                self.decay_slots.push(slot);
            }
            battery_slot = slot_for(
                &mut self.slot_of,
                &mut self.slot_raw,
                &mut self.levels,
                reserves,
                battery,
            );
        }
        for oi in 0..self.order.len() {
            let tid = self.order[oi].1;
            let tap = taps.get_mut(tid.0).expect("flow index out of sync");
            let source = tap.source().0;
            let sink = tap.sink().0;
            let src_run = self.run_plan.get(&source).copied();
            let dynamic = any_dynamic
                && (src_run == Some(SourceRun::Dynamic)
                    || self.run_plan.get(&sink) == Some(&SourceRun::Dynamic));
            if dynamic {
                let src = slot_for(
                    &mut self.slot_of,
                    &mut self.slot_raw,
                    &mut self.levels,
                    reserves,
                    source,
                );
                let dst = slot_for(
                    &mut self.slot_of,
                    &mut self.slot_raw,
                    &mut self.levels,
                    reserves,
                    sink,
                );
                let rate = match tap.rate() {
                    RateSpec::Const(p) => TickRate::Const {
                        step: p.as_microwatts() as u128 * dt_us,
                    },
                    RateSpec::Proportional { ppm_per_s } => {
                        // Snapshot slots are deduplicated per source.
                        let snap_idx = match self.prop_slots.iter().position(|&s| s == src) {
                            Some(i) => i as u32,
                            None => {
                                self.prop_slots.push(src);
                                (self.prop_slots.len() - 1) as u32
                            }
                        };
                        TickRate::Prop {
                            ppm_dt: ppm_per_s as u128 * dt_us,
                            snap_idx,
                        }
                    }
                };
                self.ticked.push(TickedTap {
                    raw: tid.0,
                    src,
                    dst,
                    rate,
                    carry: tap.remainder(),
                });
                continue;
            }
            match src_run {
                Some(SourceRun::Starved) => tap.bulk_advance_const_starved(n, dt),
                Some(SourceRun::Covered) | None => {
                    // `None` only happens for all-zero-rate sources, where
                    // the move is zero anyway.
                    self.lanes.feed(tap, dt_us);
                    let moved = tap.bulk_advance_const(n, dt);
                    if moved.is_zero() {
                        continue;
                    }
                    reserves
                        .get_mut(source)
                        .expect("covered source is live")
                        .debit_outflow(moved);
                    reserves
                        .get_mut(sink)
                        .expect("taps to dead sinks are GC'd")
                        .credit(moved);
                }
                Some(SourceRun::Dynamic) => unreachable!("dynamic taps were collected above"),
            }
        }

        // ----- tick the dynamic partition over flat arrays ---------------
        if !self.ticked.is_empty() || (decaying && !decay_inert) {
            self.in_acc.clear();
            self.in_acc.resize(self.levels.len(), 0);
            self.out_acc.clear();
            self.out_acc.resize(self.levels.len(), 0);
            self.decay_acc.clear();
            self.decay_acc.resize(self.levels.len(), 0);
            self.snap.clear();
            self.snap.resize(self.prop_slots.len(), 0);
            for _ in 0..n {
                // Start-of-tick snapshot of proportional source levels.
                for (snap, &slot) in self.snap.iter_mut().zip(&self.prop_slots) {
                    *snap = self.levels[slot as usize];
                }
                for tap in &mut self.ticked {
                    let desired: i64 = match tap.rate {
                        TickRate::Const { step } => {
                            let (moved, carry) = split::<1_000_000>(step + tap.carry);
                            tap.carry = carry;
                            moved
                        }
                        TickRate::Prop { ppm_dt, snap_idx } => {
                            let level = self.snap[snap_idx as usize];
                            if level <= 0 {
                                // Quiescent source: zero transfer, carry
                                // untouched (see FlowEngine::tick).
                                continue;
                            }
                            let total = level as u128 * ppm_dt + tap.carry;
                            let (moved, carry) = split::<1_000_000_000_000>(total);
                            tap.carry = carry;
                            moved
                        }
                    };
                    if desired <= 0 {
                        continue;
                    }
                    let amount = desired.min(self.levels[tap.src as usize].max(0));
                    if amount <= 0 {
                        continue;
                    }
                    self.levels[tap.src as usize] -= amount;
                    self.out_acc[tap.src as usize] += amount;
                    self.levels[tap.dst as usize] += amount;
                    self.in_acc[tap.dst as usize] += amount;
                }
                if decaying {
                    // The global decay, exactly as `decay_tick`: each
                    // positive slot leaks ⌊level·ppm/1e6⌋ back to the
                    // battery.
                    let mut reclaimed: i64 = 0;
                    for &slot in &self.decay_slots {
                        let level = self.levels[slot as usize];
                        if level > 0 {
                            let leak = decay_leak(level, decay_ppm_per_tick);
                            if leak > 0 {
                                self.levels[slot as usize] -= leak;
                                self.decay_acc[slot as usize] += leak;
                                reclaimed += leak;
                            }
                        }
                    }
                    if reclaimed > 0 {
                        self.levels[battery_slot as usize] += reclaimed;
                        self.in_acc[battery_slot as usize] += reclaimed;
                    }
                }
            }
            // Writeback: accumulated stats and balances to the reserves,
            // carries to the taps. Sum-at-once equals tick-at-a-time: the
            // stats are running totals and balance updates commute.
            for (slot, &raw) in self.slot_raw.iter().enumerate() {
                let Some(r) = reserves.get_mut(raw) else {
                    continue; // dead endpoint: nothing ever moved through it
                };
                let inflow = self.in_acc[slot];
                if inflow > 0 {
                    r.credit(Energy::from_microjoules(inflow));
                }
                let outflow = self.out_acc[slot];
                if outflow > 0 {
                    r.debit_outflow(Energy::from_microjoules(outflow));
                }
                let decayed = self.decay_acc[slot];
                if decayed > 0 {
                    r.debit_decay(Energy::from_microjoules(decayed));
                }
            }
            for tap in &self.ticked {
                taps.get_mut(tap.raw)
                    .expect("ticked tap is live")
                    .set_remainder(tap.carry);
            }
        }
        self.lanes.settle(reserves, battery, decay_ppm_per_tick, n);
        n
    }

    /// Opens a lane for every decay-eligible reserve that no tap drains
    /// and `skip` leaves out (a pooled run's swept waiters).
    pub(crate) fn open_lanes(&mut self, reserves: &Arena<Reserve>, skip: impl Fn(RawId) -> bool) {
        for &rid in &self.decay_eligible {
            if !skip(rid) && !self.by_source.contains_key(&rid) {
                self.lanes.open(reserves, rid);
            }
        }
    }
}

/// Below this span length a mixed graph is ticked directly: run planning
/// and SoA assembly cost more than a few indexed ticks.
const MIN_PARTITIONED_SPAN: u64 = 4;

/// Dense-slot assignment for the ticked partition (free function so the
/// borrow checker sees disjoint field borrows).
fn slot_for(
    slot_of: &mut HashMap<RawId, u32>,
    slot_raw: &mut Vec<RawId>,
    levels: &mut Vec<i64>,
    reserves: &Arena<Reserve>,
    reserve: RawId,
) -> u32 {
    *slot_of.entry(reserve).or_insert_with(|| {
        let slot = slot_raw.len() as u32;
        slot_raw.push(reserve);
        levels.push(
            reserves
                .get(reserve)
                .map(|r| r.balance().as_microjoules())
                .unwrap_or(0),
        );
        slot
    })
}

/// One tick of the global anti-hoarding decay: every non-exempt positive
/// **energy** reserve (battery excluded) leaks `ppm` of its level back to
/// the battery. Quota kinds never decay (§9: a data plan does not evaporate
/// for being unspent), which also keeps per-kind conservation exact — bytes
/// must not leak into the joule pool. The naive reference model scans the
/// whole arena; the engine walks its maintained eligible list (identical
/// outcome — per-reserve leaks are independent and summed once).
#[cfg(any(test, feature = "reference-flow"))]
pub(crate) fn decay_tick(reserves: &mut Arena<Reserve>, battery: RawId, ppm: u64) {
    if ppm == 0 {
        return;
    }
    let mut reclaimed = Energy::ZERO;
    for (rid, r) in reserves.iter_mut() {
        if rid == battery
            || r.kind() != crate::kind::ResourceKind::Energy
            || r.is_decay_exempt()
            || !r.balance().is_positive()
        {
            continue;
        }
        let leak = r.balance().scale_ppm(ppm);
        if leak.is_positive() {
            r.debit_decay(leak);
            reclaimed += leak;
        }
    }
    if reclaimed.is_positive() {
        reserves
            .get_mut(battery)
            .expect("battery is never deleted")
            .credit(reclaimed);
    }
}

/// Differential tests: the `FlowEngine` must be **byte-identical** to the
/// naive reference loop (`flow_until_reference`) on every balance, every
/// accounting stat, and the exact µJ conservation totals — across random
/// graph shapes, rates, mutation interleavings, and flow spans long enough
/// to exercise both the per-tick path and the closed-form fast-forward.
#[cfg(test)]
mod differential {
    use cinder_label::Label;
    use cinder_sim::{Energy, Power, SimDuration, SimTime};
    use proptest::prelude::*;

    use crate::graph::{Actor, GraphConfig, ResourceGraph};
    use crate::kind::{Quantity, ResourceKind};
    use crate::reserve::ReserveStats;
    use crate::tap::RateSpec;
    use crate::{ReserveId, TapId};

    /// A randomised graph mutation (applied identically to both graphs).
    ///
    /// The id pool mixes Energy and NetworkBytes reserves (see
    /// `run_differential`), so tap/transfer ops randomly cross kinds —
    /// those fail identically in both implementations, while same-kind ops
    /// flow bytes and joules through the same engine pass.
    #[derive(Debug, Clone)]
    enum Op {
        CreateReserve,
        /// A `NetworkBytes` reserve: multi-kind graphs flow in one pass.
        CreateByteReserve,
        CreateConstTap {
            src: usize,
            dst: usize,
            mw: u64,
        },
        CreatePropTap {
            src: usize,
            dst: usize,
            ppm: u64,
        },
        SetTapRateConst {
            t: usize,
            mw: u64,
        },
        SetTapRateProp {
            t: usize,
            ppm: u64,
        },
        DeleteTap {
            t: usize,
        },
        DeleteReserve {
            r: usize,
        },
        Transfer {
            src: usize,
            dst: usize,
            mj: u64,
        },
        ConsumeWithDebt {
            r: usize,
            mj: u64,
        },
        Flow {
            ms: u64,
        },
        /// Long span: hits the fast-forward path when the tap set allows.
        LongFlow {
            secs: u64,
        },
        SetDecayExempt {
            r: usize,
            exempt: bool,
        },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::CreateReserve),
            Just(Op::CreateByteReserve),
            (0usize..8, 0usize..8, 0u64..2_000)
                .prop_map(|(src, dst, mw)| { Op::CreateConstTap { src, dst, mw } }),
            (0usize..8, 0usize..8, 0u64..1_000_000)
                .prop_map(|(src, dst, ppm)| { Op::CreatePropTap { src, dst, ppm } }),
            (0usize..12, 0u64..2_000).prop_map(|(t, mw)| Op::SetTapRateConst { t, mw }),
            (0usize..12, 0u64..1_000_000).prop_map(|(t, ppm)| Op::SetTapRateProp { t, ppm }),
            (0usize..12).prop_map(|t| Op::DeleteTap { t }),
            (1usize..8).prop_map(|r| Op::DeleteReserve { r }),
            (0usize..8, 0usize..8, 0u64..5_000)
                .prop_map(|(src, dst, mj)| { Op::Transfer { src, dst, mj } }),
            (0usize..8, 0u64..5_000).prop_map(|(r, mj)| Op::ConsumeWithDebt { r, mj }),
            (1u64..30_000).prop_map(|ms| Op::Flow { ms }),
            (60u64..900).prop_map(|secs| Op::LongFlow { secs }),
        ]
    }

    /// Applies one op to a graph. `use_engine` selects which flow
    /// implementation advances time; everything else is shared.
    fn apply(
        g: &mut ResourceGraph,
        ids: &mut Vec<ReserveId>,
        now: &mut SimTime,
        op: &Op,
        use_engine: bool,
    ) {
        let k = Actor::kernel();
        match *op {
            Op::CreateReserve => {
                let id = g
                    .create_reserve(&k, "r", Label::default_label())
                    .expect("kernel create cannot fail");
                ids.push(id);
            }
            Op::CreateByteReserve => {
                let id = g
                    .create_reserve_kind(
                        &k,
                        "b",
                        Label::default_label(),
                        ResourceKind::NetworkBytes,
                    )
                    .expect("byte root exists");
                ids.push(id);
            }
            Op::CreateConstTap { src, dst, mw } => {
                let _ = g.create_tap(
                    &k,
                    "t",
                    ids[src % ids.len()],
                    ids[dst % ids.len()],
                    RateSpec::constant(Power::from_milliwatts(mw)),
                    Label::default_label(),
                );
            }
            Op::CreatePropTap { src, dst, ppm } => {
                let _ = g.create_tap(
                    &k,
                    "p",
                    ids[src % ids.len()],
                    ids[dst % ids.len()],
                    RateSpec::Proportional { ppm_per_s: ppm },
                    Label::default_label(),
                );
            }
            Op::SetTapRateConst { t, mw } => {
                if let Some(id) = nth_tap(g, t) {
                    let _ = g.set_tap_rate(&k, id, RateSpec::constant(Power::from_milliwatts(mw)));
                }
            }
            Op::SetTapRateProp { t, ppm } => {
                if let Some(id) = nth_tap(g, t) {
                    let _ = g.set_tap_rate(&k, id, RateSpec::Proportional { ppm_per_s: ppm });
                }
            }
            Op::DeleteTap { t } => {
                if let Some(id) = nth_tap(g, t) {
                    let _ = g.delete_tap(&k, id);
                }
            }
            Op::DeleteReserve { r } => {
                if ids.len() > 1 {
                    let idx = 1 + (r % (ids.len() - 1));
                    let id = ids.remove(idx);
                    let _ = g.delete_reserve(&k, id);
                }
            }
            Op::Transfer { src, dst, mj } => {
                let _ = g.transfer(
                    &k,
                    ids[src % ids.len()],
                    ids[dst % ids.len()],
                    Energy::from_millijoules(mj as i64),
                );
            }
            Op::ConsumeWithDebt { r, mj } => {
                let _ = g.consume_with_debt(
                    &k,
                    ids[r % ids.len()],
                    Energy::from_millijoules(mj as i64),
                );
            }
            Op::Flow { ms } => {
                *now += SimDuration::from_millis(ms);
                flow(g, *now, use_engine);
            }
            Op::LongFlow { secs } => {
                *now += SimDuration::from_secs(secs);
                flow(g, *now, use_engine);
            }
            Op::SetDecayExempt { r, exempt } => {
                let _ = g.set_decay_exempt(&k, ids[r % ids.len()], exempt);
            }
        }
    }

    fn flow(g: &mut ResourceGraph, now: SimTime, use_engine: bool) {
        if use_engine {
            g.flow_until(now);
        } else {
            g.flow_until_reference(now);
        }
    }

    fn nth_tap(g: &ResourceGraph, n: usize) -> Option<TapId> {
        let count = g.tap_count();
        if count == 0 {
            return None;
        }
        g.taps().nth(n % count).map(|(id, _)| id)
    }

    /// Every observable byte of graph state, for exact comparison. The
    /// totals element carries one entry per [`ResourceKind`] plus the
    /// global sum.
    type StateDump = (
        SimTime,
        Vec<(ReserveId, Energy, ReserveStats)>,
        Vec<(TapId, RateSpec, u64)>,
        Vec<crate::graph::GraphTotals>,
    );

    fn dump(g: &ResourceGraph) -> StateDump {
        let mut totals: Vec<_> = ResourceKind::ALL.iter().map(|&k| g.totals_for(k)).collect();
        totals.push(g.totals());
        (
            g.now(),
            g.reserves()
                .map(|(id, r)| (id, r.balance(), r.stats()))
                .collect(),
            g.taps().map(|(id, t)| (id, t.rate(), t.seq())).collect(),
            totals,
        )
    }

    fn run_differential(config: GraphConfig, ops: Vec<Op>) -> Result<(), TestCaseError> {
        let initial = Energy::from_joules(15_000);
        let mut engine_g = ResourceGraph::with_config(initial, config);
        let mut reference_g = ResourceGraph::with_config(initial, config);
        let mut engine_ids = vec![engine_g.battery()];
        let mut reference_ids = vec![reference_g.battery()];
        // Seed the byte side of the graph so random taps/transfers mix
        // kinds: a NetworkBytes root plus one quota reserve in the pool.
        let k = Actor::kernel();
        for (g, ids) in [
            (&mut engine_g, &mut engine_ids),
            (&mut reference_g, &mut reference_ids),
        ] {
            let pool = g
                .create_root(&k, "byte-pool", Quantity::network_bytes(50_000_000))
                .expect("fresh graph has no byte root");
            ids.push(pool);
            ids.push(
                g.create_reserve_kind(
                    &k,
                    "plan",
                    Label::default_label(),
                    ResourceKind::NetworkBytes,
                )
                .expect("byte root just created"),
            );
        }
        let (mut now_a, mut now_b) = (SimTime::ZERO, SimTime::ZERO);
        for op in &ops {
            apply(&mut engine_g, &mut engine_ids, &mut now_a, op, true);
            apply(&mut reference_g, &mut reference_ids, &mut now_b, op, false);
            let (a, b) = (dump(&engine_g), dump(&reference_g));
            prop_assert_eq!(&a, &b, "divergence after {:?}", op);
            for (kind_totals, kind) in
                a.3.iter()
                    .zip(ResourceKind::ALL.iter().map(Some).chain([None]))
            {
                prop_assert!(
                    kind_totals.conserved(),
                    "conservation violated for {:?} after {:?}: {:?}",
                    kind,
                    op,
                    kind_totals
                );
            }
        }
        // Drain one more long all-paths flow at the end.
        now_a += SimDuration::from_secs(3_600);
        engine_g.flow_until(now_a);
        reference_g.flow_until_reference(now_a);
        prop_assert_eq!(dump(&engine_g), dump(&reference_g));
        Ok(())
    }

    /// Ops biased toward the partitioned fast-forward: long mixed-rate
    /// flows over small balances (sources drain to zero mid-span and sit
    /// at clamp boundaries), with taps re-rated const↔proportional between
    /// spans so partitions are re-planned across rate flips.
    fn arb_partition_op() -> impl Strategy<Value = Op> {
        // (The vendored proptest stub has no weighted prop_oneof; the long
        // flows are listed twice to bias toward span execution.)
        prop_oneof![
            (0usize..8, 0usize..8, 0u64..50).prop_map(|(src, dst, mw)| Op::CreateConstTap {
                src,
                dst,
                mw
            }),
            (0usize..8, 0usize..8, 0u64..400_000).prop_map(|(src, dst, ppm)| Op::CreatePropTap {
                src,
                dst,
                ppm
            }),
            (0usize..12, 0u64..50).prop_map(|(t, mw)| Op::SetTapRateConst { t, mw }),
            (0usize..12, 0u64..400_000).prop_map(|(t, ppm)| Op::SetTapRateProp { t, ppm }),
            Just(Op::CreateReserve),
            // Small endowments, so long spans cross the drain-to-zero
            // boundary inside a planned run.
            (0usize..8, 0usize..8, 0u64..200).prop_map(|(src, dst, mj)| Op::Transfer {
                src,
                dst,
                mj
            }),
            (300u64..3_600).prop_map(|secs| Op::LongFlow { secs }),
            (300u64..3_600).prop_map(|secs| Op::LongFlow { secs }),
        ]
    }

    /// Ops at the kernel's cadence: 100–399 ms flows (one to three ticks,
    /// all below the planner's threshold, so every tick is the compiled
    /// single tick) interleaved with every mutation its plan must follow.
    /// Battery-sourced proportional taps above ~12,300 ppm/s overflow u64
    /// on the 15 kJ battery, so the split's u128 fallback runs; the
    /// battery's constant and proportional neighbours move its live level
    /// away from the start-of-tick snapshot the fallback must read.
    fn arb_cadence_op() -> impl Strategy<Value = Op> {
        // (No weighted prop_oneof in the vendored stub: the flows are
        // listed three times.)
        prop_oneof![
            (100u64..400).prop_map(|ms| Op::Flow { ms }),
            (100u64..400).prop_map(|ms| Op::Flow { ms }),
            (100u64..400).prop_map(|ms| Op::Flow { ms }),
            Just(Op::CreateReserve),
            (0usize..8, 0usize..8, 0u64..2_000).prop_map(|(src, dst, mw)| Op::CreateConstTap {
                src,
                dst,
                mw
            }),
            (0usize..8, 0usize..8, 0u64..=1_000_000)
                .prop_map(|(src, dst, ppm)| Op::CreatePropTap { src, dst, ppm }),
            (0usize..8, 13_000u64..=1_000_000).prop_map(|(dst, ppm)| Op::CreatePropTap {
                src: 0,
                dst,
                ppm
            }),
            (0usize..12, 0u64..2_000).prop_map(|(t, mw)| Op::SetTapRateConst { t, mw }),
            (0usize..12, 0u64..=1_000_000).prop_map(|(t, ppm)| Op::SetTapRateProp { t, ppm }),
            (0usize..12).prop_map(|t| Op::DeleteTap { t }),
            (1usize..8).prop_map(|r| Op::DeleteReserve { r }),
            (0usize..8, any::<bool>()).prop_map(|(r, exempt)| Op::SetDecayExempt { r, exempt }),
            (0usize..8, 0usize..8, 0u64..5_000).prop_map(|(src, dst, mj)| Op::Transfer {
                src,
                dst,
                mj
            }),
            (0usize..8, 0u64..5_000).prop_map(|(r, mj)| Op::ConsumeWithDebt { r, mj }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The compiled single tick at the kernel's cadence, decay off.
        #[test]
        fn single_ticks_match_reference_without_decay(
            ops in proptest::collection::vec(arb_cadence_op(), 1..60),
        ) {
            run_differential(
                GraphConfig { decay: None, ..GraphConfig::default() },
                ops,
            )?;
        }

        /// The compiled single tick at the kernel's cadence, decay on.
        #[test]
        fn single_ticks_match_reference_with_decay(
            ops in proptest::collection::vec(arb_cadence_op(), 1..60),
        ) {
            run_differential(GraphConfig::default(), ops)?;
        }

        /// Decay off: exercises the closed-form fast-forward heavily.
        #[test]
        fn engine_matches_reference_without_decay(
            ops in proptest::collection::vec(arb_op(), 1..40),
        ) {
            run_differential(
                GraphConfig { decay: None, ..GraphConfig::default() },
                ops,
            )?;
        }

        /// Decay on: every span runs the decay-aware SoA partition (or the
        /// indexed per-tick path for short spans).
        #[test]
        fn engine_matches_reference_with_decay(
            ops in proptest::collection::vec(arb_op(), 1..30),
        ) {
            run_differential(GraphConfig::default(), ops)?;
        }

        /// The partitioned fast-forward under adversarial shapes: mixed
        /// const/proportional multi-kind graphs where sources drain to zero
        /// mid-span and taps are re-rated between long flows.
        #[test]
        fn partitioned_fast_forward_matches_reference(
            ops in proptest::collection::vec(arb_partition_op(), 1..32),
        ) {
            run_differential(
                GraphConfig { decay: None, ..GraphConfig::default() },
                ops,
            )?;
        }

        /// Same adversarial shapes with decay on: every energy source is
        /// dynamic, quota sources keep their closed forms.
        #[test]
        fn partitioned_fast_forward_matches_reference_with_decay(
            ops in proptest::collection::vec(arb_partition_op(), 1..24),
        ) {
            run_differential(GraphConfig::default(), ops)?;
        }
    }

    /// A source that drains to zero *inside* a planned span: the island's
    /// feeder holds a finite balance with no inflow, so its taps run dry
    /// mid-hour while the rest of the graph stays closed-formed. Exercises
    /// the Covered→Dynamic demotion boundary exactly.
    #[test]
    fn source_draining_to_zero_mid_span_is_exact() {
        for decay in [None, GraphConfig::default().decay] {
            let config = GraphConfig {
                decay,
                ..GraphConfig::default()
            };
            let initial = Energy::from_joules(1_000_000);
            let mut engine_g = ResourceGraph::with_config(initial, config);
            let mut reference_g = ResourceGraph::with_config(initial, config);
            let k = Actor::kernel();
            for g in [&mut engine_g, &mut reference_g] {
                let battery = g.battery();
                // A const fan-out that never clamps (the linear partition)…
                for i in 0..20 {
                    let r = g
                        .create_reserve(&k, &format!("r{i}"), Label::default_label())
                        .unwrap();
                    g.create_tap(
                        &k,
                        &format!("t{i}"),
                        battery,
                        r,
                        RateSpec::constant(Power::from_milliwatts(1 + i)),
                        Label::default_label(),
                    )
                    .unwrap();
                }
                // …plus a finite pool that dies ~20 minutes in (500 mW from
                // a 600 J endowment), feeding a reserve with a backward
                // proportional tap: drain-to-zero *and* a proportional
                // island on the same path.
                let pool = g
                    .create_reserve(&k, "finite", Label::default_label())
                    .unwrap();
                g.transfer(&k, battery, pool, Energy::from_joules(600))
                    .unwrap();
                let sink = g
                    .create_reserve(&k, "sink", Label::default_label())
                    .unwrap();
                g.create_tap(
                    &k,
                    "dying",
                    pool,
                    sink,
                    RateSpec::constant(Power::from_milliwatts(500)),
                    Label::default_label(),
                )
                .unwrap();
                g.create_tap(
                    &k,
                    "bwd",
                    sink,
                    battery,
                    RateSpec::proportional(0.05),
                    Label::default_label(),
                )
                .unwrap();
            }
            let hour = SimTime::from_secs(3_600);
            engine_g.flow_until(hour);
            reference_g.flow_until_reference(hour);
            assert_eq!(dump(&engine_g), dump(&reference_g), "decay={decay:?}");
            assert!(engine_g.totals().conserved());
            // The finite pool really did die mid-span.
            let pool_id = engine_g
                .reserves()
                .find(|(_, r)| r.name() == "finite")
                .map(|(id, _)| id)
                .unwrap();
            assert!(!engine_g.reserve(pool_id).unwrap().balance().is_positive());
        }
    }

    /// A proportional tap on the 15 kJ battery at 500,000 ppm/s: its
    /// carry total (~7.5e20) overflows u64, so the split takes the u128
    /// path, which must read the start-of-tick snapshot — the constant tap
    /// created before it has already drained the battery's live level.
    #[test]
    fn battery_sourced_proportional_tap_splits_from_the_snapshot() {
        for decay in [None, GraphConfig::default().decay] {
            let config = GraphConfig {
                decay,
                ..GraphConfig::default()
            };
            let initial = Energy::from_joules(15_000);
            let mut engine_g = ResourceGraph::with_config(initial, config);
            let mut reference_g = ResourceGraph::with_config(initial, config);
            let k = Actor::kernel();
            for g in [&mut engine_g, &mut reference_g] {
                let battery = g.battery();
                let a = g.create_reserve(&k, "a", Label::default_label()).unwrap();
                let b = g.create_reserve(&k, "b", Label::default_label()).unwrap();
                g.create_tap(
                    &k,
                    "drain",
                    battery,
                    a,
                    RateSpec::constant(Power::from_milliwatts(694)),
                    Label::default_label(),
                )
                .unwrap();
                g.create_tap(
                    &k,
                    "half",
                    battery,
                    b,
                    RateSpec::proportional(0.5),
                    Label::default_label(),
                )
                .unwrap();
            }
            for tick in 1..=40 {
                let now = SimTime::from_millis(100 * tick);
                engine_g.flow_until(now);
                reference_g.flow_until_reference(now);
                assert_eq!(
                    dump(&engine_g),
                    dump(&reference_g),
                    "tick {tick}, decay={decay:?}"
                );
            }
            assert!(engine_g.totals().conserved());
        }
    }

    /// The compiled plan follows every tap hook between single ticks: a
    /// re-rate, a deleted tap whose arena slot a new tap reuses, and a
    /// reserve whose deletion garbage-collects its taps.
    #[test]
    fn single_ticks_follow_tap_and_reserve_lifecycle() {
        let config = GraphConfig::default();
        let initial = Energy::from_joules(15_000);
        let mut engine_g = ResourceGraph::with_config(initial, config);
        let mut reference_g = ResourceGraph::with_config(initial, config);
        let k = Actor::kernel();
        let mut now = SimTime::ZERO;
        let mut tick = |engine_g: &mut ResourceGraph, reference_g: &mut ResourceGraph, step| {
            now += SimDuration::from_millis(100);
            engine_g.flow_until(now);
            reference_g.flow_until_reference(now);
            assert_eq!(dump(engine_g), dump(reference_g), "after {step}");
        };
        let mut handles = Vec::new();
        for g in [&mut engine_g, &mut reference_g] {
            let battery = g.battery();
            let a = g.create_reserve(&k, "a", Label::default_label()).unwrap();
            let b = g.create_reserve(&k, "b", Label::default_label()).unwrap();
            let feed = g
                .create_tap(
                    &k,
                    "feed",
                    battery,
                    a,
                    RateSpec::constant(Power::from_milliwatts(500)),
                    Label::default_label(),
                )
                .unwrap();
            let onward = g
                .create_tap(
                    &k,
                    "onward",
                    a,
                    b,
                    RateSpec::constant(Power::from_milliwatts(200)),
                    Label::default_label(),
                )
                .unwrap();
            g.create_tap(
                &k,
                "back",
                b,
                battery,
                RateSpec::proportional(0.2),
                Label::default_label(),
            )
            .unwrap();
            handles.push((a, feed, onward));
        }
        tick(&mut engine_g, &mut reference_g, "setup");
        for (g, &(_, feed, _)) in [&mut engine_g, &mut reference_g].into_iter().zip(&handles) {
            g.set_tap_rate(&k, feed, RateSpec::proportional(0.001))
                .unwrap();
        }
        tick(&mut engine_g, &mut reference_g, "re-rate");
        for (g, &(a, _, onward)) in [&mut engine_g, &mut reference_g].into_iter().zip(&handles) {
            g.delete_tap(&k, onward).unwrap();
            let battery = g.battery();
            g.create_tap(
                &k,
                "reused",
                battery,
                a,
                RateSpec::constant(Power::from_milliwatts(50)),
                Label::default_label(),
            )
            .unwrap();
        }
        tick(&mut engine_g, &mut reference_g, "delete and slot reuse");
        for (g, &(_, _, onward)) in [&mut engine_g, &mut reference_g].into_iter().zip(&handles) {
            // The reused slot's new tap must not alias the deleted one.
            assert!(g.tap(onward).is_none());
        }
        tick(&mut engine_g, &mut reference_g, "slot reuse, second tick");
        for (g, &(a, _, _)) in [&mut engine_g, &mut reference_g].into_iter().zip(&handles) {
            g.delete_reserve(&k, a).unwrap();
        }
        tick(&mut engine_g, &mut reference_g, "reserve GC");
        assert_eq!(engine_g.tap_count(), 1);
        assert!(engine_g.totals().conserved());
    }

    /// A decaying balance of twice `i64::MAX / ppm` (about 160 GJ at the
    /// default 116 ppm per tick): the leak's i64 product overflows on every
    /// tick here, and the i128 path must give the same leak, in the single
    /// tick and the run's SoA loop alike.
    #[test]
    fn decay_beyond_the_i64_product_is_exact() {
        let config = GraphConfig::default();
        let ppm = config.decay.unwrap().leak_ppm_per_tick(config.flow_tick);
        let huge = Energy::from_microjoules(i64::MAX / ppm as i64 * 2);
        let initial = Energy::from_joules(15_000);
        let mut engine_g = ResourceGraph::with_config(initial, config);
        let mut reference_g = ResourceGraph::with_config(initial, config);
        let k = Actor::kernel();
        for g in [&mut engine_g, &mut reference_g] {
            let hoard = g
                .create_reserve(&k, "hoard", Label::default_label())
                .unwrap();
            g.inject(&k, hoard, huge).unwrap();
        }
        let mut now = SimTime::ZERO;
        for span in [100, 100, 300, 60_000] {
            now += SimDuration::from_millis(span);
            engine_g.flow_until(now);
            reference_g.flow_until_reference(now);
            assert_eq!(dump(&engine_g), dump(&reference_g), "at {now:?}");
        }
        assert!(engine_g.totals().conserved());
    }

    /// Builds the same graph twice with `build` (decay on, `battery_j`
    /// in the battery), flows both through `spans_ms` — the engine and
    /// the reference — and asserts every observable byte agrees after
    /// each span.
    fn decay_lanes_match_reference(
        battery_j: i64,
        spans_ms: &[u64],
        build: impl Fn(&mut ResourceGraph),
    ) -> ResourceGraph {
        let config = GraphConfig::default();
        let initial = Energy::from_joules(battery_j);
        let mut engine_g = ResourceGraph::with_config(initial, config);
        let mut reference_g = ResourceGraph::with_config(initial, config);
        build(&mut engine_g);
        build(&mut reference_g);
        let mut now = SimTime::ZERO;
        for &ms in spans_ms {
            now += SimDuration::from_millis(ms);
            engine_g.flow_until(now);
            reference_g.flow_until_reference(now);
            assert_eq!(dump(&engine_g), dump(&reference_g), "at {now:?}");
        }
        assert!(engine_g.totals().conserved());
        engine_g
    }

    /// A constant tap of `uw` µW from `source` into `sink`.
    fn feed(g: &mut ResourceGraph, source: ReserveId, sink: ReserveId, uw: u64) -> TapId {
        g.create_tap(
            &Actor::kernel(),
            "feed",
            source,
            sink,
            RateSpec::constant(Power::from_microwatts(uw)),
            Label::default_label(),
        )
        .unwrap()
    }

    fn reserve(g: &mut ResourceGraph, name: &str) -> ReserveId {
        g.create_reserve(&Actor::kernel(), name, Label::default_label())
            .unwrap()
    }

    /// The spans of a sleeping device's idle jumps: single ticks, a
    /// minute, ten minutes, an hour, and an off-grid tail.
    const IDLE_SPANS_MS: [u64; 6] = [100, 300, 60_000, 600_000, 3_600_000, 12_345];

    /// Lanes fed by jittered constant taps from the battery: every carry
    /// is nonzero at every span edge, so each tick's delivery alternates
    /// between two amounts exactly as the reference's carries release it.
    #[test]
    fn lanes_with_jittered_feeds_match_reference() {
        decay_lanes_match_reference(15_000, &IDLE_SPANS_MS, |g| {
            let battery = g.battery();
            for uw in [37_513, 36_977, 1_234_567] {
                let lane = reserve(g, "lane");
                feed(g, battery, lane, uw);
            }
        });
    }

    /// One lane fed twice, from the battery and from a decay-exempt
    /// covered reserve: each tick it takes both deliveries before it
    /// leaks.
    #[test]
    fn lane_with_two_feeds_matches_reference() {
        decay_lanes_match_reference(15_000, &IDLE_SPANS_MS, |g| {
            let k = Actor::kernel();
            let battery = g.battery();
            let exempt = reserve(g, "exempt");
            g.transfer(&k, battery, exempt, Energy::from_joules(5_000))
                .unwrap();
            g.set_decay_exempt(&k, exempt, true).unwrap();
            let lane = reserve(g, "lane");
            feed(g, battery, lane, 37_513);
            feed(g, exempt, lane, 511_111);
        });
    }

    /// A lane that starts in debt: its feed pays the debt off before the
    /// level turns positive and starts to leak.
    #[test]
    fn lane_starting_in_debt_matches_reference() {
        decay_lanes_match_reference(15_000, &IDLE_SPANS_MS, |g| {
            let battery = g.battery();
            let lane = reserve(g, "lane");
            g.consume_with_debt(&Actor::kernel(), lane, Energy::from_joules(40))
                .unwrap();
            feed(g, battery, lane, 37_513);
        });
    }

    /// Fig 6b's proportional island (a plugin fed 70 mW, leaking 10%/s
    /// back to the battery) beside an idle lane and an unfed hoard: the
    /// island ticks while the lane and the hoard advance alone.
    #[test]
    fn idle_lane_beside_fig6b_island_matches_reference() {
        decay_lanes_match_reference(15_000, &IDLE_SPANS_MS, |g| {
            let k = Actor::kernel();
            let battery = g.battery();
            let plugin = reserve(g, "plugin");
            feed(g, battery, plugin, 70_000);
            g.create_tap(
                &k,
                "bwd",
                plugin,
                battery,
                RateSpec::proportional(0.1),
                Label::default_label(),
            )
            .unwrap();
            let lane = reserve(g, "lane");
            feed(g, battery, lane, 37_500);
            let hoard = reserve(g, "hoard");
            g.transfer(&k, battery, hoard, Energy::from_joules(20))
                .unwrap();
        });
    }

    /// Decaying sinks of the covered battery that are not lanes: one
    /// drains through a tap into a second, which the battery also feeds,
    /// and a third also takes a proportional feed. Their inflows must land
    /// tick by tick, ahead of their decay.
    #[test]
    fn decaying_sinks_that_are_not_lanes_are_ticked() {
        decay_lanes_match_reference(15_000, &IDLE_SPANS_MS, |g| {
            let k = Actor::kernel();
            let battery = g.battery();
            let drained = reserve(g, "drained");
            let onward = reserve(g, "onward");
            feed(g, battery, drained, 90_001);
            feed(g, drained, onward, 20_003);
            feed(g, battery, onward, 37_513);
            let exempt = reserve(g, "exempt");
            g.transfer(&k, battery, exempt, Energy::from_joules(500))
                .unwrap();
            g.set_decay_exempt(&k, exempt, true).unwrap();
            let mixed = reserve(g, "mixed");
            feed(g, battery, mixed, 41_000);
            g.create_tap(
                &k,
                "prop",
                exempt,
                mixed,
                RateSpec::Proportional { ppm_per_s: 700 },
                Label::default_label(),
            )
            .unwrap();
        });
    }

    /// A 40 J battery feeding 30 mW into two lanes covers about 13,300
    /// of an hour's 36,000 ticks: its coverage caps each run, and the
    /// runs continue from the leaks the lanes return, until the lanes
    /// hold most of the energy.
    #[test]
    fn battery_coverage_caps_lane_runs() {
        let g = decay_lanes_match_reference(40, &[3_600_000, 600_000], |g| {
            let battery = g.battery();
            for uw in [20_001, 9_999] {
                let lane = reserve(g, "lane");
                feed(g, battery, lane, uw);
            }
        });
        assert!(g.reserve(g.battery()).unwrap().balance() < Energy::from_joules(20));
    }

    /// A drained battery that no tap refills comes back to life when a
    /// hoard's leaks credit it: its taps must move again mid-run.
    #[test]
    fn drained_battery_refilled_by_decay_matches_reference() {
        decay_lanes_match_reference(100, &IDLE_SPANS_MS, |g| {
            let battery = g.battery();
            let hoard = reserve(g, "hoard");
            g.transfer(&Actor::kernel(), battery, hoard, Energy::from_joules(100))
                .unwrap();
            let lane = reserve(g, "lane");
            feed(g, battery, lane, 5_000);
        });
    }

    /// A fed lane seeded far beyond `i64::MAX / ppm` by `inject`: its
    /// leak takes the i128 path on every tick of the lane's loop.
    #[test]
    fn lane_leak_beyond_the_i64_product_is_exact() {
        let config = GraphConfig::default();
        let ppm = config.decay.unwrap().leak_ppm_per_tick(config.flow_tick);
        let huge = Energy::from_microjoules(i64::MAX / ppm as i64 * 2);
        decay_lanes_match_reference(15_000, &IDLE_SPANS_MS, |g| {
            let battery = g.battery();
            let lane = reserve(g, "lane");
            g.inject(&Actor::kernel(), lane, huge).unwrap();
            feed(g, battery, lane, 37_513);
        });
    }

    /// Re-rating taps between spans re-plans the partition: a tap flipped
    /// const→proportional→const across long flows must stay exact (carry
    /// resets on re-rate are part of the contract).
    #[test]
    fn re_rated_taps_across_spans_are_exact() {
        let config = GraphConfig {
            decay: None,
            ..GraphConfig::default()
        };
        let initial = Energy::from_joules(10_000);
        let mut engine_g = ResourceGraph::with_config(initial, config);
        let mut reference_g = ResourceGraph::with_config(initial, config);
        let k = Actor::kernel();
        let mut ids = Vec::new();
        for g in [&mut engine_g, &mut reference_g] {
            let battery = g.battery();
            let a = g.create_reserve(&k, "a", Label::default_label()).unwrap();
            let t = g
                .create_tap(
                    &k,
                    "flip",
                    battery,
                    a,
                    RateSpec::constant(Power::from_milliwatts(137)),
                    Label::default_label(),
                )
                .unwrap();
            ids.push((t, a));
        }
        let rates = [
            RateSpec::proportional(0.2),
            RateSpec::constant(Power::from_microwatts(731)),
            RateSpec::Proportional { ppm_per_s: 999 },
            RateSpec::constant(Power::ZERO),
            RateSpec::constant(Power::from_milliwatts(3)),
        ];
        let mut now = SimTime::ZERO;
        for (i, &rate) in rates.iter().enumerate() {
            now += SimDuration::from_secs(600);
            engine_g.flow_until(now);
            reference_g.flow_until_reference(now);
            assert_eq!(dump(&engine_g), dump(&reference_g), "span {i}");
            engine_g.set_tap_rate(&k, ids[0].0, rate).unwrap();
            reference_g.set_tap_rate(&k, ids[1].0, rate).unwrap();
        }
        now += SimDuration::from_secs(3_600);
        engine_g.flow_until(now);
        reference_g.flow_until_reference(now);
        assert_eq!(dump(&engine_g), dump(&reference_g));
    }

    /// The acceptance-criterion scenario: 100 reserves, 200 constant taps,
    /// one hour of simulated time — engine and reference agree exactly.
    #[test]
    fn hour_long_const_graph_is_exact() {
        let config = GraphConfig {
            decay: None,
            ..GraphConfig::default()
        };
        let initial = Energy::from_joules(1_000_000);
        let mut engine_g = ResourceGraph::with_config(initial, config);
        let mut reference_g = ResourceGraph::with_config(initial, config);
        let k = Actor::kernel();
        for g in [&mut engine_g, &mut reference_g] {
            let battery = g.battery();
            let mut reserves = vec![battery];
            for i in 0..100 {
                let r = g
                    .create_reserve(&k, &format!("r{i}"), Label::default_label())
                    .unwrap();
                reserves.push(r);
            }
            for i in 0..200usize {
                // Half the taps fan out from the battery, half chain
                // between reserves (so some sources start empty and only
                // fill through upstream taps — the clamp-boundary path).
                let (src, dst) = if i % 2 == 0 {
                    (battery, reserves[1 + i / 2])
                } else {
                    (reserves[1 + (i % 100)], reserves[1 + ((i + 37) % 100)])
                };
                if src == dst {
                    continue;
                }
                g.create_tap(
                    &k,
                    &format!("t{i}"),
                    src,
                    dst,
                    RateSpec::constant(Power::from_microwatts(500 + 137 * i as u64)),
                    Label::default_label(),
                )
                .unwrap();
            }
        }
        let hour = SimTime::from_secs(3_600);
        engine_g.flow_until(hour);
        reference_g.flow_until_reference(hour);
        assert_eq!(dump(&engine_g), dump(&reference_g));
        assert!(engine_g.totals().conserved());
    }

    /// Index bookkeeping follows tap/reserve lifecycle.
    #[test]
    fn index_tracks_mutations() {
        let mut g = ResourceGraph::with_config(
            Energy::from_joules(100),
            GraphConfig {
                decay: None,
                ..GraphConfig::default()
            },
        );
        let k = Actor::kernel();
        let a = g.create_reserve(&k, "a", Label::default_label()).unwrap();
        let b = g.create_reserve(&k, "b", Label::default_label()).unwrap();
        let t1 = g
            .create_tap(
                &k,
                "t1",
                g.battery(),
                a,
                RateSpec::constant(Power::from_milliwatts(1)),
                Label::default_label(),
            )
            .unwrap();
        let _t2 = g
            .create_tap(
                &k,
                "t2",
                a,
                b,
                RateSpec::proportional(0.1),
                Label::default_label(),
            )
            .unwrap();
        assert_eq!(g.flow_index_len(), (2, 2));
        assert!(!g.flow_all_const());
        g.delete_tap(&k, t1).unwrap();
        assert_eq!(g.flow_index_len(), (1, 1));
        // Re-rating the proportional tap to const restores fast-forward
        // eligibility.
        let t2 = g.taps().next().unwrap().0;
        g.set_tap_rate(&k, t2, RateSpec::constant(Power::from_milliwatts(2)))
            .unwrap();
        assert!(g.flow_all_const());
        // Deleting a reserve GCs its taps out of the index.
        g.delete_reserve(&k, a).unwrap();
        assert_eq!(g.flow_index_len(), (0, 0));
    }
}
