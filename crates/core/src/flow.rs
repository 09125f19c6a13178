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
//! * **Per-source adjacency index** — tap lists indexed by source reserve
//!   slot ([`crate::RawId::index`]; a reserve's taps are revoked before its
//!   slot is reused), in tap-creation order, maintained incrementally by
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
//!   reserve GC removes taps) and the reserve lifecycle mark it stale, and
//!   it also recompiles for a different tick. Start-of-tick levels are read
//!   only for the sources of proportional taps: zero steady-state
//!   allocation. The plan also holds the same tick over dense slots (tap
//!   endpoints, decay-eligible reserves and the battery) for the *flow
//!   kernel*, `tick_slots`: one free function over separate slices of
//!   levels, per-slot flows and carries (so the compiler may assume they
//!   do not alias), which ticks every ticked duty run and the planned
//!   run's dynamic partition. The full loop's one tick a call stays
//!   arena-direct: loading and writing back the slots costs more than a
//!   single tick saves.
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
//!   executed tick by tick in the flow kernel (dense slots, no map or
//!   arena lookups); every other tap is applied in closed form over the
//!   whole run. The planner's per-run tables are vectors indexed by
//!   reserve slot, reset through the slots they touched. An all-constant
//!   decay-free graph degenerates to the pure closed form (the whole span
//!   is one event); a mixed graph pays per-tick cost only for its
//!   proportional *island*, not the whole graph.
//! * **Decay lanes** — decaying sources are dynamic; exempt ones (the
//!   battery too: decay only credits it) take the coverage test. While the
//!   battery is not dynamic, a decaying reserve no tap drains and only
//!   constant taps from covered or starved sources feed is a *lane*, run
//!   alone; other fed decaying reserves are dynamic. A lane with at most
//!   one feed jumps each leak band it crosses in closed form when the band
//!   is predicted long enough to pay and its leak has not lately come back
//!   short, and steps otherwise.
//! * **Duty runs** — a sole Ready thread's quanta, each charged while its
//!   reserve is positive. A lane-shaped reserve over a span no shorter
//!   than the break-even is a *charged* lane, decaying or not, whose loop
//!   also runs each quantum's charge, and which settles by its run count
//!   once its level sits on the throttled orbit; any other duty run is
//!   ticked in the flow kernel, its quanta charged between ticks.
//! * **Break-even** — spans shorter than `MIN_PARTITIONED_SPAN` (16 ticks,
//!   measured by the `flow_hot_path` bench's `plan_vs_tick`) skip the
//!   planner on any graph with a proportional tap or decay: its O(R + T)
//!   plan costs more than the ticks it would save.
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

use std::collections::BTreeMap;

use cinder_sim::{Energy, SimDuration};

use crate::arena::{Arena, RawId};
use crate::graph::{ReserveId, TapId};
use crate::reserve::Reserve;
use crate::tap::{RateSpec, Tap};

/// Per-source slice of the adjacency index.
#[derive(Debug)]
struct SourceTaps {
    /// The source reserve.
    source: RawId,
    /// This source's outgoing taps, keyed by creation sequence — iteration
    /// is creation order, removal is O(log n) (reserve GC can revoke many
    /// taps at once, e.g. a browser page's container being unlinked).
    taps: BTreeMap<u64, TapId>,
    /// How many of them are proportional with a nonzero rate.
    live_prop: usize,
}

/// What the run planner decided about one source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SourceRun {
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

/// The run planner's verdicts, indexed by reserve slot ([`RawId::index`]):
/// every reserve a run plans is live, so its slot names it. Cleared
/// through the slots it set.
#[derive(Debug, Default)]
struct RunPlan {
    of: Vec<Option<SourceRun>>,
    set: Vec<u32>,
}

impl RunPlan {
    fn get(&self, reserve: RawId) -> Option<SourceRun> {
        self.of.get(reserve.index() as usize).copied().flatten()
    }

    fn insert(&mut self, reserve: RawId, run: SourceRun) {
        let i = reserve.index() as usize;
        if i >= self.of.len() {
            self.of.resize(i + 1, None);
        }
        if self.of[i].replace(run).is_none() {
            self.set.push(i as u32);
        }
    }

    fn clear(&mut self) {
        for i in self.set.drain(..) {
            self.of[i as usize] = None;
        }
    }

    /// Whether any planned reserve is not starved.
    fn any_live(&self) -> bool {
        self.set
            .iter()
            .any(|&i| self.of[i as usize] != Some(SourceRun::Starved))
    }
}

/// A sole Ready thread's quanta across a duty run
/// ([`crate::ResourceGraph::settle_duty`]): each charges `cost` to its
/// reserve while the level is positive and throttles it otherwise, as the
/// scheduler would. `head` quanta come before the first tick, then
/// `per_tick` after each tick. A lane-shaped reserve over a span no
/// shorter than the planner's break-even is a charged decay lane, whose
/// quanta follow each tick's feeds and leak, and which the flow engine
/// settles by its run count once the level sits on the throttled orbit;
/// any other run is ticked in the flow kernel, its quanta charged after
/// each tick. Its last run reports only the `window` youngest quanta of
/// run history: the landing reads no more.
#[derive(Debug, Clone)]
pub struct Duty {
    pub(crate) reserve: RawId,
    /// What each run charges.
    pub cost: Energy,
    pub(crate) head: u64,
    pub(crate) per_tick: u64,
    /// Quanta that ran.
    pub runs: u64,
    /// Quanta throttled.
    pub throttles: u64,
    /// Whether the latest quantum ran (the one before the run did).
    pub ran: bool,
    /// The quanta of run history [`Duty::last_run`] reports.
    window: u8,
    /// The last quantum whose outcome differs from the one before it, and
    /// the throttles before it.
    pub edge: Option<(u64, u64)>,
    /// The last quantum that ran, and the run history up to it.
    last_run: Option<(u64, u128)>,
    /// Which quanta ran, youngest in bit 0.
    history: u128,
}

impl Duty {
    /// The most quanta of run history a duty run can report.
    pub const HISTORY: u64 = u128::BITS as u64;

    /// A duty run charging `cost` to `reserve` per quantum that runs,
    /// reporting `window` quanta of run history (at most [`Duty::HISTORY`]).
    pub fn new(reserve: ReserveId, cost: Energy, head: u64, per_tick: u64, window: u64) -> Self {
        Duty {
            reserve: reserve.0,
            cost,
            head,
            per_tick,
            runs: 0,
            throttles: 0,
            ran: true,
            window: window.min(Duty::HISTORY) as u8,
            edge: None,
            last_run: None,
            history: 0,
        }
    }

    /// Quanta settled so far.
    pub fn quanta(&self) -> u64 {
        self.runs + self.throttles
    }

    /// What the runs charged.
    pub fn charged(&self) -> Energy {
        self.cost * self.runs as i64
    }

    /// The last quantum that ran, and which of the `window` quanta up to it
    /// ran: bit `k` is quantum `last − k`.
    pub fn last_run(&self) -> Option<(u64, u128)> {
        let kept = u128::MAX.checked_shr(128 - u32::from(self.window));
        self.last_run
            .map(|(last, ran)| (last, ran & kept.unwrap_or(0)))
    }

    /// Steps `n` quanta against the reserve's `level`.
    fn step(&mut self, level: &mut i64, n: u64) {
        for _ in 0..n {
            let ran = *level > 0;
            if ran != self.ran {
                (self.edge, self.ran) = (Some((self.quanta(), self.throttles)), ran);
            }
            self.history = self.history << 1 | u128::from(ran);
            if ran {
                *level -= self.cost.as_microjoules();
                self.last_run = Some((self.quanta(), self.history));
                self.runs += 1;
            } else {
                self.throttles += 1;
            }
        }
    }

    /// Settles `ticks` ticks of a charged lane on its throttled orbit by
    /// their run count, as [`Duty::step`] would after each tick's feeds.
    /// `fed(t)` is what the feeds deliver over the first `t` ticks. The
    /// caller has checked that `level` is at most zero and that no tick's
    /// post-feed level can leak or fund more than `per_tick` runs, so every
    /// tick ends at most zero, above −`cost` once any quantum has run, and
    /// the runs over `t` ticks are R(t) = max(0, ⌈(level + fed(t))/cost⌉).
    /// Each tick's runs come first. The last edge and the last run come
    /// from R by galloping back from the end, and the last run's history
    /// from the run counts of the ticks it spans. It settles the lane's
    /// last ticks: its own history is left behind.
    #[inline(never)] // once a settle: kept out of the stepping loop's body
    fn count(&mut self, level: i64, ticks: u64, fed: impl Fn(u64) -> i64) {
        let (cost, p) = (self.cost.as_microjoules() as u64, self.per_tick);
        let runs = |t: u64| u64::try_from(level + fed(t)).map_or(0, |x| x.div_ceil(cost));
        let throttled = |t: u64| t * p - runs(t);
        // The first tick whose count `f` ends at, `f` non-decreasing and
        // zero before the first tick.
        let first_at = |f: &dyn Fn(u64) -> u64| {
            let end = f(ticks);
            ticks - gallop(ticks, |back| f(ticks - back) == end)
        };
        let (base, old, keep) = (self.quanta(), self.history, u64::from(self.window));
        // Which of the `window` quanta up to `last` ran, from the run
        // counts of their ticks (each tick's runs first) and, before the
        // count, the stepped history.
        let bits_to = |last: u64| {
            // The tick last read: its index, the runs before it, its runs.
            let (mut bits, mut seen) = (0u128, None);
            for k in 0..keep.min(last + 1) {
                let q = last - k;
                let ran = if q < base {
                    old >> (base - 1 - q) & 1 == 1
                } else {
                    let t = (q - base) / p;
                    let (before, r) = match seen {
                        Some((at, before, r)) if at == t => (before, r),
                        _ => {
                            // The tick after this one starts where it ends.
                            let after = match seen {
                                Some((at, after, _)) if at == t + 1 => after,
                                _ => runs(t + 1),
                            };
                            let before = runs(t);
                            (before, after - before)
                        }
                    };
                    seen = Some((t, before, r));
                    (q - base) % p < r
                };
                bits |= u128::from(ran) << k;
            }
            bits
        };
        let (total, throttles) = (runs(ticks), throttled(ticks));
        let last = total - runs(ticks - 1);
        let ran = last == p;
        // The last tick that ran a quantum, and its runs.
        let ran_tick = (total > 0).then(|| match last {
            0 => {
                let t = first_at(&runs);
                (t, runs(t) - runs(t - 1))
            }
            r => (ticks, r),
        });
        // The last edge follows the last throttle (the last quantum of its
        // tick) if the last quantum ran, and the last run if not. Without
        // one, every counted quantum went as the last did.
        let edge = if ran {
            let t = (throttles > 0).then(|| first_at(&throttled));
            t.map(|t| (base + t * p, self.throttles + throttles))
        } else {
            ran_tick.map(|(t, r)| (base + (t - 1) * p + r, self.throttles + throttled(t - 1)))
        };
        if let Some(edge) = edge.or((self.ran != ran).then_some((base, self.throttles))) {
            self.edge = Some(edge);
        }
        if let Some((t, r)) = ran_tick {
            let at = base + (t - 1) * p + r - 1;
            self.last_run = Some((at, bits_to(at)));
        }
        // Nothing steps after a count, so the history is not rebuilt.
        (self.ran, self.runs, self.throttles) =
            (ran, self.runs + total, self.throttles + throttles);
    }
}

/// The largest `n ≤ max` for which `fits(n)` holds, `fits` holding up to
/// some `n` and failing beyond it; zero if `fits(1)` fails. Gallops up from
/// one, then bisects.
pub(crate) fn gallop(max: u64, fits: impl Fn(u64) -> bool) -> u64 {
    if max == 0 || !fits(1) {
        return 0;
    }
    let (mut lo, mut hi) = (1, 2);
    while hi <= max && fits(hi) {
        lo = hi;
        hi = hi.saturating_mul(2);
    }
    let mut hi = hi.min(max.saturating_add(1));
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// One constant feed of a lane: the lane, `rate_µW × tick_µs`, and its
/// carry.
#[derive(Debug, Clone, Copy)]
struct Feed {
    lane: usize,
    step: u128,
    carry: u128,
}

/// What `feeds` deliver over `t` ticks from their carries.
#[inline]
fn delivered(feeds: &[Feed], t: u64) -> i64 {
    let total = |f: &Feed| f.carry + f.step * u128::from(t);
    feeds.iter().map(|f| split::<1_000_000>(total(f)).0).sum()
}

/// Advances `feeds` one tick; returns what they deliver.
#[inline]
fn deliver_tick(feeds: &mut [Feed]) -> i64 {
    let mut moved = 0;
    for f in feeds {
        let (grains, carry) = split::<1_000_000>(f.step + f.carry);
        (moved, f.carry) = (moved + grains, carry);
    }
    moved
}

/// ⌊n/d⌋ for `d > 0`, in i64 when both fit.
pub(crate) fn div_floor(n: i128, d: i128) -> i128 {
    match (i64::try_from(n), i64::try_from(d)) {
        (Ok(n), Ok(d)) => n.div_euclid(d).into(),
        _ => n.div_euclid(d),
    }
}

/// Band jumps pay only for bands predicted at least this many ticks long;
/// shorter ones are stepped. Measured by the `flow_hot_path` bench's
/// `lane_closed_forms`.
pub(crate) const MIN_BAND_JUMP: u64 = 8;

/// How far a lane's feed rate (µW·µs a tick, 10⁻⁶ µJ) may be from q·10⁶
/// for leak q's band to last `min_band` ticks: the band is ~10⁶/ppm µJ wide
/// and the lane drifts |rate/10⁶ − q| µJ a tick, so it lasts at least
/// `min_band` ticks iff |rate − q·10⁶| ≤ 10¹²/(ppm·min_band). `None`
/// without decay.
pub(crate) fn band_reach(ppm: u64, min_band: u64) -> Option<u64> {
    ppm.checked_mul(min_band)
        .and_then(|d| 1_000_000_000_000u64.checked_div(d))
}

/// Decaying reserves no tap drains and only constant taps from sources
/// that cannot clamp feed, so nothing else reads their levels. Each tick a
/// lane credits what its feeds' carries release, then leaks ⌊x·ppm/10⁶⌋
/// of its post-feed level x ([`FlowEngine::tick`]'s order); the battery
/// takes the summed leaks once, and the feeds settle in closed form.
/// Scratch for [`FlowEngine::run_span`] and
/// [`crate::ResourceGraph::settle_pooled`].
///
/// An uncharged lane steps a tick by [`Plain::next`]: its feed's carry
/// advances by an addition and a compare, and its leak ⌊x·ppm/10⁶⌋ is one
/// u64 multiply by a reciprocal, exact while the level stays under a bound
/// checked once per settle ([`narrow_leak`]). Each lane's steps are one
/// dependency chain through that multiply, so the lanes fed at most once
/// step two at a time ([`step_pair`]), their chains overlapping, until
/// either's next tick needs more than a plain step.
///
/// A lane counts rather than steps wherever its trajectory is piecewise
/// linear. The leak is q on a *band* of levels, [⌈q·10⁶/ppm⌉,
/// ⌈(q+1)·10⁶/ppm⌉), and a lane with at most one feed that stays on one
/// moves by its feed less q a tick, so each band it crosses is one
/// division. A band predicted shorter than [`MIN_BAND_JUMP`] ticks from
/// its width over the lane's drift is stepped, as is a leak whose band
/// came back short lately (the lane hovers between two bands) and a lane
/// fed more than once. A [`Duty`]'s charged lane runs each tick's quanta
/// after its leak; once its level ends a tick at most zero, and its feeds
/// can neither leak nor outrun a tick's quanta, [`Duty::count`] settles
/// the rest.
#[derive(Debug)]
pub(crate) struct Lanes {
    /// Each lane's reserve and its level when opened.
    lanes: Vec<(RawId, i64)>,
    /// The lanes' constant feeds.
    feeds: Vec<Feed>,
    /// Bands are jumped within this [`band_reach`] of the feed rate.
    pub(crate) reach: Option<u64>,
    /// Lane-ticks settled, and those stepped through the scalar loop.
    pub(crate) ticks: (u64, u64),
}

impl Lanes {
    /// Lanes under a decay of `ppm` a tick, jumping bands predicted at
    /// least [`MIN_BAND_JUMP`] ticks long.
    fn new(ppm: u64) -> Self {
        Lanes {
            lanes: Vec::new(),
            feeds: Vec::new(),
            reach: band_reach(ppm, MIN_BAND_JUMP),
            ticks: (0, 0),
        }
    }

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
            let carry = tap.remainder();
            self.feeds.push(Feed { lane, step, carry });
        }
    }

    /// Runs every lane `ticks` ticks, debits each lane's leaks as decay,
    /// credits their sum to `battery`, and closes the lanes. `duty`'s lane
    /// also runs its quanta, its charges debited as consumption. Narrow
    /// uncharged lanes (see [`Lane`]) step in pairs, in the order they
    /// were opened.
    pub(crate) fn settle(
        &mut self,
        reserves: &mut Arena<Reserve>,
        battery: RawId,
        ppm: u64,
        ticks: u64,
        mut duty: Option<&mut Duty>,
    ) {
        self.feeds.sort_unstable_by_key(|f| f.lane);
        let recip = leak_recip(ppm);
        let (mut reclaimed, mut stepped) = (0, 0);
        let mut settled = |reserves: &mut Arena<Reserve>, reserve, (leaked, steps): (i64, u64)| {
            stepped += steps;
            if let Some(r) = reserves.get_mut(reserve).filter(|_| leaked > 0) {
                r.debit_decay(Energy::from_microjoules(leaked));
                reclaimed += leaked;
            }
        };
        // A lane that pairs, waiting for the next.
        let mut waiting: Option<(RawId, Lane)> = None;
        let mut rest = &mut self.feeds[..];
        for (lane, &(reserve, level)) in self.lanes.iter().enumerate() {
            let fed = rest.iter().take_while(|f| f.lane == lane).count();
            let (feeds, others) = std::mem::take(&mut rest).split_at_mut(fed);
            rest = others;
            if let Some(d) = duty.as_deref_mut().filter(|d| d.reserve == reserve) {
                let run = settle_charged(d, feeds, level, ppm, ticks);
                if let Some(r) = reserves.get_mut(reserve) {
                    r.debit_consumed(d.charged());
                }
                settled(reserves, reserve, run);
                continue;
            }
            let mut lane = Lane::new(level, feeds, self.reach, recip, ticks);
            if lane.narrow.is_some() {
                let Some((first, mut other)) = waiting.take() else {
                    waiting = Some((reserve, lane));
                    continue;
                };
                step_pair(&mut other, &mut lane, ticks);
                settled(reserves, first, other.settle(&mut [], ppm, ticks));
            }
            let more = feeds.get_mut(1..).unwrap_or_default();
            settled(reserves, reserve, lane.settle(more, ppm, ticks));
        }
        if let Some((reserve, lane)) = waiting {
            settled(reserves, reserve, lane.settle(&mut [], ppm, ticks));
        }
        let opened = ticks * self.lanes.len() as u64;
        self.ticks = (self.ticks.0 + opened, self.ticks.1 + stepped);
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

/// The highest level, µJ, whose leak [`narrow_leak`] computes exactly:
/// ⌊(2⁶⁴ − 1)/10⁶⌋, about 18 MJ.
const NARROW: u64 = u64::MAX / 1_000_000;

/// ⌈ppm·2⁶⁴/10⁶⌉, the reciprocal [`narrow_leak`] multiplies by, in u64 for
/// ppm < 10⁶: 2⁶⁴ = [`NARROW`]·10⁶ + r, so it is ppm·NARROW + ⌈ppm·r/10⁶⌉.
fn leak_recip(ppm: u64) -> Option<u64> {
    let r = u64::MAX % 1_000_000 + 1;
    (ppm < 1_000_000).then(|| ppm * NARROW + (ppm * r).div_ceil(1_000_000))
}

/// The leak ⌊x·ppm/10⁶⌋ of a post-feed level x ≤ [`NARROW`] (none for x ≤
/// 0) by one multiply: `recip` ([`leak_recip`]) exceeds ppm·2⁶⁴/10⁶ by less
/// than one, so x·recip/2⁶⁴ exceeds x·ppm/10⁶ by less than x/2⁶⁴ < 10⁻⁶,
/// while x·ppm/10⁶ sits at least 10⁻⁶ below the next integer.
#[inline(always)]
fn narrow_leak(x: i64, recip: u64) -> i64 {
    ((x.max(0) as u128 * u128::from(recip)) >> 64) as i64
}

/// A lane's level and its first feed, for the plain step: the feed is
/// `whole` grains and `frac` millionths of one a tick, and its carry; an
/// unfed lane's is zero.
#[derive(Debug, Clone, Copy)]
struct Plain {
    level: i64,
    carry: u64,
    whole: i64,
    frac: u64,
}

impl Plain {
    /// The lane a tick on, and its leak: the feed's carry advances by an
    /// addition and a compare, `more` lands from its other feeds, and the
    /// post-feed level x leaks `leak(x)`. The one per-tick step of every
    /// uncharged lane.
    #[inline(always)]
    fn next(self, more: i64, leak: impl Fn(i64) -> i64) -> (Plain, i64) {
        let carry = self.carry + self.frac;
        let (carry, whole) = match carry.checked_sub(1_000_000) {
            Some(c) => (c, self.whole + 1),
            None => (carry, self.whole),
        };
        let x = self.level + whole + more;
        let q = leak(x);
        (
            Plain {
                level: x - q,
                carry,
                ..self
            },
            q,
        )
    }

    /// Jumps `n` ticks leaking `q` each: the feed's carry telescopes.
    fn jump(&mut self, n: u64, q: i64) {
        let (grains, carry) =
            split::<1_000_000>(u128::from(self.carry) + u128::from(self.frac) * u128::from(n));
        let fed = i128::from(self.whole) * i128::from(n) + i128::from(grains);
        let level = i128::from(self.level) + fed - i128::from(q) * i128::from(n);
        (self.level, self.carry) = (level as i64, carry as u64);
    }
}

/// An uncharged lane being settled: where it stands, and how it steps.
#[derive(Debug, Clone, Copy)]
struct Lane {
    plain: Plain,
    /// What it has leaked, over how many ticks.
    leaked: i64,
    t: u64,
    /// Leaks worth a band jump: q is in range iff q − lo, unsigned, is at
    /// most `width`. An unfed lane's range holds zero, where it stops.
    lo: i64,
    width: u64,
    unfed: bool,
    /// Fed at most once, its post-feed level stays at most [`NARROW`] all
    /// settle, so it leaks by [`narrow_leak`] with this reciprocal; `None`
    /// by [`decay_leak`].
    narrow: Option<u64>,
}

impl Lane {
    /// A lane at `level` fed by `feeds`, to settle `ticks` ticks under a
    /// decay whose reciprocal is `recip` ([`leak_recip`]), jumping bands
    /// within `reach` of its feed rate if fed at most once.
    fn new(level: i64, feeds: &[Feed], reach: Option<u64>, recip: Option<u64>, ticks: u64) -> Lane {
        let rate: u128 = feeds.iter().map(|f| f.step).sum();
        // Leaks in [lo, hi], within `reach` of rate/10⁶, are worth jumping
        // (a jump is exact wherever it starts); lo = −1 and width 0 admit
        // no leak.
        let (lo, width) = reach
            .filter(|_| feeds.len() <= 1)
            .map(|reach| {
                let reach = u128::from(reach);
                let lo = split::<1_000_000>(rate.saturating_sub(reach) + 999_999).0;
                (lo, split::<1_000_000>(rate + reach).0 - lo)
            })
            .filter(|&(_, width)| width >= 0)
            .map_or((-1, 0), |(lo, width)| (lo, width as u64));
        let (step, carry) = feeds.first().map_or((0, 0), |f| (f.step, f.carry));
        debug_assert!(carry < 1_000_000, "a constant tap's carry is a remainder");
        let (whole, frac) = split::<1_000_000>(step);
        // Only its feed raises its level, by at most ⌊step/10⁶⌋ + 1 a tick.
        let peak = (whole as u128 + 1)
            .saturating_mul(u128::from(ticks))
            .saturating_add(level.max(0) as u128);
        Lane {
            plain: Plain {
                level,
                carry: carry as u64,
                whole,
                frac: frac as u64,
            },
            leaked: 0,
            t: 0,
            lo: if rate == 0 { 0 } else { lo },
            width,
            unfed: rate == 0,
            narrow: recip.filter(|_| feeds.len() <= 1 && peak <= u128::from(NARROW)),
        }
    }

    /// Whether leak `q` is in the band-jump range.
    #[inline(always)]
    fn jumps(&self, q: i64) -> bool {
        q.wrapping_sub(self.lo) as u64 <= self.width
    }

    /// Settles the lane up to `ticks` from where it stands, `more` being
    /// its feeds past the first. After a tick whose leak q is in range it
    /// jumps q's band, unless one of its last two whole bands that came
    /// back shorter than [`MIN_BAND_JUMP`] leaked q: a lane fed between two
    /// leaks ends up hovering at the boundary of their bands. An unfed lane
    /// stops once its leak is zero. Returns what it leaked and the ticks it
    /// stepped.
    fn settle(self, more: &mut [Feed], ppm: u64, ticks: u64) -> (i64, u64) {
        // A narrow lane, the common case, compiles to its own loop; the
        // rest take the wide leak.
        match self.narrow {
            Some(recip) => self.bands(&mut [], ppm, ticks, |x| narrow_leak(x, recip)),
            None => self.bands(
                more,
                ppm,
                ticks,
                |x| if x > 0 { decay_leak(x, ppm) } else { 0 },
            ),
        }
    }

    /// [`Lane::settle`]'s loop, leaking by `leak`.
    #[inline(always)]
    fn bands(
        self,
        more: &mut [Feed],
        ppm: u64,
        ticks: u64,
        leak: impl Fn(i64) -> i64 + Copy,
    ) -> (i64, u64) {
        let Lane {
            mut plain,
            mut leaked,
            mut t,
            unfed,
            ..
        } = self;
        // The leaks of the last two whole bands too short to have paid a
        // jump (the settle may begin inside its first band).
        let (mut short, mut jumped) = ([-1; 2], 0);
        while t < ticks {
            let (next, q) = plain.next(deliver_tick(more), leak);
            if q == 0 && unfed {
                break; // its level only falls: the leak stays zero
            }
            (plain, leaked, t) = (next, leaked + q, t + 1);
            if !self.jumps(q) || t == ticks || short.contains(&q) {
                continue;
            }
            let n = band_ticks(plain, q, ppm, ticks - t);
            if n + 1 < MIN_BAND_JUMP && t > 1 {
                short = [q, short[0]];
            }
            if n > 0 {
                plain.jump(n, q);
                (leaked, t, jumped) = (leaked + n as i64 * q, t + n, jumped + n);
            }
        }
        (leaked, t - jumped)
    }
}

/// Steps `a` and `b`, each narrow, together from the same tick by
/// [`Plain::next`] until either's next tick needs more than a plain step
/// (its leak enters its band-jump range, which for an unfed lane holds
/// zero) or `ticks` end. [`Lane::settle`] resumes each from exactly where
/// this stops.
fn step_pair(a: &mut Lane, b: &mut Lane, ticks: u64) {
    let (Some(ra), Some(rb)) = (a.narrow, b.narrow) else {
        unreachable!("only narrow lanes pair");
    };
    debug_assert_eq!(a.t, b.t);
    let (mut pa, mut pb, mut t) = (a.plain, b.plain, a.t);
    let (mut la, mut lb) = (0, 0);
    while t < ticks {
        let (na, qa) = pa.next(0, |x| narrow_leak(x, ra));
        let (nb, qb) = pb.next(0, |x| narrow_leak(x, rb));
        if a.jumps(qa) || b.jumps(qb) {
            break;
        }
        (pa, pb, la, lb, t) = (na, nb, la + qa, lb + qb, t + 1);
    }
    (a.plain, a.leaked, a.t) = (pa, a.leaked + la, t);
    (b.plain, b.leaked, b.t) = (pb, b.leaked + lb, t);
}

/// How many more ticks, at most `max`, a lane standing at `lane` that
/// just leaked `q` goes on leaking `q`, fed by its one feed or unfed. Its
/// post-feed level j ticks on, x_j = level + q + ⌊(carry + j·(step −
/// q·10⁶))/10⁶⌋, moves one way and must stay in q's band, so the band's
/// last tick is one division.
#[inline(never)] // once a band: kept out of the stepping loop's body
fn band_ticks(lane: Plain, q: i64, ppm: u64, max: u64) -> u64 {
    const M: i128 = 1_000_000;
    let (q, ppm, at) = (
        i128::from(q),
        i128::from(ppm),
        i128::from(lane.level) + i128::from(q),
    );
    // The foot of leak q's band, ⌈q·10⁶/ppm⌉: only the bound the level
    // moves toward is computed.
    let foot = |q: i128| div_floor(q * M + ppm - 1, ppm);
    let step = i128::from(lane.whole) * M + i128::from(lane.frac);
    let (drift, carry) = (step - q * M, i128::from(lane.carry));
    let ticks = match drift.signum() {
        1 => div_floor((foot(q + 1) - at) * M - carry - 1, drift),
        -1 => div_floor(carry - (foot(q) - at) * M, -drift),
        _ => i128::from(max),
    };
    ticks.clamp(0, i128::from(max)) as u64
}

/// Settles `duty`'s charged lane `ticks` ticks from `level`: the head
/// quanta, then per tick the feeds, the leak and that tick's quanta,
/// counted from the first tick that ends at most zero when its feeds can
/// neither leak nor fund more than a tick's quanta. Returns what it leaked
/// and the ticks it stepped.
fn settle_charged(
    duty: &mut Duty,
    feeds: &mut [Feed],
    mut level: i64,
    ppm: u64,
    ticks: u64,
) -> (i64, u64) {
    duty.step(&mut level, duty.head);
    let cost = duty.cost.as_microjoules();
    // The most a tick can deliver.
    let most: u128 = feeds.iter().map(|f| f.step.div_ceil(1_000_000)).sum();
    let countable = cost > 0
        && duty.per_tick > 0
        && most <= u128::from(duty.per_tick) * cost as u128
        && most * u128::from(ppm) < 1_000_000;
    let (mut leaked, mut t) = (0, 0);
    while t < ticks {
        if countable && level <= 0 {
            duty.count(level, ticks - t, |k| delivered(feeds, k));
            break;
        }
        level += deliver_tick(feeds);
        let leak = if level > 0 { decay_leak(level, ppm) } else { 0 };
        (level, leaked, t) = (level - leak, leaked + leak, t + 1);
        duty.step(&mut level, duty.per_tick);
    }
    (leaked, t)
}

/// How a ticked tap computes its per-tick desired transfer (the image of
/// [`RateSpec`] with the tick span pre-multiplied in), in the compiled
/// single tick and the flow kernel alike.
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

/// One tap of the flow kernel, resolved to dense slots.
#[derive(Debug, Clone, Copy)]
struct SlotTap {
    src: u32,
    dst: u32,
    rate: TickRate,
}

/// What the flow kernel moved through one slot, applied to the reserve's
/// stats once at writeback (sums — identical to per-tick application).
#[derive(Debug, Clone, Copy, Default)]
struct Flow {
    inflow: i64,
    outflow: i64,
    decayed: i64,
}

/// A flow tick over dense slots: what [`tick_slots`] runs.
#[derive(Debug, Default)]
struct Circuit {
    /// The taps, in creation (clamp-priority) order.
    taps: Vec<SlotTap>,
    /// The slots whose start-of-tick levels the proportional taps read
    /// (their `snap_idx` indexes this).
    snap: Vec<u32>,
    /// The slots the global decay leaks from, `ppm` a tick.
    decay: Vec<u32>,
    ppm: u64,
    /// The battery's slot, which takes the leaks.
    battery: u32,
}

impl Circuit {
    fn clear(&mut self) {
        self.taps.clear();
        self.snap.clear();
        self.decay.clear();
    }
}

/// Dense slots for reserves, found by reserve slot ([`RawId::index`]).
#[derive(Debug, Default)]
struct Slots {
    /// Each slot's reserve.
    raw: Vec<RawId>,
    /// Each reserve's slot by its index, `u32::MAX` for none.
    of: Vec<u32>,
}

impl Slots {
    /// `reserve`'s slot, assigned on first sight. Slots name live
    /// reserves, so an index has at most one.
    fn slot(&mut self, reserve: RawId) -> u32 {
        let i = reserve.index() as usize;
        if i >= self.of.len() {
            self.of.resize(i + 1, u32::MAX);
        }
        if self.of[i] == u32::MAX {
            self.of[i] = self.raw.len() as u32;
            self.raw.push(reserve);
        }
        debug_assert_eq!(self.raw[self.of[i] as usize], reserve);
        self.of[i]
    }

    /// Drops the slots from `len` on.
    fn truncate(&mut self, len: usize) {
        for raw in self.raw.drain(len..) {
            self.of[raw.index() as usize] = u32::MAX;
        }
    }
}

/// The flow kernel: `ticks` ticks of `c` over dense slots, each its taps in
/// creation order against start-of-tick source levels and then the global
/// decay, exactly as [`FlowEngine::tick`] over the arena, and then
/// `after_tick` (a duty run's quanta), accumulating each slot's flows.
/// Levels, flows, carries and the snapshot are separate slices, so the
/// compiler may assume they do not alias.
fn tick_slots(
    c: &Circuit,
    levels: &mut [i64],
    flows: &mut [Flow],
    carries: &mut [u128],
    snap: &mut [i64],
    ticks: u64,
    mut after_tick: impl FnMut(&mut [i64]),
) {
    for _ in 0..ticks {
        // Start-of-tick snapshot of proportional source levels.
        for (level, &slot) in snap.iter_mut().zip(&c.snap) {
            *level = levels[slot as usize];
        }
        for (tap, carry) in c.taps.iter().zip(carries.iter_mut()) {
            let desired = match tap.rate {
                TickRate::Const { step } => {
                    let (grains, rest) = split::<1_000_000>(step + *carry);
                    *carry = rest;
                    grains
                }
                TickRate::Prop { ppm_dt, snap_idx } => {
                    let level = snap[snap_idx as usize];
                    if level <= 0 {
                        // Quiescent source: zero transfer, carry untouched
                        // (see FlowEngine::tick).
                        continue;
                    }
                    let total = level as u128 * ppm_dt + *carry;
                    let (grains, rest) = split::<1_000_000_000_000>(total);
                    *carry = rest;
                    grains
                }
            };
            let (src, dst) = (tap.src as usize, tap.dst as usize);
            let amount = desired.min(levels[src].max(0));
            if amount > 0 {
                levels[src] -= amount;
                flows[src].outflow += amount;
                levels[dst] += amount;
                flows[dst].inflow += amount;
            }
        }
        // The global decay, exactly as `decay_tick`: each positive slot
        // leaks ⌊level·ppm/1e6⌋ back to the battery.
        let mut leaked = 0;
        for &slot in &c.decay {
            let level = &mut levels[slot as usize];
            if *level > 0 {
                let leak = decay_leak(*level, c.ppm);
                *level -= leak;
                flows[slot as usize].decayed += leak;
                leaked += leak;
            }
        }
        if leaked > 0 {
            levels[c.battery as usize] += leaked;
            flows[c.battery as usize].inflow += leaked;
        }
        after_tick(levels);
    }
}

/// Loads each slot's reserve level.
fn load(levels: &mut Vec<i64>, slots: &[RawId], reserves: &Arena<Reserve>) {
    levels.clear();
    levels.extend(
        slots
            .iter()
            .map(|&r| reserves.get(r).map_or(0, |r| r.balance().as_microjoules())),
    );
}

/// Applies each slot's flows to its reserve.
fn write_back(reserves: &mut Arena<Reserve>, slots: &[RawId], flows: &[Flow]) {
    for (&raw, flow) in slots.iter().zip(flows) {
        let Some(r) = reserves.get_mut(raw) else {
            continue; // dead endpoint: nothing ever moved through it
        };
        if flow.inflow > 0 {
            r.credit(Energy::from_microjoules(flow.inflow));
        }
        if flow.outflow > 0 {
            r.debit_outflow(Energy::from_microjoules(flow.outflow));
        }
        if flow.decayed > 0 {
            r.debit_decay(Energy::from_microjoules(flow.decayed));
        }
    }
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
/// sources whose start-of-tick levels the proportional taps read; and the
/// same tick over dense slots, for the flow kernel.
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
    /// `taps` over `slots`, with the decay-eligible reserves and the
    /// battery.
    circuit: Circuit,
    slots: Slots,
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
    /// Tap lists of each source, indexed by reserve slot
    /// ([`RawId::index`]). A reserve's taps are revoked before its slot can
    /// be reused, so a slot holds at most one source's list.
    by_source: Vec<Option<SourceTaps>>,
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
    /// The single tick, compiled from `order`; every tap hook and the
    /// reserve lifecycle mark it stale (reserve GC reaches it through tap
    /// removal).
    plan: TickPlan,
    /// Scratch for run planning, reused across calls.
    run_plan: RunPlan,
    // ----- the flow kernel's scratch (reused across runs) ----------------
    /// The ticked (dynamic) partition of the run being planned.
    ticked: Circuit,
    /// Its taps' ids, for writeback.
    ticked_taps: Vec<RawId>,
    /// Dense slots for every reserve the ticked partition touches.
    slots: Slots,
    /// Working balances (µJ grains) per slot.
    levels: Vec<i64>,
    /// Accumulated flows per slot.
    flows: Vec<Flow>,
    /// Working carries per kernel tap.
    carries: Vec<u128>,
    /// Start-of-tick levels of the proportional sources.
    snap: Vec<i64>,
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
    /// An engine for a graph decaying `decay_ppm_per_tick` a tick.
    pub(crate) fn new(decay_ppm_per_tick: u64) -> Self {
        FlowEngine {
            order: Vec::new(),
            by_source: Vec::new(),
            inbound: Vec::new(),
            live_prop: 0,
            plan: TickPlan::default(),
            run_plan: RunPlan::default(),
            ticked: Circuit::default(),
            ticked_taps: Vec::new(),
            slots: Slots::default(),
            levels: Vec::new(),
            flows: Vec::new(),
            carries: Vec::new(),
            snap: Vec::new(),
            decay_eligible: Vec::new(),
            lanes: Lanes::new(decay_ppm_per_tick),
        }
    }

    /// Reserve-lifecycle hooks: track decay eligibility (Energy kind and
    /// not exempt). Called by every graph path that creates, deletes, or
    /// re-flags a reserve. The compiled plan slots the decay-eligible
    /// reserves, so it goes stale.
    pub(crate) fn on_reserve_eligibility(&mut self, reserve: RawId, eligible: bool) {
        let present = self.decay_eligible.iter().position(|&r| r == reserve);
        match (eligible, present) {
            (true, None) => self.decay_eligible.push(reserve),
            (false, Some(i)) => {
                self.decay_eligible.swap_remove(i);
            }
            _ => {}
        }
        self.plan.dt = None;
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

    /// The tap list of `source`, if any live tap drains it.
    fn source_taps(&self, source: RawId) -> Option<&SourceTaps> {
        self.by_source
            .get(source.index() as usize)
            .and_then(Option::as_ref)
            .filter(|entry| entry.source == source)
    }

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
        let i = source.index() as usize;
        if i >= self.by_source.len() {
            self.by_source.resize_with(i + 1, || None);
        }
        let entry = self.by_source[i].get_or_insert_with(|| SourceTaps {
            source,
            taps: BTreeMap::new(),
            live_prop: 0,
        });
        debug_assert_eq!(entry.source, source, "a reused slot kept its taps");
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
        let slot = self.by_source.get_mut(source.index() as usize);
        if let Some(entry_slot) = slot {
            if let Some(entry) = entry_slot.as_mut().filter(|e| e.source == source) {
                entry.taps.remove(&seq);
                if is_live_prop(rate) {
                    entry.live_prop -= 1;
                    self.live_prop -= 1;
                }
                if entry.taps.is_empty() {
                    *entry_slot = None;
                }
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
        self.source_taps(reserve)
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
        let entry = self.by_source[source.index() as usize]
            .as_mut()
            .filter(|e| e.source == source)
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
        (self.order.len(), self.by_source.iter().flatten().count())
    }

    // ----- per-tick execution ---------------------------------------------

    /// Compiles [`FlowEngine::tick`]'s plan for ticks of `dt` from the
    /// creation-order list, and the same tick over dense slots for the
    /// flow kernel, decaying `ppm` a tick into `battery`.
    fn compile(&mut self, taps: &Arena<Tap>, dt: SimDuration, battery: RawId, ppm: u64) {
        let dt_us = u128::from(dt.as_micros());
        let plan = &mut self.plan;
        plan.taps.clear();
        plan.sources.clear();
        plan.circuit.clear();
        plan.slots.truncate(0);
        for &(_, tid) in &self.order {
            let tap = taps.get(tid.0).expect("flow index out of sync");
            let (source, sink) = (tap.source().0, tap.sink().0);
            let rate = match tap.rate() {
                RateSpec::Const(p) if p.as_microwatts() > 0 => TickRate::Const {
                    step: u128::from(p.as_microwatts()) * dt_us,
                },
                RateSpec::Proportional { ppm_per_s } if ppm_per_s > 0 => {
                    let snap_idx = match plan.sources.iter().position(|&s| s == source) {
                        Some(i) => i,
                        None => {
                            plan.sources.push(source);
                            plan.circuit.snap.push(plan.slots.slot(source));
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
                sink,
                rate,
            });
            let (src, dst) = (plan.slots.slot(source), plan.slots.slot(sink));
            plan.circuit.taps.push(SlotTap { src, dst, rate });
        }
        if ppm > 0 {
            for &rid in &self.decay_eligible {
                plan.circuit.decay.push(plan.slots.slot(rid));
            }
        }
        plan.circuit.ppm = ppm;
        plan.circuit.battery = plan.slots.slot(battery);
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
            self.compile(taps, dt, battery, decay_ppm_per_tick);
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

    /// Ticks `ticks` ticks of `duty` in the flow kernel over the compiled
    /// plan's slots, plus a slot for its reserve if no tap touches it: the
    /// head quanta, then per tick the compiled tick and that tick's quanta,
    /// each charged in the loop. Exact for any graph.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tick_duty(
        &mut self,
        reserves: &mut Arena<Reserve>,
        taps: &mut Arena<Tap>,
        battery: RawId,
        decay_ppm_per_tick: u64,
        dt: SimDuration,
        duty: &mut Duty,
        ticks: u64,
    ) {
        if self.plan.dt != Some(dt) {
            self.compile(taps, dt, battery, decay_ppm_per_tick);
        }
        let plan = &mut self.plan;
        let compiled = plan.slots.raw.len();
        let slot = plan.slots.slot(duty.reserve) as usize;
        load(&mut self.levels, &plan.slots.raw, reserves);
        self.flows.clear();
        self.flows.resize(plan.slots.raw.len(), Flow::default());
        self.carries.clear();
        self.carries.extend(plan.taps.iter().map(|t| {
            let tap = taps.get(t.tap).expect("the plan holds live taps");
            tap.remainder()
        }));
        self.snap.clear();
        self.snap.resize(plan.circuit.snap.len(), 0);
        let (head, per_tick) = (duty.head, duty.per_tick);
        duty.step(&mut self.levels[slot], head);
        tick_slots(
            &plan.circuit,
            &mut self.levels,
            &mut self.flows,
            &mut self.carries,
            &mut self.snap,
            ticks,
            |levels| duty.step(&mut levels[slot], per_tick),
        );
        write_back(reserves, &plan.slots.raw, &self.flows);
        for (t, &carry) in plan.taps.iter().zip(&self.carries) {
            taps.get_mut(t.tap)
                .expect("the plan holds live taps")
                .set_remainder(carry);
        }
        if duty.runs > 0 {
            reserves
                .get_mut(duty.reserve)
                .expect("a duty run charges a live reserve")
                .debit_consumed(duty.charged());
        }
        plan.slots.truncate(compiled);
    }

    // ----- partitioned closed-form fast-forward ---------------------------

    /// Whether a span of `ticks` is better ticked than planned: with a live
    /// proportional tap or decay, planning and building the kernel's slots
    /// cost more than ticking a span shorter than `MIN_PARTITIONED_SPAN`.
    pub(crate) fn declines_span(&self, ticks: u64, decaying: bool) -> bool {
        (self.live_prop > 0 || decaying) && ticks < MIN_PARTITIONED_SPAN
    }

    /// Advances up to `max_ticks` ticks as one planned *run*, returning how
    /// many were applied (at least one). The caller ticks spans below the
    /// break-even instead ([`FlowEngine::declines_span`]).
    ///
    /// Sources are classified per run:
    ///
    /// * **Dynamic** — a live proportional tap reads this source's level,
    ///   or decay re-shapes it every tick, or it could clamp mid-run
    ///   (balance covers less than the demotion threshold of the span), or
    ///   it is empty but a tap may refill it. Every tap touching a dynamic
    ///   reserve (either endpoint) joins the ticked partition, which the
    ///   flow kernel ([`tick_slots`]) runs tick by tick over dense slots —
    ///   bit-identical to [`FlowEngine::tick`], minus the arena lookups.
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
    /// island pays per-tick cost. `duty`'s reserve, proved lane-shaped by
    /// [`crate::ResourceGraph::duty_run`], is a charged lane.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_span(
        &mut self,
        reserves: &mut Arena<Reserve>,
        taps: &mut Arena<Tap>,
        dt: SimDuration,
        max_ticks: u64,
        decay_ppm_per_tick: u64,
        battery: RawId,
        duty: Option<&mut Duty>,
    ) -> u64 {
        debug_assert!(max_ticks > 0);
        let decaying = decay_ppm_per_tick > 0;
        if self.order.is_empty() && !decaying && duty.is_none() {
            // No taps at all: nothing moves, whole span is one event.
            return max_ticks;
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
        for source in self.by_source.iter().flatten().map(|e| e.source) {
            let Some((mut run, n_src)) = self.plan_source(reserves, taps, source, dt, decaying)
            else {
                continue;
            };
            if run == SourceRun::Covered {
                if n_src < demote_below {
                    run = SourceRun::Dynamic; // near the clamp boundary: tick it out
                } else {
                    n = n.min(n_src);
                }
            }
            any_dynamic |= run == SourceRun::Dynamic;
            self.run_plan.insert(source, run);
        }

        // A drained battery is not starved while decay may credit it: a
        // leak, or a flow into a decaying reserve, revives its taps.
        if decaying
            && self.run_plan.get(battery) == Some(SourceRun::Starved)
            && (self.run_plan.any_live()
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
        if decaying || duty.is_some() {
            let lanes = !decaying || self.run_plan.get(battery) != Some(SourceRun::Dynamic);
            match duty.as_deref() {
                _ if decaying => self.open_lanes(reserves, |_| false),
                Some(duty) => self.lanes.open(reserves, duty.reserve),
                None => {}
            }
            for &(_, tid) in &self.order {
                let tap = taps.get(tid.0).expect("flow index out of sync");
                let Some(lane) = self.lanes.position(tap.sink().0) else {
                    continue;
                };
                let source = self.run_plan.get(tap.source().0);
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
                self.lanes.lanes.clear(); // unfed: decayed in the kernel
            }
            let charged = duty.as_deref().map(|d| self.lanes.position(d.reserve));
            debug_assert!(charged.is_none_or(|lane| lane.is_some()));
        }

        // With nothing dynamic, no closed form below touches a decaying
        // balance but a lane's. If every other decaying balance is too
        // small for its leak to round above zero, the kernel's decay pass
        // is a provable no-op: skip the kernel altogether. This is what
        // lets a drained device settle a span in O(R + T) instead of
        // O(ticks) — the fleet's dead-battery tail.
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
        self.ticked_taps.clear();
        self.carries.clear();
        self.slots.truncate(0);
        let decays = decaying && !decay_inert;
        if decays {
            // Every decaying reserve but the lanes joins the kernel's
            // slots, plus the battery to receive the leakage. Safe to slot
            // before the closed forms below: they touch no dynamic or
            // decaying reserve but the lanes, and writeback applies deltas.
            for &rid in &self.decay_eligible {
                debug_assert!(rid != battery, "battery is always exempt");
                if self.lanes.position(rid).is_none() {
                    self.ticked.decay.push(self.slots.slot(rid));
                }
            }
            self.ticked.battery = self.slots.slot(battery);
        }
        self.ticked.ppm = decay_ppm_per_tick;
        for oi in 0..self.order.len() {
            let tid = self.order[oi].1;
            let tap = taps.get_mut(tid.0).expect("flow index out of sync");
            let source = tap.source().0;
            let sink = tap.sink().0;
            let src_run = self.run_plan.get(source);
            let dynamic = any_dynamic
                && (src_run == Some(SourceRun::Dynamic)
                    || self.run_plan.get(sink) == Some(SourceRun::Dynamic));
            if dynamic {
                let (src, dst) = (self.slots.slot(source), self.slots.slot(sink));
                let rate = match tap.rate() {
                    RateSpec::Const(p) => TickRate::Const {
                        step: p.as_microwatts() as u128 * dt_us,
                    },
                    RateSpec::Proportional { ppm_per_s } => {
                        // Snapshot slots are deduplicated per source.
                        let snap = &mut self.ticked.snap;
                        let snap_idx = match snap.iter().position(|&s| s == src) {
                            Some(i) => i as u32,
                            None => {
                                snap.push(src);
                                (snap.len() - 1) as u32
                            }
                        };
                        TickRate::Prop {
                            ppm_dt: ppm_per_s as u128 * dt_us,
                            snap_idx,
                        }
                    }
                };
                self.ticked.taps.push(SlotTap { src, dst, rate });
                self.ticked_taps.push(tid.0);
                self.carries.push(tap.remainder());
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

        // ----- tick the dynamic partition in the flow kernel -------------
        if !self.ticked.taps.is_empty() || decays {
            load(&mut self.levels, &self.slots.raw, reserves);
            self.flows.clear();
            self.flows.resize(self.slots.raw.len(), Flow::default());
            self.snap.clear();
            self.snap.resize(self.ticked.snap.len(), 0);
            tick_slots(
                &self.ticked,
                &mut self.levels,
                &mut self.flows,
                &mut self.carries,
                &mut self.snap,
                n,
                |_| {},
            );
            // Writeback: accumulated stats to the reserves, carries to the
            // taps. Sum-at-once equals tick-at-a-time: the stats are
            // running totals and balance updates commute.
            write_back(reserves, &self.slots.raw, &self.flows);
            for (&raw, &carry) in self.ticked_taps.iter().zip(&self.carries) {
                taps.get_mut(raw)
                    .expect("ticked tap is live")
                    .set_remainder(carry);
            }
        }
        self.lanes
            .settle(reserves, battery, decay_ppm_per_tick, n, duty);
        n
    }

    /// How a run plans `source`: Starved, Covered for runs of up to the
    /// returned ticks (the caller demotes it below its threshold), or
    /// Dynamic. `None` leaves it out of the plan: no live tap drains it.
    pub(crate) fn plan_source(
        &self,
        reserves: &Arena<Reserve>,
        taps: &Arena<Tap>,
        source: RawId,
        dt: SimDuration,
        decaying: bool,
    ) -> Option<(SourceRun, u64)> {
        let entry = self.source_taps(source)?;
        let reserve = reserves.get(source);
        // A dead source is unreachable (reserve GC revokes its taps).
        let balance = reserve.map_or(0, |r| r.balance().as_microjoules());
        let decays = decaying
            && reserve.is_some_and(|r| {
                r.kind() == crate::kind::ResourceKind::Energy && !r.is_decay_exempt()
            });
        // A live proportional tap reads this level every tick, and decay
        // re-shapes a positive decaying balance every tick.
        let dynamic = entry.live_prop > 0 || decays;
        // Upper bound of this source's per-tick outflow in µJ.
        let dt_us = u128::from(dt.as_micros());
        let mut bound_uj: u128 = 0;
        for &tid in entry.taps.values() {
            let tap = taps.get(tid.0).expect("flow index out of sync");
            if let RateSpec::Const(p) = tap.rate() {
                bound_uj += (p.as_microwatts() as u128 * dt_us).div_ceil(1_000_000);
            }
        }
        if !dynamic && bound_uj == 0 {
            // Only zero-rate taps: inert, no constraint either way
            // (closed form moves zero and leaves carries untouched,
            // exactly like the per-tick loop).
            return None;
        }
        // Stuck at ≤ 0 with no inflow possible, nothing ever moves or
        // touches a carry but the closed form's; empty (or indebted) but
        // refillable, it may come alive mid-run and clamp per tick.
        Some(if balance <= 0 && !self.has_inbound(source) {
            (SourceRun::Starved, u64::MAX)
        } else if dynamic || balance <= 0 {
            (SourceRun::Dynamic, 0)
        } else {
            (SourceRun::Covered, (balance as u128 / bound_uj) as u64)
        })
    }

    /// Opens a lane for every decay-eligible reserve that no tap drains
    /// and `skip` leaves out (a pooled run's swept waiters).
    pub(crate) fn open_lanes(&mut self, reserves: &Arena<Reserve>, skip: impl Fn(RawId) -> bool) {
        for &rid in &self.decay_eligible {
            if !skip(rid) && self.source_taps(rid).is_none() {
                self.lanes.open(reserves, rid);
            }
        }
    }
}

/// The planner's break-even: below this span length a proportional or
/// decaying graph is ticked, because run planning and slot assembly cost
/// more than the compiled ticks. Measured by `flow_hot_path`'s
/// `plan_vs_tick` (a shared 2-vCPU x86-64 VM), with the planner's tables
/// indexed by reserve slot and its dynamic partition ticked in the flow
/// kernel. On a battery feeding one decaying reserve, 4 ticks cost 133 ns
/// planned and 71 ticked, 8 ticks 93 and 108, 16 ticks 111 and 224; on
/// Fig 6b's graph, whose proportional island is ticked either way, 8 ticks
/// cost 785 and 594, 16 ticks 892 and 886, 64 ticks 3,028 and 3,315. The
/// crossover moved to about 8 ticks on the first graph and to 16 on the
/// second (planning lost at every span up to 64 before); at 8 the graphs
/// disagree, so it stays at 16.
pub(crate) const MIN_PARTITIONED_SPAN: u64 = 16;

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

    use super::{leak_recip, narrow_leak, Duty, NARROW};
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

        /// Decay on: every span runs the decay-aware partition in the flow
        /// kernel (or the compiled per-tick path for short spans).
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
    /// tick and the flow kernel alike.
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
    /// the reference — and checks every observable byte agrees after
    /// each span.
    fn lanes_match_reference(
        battery_j: i64,
        spans_ms: &[u64],
        build: impl Fn(&mut ResourceGraph),
    ) -> Result<ResourceGraph, TestCaseError> {
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
            prop_assert_eq!(dump(&engine_g), dump(&reference_g), "at {:?}", now);
        }
        prop_assert!(engine_g.totals().conserved());
        Ok(engine_g)
    }

    /// [`lanes_match_reference`], panicking on a divergence.
    fn decay_lanes_match_reference(
        battery_j: i64,
        spans_ms: &[u64],
        build: impl Fn(&mut ResourceGraph),
    ) -> ResourceGraph {
        lanes_match_reference(battery_j, spans_ms, build).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The default decay's leak per 100 ms tick, in ppm.
    fn default_ppm() -> u64 {
        let config = GraphConfig::default();
        config.decay.unwrap().leak_ppm_per_tick(config.flow_tick)
    }

    /// A lane's start: in debt, below the leak threshold, joules up, or
    /// beyond the leak's i64 product, scaled by `mantissa` (0..10⁶).
    fn start_lane(g: &mut ResourceGraph, lane: ReserveId, band: usize, mantissa: u64) {
        let k = Actor::kernel();
        let huge = i64::MAX / default_ppm() as i64 * 2;
        let m = mantissa as i64;
        match band {
            0 => g.consume_with_debt(&k, lane, Energy::from_microjoules(40 * m)),
            1 => g.inject(&k, lane, Energy::from_microjoules(m / 50)),
            2 => g.inject(&k, lane, Energy::from_microjoules(50 * m)),
            _ => g.inject(&k, lane, Energy::from_microjoules(huge + m)),
        }
        .unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Lanes started across leak bands with up to three jittered feeds
        /// each, flowed through spans of up to a few thousand ticks: every
        /// band jump and step lands where the reference's ticks do.
        #[test]
        fn lanes_from_any_band_match_reference(
            lanes in proptest::collection::vec(
                (0usize..4, 0u64..1_000_000, proptest::collection::vec(0u64..400_000, 0..4)),
                1..4,
            ),
            spans in proptest::collection::vec(1u64..4_000, 1..5),
        ) {
            let spans_ms: Vec<u64> = spans.iter().map(|ticks| ticks * 100).collect();
            lanes_match_reference(15_000, &spans_ms, |g| {
                let battery = g.battery();
                for (band, mantissa, feeds) in &lanes {
                    let lane = reserve(g, "lane");
                    start_lane(g, lane, *band, *mantissa);
                    for &uw in feeds {
                        feed(g, battery, lane, uw);
                    }
                }
            })?;
        }
    }

    /// A lane fed exactly its leak: the feed delivers q·10⁶ per tick and
    /// the lane starts at the foot of q's band, so the band never ends and
    /// one jump crosses every span.
    #[test]
    fn lane_at_exact_equilibrium_never_leaves_its_band() {
        let q = 3_750;
        let foot = (q * 1_000_000u64).div_ceil(default_ppm()) as i64;
        let q = q as i64;
        let g = decay_lanes_match_reference(15_000, &IDLE_SPANS_MS, |g| {
            let battery = g.battery();
            let lane = reserve(g, "lane");
            g.inject(&Actor::kernel(), lane, Energy::from_microjoules(foot - q))
                .unwrap();
            feed(g, battery, lane, q as u64 * 10);
        });
        let lane = g.reserves().find(|(_, r)| r.name() == "lane").unwrap().1;
        assert_eq!(lane.balance(), Energy::from_microjoules(foot - q));
        let (settled, stepped) = g.lane_ticks();
        assert!(settled > 36_000 && stepped < 10, "{settled} {stepped}");
    }

    /// Two lanes fed 3 µJ a tick over and under leak q: each drifts 3, 2
    /// and then 1 µJ a tick through three bands, visiting every level of
    /// the third, and stops in the fourth, where its feed equals its leak.
    /// Each band costs one stepped tick, its first: a jump that stopped a
    /// tick short of a band's top (rising) or foot (falling) would step
    /// again.
    #[test]
    fn band_jumps_step_once_per_band() {
        let (q, ppm) = (3_750, default_ppm());
        let foot = |q: u64| (q * 1_000_000).div_ceil(ppm) as i64;
        let g = decay_lanes_match_reference(15_000, &[2_000_000], |g| {
            let k = Actor::kernel();
            let battery = g.battery();
            for (name, first, delivered) in [
                ("rising", foot(q), q + 3),
                ("falling", foot(q + 1) - 1, q - 3),
            ] {
                let lane = reserve(g, name);
                let start = Energy::from_microjoules(first - delivered as i64);
                g.inject(&k, lane, start).unwrap();
                feed(g, battery, lane, delivered * 10);
            }
        });
        assert_eq!(g.lane_ticks(), (40_000, 8));
    }

    /// An unfed lane with a positive leak: its level falls band by band,
    /// each band shorter than the last, as the 20 J it starts with halves
    /// every ten minutes.
    #[test]
    fn unfed_leaking_lane_matches_reference() {
        let g = decay_lanes_match_reference(15_000, &IDLE_SPANS_MS, |g| {
            let lane = reserve(g, "hoard");
            g.inject(&Actor::kernel(), lane, Energy::from_joules(20))
                .unwrap();
        });
        let (settled, stepped) = g.lane_ticks();
        assert!(stepped * 4 < settled, "{settled} {stepped}");
    }

    /// A lane beyond the leak's i64 product, fed from a decay-exempt hoard
    /// 431 µJ a tick over its leak, about 1/20 of a band's width: each band
    /// lasts about 20 ticks, and its bounds and leak take the i128 path.
    #[test]
    fn lane_bands_beyond_the_i64_product_match_reference() {
        let ppm = default_ppm() as i64;
        let level = i64::MAX / ppm * 2;
        let q = (i128::from(level) * i128::from(ppm) / 1_000_000) as i64;
        let g = decay_lanes_match_reference(15_000, &[100, 1_000, 60_000, 12_345], |g| {
            let k = Actor::kernel();
            let hoard = reserve(g, "hoard");
            g.inject(&k, hoard, Energy::from_microjoules(level))
                .unwrap();
            g.set_decay_exempt(&k, hoard, true).unwrap();
            let lane = reserve(g, "lane");
            let start = Energy::from_microjoules(level - q - 431);
            g.inject(&k, lane, start).unwrap();
            feed(g, hoard, lane, (q as u64 + 431) * 10);
        });
        let (settled, stepped) = g.lane_ticks();
        assert!(stepped * 4 < settled, "{settled} {stepped}");
    }

    /// Two feeds into a lane that starts 1 J under their joint equilibrium
    /// of 473 J, over spans of thousands of ticks: a lane fed more than
    /// once steps its long bands.
    #[test]
    fn two_fed_lane_near_equilibrium_matches_reference() {
        decay_lanes_match_reference(15_000, &[100, 300_000, 600_000, 1_234_500], |g| {
            let k = Actor::kernel();
            let battery = g.battery();
            let exempt = reserve(g, "exempt");
            g.transfer(&k, battery, exempt, Energy::from_joules(5_000))
                .unwrap();
            g.set_decay_exempt(&k, exempt, true).unwrap();
            let lane = reserve(g, "lane");
            g.transfer(&k, battery, lane, Energy::from_joules(472))
                .unwrap();
            feed(g, battery, lane, 37_513);
            feed(g, exempt, lane, 511_111);
        });
    }

    /// Lanes fed half a µJ and a tenth of a µJ a tick over leak q, started
    /// at the top of q's band: each hovers at the boundary with q + 1's
    /// band for hours. The first crosses it every tick, so once two short
    /// bands come back it steps for good; the second spends a tick above
    /// it and nine below, and still jumps those, stepping one tick in five.
    #[test]
    fn hovering_lanes_match_reference() {
        let (q, ppm) = (3_750u64, default_ppm());
        let top = ((q + 1) * 1_000_000).div_ceil(ppm) as i64 - 1;
        for (over_uw, jumps) in [(5, false), (1, true)] {
            let g = decay_lanes_match_reference(15_000, &IDLE_SPANS_MS, |g| {
                let lane = reserve(g, "lane");
                let start = Energy::from_microjoules(top - q as i64);
                g.inject(&Actor::kernel(), lane, start).unwrap();
                let battery = g.battery();
                feed(g, battery, lane, q * 10 + over_uw);
            });
            let (settled, stepped) = g.lane_ticks();
            let expected = if jumps {
                stepped * 4 < settled
            } else {
                stepped == settled
            };
            assert!(expected, "{over_uw} µW over: {settled} {stepped}");
        }
    }

    /// One duty run through [`ResourceGraph::settle_duty`] and the same
    /// quanta stepped against the reference: `head` quanta, then per tick
    /// the reference's tick and `per_tick` quanta, each charged while the
    /// reserve is positive. A lane-shaped reserve over a span no shorter
    /// than the break-even settles as a charged lane, any other run in the
    /// flow kernel. Both graphs and both duties must agree.
    fn duty_matches_reference(
        config: GraphConfig,
        build: impl Fn(&mut ResourceGraph) -> ReserveId,
        (cost, head, per_tick, window): (i64, u64, u64, u64),
        ticks: u64,
    ) -> Result<(Duty, ResourceGraph), TestCaseError> {
        let initial = Energy::from_joules(15_000);
        let mut engine_g = ResourceGraph::with_config(initial, config);
        let mut reference_g = ResourceGraph::with_config(initial, config);
        let reserve = build(&mut engine_g);
        build(&mut reference_g);
        let cost = Energy::from_microjoules(cost);
        let mut duty = Duty::new(reserve, cost, head, per_tick, window);
        let mut stepped = duty.clone();
        let ticks = engine_g.duty_run(reserve, ticks).unwrap();
        let settled = engine_g.settle_duty(&mut duty, ticks);
        let k = Actor::kernel();
        let quanta = |g: &mut ResourceGraph, d: &mut Duty, n: u64| {
            for _ in 0..n {
                let (level, runs) = (g.reserve(reserve).unwrap().balance(), d.runs);
                d.step(&mut level.as_microjoules(), 1);
                if d.runs > runs {
                    g.consume_with_debt(&k, reserve, cost).unwrap();
                }
            }
        };
        quanta(&mut reference_g, &mut stepped, head);
        for _ in 0..settled {
            let now = reference_g.now() + config.flow_tick;
            reference_g.flow_until_reference(now);
            quanta(&mut reference_g, &mut stepped, per_tick);
        }
        prop_assert_eq!(dump(&engine_g), dump(&reference_g));
        let outputs = |d: &Duty| (d.runs, d.throttles, d.ran, d.edge, d.last_run());
        prop_assert_eq!(outputs(&duty), outputs(&stepped));
        Ok((duty, engine_g))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Fig 6b's island, each of its three reserves the charged one in
        /// turn, started funded, empty or in debt, over spans on both sides
        /// of the break-even, on 100 ms and 10 ms quanta with decay on and
        /// off: none is lane-shaped (a backward tap or an onward feed
        /// drains it), so each run ticks in the flow kernel, its quanta
        /// charged between ticks, and lands where the reference's do.
        #[test]
        fn island_duty_runs_tick_like_the_reference(
            charged in 0usize..3,
            starts in proptest::collection::vec(-30_000i64..40_000, 3..4),
            fine in any::<bool>(),
            head in 0u64..3,
            window in 1u64..=128,
            decay in any::<bool>(),
            ticks in 1u64..60,
        ) {
            let config = GraphConfig {
                decay: decay.then(|| GraphConfig::default().decay.unwrap()),
                ..GraphConfig::default()
            };
            let (cost, per_tick) = if fine { (1_370, 10) } else { (13_700, 1) };
            duty_matches_reference(
                config,
                |g| {
                    fig6b(g);
                    let k = Actor::kernel();
                    let battery = g.battery();
                    let island: Vec<ReserveId> = ["browser", "plugin", "extension"]
                        .iter()
                        .map(|name| g.reserves().find(|(_, r)| r.name() == *name).unwrap().0)
                        .collect();
                    for (&r, &start) in island.iter().zip(&starts) {
                        let amount = Energy::from_microjoules(start.abs());
                        if start < 0 {
                            g.consume_with_debt(&k, r, amount).unwrap();
                        } else {
                            g.transfer(&k, battery, r, amount).unwrap();
                        }
                    }
                    island[charged]
                },
                (cost, head * per_tick / 2, per_tick, window),
                ticks,
            )?;
        }
    }

    /// A decay-exempt reserve no tap touches, charged beside Fig 6b's
    /// island: the kernel gives it a slot of its own for the run.
    #[test]
    fn duty_run_slots_an_untapped_reserve() {
        let (duty, g) = duty_matches_reference(
            GraphConfig::default(),
            |g| {
                fig6b(g);
                let k = Actor::kernel();
                let battery = g.battery();
                let loner = reserve(g, "loner");
                g.transfer(&k, battery, loner, Energy::from_millijoules(90))
                    .unwrap();
                g.set_decay_exempt(&k, loner, true).unwrap();
                loner
            },
            (13_700, 0, 1, 10),
            400,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(duty.runs, 7, "{duty:?}");
        // The run's slot is the run's alone: a single tick afterwards
        // moves nothing through the spent reserve.
        let loner = g.reserves().find(|(_, r)| r.name() == "loner").unwrap();
        assert!(loner.1.balance().is_negative());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Charged lanes from any start (in debt, on the orbit, funded,
        /// or above the leak threshold), fed by up to three jittered feeds
        /// that the count may or may not take, on 100 ms and 10 ms quanta,
        /// with decay on and off: the counted runs, throttles, last edge,
        /// last run and its history equal stepping's.
        #[test]
        fn charged_lanes_count_like_stepping(
            band in 0usize..3,
            mantissa in 0u64..1_000_000,
            feeds in proptest::collection::vec(0u64..120_000, 0..4),
            fine in any::<bool>(),
            head in 0u64..3,
            window in 1u64..=128,
            decay in any::<bool>(),
            ticks in 16u64..3_000,
        ) {
            let config = GraphConfig {
                decay: decay.then(|| GraphConfig::default().decay.unwrap()),
                ..GraphConfig::default()
            };
            let (cost, per_tick) = if fine { (1_370, 10) } else { (13_700, 1) };
            duty_matches_reference(
                config,
                |g| {
                    let battery = g.battery();
                    let lane = reserve(g, "hog");
                    start_lane(g, lane, band, mantissa);
                    for &uw in &feeds {
                        feed(g, battery, lane, uw);
                    }
                    lane
                },
                (cost, head * per_tick / 2, per_tick, window),
                ticks,
            )?;
        }
    }

    /// The count's two bounds from an empty reserve, met and missed by a
    /// µJ: at 125 ppm a post-feed level of 8,000 µJ is the least that
    /// leaks, and with decay off 13,701 µJ is one more than a tick's
    /// 13,700 µJ quantum can spend. A feed of 7,999 or 13,700 µJ a tick is
    /// counted; one of 8,000 or 13,701 is stepped.
    #[test]
    fn charged_lanes_count_up_to_their_bounds() {
        let leaky = GraphConfig {
            decay: Some(crate::DecayConfig {
                leak_fraction: 0.000_125,
                period: SimDuration::from_millis(100),
            }),
            ..GraphConfig::default()
        };
        let still = GraphConfig {
            decay: None,
            ..GraphConfig::default()
        };
        for (config, uw, counted) in [
            (leaky, 79_990, true),
            (leaky, 80_000, false),
            (still, 137_000, true),
            (still, 137_010, false),
        ] {
            let hog = |g: &mut ResourceGraph| {
                let battery = g.battery();
                let lane = reserve(g, "hog");
                feed(g, battery, lane, uw);
                lane
            };
            let (_, g) = duty_matches_reference(config, hog, (13_700, 0, 1, 10), 1_000)
                .unwrap_or_else(|e| panic!("{uw} µW: {e}"));
            let stepped = if counted { 0 } else { 1_000 };
            assert_eq!(g.lane_ticks(), (1_000, stepped), "{uw} µW");
        }
    }

    /// Fig 9's hog on the fleet's 100 ms quantum: fed 68.5 mW against a
    /// 137 mW quantum, it runs every other quantum, and a day of ticks is
    /// counted in one settle.
    #[test]
    fn fig9_hog_counts_a_day() {
        let hog = |g: &mut ResourceGraph| {
            let battery = g.battery();
            let lane = reserve(g, "hog");
            feed(g, battery, lane, 68_500);
            lane
        };
        let (duty, _) =
            duty_matches_reference(GraphConfig::default(), hog, (13_700, 1, 1, 10), 864_000)
                .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(duty.quanta(), 864_001);
        assert!(duty.runs.abs_diff(432_000) < 10, "{duty:?}");
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Two lanes fed once each, with independent jittered feeds, start
        /// levels and carries (a warm-up of a few single ticks leaves the
        /// carries mid-way), settled together over spans of 1 to 4,000
        /// ticks: wherever either leaves the pair, both land where the
        /// reference's ticks do.
        #[test]
        fn paired_lanes_match_reference(
            lanes in proptest::collection::vec((0usize..3, 0u64..1_000_000, 1u64..400_000), 2..3),
            warmup in 1u64..10,
            spans in proptest::collection::vec(1u64..4_000, 1..5),
        ) {
            let spans_ms: Vec<u64> = std::iter::once(warmup)
                .chain(spans)
                .map(|ticks| ticks * 100)
                .collect();
            lanes_match_reference(15_000, &spans_ms, |g| {
                let battery = g.battery();
                for &(band, mantissa, uw) in &lanes {
                    let lane = reserve(g, "lane");
                    start_lane(g, lane, band, mantissa);
                    feed(g, battery, lane, uw + 7);
                }
            })?;
        }
    }

    /// Two lanes fed 39 mW, whose leaks jump within 1,077 µJ of 3,900: one
    /// starts at 24 J, a few hundred ticks below that range, and leaves the
    /// pair on entering it to jump its bands; the other starts empty and
    /// steps on alone, its leak below the range all run.
    #[test]
    fn lane_leaving_the_pair_for_its_bands_matches_reference() {
        let g = decay_lanes_match_reference(15_000, &[100, 2_000, 60_000, 600_000], |g| {
            let battery = g.battery();
            let rising = reserve(g, "rising");
            g.transfer(&Actor::kernel(), battery, rising, Energy::from_joules(24))
                .unwrap();
            feed(g, battery, rising, 39_000);
            let empty = reserve(g, "empty");
            feed(g, battery, empty, 39_000);
        });
        // Of each lane's 6,620 planned ticks the empty one steps all and
        // the rising one under a third.
        let (settled, stepped) = g.lane_ticks();
        assert_eq!(settled, 2 * 6_620);
        assert!((6_620..6_620 + 2_200).contains(&stepped), "{stepped}");
    }

    /// An unfed lane at 50 mJ beside a lane fed 39 mW. With every band
    /// stepped ([`ResourceGraph::flow_lane_ticks`] without band jumps) its
    /// leak reaches zero in the third span, where it leaves the pair and
    /// stops, while the fed lane steps on alone; with band jumps its leak
    /// starts in range, so it never pairs.
    #[test]
    fn unfed_lane_reaching_a_zero_leak_beside_a_fed_one_matches_reference() {
        for band_jumps in [false, true] {
            let initial = Energy::from_joules(15_000);
            let mut engine_g = ResourceGraph::with_config(initial, GraphConfig::default());
            let mut reference_g = ResourceGraph::with_config(initial, GraphConfig::default());
            for g in [&mut engine_g, &mut reference_g] {
                let k = Actor::kernel();
                let battery = g.battery();
                let unfed = reserve(g, "unfed");
                g.transfer(&k, battery, unfed, Energy::from_millijoules(50))
                    .unwrap();
                let fed = reserve(g, "fed");
                feed(g, battery, fed, 39_000);
            }
            let tick = GraphConfig::default().flow_tick;
            for ticks in [300, 4_000, 20_000] {
                engine_g.flow_lane_ticks(ticks, band_jumps);
                reference_g.flow_until_reference(engine_g.now());
                assert_eq!(dump(&engine_g), dump(&reference_g), "{band_jumps} {ticks}");
            }
            let unfed = engine_g
                .reserves()
                .find(|(_, r)| r.name() == "unfed")
                .unwrap();
            let foot = 1_000_000u64.div_ceil(default_ppm()) as i64;
            assert!(unfed.1.balance() < Energy::from_microjoules(foot));
            assert_eq!(engine_g.now(), SimTime::ZERO + tick * 24_300);
            // The unfed lane stopped stepping once its leak was zero.
            let (settled, stepped) = engine_g.lane_ticks();
            assert!(
                stepped + 4_000 < settled,
                "{band_jumps}: {settled} {stepped}"
            );
        }
    }

    /// Lanes fed once, twice and once: the lane fed twice steps by the
    /// wide arithmetic, and the two fed once pair across it.
    #[test]
    fn lane_fed_twice_between_single_fed_ones_matches_reference() {
        decay_lanes_match_reference(15_000, &IDLE_SPANS_MS, |g| {
            let k = Actor::kernel();
            let battery = g.battery();
            let exempt = reserve(g, "exempt");
            g.transfer(&k, battery, exempt, Energy::from_joules(5_000))
                .unwrap();
            g.set_decay_exempt(&k, exempt, true).unwrap();
            let first = reserve(g, "first");
            feed(g, battery, first, 37_513);
            let twice = reserve(g, "twice");
            feed(g, battery, twice, 36_977);
            feed(g, exempt, twice, 511_111);
            let last = reserve(g, "last");
            feed(g, battery, last, 1_234_567);
        });
    }

    /// Three lanes, an odd count: a pair, whose members leave it at
    /// different ticks, and a third stepping alone. The first is fed 39
    /// mW from 20 J, the second the same from empty, the third is unfed
    /// from 15 J.
    #[test]
    fn three_lanes_match_reference() {
        decay_lanes_match_reference(15_000, &IDLE_SPANS_MS, |g| {
            let k = Actor::kernel();
            let battery = g.battery();
            for (name, start_j, uw) in [("a", 20, 39_000), ("b", 0, 39_000), ("c", 15, 0)] {
                let lane = reserve(g, name);
                g.transfer(&k, battery, lane, Energy::from_joules(start_j))
                    .unwrap();
                if uw > 0 {
                    feed(g, battery, lane, uw);
                }
            }
        });
    }

    /// Two lanes at the edge of the narrow leak's bound, about 18 MJ, fed
    /// from a decay-exempt hoard: one ends each span below the bound and
    /// leaks by the reciprocal, the other starts above it and leaks by
    /// the wide arithmetic, so the two never pair.
    #[test]
    fn lanes_at_the_narrow_bound_match_reference() {
        let narrow = NARROW as i64;
        decay_lanes_match_reference(15_000, &[100, 1_000, 60_000, 12_345], |g| {
            let k = Actor::kernel();
            let hoard = reserve(g, "hoard");
            g.inject(&k, hoard, Energy::from_microjoules(narrow))
                .unwrap();
            g.set_decay_exempt(&k, hoard, true).unwrap();
            for (name, start) in [("below", narrow - 10_000_000), ("above", narrow + 1)] {
                let lane = reserve(g, name);
                g.inject(&k, lane, Energy::from_microjoules(start)).unwrap();
                feed(g, hoard, lane, 39_000);
            }
        });
    }

    /// The reciprocal leak is exact up to [`NARROW`]. Its error grows with
    /// the level, so each residue of x·ppm mod 10⁶ is worst at the largest
    /// level that has it, all within the last 10⁶ levels under the bound:
    /// those are checked whole for rates from 1 ppm up.
    #[test]
    fn narrow_leak_is_exact_up_to_its_bound() {
        let exact = |x: u64, ppm: u64| (u128::from(x) * u128::from(ppm) / 1_000_000) as i64;
        for ppm in [1, 116, 65_537, 999_999] {
            let recip = leak_recip(ppm).unwrap();
            for x in NARROW - 999_999..=NARROW {
                assert_eq!(
                    narrow_leak(x as i64, recip),
                    exact(x, ppm),
                    "{x} at {ppm} ppm"
                );
            }
        }
        for ppm in [0, 2, 7, 500_000, 999_998] {
            let recip = leak_recip(ppm).unwrap();
            for x in [NARROW, NARROW - 1, 1_000_000, 123_456_789, 1] {
                assert_eq!(
                    narrow_leak(x as i64, recip),
                    exact(x, ppm),
                    "{x} at {ppm} ppm"
                );
            }
        }
        assert_eq!(narrow_leak(-5, leak_recip(116).unwrap()), 0);
        assert_eq!(leak_recip(1_000_000), None);
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

    /// Fig 6b's browser graph: the battery feeds the browser 694 mW, which
    /// feeds the plugin 70 mW and the extension 20 mW, and the browser and
    /// the plugin leak 10%/s back to the battery.
    fn fig6b(g: &mut ResourceGraph) {
        let k = Actor::kernel();
        let battery = g.battery();
        let browser = reserve(g, "browser");
        let plugin = reserve(g, "plugin");
        let extension = reserve(g, "extension");
        feed(g, battery, browser, 694_000);
        feed(g, browser, plugin, 70_000);
        feed(g, browser, extension, 20_000);
        for source in [browser, plugin] {
            g.create_tap(
                &k,
                "back",
                source,
                battery,
                RateSpec::proportional(0.1),
                Label::default_label(),
            )
            .unwrap();
        }
    }

    /// Spans on both sides of the planner's break-even — 1, 15, 16 and 17
    /// ticks at today's `MIN_PARTITIONED_SPAN` of 16 — after a minute's
    /// warm-up: `flow_until`, the planner alone and the compiled tick
    /// alone ([`ResourceGraph::flow_ticks`]) must each end every span
    /// where the reference does.
    fn break_even_spans_match_reference(build: impl Fn(&mut ResourceGraph)) {
        let config = GraphConfig::default();
        let initial = Energy::from_joules(15_000);
        let mut graphs: [ResourceGraph; 4] =
            std::array::from_fn(|_| ResourceGraph::with_config(initial, config));
        for g in &mut graphs {
            build(g);
        }
        let [until, planned, ticked, reference] = &mut graphs;
        let b = super::MIN_PARTITIONED_SPAN;
        for ticks in [600, 1, b - 1, b, b + 1, b + 1, b, b - 1, 1] {
            let now = reference.now() + config.flow_tick * ticks;
            until.flow_until(now);
            planned.flow_ticks(ticks, true);
            ticked.flow_ticks(ticks, false);
            reference.flow_until_reference(now);
            let expected = dump(reference);
            for (side, g) in [
                ("flow_until", &*until),
                ("planned", &*planned),
                ("ticked", &*ticked),
            ] {
                assert_eq!(dump(g), expected, "{side}, {ticks} ticks");
            }
        }
        assert!(reference.totals().conserved());
    }

    /// The break-even on a battery feeding one decaying lane through a
    /// jittered constant tap.
    #[test]
    fn break_even_spans_on_a_decay_lane_match_reference() {
        break_even_spans_match_reference(|g| {
            let battery = g.battery();
            let lane = reserve(g, "lane");
            feed(g, battery, lane, 37_513);
        });
    }

    /// The break-even on Fig 6b's graph, whose proportional island is
    /// ticked on either side of it.
    #[test]
    fn break_even_spans_on_fig6b_match_reference() {
        break_even_spans_match_reference(fig6b);
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
