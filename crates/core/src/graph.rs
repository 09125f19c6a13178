//! The resource consumption graph: reserves connected by taps, rooted at the
//! battery (paper §3.4).
//!
//! All mutation goes through privilege-checked methods taking an [`Actor`]
//! (a thread's label + privileges, or the kernel itself). The graph advances
//! in *batch flow ticks* ([`ResourceGraph::flow_until`]), mirroring the
//! paper's implementation note that tap transfers "are executed in batch
//! periodically to minimize scheduling and context-switch overheads".
//!
//! # Typed resource kinds
//!
//! Every reserve declares a [`ResourceKind`] — energy, network bytes, or
//! SMS messages (the paper's §9 generalisation). Each kind is rooted at its
//! own pool reserve (the battery for energy, created via
//! [`ResourceGraph::create_root`] for quotas), and taps and transfers may
//! only connect reserves of the same kind; cross-kind attempts fail with
//! the typed [`GraphError::KindMismatch`]. The [`Quantity`]/[`Rate`]
//! newtypes tag raw grain amounts with their kind at the API boundary
//! ([`ResourceGraph::level_typed`] and friends).
//!
//! # Determinism and conservation
//!
//! Within a tick every tap computes its desired transfer from a
//! start-of-tick snapshot of source levels, then transfers are applied in
//! tap-creation order, clamped to the source's remaining non-negative
//! balance (earlier-created taps win when a source is oversubscribed; the
//! paper leaves this unspecified). Creation order is tracked explicitly
//! ([`Tap::seq`]), so the guarantee survives arena-slot reuse. All
//! arithmetic is exact integer grains, so **per resource kind**
//!
//! > total injected == Σ balances + total consumed
//!
//! holds *exactly* at every instant ([`ResourceGraph::totals_for`]), and is
//! asserted by property tests. The global sum over kinds
//! ([`ResourceGraph::totals`]) conserves as a corollary.
//!
//! # Execution: the `FlowEngine`
//!
//! Ticks are executed by the `FlowEngine` (see [`crate::flow`]) embedded in
//! the graph. It maintains a per-source adjacency index (tap lists keyed by
//! source reserve, in creation order) that `create_tap`, `delete_tap`,
//! `set_tap_rate`, and `delete_reserve` keep up to date; a single tick runs
//! over a plan those hooks mark stale, compiled from the taps in creation
//! order, and needs no allocation (only proportional taps' sources are
//! read at the start of a tick, and quiescent sources are skipped).
//! Multi-tick spans are planned as partitioned *runs*: sources provably
//! linear for the run are applied in closed form, and only taps adjacent
//! to dynamic reserves (live proportional sources, clamp boundaries,
//! refillable empties, decaying sources, and fed decaying sinks that are
//! not *decay lanes*, which advance alone) tick, over dense SoA arrays.
//! Long `flow_until` spans cost work proportional to graph *events* plus
//! the dynamic island, not tick count × graph size. The engine's results
//! are bit-identical to the naive per-tick loop, which is retained as
//! `ResourceGraph::flow_until_reference` (built for tests and under the
//! `reference-flow` feature) for differential testing and benchmarking.

use cinder_label::{Label, PrivilegeSet};
use cinder_sim::{Energy, Power, SimDuration, SimTime};

use crate::arena::{Arena, RawId};
use crate::decay::DecayConfig;
use crate::errors::GraphError;
use crate::flow::FlowEngine;
use crate::kind::{Quantity, Rate, ResourceKind};
use crate::reserve::Reserve;
use crate::tap::{RateSpec, Tap};

/// Identifies a reserve in a [`ResourceGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReserveId(pub(crate) RawId);

/// Identifies a tap in a [`ResourceGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TapId(pub(crate) RawId);

/// The security identity performing a graph operation: a thread's label and
/// privileges, or the kernel itself (which bypasses checks — it is the
/// enforcement mechanism, not a subject of it).
#[derive(Debug, Clone)]
pub struct Actor {
    label: Label,
    privs: PrivilegeSet,
    is_kernel: bool,
}

impl Actor {
    /// The kernel actor: bypasses all label checks.
    pub fn kernel() -> Self {
        Actor {
            label: Label::default_label(),
            privs: PrivilegeSet::empty(),
            is_kernel: true,
        }
    }

    /// A user-level actor with the given label and privileges.
    pub fn new(label: Label, privs: PrivilegeSet) -> Self {
        Actor {
            label,
            privs,
            is_kernel: false,
        }
    }

    /// An unprivileged actor at the default label (most application code).
    pub fn unprivileged() -> Self {
        Actor::new(Label::default_label(), PrivilegeSet::empty())
    }

    /// The actor's label.
    pub fn label(&self) -> &Label {
        &self.label
    }

    /// The actor's privileges.
    pub fn privs(&self) -> &PrivilegeSet {
        &self.privs
    }

    /// True for the kernel actor.
    pub fn is_kernel(&self) -> bool {
        self.is_kernel
    }

    /// Grants ownership of a category (e.g. after `category_alloc`).
    pub fn grant(&mut self, category: cinder_label::Category) {
        self.privs.grant(category);
    }

    fn can_observe(&self, object: &Label) -> bool {
        self.is_kernel || self.label.can_observe(&self.privs, object)
    }

    fn can_modify(&self, object: &Label) -> bool {
        self.is_kernel || self.label.can_modify(&self.privs, object)
    }

    fn can_use(&self, object: &Label) -> bool {
        self.is_kernel || self.label.can_use(&self.privs, object)
    }
}

impl Default for Actor {
    fn default() -> Self {
        Actor::unprivileged()
    }
}

/// Graph-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphConfig {
    /// Cadence of batch tap execution (paper: "in practice, transfers are
    /// executed in batch periodically").
    pub flow_tick: SimDuration,
    /// The global anti-hoarding decay; `None` disables it (used by the
    /// hoarding ablation and Fig 12b's short runs).
    pub decay: Option<DecayConfig>,
    /// Enables the paper's "more fundamental" anti-hoarding alternative
    /// (§5.2.2): `reserve_clone` semantics plus drain-rate-preserving
    /// transfer checks.
    pub strict_anti_hoarding: bool,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            flow_tick: SimDuration::from_millis(100),
            decay: Some(DecayConfig::paper_default()),
            strict_anti_hoarding: false,
        }
    }
}

/// A snapshot of conservation totals, for invariant checks and experiment
/// reporting. Produced per resource kind by [`ResourceGraph::totals_for`]
/// and summed over all kinds by [`ResourceGraph::totals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphTotals {
    /// Total ever injected (initial roots + recharges).
    pub injected: Energy,
    /// Sum of all current reserve balances (including roots and any debt,
    /// which is negative).
    pub balances: Energy,
    /// Total consumed through [`ResourceGraph::consume`] and friends.
    pub consumed: Energy,
}

impl GraphTotals {
    /// The exact conservation invariant.
    pub fn conserved(&self) -> bool {
        self.injected == self.balances + self.consumed
    }
}

/// Why [`ResourceGraph::pooled_run`] refused to certify a pooled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolRefusal {
    /// A waiter holds a positive balance its next sweep would move.
    WaiterHolds,
    /// A live tap the closed form does not cover: proportional, draining
    /// a waiter or the pool, filling the pool, filling a decaying reserve
    /// that is neither swept nor gated and that a tap drains (one no tap
    /// drains is a decay lane), or refilling a drained source.
    LiveFlow,
    /// The global decay could move a microjoule during the run.
    LiveDecay,
    /// Not one whole tick fits: the shortfall or a source's coverage is
    /// reached within it, the wake bound allows none, or nothing flows.
    NoRoom,
}

/// A [`ResourceGraph::pool_plan`] classification of the live taps.
struct PoolPlan {
    /// Distinct waiters, in sweep order.
    waiters: Vec<PoolWaiter>,
    /// Covered sources and their balances, µJ.
    sources: Vec<(ReserveId, u128)>,
    /// Covered taps.
    taps: Vec<PoolTap>,
}

struct PoolWaiter {
    id: ReserveId,
    /// Balance at the start of the run (≤ 0), µJ.
    start: i128,
    /// Subject to the global decay.
    decays: bool,
    /// The most one tick can deliver into it, µJ.
    worst_tick: u128,
}

struct PoolTap {
    /// Index into [`PoolPlan::sources`].
    source: usize,
    /// Index into [`PoolPlan::waiters`], or `None` for a sink the decay
    /// never touches.
    waiter: Option<usize>,
    /// `rate_µW × tick_µs`.
    step: u128,
    carry: u128,
}

impl PoolTap {
    /// µJ moved over `ticks` unclamped ticks ([`Tap::bulk_advance_const`]).
    fn moved(&self, ticks: u64) -> u128 {
        (self.carry + self.step * ticks as u128) / 1_000_000
    }
}

impl PoolPlan {
    /// µJ the covered taps selected by `pick` move over `ticks` ticks.
    fn moved(&self, ticks: u64, pick: impl Fn(&PoolTap) -> bool) -> u128 {
        self.taps
            .iter()
            .filter(|t| pick(t))
            .map(|t| t.moved(ticks))
            .sum()
    }

    /// Whether a `ticks`-tick run keeps every covered source strictly
    /// positive and the cumulative sweep below `shortfall`. Both are
    /// monotone in `ticks`.
    fn fits(&self, ticks: u64, shortfall: Energy) -> bool {
        let covered = self
            .sources
            .iter()
            .enumerate()
            .all(|(i, &(_, balance))| self.moved(ticks, |t| t.source == i) < balance);
        let swept: i128 = self
            .waiters
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let inflow = self.moved(ticks, |t| t.waiter == Some(i));
                (w.start + inflow as i128).max(0)
            })
            .sum();
        covered && swept < shortfall.as_microjoules() as i128
    }
}

/// The resource consumption graph.
pub struct ResourceGraph {
    reserves: Arena<Reserve>,
    taps: Arena<Tap>,
    battery: ReserveId,
    /// Per-kind root reserves; `roots[Energy] == Some(battery)` always.
    roots: [Option<ReserveId>; ResourceKind::COUNT],
    config: GraphConfig,
    decay_ppm_per_tick: u64,
    now: SimTime,
    total_injected: [Energy; ResourceKind::COUNT],
    total_consumed: [Energy; ResourceKind::COUNT],
    /// Indexed batch-flow executor; its adjacency index is maintained by
    /// every tap/reserve mutator below.
    flow: FlowEngine,
    /// Next tap creation sequence number ([`Tap::seq`]).
    next_tap_seq: u64,
}

impl ResourceGraph {
    /// Creates a graph whose root (battery) reserve holds `initial` energy,
    /// with default configuration.
    pub fn new(initial: Energy) -> Self {
        Self::with_config(initial, GraphConfig::default())
    }

    /// Creates a graph with explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is negative or the flow tick is zero.
    pub fn with_config(initial: Energy, config: GraphConfig) -> Self {
        assert!(!initial.is_negative(), "battery cannot start in debt");
        assert!(!config.flow_tick.is_zero(), "flow tick must be positive");
        let mut reserves = Arena::new();
        let mut battery = Reserve::new(
            "battery",
            Label::default_label(),
            ResourceKind::Energy,
            SimTime::ZERO,
        );
        battery.set_decay_exempt(true);
        battery.credit(initial);
        let battery_id = ReserveId(reserves.insert(battery));
        // (Exempt: never decay-eligible, so no engine notification needed.)
        let decay_ppm_per_tick = config
            .decay
            .map(|d| d.leak_ppm_per_tick(config.flow_tick))
            .unwrap_or(0);
        let mut roots = [None; ResourceKind::COUNT];
        roots[ResourceKind::Energy.index()] = Some(battery_id);
        let mut total_injected = [Energy::ZERO; ResourceKind::COUNT];
        total_injected[ResourceKind::Energy.index()] = initial;
        ResourceGraph {
            reserves,
            taps: Arena::new(),
            battery: battery_id,
            roots,
            config,
            decay_ppm_per_tick,
            now: SimTime::ZERO,
            total_injected,
            total_consumed: [Energy::ZERO; ResourceKind::COUNT],
            flow: FlowEngine::new(),
            next_tap_seq: 0,
        }
    }

    /// The root reserve representing the battery (paper §3.4: "The root of
    /// the graph is a reserve representing the system battery") — the
    /// [`ResourceKind::Energy`] root.
    pub fn battery(&self) -> ReserveId {
        self.battery
    }

    /// The root reserve of a kind, if one exists. The energy root (the
    /// battery) always does; quota roots are created with
    /// [`ResourceGraph::create_root`].
    pub fn root(&self, kind: ResourceKind) -> Option<ReserveId> {
        self.roots[kind.index()]
    }

    /// Creates the root pool for a non-energy kind — §9's "replacing the
    /// logical battery with a pool of network bytes". Kernel-only, like
    /// [`ResourceGraph::inject`]: roots mint resources.
    ///
    /// The root is decay-exempt (quotas do not decay), cannot be deleted,
    /// and its initial balance counts toward the kind's injected total.
    pub fn create_root(
        &mut self,
        actor: &Actor,
        name: &str,
        initial: Quantity,
    ) -> Result<ReserveId, GraphError> {
        if !actor.is_kernel {
            return Err(GraphError::PermissionDenied { op: "create_root" });
        }
        if initial.raw().is_negative() {
            return Err(GraphError::InvalidAmount);
        }
        let kind = initial.kind();
        if self.roots[kind.index()].is_some() {
            return Err(GraphError::DuplicateRoot { kind });
        }
        let mut root = Reserve::new(name, Label::default_label(), kind, self.now);
        root.set_decay_exempt(true);
        root.credit(initial.raw());
        let id = ReserveId(self.reserves.insert(root));
        self.roots[kind.index()] = Some(id);
        self.total_injected[kind.index()] += initial.raw();
        Ok(id)
    }

    /// The time up to which flows have been processed.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The active configuration.
    pub fn config(&self) -> &GraphConfig {
        &self.config
    }

    /// Read-only access to a reserve (kernel-internal introspection; label
    /// checks apply to the syscall surface, not to accounting).
    pub fn reserve(&self, id: ReserveId) -> Option<&Reserve> {
        self.reserves.get(id.0)
    }

    /// Read-only access to a tap.
    pub fn tap(&self, id: TapId) -> Option<&Tap> {
        self.taps.get(id.0)
    }

    /// Iterates over `(id, reserve)` pairs in creation order.
    pub fn reserves(&self) -> impl Iterator<Item = (ReserveId, &Reserve)> {
        self.reserves.iter().map(|(id, r)| (ReserveId(id), r))
    }

    /// Iterates over `(id, tap)` pairs in creation order.
    pub fn taps(&self) -> impl Iterator<Item = (TapId, &Tap)> {
        self.taps.iter().map(|(id, t)| (TapId(id), t))
    }

    /// Number of live reserves (including the battery).
    pub fn reserve_count(&self) -> usize {
        self.reserves.len()
    }

    /// Number of live taps.
    pub fn tap_count(&self) -> usize {
        self.taps.len()
    }

    // ----- creation / deletion ------------------------------------------

    /// Creates an empty [`ResourceKind::Energy`] reserve protected by
    /// `label` (the single-resource constructor the paper's API has; see
    /// [`ResourceGraph::create_reserve_kind`] for quota kinds).
    pub fn create_reserve(
        &mut self,
        actor: &Actor,
        name: &str,
        label: Label,
    ) -> Result<ReserveId, GraphError> {
        self.create_reserve_kind(actor, name, label, ResourceKind::Energy)
    }

    /// Creates an empty reserve of the given kind protected by `label`.
    ///
    /// Requires that the actor could write an object at `label` (otherwise a
    /// thread could mint objects it may not touch), and that the kind's root
    /// pool exists (deleting the reserve settles its balance there).
    pub fn create_reserve_kind(
        &mut self,
        actor: &Actor,
        name: &str,
        label: Label,
        kind: ResourceKind,
    ) -> Result<ReserveId, GraphError> {
        if !actor.can_modify(&label) {
            return Err(GraphError::PermissionDenied {
                op: "create_reserve",
            });
        }
        if self.roots[kind.index()].is_none() {
            return Err(GraphError::NoRootForKind { kind });
        }
        let id = ReserveId(
            self.reserves
                .insert(Reserve::new(name, label, kind, self.now)),
        );
        self.flow
            .on_reserve_eligibility(id.0, kind == ResourceKind::Energy);
        Ok(id)
    }

    /// Deletes a reserve. Its remaining balance is returned to the root of
    /// its kind (the battery for energy); outstanding debt is settled *from*
    /// that root. All taps touching the reserve are garbage-collected
    /// (paper §5.2: deleting taps revokes power sources).
    ///
    /// Returns the (possibly negative) balance that was settled.
    pub fn delete_reserve(&mut self, actor: &Actor, id: ReserveId) -> Result<Energy, GraphError> {
        if self.roots.contains(&Some(id)) {
            return Err(GraphError::RootReserve);
        }
        let reserve = self.reserves.get(id.0).ok_or(GraphError::ReserveNotFound)?;
        let label = reserve.label().clone();
        let kind = reserve.kind();
        if !actor.can_modify(&label) {
            return Err(GraphError::PermissionDenied {
                op: "delete_reserve",
            });
        }
        // GC taps referencing this reserve (and unindex them).
        let dead: Vec<(RawId, u64, RawId, RawId, RateSpec)> = self
            .taps
            .iter()
            .filter(|(_, t)| t.source() == id || t.sink() == id)
            .map(|(tid, t)| (tid, t.seq(), t.source().0, t.sink().0, t.rate()))
            .collect();
        for (tid, seq, source, sink, rate) in dead {
            self.flow.on_tap_removed(seq, source, sink, rate);
            self.taps.remove(tid);
        }
        let reserve = self.reserves.remove(id.0).expect("checked above");
        self.flow.on_reserve_eligibility(id.0, false);
        let balance = reserve.balance();
        let root = self.roots[kind.index()].expect("reserves require a root for their kind");
        let root = self.reserve_mut(root);
        if balance.is_negative() {
            // Debt settlement: the consumed amount was already counted when
            // the debt was incurred; the kind's root pays the outstanding
            // amount so the per-kind balance sum stays conserved.
            root.debit_outflow(-balance);
        } else {
            root.credit(balance);
        }
        Ok(balance)
    }

    /// Marks a reserve as exempt from the global decay. Kernel-only: the
    /// paper exempts only the trusted netd pool (§5.5.2).
    pub fn set_decay_exempt(
        &mut self,
        actor: &Actor,
        id: ReserveId,
        exempt: bool,
    ) -> Result<(), GraphError> {
        if !actor.is_kernel {
            return Err(GraphError::PermissionDenied {
                op: "set_decay_exempt",
            });
        }
        let r = self
            .reserves
            .get_mut(id.0)
            .ok_or(GraphError::ReserveNotFound)?;
        r.set_decay_exempt(exempt);
        // Mirror the reference decay rule exactly: the battery is excluded
        // by id (it is the decay's sink), independent of its exempt flag.
        let eligible = !exempt && r.kind() == ResourceKind::Energy && id != self.battery;
        self.flow.on_reserve_eligibility(id.0, eligible);
        Ok(())
    }

    /// Creates a tap from `source` to `sink`. Both ends must hold the same
    /// [`ResourceKind`] — a tap cannot turn bytes into joules.
    ///
    /// Paper §3.5: a tap "needs privileges to observe and modify both
    /// reserve levels; to aid with this, taps can have privileges embedded
    /// in them". The creating actor must hold observe+modify on both ends;
    /// its privileges are embedded in the tap. A proportional rate above
    /// 1,000,000 ppm/s is [`GraphError::InvalidAmount`].
    pub fn create_tap(
        &mut self,
        actor: &Actor,
        name: &str,
        source: ReserveId,
        sink: ReserveId,
        rate: RateSpec,
        tap_label: Label,
    ) -> Result<TapId, GraphError> {
        if source == sink {
            return Err(GraphError::SameReserve);
        }
        if !rate.in_range() {
            return Err(GraphError::InvalidAmount);
        }
        let src = self
            .reserves
            .get(source.0)
            .ok_or(GraphError::ReserveNotFound)?;
        let (src_label, src_kind) = (src.label().clone(), src.kind());
        let sink_r = self
            .reserves
            .get(sink.0)
            .ok_or(GraphError::ReserveNotFound)?;
        let (sink_label, sink_kind) = (sink_r.label().clone(), sink_r.kind());
        if src_kind != sink_kind {
            return Err(GraphError::KindMismatch {
                op: "create_tap",
                expected: src_kind,
                found: sink_kind,
            });
        }
        if !actor.can_use(&src_label) || !actor.can_use(&sink_label) {
            return Err(GraphError::PermissionDenied { op: "create_tap" });
        }
        if !actor.can_modify(&tap_label) {
            return Err(GraphError::PermissionDenied { op: "create_tap" });
        }
        let tap = Tap::new(name, source, sink, rate, tap_label, actor.privs.clone());
        Ok(self.insert_tap(tap))
    }

    /// Inserts a tap, assigning its creation sequence and registering it in
    /// the flow index. All tap creation funnels through here.
    fn insert_tap(&mut self, mut tap: Tap) -> TapId {
        let seq = self.next_tap_seq;
        self.next_tap_seq += 1;
        tap.set_seq(seq);
        let source = tap.source().0;
        let sink = tap.sink().0;
        let rate = tap.rate();
        let id = TapId(self.taps.insert(tap));
        self.flow.on_tap_created(id, seq, source, sink, rate);
        id
    }

    /// Changes a tap's rate. Requires modify on the *tap's* label — this is
    /// how the task manager stays the only thread able to throttle an app's
    /// foreground tap (paper §5.4). A proportional rate above 1,000,000
    /// ppm/s is [`GraphError::InvalidAmount`].
    pub fn set_tap_rate(
        &mut self,
        actor: &Actor,
        id: TapId,
        rate: RateSpec,
    ) -> Result<(), GraphError> {
        if !rate.in_range() {
            return Err(GraphError::InvalidAmount);
        }
        let tap = self.taps.get_mut(id.0).ok_or(GraphError::TapNotFound)?;
        if !actor.can_modify(&tap.label().clone()) && !actor.is_kernel {
            return Err(GraphError::PermissionDenied { op: "set_tap_rate" });
        }
        let (source, sink, old) = (tap.source().0, tap.sink().0, tap.rate());
        tap.set_rate(rate);
        self.flow.on_tap_rate_changed(source, sink, old, rate);
        Ok(())
    }

    /// Deletes a tap (revoking the power source it represented).
    pub fn delete_tap(&mut self, actor: &Actor, id: TapId) -> Result<(), GraphError> {
        let tap = self.taps.get(id.0).ok_or(GraphError::TapNotFound)?;
        let (label, seq, source, sink, rate) = (
            tap.label().clone(),
            tap.seq(),
            tap.source().0,
            tap.sink().0,
            tap.rate(),
        );
        if !actor.can_modify(&label) {
            return Err(GraphError::PermissionDenied { op: "delete_tap" });
        }
        self.flow.on_tap_removed(seq, source, sink, rate);
        self.taps.remove(id.0);
        Ok(())
    }

    // ----- balance operations -------------------------------------------

    /// Reads a reserve's level. Requires observe (paper §3.2: applications
    /// poll reserve levels to adapt, §5.3).
    pub fn level(&self, actor: &Actor, id: ReserveId) -> Result<Energy, GraphError> {
        let r = self.reserves.get(id.0).ok_or(GraphError::ReserveNotFound)?;
        if !actor.can_observe(r.label()) {
            return Err(GraphError::PermissionDenied { op: "level" });
        }
        Ok(r.balance())
    }

    /// Moves `amount` (raw grains) between reserves of the same kind
    /// immediately (paper §3.2: "reserve-to-reserve transfer provided it is
    /// permitted to modify both reserves"). Fails without side effects if
    /// the kinds differ or the source cannot cover it.
    pub fn transfer(
        &mut self,
        actor: &Actor,
        from: ReserveId,
        to: ReserveId,
        amount: Energy,
    ) -> Result<(), GraphError> {
        if from == to {
            return Err(GraphError::SameReserve);
        }
        if amount.is_negative() {
            return Err(GraphError::InvalidAmount);
        }
        let from_r = self
            .reserves
            .get(from.0)
            .ok_or(GraphError::ReserveNotFound)?;
        let from_kind = from_r.kind();
        let to_r = self.reserves.get(to.0).ok_or(GraphError::ReserveNotFound)?;
        let to_kind = to_r.kind();
        if from_kind != to_kind {
            return Err(GraphError::KindMismatch {
                op: "transfer",
                expected: from_kind,
                found: to_kind,
            });
        }
        // Transferring out requires full use of the source (the outcome
        // reveals its level); filling the sink requires modify. The kernel
        // bypasses label checks (it is the enforcement mechanism), so the
        // label clones — netd's per-poll contributions hit this path every
        // flow tick — are skipped outright for it.
        if !actor.is_kernel {
            let from_label = self.reserves.get(from.0).expect("checked").label().clone();
            let to_label = self.reserves.get(to.0).expect("checked").label().clone();
            if !actor.can_use(&from_label) || !actor.can_modify(&to_label) {
                return Err(GraphError::PermissionDenied { op: "transfer" });
            }
        }
        if self.config.strict_anti_hoarding {
            self.check_strict_transfer(actor, from, to)?;
        }
        let src = self.reserve_mut(from);
        let available = src.balance();
        if available < amount {
            return Err(GraphError::InsufficientResources {
                needed: amount,
                available,
            });
        }
        src.debit_outflow(amount);
        self.reserve_mut(to).credit(amount);
        Ok(())
    }

    /// Consumes `amount` from a reserve, failing without side effects if the
    /// balance is insufficient (the kernel "prevents threads from performing
    /// actions for which their reserves do not have sufficient resources").
    pub fn consume(
        &mut self,
        actor: &Actor,
        id: ReserveId,
        amount: Energy,
    ) -> Result<(), GraphError> {
        if amount.is_negative() {
            return Err(GraphError::InvalidAmount);
        }
        let r = self.reserves.get(id.0).ok_or(GraphError::ReserveNotFound)?;
        if !actor.can_use(r.label()) {
            return Err(GraphError::PermissionDenied { op: "consume" });
        }
        if r.balance() < amount {
            return Err(GraphError::InsufficientResources {
                needed: amount,
                available: r.balance(),
            });
        }
        let kind = r.kind();
        self.reserve_mut(id).debit_consumed(amount);
        self.total_consumed[kind.index()] += amount;
        Ok(())
    }

    /// Consumes `amount`, allowing the balance to go negative. Paper §5.5.2:
    /// "threads can debit their own reserves up to or into debt even if the
    /// cost can only be determined after-the-fact" (billing received
    /// packets). Also used by the scheduler, whose quantum granularity can
    /// overshoot by at most one quantum.
    pub fn consume_with_debt(
        &mut self,
        actor: &Actor,
        id: ReserveId,
        amount: Energy,
    ) -> Result<(), GraphError> {
        if amount.is_negative() {
            return Err(GraphError::InvalidAmount);
        }
        let r = self.reserves.get(id.0).ok_or(GraphError::ReserveNotFound)?;
        if !actor.can_use(r.label()) {
            return Err(GraphError::PermissionDenied { op: "consume" });
        }
        let kind = r.kind();
        self.reserve_mut(id).debit_consumed(amount);
        self.total_consumed[kind.index()] += amount;
        Ok(())
    }

    /// Sweeps the entire non-negative balance of `from` into `to` as the
    /// kernel, returning the amount moved (zero when empty, negative, or
    /// either id is stale). One probe per endpoint, no label checks — this
    /// is netd's per-poll contribution ("contributes the energy acquired by
    /// its taps"), which runs every flow tick for the whole pooling window.
    /// Kinds must match; a mismatch moves nothing.
    pub fn sweep_kernel(&mut self, from: ReserveId, to: ReserveId) -> Energy {
        if from == to {
            return Energy::ZERO;
        }
        let Some(src) = self.reserves.get(from.0) else {
            return Energy::ZERO;
        };
        let amount = src.balance().clamp_non_negative();
        if !amount.is_positive() {
            return Energy::ZERO;
        }
        let kind = src.kind();
        match self.reserves.get_mut(to.0) {
            Some(dst) if dst.kind() == kind => dst.credit(amount),
            _ => return Energy::ZERO,
        }
        self.reserves
            .get_mut(from.0)
            .expect("probed above")
            .debit_outflow(amount);
        amount
    }

    /// [`ResourceGraph::consume_with_debt`] as the kernel, in one arena
    /// probe: no label check (the kernel is the enforcement mechanism, not
    /// a subject of it) and no second lookup. The scheduler charges every
    /// run quantum through this.
    pub(crate) fn consume_with_debt_kernel(
        &mut self,
        id: ReserveId,
        amount: Energy,
    ) -> Result<(), GraphError> {
        debug_assert!(!amount.is_negative());
        let r = self
            .reserves
            .get_mut(id.0)
            .ok_or(GraphError::ReserveNotFound)?;
        let kind = r.kind();
        r.debit_consumed(amount);
        self.total_consumed[kind.index()] += amount;
        Ok(())
    }

    /// Injects fresh resources into a reserve (battery recharge, experiment
    /// setup). Kernel-only.
    pub fn inject(
        &mut self,
        actor: &Actor,
        id: ReserveId,
        amount: Energy,
    ) -> Result<(), GraphError> {
        if !actor.is_kernel {
            return Err(GraphError::PermissionDenied { op: "inject" });
        }
        if amount.is_negative() {
            return Err(GraphError::InvalidAmount);
        }
        let r = self
            .reserves
            .get_mut(id.0)
            .ok_or(GraphError::ReserveNotFound)?;
        let kind = r.kind();
        r.credit(amount);
        self.total_injected[kind.index()] += amount;
        Ok(())
    }

    /// Convenience for the paper's subdivision example (§3.2): creates a new
    /// reserve (of the same kind as `from`) and moves `amount` into it.
    pub fn split_reserve(
        &mut self,
        actor: &Actor,
        from: ReserveId,
        name: &str,
        label: Label,
        amount: Energy,
    ) -> Result<ReserveId, GraphError> {
        let kind = self
            .reserves
            .get(from.0)
            .ok_or(GraphError::ReserveNotFound)?
            .kind();
        let new = self.create_reserve_kind(actor, name, label, kind)?;
        match self.transfer(actor, from, new, amount) {
            Ok(()) => Ok(new),
            Err(e) => {
                // Roll back the freshly created (still empty) reserve.
                let _ = self.reserves.remove(new.0);
                self.flow.on_reserve_eligibility(new.0, false);
                Err(e)
            }
        }
    }

    // ----- strict anti-hoarding (paper §5.2.2) ---------------------------

    /// The total proportional drain on a reserve, in ppm/s, counting
    /// backward-proportional taps (and used to compare "fast-draining" vs
    /// "slow-draining" reserves in strict mode).
    pub fn drain_ppm_per_s(&self, id: ReserveId) -> u64 {
        self.taps
            .iter()
            .filter(|(_, t)| t.source() == id)
            .map(|(_, t)| match t.rate() {
                RateSpec::Proportional { ppm_per_s } => ppm_per_s,
                RateSpec::Const(_) => 0,
            })
            .sum()
    }

    fn check_strict_transfer(
        &self,
        actor: &Actor,
        from: ReserveId,
        to: ReserveId,
    ) -> Result<(), GraphError> {
        if actor.is_kernel {
            return Ok(());
        }
        let from_drain = self.drain_ppm_per_s(from);
        let to_drain = self.drain_ppm_per_s(to);
        if to_drain >= from_drain {
            return Ok(());
        }
        // Moving to a slower-draining reserve is hoarding unless the actor
        // could have removed the source's proportional taps anyway.
        let may_remove_all = self
            .taps
            .iter()
            .filter(|(_, t)| {
                t.source() == from && matches!(t.rate(), RateSpec::Proportional { .. })
            })
            .all(|(_, t)| actor.can_modify(t.label()));
        if may_remove_all {
            Ok(())
        } else {
            Err(GraphError::StrictModeViolation)
        }
    }

    /// The paper's proposed `reserve_clone()` (§5.2.2): creates a reserve
    /// that inherits duplicates of every backward-proportional tap on `from`
    /// that the caller lacks permission to remove, so the clone drains at
    /// least as fast as the original. The clone holds the same
    /// [`ResourceKind`] as `from`.
    pub fn reserve_clone(
        &mut self,
        actor: &Actor,
        from: ReserveId,
        name: &str,
        label: Label,
    ) -> Result<ReserveId, GraphError> {
        let kind = self
            .reserves
            .get(from.0)
            .ok_or(GraphError::ReserveNotFound)?
            .kind();
        self.reserve_clone_as(actor, from, name, label, kind)
    }

    /// [`ResourceGraph::reserve_clone`] with the clone's kind made explicit:
    /// requesting any kind other than `from`'s fails with the typed
    /// [`GraphError::KindMismatch`] before anything is created — the
    /// inherited backward taps could never legally connect the clone
    /// otherwise.
    pub fn reserve_clone_as(
        &mut self,
        actor: &Actor,
        from: ReserveId,
        name: &str,
        label: Label,
        kind: ResourceKind,
    ) -> Result<ReserveId, GraphError> {
        // Validate `from` exists and is observable before creating anything.
        let src = self
            .reserves
            .get(from.0)
            .ok_or(GraphError::ReserveNotFound)?;
        if src.kind() != kind {
            return Err(GraphError::KindMismatch {
                op: "reserve_clone",
                expected: src.kind(),
                found: kind,
            });
        }
        if !actor.can_observe(src.label()) {
            return Err(GraphError::PermissionDenied {
                op: "reserve_clone",
            });
        }
        let new = self.create_reserve_kind(actor, name, label, kind)?;
        let inherited: Vec<(String, ReserveId, RateSpec, Label, PrivilegeSet)> = self
            .taps
            .iter()
            .filter(|(_, t)| {
                t.source() == from
                    && matches!(t.rate(), RateSpec::Proportional { .. })
                    && !actor.can_modify(t.label())
            })
            .map(|(_, t)| {
                (
                    format!("{}(cloned)", t.name()),
                    t.sink(),
                    t.rate(),
                    t.label().clone(),
                    t.embedded_privs().clone(),
                )
            })
            .collect();
        for (tname, sink, rate, tlabel, privs) in inherited {
            let tap = Tap::new(&tname, new, sink, rate, tlabel, privs);
            self.insert_tap(tap);
        }
        Ok(new)
    }

    // ----- flows ----------------------------------------------------------

    /// Advances batch tap execution and decay up to `now`. Whole ticks only;
    /// the fractional tail carries to the next call.
    ///
    /// Executed by the embedded `FlowEngine` ([`crate::flow`]): the span
    /// is planned as partitioned *runs* — sources provably linear for the
    /// run are applied in closed form, decaying reserves nothing else
    /// reads advance in decay lanes, and only the taps adjacent to dynamic
    /// reserves (live proportional sources, clamp boundaries, refillable
    /// empties, decaying sources and decaying sinks that are not lanes)
    /// are ticked, over dense SoA arrays. Sub-planning-threshold spans skip
    /// the planner and run the compiled single tick, with no per-tick
    /// allocation. Results are bit-identical to the reference loop,
    /// `ResourceGraph::flow_until_reference`.
    pub fn flow_until(&mut self, now: SimTime) {
        let tick = self.config.flow_tick;
        let span = now.saturating_since(self.now);
        if span < tick {
            // Sub-tick call (the kernel polls every quantum): nothing due,
            // and the division below is hot-loop cost worth skipping.
            return;
        }
        // The kernel's per-quantum cadence lands here with exactly one tick
        // due almost every call; a compare beats the u128 division.
        let mut remaining = if span < tick + tick {
            1
        } else {
            span.div_duration(tick)
        };
        let battery = self.battery.0;
        // Once a run comes back too short (a source hovering within a few
        // ticks of its clamp boundary, or a span too short to plan) we
        // settle the rest of this call tick by tick: re-planning is
        // O(R + T), so a plan that only buys a tick or two costs more than
        // it saves.
        const MIN_PROFITABLE_RUN: u64 = 4;
        // A span the planner would decline outright (the kernel's
        // one-tick quantum over a proportional or decaying graph) goes
        // straight to the compiled tick.
        let mut try_span = !self
            .flow
            .declines_span(remaining, self.decay_ppm_per_tick > 0);
        while remaining > 0 {
            if try_span {
                let advanced = self.flow.run_span(
                    &mut self.reserves,
                    &mut self.taps,
                    tick,
                    remaining,
                    self.decay_ppm_per_tick,
                    battery,
                );
                if advanced < MIN_PROFITABLE_RUN {
                    try_span = false;
                }
                if advanced > 0 {
                    self.now += tick * advanced;
                    remaining -= advanced;
                    continue;
                }
            }
            self.flow.tick(
                &mut self.reserves,
                &mut self.taps,
                battery,
                self.decay_ppm_per_tick,
                tick,
            );
            self.now += tick;
            remaining -= 1;
        }
    }

    /// True when no flow tick can change any reserve balance from here on
    /// (absent outside writes): every tap is zero-rate or *starved* — its
    /// source holds no positive balance — and every decay-eligible balance
    /// is small enough that its per-tick leak rounds to zero. Starved
    /// constant taps still advance their sub-microjoule carries, which
    /// [`ResourceGraph::flow_until`] settles exactly over any span, so a
    /// frozen graph's flow is state-preserving however far it jumps.
    ///
    /// Freezing is *stable*: taps only move energy out of positive
    /// balances and decay only shrinks them, so nothing inside the flow
    /// itself can ever un-freeze a frozen graph — only an outside credit
    /// can. The kernel's frozen fast-forward leans on exactly that: once a
    /// drained device proves this certificate (and that no event, radio
    /// transition, or net-stack action can credit anything), whole spans
    /// are provably inert. O(T + D) over live taps and decay-eligible
    /// reserves.
    pub fn flow_is_frozen(&self) -> bool {
        for (_, tap) in self.taps.iter() {
            let live = match tap.rate() {
                RateSpec::Const(p) => p.as_microwatts() > 0,
                RateSpec::Proportional { ppm_per_s } => ppm_per_s > 0,
            };
            if !live {
                continue;
            }
            if self
                .reserves
                .get(tap.source().0)
                .is_some_and(|r| r.balance().is_positive())
            {
                return false;
            }
        }
        self.flow
            .decay_is_inert(&self.reserves, self.decay_ppm_per_tick, |_| false)
    }

    /// Certifies a *pooled run*: how many of the next flow ticks (at most
    /// `max_ticks`) can be settled in closed form when each tick is
    /// followed by a sweep of every reserve in `waiters` whole into `pool`
    /// (netd's pooling poll, [`ResourceGraph::sweep_kernel`]) and the
    /// cumulative sweep must stay below `shortfall`. Read-only;
    /// [`ResourceGraph::settle_pooled`] applies a certified run.
    ///
    /// The certificate:
    ///
    /// * no waiter holds a positive balance (each was just swept, or is in
    ///   debt), none is the pool, and none drains through a tap;
    /// * every live tap is constant and either *starved* — an empty source
    ///   no tap refills, so only its carry advances — or *covered*: its
    ///   source stays strictly positive after every covered tap it feeds
    ///   has moved its whole run, so no transfer clamps and the graph
    ///   never freezes;
    /// * decay moves nothing the closed form does not settle: the pool is
    ///   exempt and neither it nor a waiter is the battery, which decay
    ///   credits; a waiter's balance after a tick is at most that tick's
    ///   delivery (it starts each tick at or below zero), and the worst
    ///   such delivery leaks nothing; a decaying sink of a covered tap is
    ///   `gated` — at or below zero for the whole run (the caller's
    ///   promise: swept, or in deficit for at least `max_ticks` by
    ///   [`ResourceGraph::quiet_ticks`]) — or a lane, drained by no tap;
    ///   every other decaying balance leaks nothing and only shrinks;
    /// * the run's cumulative sweep stays below `shortfall`.
    ///
    /// Under it, a waiter starting at `w ≤ 0` that receives `D` over the
    /// run ends at `min(0, w + D)` and sweeps `max(0, w + D)`, exactly the
    /// sum of its per-tick sweeps, every tap's carry telescopes exactly as
    /// the flow engine's closed form does, and a decay lane, fed only by
    /// covered or starved constant taps, advances alone.
    pub fn pooled_run(
        &self,
        waiters: &[ReserveId],
        gated: &[ReserveId],
        pool: ReserveId,
        max_ticks: u64,
        shortfall: Energy,
    ) -> Result<u64, PoolRefusal> {
        let plan = self.pool_plan(waiters, gated, pool)?;
        let fits = |ticks: u64| plan.fits(ticks, shortfall);
        if max_ticks == 0 || !fits(1) {
            return Err(PoolRefusal::NoRoom);
        }
        // Both bounds are monotone in the run length: gallop, then bisect.
        let (mut lo, mut hi) = (1, 2);
        while hi <= max_ticks && fits(hi) {
            lo = hi;
            hi = hi.saturating_mul(2);
        }
        let mut hi = hi.min(max_ticks + 1);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if fits(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// Applies a run [`ResourceGraph::pooled_run`] certified: every live
    /// tap advances `ticks` in closed form, each decaying reserve that is
    /// not a waiter and that no tap drains advances as a decay lane, every
    /// waiter is swept into `pool`, and the flow clock moves `ticks` ticks.
    /// Returns the total swept, which netd's memoised shortfall must be
    /// advanced by.
    pub fn settle_pooled(&mut self, waiters: &[ReserveId], pool: ReserveId, ticks: u64) -> Energy {
        let (dt, ppm) = (self.config.flow_tick, self.decay_ppm_per_tick);
        if ppm > 0 {
            let swept = |rid| waiters.iter().any(|w| w.0 == rid);
            self.flow.open_lanes(&self.reserves, swept);
        }
        for (_, tap) in self.taps.iter_mut() {
            if !matches!(tap.rate(), RateSpec::Const(p) if p.as_microwatts() > 0) {
                continue;
            }
            let (source, sink) = (tap.source(), tap.sink());
            let covered = self
                .reserves
                .get(source.0)
                .is_some_and(|r| r.balance().is_positive());
            if !covered {
                tap.bulk_advance_const_starved(ticks, dt);
                continue;
            }
            self.flow.lanes.feed(tap, u128::from(dt.as_micros()));
            let amount = tap.bulk_advance_const(ticks, dt);
            self.reserves
                .get_mut(source.0)
                .expect("probed above")
                .debit_outflow(amount);
            self.reserves
                .get_mut(sink.0)
                .expect("taps to dead sinks are GC'd")
                .credit(amount);
        }
        let battery = self.battery.0;
        self.flow
            .lanes
            .settle(&mut self.reserves, battery, ppm, ticks);
        let mut swept = Energy::ZERO;
        for (i, &w) in waiters.iter().enumerate() {
            if !waiters[..i].contains(&w) {
                swept += self.sweep_kernel(w, pool);
            }
        }
        self.now += dt * ticks;
        swept
    }

    /// Classifies the live taps for [`ResourceGraph::pooled_run`].
    fn pool_plan(
        &self,
        waiters: &[ReserveId],
        gated: &[ReserveId],
        pool: ReserveId,
    ) -> Result<PoolPlan, PoolRefusal> {
        let ppm = self.decay_ppm_per_tick as u128;
        let pool_kind = match self.reserves.get(pool.0) {
            // Decay credits the battery outside any tap.
            Some(r) if pool != self.battery && (r.is_decay_exempt() || ppm == 0) => r.kind(),
            Some(r) if r.kind() != ResourceKind::Energy => r.kind(),
            _ => return Err(PoolRefusal::LiveDecay),
        };
        let mut plan = PoolPlan {
            waiters: Vec::with_capacity(waiters.len()),
            sources: Vec::new(),
            taps: Vec::new(),
        };
        for &w in waiters {
            if plan.waiters.iter().any(|pw| pw.id == w) {
                continue;
            }
            let r = self.reserves.get(w.0).ok_or(PoolRefusal::LiveFlow)?;
            let drained = self.flow.outbound(w.0).next().is_some();
            if w == pool || w == self.battery || r.kind() != pool_kind || drained {
                return Err(PoolRefusal::LiveFlow);
            }
            if r.balance().is_positive() {
                return Err(PoolRefusal::WaiterHolds);
            }
            let decays = ppm > 0 && r.kind() == ResourceKind::Energy && !r.is_decay_exempt();
            plan.waiters.push(PoolWaiter {
                id: w,
                start: r.balance().as_microjoules() as i128,
                decays,
                worst_tick: 0,
            });
        }
        let dt_us = self.config.flow_tick.as_micros() as u128;
        for (_, tap) in self.taps.iter() {
            let step = match tap.rate() {
                RateSpec::Const(p) => p.as_microwatts() as u128 * dt_us,
                RateSpec::Proportional { ppm_per_s } if ppm_per_s > 0 => {
                    return Err(PoolRefusal::LiveFlow)
                }
                RateSpec::Proportional { .. } => continue,
            };
            if step == 0 {
                continue;
            }
            let (source, sink) = (tap.source(), tap.sink());
            if source == pool || sink == pool || plan.waiters.iter().any(|w| w.id == source) {
                return Err(PoolRefusal::LiveFlow);
            }
            let balance = self
                .reserves
                .get(source.0)
                .map_or(Energy::ZERO, |r| r.balance());
            if !balance.is_positive() {
                // Starved: only the carry moves, provided nothing refills it.
                if self.flow.has_inbound(source.0) {
                    return Err(PoolRefusal::LiveFlow);
                }
                continue;
            }
            let waiter = plan.waiters.iter().position(|w| w.id == sink);
            match waiter {
                Some(i) => plan.waiters[i].worst_tick += step.div_ceil(1_000_000),
                None => {
                    let inert = gated.contains(&sink)
                        || self.reserves.get(sink.0).is_some_and(|r| {
                            r.is_decay_exempt() || r.kind() != ResourceKind::Energy
                        });
                    if !inert && ppm > 0 && self.flow.outbound(sink.0).next().is_some() {
                        // Drained by no tap, it would be a decay lane.
                        return Err(PoolRefusal::LiveFlow);
                    }
                }
            }
            let src = match plan.sources.iter().position(|s| s.0 == source) {
                Some(i) => i,
                None => {
                    plan.sources
                        .push((source, balance.as_microjoules() as u128));
                    plan.sources.len() - 1
                }
            };
            plan.taps.push(PoolTap {
                source: src,
                waiter,
                step,
                carry: tap.remainder(),
            });
        }
        if plan.taps.is_empty() {
            // Nothing flows: the graph is frozen (or about to be).
            return Err(PoolRefusal::NoRoom);
        }
        if plan
            .waiters
            .iter()
            .any(|w| w.decays && w.worst_tick * ppm >= 1_000_000)
        {
            return Err(PoolRefusal::LiveDecay);
        }
        // Waiters (bounded above) and lanes are the decaying reserves no
        // tap drains; every other one must leak nothing.
        let undrained = |rid: RawId| self.flow.outbound(rid).next().is_none();
        if !self
            .flow
            .decay_is_inert(&self.reserves, self.decay_ppm_per_tick, undrained)
        {
            return Err(PoolRefusal::LiveDecay);
        }
        Ok(plan)
    }

    /// The naive per-tick reference model the `FlowEngine` replaced:
    /// a full `BTreeMap` snapshot of every reserve and a scan of every tap,
    /// every tick. Kept (gated behind `cfg(test)` and the `reference-flow`
    /// feature) as the spec for differential property tests and as the
    /// "old" side of the `flow_hot_path` criterion bench.
    ///
    /// Must remain byte-identical in effect to [`ResourceGraph::flow_until`]
    /// on any graph and any mutation interleaving.
    #[cfg(any(test, feature = "reference-flow"))]
    pub fn flow_until_reference(&mut self, now: SimTime) {
        let tick = self.config.flow_tick;
        while self.now + tick <= now {
            self.flow_one_tick_reference(tick);
            self.now += tick;
        }
    }

    #[cfg(any(test, feature = "reference-flow"))]
    fn flow_one_tick_reference(&mut self, dt: SimDuration) {
        // Start-of-tick snapshot so results are independent of tap order
        // (except when a source is oversubscribed; see module docs).
        let snapshot: std::collections::BTreeMap<RawId, Energy> = self
            .reserves
            .iter()
            .map(|(id, r)| (id, r.balance()))
            .collect();
        // Apply in creation order (stable against arena slot reuse).
        let mut tap_ids: Vec<(u64, RawId)> =
            self.taps.iter().map(|(tid, t)| (t.seq(), tid)).collect();
        tap_ids.sort_unstable();
        for (_, tid) in tap_ids {
            let Some(tap) = self.taps.get_mut(tid) else {
                continue;
            };
            let source = tap.source();
            let sink = tap.sink();
            let src_level = snapshot.get(&source.0).copied().unwrap_or(Energy::ZERO);
            let desired = tap.desired_transfer(src_level, dt);
            if desired.is_zero() {
                continue;
            }
            let available = match self.reserves.get(source.0) {
                Some(r) => r.balance().clamp_non_negative(),
                None => continue,
            };
            let amount = desired.min(available);
            if amount.is_zero() {
                continue;
            }
            self.reserve_mut(source).debit_outflow(amount);
            self.reserve_mut(sink).credit(amount);
        }
        // Global decay: the implicit backward tap to the battery.
        crate::flow::decay_tick(&mut self.reserves, self.battery.0, self.decay_ppm_per_tick);
    }

    // ----- typed API boundary ---------------------------------------------

    /// Reads a reserve's level as a kind-tagged [`Quantity`] (requires
    /// observe, like [`ResourceGraph::level`]).
    pub fn level_typed(&self, actor: &Actor, id: ReserveId) -> Result<Quantity, GraphError> {
        let kind = self
            .reserves
            .get(id.0)
            .ok_or(GraphError::ReserveNotFound)?
            .kind();
        Ok(Quantity::new(kind, self.level(actor, id)?))
    }

    /// [`ResourceGraph::transfer`] with a kind-tagged amount: fails with
    /// [`GraphError::KindMismatch`] if the quantity's kind is not the source
    /// reserve's (the raw transfer then enforces source kind == sink kind).
    pub fn transfer_typed(
        &mut self,
        actor: &Actor,
        from: ReserveId,
        to: ReserveId,
        amount: Quantity,
    ) -> Result<(), GraphError> {
        self.check_kind("transfer", from, amount.kind())?;
        self.transfer(actor, from, to, amount.raw())
    }

    /// [`ResourceGraph::consume`] with a kind-tagged amount.
    pub fn consume_typed(
        &mut self,
        actor: &Actor,
        id: ReserveId,
        amount: Quantity,
    ) -> Result<(), GraphError> {
        self.check_kind("consume", id, amount.kind())?;
        self.consume(actor, id, amount.raw())
    }

    /// [`ResourceGraph::consume_with_debt`] with a kind-tagged amount.
    pub fn consume_with_debt_typed(
        &mut self,
        actor: &Actor,
        id: ReserveId,
        amount: Quantity,
    ) -> Result<(), GraphError> {
        self.check_kind("consume", id, amount.kind())?;
        self.consume_with_debt(actor, id, amount.raw())
    }

    /// [`ResourceGraph::inject`] with a kind-tagged amount (kernel-only).
    pub fn inject_typed(
        &mut self,
        actor: &Actor,
        id: ReserveId,
        amount: Quantity,
    ) -> Result<(), GraphError> {
        self.check_kind("inject", id, amount.kind())?;
        self.inject(actor, id, amount.raw())
    }

    /// [`ResourceGraph::create_tap`] with a kind-tagged constant rate: the
    /// rate's kind must match the source reserve's (the raw constructor then
    /// enforces source kind == sink kind).
    pub fn create_tap_typed(
        &mut self,
        actor: &Actor,
        name: &str,
        source: ReserveId,
        sink: ReserveId,
        rate: Rate,
        tap_label: Label,
    ) -> Result<TapId, GraphError> {
        self.check_kind("create_tap", source, rate.kind())?;
        self.create_tap(
            actor,
            name,
            source,
            sink,
            RateSpec::constant(rate.raw()),
            tap_label,
        )
    }

    fn check_kind(
        &self,
        op: &'static str,
        id: ReserveId,
        found: ResourceKind,
    ) -> Result<(), GraphError> {
        let expected = self
            .reserves
            .get(id.0)
            .ok_or(GraphError::ReserveNotFound)?
            .kind();
        if expected != found {
            return Err(GraphError::KindMismatch {
                op,
                expected,
                found,
            });
        }
        Ok(())
    }

    // ----- totals ---------------------------------------------------------

    /// Totals summed over **all** resource kinds. Conserved as a corollary
    /// of the per-kind invariant ([`ResourceGraph::totals_for`]); kept as
    /// the convenient single check for all-energy graphs.
    pub fn totals(&self) -> GraphTotals {
        GraphTotals {
            injected: self.total_injected.iter().copied().sum(),
            balances: self.reserves.iter().map(|(_, r)| r.balance()).sum(),
            consumed: self.total_consumed.iter().copied().sum(),
        }
    }

    /// Conservation totals for one resource kind: per kind,
    /// `injected == Σ balances + consumed` exactly — invariant #1 extended
    /// to the multi-resource graph.
    pub fn totals_for(&self, kind: ResourceKind) -> GraphTotals {
        GraphTotals {
            injected: self.total_injected[kind.index()],
            balances: self
                .reserves
                .iter()
                .filter(|(_, r)| r.kind() == kind)
                .map(|(_, r)| r.balance())
                .sum(),
            consumed: self.total_consumed[kind.index()],
        }
    }

    /// Whether any live tap sinks into `id` — O(1), off the flow engine's
    /// inbound index. The kernel's idle fast-forward uses this to decide
    /// whether a byte-blocked send's plan could be refilled by a tap
    /// mid-span (if not, idle quanta over it are provably skippable).
    pub fn has_inbound_tap(&self, id: ReserveId) -> bool {
        self.flow.has_inbound(id.0)
    }

    /// How many of the next flow ticks `id` provably ends at or below
    /// zero, if at least `at_least` — O(1), off the flow engine's inbound
    /// summary, with no division on a refusal. `u64::MAX` means no bound.
    ///
    /// The reserve must hold a deficit `d ≥ 0` and no live proportional
    /// tap may feed it. Each of its `n` constant feeds moves at most
    /// `⌊(carry + k·p·tick)/10⁶⌋ < 1 + k·p·tick/10⁶` µJ over `k` ticks, and
    /// a clamp only moves less, so the feeds deliver under
    /// `n + k·Σp·tick/10⁶` µJ in all. While that is at most `d` the balance
    /// stays at or below zero; outflows only lower it, and decay never
    /// touches a non-positive balance. The battery is never quiet: the
    /// decay pass credits it outside any tap. (Nor is a reserve that
    /// sweeps credit, such as netd's pool; callers exclude those.)
    pub fn quiet_ticks(&self, id: ReserveId, at_least: u64) -> Option<u64> {
        let debt = -self.reserves.get(id.0)?.balance().as_microjoules();
        let feeds = self.flow.inbound(id.0);
        if debt < 0 || feeds.live_prop > 0 || id == self.battery {
            return None;
        }
        // In 10⁻⁶ µJ, so the per-tick feed needs no division.
        let budget = debt as u128 * 1_000_000;
        let slack = u128::from(feeds.const_feeds) * 1_000_000;
        let per_tick = u128::from(feeds.const_uw) * u128::from(self.config.flow_tick.as_micros());
        if slack + u128::from(at_least) * per_tick > budget {
            return None;
        }
        if per_tick == 0 {
            return Some(u64::MAX);
        }
        Some(u64::try_from((budget - slack) / per_tick).unwrap_or(u64::MAX))
    }

    /// Whether `id`'s only constant feed draws on a positive source — O(1).
    /// That feed is a live tap that can still deliver, so the graph is not
    /// frozen ([`ResourceGraph::flow_is_frozen`]).
    pub fn fed_by_live_source(&self, id: ReserveId) -> bool {
        self.flow
            .inbound(id.0)
            .sole_const_source()
            .and_then(|source| self.reserves.get(source))
            .is_some_and(|r| r.balance().is_positive())
    }

    /// An upper-bound view of the taps draining `id`: the sum of all
    /// constant outbound rates, whether any live proportional tap also
    /// drains it (its rate is level-dependent, so callers needing a static
    /// bound must bail), and the outbound tap count (for per-tick carry
    /// slack). O(outbound taps of `id`), off the flow engine's per-source
    /// index. The kernel's peripheral fast-forward guard folds this into
    /// its zero-inflow span-coverage bound.
    pub fn outbound_drain(&self, id: ReserveId) -> (Power, bool, u32) {
        let mut total = Power::ZERO;
        let mut prop = false;
        let mut count = 0u32;
        for tap_id in self.flow.outbound(id.0) {
            let Some(tap) = self.taps.get(tap_id.0) else {
                continue;
            };
            count += 1;
            match tap.rate() {
                RateSpec::Const(rate) => total += rate,
                RateSpec::Proportional { ppm_per_s } => prop |= ppm_per_s > 0,
            }
        }
        (total, prop, count)
    }

    /// Flow-index introspection for the differential tests.
    #[cfg(test)]
    pub(crate) fn flow_index_len(&self) -> (usize, usize) {
        self.flow.index_len()
    }

    /// Whether the live tap set is all-constant (fast-forward eligible).
    #[cfg(test)]
    pub(crate) fn flow_all_const(&self) -> bool {
        self.flow.all_const()
    }

    fn reserve_mut(&mut self, id: ReserveId) -> &mut Reserve {
        self.reserves
            .get_mut(id.0)
            .expect("stale ReserveId in graph internals")
    }
}

impl std::fmt::Debug for ResourceGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResourceGraph")
            .field("reserves", &self.reserves.len())
            .field("taps", &self.taps.len())
            .field("now", &self.now)
            .field("totals", &self.totals())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinder_label::{Category, Level};
    use cinder_sim::Power;

    fn kernel() -> Actor {
        Actor::kernel()
    }

    fn graph() -> ResourceGraph {
        ResourceGraph::new(Energy::from_joules(15_000))
    }

    /// A graph without decay, for arithmetic-exactness tests.
    fn graph_no_decay() -> ResourceGraph {
        ResourceGraph::with_config(
            Energy::from_joules(15_000),
            GraphConfig {
                decay: None,
                ..GraphConfig::default()
            },
        )
    }

    #[test]
    fn battery_starts_with_initial_energy() {
        let g = graph();
        assert_eq!(
            g.reserve(g.battery()).unwrap().balance(),
            Energy::from_joules(15_000)
        );
        assert!(g.reserve(g.battery()).unwrap().is_decay_exempt());
        assert!(g.totals().conserved());
    }

    #[test]
    fn figure1_topology_rate_limits_browser() {
        // 15 kJ battery, 750 mW tap, browser cannot outpace the tap.
        let mut g = graph_no_decay();
        let k = kernel();
        let browser = g
            .create_reserve(&k, "browser", Label::default_label())
            .unwrap();
        g.create_tap(
            &k,
            "750mW",
            g.battery(),
            browser,
            RateSpec::constant(Power::from_milliwatts(750)),
            Label::default_label(),
        )
        .unwrap();
        g.flow_until(SimTime::from_secs(10));
        assert_eq!(
            g.level(&k, browser).unwrap(),
            Energy::from_millijoules(7_500)
        );
        assert!(g.totals().conserved());
    }

    #[test]
    fn subdivision_example_800_200() {
        // Paper §3.2: split 1000 mJ into 800 + 200.
        let mut g = graph_no_decay();
        let k = kernel();
        let app = g.create_reserve(&k, "app", Label::default_label()).unwrap();
        g.transfer(&k, g.battery(), app, Energy::from_millijoules(1000))
            .unwrap();
        let child = g
            .split_reserve(
                &k,
                app,
                "child",
                Label::default_label(),
                Energy::from_millijoules(200),
            )
            .unwrap();
        assert_eq!(g.level(&k, app).unwrap(), Energy::from_millijoules(800));
        assert_eq!(g.level(&k, child).unwrap(), Energy::from_millijoules(200));
    }

    #[test]
    fn split_rolls_back_on_insufficient_funds() {
        let mut g = graph_no_decay();
        let k = kernel();
        let app = g.create_reserve(&k, "app", Label::default_label()).unwrap();
        let before = g.reserve_count();
        let err = g
            .split_reserve(
                &k,
                app,
                "child",
                Label::default_label(),
                Energy::from_joules(1),
            )
            .unwrap_err();
        assert!(matches!(err, GraphError::InsufficientResources { .. }));
        assert_eq!(g.reserve_count(), before);
    }

    #[test]
    fn transfer_checks_balance_and_labels() {
        let mut g = graph_no_decay();
        let k = kernel();
        let cat = Category::new(1);
        let secret = Label::with(&[(cat, Level::L3)]);
        let protected = g.create_reserve(&k, "protected", secret).unwrap();
        g.transfer(&k, g.battery(), protected, Energy::from_joules(5))
            .unwrap();

        let nobody = Actor::unprivileged();
        let err = g
            .transfer(&nobody, protected, g.battery(), Energy::from_joules(1))
            .unwrap_err();
        assert!(matches!(err, GraphError::PermissionDenied { .. }));

        let owner = Actor::new(Label::default_label(), PrivilegeSet::with(&[cat]));
        g.transfer(&owner, protected, g.battery(), Energy::from_joules(1))
            .unwrap();
        assert_eq!(g.level(&owner, protected).unwrap(), Energy::from_joules(4));
    }

    #[test]
    fn consume_fails_cleanly_when_short() {
        let mut g = graph_no_decay();
        let k = kernel();
        let r = g.create_reserve(&k, "r", Label::default_label()).unwrap();
        g.transfer(&k, g.battery(), r, Energy::from_millijoules(1))
            .unwrap();
        let err = g.consume(&k, r, Energy::from_joules(1)).unwrap_err();
        assert!(matches!(err, GraphError::InsufficientResources { .. }));
        // Nothing was consumed.
        assert_eq!(g.level(&k, r).unwrap(), Energy::from_millijoules(1));
        assert_eq!(g.totals().consumed, Energy::ZERO);
    }

    #[test]
    fn consume_with_debt_goes_negative() {
        let mut g = graph_no_decay();
        let k = kernel();
        let r = g.create_reserve(&k, "r", Label::default_label()).unwrap();
        g.consume_with_debt(&k, r, Energy::from_millijoules(5))
            .unwrap();
        assert_eq!(g.level(&k, r).unwrap(), Energy::from_millijoules(-5));
        assert!(g.totals().conserved());
    }

    #[test]
    fn unprivileged_cannot_observe_secret_reserve() {
        let mut g = graph_no_decay();
        let k = kernel();
        let secret = Label::with(&[(Category::new(1), Level::L3)]);
        let r = g.create_reserve(&k, "secret", secret).unwrap();
        let nobody = Actor::unprivileged();
        assert!(matches!(
            g.level(&nobody, r),
            Err(GraphError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn unprivileged_cannot_create_integrity_reserve() {
        let mut g = graph_no_decay();
        let protected = Label::with(&[(Category::new(1), Level::L0)]);
        let nobody = Actor::unprivileged();
        assert!(matches!(
            g.create_reserve(&nobody, "x", protected),
            Err(GraphError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn tap_requires_use_on_both_ends() {
        let mut g = graph_no_decay();
        let k = kernel();
        let cat = Category::new(1);
        let secret = Label::with(&[(cat, Level::L3)]);
        let src = g.create_reserve(&k, "src", secret).unwrap();
        let dst = g.create_reserve(&k, "dst", Label::default_label()).unwrap();
        let nobody = Actor::unprivileged();
        assert!(matches!(
            g.create_tap(
                &nobody,
                "steal",
                src,
                dst,
                RateSpec::constant(Power::from_watts(1)),
                Label::default_label()
            ),
            Err(GraphError::PermissionDenied { .. })
        ));
        let owner = Actor::new(Label::default_label(), PrivilegeSet::with(&[cat]));
        assert!(g
            .create_tap(
                &owner,
                "ok",
                src,
                dst,
                RateSpec::constant(Power::from_watts(1)),
                Label::default_label()
            )
            .is_ok());
    }

    #[test]
    fn tap_rate_change_requires_tap_modify() {
        // The task-manager pattern: tap protected by an integrity category
        // only the manager owns.
        let mut g = graph_no_decay();
        let k = kernel();
        let cat = Category::new(7);
        let manager = Actor::new(Label::default_label(), PrivilegeSet::with(&[cat]));
        let app = g.create_reserve(&k, "app", Label::default_label()).unwrap();
        let tap_label = Label::with(&[(cat, Level::L0)]);
        let tap = g
            .create_tap(
                &manager,
                "fg",
                g.battery(),
                app,
                RateSpec::constant(Power::ZERO),
                tap_label,
            )
            .unwrap();
        let app_actor = Actor::unprivileged();
        assert!(matches!(
            g.set_tap_rate(&app_actor, tap, RateSpec::constant(Power::from_watts(1))),
            Err(GraphError::PermissionDenied { .. })
        ));
        g.set_tap_rate(
            &manager,
            tap,
            RateSpec::constant(Power::from_milliwatts(137)),
        )
        .unwrap();
        g.flow_until(SimTime::from_secs(1));
        assert_eq!(g.level(&k, app).unwrap(), Energy::from_millijoules(137));
    }

    #[test]
    fn oversubscribed_source_favours_earlier_taps() {
        let mut g = graph_no_decay();
        let k = kernel();
        let pool = g
            .create_reserve(&k, "pool", Label::default_label())
            .unwrap();
        g.transfer(&k, g.battery(), pool, Energy::from_millijoules(100))
            .unwrap();
        let a = g.create_reserve(&k, "a", Label::default_label()).unwrap();
        let b = g.create_reserve(&k, "b", Label::default_label()).unwrap();
        // Each tap wants 100 mJ within the very first 100 ms tick (1 W), but
        // only 100 mJ exists: the earlier-created tap drains it all.
        for (name, sink) in [("ta", a), ("tb", b)] {
            g.create_tap(
                &k,
                name,
                pool,
                sink,
                RateSpec::constant(Power::from_watts(1)),
                Label::default_label(),
            )
            .unwrap();
        }
        g.flow_until(SimTime::from_secs(1));
        let la = g.level(&k, a).unwrap();
        let lb = g.level(&k, b).unwrap();
        assert_eq!(la + lb, Energy::from_millijoules(100));
        assert_eq!(la, Energy::from_millijoules(100), "earlier tap wins");
        assert_eq!(lb, Energy::ZERO);
        assert_eq!(g.level(&k, pool).unwrap(), Energy::ZERO);
        assert!(g.totals().conserved());
    }

    #[test]
    fn backward_proportional_equilibrium_fig6b() {
        // 70 mW in, 0.1/s backward out: equilibrium at 700 mJ.
        let mut g = graph_no_decay();
        let k = kernel();
        let plugin = g
            .create_reserve(&k, "plugin", Label::default_label())
            .unwrap();
        g.create_tap(
            &k,
            "fwd",
            g.battery(),
            plugin,
            RateSpec::constant(Power::from_milliwatts(70)),
            Label::default_label(),
        )
        .unwrap();
        g.create_tap(
            &k,
            "bwd",
            plugin,
            g.battery(),
            RateSpec::proportional(0.1),
            Label::default_label(),
        )
        .unwrap();
        // Idle plugin: the reserve should converge to ~700 mJ and stay.
        g.flow_until(SimTime::from_secs(300));
        let level = g.level(&k, plugin).unwrap();
        let target = Energy::from_millijoules(700);
        let err = (level - target).as_microjoules().abs();
        assert!(
            err < 20_000, // within 20 mJ of the paper's equilibrium
            "plugin level {level} vs expected {target}"
        );
        assert!(g.totals().conserved());
    }

    #[test]
    fn decay_halves_idle_reserve_over_half_life() {
        let mut g = ResourceGraph::with_config(
            Energy::from_joules(15_000),
            GraphConfig::default(), // decay on
        );
        let k = kernel();
        let r = g
            .create_reserve(&k, "hoard", Label::default_label())
            .unwrap();
        g.transfer(&k, g.battery(), r, Energy::from_joules(100))
            .unwrap();
        g.flow_until(SimTime::from_secs(600));
        let level = g.level(&k, r).unwrap().as_joules_f64();
        assert!((level - 50.0).abs() < 1.0, "after one half-life: {level} J");
        g.flow_until(SimTime::from_secs(1200));
        let level = g.level(&k, r).unwrap().as_joules_f64();
        assert!(
            (level - 25.0).abs() < 1.0,
            "after two half-lives: {level} J"
        );
        assert!(g.totals().conserved());
    }

    #[test]
    fn decay_exempt_reserve_keeps_energy() {
        let mut g = graph();
        let k = kernel();
        let pool = g
            .create_reserve(&k, "netd pool", Label::default_label())
            .unwrap();
        g.set_decay_exempt(&k, pool, true).unwrap();
        g.transfer(&k, g.battery(), pool, Energy::from_joules(10))
            .unwrap();
        g.flow_until(SimTime::from_secs(600));
        assert_eq!(g.level(&k, pool).unwrap(), Energy::from_joules(10));
        // Non-kernel actors may not grant exemption.
        let nobody = Actor::unprivileged();
        assert!(matches!(
            g.set_decay_exempt(&nobody, pool, false),
            Err(GraphError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn delete_reserve_returns_balance_and_gcs_taps() {
        let mut g = graph_no_decay();
        let k = kernel();
        let r = g.create_reserve(&k, "r", Label::default_label()).unwrap();
        g.transfer(&k, g.battery(), r, Energy::from_joules(2))
            .unwrap();
        g.create_tap(
            &k,
            "in",
            g.battery(),
            r,
            RateSpec::constant(Power::from_watts(1)),
            Label::default_label(),
        )
        .unwrap();
        g.create_tap(
            &k,
            "out",
            r,
            g.battery(),
            RateSpec::proportional(0.5),
            Label::default_label(),
        )
        .unwrap();
        assert_eq!(g.tap_count(), 2);
        let returned = g.delete_reserve(&k, r).unwrap();
        assert_eq!(returned, Energy::from_joules(2));
        assert_eq!(g.tap_count(), 0);
        assert_eq!(
            g.reserve(g.battery()).unwrap().balance(),
            Energy::from_joules(15_000)
        );
        assert!(g.totals().conserved());
    }

    #[test]
    fn delete_indebted_reserve_settles_from_battery() {
        let mut g = graph_no_decay();
        let k = kernel();
        let r = g
            .create_reserve(&k, "debtor", Label::default_label())
            .unwrap();
        g.consume_with_debt(&k, r, Energy::from_joules(3)).unwrap();
        let settled = g.delete_reserve(&k, r).unwrap();
        assert_eq!(settled, Energy::from_joules(-3));
        assert_eq!(
            g.reserve(g.battery()).unwrap().balance(),
            Energy::from_joules(14_997)
        );
        assert!(g.totals().conserved());
    }

    #[test]
    fn battery_cannot_be_deleted() {
        let mut g = graph();
        let k = kernel();
        let battery = g.battery();
        assert!(matches!(
            g.delete_reserve(&k, battery),
            Err(GraphError::RootReserve)
        ));
    }

    #[test]
    fn stale_ids_error_not_panic() {
        let mut g = graph_no_decay();
        let k = kernel();
        let r = g.create_reserve(&k, "r", Label::default_label()).unwrap();
        g.delete_reserve(&k, r).unwrap();
        assert!(matches!(g.level(&k, r), Err(GraphError::ReserveNotFound)));
        assert!(matches!(
            g.transfer(&k, g.battery(), r, Energy::from_joules(1)),
            Err(GraphError::ReserveNotFound)
        ));
        assert!(matches!(
            g.consume(&k, r, Energy::from_joules(1)),
            Err(GraphError::ReserveNotFound)
        ));
    }

    #[test]
    fn strict_mode_blocks_hoarding_transfer() {
        let mut g = ResourceGraph::with_config(
            Energy::from_joules(100),
            GraphConfig {
                decay: None,
                strict_anti_hoarding: true,
                ..GraphConfig::default()
            },
        );
        let k = kernel();
        let cat = Category::new(1);
        let browser = Actor::new(Label::default_label(), PrivilegeSet::with(&[cat]));
        let taxed = g
            .create_reserve(&k, "taxed", Label::default_label())
            .unwrap();
        let stash = g
            .create_reserve(&k, "stash", Label::default_label())
            .unwrap();
        g.transfer(&k, g.battery(), taxed, Energy::from_joules(10))
            .unwrap();
        // Browser-owned backward tap taxes `taxed` at 0.2/s; the plugin
        // cannot remove it (integrity label owned by browser).
        g.create_tap(
            &browser,
            "tax",
            taxed,
            g.battery(),
            RateSpec::proportional(0.2),
            Label::with(&[(cat, Level::L0)]),
        )
        .unwrap();
        let plugin = Actor::unprivileged();
        // Sidestepping the tax by moving to an untaxed reserve is refused…
        assert!(matches!(
            g.transfer(&plugin, taxed, stash, Energy::from_joules(5)),
            Err(GraphError::StrictModeViolation)
        ));
        // …but the browser, able to remove the tax, may do it.
        g.transfer(&browser, taxed, stash, Energy::from_joules(5))
            .unwrap();
        // And anyone may move toward an *equally or faster* draining sink.
        g.create_tap(
            &browser,
            "tax2",
            stash,
            g.battery(),
            RateSpec::proportional(0.5),
            Label::with(&[(cat, Level::L0)]),
        )
        .unwrap();
        g.transfer(&plugin, taxed, stash, Energy::from_joules(1))
            .unwrap();
    }

    #[test]
    fn reserve_clone_duplicates_unremovable_backward_taps() {
        let mut g = ResourceGraph::with_config(
            Energy::from_joules(100),
            GraphConfig {
                decay: None,
                strict_anti_hoarding: true,
                ..GraphConfig::default()
            },
        );
        let k = kernel();
        let cat = Category::new(1);
        let browser = Actor::new(Label::default_label(), PrivilegeSet::with(&[cat]));
        let plugin_res = g
            .create_reserve(&k, "plugin", Label::default_label())
            .unwrap();
        g.create_tap(
            &browser,
            "tax",
            plugin_res,
            g.battery(),
            RateSpec::proportional(0.1),
            Label::with(&[(cat, Level::L0)]),
        )
        .unwrap();
        let plugin = Actor::unprivileged();
        let cloned = g
            .reserve_clone(&plugin, plugin_res, "clone", Label::default_label())
            .unwrap();
        // The clone inherited the 0.1/s tax, so it drains as fast.
        assert_eq!(g.drain_ppm_per_s(cloned), 100_000);
        assert_eq!(g.tap_count(), 2);
        // And transfers into it are therefore permitted.
        g.transfer(&k, g.battery(), plugin_res, Energy::from_joules(4))
            .unwrap();
        g.transfer(&plugin, plugin_res, cloned, Energy::from_joules(2))
            .unwrap();
    }

    #[test]
    fn totals_conserved_through_mixed_workload() {
        let mut g = graph();
        let k = kernel();
        let a = g.create_reserve(&k, "a", Label::default_label()).unwrap();
        let b = g.create_reserve(&k, "b", Label::default_label()).unwrap();
        g.create_tap(
            &k,
            "fill-a",
            g.battery(),
            a,
            RateSpec::constant(Power::from_milliwatts(500)),
            Label::default_label(),
        )
        .unwrap();
        g.create_tap(
            &k,
            "a-to-b",
            a,
            b,
            RateSpec::proportional(0.3),
            Label::default_label(),
        )
        .unwrap();
        for s in 1..=60 {
            g.flow_until(SimTime::from_secs(s));
            if s % 5 == 0 {
                let _ = g.consume(
                    &k,
                    b,
                    g.level(&k, b)
                        .unwrap()
                        .min(Energy::from_millijoules(50))
                        .clamp_non_negative(),
                );
            }
            assert!(g.totals().conserved(), "t={s}s totals={:?}", g.totals());
        }
        g.inject(&k, g.battery(), Energy::from_joules(5)).unwrap();
        assert!(g.totals().conserved());
    }

    #[test]
    fn quiet_ticks_leave_a_microjoule_per_feed_for_carries() {
        // Two 5 µW feeds move half a µJ per 100 ms tick each. With both
        // carries at half a µJ they deliver 4 µJ over 3 ticks, though
        // 3 ticks of their rates are only 3 µJ: a 3 µJ deficit is not
        // quiet for 3 ticks, and the per-feed slack is what says so.
        let mut g = graph();
        let k = kernel();
        let r = g.create_reserve(&k, "r", Label::default_label()).unwrap();
        let other = g
            .create_reserve(&k, "other", Label::default_label())
            .unwrap();
        g.transfer(&k, g.battery(), other, Energy::from_joules(1))
            .unwrap();
        for source in [g.battery(), other] {
            g.create_tap(
                &k,
                "feed",
                source,
                r,
                RateSpec::constant(Power::from_microwatts(5)),
                Label::default_label(),
            )
            .unwrap();
        }
        g.flow_until(SimTime::from_millis(100));
        let level = g.reserve(r).unwrap().balance();
        g.consume_with_debt(&k, r, level + Energy::from_microjoules(3))
            .unwrap();
        assert_eq!(g.quiet_ticks(r, 0), Some(1));
        g.flow_until(SimTime::from_millis(400));
        assert_eq!(g.reserve(r).unwrap().balance(), Energy::from_microjoules(1));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `quiet_ticks` is sound: a reserve in deficit, fed by constant
        /// taps of any rates and carries — from the battery, from a small
        /// source that may run dry mid-way (clamps), or from an empty one
        /// — ends every certified tick at or below zero, and the bound is
        /// the largest `at_least` it accepts.
        #[test]
        fn quiet_ticks_hold_tick_by_tick(
            // Slow feeds (sub-µJ per tick) keep the carries in play.
            feeds in proptest::collection::vec((1u64..60, 0usize..3), 1..5),
            warmup in 0u64..11,
            debt in 0i64..3_000,
            source_uj in 0i64..2_000,
        ) {
            let mut g = graph();
            let k = kernel();
            let r = g.create_reserve(&k, "gated", Label::default_label()).unwrap();
            let small = g.create_reserve(&k, "small", Label::default_label()).unwrap();
            let empty = g.create_reserve(&k, "empty", Label::default_label()).unwrap();
            g.transfer(&k, g.battery(), small, Energy::from_microjoules(source_uj))
                .unwrap();
            for (i, &(uw, source)) in feeds.iter().enumerate() {
                let source = [g.battery(), small, empty][source];
                g.create_tap(
                    &k,
                    &format!("feed{i}"),
                    source,
                    r,
                    RateSpec::constant(Power::from_microwatts(uw)),
                    Label::default_label(),
                )
                .unwrap();
            }
            // Warm-up ticks leave the feeds' carries anywhere in [0, 1 µJ).
            let tick = g.config().flow_tick;
            g.flow_until(SimTime::ZERO + tick * warmup);
            let level = g.reserve(r).unwrap().balance();
            g.consume_with_debt(&k, r, level + Energy::from_microjoules(debt))
                .unwrap();
            let Some(quiet) = g.quiet_ticks(r, 0) else {
                return Ok(());
            };
            proptest::prop_assert_eq!(g.quiet_ticks(r, quiet), Some(quiet));
            if quiet < u64::MAX {
                proptest::prop_assert_eq!(g.quiet_ticks(r, quiet + 1), None);
            }
            for _ in 0..quiet.min(400) {
                let next = g.now() + tick;
                g.flow_until(next);
                let balance = g.reserve(r).unwrap().balance();
                proptest::prop_assert!(!balance.is_positive(), "{balance} within {quiet} ticks");
            }
        }
    }
}
