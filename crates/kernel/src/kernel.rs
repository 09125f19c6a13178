//! The kernel: object table, thread management, syscalls, and the metered
//! run loop.
//!
//! The run loop advances in scheduler quanta (default 10 ms). Per quantum:
//!
//! 1. radio timers are advanced, with the power meter updated *at* each
//!    transition so energy integration is exact;
//! 2. due events fire (thread wake-ups, received-packet deliveries with
//!    after-the-fact billing, §5.5.2);
//! 3. tap flows and decay advance ([`cinder_core::ResourceGraph::flow_until`]);
//! 4. the network stack polls (blocked senders may be granted and woken);
//! 5. the energy-aware scheduler picks a thread whose active reserve is
//!    non-empty; its program runs/continues and its reserve is charged the
//!    quantum at the accounting power (137 mW);
//! 6. the meter records total platform power for the quantum.

use std::collections::{BTreeMap, VecDeque};

use cinder_core::{
    quota, Actor, Duty, GraphConfig, PoolRefusal, Quantity, RateSpec, ReserveId, ResourceGraph,
    ResourceKind, ResourceScheduler, SchedulerConfig, TapId, TaskId, TaskState,
};
use cinder_faults::FlapSemantics;
use cinder_hw::{
    Arm9, Arm9Request, Arm9Response, Battery, CpuKind, LaptopNet, PlatformPower, RadioParams,
};
use cinder_label::{Category, CategorySpace, Label};
use cinder_sim::{
    meter::AGILENT_SAMPLE_INTERVAL, Energy, EventQueue, Power, PowerMeter, SimDuration, SimRng,
    SimTime,
};

use crate::errors::KernelError;
use crate::netstack::{NetEnv, NetStack, RxDelivery, SendRequest, SendVerdict};
use crate::object::{Body, KObject, ObjectId};
use crate::offload::{
    OffloadBackend, OffloadOutcome, OffloadRequest, OffloadStats, OffloadStatus, OffloadVerdict,
};
use crate::peripheral::{PeripheralKind, PeripheralSlot};
use crate::program::{NetSendStatus, Program, Step};

/// Identifies a kernel thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(u64);

impl ThreadId {
    /// Constructs an id for unit tests of plug-in crates.
    #[doc(hidden)]
    pub fn test_id(raw: u64) -> Self {
        ThreadId(raw)
    }

    /// The raw id (display/debugging).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Kernel construction parameters.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Initial battery energy (the root reserve). Default: Fig 1's 15 kJ.
    pub battery: Energy,
    /// Resource-graph configuration (flow tick, decay, strict mode).
    pub graph: GraphConfig,
    /// Scheduler configuration (quantum, estimate window).
    pub sched: SchedulerConfig,
    /// Radio parameters (the HTC Dream defaults).
    pub radio: RadioParams,
    /// RNG seed: same seed, same run.
    pub seed: u64,
    /// Record a 200 ms-sampled power trace (the Agilent setup).
    pub meter_trace: bool,
    /// Attach a laptop NIC (the image-viewer platform, §6.2).
    pub laptop: Option<LaptopNet>,
    /// Fast-forward the run loop over spans it can settle in closed form,
    /// with the four jump kinds of its one certificate:
    ///
    /// * *idle* — no Ready thread but reserve-gated ones, a quiet net
    ///   stack, and no event or radio transition due: only flows and the
    ///   meter integrate until the next wake source;
    /// * *frozen* — threads exist (Ready but provably unfundable, or
    ///   blocked in a pooling net stack) yet the whole device is inert:
    ///   the resource graph is frozen
    ///   ([`cinder_core::ResourceGraph::flow_is_frozen`]), the stack's
    ///   polls sweep nothing, and no event or radio transition is due —
    ///   the drained-battery state every long-horizon fleet device ends in;
    /// * *pooled* — netd pools: the waiters' constant feeds and netd's
    ///   sweeps settle whole flow ticks in closed form
    ///   ([`cinder_core::ResourceGraph::pooled_run`]) up to the tick before
    ///   the pool could reach its grant threshold;
    /// * *duty* — one Ready thread on queued compute, which each quantum
    ///   runs if its reserve is funded and throttles if not: the reserve is
    ///   a charged decay lane, or the graph is ticked between its quanta
    ///   ([`cinder_core::ResourceGraph::settle_duty`]), and the scheduler,
    ///   estimator and meter replay the quanta in bulk.
    ///
    /// Idle and pooled jumps cross Ready threads that are *reserve-gated*
    /// — every crossed `pick_next` provably throttles them: a netd
    /// waiter's reserve is swept to zero or below after every tick of a
    /// pooled run, and a reserve in deficit stays there while its constant
    /// feeds cannot close it ([`cinder_core::ResourceGraph::quiet_ticks`]).
    ///
    /// Bit-identical by construction: throttled-quanta accounting is
    /// replayed in bulk, flows, decay, sweeps and metering settle exactly
    /// as when stepped, and netd's memoised refusal advances by the total
    /// swept. Device-hours of mostly-sleeping or throttled workloads run
    /// orders of magnitude faster, which is what makes fleet-scale studies
    /// practical. Off by default, so single-device experiments run the
    /// literal paper loop: every quantum steps.
    pub fast_forward: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            battery: Energy::from_joules(15_000),
            graph: GraphConfig::default(),
            sched: SchedulerConfig::default(),
            radio: RadioParams::htc_dream(),
            seed: 0,
            meter_trace: false,
            laptop: None,
            fast_forward: false,
        }
    }
}

/// Result of a laptop NIC download grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DownloadGrant {
    /// How long the transfer occupies the link; callers typically sleep for
    /// this long to model the transfer.
    pub duration: SimDuration,
    /// The energy charged to the active reserve.
    pub energy: Energy,
}

/// The kernel state a policy engine may observe: a plain-data snapshot
/// taken between run spans (see [`Kernel::observables`]). Everything in
/// it is already reachable through individual accessors; bundling it
/// keeps policy inputs an explicit, closed surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelObservables {
    /// Simulated now.
    pub now: SimTime,
    /// Remaining energy in the battery's root reserve. Only tap draws
    /// deplete this; the platform baseline does not route through it.
    pub battery_level: Energy,
    /// Total platform energy the meter has integrated so far — the
    /// basis of any lifetime projection (the baseline *is* in here).
    pub total_energy: Energy,
    /// Backlight lit?
    pub backlight_enabled: bool,
    /// Backlight drive in ppm of full draw.
    pub backlight_drive_ppm: u64,
    /// GPS powered?
    pub gps_enabled: bool,
    /// GPS drive in ppm of full draw.
    pub gps_drive_ppm: u64,
    /// Offload syscall telemetry.
    pub offload: OffloadStats,
}

/// Fault-injection telemetry: what the link-flap layer did to this
/// kernel. All zeros on a fault-free run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Link flaps applied ([`Kernel::fault_link_down`] calls that took).
    pub link_flaps: u64,
    /// In-flight deliveries stalled to a flap's end ([`FlapSemantics::Stall`]).
    pub stalled_deliveries: u64,
    /// In-flight deliveries dropped by a flap (refund or sink semantics).
    pub dropped_deliveries: u64,
    /// Payload bytes lost in dropped deliveries.
    pub lost_bytes: u64,
    /// Sends held back because the link was down (distinct from
    /// blocked-on-bytes and blocked-on-pooled-energy).
    pub link_blocked_sends: u64,
    /// Offload attempts rejected because the link was down.
    pub link_rejected_offloads: u64,
}

/// Where the run loop's simulated time went: always-on plain counters,
/// never part of any report, so they cannot move a digest. With
/// [`KernelConfig::fast_forward`] off every quantum is a full one, and
/// every jump counter and refusal tally stays zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunProfile {
    /// Quanta stepped by the full loop.
    pub full_quanta: u64,
    /// Quanta crossed by idle jumps.
    pub idle_quanta: u64,
    /// Quanta crossed by frozen jumps.
    pub frozen_quanta: u64,
    /// Quanta crossed by pooled jumps.
    pub pooled_quanta: u64,
    /// Quanta crossed by duty jumps.
    pub duty_quanta: u64,
    /// Idle jumps taken.
    pub idle_jumps: u64,
    /// Frozen jumps taken.
    pub frozen_jumps: u64,
    /// Pooled jumps taken.
    pub pooled_jumps: u64,
    /// Duty jumps taken.
    pub duty_jumps: u64,
    /// Quanta crossed by idle and pooled jumps while a Ready thread was
    /// reserve-gated (a share of `idle_quanta` and `pooled_quanta`).
    pub gated_quanta: u64,
    /// Certificate refusals after a quantum that ran nothing (so no duty
    /// jump's), indexed by `Obstacle as usize` ([`RunProfile::refused`]).
    pub refusals: [u64; Obstacle::ALL.len()],
    /// Decay-lane ticks the flow engine settled, one per lane per tick
    /// ([`ResourceGraph::lane_ticks`]).
    pub lane_ticks: u64,
    /// Those of `lane_ticks` stepped through the lanes' scalar loop rather
    /// than counted or jumped in closed form.
    pub lane_ticks_stepped: u64,
}

impl RunProfile {
    /// Every quantum the run loop advanced, whichever path took it.
    pub fn quanta(&self) -> u64 {
        let jumped = self.idle_quanta + self.frozen_quanta + self.pooled_quanta + self.duty_quanta;
        self.full_quanta + jumped
    }

    /// How often the certificate refused to jump for `obstacle`.
    pub fn refused(&self, obstacle: Obstacle) -> u64 {
        self.refusals[obstacle as usize]
    }
}

/// Why the run loop's certificate refused to jump after a quantum that
/// ran nothing (tallied in [`RunProfile::refused`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Obstacle {
    /// A Ready thread is not reserve-gated: its reserve is neither swept
    /// by a certified pooled run nor in a deficit its constant feeds
    /// cannot close within two flow ticks — and the graph is live, so it
    /// may be funded at any boundary.
    Ready,
    /// An event, radio transition, or the span's end is due within the
    /// next quantum (pooled jumps: before the next flow tick settles).
    WakeDue,
    /// An offload waiter has no queued wake event — an invariant the
    /// jumps refuse to trust.
    OffloadWaiter,
    /// A send held on its byte quota may be submitted, or its plan
    /// refilled, at a poll inside the span.
    ByteWaiter,
    /// A lit peripheral is not provably funded across the span.
    Peripheral,
    /// The pooling stack's polls are not certified: no memoised grant
    /// check, a granted backlog, or a poll clock off the flow grid.
    NetPolls,
    /// A waiter holds energy its next sweep would move.
    WaiterHolds,
    /// A live tap outside the pooled closed form (for the frozen jump: any
    /// tap that can still deliver).
    LiveFlow,
    /// The global decay could move a microjoule inside the span.
    LiveDecay,
    /// Not one whole flow tick fits before netd's shortfall, a source's
    /// coverage, or the wake bound.
    NoRoom,
}

impl Obstacle {
    /// Every obstacle, in tally order.
    pub const ALL: [Obstacle; 10] = [
        Obstacle::Ready,
        Obstacle::WakeDue,
        Obstacle::OffloadWaiter,
        Obstacle::ByteWaiter,
        Obstacle::Peripheral,
        Obstacle::NetPolls,
        Obstacle::WaiterHolds,
        Obstacle::LiveFlow,
        Obstacle::LiveDecay,
        Obstacle::NoRoom,
    ];
}

impl From<PoolRefusal> for Obstacle {
    fn from(refusal: PoolRefusal) -> Self {
        match refusal {
            PoolRefusal::WaiterHolds => Obstacle::WaiterHolds,
            PoolRefusal::LiveFlow => Obstacle::LiveFlow,
            PoolRefusal::LiveDecay => Obstacle::LiveDecay,
            PoolRefusal::NoRoom => Obstacle::NoRoom,
        }
    }
}

/// A certified jump: the run loop may cross `quanta` boundaries at once.
#[derive(Debug)]
struct Jump {
    quanta: u64,
    kind: JumpKind,
}

#[derive(Debug)]
enum JumpKind {
    /// The stack idle, nothing Ready but gated threads: only flows and
    /// the meter integrate.
    Idle,
    /// The graph is frozen: Ready threads stay unfundable, polls replay.
    Frozen,
    /// netd pools: `ticks` flow ticks, each followed by a sweep of
    /// `waiters` into `pool`, settle in closed form.
    Pooled {
        pool: ReserveId,
        waiters: Vec<ReserveId>,
        ticks: u64,
    },
    /// `n` flow ticks settle with `duty`'s quanta for `task`.
    Duty { task: TaskId, duty: Duty, n: u64 },
}

/// Events on the kernel timeline.
#[derive(Debug, Clone, Copy)]
enum KernelEvent {
    /// Wake a sleeping/blocked thread.
    Wake(ThreadId),
    /// The end of a link flap: the radio link comes back up. Scheduled by
    /// [`Kernel::fault_link_down`], so a flap is self-contained — every
    /// fast-forward path's event bound already stops at it.
    LinkUp,
    /// Deliver received bytes: extends the radio episode and debits the
    /// billed energy reserve (and the data plan's bytes) after the fact.
    /// `wakes` marks an offload response: delivery also wakes the thread
    /// blocked in the `offload` syscall (plain replies never wake).
    Rx {
        thread: ThreadId,
        bytes: u64,
        bill: Option<ReserveId>,
        bill_bytes: Option<ReserveId>,
        wakes: bool,
    },
    /// An offload deadline: if the thread is still waiting on the response
    /// for offload `seq`, give up and wake it with
    /// [`OffloadOutcome::TimedOut`]. Stale deadlines (the response already
    /// landed, or the thread moved on to a later offload) are ignored.
    OffloadDeadline { thread: ThreadId, seq: u64 },
}

/// A send the kernel is holding back because the thread's `NetworkBytes`
/// reserve cannot cover it yet (§9, enforced online). Re-checked at every
/// net poll; once the plan covers `tx + rx` the request is handed to the
/// installed stack.
#[derive(Debug, Clone, Copy)]
struct PendingSend {
    tx_bytes: u64,
    rx_bytes: u64,
}

/// An offload in flight: the thread is blocked until the response delivery
/// (an `Rx` event with `wakes`) or the deadline event, whichever fires
/// first. `seq` disambiguates stale deadline events from a thread's later
/// offloads.
#[derive(Debug, Clone, Copy)]
struct PendingOffload {
    started_at: SimTime,
    seq: u64,
}

struct ThreadState {
    name: String,
    task: TaskId,
    actor: Actor,
    program: Option<Box<dyn Program>>,
    pending_compute: SimDuration,
    cpu_kind: CpuKind,
    net_result: Option<NetSendStatus>,
    msg_inbox: VecDeque<SimDuration>,
    /// A send blocked on the thread's byte quota (distinct from blocking in
    /// the stack on pooled energy).
    pending_send: Option<PendingSend>,
    /// How many sends have blocked on bytes — the §9 telemetry that makes
    /// blocked-on-bytes observably distinct from blocked-on-energy.
    bytes_blocked_sends: u64,
    /// The offload this thread is blocked on, if any.
    pending_offload: Option<PendingOffload>,
    /// How the last offload ended, for `offload_take_result` on wake.
    offload_result: Option<OffloadOutcome>,
    /// Offloads this thread has started (sequences stale deadline events).
    offload_seq: u64,
    exited: bool,
}

/// The simulated Cinder kernel.
pub struct Kernel {
    config: KernelConfig,
    now: SimTime,
    graph: ResourceGraph,
    sched: ResourceScheduler,
    platform: PlatformPower,
    arm9: Arm9,
    meter: PowerMeter,
    rng: SimRng,
    events: EventQueue<KernelEvent>,
    /// Thread slab: slot `i` is thread id `i + 1` (ids are dense and never
    /// reused; exited threads keep their slot). Indexed, not hashed — the
    /// run loop touches this every quantum.
    threads: Vec<ThreadState>,
    /// Task→thread slab keyed by [`TaskId::index`] (tasks are never removed
    /// by the kernel, so slots are stable).
    task_to_thread: Vec<Option<ThreadId>>,
    /// Live threads holding a send blocked on their byte quota — the O(1)
    /// guard that lets the jump certificate avoid rescanning threads.
    byte_waiters: usize,
    /// Reserve-gated peripheral slots, indexed by [`PeripheralKind::index`].
    peripherals: [PeripheralSlot; PeripheralKind::COUNT],
    /// How many peripherals are currently lit — the O(1) guard that keeps
    /// the per-quantum enforcement pass and the fast-path coverage checks
    /// free for the (common) peripheral-less device.
    enabled_peripherals: u32,
    /// The graph's per-flow-tick decay leak in ppm (0 when decay is off),
    /// memoised at boot for the fast-forward coverage bound.
    decay_leak_ppm: u64,
    objects: BTreeMap<ObjectId, KObject>,
    root: ObjectId,
    next_object: u64,
    next_thread: u64,
    categories: CategorySpace,
    net: Option<Box<dyn NetStack>>,
    last_net_poll: Option<SimTime>,
    /// Whether the flow tick grid is a refinement of the quantum grid
    /// (fixed at boot; hoisted out of the per-quantum poll path).
    net_poll_snappable: bool,
    /// The offload backend, if one is installed (absent on the baseline
    /// devices — the subsystem is pay-for-what-you-use).
    offload: Option<Box<dyn OffloadBackend>>,
    /// Threads currently blocked on an offload response — the O(1) guard
    /// the fast-forward paths consult: a waiter's wake is always a queued
    /// event (response delivery or deadline), so a non-empty count with an
    /// empty event queue is an invariant violation both jumps refuse to
    /// certify over.
    offload_waiters: usize,
    /// Kernel-wide offload telemetry.
    offload_stats: OffloadStats,
    /// While true the radio link is administratively down (a fault-injected
    /// flap): new sends block, offloads reject, and the stack is not
    /// polled. Restored by the queued [`KernelEvent::LinkUp`].
    link_down: bool,
    /// Fault-injection telemetry.
    faults: FaultCounters,
    /// Run-loop path counters.
    profile: RunProfile,
}

impl Kernel {
    /// Boots a kernel with the given configuration. Panics if the scheduler
    /// quantum or the flow tick is zero.
    pub fn new(config: KernelConfig) -> Self {
        assert!(!config.sched.quantum.is_zero(), "quantum must be positive");
        let graph = ResourceGraph::with_config(config.battery, config.graph);
        let sched = ResourceScheduler::new(config.sched);
        let quantum_us = config.sched.quantum.as_micros();
        let net_poll_snappable =
            quantum_us > 0 && config.graph.flow_tick.as_micros() % quantum_us == 0;
        let platform = PlatformPower::htc_dream();
        let battery_hw = Battery::new(config.battery.max(Energy::from_joules(1)));
        let arm9 = Arm9::new(config.radio, battery_hw);
        let mut meter = PowerMeter::new(platform.total(Power::ZERO));
        if config.meter_trace {
            meter.enable_sampling("measured", AGILENT_SAMPLE_INTERVAL);
        }
        let mut objects = BTreeMap::new();
        let root = ObjectId(0);
        objects.insert(
            root,
            KObject::new(
                "root",
                Label::default_label(),
                None,
                Body::Container {
                    children: Default::default(),
                },
            ),
        );
        Kernel {
            rng: SimRng::seed_from_u64(config.seed),
            graph,
            sched,
            platform,
            arm9,
            meter,
            events: EventQueue::new(),
            threads: Vec::new(),
            task_to_thread: Vec::new(),
            byte_waiters: 0,
            peripherals: [PeripheralSlot::new(), PeripheralSlot::new()],
            enabled_peripherals: 0,
            decay_leak_ppm: config
                .graph
                .decay
                .map(|d| d.leak_ppm_per_tick(config.graph.flow_tick))
                .unwrap_or(0),
            objects,
            root,
            next_object: 1,
            next_thread: 1,
            categories: CategorySpace::new(),
            net: None,
            last_net_poll: None,
            net_poll_snappable,
            offload: None,
            offload_waiters: 0,
            offload_stats: OffloadStats::default(),
            link_down: false,
            faults: FaultCounters::default(),
            profile: RunProfile::default(),
            now: SimTime::ZERO,
            config,
        }
    }

    /// A kernel with all defaults (15 kJ battery, Dream hardware).
    pub fn with_defaults() -> Self {
        Kernel::new(KernelConfig::default())
    }

    // ----- thread slab ----------------------------------------------------

    /// Slab lookup: thread ids are dense (`1..=len`), so this is a bounds
    /// check and an index, not a map probe.
    fn thread(&self, tid: ThreadId) -> Option<&ThreadState> {
        tid.0
            .checked_sub(1)
            .and_then(|i| self.threads.get(i as usize))
    }

    fn thread_mut(&mut self, tid: ThreadId) -> Option<&mut ThreadState> {
        tid.0
            .checked_sub(1)
            .and_then(|i| self.threads.get_mut(i as usize))
    }

    /// The thread id occupying slab slot `slot`.
    fn slot_tid(slot: usize) -> ThreadId {
        ThreadId(slot as u64 + 1)
    }

    fn thread_for_task(&self, task: TaskId) -> Option<ThreadId> {
        self.task_to_thread.get(task.index()).copied().flatten()
    }

    // ----- introspection --------------------------------------------------

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configuration the kernel booted with.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// The resource consumption graph (read-only).
    pub fn graph(&self) -> &ResourceGraph {
        &self.graph
    }

    /// Mutable graph access for experiment setup ("root shell" access;
    /// programs must go through [`Ctx`], which enforces labels).
    pub fn graph_mut(&mut self) -> &mut ResourceGraph {
        &mut self.graph
    }

    /// The battery's root reserve.
    pub fn battery(&self) -> ReserveId {
        self.graph.battery()
    }

    /// The power meter.
    pub fn meter(&self) -> &PowerMeter {
        &self.meter
    }

    /// The ARM9 facade (radio state, battery sensor).
    pub fn arm9(&self) -> &Arm9 {
        &self.arm9
    }

    /// The root container.
    pub fn root_container(&self) -> ObjectId {
        self.root
    }

    /// Looks up an object.
    pub fn object(&self, id: ObjectId) -> Option<&KObject> {
        self.objects.get(&id)
    }

    /// Number of live kernel objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Allocates a fresh category, granting no one ownership (callers grant
    /// it to actors as needed).
    pub fn alloc_category(&mut self) -> Category {
        self.categories.alloc()
    }

    /// Installs the network stack.
    pub fn install_net(&mut self, stack: Box<dyn NetStack>) {
        self.net = Some(stack);
    }

    /// The installed stack's pool reserve, if any (Fig 14).
    pub fn net_pool_reserve(&self) -> Option<ReserveId> {
        self.net.as_ref().and_then(|n| n.pool_reserve())
    }

    /// Installs the offload backend the `offload` syscall consults.
    pub fn install_offload(&mut self, backend: Box<dyn OffloadBackend>) {
        self.offload = Some(backend);
    }

    /// Kernel-wide offload telemetry.
    pub fn offload_stats(&self) -> OffloadStats {
        self.offload_stats
    }

    // ----- fault injection ------------------------------------------------

    /// Whether a fault-injected link flap is currently in force.
    pub fn link_is_down(&self) -> bool {
        self.link_down
    }

    /// Fault-injection telemetry (all zeros on a fault-free run).
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
    }

    /// How the run loop has advanced so far, per path.
    pub fn run_profile(&self) -> RunProfile {
        let (lane_ticks, lane_ticks_stepped) = self.graph.lane_ticks();
        RunProfile {
            lane_ticks,
            lane_ticks_stepped,
            ..self.profile
        }
    }

    /// Takes the radio link down until `until` (exclusive), applying
    /// `semantics` to in-flight inbound deliveries. While down, new sends
    /// are held in the kernel (released by the regular byte-quota retry
    /// path once the link returns), offload attempts reject immediately,
    /// and the stack is not polled — anything `netd` is already pooling
    /// simply waits, whatever the semantics. The restoring link-up kernel
    /// event is queued here, so a flap is self-contained and every
    /// fast-forward jump is bounded by it.
    ///
    /// `until` must land on the caller's span grid (the fault runtime
    /// aligns flap windows to the scheduler quantum). A call while the
    /// link is already down is a no-op: fault plans keep windows disjoint.
    pub fn fault_link_down(&mut self, until: SimTime, semantics: FlapSemantics) {
        if self.link_down || until <= self.now {
            return;
        }
        self.link_down = true;
        self.faults.link_flaps += 1;
        // Rework the in-flight schedule under the new reality. Draining in
        // pop order and re-scheduling in that order preserves the FIFO
        // tie-break among equal-time events, so untouched events replay
        // exactly as before.
        let drained = self.events.drain_all();
        self.events.schedule(until, KernelEvent::LinkUp);
        for (at, ev) in drained {
            match ev {
                KernelEvent::Rx {
                    thread,
                    bytes,
                    bill,
                    bill_bytes,
                    wakes,
                } if at < until => match semantics {
                    FlapSemantics::Stall => {
                        self.faults.stalled_deliveries += 1;
                        self.events.schedule(
                            until,
                            KernelEvent::Rx {
                                thread,
                                bytes,
                                bill,
                                bill_bytes,
                                wakes,
                            },
                        );
                    }
                    FlapSemantics::DropRefund => {
                        // Bill-on-delivery (§5.5.2) means an undelivered
                        // packet was never charged: dropping the event *is*
                        // the refund. A dropped offload response leaves the
                        // deadline event to wake the waiter as TimedOut.
                        self.faults.dropped_deliveries += 1;
                        self.faults.lost_bytes += bytes;
                    }
                    FlapSemantics::DropSink => {
                        // The payload is lost but the radio spent the
                        // energy: a wake-less billing event lands when the
                        // link returns, charging the doomed bytes.
                        self.faults.dropped_deliveries += 1;
                        self.faults.lost_bytes += bytes;
                        self.events.schedule(
                            until,
                            KernelEvent::Rx {
                                thread,
                                bytes,
                                bill,
                                bill_bytes,
                                wakes: false,
                            },
                        );
                    }
                },
                _ => self.events.schedule(at, ev),
            }
        }
    }

    /// A root read of a reserve's level — the typed graph query policy
    /// engines use (paper §3.2: levels are the observable applications
    /// and managers adapt to).
    pub fn reserve_level(&self, id: ReserveId) -> Energy {
        self.graph
            .level(&Actor::kernel(), id)
            .unwrap_or(Energy::ZERO)
    }

    /// The observable-state snapshot a policy engine decides over:
    /// clock, battery, peripheral drive state, and offload telemetry,
    /// all read-only and all deterministic at a given instant.
    pub fn observables(&self) -> KernelObservables {
        KernelObservables {
            now: self.now,
            battery_level: self.reserve_level(self.graph.battery()),
            total_energy: self.meter().total_energy(),
            backlight_enabled: self.peripheral_enabled(PeripheralKind::Backlight),
            backlight_drive_ppm: self.peripheral_drive_ppm(PeripheralKind::Backlight),
            gps_enabled: self.peripheral_enabled(PeripheralKind::Gps),
            gps_drive_ppm: self.peripheral_drive_ppm(PeripheralKind::Gps),
            offload: self.offload_stats,
        }
    }

    /// The policy engine's re-rate path: sets a tap to a constant rate
    /// with kernel authority — the task-manager lever of §5.4, exposed
    /// to a driver applying a policy's decisions between run spans.
    pub fn rerate_tap(&mut self, tap: TapId, rate: Power) -> Result<(), KernelError> {
        self.graph
            .set_tap_rate(&Actor::kernel(), tap, RateSpec::constant(rate))?;
        Ok(())
    }

    /// Installs a §9 data plan: creates the graph's `NetworkBytes` root
    /// pool holding `bytes`, grants the full plan to a `"plan"` reserve,
    /// and attaches that reserve to every thread in `threads` — their
    /// sends are byte-gated online from then on. Returns the plan reserve.
    ///
    /// Fails with [`cinder_core::GraphError::DuplicateRoot`] if the kernel
    /// already carries a byte pool.
    pub fn install_byte_plan(
        &mut self,
        bytes: u64,
        threads: &[ThreadId],
    ) -> Result<ReserveId, KernelError> {
        let root = Actor::kernel();
        let pool = self
            .graph
            .create_root(&root, "plan-pool", Quantity::network_bytes(bytes))?;
        let plan = self.graph.create_reserve_kind(
            &root,
            "plan",
            Label::default_label(),
            ResourceKind::NetworkBytes,
        )?;
        self.graph
            .transfer(&root, pool, plan, quota::bytes(bytes))?;
        for &tid in threads {
            self.set_thread_reserve_kind(tid, ResourceKind::NetworkBytes, plan);
        }
        Ok(plan)
    }

    // ----- peripherals ----------------------------------------------------

    /// The peripheral's full-drive draw (what reserves and taps are sized
    /// against).
    pub fn peripheral_full_power(&self, kind: PeripheralKind) -> Power {
        match kind {
            PeripheralKind::Backlight => self.platform.display.full_power(),
            PeripheralKind::Gps => self.platform.gps.full_power(),
        }
    }

    /// The draw the peripheral imposes while lit: full power scaled by the
    /// current drive level.
    pub fn peripheral_drain_power(&self, kind: PeripheralKind) -> Power {
        self.peripheral_full_power(kind)
            .scale_ppm(self.peripherals[kind.index()].drive_ppm)
    }

    /// Whether the peripheral is currently lit.
    pub fn peripheral_enabled(&self, kind: PeripheralKind) -> bool {
        self.peripherals[kind.index()].enabled
    }

    /// The reserve currently acquired for the peripheral, if any.
    pub fn peripheral_reserve(&self, kind: PeripheralKind) -> Option<ReserveId> {
        self.peripherals[kind.index()].reserve
    }

    /// The peripheral's current drive level in ppm of full draw.
    pub fn peripheral_drive_ppm(&self, kind: PeripheralKind) -> u64 {
        self.peripherals[kind.index()].drive_ppm
    }

    /// Total energy the peripheral has ever drained from its reserves —
    /// the balance of its decay-exempt accounting sink (zero if the
    /// peripheral was never enabled).
    pub fn peripheral_energy(&self, kind: PeripheralKind) -> Energy {
        self.peripherals[kind.index()]
            .sink
            .and_then(|s| self.graph.reserve(s))
            .map(|r| r.balance())
            .unwrap_or(Energy::ZERO)
    }

    /// How many times an empty reserve forced the peripheral down.
    pub fn peripheral_forced_shutdowns(&self, kind: PeripheralKind) -> u64 {
        self.peripherals[kind.index()].forced_shutdowns
    }

    /// Dedicates `reserve` to funding the peripheral (root-shell API; the
    /// checked path is [`Ctx::peripheral_acquire`]). The reserve must be an
    /// energy reserve; the peripheral must not currently be enabled.
    pub fn peripheral_acquire(
        &mut self,
        kind: PeripheralKind,
        reserve: ReserveId,
    ) -> Result<(), KernelError> {
        self.peripheral_acquire_as(&Actor::kernel(), kind, reserve)
    }

    /// [`Kernel::peripheral_acquire`] as a specific actor: the actor must
    /// hold observe on the reserve (its level is read every quantum) —
    /// reserves are protected objects exactly as in §3.5.
    pub fn peripheral_acquire_as(
        &mut self,
        actor: &Actor,
        kind: PeripheralKind,
        reserve: ReserveId,
    ) -> Result<(), KernelError> {
        if self.peripherals[kind.index()].enabled {
            return Err(KernelError::PeripheralBusy { peripheral: kind });
        }
        // Existence check, then the §3.5 reserve-*use* check: "Using
        // resources from a reserve requires both observe and modify
        // privileges" — the peripheral will both read the level every
        // quantum and drain it through the kernel tap.
        let r = self
            .graph
            .reserve(reserve)
            .ok_or(cinder_core::GraphError::ReserveNotFound)?;
        if !actor.is_kernel() && !actor.label().can_use(actor.privs(), r.label()) {
            return Err(KernelError::Denied {
                op: "peripheral_acquire",
            });
        }
        if r.kind() != ResourceKind::Energy {
            return Err(KernelError::Graph(cinder_core::GraphError::KindMismatch {
                op: "peripheral_acquire",
                expected: ResourceKind::Energy,
                found: r.kind(),
            }));
        }
        self.peripherals[kind.index()].reserve = Some(reserve);
        Ok(())
    }

    /// Lights the peripheral the Cinder way: requires an acquired reserve
    /// that can fund at least one quantum of the draw, and installs the
    /// kernel drain tap (reserve → accounting sink) that debits the draw
    /// every flow tick. Idempotent while already enabled.
    pub fn peripheral_enable(&mut self, kind: PeripheralKind) -> Result<(), KernelError> {
        if self.peripherals[kind.index()].enabled {
            return Ok(());
        }
        let Some(reserve) = self.peripherals[kind.index()].reserve else {
            return Err(KernelError::NoPeripheralReserve { peripheral: kind });
        };
        let drain = self.peripheral_drain_power(kind);
        let need = drain.energy_over(self.sched.quantum());
        let funded = self
            .graph
            .reserve(reserve)
            .is_some_and(|r| r.balance() >= need);
        if !funded {
            return Err(KernelError::PeripheralUnfunded { peripheral: kind });
        }
        let root = Actor::kernel();
        let sink = match self.peripherals[kind.index()].sink {
            Some(sink) if self.graph.reserve(sink).is_some() => sink,
            _ => {
                let sink = self.graph.create_reserve(
                    &root,
                    &format!("{kind}-sink"),
                    Label::default_label(),
                )?;
                // The sink is pure accounting: exempt from decay so its
                // balance is exactly the peripheral's lifetime energy.
                self.graph.set_decay_exempt(&root, sink, true)?;
                self.peripherals[kind.index()].sink = Some(sink);
                sink
            }
        };
        let tap = self.graph.create_tap(
            &root,
            &format!("{kind}-drain"),
            reserve,
            sink,
            RateSpec::constant(drain),
            Label::default_label(),
        )?;
        let slot = &mut self.peripherals[kind.index()];
        slot.drain = Some(tap);
        slot.enabled = true;
        self.enabled_peripherals += 1;
        let drive = slot.drive_ppm;
        self.set_peripheral_hw(kind, true, drive);
        Ok(())
    }

    /// Powers the peripheral down and removes its drain tap (idempotent).
    /// Residual energy stays in the acquired reserve.
    pub fn peripheral_disable(&mut self, kind: PeripheralKind) {
        let slot = &mut self.peripherals[kind.index()];
        if !slot.enabled {
            return;
        }
        slot.enabled = false;
        let tap = slot.drain.take();
        let drive = slot.drive_ppm;
        self.enabled_peripherals -= 1;
        if let Some(tap) = tap {
            // The tap may already be gone if the reserve was deleted.
            let _ = self.graph.delete_tap(&Actor::kernel(), tap);
        }
        self.set_peripheral_hw(kind, false, drive);
    }

    /// Sets the drive level (ppm of full draw, clamped to `1..=1_000_000`):
    /// dimming re-rates the metered hardware draw *and* the drain tap
    /// together, so accounting always matches the rails.
    pub fn peripheral_set_drive(
        &mut self,
        kind: PeripheralKind,
        ppm: u64,
    ) -> Result<(), KernelError> {
        let ppm = ppm.clamp(1, cinder_hw::FULL_DRIVE_PPM);
        self.peripherals[kind.index()].drive_ppm = ppm;
        let enabled = self.peripherals[kind.index()].enabled;
        match kind {
            PeripheralKind::Backlight => self.platform.display.set_drive_ppm(ppm),
            PeripheralKind::Gps => self.platform.gps.set_drive_ppm(ppm),
        }
        if enabled {
            let drain = self.peripheral_drain_power(kind);
            if let Some(tap) = self.peripherals[kind.index()].drain {
                self.graph
                    .set_tap_rate(&Actor::kernel(), tap, RateSpec::constant(drain))?;
            }
        }
        Ok(())
    }

    fn set_peripheral_hw(&mut self, kind: PeripheralKind, on: bool, drive_ppm: u64) {
        match kind {
            PeripheralKind::Backlight => {
                self.platform.display.set_drive_ppm(drive_ppm);
                self.platform.display.set_backlight(on);
            }
            PeripheralKind::Gps => {
                self.platform.gps.set_drive_ppm(drive_ppm);
                self.platform.gps.set_enabled(on);
            }
        }
    }

    /// The per-quantum enforcement pass: a reserve that cannot fund the
    /// next quantum of draw forcibly powers its peripheral down — the
    /// scheduler's empty-reserve CPU throttle (§3.2) applied to devices.
    /// O(1) when nothing is lit.
    fn enforce_peripherals(&mut self, _t: SimTime) {
        if self.enabled_peripherals == 0 {
            return;
        }
        let quantum = self.sched.quantum();
        for kind in PeripheralKind::ALL {
            let slot = &self.peripherals[kind.index()];
            if !slot.enabled {
                continue;
            }
            let reserve = slot.reserve.expect("enabled peripherals are funded");
            let need = self.peripheral_drain_power(kind).energy_over(quantum);
            let funded = self
                .graph
                .reserve(reserve)
                .is_some_and(|r| r.balance() >= need);
            if !funded {
                self.peripheral_disable(kind);
                self.peripherals[kind.index()].forced_shutdowns += 1;
            }
        }
    }

    /// Conservative proof that every lit peripheral stays funded across a
    /// prospective fast-forward of `span`: assuming *zero* inflow, the
    /// reserve must cover the span's *total* constant outflow (every tap
    /// draining it, not just the peripheral drain), the landing boundary's
    /// enforcement threshold, a grain of tap-carry slack per tick and tap,
    /// and a linearised upper bound on the global decay leak. A live
    /// proportional drain has no static bound, so it pins the slow path
    /// outright. Inflow and the true compounding decay only leave the
    /// reserve *higher* than this bound, so a pass guarantees the skipped
    /// span is enforcement-free (and therefore bit-identical to stepping
    /// it); a fail merely pins the slow path — which is always correct.
    fn peripherals_cover_span(&self, span: SimDuration) -> bool {
        if self.enabled_peripherals == 0 {
            return true;
        }
        let tick_us = self.config.graph.flow_tick.as_micros().max(1);
        let ticks = span.as_micros().div_ceil(tick_us) + 1;
        let leak_cap = (self.decay_leak_ppm.saturating_mul(ticks)).min(1_000_000);
        let quantum = self.sched.quantum();
        PeripheralKind::ALL.iter().all(|&kind| {
            let slot = &self.peripherals[kind.index()];
            if !slot.enabled {
                return true;
            }
            let Some(reserve) = slot.reserve else {
                return false;
            };
            let Some(balance) = self.graph.reserve(reserve).map(|r| r.balance()) else {
                return false;
            };
            let (outflow, prop_outflow, out_taps) = self.graph.outbound_drain(reserve);
            if prop_outflow {
                return false;
            }
            let drain = self.peripheral_drain_power(kind);
            let kept = balance.clamp_non_negative().scale_ppm(1_000_000 - leak_cap);
            let need = outflow.energy_over(span)
                + drain.energy_over(quantum)
                + Energy::from_microjoules((ticks * (out_taps as u64 + 1)) as i64 + 1);
            kept >= need
        })
    }

    // ----- object management ----------------------------------------------

    fn alloc_object(
        &mut self,
        name: &str,
        label: Label,
        parent: ObjectId,
        body: Body,
    ) -> Result<ObjectId, KernelError> {
        let id = ObjectId(self.next_object);
        match self
            .objects
            .get_mut(&parent)
            .ok_or(KernelError::NoSuchObject)?
            .body_mut()
        {
            Body::Container { children } => {
                children.insert(id);
            }
            _ => return Err(KernelError::WrongObjectKind),
        }
        self.next_object += 1;
        self.objects
            .insert(id, KObject::new(name, label, Some(parent), body));
        Ok(id)
    }

    /// Creates a container inside `parent`.
    pub fn create_container(
        &mut self,
        parent: ObjectId,
        name: &str,
        label: Label,
    ) -> Result<ObjectId, KernelError> {
        self.alloc_object(
            name,
            label,
            parent,
            Body::Container {
                children: Default::default(),
            },
        )
    }

    /// Creates a segment (memory object) inside `parent`.
    pub fn create_segment(
        &mut self,
        parent: ObjectId,
        name: &str,
        label: Label,
        data: Vec<u8>,
    ) -> Result<ObjectId, KernelError> {
        self.alloc_object(name, label, parent, Body::Segment { data })
    }

    /// Creates an address space mapping the given segments.
    pub fn create_address_space(
        &mut self,
        parent: ObjectId,
        name: &str,
        label: Label,
        segments: Vec<ObjectId>,
    ) -> Result<ObjectId, KernelError> {
        self.alloc_object(name, label, parent, Body::AddressSpace { segments })
    }

    /// Creates a gate whose invocation costs the *caller* `work` of CPU.
    pub fn create_gate(
        &mut self,
        parent: ObjectId,
        name: &str,
        label: Label,
        work: SimDuration,
    ) -> Result<ObjectId, KernelError> {
        self.alloc_object(name, label, parent, Body::Gate { work })
    }

    /// Creates a reserve as a kernel object inside `parent` (root-shell
    /// API: uses the kernel actor).
    pub fn create_reserve_in(
        &mut self,
        parent: ObjectId,
        name: &str,
        label: Label,
    ) -> Result<(ObjectId, ReserveId), KernelError> {
        let reserve = self
            .graph
            .create_reserve(&Actor::kernel(), name, label.clone())?;
        let oid = self.alloc_object(name, label, parent, Body::Reserve { reserve })?;
        Ok((oid, reserve))
    }

    /// Creates a tap as a kernel object inside `parent` (root-shell API).
    #[allow(clippy::too_many_arguments)]
    pub fn create_tap_in(
        &mut self,
        parent: ObjectId,
        name: &str,
        source: ReserveId,
        sink: ReserveId,
        rate: RateSpec,
        label: Label,
    ) -> Result<(ObjectId, TapId), KernelError> {
        let tap =
            self.graph
                .create_tap(&Actor::kernel(), name, source, sink, rate, label.clone())?;
        let oid = self.alloc_object(name, label, parent, Body::Tap { tap })?;
        Ok((oid, tap))
    }

    /// Unlinks an object: it and (for containers) everything beneath it are
    /// deallocated. Deleting reserve/tap objects removes them from the
    /// graph — unlinking a browser page's container revokes its taps (§5.2).
    pub fn unlink(&mut self, id: ObjectId) -> Result<(), KernelError> {
        if id == self.root {
            return Err(KernelError::Denied { op: "unlink root" });
        }
        let obj = self.objects.get(&id).ok_or(KernelError::NoSuchObject)?;
        if let Some(parent) = obj.parent() {
            if let Some(Body::Container { children }) =
                self.objects.get_mut(&parent).map(|o| o.body_mut())
            {
                children.remove(&id);
            }
        }
        self.unlink_recursive(id);
        Ok(())
    }

    fn unlink_recursive(&mut self, id: ObjectId) {
        let Some(obj) = self.objects.remove(&id) else {
            return;
        };
        match obj.body() {
            Body::Container { children } => {
                let kids: Vec<ObjectId> = children.iter().copied().collect();
                for kid in kids {
                    self.unlink_recursive(kid);
                }
            }
            Body::Reserve { reserve } => {
                let _ = self.graph.delete_reserve(&Actor::kernel(), *reserve);
            }
            Body::Tap { tap } => {
                let _ = self.graph.delete_tap(&Actor::kernel(), *tap);
            }
            Body::Thread { thread } => {
                let thread = *thread;
                let mut cleared = false;
                let mut offload_cleared = false;
                let mut task = None;
                if let Some(st) = self.thread_mut(thread) {
                    st.exited = true;
                    cleared = st.pending_send.take().is_some();
                    offload_cleared = st.pending_offload.take().is_some();
                    task = Some(st.task);
                }
                if cleared {
                    self.byte_waiters -= 1;
                }
                if offload_cleared {
                    // An abandoned offload counts as timed out: the remote
                    // work (if any) benefits no one, and the stats stay
                    // conserved (accepted = completed + timed_out +
                    // in-flight).
                    self.offload_waiters -= 1;
                    self.offload_stats.timed_out += 1;
                }
                if let Some(task) = task {
                    self.sched.set_state(task, TaskState::Exited);
                }
            }
            Body::Segment { .. } | Body::AddressSpace { .. } | Body::Gate { .. } | Body::Device => {
            }
        }
    }

    // ----- threads ----------------------------------------------------------

    /// Spawns a thread running `program`, drawing from `reserve`, with the
    /// given security identity. Returns its id.
    pub fn spawn(
        &mut self,
        name: &str,
        program: Box<dyn Program>,
        reserve: ReserveId,
        actor: Actor,
    ) -> ThreadId {
        let tid = ThreadId(self.next_thread);
        self.next_thread += 1;
        debug_assert_eq!(tid.0 as usize, self.threads.len() + 1, "dense thread ids");
        let task = self.sched.add_task(name, reserve);
        if self.task_to_thread.len() <= task.index() {
            self.task_to_thread.resize(task.index() + 1, None);
        }
        self.task_to_thread[task.index()] = Some(tid);
        self.threads.push(ThreadState {
            name: name.to_string(),
            task,
            actor,
            program: Some(program),
            pending_compute: SimDuration::ZERO,
            cpu_kind: CpuKind::default(),
            net_result: None,
            msg_inbox: VecDeque::new(),
            pending_send: None,
            bytes_blocked_sends: 0,
            pending_offload: None,
            offload_result: None,
            offload_seq: 0,
            exited: false,
        });
        // Threads are kernel objects too.
        let _ = self.alloc_object(
            name,
            Label::default_label(),
            self.root,
            Body::Thread { thread: tid },
        );
        tid
    }

    /// Spawns with an unprivileged default-label identity.
    pub fn spawn_unprivileged(
        &mut self,
        name: &str,
        program: Box<dyn Program>,
        reserve: ReserveId,
    ) -> ThreadId {
        self.spawn(name, program, reserve, Actor::unprivileged())
    }

    /// A thread's display name.
    pub fn thread_name(&self, tid: ThreadId) -> Option<&str> {
        self.thread(tid).map(|t| t.name.as_str())
    }

    /// All thread ids ever spawned (including exited), in spawn order.
    pub fn thread_ids(&self) -> Vec<ThreadId> {
        self.thread_id_iter().collect()
    }

    /// [`Kernel::thread_ids`] without the allocation (ids are dense).
    pub fn thread_id_iter(&self) -> impl Iterator<Item = ThreadId> + '_ {
        (1..=self.threads.len() as u64).map(ThreadId)
    }

    /// Finds a live thread by name (first match in spawn order).
    pub fn thread_by_name(&self, name: &str) -> Option<ThreadId> {
        self.threads
            .iter()
            .position(|st| st.name == name)
            .map(Self::slot_tid)
    }

    /// Whether the thread has exited.
    pub fn thread_exited(&self, tid: ThreadId) -> bool {
        self.thread(tid).map(|t| t.exited).unwrap_or(true)
    }

    /// The thread's windowed power estimate (the stacked figures' y-axis).
    pub fn thread_power_estimate(&mut self, tid: ThreadId) -> Power {
        let Some(task) = self.thread(tid).map(|t| t.task) else {
            return Power::ZERO;
        };
        let now = self.now;
        self.sched.estimate(task, now)
    }

    /// Total energy ever charged to the thread.
    pub fn thread_consumed(&self, tid: ThreadId) -> Energy {
        self.thread(tid)
            .map(|t| self.sched.consumed(t.task))
            .unwrap_or(Energy::ZERO)
    }

    /// Total time the thread was denied the CPU solely because its active
    /// reserve was empty — the per-device "starvation time" fleet reports
    /// aggregate (throttled quanta × quantum).
    pub fn thread_throttled(&self, tid: ThreadId) -> SimDuration {
        self.thread(tid)
            .map(|t| self.sched.quantum() * self.sched.throttled_quanta(t.task))
            .unwrap_or(SimDuration::ZERO)
    }

    /// The thread's active reserve for a kind, if one is attached.
    pub fn thread_reserve_kind(&self, tid: ThreadId, kind: ResourceKind) -> Option<ReserveId> {
        self.thread(tid)
            .and_then(|t| self.sched.reserve_for(t.task, kind))
    }

    /// Attaches (or switches) a thread's active reserve for a kind
    /// (root-shell API; programs use [`Ctx::set_active_reserve_kind`]).
    /// Attaching a `NetworkBytes` reserve puts the thread's sends under
    /// that data plan, enforced online.
    pub fn set_thread_reserve_kind(&mut self, tid: ThreadId, kind: ResourceKind, r: ReserveId) {
        if let Some(t) = self.thread(tid) {
            let task = t.task;
            self.sched.set_reserve_for(task, kind, r);
        }
    }

    /// How many of the thread's sends blocked because its `NetworkBytes`
    /// reserve could not cover them (§9) — observably distinct from energy
    /// throttling ([`Kernel::thread_throttled`]) and from blocking in netd
    /// on pooled energy.
    pub fn thread_bytes_blocked(&self, tid: ThreadId) -> u64 {
        self.thread(tid).map(|t| t.bytes_blocked_sends).unwrap_or(0)
    }

    /// Whether the thread is *currently* blocked on bytes: a send is queued
    /// in the kernel waiting for its data plan to cover it.
    pub fn thread_awaiting_bytes(&self, tid: ThreadId) -> bool {
        self.thread(tid).is_some_and(|t| t.pending_send.is_some())
    }

    /// Terminates a thread: it never runs again (its reserves and taps are
    /// unaffected; delete those separately or via container GC). Any send
    /// it had blocked on bytes dies with it.
    pub fn kill(&mut self, tid: ThreadId) {
        let mut cleared = false;
        let mut offload_cleared = false;
        let mut task = None;
        if let Some(st) = self.thread_mut(tid) {
            st.exited = true;
            st.program = None;
            cleared = st.pending_send.take().is_some();
            offload_cleared = st.pending_offload.take().is_some();
            task = Some(st.task);
        }
        if cleared {
            self.byte_waiters -= 1;
        }
        if offload_cleared {
            // Abandoned = timed out (see `unlink_recursive`).
            self.offload_waiters -= 1;
            self.offload_stats.timed_out += 1;
        }
        if let Some(task) = task {
            self.sched.set_state(task, TaskState::Exited);
        }
    }

    /// Wakes a blocked thread (external control, e.g. experiment scripts).
    pub fn wake(&mut self, tid: ThreadId) {
        if let Some(t) = self.thread(tid) {
            if !t.exited {
                let task = t.task;
                self.sched.set_state(task, TaskState::Ready);
            }
        }
    }

    // ----- run loop ---------------------------------------------------------

    /// Runs the kernel until `end`, then settles the integrators (radio,
    /// meter, flows) to `now` so extraction reads a consistent instant.
    pub fn run_until(&mut self, end: SimTime) {
        self.run_span(end);
        self.advance_radio_metered(self.now);
        self.meter.advance(self.now);
        self.graph.flow_until(self.now);
    }

    /// The run loop without [`Kernel::run_until`]'s settling tail: advances
    /// quantum boundaries up to `end` but leaves the radio, meter, and flow
    /// engine at the last boundary processed.
    ///
    /// This is the chunk-safe entry point. `run_until`'s tail flows the
    /// graph one quantum *ahead* of the loop, so at a chunk boundary it
    /// would integrate that quantum's decay before the boundary's events
    /// are delivered — the opposite order from an unchunked run, and decay
    /// rounding sees different balances. `run_span` leaves the boundary to
    /// the next call's first iteration, so splitting a run into spans
    /// replays the *identical* instruction stream: `run_span(t₁); …;
    /// run_until(t_n)` is bit-equal to `run_until(t_n)` for any grid or
    /// off-grid split points. After each quantum that ran nothing the loop
    /// consults its one certificate (idle, frozen, or pooled jump); every
    /// jump stops at `end`, so a split point only shortens a jump. The
    /// fleet's device loop runs on this, splitting its spans only at policy
    /// ticks and fault boundaries.
    pub fn run_span(&mut self, end: SimTime) {
        let quantum = self.sched.quantum();
        while self.now + quantum <= end {
            let t = self.now;
            self.advance_radio_metered(t);
            self.deliver_events(t);
            self.graph.flow_until(t);
            self.enforce_peripherals(t);
            self.net_poll(t);
            let ran = self.schedule_one(t);
            // Meter the quantum: CPU state + current radio phase.
            self.platform.set_cpu(ran);
            let total = self.platform.total(self.arm9.radio().extra_power());
            self.meter.set_power(t, total);
            self.now = t + quantum;
            self.profile.full_quanta += 1;
            self.try_jump(end, ran.is_some());
        }
    }

    /// After each quantum, under [`KernelConfig::fast_forward`]: land the
    /// jump [`Kernel::certify`] allows, or, after a quantum that ran
    /// nothing, tally its refusal per [`Obstacle`]. Quanta no jump crosses
    /// run through the full loop.
    fn try_jump(&mut self, end: SimTime, ran: bool) {
        if !self.config.fast_forward {
            return;
        }
        match self.certify(end, ran) {
            Ok(jump) => self.land(jump),
            Err(obstacle) if !ran => self.profile.refusals[obstacle as usize] += 1,
            Err(_) => {}
        }
    }

    /// The run loop's one certificate. Read-only: it decides whether the
    /// quanta from `now` on provably change nothing the loop could not
    /// settle in closed form, and which jump crosses them;
    /// [`Kernel::land`] applies the verdict. After a quantum that `ran`,
    /// only a duty jump ([`Kernel::certify_duty`]), else three kinds, each
    /// bit-identical to stepping every quantum:
    ///
    /// * **Idle** — the stack quiet and nothing Ready but reserve-gated
    ///   threads: only flows and the meter integrate until the next wake
    ///   source.
    /// * **Frozen** — the graph is frozen
    ///   ([`ResourceGraph::flow_is_frozen`]): Ready threads stay unfundable
    ///   and a pooling stack's sweeps are all zero until the next wake.
    /// * **Pooled** — netd pools and every Ready thread is
    ///   gated: each flow tick's constant taps fill the waiters, each poll
    ///   sweeps them into the pool, and netd's memoised refusal holds, so
    ///   whole ticks settle in closed form ([`ResourceGraph::pooled_run`]).
    ///
    /// A downed link counts as a quiet stack: `net_poll` does nothing
    /// until the queued `LinkUp` event, which bounds every jump, and no
    /// held send can move meanwhile.
    ///
    /// With the stack quiet no reserve is swept, so a Ready thread whose
    /// deficit cannot outlast two ticks refuses at once when its sole
    /// constant feed draws on a positive source: that live feed already
    /// fails the frozen certificate, so the run/starve alternations of
    /// busy threads pay no more than a few compares here.
    fn certify(&self, end: SimTime, ran: bool) -> Result<Jump, Obstacle> {
        if ran {
            return self.certify_duty(end).ok_or(Obstacle::Ready);
        }
        let ready = self.sched.has_ready();
        let stack_quiet = self.link_down || self.net.as_ref().is_none_or(|n| n.is_idle());
        // How many ticks an idle jump may cross: Ready threads only while
        // gated.
        let mut idle_ticks = (!ready).then_some(u64::MAX);
        if ready && stack_quiet {
            match self.gated_ticks(&[]) {
                Ok(ticks) => idle_ticks = Some(ticks),
                Err(reserve) if self.graph.fed_by_live_source(reserve) => {
                    return Err(Obstacle::Ready)
                }
                Err(_) => {}
            }
        }
        let refusal = match self.certify_frozen(end, ready, stack_quiet) {
            Ok(quanta) => {
                return Ok(Jump {
                    quanta,
                    kind: JumpKind::Frozen,
                })
            }
            Err(obstacle) => obstacle,
        };
        if !stack_quiet {
            return self.certify_pooled(end, ready);
        }
        let ticks = idle_ticks.ok_or(refusal)?;
        self.certify_idle(end, ticks).map(|quanta| Jump {
            quanta,
            kind: JumpKind::Idle,
        })
    }

    /// How many of the next flow ticks every Ready thread stays
    /// reserve-gated, so that every `pick_next` up to the last of them
    /// throttles it: its reserve is one of `swept` (the waiters of a
    /// certified pooled run, swept to zero or below after every tick) or
    /// in a deficit its feeds cannot close
    /// ([`ResourceGraph::quiet_ticks`], at least two ticks — one would
    /// not outlast a jump's first boundary on the fleet's grid).
    /// `u64::MAX` when nothing bounds it; the first ungated reserve
    /// otherwise.
    fn gated_ticks(&self, swept: &[SendRequest]) -> Result<u64, ReserveId> {
        let mut ticks = u64::MAX;
        for reserve in self.sched.ready_reserves() {
            if swept.iter().any(|w| w.reserve == reserve) {
                continue;
            }
            ticks = ticks.min(self.graph.quiet_ticks(reserve, 2).ok_or(reserve)?);
        }
        Ok(ticks)
    }

    /// Whole quanta the idle and frozen jumps may cross: up to the first
    /// boundary at or after the earliest wake source — exactly the
    /// boundary where the ordinary loop would first see it — capped so
    /// `now` never passes a boundary the loop would not reach before `end`.
    fn quanta_to_wake(&self, end: SimTime) -> Result<u64, Obstacle> {
        // An offload waiter's wake is always a queued event — the response
        // delivery or the deadline — so the event bound below sees it. An
        // empty event queue with waiters outstanding would strand a blocked
        // thread; refuse to jump rather than trust it.
        if self.offload_waiters > 0 && self.events.peek_time().is_none() {
            return Err(Obstacle::OffloadWaiter);
        }
        let mut wake = end;
        if let Some(t) = self.events.peek_time() {
            wake = wake.min(t);
        }
        if let Some(t) = self.arm9.radio().next_transition() {
            wake = wake.min(t);
        }
        let quantum = self.sched.quantum();
        let gap = wake.saturating_since(self.now);
        if gap <= quantum {
            return Err(Obstacle::WakeDue);
        }
        // ⌈gap/q⌉ ∧ ⌊to_end/q⌋ = ⌊((gap + q − 1) ∧ to_end)/q⌋: one division.
        let q = quantum.as_micros();
        let to_end = end.saturating_since(self.now).as_micros();
        Ok(gap.as_micros().saturating_add(q - 1).min(to_end) / q)
    }

    /// Whether a send held on its byte quota could move at a poll inside
    /// the span: its plan already covers it, it has no plan at all (a link
    /// flap can hold plan-less sends), or — when `refillable` counts — a
    /// tap may refill the plan. A plan with no inbound tap that does not
    /// yet cover provably stays uncovered: nothing else runs inside a
    /// jumped span, and events only ever *debit* byte reserves, so an
    /// exhausted dead-end plan does not pin the loop. While the link is
    /// down no held send can move at all (polls are no-ops) and the queued
    /// LinkUp event bounds the jump instead. The `byte_waiters` counter
    /// makes the common no-waiter case O(1).
    fn held_send_may_move(&self, refillable: bool) -> bool {
        self.byte_waiters > 0
            && !self.link_down
            && self.threads.iter().any(|t| {
                !t.exited
                    && t.pending_send.is_some_and(|p| {
                        match self.sched.reserve_for(t.task, ResourceKind::NetworkBytes) {
                            Some(plan) => {
                                self.plan_covers(plan, p.tx_bytes, p.rx_bytes)
                                    || refillable && self.graph.has_inbound_tap(plan)
                            }
                            None => true,
                        }
                    })
            })
    }

    /// The idle certificate: the stack is idle and every Ready thread
    /// stays gated for the next `gated_ticks` flow ticks (both checked by
    /// the caller), no held send can move, and every lit peripheral is
    /// funded across the span — near-empty reserves pin the slow path so a
    /// forced shutdown lands on the exact boundary it always would. The
    /// jump ends before the boundary that would see one tick more.
    fn certify_idle(&self, end: SimTime, gated_ticks: u64) -> Result<u64, Obstacle> {
        // A tap may refill a waiting plan mid-span, so refills count here.
        if self.held_send_may_move(true) {
            return Err(Obstacle::ByteWaiter);
        }
        let mut quanta = self.quanta_to_wake(end)?;
        if gated_ticks != u64::MAX {
            // A boundary sees every tick at or before it, so the crossed
            // ones must all precede tick `gated_ticks + 1`.
            let tick = self.config.graph.flow_tick.as_micros();
            let ungated = self
                .graph
                .now()
                .as_micros()
                .saturating_add(tick.saturating_mul(gated_ticks.saturating_add(1)));
            quanta = quanta.min(
                ungated
                    .saturating_sub(self.now.as_micros())
                    .div_ceil(self.sched.quantum().as_micros()),
            );
            if quanta == 0 {
                return Err(Obstacle::Ready);
            }
        }
        if !self.peripherals_cover_span(self.sched.quantum() * quanta) {
            return Err(Obstacle::Peripheral);
        }
        Ok(quanta)
    }

    /// The frozen certificate: no lit peripheral (enforcement needs
    /// per-quantum funding checks); the graph is frozen — no tap can
    /// deliver and decay leaks round to zero, so no reserve can refill and
    /// no Ready task can become fundable; a pooling stack's polls reduce
    /// to zero sweeps against a standing refusal ([`NetStack::pooling`]),
    /// unless the stack is quiet (idle, or its link down);
    /// and no held send is submittable (a frozen graph keeps an uncovered
    /// plan uncovered).
    fn certify_frozen(
        &self,
        end: SimTime,
        ready: bool,
        stack_quiet: bool,
    ) -> Result<u64, Obstacle> {
        if self.enabled_peripherals != 0 {
            return Err(Obstacle::Peripheral);
        }
        let quanta = self.quanta_to_wake(end)?;
        if !self.graph.flow_is_frozen() {
            return Err(if ready {
                Obstacle::Ready
            } else {
                Obstacle::LiveFlow
            });
        }
        if let Some(stack) = self.net.as_ref().filter(|_| !stack_quiet) {
            let radio = self.arm9.radio();
            let inert = self.net_poll_snappable
                && stack
                    .pooling(&self.graph, radio.is_active(), radio.next_transition())
                    .is_some_and(|p| {
                        p.shortfall.is_positive()
                            && p.waiters.iter().all(|w| {
                                self.graph
                                    .reserve(w.reserve)
                                    .is_none_or(|r| !r.balance().is_positive())
                            })
                    });
            if !inert {
                return Err(Obstacle::NetPolls);
            }
        }
        if self.held_send_may_move(false) {
            return Err(Obstacle::ByteWaiter);
        }
        Ok(quanta)
    }

    /// The pooled certificate. The stack pools (checked by the caller);
    /// then, cheapest first:
    ///
    /// * no lit peripheral and no held send (every poll re-checks them);
    /// * every flow tick is followed by exactly one poll: the poll clock
    ///   sits on the tick just settled, and the flow grid refines the
    ///   quantum grid (the link is up: the caller treats a downed one as a
    ///   quiet stack);
    /// * the stack's polls reduce to sweeps against a standing refusal
    ///   ([`NetStack::pooling`]: for netd, its memoised failed grant check
    ///   matches the live pool and radio);
    /// * every Ready thread is gated ([`Kernel::gated_ticks`]): swept as a
    ///   waiter, or in deficit for the whole run, which caps its ticks;
    /// * the graph's half ([`ResourceGraph::pooled_run`]): the waiters'
    ///   constant feeds and every other live tap settle in closed form,
    ///   decay moves nothing (a gated sink stays at or below zero), and
    ///   the cumulative sweep stays below the shortfall.
    ///
    /// The run ends before any tick whose boundary meets an event or a
    /// radio transition, and its last quantum ends by `end`; it lands one
    /// quantum past its last tick, the boundary whose quantum the last
    /// tick's poll belongs to.
    fn certify_pooled(&self, end: SimTime, ready: bool) -> Result<Jump, Obstacle> {
        if self.enabled_peripherals != 0 {
            return Err(Obstacle::Peripheral);
        }
        if self.byte_waiters > 0 {
            return Err(Obstacle::ByteWaiter);
        }
        if self.offload_waiters > 0 && self.events.peek_time().is_none() {
            return Err(Obstacle::OffloadWaiter);
        }
        let tick = self.config.graph.flow_tick;
        let settled = self.graph.now();
        if !self.net_poll_snappable
            || self.last_net_poll != Some(settled)
            || settled + tick < self.now
        {
            return Err(Obstacle::NetPolls);
        }
        let quantum = self.sched.quantum();
        // The last tick's boundary must precede every wake source, and its
        // quantum must end by `end`.
        let mut last_us = end.as_micros().saturating_sub(quantum.as_micros());
        let radio = self.arm9.radio();
        for wake in [self.events.peek_time(), radio.next_transition()]
            .into_iter()
            .flatten()
        {
            last_us = last_us.min(wake.as_micros().saturating_sub(1));
        }
        let mut max_ticks = last_us.saturating_sub(settled.as_micros()) / tick.as_micros();
        if max_ticks == 0 {
            return Err(Obstacle::WakeDue);
        }
        let stack = self.net.as_ref().ok_or(Obstacle::NetPolls)?;
        let pooling = stack
            .pooling(&self.graph, radio.is_active(), radio.next_transition())
            .ok_or(Obstacle::NetPolls)?;
        let mut gated = Vec::new();
        if ready {
            let ticks = self
                .gated_ticks(pooling.waiters)
                .map_err(|_| Obstacle::Ready)?;
            max_ticks = max_ticks.min(ticks);
            gated.extend(self.sched.ready_reserves());
            // The sweeps credit the pool, so no deficit there is quiet.
            if gated.contains(&pooling.pool) {
                return Err(Obstacle::Ready);
            }
        }
        let waiters: Vec<ReserveId> = pooling.waiters.iter().map(|w| w.reserve).collect();
        let ticks =
            self.graph
                .pooled_run(&waiters, &gated, pooling.pool, max_ticks, pooling.shortfall)?;
        let landing = settled + tick * ticks + quantum;
        Ok(Jump {
            quanta: landing.since(self.now).div_duration(quantum),
            kind: JumpKind::Pooled {
                pool: pooling.pool,
                waiters,
                ticks,
            },
        })
    }

    /// The duty certificate, after a quantum in which the sole Ready thread
    /// ran on queued compute, so that each next one runs it if its reserve
    /// is positive and throttles it if not. Cheapest check first: no
    /// sampling meter, held send or lit peripheral, a flow tick of whole
    /// quanta, one known Ready thread, and a quiet stack. The span, which
    /// ends before a flow tick, is the least of the wake bound, the queued
    /// compute, and the graph's half ([`ResourceGraph::duty_run`]), which
    /// refuses only the battery and non-energy reserves.
    fn certify_duty(&self, end: SimTime) -> Option<Jump> {
        let quantum = self.sched.quantum();
        if self.config.meter_trace
            || self.byte_waiters > 0
            || self.enabled_peripherals != 0
            || !self.net_poll_snappable
        {
            return None;
        }
        let task = self.sched.sole_ready()?;
        let reserve = self.sched.active_reserve(task)?;
        let quiet = self.link_down || self.net.as_ref().is_none_or(|n| n.is_idle());
        // The landing replays the estimator's window off the run history.
        if !quiet || self.config.sched.estimate_window > quantum * Duty::HISTORY {
            return None;
        }
        let tick = self.config.graph.flow_tick;
        let next_tick = self.graph.now() + tick;
        let head = next_tick.since(self.now).div_duration(quantum);
        let per_tick = tick.div_duration(quantum);
        let pending = self.thread(self.thread_for_task(task)?)?.pending_compute;
        let wake = self.quanta_to_wake(end).ok()?;
        let max_ticks = wake.min(pending.div_duration(quantum)).checked_sub(head)? / per_tick;
        let n = self.graph.duty_run(reserve, max_ticks).filter(|&n| n > 0)?;
        let cost = self.platform.cpu.accounting_power().energy_over(quantum);
        let duty = Duty::new(reserve, cost, head, per_tick, self.sched.duty_window());
        let (quanta, kind) = (head + n * per_tick, JumpKind::Duty { task, duty, n });
        Some(Jump { quanta, kind })
    }

    /// Lands a certified jump.
    ///
    /// Idle and frozen jumps: stepping runs each flow tick at its own
    /// boundary, before any event that fires later, while the landing
    /// iteration delivers events *before* flowing, so the crossed ticks
    /// settle here up to the boundary before landing (a tick exactly at
    /// the landing boundary stays for the landing iteration, as in the
    /// base loop). The meter holds the constant power until the next
    /// `set_power`.
    ///
    /// Pooled jumps: the graph settles the run's ticks and sweeps, netd's
    /// memo advances by the total swept, and the poll clock moves to the
    /// last tick — exactly where stepping would leave them.
    ///
    /// Either way each crossed boundary's `pick_next` would have throttled
    /// every Ready task (gated, or unfundable in a frozen graph), which
    /// [`ResourceScheduler::bulk_throttle`] replays in bulk against the
    /// graph as the last crossed boundary saw it, leaving the round-robin
    /// queue bit-identically unchanged.
    ///
    /// Duty jumps: the graph settles the ticks with the duty's quanta, as a
    /// charged lane (fewer ticks if another source's coverage ends first)
    /// or between compiled ticks, and its quanta land in
    /// O(window): [`ResourceScheduler::settle_duty`], one exact meter
    /// update up to the last run↔throttle edge, queued compute, CPU state.
    fn land(&mut self, jump: Jump) {
        let quantum = self.sched.quantum();
        match jump.kind {
            JumpKind::Duty { task, mut duty, n } => {
                self.graph.settle_duty(&mut duty, n);
                let start = self.now;
                self.sched.settle_duty(task, start, &duty);
                let st = self.thread_for_task(task).and_then(|t| self.thread_mut(t));
                let st = st.expect("the sole Ready task has a thread");
                st.pending_compute -= quantum * duty.runs;
                let kind = st.cpu_kind;
                let extra = self.arm9.radio().extra_power();
                self.platform.set_cpu(None);
                let idle = self.platform.total(extra);
                self.platform.set_cpu(duty.ran.then_some(kind));
                if let Some((edge, idled)) = duty.edge {
                    let (at, last) = (start + quantum * edge, self.platform.total(extra));
                    self.meter
                        .settle_alternating(at, idle, quantum * idled, last);
                }
                self.now += quantum * duty.quanta();
                self.profile.duty_quanta += duty.quanta();
                self.profile.duty_jumps += 1;
                return;
            }
            JumpKind::Idle | JumpKind::Frozen => {
                self.now += quantum * jump.quanta;
                self.graph.flow_until(SimTime::from_micros(
                    self.now.as_micros() - quantum.as_micros(),
                ));
            }
            JumpKind::Pooled {
                pool,
                ref waiters,
                ticks,
            } => {
                let swept = self.graph.settle_pooled(waiters, pool, ticks);
                if let Some(stack) = self.net.as_mut() {
                    stack.settle_pooled(swept);
                }
                self.last_net_poll = Some(self.graph.now());
                self.now += quantum * jump.quanta;
            }
        }
        self.sched.bulk_throttle(&self.graph, jump.quanta);
        let p = &mut self.profile;
        if self.sched.has_ready() && !matches!(jump.kind, JumpKind::Frozen) {
            p.gated_quanta += jump.quanta;
        }
        let (quanta, jumps) = match jump.kind {
            JumpKind::Idle => (&mut p.idle_quanta, &mut p.idle_jumps),
            JumpKind::Frozen => (&mut p.frozen_quanta, &mut p.frozen_jumps),
            JumpKind::Pooled { .. } => (&mut p.pooled_quanta, &mut p.pooled_jumps),
            JumpKind::Duty { .. } => unreachable!("landed above"),
        };
        *quanta += jump.quanta;
        *jumps += 1;
    }

    /// Advances radio timers up to `to`, updating the meter exactly at each
    /// phase transition.
    fn advance_radio_metered(&mut self, to: SimTime) {
        while let Some(tt) = self.arm9.radio().next_transition() {
            if tt > to {
                break;
            }
            self.arm9.advance_to(tt);
            let total = self.platform.total(self.arm9.radio().extra_power());
            self.meter.set_power(tt, total);
        }
        self.arm9.advance_to(to);
    }

    fn deliver_events(&mut self, t: SimTime) {
        while let Some((_, ev)) = self.events.pop_due(t) {
            match ev {
                KernelEvent::Wake(tid) => self.wake(tid),
                KernelEvent::LinkUp => {
                    // The flap is over. Held sends go back out through the
                    // regular retry path at this boundary's net poll, which
                    // is immediately due (the poll clock did not advance
                    // while the link was down).
                    self.link_down = false;
                }
                KernelEvent::Rx {
                    thread,
                    bytes,
                    bill,
                    bill_bytes,
                    wakes,
                } => {
                    if self.arm9.radio().is_active() {
                        if let Ok(Arm9Response::Radio(out)) =
                            self.arm9
                                .request(t, Arm9Request::RadioDeliver { bytes }, &mut self.rng)
                        {
                            self.meter.add_energy(out.data_energy);
                        }
                    }
                    if let Some(reserve) = bill {
                        let cost = self.config.radio.data_energy(bytes);
                        let _ = self
                            .graph
                            .consume_with_debt(&Actor::kernel(), reserve, cost);
                    }
                    if let Some(plan) = bill_bytes {
                        // §5.5.2's after-the-fact billing applied to the
                        // data plan: received bytes debit the byte reserve
                        // "up to or into debt".
                        let _ = self.graph.consume_with_debt(
                            &Actor::kernel(),
                            plan,
                            quota::bytes(bytes),
                        );
                    }
                    if wakes {
                        // An offload response. If the thread is still
                        // waiting, record the outcome and wake it; if its
                        // deadline already fired (or it died), the bytes
                        // above were still billed — a late response costs
                        // what it costs — but nobody wakes.
                        let mut resolved = None;
                        if let Some(st) = self.thread_mut(thread) {
                            if let Some(pending) = st.pending_offload.take() {
                                let latency = t.since(pending.started_at);
                                st.offload_result = Some(OffloadOutcome::Completed { latency });
                                resolved = Some((latency, (!st.exited).then_some(st.task)));
                            }
                        }
                        if let Some((latency, wake)) = resolved {
                            self.offload_waiters -= 1;
                            self.offload_stats.completed += 1;
                            self.offload_stats.latency_us_sum += latency.as_micros();
                            if let Some(task) = wake {
                                self.sched.set_state(task, TaskState::Ready);
                            }
                        }
                    }
                    // Plain deliveries do not wake the thread.
                }
                KernelEvent::OffloadDeadline { thread, seq } => {
                    let mut expired = None;
                    if let Some(st) = self.thread_mut(thread) {
                        // `seq` disambiguates: a stale deadline from an
                        // earlier, already-resolved offload must not cancel
                        // a newer in-flight one.
                        if st.pending_offload.as_ref().is_some_and(|p| p.seq == seq) {
                            st.pending_offload = None;
                            st.offload_result = Some(OffloadOutcome::TimedOut);
                            expired = Some((!st.exited).then_some(st.task));
                        }
                    }
                    if let Some(wake) = expired {
                        self.offload_waiters -= 1;
                        self.offload_stats.timed_out += 1;
                        if let Some(task) = wake {
                            self.sched.set_state(task, TaskState::Ready);
                        }
                    }
                }
            }
        }
    }

    fn net_poll(&mut self, t: SimTime) {
        if self.net.is_none() && self.byte_waiters == 0 {
            // Nothing a poll could do: no stack to drive, no held sends to
            // re-check. Skipping the cadence bookkeeping too is sound — the
            // poll clock only sequences observable poll work, and the next
            // real poll re-anchors it exactly as the first poll of a run
            // does.
            return;
        }
        if self.link_down {
            // A downed link freezes the whole poll path — no retries, no
            // stack sweep, and (deliberately) no poll-clock advance, so the
            // first poll after LinkUp is immediately due. A no-op poll is
            // what makes link-down quanta skippable.
            return;
        }
        let tick = self.graph.config().flow_tick;
        let due = match self.last_net_poll {
            Some(last) => t.saturating_since(last) >= tick,
            None => true,
        };
        if !due {
            return;
        }
        self.retry_byte_blocked_sends(t);
        // Snap the poll clock to its own grid rather than to `t`: if the
        // idle fast-forward jumped several ticks, the cadence stays aligned
        // with the every-quantum run instead of acquiring a phase shift.
        // Only valid when the tick grid is a refinement of the quantum grid
        // (every tick lands on a schedulable boundary); otherwise keep the
        // historical behaviour of anchoring to `t`. The exact-next-tick
        // case (every poll while the loop steps quantum by quantum) skips
        // the division.
        self.last_net_poll = Some(match self.last_net_poll {
            Some(last) if self.net_poll_snappable => {
                if t == last + tick {
                    t
                } else {
                    last + tick * t.since(last).div_duration(tick)
                }
            }
            _ => t,
        });
        let Some(mut stack) = self.net.take() else {
            return;
        };
        let mut outbox = Vec::new();
        let mut metered = Energy::ZERO;
        let woken = {
            let mut env = NetEnv {
                now: t,
                graph: &mut self.graph,
                arm9: &mut self.arm9,
                rng: &mut self.rng,
                rx_outbox: &mut outbox,
                metered_energy: &mut metered,
            };
            stack.poll(&mut env)
        };
        self.net = Some(stack);
        self.meter.add_energy(metered);
        self.queue_rx(outbox);
        for tid in woken {
            let mut wake = None;
            if let Some(st) = self.thread_mut(tid) {
                st.net_result = Some(NetSendStatus::Sent);
                // An offloading thread whose pooled send just reached the
                // radio is still waiting on the *response*: record that the
                // send went out, but leave the thread blocked until the Rx
                // delivery (or its deadline) wakes it.
                if !st.exited && st.pending_offload.is_none() {
                    wake = Some(st.task);
                }
            }
            if let Some(task) = wake {
                self.sched.set_state(task, TaskState::Ready);
            }
        }
    }

    fn queue_rx(&mut self, outbox: Vec<RxDelivery>) {
        for rx in outbox {
            self.events.schedule(
                rx.at,
                KernelEvent::Rx {
                    thread: rx.thread,
                    bytes: rx.bytes,
                    bill: rx.bill,
                    bill_bytes: rx.bill_bytes,
                    wakes: rx.wakes,
                },
            );
        }
    }

    /// Hands one send request to the installed stack, forwarding its reply
    /// deliveries and metered energy. Shared by the [`Ctx::net_send`]
    /// syscall and the byte-quota retry path.
    fn submit_to_stack(
        &mut self,
        t: SimTime,
        req: SendRequest,
    ) -> Result<SendVerdict, KernelError> {
        let Some(mut stack) = self.net.take() else {
            return Err(KernelError::NoNetwork);
        };
        let mut outbox = Vec::new();
        let mut metered = Energy::ZERO;
        let verdict = {
            let mut env = NetEnv {
                now: t,
                graph: &mut self.graph,
                arm9: &mut self.arm9,
                rng: &mut self.rng,
                rx_outbox: &mut outbox,
                metered_energy: &mut metered,
            };
            stack.request(&mut env, req)
        };
        self.net = Some(stack);
        self.meter.add_energy(metered);
        self.queue_rx(outbox);
        Ok(verdict)
    }

    /// The §9 enforcement point: whether `plan` covers a whole send
    /// (transmit plus the expected reply — a plan must not be committed to
    /// traffic it cannot absorb).
    fn plan_covers(&self, plan: ReserveId, tx_bytes: u64, rx_bytes: u64) -> bool {
        self.graph
            .reserve(plan)
            .is_some_and(|r| r.balance() >= quota::bytes(tx_bytes + rx_bytes))
    }

    /// Re-checks byte-blocked sends (in thread-id order, keeping runs
    /// deterministic): once the plan covers a held request it goes to the
    /// stack — which may still block it on pooled energy (netd), the two
    /// block reasons composing in sequence.
    fn retry_byte_blocked_sends(&mut self, t: SimTime) {
        if self.byte_waiters == 0 {
            return;
        }
        let waiting: Vec<ThreadId> = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, st)| st.pending_send.is_some() && !st.exited)
            .map(|(slot, _)| Self::slot_tid(slot))
            .collect();
        for tid in waiting {
            let Some(st) = self.thread(tid) else {
                continue;
            };
            let task = st.task;
            let pending = st.pending_send.expect("filtered on pending_send");
            // A held send without a byte plan exists only after a link
            // flap (link-down holds *every* send); nothing byte-gates it,
            // so it is always coverable once the link is back.
            let plan = self.sched.reserve_for(task, ResourceKind::NetworkBytes);
            if let Some(plan) = plan {
                if !self.plan_covers(plan, pending.tx_bytes, pending.rx_bytes) {
                    continue;
                }
            }
            let Some(reserve) = self.sched.reserve_for(task, ResourceKind::Energy) else {
                continue;
            };
            if let Some(st) = self.thread_mut(tid) {
                if st.pending_send.take().is_some() {
                    self.byte_waiters -= 1;
                }
            }
            let req = SendRequest {
                thread: tid,
                reserve,
                byte_reserve: plan,
                tx_bytes: pending.tx_bytes,
                rx_bytes: pending.rx_bytes,
                extra_delay: SimDuration::ZERO,
                wakes: false,
            };
            match self.submit_to_stack(t, req) {
                Ok(SendVerdict::Sent) => {
                    let mut wake = false;
                    if let Some(st) = self.thread_mut(tid) {
                        st.net_result = Some(NetSendStatus::Sent);
                        wake = !st.exited;
                    }
                    if wake {
                        self.sched.set_state(task, TaskState::Ready);
                    }
                }
                // Queued in the stack (pooling): the stack's poll wakes it.
                Ok(SendVerdict::Blocked) | Err(_) => {}
            }
        }
    }

    /// Picks and runs one thread for the quantum starting at `t`. Returns
    /// the instruction mix of the thread that ran, or `None` if the CPU
    /// idled.
    fn schedule_one(&mut self, t: SimTime) -> Option<CpuKind> {
        let mut attempts = self.threads.len() + 1;
        while attempts > 0 {
            attempts -= 1;
            let task = self.sched.pick_next(&self.graph)?;
            let Some(tid) = self.thread_for_task(task) else {
                continue;
            };
            // If the thread has no CPU work queued, step its program.
            let needs_step = self
                .thread(tid)
                .map(|s| s.pending_compute.is_zero() && !s.exited)
                .unwrap_or(false);
            if needs_step {
                self.run_program(tid, t);
            }
            if self.thread(tid).map(|s| s.exited).unwrap_or(true) {
                continue;
            }
            // Only a program step can have changed the state since
            // `pick_next` verified Ready; skip the re-check otherwise.
            if needs_step && self.sched.state(task) != Some(TaskState::Ready) {
                // The program ran briefly (syscalls) and then blocked or
                // went to sleep: dispatching it still cost CPU time (1 ms,
                // a tenth of a quantum), charged to its reserve — this is
                // exactly the overhead the paper attributes to explicit
                // transfer threads (§3.3).
                let power = self.platform.cpu.accounting_power();
                let dispatch = self.sched.quantum() / 10;
                let _ = self
                    .sched
                    .charge_duration(&mut self.graph, task, t, power, dispatch);
                continue;
            }
            // Run one quantum: consume pending compute (if any) and charge.
            let quantum = self.sched.quantum();
            let kind = {
                let st = self.thread_mut(tid).expect("liveness checked above");
                st.pending_compute = st.pending_compute.saturating_sub(quantum);
                st.cpu_kind
            };
            let power = self.platform.cpu.accounting_power();
            let _ = self.sched.charge(&mut self.graph, task, t, power);
            return Some(kind);
        }
        None
    }

    /// Steps a thread's program until it produces a time-consuming action
    /// (bounded to avoid livelock from pathological programs).
    fn run_program(&mut self, tid: ThreadId, t: SimTime) {
        const MAX_IMMEDIATE_STEPS: usize = 32;
        for _ in 0..MAX_IMMEDIATE_STEPS {
            let Some(mut program) = self.thread_mut(tid).and_then(|s| s.program.take()) else {
                return;
            };
            let step = {
                let mut ctx = Ctx { kernel: self, tid };
                program.step(&mut ctx)
            };
            if let Some(st) = self.thread_mut(tid) {
                st.program = Some(program);
            }
            let Some(st) = self.thread_mut(tid) else {
                return;
            };
            let task = st.task;
            match step {
                Step::Compute { duration, kind } => {
                    st.pending_compute = duration;
                    st.cpu_kind = kind;
                    return;
                }
                Step::SleepUntil(when) => {
                    if when <= t {
                        continue; // already past; re-step
                    }
                    self.sched.set_state(task, TaskState::Blocked);
                    self.events.schedule(when, KernelEvent::Wake(tid));
                    return;
                }
                Step::Yield => return,
                Step::Block => {
                    self.sched.set_state(task, TaskState::Blocked);
                    return;
                }
                Step::Exit => {
                    st.exited = true;
                    st.program = None;
                    let offload_cleared = st.pending_offload.take().is_some();
                    if st.pending_send.take().is_some() {
                        self.byte_waiters -= 1;
                    }
                    if offload_cleared {
                        // Abandoned = timed out (see `unlink_recursive`).
                        self.offload_waiters -= 1;
                        self.offload_stats.timed_out += 1;
                    }
                    self.sched.set_state(task, TaskState::Exited);
                    return;
                }
            }
        }
        // Treat a runaway immediate-step program as yielding.
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("threads", &self.threads.len())
            .field("objects", &self.objects.len())
            .field("graph", &self.graph)
            .finish()
    }
}

/// The syscall surface a [`Program`] sees, bound to its thread's security
/// identity: every operation is checked against the thread's label and
/// privileges, exactly as reserves and taps are protected in the paper
/// (§3.5).
pub struct Ctx<'a> {
    kernel: &'a mut Kernel,
    tid: ThreadId,
}

impl Ctx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// This thread's id.
    pub fn thread_id(&self) -> ThreadId {
        self.tid
    }

    /// The scheduler quantum — the grid retry/backoff helpers align to.
    pub fn quantum(&self) -> SimDuration {
        self.kernel.sched.quantum()
    }

    /// The thread's security identity.
    pub fn actor(&self) -> Actor {
        self.state().actor.clone()
    }

    /// Deterministic randomness for workload noise.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.kernel.rng
    }

    fn state(&self) -> &ThreadState {
        self.kernel.thread(self.tid).expect("ctx thread alive")
    }

    // ----- reserves & taps -------------------------------------------------

    /// The battery's root reserve id.
    pub fn battery(&self) -> ReserveId {
        self.kernel.graph.battery()
    }

    /// This thread's active reserve.
    pub fn active_reserve(&self) -> ReserveId {
        self.kernel
            .sched
            .active_reserve(self.state().task)
            .expect("thread has a reserve")
    }

    /// Switches the active energy reserve (`self_set_active_reserve`,
    /// Fig 5).
    pub fn set_active_reserve(&mut self, reserve: ReserveId) {
        let task = self.state().task;
        self.kernel.sched.set_active_reserve(task, reserve);
    }

    /// This thread's active reserve for a kind, if one is attached.
    pub fn active_reserve_kind(&self, kind: ResourceKind) -> Option<ReserveId> {
        self.kernel.sched.reserve_for(self.state().task, kind)
    }

    /// Attaches (or switches) this thread's active reserve for a kind —
    /// the typed generalisation of `self_set_active_reserve` (§9).
    /// Attaching a [`ResourceKind::NetworkBytes`] reserve puts the thread's
    /// sends under that data plan; attaching a
    /// [`ResourceKind::SmsMessages`] reserve funds [`Ctx::sms_send`].
    pub fn set_active_reserve_kind(&mut self, kind: ResourceKind, reserve: ReserveId) {
        let task = self.state().task;
        self.kernel.sched.set_reserve_for(task, kind, reserve);
    }

    /// Creates a reserve (label-checked).
    pub fn create_reserve(&mut self, name: &str, label: Label) -> Result<ReserveId, KernelError> {
        let actor = self.actor();
        Ok(self.kernel.graph.create_reserve(&actor, name, label)?)
    }

    /// Creates a tap (label-checked; the actor's privileges are embedded).
    pub fn create_tap(
        &mut self,
        name: &str,
        source: ReserveId,
        sink: ReserveId,
        rate: RateSpec,
        tap_label: Label,
    ) -> Result<TapId, KernelError> {
        let actor = self.actor();
        Ok(self
            .kernel
            .graph
            .create_tap(&actor, name, source, sink, rate, tap_label)?)
    }

    /// Changes a tap's rate (requires modify on the tap's label — the task
    /// manager's lever, §5.4).
    pub fn set_tap_rate(&mut self, tap: TapId, rate: RateSpec) -> Result<(), KernelError> {
        let actor = self.actor();
        Ok(self.kernel.graph.set_tap_rate(&actor, tap, rate)?)
    }

    /// Deletes a tap.
    pub fn delete_tap(&mut self, tap: TapId) -> Result<(), KernelError> {
        let actor = self.actor();
        Ok(self.kernel.graph.delete_tap(&actor, tap)?)
    }

    /// Reads a reserve level (requires observe).
    pub fn level(&self, reserve: ReserveId) -> Result<Energy, KernelError> {
        let actor = self.state().actor.clone();
        Ok(self.kernel.graph.level(&actor, reserve)?)
    }

    /// Transfers between reserves (requires use of source, modify of sink).
    pub fn transfer(
        &mut self,
        from: ReserveId,
        to: ReserveId,
        amount: Energy,
    ) -> Result<(), KernelError> {
        let actor = self.actor();
        Ok(self.kernel.graph.transfer(&actor, from, to, amount)?)
    }

    /// Consumes from a reserve, failing if short.
    pub fn consume(&mut self, reserve: ReserveId, amount: Energy) -> Result<(), KernelError> {
        let actor = self.actor();
        Ok(self.kernel.graph.consume(&actor, reserve, amount)?)
    }

    /// Consumes, permitting debt (after-the-fact billing, §5.5.2).
    pub fn consume_with_debt(
        &mut self,
        reserve: ReserveId,
        amount: Energy,
    ) -> Result<(), KernelError> {
        let actor = self.actor();
        Ok(self
            .kernel
            .graph
            .consume_with_debt(&actor, reserve, amount)?)
    }

    // ----- threads -----------------------------------------------------------

    /// Spawns a child thread drawing from `reserve`, inheriting this
    /// thread's security identity (fork + exec of Fig 5's `energywrap`).
    pub fn spawn(&mut self, name: &str, program: Box<dyn Program>, reserve: ReserveId) -> ThreadId {
        let actor = self.actor();
        self.kernel.spawn(name, program, reserve, actor)
    }

    /// Wakes another thread (cooperative synchronisation).
    pub fn wake(&mut self, tid: ThreadId) {
        self.kernel.wake(tid);
    }

    // ----- IPC -----------------------------------------------------------------

    /// Calls a gate: the *calling thread* executes the service's code, so
    /// the gate's CPU work lands on this thread's pending compute, billed to
    /// its own active reserve — delegation-correct billing for free
    /// (§5.5.1). Requires observe on the gate's label.
    pub fn gate_call(&mut self, gate: ObjectId) -> Result<(), KernelError> {
        let actor = self.state().actor.clone();
        let obj = self
            .kernel
            .objects
            .get(&gate)
            .ok_or(KernelError::NoSuchObject)?;
        let Body::Gate { work } = obj.body() else {
            return Err(KernelError::WrongObjectKind);
        };
        if !actor.is_kernel() && !actor.label().can_observe(actor.privs(), obj.label()) {
            return Err(KernelError::Denied { op: "gate_call" });
        }
        let work = *work;
        let st = self
            .kernel
            .thread_mut(self.tid)
            .ok_or(KernelError::NoSuchThread)?;
        st.pending_compute += work;
        Ok(())
    }

    /// Message-passing IPC (the Cinder-Linux ablation, §7.1): asks a daemon
    /// thread to do `work` of CPU. The work is billed to the *daemon's*
    /// reserve — the misattribution the paper explains gates avoid.
    pub fn msg_send(&mut self, daemon: ThreadId, work: SimDuration) -> Result<(), KernelError> {
        let st = self
            .kernel
            .thread_mut(daemon)
            .ok_or(KernelError::NoSuchThread)?;
        st.msg_inbox.push_back(work);
        let wake = (!st.exited).then_some(st.task);
        if let Some(task) = wake {
            self.kernel.sched.set_state(task, TaskState::Ready);
        }
        Ok(())
    }

    /// Takes the next queued message-work item (daemon side of
    /// [`Ctx::msg_send`]).
    pub fn msg_take(&mut self) -> Option<SimDuration> {
        self.kernel
            .thread_mut(self.tid)
            .and_then(|s| s.msg_inbox.pop_front())
    }

    // ----- network ----------------------------------------------------------

    /// Requests a network send of `tx_bytes`, expecting `rx_bytes` back.
    ///
    /// If the thread carries a [`ResourceKind::NetworkBytes`] reserve, the
    /// send is gated on the plan covering `tx + rx` bytes *before* the
    /// stack sees it: an uncovered send blocks — without being charged a
    /// byte or a joule of radio energy — until taps refill the plan
    /// (blocked-on-bytes, re-checked each net poll). Covered sends debit
    /// the plan per transmitted byte at the radio and bill reply bytes on
    /// delivery.
    ///
    /// Returns [`NetSendStatus::Blocked`] if the send was held on bytes or
    /// queued by the stack (insufficient pooled energy); the program should
    /// then return [`Step::Block`] and, on wake, call
    /// [`Ctx::net_take_result`].
    pub fn net_send(&mut self, tx_bytes: u64, rx_bytes: u64) -> Result<NetSendStatus, KernelError> {
        if self.kernel.net.is_none() {
            return Err(KernelError::NoNetwork);
        }
        if self.kernel.link_down {
            // A flap holds *every* send in the kernel, plan or no plan —
            // the same holding pen as blocked-on-bytes, released by the
            // same retry path once the link returns. Nothing is billed.
            let st = self
                .kernel
                .thread_mut(self.tid)
                .ok_or(KernelError::NoSuchThread)?;
            let was_waiting = st.pending_send.replace(PendingSend { tx_bytes, rx_bytes });
            if was_waiting.is_none() {
                self.kernel.byte_waiters += 1;
            }
            self.kernel.faults.link_blocked_sends += 1;
            return Ok(NetSendStatus::Blocked);
        }
        let reserve = self.active_reserve();
        let byte_reserve = self.active_reserve_kind(ResourceKind::NetworkBytes);
        if let Some(plan) = byte_reserve {
            if !self.kernel.plan_covers(plan, tx_bytes, rx_bytes) {
                let st = self
                    .kernel
                    .thread_mut(self.tid)
                    .ok_or(KernelError::NoSuchThread)?;
                let was_waiting = st.pending_send.replace(PendingSend { tx_bytes, rx_bytes });
                st.bytes_blocked_sends += 1;
                if was_waiting.is_none() {
                    self.kernel.byte_waiters += 1;
                }
                return Ok(NetSendStatus::Blocked);
            }
        }
        let req = SendRequest {
            thread: self.tid,
            reserve,
            byte_reserve,
            tx_bytes,
            rx_bytes,
            extra_delay: SimDuration::ZERO,
            wakes: false,
        };
        let now = self.kernel.now;
        Ok(match self.kernel.submit_to_stack(now, req)? {
            SendVerdict::Sent => NetSendStatus::Sent,
            SendVerdict::Blocked => NetSendStatus::Blocked,
        })
    }

    /// Takes the completion notice of a previously blocked send.
    pub fn net_take_result(&mut self) -> Option<NetSendStatus> {
        self.kernel
            .thread_mut(self.tid)
            .and_then(|s| s.net_result.take())
    }

    /// Withdraws this thread's *kernel-held* pending send (blocked on
    /// bytes or on a link flap), if any. Returns `true` if a send was
    /// cancelled; `false` means nothing was kernel-held — either no send
    /// is outstanding or the stack already owns it (netd pooling), in
    /// which case the caller keeps waiting. The retry helpers' give-up
    /// path: a poller that has exhausted its backoff budget abandons the
    /// poll instead of wedging until the plan refills or the link heals.
    pub fn net_cancel_pending(&mut self) -> bool {
        let cancelled = self
            .kernel
            .thread_mut(self.tid)
            .is_some_and(|st| st.pending_send.take().is_some());
        if cancelled {
            self.kernel.byte_waiters -= 1;
        }
        cancelled
    }

    /// Sends `messages` SMS messages against the thread's
    /// [`ResourceKind::SmsMessages`] reserve (§9), debiting the quota
    /// online. Fails without side effects if no SMS reserve is attached or
    /// the quota cannot cover the batch.
    pub fn sms_send(&mut self, messages: u64) -> Result<(), KernelError> {
        let Some(reserve) = self.active_reserve_kind(ResourceKind::SmsMessages) else {
            return Err(KernelError::NoReserveForKind {
                kind: ResourceKind::SmsMessages,
            });
        };
        let actor = self.actor();
        Ok(self
            .kernel
            .graph
            .consume_typed(&actor, reserve, Quantity::sms_messages(messages))?)
    }

    // ----- offload -----------------------------------------------------------

    /// Ships a work item to the installed offload backend: the request and
    /// response bytes travel over the network stack (billed exactly like
    /// [`Ctx::net_send`] traffic — radio energy through the episode
    /// machinery, bytes against the data plan), and the thread blocks until
    /// the response lands or `req.deadline` expires.
    ///
    /// Fails fast into local execution ([`OffloadStatus::Rejected`], with
    /// nothing billed) when the data plan cannot cover the round trip or
    /// the backend's queue is full. On [`OffloadStatus::Sent`] the program
    /// returns [`Step::Block`] and, on wake, reads the
    /// [`OffloadOutcome`] via [`Ctx::offload_take_result`] — `Completed`
    /// means the remote result arrived in time, `TimedOut` means the
    /// deadline fired first and the caller should compute locally (the
    /// late response still bills its bytes on delivery, but wakes no one).
    ///
    /// A send the stack *queues* (netd pooling energy for a radio
    /// power-up) still counts as sent: the thread waits for the response
    /// with the deadline bounding the wait, exactly as if the transmit had
    /// happened immediately.
    pub fn offload(&mut self, req: OffloadRequest) -> Result<OffloadStatus, KernelError> {
        if self.kernel.offload.is_none() {
            return Err(KernelError::NoOffload);
        }
        if self.kernel.net.is_none() {
            return Err(KernelError::NoNetwork);
        }
        self.kernel.offload_stats.attempts += 1;
        if self.kernel.link_down {
            // No link, no backend: fail fast into local execution rather
            // than holding the caller against its deadline.
            self.kernel.offload_stats.rejected += 1;
            self.kernel.faults.link_rejected_offloads += 1;
            return Ok(OffloadStatus::Rejected);
        }
        let reserve = self.active_reserve();
        let byte_reserve = self.active_reserve_kind(ResourceKind::NetworkBytes);
        // Unlike net_send, an uncovered offload does not block on bytes:
        // the caller wants an answer by a deadline, so an exhausted plan
        // means compute locally, now.
        if let Some(plan) = byte_reserve {
            if !self.kernel.plan_covers(plan, req.tx_bytes, req.rx_bytes) {
                self.kernel.offload_stats.rejected += 1;
                return Ok(OffloadStatus::Rejected);
            }
        }
        let now = self.kernel.now;
        let mut backend = self.kernel.offload.take().expect("checked above");
        let verdict = backend.admit(now, &req);
        self.kernel.offload = Some(backend);
        let response_delay = match verdict {
            OffloadVerdict::Admitted { response_delay } => response_delay,
            OffloadVerdict::Rejected => {
                self.kernel.offload_stats.rejected += 1;
                return Ok(OffloadStatus::Rejected);
            }
        };
        let send = SendRequest {
            thread: self.tid,
            reserve,
            byte_reserve,
            tx_bytes: req.tx_bytes,
            rx_bytes: req.rx_bytes,
            extra_delay: response_delay,
            wakes: true,
        };
        // Sent and Blocked both leave the thread waiting on the response;
        // a pooled send goes out when netd's pool fills (the poll's wake
        // records net_result without readying an offload waiter), and the
        // deadline event bounds the wait either way.
        let _ = self.kernel.submit_to_stack(now, send)?;
        let st = self
            .kernel
            .thread_mut(self.tid)
            .ok_or(KernelError::NoSuchThread)?;
        st.offload_seq += 1;
        let seq = st.offload_seq;
        st.pending_offload = Some(PendingOffload {
            started_at: now,
            seq,
        });
        st.offload_result = None;
        self.kernel.offload_waiters += 1;
        self.kernel.offload_stats.accepted += 1;
        self.kernel.events.schedule(
            now + req.deadline,
            KernelEvent::OffloadDeadline {
                thread: self.tid,
                seq,
            },
        );
        Ok(OffloadStatus::Sent)
    }

    /// Takes the outcome of a previously sent offload (call on wake after
    /// [`Ctx::offload`] returned [`OffloadStatus::Sent`]).
    pub fn offload_take_result(&mut self) -> Option<OffloadOutcome> {
        self.kernel
            .thread_mut(self.tid)
            .and_then(|s| s.offload_result.take())
    }

    /// The live backend latency estimate (queue wait plus service) a
    /// request admitted now would observe — the signal the break-even
    /// policy reads. `None` when no backend is installed.
    pub fn offload_latency_estimate(&self) -> Option<SimDuration> {
        let now = self.kernel.now;
        self.kernel
            .offload
            .as_ref()
            .map(|b| b.latency_estimate(now))
    }

    /// What the radio would charge to move `bytes` right now: a full
    /// activation episode if idle, a plateau extension if already up, plus
    /// the per-byte data energy. The remote-cost side of the break-even
    /// comparison.
    pub fn radio_cost_estimate(&self, bytes: u64) -> Energy {
        self.kernel
            .arm9
            .radio()
            .cost_estimate(self.kernel.now, bytes)
    }

    /// The flat accounting power the kernel charges for CPU work — the
    /// local-cost side of the break-even comparison (local joules =
    /// accounting power × remaining work).
    pub fn cpu_accounting_power(&self) -> Power {
        self.kernel.platform.cpu.accounting_power()
    }

    // ----- devices -----------------------------------------------------------

    /// Turns the backlight on/off (+555 mW) as a *raw platform poke*: no
    /// reserve funds the draw and nothing ever forces it off. The gated
    /// path — the one fleet workloads use — is
    /// [`Ctx::peripheral_acquire`]/[`Ctx::peripheral_enable`] with
    /// [`PeripheralKind::Backlight`].
    pub fn set_backlight(&mut self, on: bool) {
        self.kernel.platform.display.set_backlight(on);
    }

    /// Dedicates `reserve` to funding a peripheral (label-checked: the
    /// actor must hold observe on the reserve). The Cinder precondition
    /// for [`Ctx::peripheral_enable`].
    pub fn peripheral_acquire(
        &mut self,
        kind: PeripheralKind,
        reserve: ReserveId,
    ) -> Result<(), KernelError> {
        let actor = self.actor();
        self.kernel.peripheral_acquire_as(&actor, kind, reserve)
    }

    /// The control check shared by enable/disable/set_drive: a peripheral
    /// is controlled through its acquired reserve, so the caller needs the
    /// §3.5 reserve-*use* rights (observe and modify) on that reserve's
    /// label — otherwise any thread could kill another's fix or re-rate a
    /// drain it has no rights to.
    fn check_peripheral_control(
        &self,
        kind: PeripheralKind,
        op: &'static str,
    ) -> Result<(), KernelError> {
        let Some(reserve) = self.kernel.peripheral_reserve(kind) else {
            return Ok(()); // nothing acquired: nothing to protect
        };
        let Some(r) = self.kernel.graph.reserve(reserve) else {
            return Ok(());
        };
        let actor = &self.state().actor;
        if !actor.is_kernel() && !actor.label().can_use(actor.privs(), r.label()) {
            return Err(KernelError::Denied { op });
        }
        Ok(())
    }

    /// Lights the peripheral: its acquired reserve must fund at least one
    /// quantum of draw, and from here on the kernel drains the draw from
    /// that reserve every flow tick — an empty reserve forces the
    /// peripheral back down. Requires modify on the acquired reserve.
    pub fn peripheral_enable(&mut self, kind: PeripheralKind) -> Result<(), KernelError> {
        self.check_peripheral_control(kind, "peripheral_enable")?;
        self.kernel.peripheral_enable(kind)
    }

    /// Powers the peripheral down (idempotent); residual energy stays in
    /// the acquired reserve. Requires modify on the acquired reserve.
    pub fn peripheral_disable(&mut self, kind: PeripheralKind) -> Result<(), KernelError> {
        self.check_peripheral_control(kind, "peripheral_disable")?;
        self.kernel.peripheral_disable(kind);
        Ok(())
    }

    /// Whether the peripheral is currently lit — a program sleeping
    /// through a GPS fix checks this on wake to learn whether the kernel
    /// forced its receiver down mid-fix.
    pub fn peripheral_enabled(&self, kind: PeripheralKind) -> bool {
        self.kernel.peripheral_enabled(kind)
    }

    /// Sets the peripheral's drive level (ppm of full draw): dim the
    /// backlight or drop the GPS to a low-power tracking mode, re-rating
    /// the drain tap and the metered draw together. Requires modify on
    /// the acquired reserve.
    pub fn peripheral_set_drive(
        &mut self,
        kind: PeripheralKind,
        ppm: u64,
    ) -> Result<(), KernelError> {
        self.check_peripheral_control(kind, "peripheral_set_drive")?;
        self.kernel.peripheral_set_drive(kind, ppm)
    }

    /// The peripheral's current draw while lit (full power × drive).
    pub fn peripheral_drain_power(&self, kind: PeripheralKind) -> Power {
        self.kernel.peripheral_drain_power(kind)
    }

    /// Reads the battery percentage through the ARM9 (0–100).
    pub fn battery_percent(&mut self) -> u8 {
        let remaining = self
            .kernel
            .graph
            .reserve(self.kernel.graph.battery())
            .map(|r| r.balance())
            .unwrap_or(Energy::ZERO);
        match self.kernel.arm9.request(
            self.kernel.now,
            Arm9Request::BatteryLevel { remaining },
            &mut self.kernel.rng,
        ) {
            Ok(Arm9Response::BatteryLevel(pct)) => pct,
            _ => 0,
        }
    }

    /// Downloads `bytes` over the laptop NIC (§6.2's platform), charging
    /// the active reserve. Fails with the graph's `InsufficientResources`
    /// if the reserve cannot cover it — the stall of Fig 10.
    pub fn download(&mut self, bytes: u64) -> Result<DownloadGrant, KernelError> {
        let nic = self.kernel.config.laptop.ok_or(KernelError::NoLaptopNic)?;
        let cost = nic.download_energy(bytes);
        let reserve = self.active_reserve();
        let actor = self.actor();
        self.kernel.graph.consume(&actor, reserve, cost)?;
        self.kernel.meter.add_energy(cost);
        Ok(DownloadGrant {
            duration: nic.download_duration(bytes),
            energy: cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::FnProgram;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn kernel_no_decay() -> Kernel {
        Kernel::new(KernelConfig {
            graph: GraphConfig {
                decay: None,
                ..GraphConfig::default()
            },
            ..KernelConfig::default()
        })
    }

    fn funded_reserve(k: &mut Kernel, name: &str, joules: i64) -> ReserveId {
        let battery = k.battery();
        let r = k
            .graph_mut()
            .create_reserve(&Actor::kernel(), name, Label::default_label())
            .unwrap();
        k.graph_mut()
            .transfer(&Actor::kernel(), battery, r, Energy::from_joules(joules))
            .unwrap();
        r
    }

    /// A program that spins forever.
    fn spinner() -> Box<dyn Program> {
        Box::new(FnProgram(|_ctx: &mut Ctx<'_>| {
            Step::compute(SimDuration::from_secs(1))
        }))
    }

    #[test]
    fn spinner_consumes_cpu_power() {
        let mut k = kernel_no_decay();
        let r = funded_reserve(&mut k, "r", 100);
        let t = k.spawn_unprivileged("spin", spinner(), r);
        k.run_until(SimTime::from_secs(10));
        // 137 mW for 10 s = 1.37 J charged.
        let consumed = k.thread_consumed(t);
        assert_eq!(consumed, Energy::from_millijoules(1_370));
        let est = k.thread_power_estimate(t).as_milliwatts_f64();
        assert!((est - 137.0).abs() < 3.0, "estimate {est}");
        assert!(k.graph().totals().conserved());
    }

    #[test]
    fn meter_sees_idle_plus_cpu() {
        let mut k = kernel_no_decay();
        let r = funded_reserve(&mut k, "r", 100);
        k.spawn_unprivileged("spin", spinner(), r);
        k.run_until(SimTime::from_secs(10));
        // 699 idle + 137 busy = 836 mW for 10 s = 8.36 J.
        assert_eq!(k.meter().total_energy(), Energy::from_millijoules(8_360));
    }

    #[test]
    fn idle_kernel_draws_baseline() {
        let mut k = kernel_no_decay();
        k.run_until(SimTime::from_secs(5));
        assert_eq!(k.meter().total_energy(), Energy::from_millijoules(3_495));
    }

    #[test]
    fn starved_thread_cannot_run() {
        let mut k = kernel_no_decay();
        let r = k
            .graph_mut()
            .create_reserve(&Actor::kernel(), "empty", Label::default_label())
            .unwrap();
        let t = k.spawn_unprivileged("starved", spinner(), r);
        k.run_until(SimTime::from_secs(5));
        assert_eq!(k.thread_consumed(t), Energy::ZERO);
        // CPU idled: baseline energy only.
        assert_eq!(k.meter().total_energy(), Energy::from_millijoules(3_495));
    }

    #[test]
    fn tap_throttles_thread_to_duty_cycle() {
        let mut k = kernel_no_decay();
        let r = k
            .graph_mut()
            .create_reserve(&Actor::kernel(), "half", Label::default_label())
            .unwrap();
        let battery = k.battery();
        k.graph_mut()
            .create_tap(
                &Actor::kernel(),
                "68.5mW",
                battery,
                r,
                RateSpec::constant(Power::from_microwatts(68_500)),
                Label::default_label(),
            )
            .unwrap();
        let t = k.spawn_unprivileged("spin", spinner(), r);
        k.run_until(SimTime::from_secs(30));
        // ~50% duty at 137 mW ⇒ ~68.5 mW effective.
        let est = k.thread_power_estimate(t).as_milliwatts_f64();
        assert!((est - 68.5).abs() < 7.0, "estimate {est}");
    }

    #[test]
    fn sleeping_thread_wakes_on_time() {
        let mut k = kernel_no_decay();
        let r = funded_reserve(&mut k, "r", 10);
        let mut slept = false;
        let t = k.spawn_unprivileged(
            "sleeper",
            Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
                if !slept {
                    slept = true;
                    Step::SleepUntil(ctx.now() + SimDuration::from_secs(5))
                } else {
                    Step::Exit
                }
            })),
            r,
        );
        k.run_until(SimTime::from_secs(4));
        assert!(!k.thread_exited(t));
        k.run_until(SimTime::from_secs(6));
        assert!(k.thread_exited(t));
    }

    #[test]
    fn exited_threads_stop_consuming() {
        let mut k = kernel_no_decay();
        let r = funded_reserve(&mut k, "r", 10);
        let mut steps = 0;
        let t = k.spawn_unprivileged(
            "brief",
            Box::new(FnProgram(move |_ctx: &mut Ctx<'_>| {
                steps += 1;
                if steps == 1 {
                    Step::compute(SimDuration::from_millis(100))
                } else {
                    Step::Exit
                }
            })),
            r,
        );
        k.run_until(SimTime::from_secs(2));
        let after_exit = k.thread_consumed(t);
        k.run_until(SimTime::from_secs(4));
        assert_eq!(k.thread_consumed(t), after_exit);
        assert!(k.thread_exited(t));
    }

    #[test]
    fn fork_child_with_subdivided_reserve() {
        // The Fig 9 shape: a parent subdivides its power to a child.
        let mut k = kernel_no_decay();
        let parent_r = funded_reserve(&mut k, "parent", 100);
        let mut forked = false;
        let parent = k.spawn_unprivileged(
            "parent",
            Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
                if !forked {
                    forked = true;
                    let child_r = ctx
                        .create_reserve("child-r", Label::default_label())
                        .unwrap();
                    ctx.transfer(ctx.active_reserve(), child_r, Energy::from_joules(50))
                        .unwrap();
                    ctx.spawn(
                        "child",
                        Box::new(FnProgram(|_: &mut Ctx<'_>| {
                            Step::compute(SimDuration::from_secs(1))
                        })),
                        child_r,
                    );
                }
                Step::compute(SimDuration::from_secs(1))
            })),
            parent_r,
        );
        k.run_until(SimTime::from_secs(10));
        // Both spin; each gets ~50% of the CPU.
        let p = k.thread_power_estimate(parent).as_milliwatts_f64();
        assert!((p - 68.5).abs() < 8.0, "parent estimate {p}");
        assert!(k.graph().totals().conserved());
    }

    #[test]
    fn gate_call_bills_the_caller() {
        let mut k = kernel_no_decay();
        let caller_r = funded_reserve(&mut k, "caller-r", 100);
        let daemon_r = funded_reserve(&mut k, "daemon-r", 100);
        let root = k.root_container();
        let gate = k
            .create_gate(
                root,
                "netd-gate",
                Label::default_label(),
                SimDuration::from_millis(500),
            )
            .unwrap();
        let mut called = false;
        let caller = k.spawn_unprivileged(
            "caller",
            Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
                if !called {
                    called = true;
                    ctx.gate_call(gate).unwrap();
                    Step::Yield
                } else {
                    Step::Exit
                }
            })),
            caller_r,
        );
        k.run_until(SimTime::from_secs(2));
        // 500 ms of gate work at 137 mW ≈ 68.5 mJ billed to the caller…
        let caller_consumed = k.thread_consumed(caller).as_microjoules();
        assert!(
            (60_000..80_000).contains(&caller_consumed),
            "caller consumed {caller_consumed}"
        );
        // …and none of it to the daemon's reserve.
        assert_eq!(
            k.graph().reserve(daemon_r).unwrap().stats().consumed,
            Energy::ZERO
        );
    }

    #[test]
    fn msg_ipc_bills_the_daemon_misattribution() {
        // §7.1: message-passing IPC misattributes work to the daemon.
        let mut k = kernel_no_decay();
        let caller_r = funded_reserve(&mut k, "caller-r", 100);
        let daemon_r = funded_reserve(&mut k, "daemon-r", 100);
        let daemon = k.spawn_unprivileged(
            "daemon",
            Box::new(FnProgram(move |ctx: &mut Ctx<'_>| match ctx.msg_take() {
                Some(work) => Step::compute(work),
                None => Step::Block,
            })),
            daemon_r,
        );
        let mut sent = false;
        k.spawn_unprivileged(
            "client",
            Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
                if !sent {
                    sent = true;
                    ctx.msg_send(daemon, SimDuration::from_millis(500)).unwrap();
                }
                Step::Exit
            })),
            caller_r,
        );
        k.run_until(SimTime::from_secs(2));
        let daemon_consumed = k.graph().reserve(daemon_r).unwrap().stats().consumed;
        let caller_consumed = k.graph().reserve(caller_r).unwrap().stats().consumed;
        // The daemon paid for the client's work; the client paid (at most)
        // its single dispatch quantum.
        assert!(daemon_consumed.as_microjoules() >= 60_000);
        assert!(caller_consumed.as_microjoules() <= 2_000);
    }

    #[test]
    fn container_gc_revokes_taps() {
        // §5.2: per-page taps die with their container.
        let mut k = kernel_no_decay();
        let root = k.root_container();
        let page = k
            .create_container(root, "page", Label::default_label())
            .unwrap();
        let (_, plugin_r) = k
            .create_reserve_in(page, "plugin-r", Label::default_label())
            .unwrap();
        let battery = k.battery();
        let (_, _tap) = k
            .create_tap_in(
                page,
                "page-tap",
                battery,
                plugin_r,
                RateSpec::constant(Power::from_milliwatts(70)),
                Label::default_label(),
            )
            .unwrap();
        assert_eq!(k.graph().tap_count(), 1);
        assert_eq!(k.graph().reserve_count(), 2);
        k.unlink(page).unwrap();
        assert_eq!(k.graph().tap_count(), 0);
        assert_eq!(k.graph().reserve_count(), 1); // battery only
        assert!(k.object(page).is_none());
        assert!(k.graph().totals().conserved());
    }

    #[test]
    fn unlink_root_is_refused() {
        let mut k = kernel_no_decay();
        let root = k.root_container();
        assert!(matches!(k.unlink(root), Err(KernelError::Denied { .. })));
    }

    #[test]
    fn laptop_download_charges_reserve() {
        let mut k = Kernel::new(KernelConfig {
            graph: GraphConfig {
                decay: None,
                ..GraphConfig::default()
            },
            laptop: Some(LaptopNet::t60p()),
            ..KernelConfig::default()
        });
        let r = funded_reserve(&mut k, "dl", 1);
        let mut downloaded = None;
        let t = k.spawn_unprivileged(
            "viewer",
            Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
                if downloaded.is_none() {
                    downloaded = Some(ctx.download(1_048_576).unwrap());
                }
                Step::Exit
            })),
            r,
        );
        k.run_until(SimTime::from_secs(1));
        assert!(k.thread_exited(t));
        // 1 MiB at 76 µJ/KiB = 77.8 mJ (plus the scheduling quantum).
        let consumed = k.graph().reserve(r).unwrap().stats().consumed;
        assert!(
            (77_000..81_000).contains(&consumed.as_microjoules()),
            "consumed {consumed}"
        );
    }

    #[test]
    fn download_without_nic_fails() {
        let mut k = kernel_no_decay();
        let r = funded_reserve(&mut k, "r", 1);
        k.spawn_unprivileged(
            "viewer",
            Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
                assert!(matches!(ctx.download(100), Err(KernelError::NoLaptopNic)));
                Step::Exit
            })),
            r,
        );
        k.run_until(SimTime::from_secs(1));
    }

    #[test]
    fn labels_enforced_through_ctx() {
        let mut k = kernel_no_decay();
        let cat = k.alloc_category();
        let secret = Label::with(&[(cat, cinder_label::Level::L3)]);
        let protected = k
            .graph_mut()
            .create_reserve(&Actor::kernel(), "protected", secret)
            .unwrap();
        let battery = k.battery();
        k.graph_mut()
            .transfer(&Actor::kernel(), battery, protected, Energy::from_joules(5))
            .unwrap();
        let r = funded_reserve(&mut k, "mine", 1);
        let battery = k.battery();
        k.spawn_unprivileged(
            "snoop",
            Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
                // Cannot observe the protected reserve…
                assert!(matches!(
                    ctx.level(protected),
                    Err(KernelError::Graph(
                        cinder_core::GraphError::PermissionDenied { .. }
                    ))
                ));
                // …nor steal from it…
                assert!(ctx
                    .transfer(protected, ctx.active_reserve(), Energy::from_joules(1))
                    .is_err());
                // …nor tap it.
                assert!(ctx
                    .create_tap(
                        "steal",
                        protected,
                        ctx.active_reserve(),
                        RateSpec::constant(Power::from_watts(1)),
                        Label::default_label(),
                    )
                    .is_err());
                // But its own reserve works fine.
                assert!(ctx.level(ctx.active_reserve()).is_ok());
                let _ = battery;
                Step::Exit
            })),
            r,
        );
        k.run_until(SimTime::from_secs(1));
    }

    #[test]
    fn out_of_range_proportional_rate_is_refused_through_ctx() {
        let mut k = kernel_no_decay();
        let app = funded_reserve(&mut k, "app", 10);
        let sink = funded_reserve(&mut k, "sink", 0);
        let outcomes = Rc::new(RefCell::new(Vec::new()));
        let seen = Rc::clone(&outcomes);
        let hog = RateSpec::Proportional {
            ppm_per_s: u64::MAX,
        };
        k.spawn_unprivileged(
            "hoarder",
            Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
                let created = ctx.create_tap("hog", app, sink, hog, Label::default_label());
                let tenth = ctx
                    .create_tap(
                        "tenth",
                        app,
                        sink,
                        RateSpec::proportional(0.1),
                        Label::default_label(),
                    )
                    .expect("0.1× is a legal rate");
                let rerated = ctx.set_tap_rate(tenth, hog);
                seen.borrow_mut().push((created.err(), rerated.err()));
                Step::Exit
            })),
            app,
        );
        k.run_until(SimTime::from_secs(1));
        let refused = Some(KernelError::Graph(cinder_core::GraphError::InvalidAmount));
        assert_eq!(*outcomes.borrow(), [(refused.clone(), refused)]);
        let rates: Vec<_> = k.graph().taps().map(|(_, t)| t.rate()).collect();
        assert_eq!(rates, [RateSpec::proportional(0.1)]);
        assert!(!k.graph().reserve(sink).unwrap().balance().is_negative());
        assert!(k.graph().totals().conserved());
    }

    #[test]
    fn battery_percent_via_arm9() {
        let mut k = kernel_no_decay();
        let r = funded_reserve(&mut k, "r", 1);
        k.spawn_unprivileged(
            "reader",
            Box::new(FnProgram(move |ctx: &mut Ctx<'_>| {
                let pct = ctx.battery_percent();
                assert!(pct >= 99, "battery {pct}%");
                Step::Exit
            })),
            r,
        );
        k.run_until(SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "quantum must be positive")]
    fn zero_quantum_is_refused() {
        let mut config = KernelConfig::default();
        config.sched.quantum = SimDuration::ZERO;
        let _ = Kernel::new(config);
    }

    #[test]
    fn run_until_is_deterministic() {
        let run = |seed| {
            let mut k = Kernel::new(KernelConfig {
                seed,
                graph: GraphConfig {
                    decay: None,
                    ..GraphConfig::default()
                },
                ..KernelConfig::default()
            });
            let r = funded_reserve(&mut k, "r", 10);
            k.spawn_unprivileged("spin", spinner(), r);
            k.run_until(SimTime::from_secs(20));
            k.meter().total_energy().as_microjoules()
        };
        assert_eq!(run(7), run(7));
    }
}
