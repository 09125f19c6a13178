//! The resource-aware CPU scheduler.
//!
//! Paper §3.2: "Cinder's CPU scheduler is energy-aware and allows a thread
//! to run only when at least one of its energy reserves is not empty.
//! Threads that have depleted their energy reserves cannot run. Tying energy
//! reserves to the scheduler prevents new spending, which is sufficient to
//! throttle energy consumption."
//!
//! The scheduler is round-robin over *ready* tasks whose **active reserve**
//! is non-empty (the single-active-reserve model of the paper's own API,
//! `self_set_active_reserve`, Fig 5). Each scheduled quantum charges
//! `cpu_power × quantum` to the task's active reserve; because charging
//! happens at quantum granularity a task can overdraw by at most one
//! quantum, which the paper's own batch accounting also permits.
//!
//! # Per-kind reserve sets
//!
//! Each task carries one active reserve *per* [`ResourceKind`] (§9): the
//! Energy slot is mandatory and gates the CPU — a quantum of compute
//! consumes energy, so [`ResourceScheduler::pick_next`] refuses tasks whose
//! energy reserve is empty. Quota kinds gate at the syscall whose next step
//! consumes them: the kernel blocks a send when the thread's
//! `NetworkBytes` reserve cannot cover it, leaving the thread runnable for
//! compute but blocked-on-bytes at the send — observably distinct (a
//! `Blocked` state plus byte-block telemetry) from the empty-energy
//! throttling counted in [`ResourceScheduler::throttled_quanta`].
//!
//! This type is deliberately kernel-agnostic: the simulated kernel drives it
//! (pick → run the thread's program → charge), and the figure experiments
//! read the per-task [`PowerEstimator`]s to draw their stacked plots.

use cinder_sim::{Energy, Power, SimDuration, SimTime};

use crate::accounting::PowerEstimator;
use crate::arena::{Arena, RawId};
use crate::errors::GraphError;
use crate::flow::Duty;
#[cfg(test)]
use crate::graph::Actor;
use crate::graph::{ReserveId, ResourceGraph};
use crate::kind::ResourceKind;

/// Identifies a task known to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(RawId);

impl TaskId {
    /// The task's dense slot index, stable for its lifetime (slots may be
    /// reused after [`ResourceScheduler::remove_task`]). The kernel keys
    /// its slab-indexed task→thread table on this instead of hashing ids
    /// in the run loop.
    pub fn index(self) -> usize {
        self.0.index() as usize
    }
}

/// Scheduler-visible task state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Wants the CPU.
    Ready,
    /// Waiting on a sleep, I/O, or netd block; not schedulable.
    Blocked,
    /// Finished; never schedulable again.
    Exited,
}

#[derive(Debug)]
struct Task {
    name: String,
    /// One active reserve per resource kind; the Energy slot is always
    /// populated (compute is gated on it), quota slots are optional.
    reserves: [Option<ReserveId>; ResourceKind::COUNT],
    state: TaskState,
    consumed: Energy,
    estimator: PowerEstimator,
    /// Quanta during which this task was denied the CPU *solely* because its
    /// reserve was empty — the throttling the paper's isolation experiments
    /// rely on.
    throttled_quanta: u64,
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Scheduling quantum (default 10 ms).
    pub quantum: SimDuration,
    /// Trailing window for per-task power estimates (the figures use 1 s).
    pub estimate_window: SimDuration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            quantum: SimDuration::from_millis(10),
            estimate_window: SimDuration::from_secs(1),
        }
    }
}

/// Round-robin, reserve-gated scheduler over typed per-kind reserve sets.
#[derive(Debug)]
pub struct ResourceScheduler {
    tasks: Arena<Task>,
    queue: Vec<TaskId>,
    config: SchedulerConfig,
    /// Tasks currently in [`TaskState::Ready`], maintained on every state
    /// transition so [`ResourceScheduler::has_ready`] — the kernel's
    /// idle-jump guard — and the all-idle [`ResourceScheduler::pick_next`]
    /// are O(1) instead of scans.
    ready_count: usize,
    /// When exactly one task is Ready *and* it is known which, that task —
    /// the steady state of a device running one busy thread, where
    /// [`ResourceScheduler::pick_next`] can skip the queue rotation
    /// entirely. `None` means unknown (the next full scan re-learns it);
    /// re-derived on every transition that invalidates it.
    sole_ready: Option<TaskId>,
    /// Memoised `power × quantum` for [`ResourceScheduler::charge`].
    quantum_cost: Option<(Power, Energy)>,
}

impl ResourceScheduler {
    /// Creates an empty scheduler.
    pub fn new(config: SchedulerConfig) -> Self {
        ResourceScheduler {
            tasks: Arena::new(),
            queue: Vec::new(),
            config,
            ready_count: 0,
            sole_ready: None,
            quantum_cost: None,
        }
    }

    /// The configured quantum.
    pub fn quantum(&self) -> SimDuration {
        self.config.quantum
    }

    /// Registers a task drawing energy from `reserve`, initially
    /// [`TaskState::Ready`]. Quota-kind reserves attach afterwards via
    /// [`ResourceScheduler::set_reserve_for`].
    pub fn add_task(&mut self, name: &str, reserve: ReserveId) -> TaskId {
        let mut reserves = [None; ResourceKind::COUNT];
        reserves[ResourceKind::Energy.index()] = Some(reserve);
        let id = TaskId(self.tasks.insert(Task {
            name: name.to_string(),
            reserves,
            state: TaskState::Ready,
            consumed: Energy::ZERO,
            estimator: PowerEstimator::new(self.config.estimate_window),
            throttled_quanta: 0,
        }));
        self.queue.push(id);
        self.ready_count += 1;
        self.sole_ready = if self.ready_count == 1 {
            Some(id)
        } else {
            None
        };
        id
    }

    /// Removes a task entirely.
    pub fn remove_task(&mut self, id: TaskId) {
        if let Some(task) = self.tasks.remove(id.0) {
            if task.state == TaskState::Ready {
                self.ready_count -= 1;
            }
        }
        self.sole_ready = None;
        self.queue.retain(|&t| t != id);
    }

    /// The task's display name.
    pub fn name(&self, id: TaskId) -> Option<&str> {
        self.tasks.get(id.0).map(|t| t.name.as_str())
    }

    /// The task's current state.
    pub fn state(&self, id: TaskId) -> Option<TaskState> {
        self.tasks.get(id.0).map(|t| t.state)
    }

    /// Changes a task's state (kernel: block on sleep/IO, wake, exit).
    pub fn set_state(&mut self, id: TaskId, state: TaskState) {
        if let Some(t) = self.tasks.get_mut(id.0) {
            if t.state == TaskState::Ready && state != TaskState::Ready {
                self.ready_count -= 1;
                // One task may remain Ready, but which one is unknown
                // here; the next full pick re-learns it.
                self.sole_ready = None;
            } else if t.state != TaskState::Ready && state == TaskState::Ready {
                self.ready_count += 1;
                self.sole_ready = if self.ready_count == 1 {
                    Some(id)
                } else {
                    None
                };
            }
            t.state = state;
        }
    }

    /// The task's active energy reserve (the kind the CPU gate checks).
    pub fn active_reserve(&self, id: TaskId) -> Option<ReserveId> {
        self.reserve_for(id, ResourceKind::Energy)
    }

    /// Switches the task's active energy reserve — the
    /// `self_set_active_reserve` system call of Fig 5.
    pub fn set_active_reserve(&mut self, id: TaskId, reserve: ReserveId) {
        self.set_reserve_for(id, ResourceKind::Energy, reserve);
    }

    /// The task's active reserve for a kind, if one is attached.
    pub fn reserve_for(&self, id: TaskId, kind: ResourceKind) -> Option<ReserveId> {
        self.tasks.get(id.0).and_then(|t| t.reserves[kind.index()])
    }

    /// Attaches (or switches) the task's active reserve for a kind — the
    /// typed generalisation of `self_set_active_reserve`. A task with a
    /// `NetworkBytes` reserve is byte-gated at its sends; one without is
    /// quota-unrestricted.
    pub fn set_reserve_for(&mut self, id: TaskId, kind: ResourceKind, reserve: ReserveId) {
        if let Some(t) = self.tasks.get_mut(id.0) {
            t.reserves[kind.index()] = Some(reserve);
        }
    }

    /// Picks the next runnable task: round-robin over ready tasks whose
    /// active **energy** reserve is non-empty — the kind a quantum of
    /// compute consumes. (Quota kinds gate at the consuming syscall: a
    /// byte-blocked sender is `Blocked`, not merely skipped.) Returns
    /// `None` when the CPU should idle this quantum.
    pub fn pick_next(&mut self, graph: &ResourceGraph) -> Option<TaskId> {
        if self.ready_count == 0 {
            // Nobody wants the CPU: skip the queue rotation entirely. No
            // throttled quantum can accrue (only Ready tasks are counted),
            // so this is observably identical to the scan.
            return None;
        }
        if let Some(id) = self.sole_ready {
            // Exactly one Ready task and it is known: the rotation would
            // rediscover it (or throttle it) — do that directly. The
            // no-pick outcome leaves the queue bit-identically unchanged;
            // the picked outcome only differs in internal queue order,
            // which round-robin leaves unspecified.
            let runnable = self
                .tasks
                .get(id.0)
                .and_then(|t| t.reserves[ResourceKind::Energy.index()])
                .and_then(|r| graph.reserve(r))
                .is_some_and(|r| r.is_nonempty());
            if runnable {
                return Some(id);
            }
            if let Some(t) = self.tasks.get_mut(id.0) {
                t.throttled_quanta += 1;
            }
            return None;
        }
        // One pass in queue order. Everyone examined and skipped keeps
        // their position; the chosen task goes to the back.
        let mut picked = None;
        let (mut throttled, mut last_throttled) = (0, None);
        let mut i = 0;
        while let Some(&id) = self.queue.get(i) {
            let live = self.tasks.get_mut(id.0);
            // Removed and exited tasks drop from the queue for good.
            let Some(task) = live.filter(|t| t.state != TaskState::Exited) else {
                self.queue.remove(i);
                continue;
            };
            if task.state == TaskState::Ready {
                let runnable = task.reserves[ResourceKind::Energy.index()]
                    .and_then(|r| graph.reserve(r))
                    .is_some_and(|r| r.is_nonempty());
                if runnable {
                    picked = Some(id);
                    self.queue[i..].rotate_left(1);
                    break;
                }
                // Tasks that wanted to run but were reserve-gated count a
                // throttled quantum — the paper's isolation experiments
                // hinge on this.
                task.throttled_quanta += 1;
                throttled += 1;
                last_throttled = Some(id);
            }
            i += 1;
        }
        // Re-learn the sole Ready task for the fast path above: either the
        // one we picked, or the single one the scan throttled.
        if self.ready_count == 1 {
            self.sole_ready = picked.or(last_throttled.filter(|_| throttled == 1));
        }
        picked
    }

    /// The only Ready task, when exactly one is and it is known.
    pub fn sole_ready(&self) -> Option<TaskId> {
        self.sole_ready
    }

    /// The run queue, front first: the order in which the next full
    /// [`ResourceScheduler::pick_next`] scan examines tasks. A task that
    /// exited stays queued until a scan drops it.
    pub fn run_queue(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.queue.iter().copied()
    }

    /// The active energy reserve of every Ready task — the reserves
    /// [`ResourceScheduler::pick_next`] gates on. O(1) for a known sole
    /// Ready task, otherwise one pass over the queue.
    pub fn ready_reserves(&self) -> impl Iterator<Item = ReserveId> + '_ {
        let scan = self
            .sole_ready
            .is_none()
            .then(|| self.queue.iter().copied());
        self.sole_ready
            .into_iter()
            .chain(scan.into_iter().flatten())
            .filter_map(|id| self.tasks.get(id.0))
            .filter(|t| t.state == TaskState::Ready)
            .filter_map(|t| t.reserves[ResourceKind::Energy.index()])
    }

    /// Replays `quanta` consecutive [`ResourceScheduler::pick_next`] calls
    /// in bulk for a span in which no pick can succeed: every Ready task's
    /// reserve stays at or below zero at every crossed boundary (it may
    /// fill or be swept in between) and no state transition occurs. Each
    /// such call adds one throttled quantum to every Ready task and
    /// returns the queue to its entry order, so the whole span collapses
    /// to a counter add per Ready task.
    ///
    /// Caller-checked precondition: the immediately preceding `pick_next`
    /// returned `None`, so the queue holds no stale (removed or exited)
    /// entries, `sole_ready` is at its scan fixed point, and every Ready
    /// task is unfundable at every crossed boundary — the kernel's jumps
    /// establish this by construction and call this against the graph as
    /// the last crossed boundary sees it (debug-asserted here).
    pub fn bulk_throttle(&mut self, graph: &ResourceGraph, quanta: u64) {
        if quanta == 0 || self.ready_count == 0 {
            return;
        }
        if let Some(id) = self.sole_ready {
            debug_assert!(
                !self
                    .tasks
                    .get(id.0)
                    .and_then(|t| t.reserves[ResourceKind::Energy.index()])
                    .and_then(|r| graph.reserve(r))
                    .is_some_and(|r| r.is_nonempty()),
                "bulk_throttle on a fundable sole-ready task"
            );
            if let Some(t) = self.tasks.get_mut(id.0) {
                t.throttled_quanta += quanta;
            }
            return;
        }
        for i in 0..self.queue.len() {
            let id = self.queue[i];
            let Some(task) = self.tasks.get_mut(id.0) else {
                debug_assert!(false, "bulk_throttle saw a stale queue entry");
                continue;
            };
            if task.state != TaskState::Ready {
                continue;
            }
            task.throttled_quanta += quanta;
            debug_assert!(
                !task.reserves[ResourceKind::Energy.index()]
                    .and_then(|r| graph.reserve(r))
                    .is_some_and(|r| r.is_nonempty()),
                "bulk_throttle on a fundable ready task"
            );
        }
    }

    /// The run history a duty run's landing reads: quantum `last − k` is
    /// within the estimator's window of quantum `last` iff `k·quantum <
    /// window`, so only the ⌈window / quantum⌉ youngest quanta.
    pub fn duty_window(&self) -> u64 {
        let (quantum, window) = (self.config.quantum, self.config.estimate_window);
        window.as_micros().div_ceil(quantum.as_micros().max(1))
    }

    /// Replays the picks and charges of a duty run that
    /// [`crate::ResourceGraph::settle_duty`] settled from `start` on, for
    /// `id`, the sole Ready task. The estimator records, oldest first, only
    /// the runs within a window of the last one; each earlier run would
    /// have expired by then, so only its lifetime total counts it.
    pub fn settle_duty(&mut self, id: TaskId, start: SimTime, duty: &Duty) {
        let (quantum, within) = (self.config.quantum, self.duty_window());
        let Some(task) = self.tasks.get_mut(id.0) else {
            return;
        };
        task.consumed += duty.charged();
        task.throttled_quanta += duty.throttles;
        let mut kept = 0;
        if let Some((last, ran)) = duty.last_run() {
            for k in (0..within.min(Duty::HISTORY)).rev() {
                if ran >> k & 1 == 1 {
                    task.estimator
                        .record(start + quantum * (last - k), duty.cost);
                    kept += 1;
                }
            }
        }
        task.estimator
            .record_expired(duty.cost * (duty.runs - kept) as i64);
    }

    /// Charges `power × quantum` to the task's active reserve and records it
    /// in the task's accounting.
    ///
    /// The charge may overdraw the reserve by up to one quantum (the task
    /// was runnable when picked); the resulting debt gates future runs.
    /// The cost is memoised per power level: the kernel charges the same
    /// accounting power every run quantum, and the µJ conversion is hot.
    pub fn charge(
        &mut self,
        graph: &mut ResourceGraph,
        id: TaskId,
        now: SimTime,
        power: Power,
    ) -> Result<Energy, GraphError> {
        let cost = match self.quantum_cost {
            Some((p, cost)) if p == power => cost,
            _ => {
                let cost = power.energy_over(self.config.quantum);
                self.quantum_cost = Some((power, cost));
                cost
            }
        };
        self.charge_cost(graph, id, now, cost)
    }

    /// Charges `power × duration` — for partial-quantum costs such as the
    /// dispatch of a program step that immediately blocks.
    pub fn charge_duration(
        &mut self,
        graph: &mut ResourceGraph,
        id: TaskId,
        now: SimTime,
        power: Power,
        duration: SimDuration,
    ) -> Result<Energy, GraphError> {
        self.charge_cost(graph, id, now, power.energy_over(duration))
    }

    fn charge_cost(
        &mut self,
        graph: &mut ResourceGraph,
        id: TaskId,
        now: SimTime,
        cost: Energy,
    ) -> Result<Energy, GraphError> {
        let task = self
            .tasks
            .get_mut(id.0)
            .ok_or(GraphError::ReserveNotFound)?;
        let reserve =
            task.reserves[ResourceKind::Energy.index()].ok_or(GraphError::ReserveNotFound)?;
        // The scheduler is kernel machinery: charge through the single-probe
        // kernel path rather than the label-checked syscall surface.
        graph.consume_with_debt_kernel(reserve, cost)?;
        task.consumed += cost;
        task.estimator.record(now, cost);
        Ok(cost)
    }

    /// The task's windowed power estimate at `now` (the figures' y-axis).
    pub fn estimate(&mut self, id: TaskId, now: SimTime) -> Power {
        self.tasks
            .get_mut(id.0)
            .map(|t| t.estimator.estimate(now))
            .unwrap_or(Power::ZERO)
    }

    /// Total energy ever charged to the task.
    pub fn consumed(&self, id: TaskId) -> Energy {
        self.tasks
            .get(id.0)
            .map(|t| t.consumed)
            .unwrap_or(Energy::ZERO)
    }

    /// Quanta the task was denied because its reserve was empty.
    pub fn throttled_quanta(&self, id: TaskId) -> u64 {
        self.tasks
            .get(id.0)
            .map(|t| t.throttled_quanta)
            .unwrap_or(0)
    }

    /// Whether any task is in [`TaskState::Ready`], runnable or not — O(1)
    /// off the maintained ready counter.
    ///
    /// The kernel's idle fast-forward keys off this: a Ready task whose
    /// reserve is empty may become runnable the moment a tap refills it, so
    /// quanta cannot be skipped while one exists, whereas Blocked tasks can
    /// only be revived by a queued wake event.
    pub fn has_ready(&self) -> bool {
        self.ready_count > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphConfig;
    use crate::tap::RateSpec;
    use cinder_label::Label;
    use cinder_sim::Energy;

    const CPU: Power = Power::from_milliwatts(137);

    fn setup() -> (ResourceGraph, ResourceScheduler) {
        let g = ResourceGraph::with_config(
            Energy::from_joules(15_000),
            GraphConfig {
                decay: None,
                ..GraphConfig::default()
            },
        );
        let s = ResourceScheduler::new(SchedulerConfig::default());
        (g, s)
    }

    /// Runs the classic kernel loop shape for `secs` seconds, returning the
    /// fraction of quanta each task ran.
    fn run(
        g: &mut ResourceGraph,
        s: &mut ResourceScheduler,
        tasks: &[TaskId],
        secs: u64,
    ) -> Vec<f64> {
        let quantum = s.quantum();
        let total = SimDuration::from_secs(secs).div_duration(quantum);
        let mut counts = vec![0u64; tasks.len()];
        let mut now = SimTime::ZERO;
        for _ in 0..total {
            g.flow_until(now);
            if let Some(picked) = s.pick_next(g) {
                s.charge(g, picked, now, CPU).unwrap();
                if let Some(i) = tasks.iter().position(|&t| t == picked) {
                    counts[i] += 1;
                }
            }
            now += quantum;
        }
        counts.iter().map(|&c| c as f64 / total as f64).collect()
    }

    #[test]
    fn empty_reserve_blocks_running() {
        let (mut g, mut s) = setup();
        let k = Actor::kernel();
        let r = g.create_reserve(&k, "r", Label::default_label()).unwrap();
        let t = s.add_task("starved", r);
        assert_eq!(s.pick_next(&g), None);
        assert!(s.throttled_quanta(t) > 0);
        // Fund it and it becomes runnable.
        g.transfer(&k, g.battery(), r, Energy::from_joules(1))
            .unwrap();
        assert_eq!(s.pick_next(&g), Some(t));
    }

    #[test]
    fn blocked_tasks_are_skipped() {
        let (mut g, mut s) = setup();
        let k = Actor::kernel();
        let r = g.create_reserve(&k, "r", Label::default_label()).unwrap();
        g.transfer(&k, g.battery(), r, Energy::from_joules(1))
            .unwrap();
        let t = s.add_task("sleeper", r);
        s.set_state(t, TaskState::Blocked);
        assert_eq!(s.pick_next(&g), None);
        s.set_state(t, TaskState::Ready);
        assert_eq!(s.pick_next(&g), Some(t));
    }

    #[test]
    fn round_robin_is_fair_with_ample_energy() {
        let (mut g, mut s) = setup();
        let k = Actor::kernel();
        let mut ids = Vec::new();
        for name in ["a", "b", "c"] {
            let r = g.create_reserve(&k, name, Label::default_label()).unwrap();
            g.transfer(&k, g.battery(), r, Energy::from_joules(1000))
                .unwrap();
            ids.push(s.add_task(name, r));
        }
        let shares = run(&mut g, &mut s, &ids, 3);
        for (i, share) in shares.iter().enumerate() {
            assert!((share - 1.0 / 3.0).abs() < 0.01, "task {i} share {share}");
        }
    }

    #[test]
    fn tap_rate_dictates_cpu_share() {
        // Fig 9's setup: a task fed 68.5 mW runs the 137 mW CPU ~50%.
        let (mut g, mut s) = setup();
        let k = Actor::kernel();
        let r = g
            .create_reserve(&k, "half", Label::default_label())
            .unwrap();
        g.create_tap(
            &k,
            "tap",
            g.battery(),
            r,
            RateSpec::constant(Power::from_microwatts(68_500)),
            Label::default_label(),
        )
        .unwrap();
        let t = s.add_task("spinner", r);
        let shares = run(&mut g, &mut s, &[t], 20);
        assert!(
            (shares[0] - 0.5).abs() < 0.03,
            "expected ~50% duty cycle, got {}",
            shares[0]
        );
    }

    #[test]
    fn estimator_tracks_cpu_power() {
        let (mut g, mut s) = setup();
        let k = Actor::kernel();
        let r = g
            .create_reserve(&k, "full", Label::default_label())
            .unwrap();
        g.transfer(&k, g.battery(), r, Energy::from_joules(100))
            .unwrap();
        let t = s.add_task("spinner", r);
        run(&mut g, &mut s, &[t], 2);
        let est = s.estimate(t, SimTime::from_secs(2)).as_milliwatts_f64();
        assert!((est - 137.0).abs() < 3.0, "estimate {est} mW");
    }

    #[test]
    fn consumed_matches_graph_accounting() {
        let (mut g, mut s) = setup();
        let k = Actor::kernel();
        let r = g.create_reserve(&k, "r", Label::default_label()).unwrap();
        g.transfer(&k, g.battery(), r, Energy::from_joules(10))
            .unwrap();
        let t = s.add_task("spinner", r);
        run(&mut g, &mut s, &[t], 1);
        assert_eq!(s.consumed(t), g.reserve(r).unwrap().stats().consumed);
        assert!(g.totals().conserved());
    }

    #[test]
    fn isolation_two_tasks_one_starving() {
        // A funded task is unaffected by a starving competitor.
        let (mut g, mut s) = setup();
        let k = Actor::kernel();
        let ra = g.create_reserve(&k, "ra", Label::default_label()).unwrap();
        let rb = g.create_reserve(&k, "rb", Label::default_label()).unwrap();
        g.transfer(&k, g.battery(), ra, Energy::from_joules(1000))
            .unwrap();
        // rb gets nothing.
        let ta = s.add_task("funded", ra);
        let tb = s.add_task("starved", rb);
        let shares = run(&mut g, &mut s, &[ta, tb], 2);
        assert!(shares[0] > 0.99, "funded task should own the CPU");
        assert_eq!(shares[1], 0.0);
    }

    #[test]
    fn set_active_reserve_switches_billing() {
        let (mut g, mut s) = setup();
        let k = Actor::kernel();
        let r1 = g.create_reserve(&k, "r1", Label::default_label()).unwrap();
        let r2 = g.create_reserve(&k, "r2", Label::default_label()).unwrap();
        g.transfer(&k, g.battery(), r1, Energy::from_joules(1))
            .unwrap();
        g.transfer(&k, g.battery(), r2, Energy::from_joules(1))
            .unwrap();
        let t = s.add_task("mover", r1);
        s.charge(&mut g, t, SimTime::ZERO, CPU).unwrap();
        s.set_active_reserve(t, r2);
        s.charge(&mut g, t, SimTime::from_millis(10), CPU).unwrap();
        let c1 = g.reserve(r1).unwrap().stats().consumed;
        let c2 = g.reserve(r2).unwrap().stats().consumed;
        assert_eq!(c1, c2);
        assert_eq!(c1, Energy::from_microjoules(1_370));
    }

    #[test]
    fn per_kind_reserve_set_starts_energy_only() {
        let (mut g, mut s) = setup();
        let k = Actor::kernel();
        let energy = g.create_reserve(&k, "e", Label::default_label()).unwrap();
        let pool = g
            .create_root(
                &k,
                "bytes-pool",
                crate::kind::Quantity::network_bytes(1_000),
            )
            .unwrap();
        let t = s.add_task("t", energy);
        assert_eq!(s.reserve_for(t, ResourceKind::Energy), Some(energy));
        assert_eq!(s.reserve_for(t, ResourceKind::NetworkBytes), None);
        assert_eq!(s.reserve_for(t, ResourceKind::SmsMessages), None);
        s.set_reserve_for(t, ResourceKind::NetworkBytes, pool);
        assert_eq!(s.reserve_for(t, ResourceKind::NetworkBytes), Some(pool));
        // The energy slot is untouched by quota attachments.
        assert_eq!(s.active_reserve(t), Some(energy));
    }

    #[test]
    fn empty_byte_reserve_does_not_gate_compute() {
        // The scheduler gate is the kind compute consumes: a task whose
        // byte reserve is empty but whose energy reserve is full runs.
        let (mut g, mut s) = setup();
        let k = Actor::kernel();
        let energy = g.create_reserve(&k, "e", Label::default_label()).unwrap();
        g.transfer(&k, g.battery(), energy, Energy::from_joules(1))
            .unwrap();
        g.create_root(&k, "bytes-pool", crate::kind::Quantity::network_bytes(0))
            .unwrap();
        let empty_bytes = g
            .create_reserve_kind(
                &k,
                "no-bytes",
                Label::default_label(),
                ResourceKind::NetworkBytes,
            )
            .unwrap();
        let t = s.add_task("t", energy);
        s.set_reserve_for(t, ResourceKind::NetworkBytes, empty_bytes);
        assert_eq!(s.pick_next(&g), Some(t));
        assert_eq!(s.throttled_quanta(t), 0);
    }

    #[test]
    fn removed_tasks_leave_queue() {
        let (mut g, mut s) = setup();
        let k = Actor::kernel();
        let r = g.create_reserve(&k, "r", Label::default_label()).unwrap();
        g.transfer(&k, g.battery(), r, Energy::from_joules(1))
            .unwrap();
        let t = s.add_task("gone", r);
        s.remove_task(t);
        assert_eq!(s.pick_next(&g), None);
        assert_eq!(s.state(t), None);
    }
}
