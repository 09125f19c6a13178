//! The cloud-offload client: a periodic workload that prices every work
//! item local-vs-remote with [`break_even`] and ships the remote ones
//! through the kernel's `offload` syscall.
//!
//! Two pieces live here:
//!
//! * [`TraceBackend`] — the kernel-side [`OffloadBackend`] adapter over a
//!   shared [`BackendTrace`]. The trace is a pure function of
//!   ([`OffloadProfile`], horizon), so every device in a fleet — on any
//!   worker thread — observes the *identical* backend: the same admission
//!   verdicts, the same response latencies, the same live estimate. That
//!   is what keeps offload-heavy fleet reports byte-identical for any
//!   worker count, and why checkpoint/resume never serialises backend
//!   state (a resumed run rebuilds the same trace from the scenario).
//! * [`Offloader`] — the program. Every `interval` it produces one work
//!   item costing `work` of local CPU, asks [`break_even`] whether the
//!   radio's marginal joules undercut the CPU's, and either computes in
//!   place or calls `Ctx::offload` and blocks. Timeouts and rejections
//!   fall back to local execution, so every item completes exactly once.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use cinder_core::{quota, ResourceKind};
use cinder_faults::{FaultPlan, OutageSpec, RetryPolicy};
use cinder_kernel::{
    Ctx, OffloadBackend, OffloadOutcome, OffloadRequest, OffloadStatus, OffloadVerdict, Program,
    Step,
};
use cinder_offload::{break_even, BackendTrace, BreakEvenInputs, OffloadDecision, OffloadProfile};
use cinder_sim::{SimDuration, SimTime};

/// The shared mean-field backend behind the kernel's [`OffloadBackend`]
/// seam: admission and latency are read off the precomputed trace.
#[derive(Debug, Clone)]
pub struct TraceBackend {
    trace: Arc<BackendTrace>,
}

impl TraceBackend {
    /// Wraps a (possibly shared) trace.
    pub fn new(trace: Arc<BackendTrace>) -> TraceBackend {
        TraceBackend { trace }
    }

    /// Builds the trace for `profile` over `horizon` and wraps it.
    pub fn build(profile: OffloadProfile, horizon: SimDuration) -> TraceBackend {
        TraceBackend::new(Arc::new(BackendTrace::build(profile, horizon)))
    }

    /// Like [`TraceBackend::build`], but with the fleet-shared outage
    /// windows `spec` describes baked into the trace: every device in a
    /// fleet derives the identical windows from the scenario seed, so the
    /// backend goes dark fleet-wide at once and reports stay
    /// byte-identical for any worker layout.
    pub fn build_with_outages(
        profile: OffloadProfile,
        horizon: SimDuration,
        spec: OutageSpec,
    ) -> TraceBackend {
        let windows = FaultPlan::outage_windows(&spec, horizon);
        TraceBackend::new(Arc::new(BackendTrace::build_with_outages(
            profile, horizon, &windows,
        )))
    }
}

impl OffloadBackend for TraceBackend {
    fn admit(&mut self, now: SimTime, _req: &OffloadRequest) -> OffloadVerdict {
        let s = self.trace.sample(now);
        if s.accepted {
            OffloadVerdict::Admitted {
                response_delay: s.response_latency,
            }
        } else {
            OffloadVerdict::Rejected
        }
    }

    fn latency_estimate(&self, now: SimTime) -> SimDuration {
        self.trace.sample(now).latency_estimate
    }
}

/// One work item's shape plus the production cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffloaderConfig {
    /// Spacing between work items (item start to item start).
    pub interval: SimDuration,
    /// Local CPU time one item costs if computed on-device.
    pub work: SimDuration,
    /// Request payload per item.
    pub tx_bytes: u64,
    /// Response payload per item.
    pub rx_bytes: u64,
    /// How long to wait on the backend before recomputing locally.
    pub deadline: SimDuration,
}

impl OffloaderConfig {
    /// The item shape an [`OffloadProfile`] describes.
    pub fn from_profile(p: &OffloadProfile) -> OffloaderConfig {
        OffloaderConfig {
            interval: p.request_interval,
            work: p.work_per_item,
            tx_bytes: p.request_bytes,
            rx_bytes: p.response_bytes,
            deadline: p.deadline,
        }
    }

    fn round_trip_bytes(&self) -> u64 {
        self.tx_bytes + self.rx_bytes
    }
}

/// What the offloader did, shared with the probe.
#[derive(Debug, Default)]
pub struct OffloadLog {
    /// Work items completed (local or remote).
    pub items: u64,
    /// Items completed by a backend response.
    pub remote: u64,
    /// Items computed on-device (policy said local, or a fallback).
    pub local: u64,
    /// Local recomputes forced by a timeout or rejection.
    pub fallbacks: u64,
    /// Backed-off re-attempts scheduled after a failure (retry enabled).
    pub retries: u64,
    /// Items whose retry budget ran dry before a remote completion.
    pub retries_exhausted: u64,
}

impl OffloadLog {
    /// A fresh log behind the shared handle the probe reads.
    pub fn shared() -> Rc<RefCell<OffloadLog>> {
        Rc::new(RefCell::new(OffloadLog::default()))
    }
}

/// Where the offloader is in its item cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the next item's start time.
    Idle,
    /// An offload is in flight; blocked on the response or deadline.
    Awaiting,
    /// Backing off after a failed attempt; re-decide at the wake.
    Retry,
    /// A local compute (chosen or fallback) just ran; log and go idle.
    Finish,
}

/// The periodic offload client (see module docs).
#[derive(Debug)]
pub struct Offloader {
    config: OffloaderConfig,
    log: Rc<RefCell<OffloadLog>>,
    phase: Phase,
    next_item: SimTime,
    /// Whether the item being finished ran as a fallback after a timeout
    /// or rejection (telemetry only).
    fallback: bool,
    /// Bounded backoff after rejections/timeouts; `None` falls back to
    /// local immediately (the pre-fault behaviour, byte for byte).
    retry: Option<RetryPolicy>,
    /// Offload attempts made for the current item.
    attempts: u32,
    /// When the current item's first attempt ran (the retry deadline
    /// is measured from here).
    item_started: SimTime,
}

impl Offloader {
    /// A client producing its first item at t=0.
    pub fn new(config: OffloaderConfig, log: Rc<RefCell<OffloadLog>>) -> Offloader {
        Offloader {
            config,
            log,
            phase: Phase::Idle,
            next_item: SimTime::ZERO,
            fallback: false,
            retry: None,
            attempts: 0,
            item_started: SimTime::ZERO,
        }
    }

    /// Enables bounded retry-with-backoff on rejections and timeouts.
    pub fn with_retry(mut self, retry: Option<RetryPolicy>) -> Offloader {
        self.retry = retry;
        self
    }

    /// The break-even call, from exactly what the kernel lets the thread
    /// observe: its reserve level, the radio's marginal cost for the round
    /// trip, the accounting cost of local compute, the backend's live
    /// estimate, and the byte plan's remaining balance.
    fn decide(&self, ctx: &Ctx) -> OffloadDecision {
        let Ok(reserve_level) = ctx.level(ctx.active_reserve()) else {
            return OffloadDecision::Local;
        };
        let Some(latency_estimate) = ctx.offload_latency_estimate() else {
            return OffloadDecision::Local;
        };
        let plan_bytes_remaining = ctx
            .active_reserve_kind(ResourceKind::NetworkBytes)
            .and_then(|plan| ctx.level(plan).ok())
            .map(|level| quota::as_bytes(level).max(0) as u64);
        let round_trip_bytes = self.config.round_trip_bytes();
        break_even(&BreakEvenInputs {
            reserve_level,
            local_cost: ctx.cpu_accounting_power().energy_over(self.config.work),
            remote_cost: ctx.radio_cost_estimate(round_trip_bytes),
            latency_estimate,
            deadline: self.config.deadline,
            plan_bytes_remaining,
            round_trip_bytes,
        })
    }

    /// Starts a local compute for the current item.
    fn compute_locally(&mut self, fallback: bool) -> Step {
        self.fallback = fallback;
        self.phase = Phase::Finish;
        Step::compute(self.config.work)
    }

    fn finish(&mut self, remote: bool) {
        let mut log = self.log.borrow_mut();
        log.items += 1;
        if remote {
            log.remote += 1;
        } else {
            log.local += 1;
            if self.fallback {
                log.fallbacks += 1;
            }
        }
        self.fallback = false;
        self.phase = Phase::Idle;
    }

    /// Ships the current item remotely, counting the attempt.
    fn attempt_remote(&mut self, ctx: &mut Ctx) -> Step {
        let req = OffloadRequest {
            tx_bytes: self.config.tx_bytes,
            rx_bytes: self.config.rx_bytes,
            work: self.config.work,
            deadline: self.config.deadline,
        };
        self.attempts += 1;
        match ctx.offload(req) {
            Ok(OffloadStatus::Sent) => {
                self.phase = Phase::Awaiting;
                Step::Block
            }
            // Backend full, link down, or no backend: retry if the
            // budget allows, else the item still has to run — locally.
            Ok(OffloadStatus::Rejected) | Err(_) => self.after_failure(ctx),
        }
    }

    /// A rejection or timeout landed: back off if the retry budget
    /// allows, otherwise fall back to a local compute.
    fn after_failure(&mut self, ctx: &Ctx) -> Step {
        if let Some(retry) = self.retry {
            match retry.next_attempt_at(self.item_started, ctx.now(), self.attempts, ctx.quantum())
            {
                Some(at) => {
                    self.log.borrow_mut().retries += 1;
                    self.phase = Phase::Retry;
                    return Step::SleepUntil(at);
                }
                None => self.log.borrow_mut().retries_exhausted += 1,
            }
        }
        self.compute_locally(true)
    }
}

impl Program for Offloader {
    fn step(&mut self, ctx: &mut Ctx) -> Step {
        match self.phase {
            Phase::Idle => {
                if ctx.now() < self.next_item {
                    return Step::SleepUntil(self.next_item);
                }
                // Item cadence is start-to-start, anchored to the schedule
                // (not to when this item finishes).
                self.next_item += self.config.interval;
                self.item_started = ctx.now();
                self.attempts = 0;
                match self.decide(ctx) {
                    OffloadDecision::Local => self.compute_locally(false),
                    OffloadDecision::Remote => self.attempt_remote(ctx),
                }
            }
            Phase::Awaiting => match ctx.offload_take_result() {
                Some(OffloadOutcome::Completed { .. }) => {
                    self.finish(true);
                    Step::Yield
                }
                Some(OffloadOutcome::TimedOut) => self.after_failure(ctx),
                // Spurious wake (e.g. the pooled send being granted);
                // the offload is still in flight.
                None => Step::Block,
            },
            Phase::Retry => {
                // Backoff expired: re-price the item against the live
                // estimate. A backend that is still dark (outage pins the
                // estimate at the deadline) prices local and the item
                // falls back rather than burning the remaining budget.
                match self.decide(ctx) {
                    OffloadDecision::Local => self.compute_locally(true),
                    OffloadDecision::Remote => self.attempt_remote(ctx),
                }
            }
            Phase::Finish => {
                self.finish(false);
                Step::Yield
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinder_core::{Actor, RateSpec};
    use cinder_kernel::{Kernel, KernelConfig};
    use cinder_label::Label;
    use cinder_net::CoopNetd;
    use cinder_sim::{Energy, Power};

    fn rig(profile: OffloadProfile, horizon: SimDuration) -> (Kernel, Rc<RefCell<OffloadLog>>) {
        let mut kernel = Kernel::new(KernelConfig {
            seed: 3,
            fast_forward: true,
            ..KernelConfig::default()
        });
        let netd = CoopNetd::with_defaults(kernel.graph_mut());
        kernel.install_net(Box::new(netd));
        kernel.install_offload(Box::new(TraceBackend::build(profile, horizon)));
        let root = Actor::kernel();
        let battery = kernel.battery();
        let g = kernel.graph_mut();
        let r = g
            .create_reserve(&root, "offload", Label::default_label())
            .unwrap();
        g.transfer(&root, battery, r, Energy::from_joules(30))
            .unwrap();
        g.create_tap(
            &root,
            "offload-tap",
            battery,
            r,
            RateSpec::constant(Power::from_microwatts(60_000)),
            Label::default_label(),
        )
        .unwrap();
        let log = OffloadLog::shared();
        let app = Offloader::new(OffloaderConfig::from_profile(&profile), log.clone());
        kernel.spawn_unprivileged("offloader", Box::new(app), r);
        (kernel, log)
    }

    #[test]
    fn responsive_backend_pulls_items_remote() {
        let profile = OffloadProfile {
            capacity: 64,
            queue_limit: 10_000,
            ..OffloadProfile::default()
        };
        let horizon = SimDuration::from_secs(1_800);
        let (mut kernel, log) = rig(profile, horizon);
        kernel.run_until(SimTime::ZERO + horizon);
        let log = log.borrow();
        // 6 items in half an hour at the default 300 s cadence; a roomy
        // backend plus a 30 J seed keeps the break-even remote throughout.
        assert!(log.items >= 5, "items: {log:?}");
        assert!(log.remote >= 4, "remote: {log:?}");
        assert_eq!(log.items, log.remote + log.local);
        let stats = kernel.offload_stats();
        assert_eq!(stats.completed, log.remote);
        assert_eq!(
            stats.in_flight() + stats.completed + stats.timed_out,
            stats.accepted
        );
        assert!(kernel.graph().totals().conserved());
    }

    #[test]
    fn saturated_backend_forces_items_local() {
        // One server against a 100k-device population (333 req/s offered,
        // 20 req/s of service): the gate pins the latency estimate near
        // the deadline and the policy stays local.
        let profile = OffloadProfile {
            capacity: 1,
            queue_limit: 4,
            load_devices: 100_000,
            ..OffloadProfile::default()
        };
        let horizon = SimDuration::from_secs(1_800);
        let (mut kernel, log) = rig(profile, horizon);
        kernel.run_until(SimTime::ZERO + horizon);
        let log = log.borrow();
        assert!(log.items >= 5, "items: {log:?}");
        assert!(
            log.local > log.remote,
            "a saturated backend must push items local: {log:?}"
        );
        assert!(kernel.graph().totals().conserved());
    }

    #[test]
    fn every_item_completes_exactly_once() {
        let profile = OffloadProfile::default();
        let horizon = SimDuration::from_secs(3_600);
        let (mut kernel, log) = rig(profile, horizon);
        kernel.run_until(SimTime::ZERO + horizon);
        let log = log.borrow();
        assert_eq!(log.items, log.remote + log.local);
        assert!(log.fallbacks <= log.local);
        let stats = kernel.offload_stats();
        // Remote completions and fallbacks tie out against kernel stats.
        assert_eq!(stats.completed, log.remote);
        assert!(stats.timed_out + stats.rejected >= log.fallbacks.saturating_sub(0));
    }
}
