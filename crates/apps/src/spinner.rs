//! CPU-spinning workloads.
//!
//! The isolation experiment (§6.1, Fig 9) runs two spinners, A and B, each
//! fed half the CPU's power. B forks children B1 (at ~5 s) and B2 (at
//! ~10 s); instead of letting them draw from its own reserve, B "creates
//! two new reserves subdividing and delegating its power to each using two
//! taps. Each of the taps has one-quarter the power of B's tap."

use cinder_core::RateSpec;
use cinder_hw::CpuKind;
use cinder_kernel::{Ctx, Program, Step};
use cinder_label::Label;
use cinder_sim::{Power, SimDuration, SimTime};

/// The compute an endless spinner queues: 2⁶⁰ µs, some 36,000 years —
/// past any horizon, yet far enough below `u64::MAX` that a later
/// `gate_call` adding its work to it cannot overflow.
const ENDLESS: SimDuration = SimDuration::from_micros(1 << 60);

/// A thread that spins forever. It queues one endless chunk of compute, so
/// the kernel never steps its program again: each quantum only runs it if
/// its reserve is funded and throttles it if not, and the fast-forward's
/// duty jump crosses those quanta in bulk.
#[derive(Debug, Clone)]
pub struct Spinner {
    kind: CpuKind,
}

impl Spinner {
    /// A default spinner: the worst-case instruction mix.
    pub fn new() -> Self {
        Spinner::with_kind(CpuKind::default())
    }

    /// A spinner with an explicit instruction mix (for the power-model
    /// experiment: integer vs memory-intensive streams).
    pub fn with_kind(kind: CpuKind) -> Self {
        Spinner { kind }
    }
}

impl Default for Spinner {
    fn default() -> Self {
        Spinner::new()
    }
}

impl Program for Spinner {
    fn step(&mut self, _ctx: &mut Ctx<'_>) -> Step {
        Step::Compute {
            duration: ENDLESS,
            kind: self.kind,
        }
    }
}

/// A scheduled fork: at `at`, create a reserve fed from the parent's own
/// reserve by a tap of `tap_rate`, and spawn a [`Spinner`] child on it.
#[derive(Debug, Clone)]
pub struct ForkPlan {
    /// When to fork.
    pub at: SimTime,
    /// Child thread name.
    pub name: String,
    /// Rate of the tap from the parent's reserve to the child's.
    pub tap_rate: Power,
}

/// Fig 9's process B: spins, forking children on a schedule, each isolated
/// behind its own subdivided reserve. It spins in 100 ms chunks, so the
/// kernel steps it often enough to fork on time.
#[derive(Debug, Clone)]
pub struct ForkingSpinner {
    forks: Vec<ForkPlan>,
    next: usize,
    chunk: SimDuration,
}

impl ForkingSpinner {
    /// A spinner that will fork per `forks` (must be sorted by time).
    pub fn new(mut forks: Vec<ForkPlan>) -> Self {
        forks.sort_by_key(|f| f.at);
        ForkingSpinner {
            forks,
            next: 0,
            chunk: SimDuration::from_millis(100),
        }
    }
}

impl Program for ForkingSpinner {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
        while self.next < self.forks.len() && self.forks[self.next].at <= ctx.now() {
            let plan = self.forks[self.next].clone();
            self.next += 1;
            // Subdivide: child reserve fed from *my* reserve, so my children
            // can never touch anyone else's share (isolation + subdivision).
            let child_reserve = ctx
                .create_reserve(&format!("{}-r", plan.name), Label::default_label())
                .expect("default-label reserve creation cannot fail");
            let my_reserve = ctx.active_reserve();
            ctx.create_tap(
                &format!("{}-tap", plan.name),
                my_reserve,
                child_reserve,
                RateSpec::constant(plan.tap_rate),
                Label::default_label(),
            )
            .expect("parent can tap its own reserve");
            ctx.spawn(&plan.name, Box::new(Spinner::new()), child_reserve);
        }
        Step::Compute {
            duration: self.chunk,
            kind: CpuKind::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinder_core::{Actor, GraphConfig};
    use cinder_kernel::{Kernel, KernelConfig};
    use cinder_sim::Energy;

    fn kernel() -> Kernel {
        Kernel::new(KernelConfig {
            graph: GraphConfig {
                decay: None,
                ..GraphConfig::default()
            },
            ..KernelConfig::default()
        })
    }

    #[test]
    fn spinner_runs_flat_out_when_funded() {
        let mut k = kernel();
        let battery = k.battery();
        let r = k
            .graph_mut()
            .create_reserve(&Actor::kernel(), "r", Label::default_label())
            .unwrap();
        k.graph_mut()
            .transfer(&Actor::kernel(), battery, r, Energy::from_joules(100))
            .unwrap();
        let t = k.spawn_unprivileged("spin", Box::new(Spinner::new()), r);
        k.run_until(SimTime::from_secs(5));
        let est = k.thread_power_estimate(t).as_milliwatts_f64();
        assert!((est - 137.0).abs() < 3.0, "estimate {est} mW");
    }

    #[test]
    fn forking_spinner_spawns_on_schedule() {
        let mut k = kernel();
        let battery = k.battery();
        let r = k
            .graph_mut()
            .create_reserve(&Actor::kernel(), "b", Label::default_label())
            .unwrap();
        k.graph_mut()
            .create_tap(
                &Actor::kernel(),
                "b-tap",
                battery,
                r,
                RateSpec::constant(Power::from_microwatts(68_500)),
                Label::default_label(),
            )
            .unwrap();
        let forks = vec![
            ForkPlan {
                at: SimTime::from_secs(2),
                name: "b1".into(),
                tap_rate: Power::from_microwatts(17_125),
            },
            ForkPlan {
                at: SimTime::from_secs(4),
                name: "b2".into(),
                tap_rate: Power::from_microwatts(17_125),
            },
        ];
        k.spawn_unprivileged("b", Box::new(ForkingSpinner::new(forks)), r);
        k.run_until(SimTime::from_secs(1));
        assert_eq!(k.graph().reserve_count(), 2); // battery + b
        k.run_until(SimTime::from_secs(3));
        assert_eq!(k.graph().reserve_count(), 3); // + b1
        k.run_until(SimTime::from_secs(6));
        assert_eq!(k.graph().reserve_count(), 4); // + b2
        assert_eq!(k.graph().tap_count(), 3);
        assert!(k.graph().totals().conserved());
    }
}
