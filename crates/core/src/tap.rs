//! Taps: rate-limited transfers between reserves.
//!
//! Paper §3.3: "A tap transfers a fixed quantity of resources between two
//! reserves per unit time … Conceptually, it is an efficient, special-purpose
//! thread whose only job is to transfer energy between reserves. In practice,
//! transfers are executed in batch periodically."
//!
//! Two rate forms exist:
//!
//! * [`RateSpec::Const`] — a fixed power (µW), e.g. Fig 1's 750 mW browser
//!   tap or Fig 8's 37.5 mW poller taps.
//! * [`RateSpec::Proportional`] — a fraction of the *source* reserve per
//!   second, e.g. Fig 6b's "0.1×" backward taps that reclaim unused energy.
//!   A *backward* tap is simply a proportional tap whose source is the
//!   application reserve and whose sink is the battery.

use cinder_label::{Label, PrivilegeSet};
use cinder_sim::{Energy, Power, SimDuration};

use crate::graph::ReserveId;

/// How much a tap moves per unit time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateSpec {
    /// A fixed transfer rate.
    Const(Power),
    /// A fraction of the source reserve's level per second, in parts per
    /// million (1_000_000 ppm/s would move the entire level each second).
    Proportional {
        /// Fraction of the source level transferred per second, in ppm.
        ppm_per_s: u64,
    },
}

impl RateSpec {
    /// A constant-rate tap.
    pub fn constant(rate: Power) -> Self {
        RateSpec::Const(rate)
    }

    /// A proportional tap moving `fraction` of the source per second
    /// (e.g. `0.1` for the paper's "0.1×" backward taps).
    ///
    /// Out-of-range input saturates rather than panicking: negative (and
    /// NaN) fractions clamp to `0`, fractions above `1` clamp to `1`
    /// (1,000,000 ppm — the whole source level per second). Taps are often
    /// created from untrusted application arithmetic, so a slightly-off
    /// fraction must degrade to the nearest legal rate, not abort the
    /// caller.
    pub fn proportional(fraction: f64) -> Self {
        // NaN fails both comparisons in `clamp`-style chains; make the
        // choice explicit: no signal, no flow.
        let fraction = if fraction.is_nan() { 0.0 } else { fraction };
        let ppm = (fraction.clamp(0.0, 1.0) * 1e6).round() as u64;
        RateSpec::Proportional { ppm_per_s: ppm }
    }

    /// False for a proportional rate above 1,000,000 ppm/s — more than the
    /// whole source level per second, the most
    /// [`RateSpec::proportional`] saturates to. The graph refuses such a
    /// rate with [`crate::GraphError::InvalidAmount`].
    pub(crate) fn in_range(self) -> bool {
        !matches!(self, RateSpec::Proportional { ppm_per_s } if ppm_per_s > 1_000_000)
    }

    /// True for zero-rate taps (a disabled foreground tap, Fig 7).
    pub fn is_zero(self) -> bool {
        match self {
            RateSpec::Const(p) => p.is_zero(),
            RateSpec::Proportional { ppm_per_s } => ppm_per_s == 0,
        }
    }
}

/// A tap object: rate + source + sink + security state (paper §3.3: "Taps
/// are made up of four pieces of state").
#[derive(Debug, Clone)]
pub struct Tap {
    name: String,
    source: ReserveId,
    sink: ReserveId,
    rate: RateSpec,
    label: Label,
    /// Privileges embedded at creation so the periodic batch flow can move
    /// resources between the endpoints (§3.5).
    embedded_privs: PrivilegeSet,
    /// Sub-microjoule carry so long-running slow taps do not lose energy to
    /// truncation. Units: µJ·µs for const taps, µJ·µs·ppm for proportional.
    remainder: u128,
    /// Monotonic creation sequence assigned by the graph. Batch flow applies
    /// taps in ascending `seq` (the documented oversubscription order);
    /// unlike arena slot order it is stable across slot reuse.
    seq: u64,
}

impl Tap {
    pub(crate) fn new(
        name: impl Into<String>,
        source: ReserveId,
        sink: ReserveId,
        rate: RateSpec,
        label: Label,
        embedded_privs: PrivilegeSet,
    ) -> Self {
        Tap {
            name: name.into(),
            source,
            sink,
            rate,
            label,
            embedded_privs,
            remainder: 0,
            seq: 0,
        }
    }

    pub(crate) fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }

    /// The graph-assigned creation sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The reserve this tap draws from.
    pub fn source(&self) -> ReserveId {
        self.source
    }

    /// The reserve this tap fills.
    pub fn sink(&self) -> ReserveId {
        self.sink
    }

    /// The current rate.
    pub fn rate(&self) -> RateSpec {
        self.rate
    }

    /// The security label protecting the tap itself (who may retarget or
    /// re-rate it).
    pub fn label(&self) -> &Label {
        &self.label
    }

    /// The privileges embedded in the tap at creation.
    pub fn embedded_privs(&self) -> &PrivilegeSet {
        &self.embedded_privs
    }

    pub(crate) fn set_rate(&mut self, rate: RateSpec) {
        self.rate = rate;
        self.remainder = 0;
    }

    /// The sub-grain carry, for the flow engine's ticked-partition scratch.
    pub(crate) fn remainder(&self) -> u128 {
        self.remainder
    }

    /// Restores a carry advanced outside the tap (the flow kernel's
    /// writeback).
    pub(crate) fn set_remainder(&mut self, remainder: u128) {
        self.remainder = remainder;
    }

    /// Computes the amount this tap wants to move over `dt`, given the
    /// source level `source_level` *at the start of the batch tick*, with
    /// drift-free remainder carry.
    ///
    /// The returned amount is non-negative and not yet clamped to the
    /// source's remaining balance; the graph applies the clamp.
    ///
    /// The reference model's arithmetic: the flow engine compiles its own
    /// division-free split, which the differential tests check against
    /// this.
    #[cfg(any(test, feature = "reference-flow"))]
    pub(crate) fn desired_transfer(&mut self, source_level: Energy, dt: SimDuration) -> Energy {
        match self.rate {
            RateSpec::Const(p) => {
                let total = (p.as_microwatts() as u128) * (dt.as_micros() as u128) + self.remainder;
                self.remainder = total % 1_000_000;
                Energy::from_microjoules((total / 1_000_000) as i64)
            }
            RateSpec::Proportional { ppm_per_s } => {
                let level = source_level.as_microjoules().max(0) as u128;
                let total = level * (ppm_per_s as u128) * (dt.as_micros() as u128) + self.remainder;
                // Divide by 1e6 (ppm) and 1e6 (µs per s).
                self.remainder = total % 1_000_000_000_000;
                Energy::from_microjoules((total / 1_000_000_000_000) as i64)
            }
        }
    }

    /// Advances a `Const` tap through `n` ticks of `dt` in closed form,
    /// returning the total it moves. Exactly equal to summing `n` calls of
    /// [`Tap::desired_transfer`]: per tick the carry obeys
    /// `rem' = (rem + p·dt) mod 1e6`, so the `n`-tick total telescopes to
    /// `(rem₀ + n·p·dt) div 1e6` with `rem_n = (rem₀ + n·p·dt) mod 1e6`.
    ///
    /// Callers (the [`crate::flow::FlowEngine`] fast-forward) must have
    /// proven the source covers the whole run, since no clamp is applied.
    /// Proportional taps return zero and are left untouched.
    pub(crate) fn bulk_advance_const(&mut self, n: u64, dt: SimDuration) -> Energy {
        let RateSpec::Const(p) = self.rate else {
            return Energy::ZERO;
        };
        let total =
            (p.as_microwatts() as u128) * (dt.as_micros() as u128) * (n as u128) + self.remainder;
        self.remainder = total % 1_000_000;
        Energy::from_microjoules((total / 1_000_000) as i64)
    }

    /// Advances a `Const` tap's carry through `n` ticks whose transfers are
    /// all clamped to zero (an empty source with no inflows). Per tick the
    /// naive loop computes a desire, fails to move it, and keeps only the
    /// carry — so the closed-form carry update is the same; the would-be
    /// moved amount is simply discarded.
    pub(crate) fn bulk_advance_const_starved(&mut self, n: u64, dt: SimDuration) {
        let _ = self.bulk_advance_const(n, dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Arena;
    use cinder_sim::SimTime;

    fn ids() -> (ReserveId, ReserveId) {
        // Manufacture distinct RawIds through a scratch arena.
        let mut a = Arena::new();
        let x = a.insert(());
        let y = a.insert(());
        (ReserveId(x), ReserveId(y))
    }

    fn tap(rate: RateSpec) -> Tap {
        let (s, k) = ids();
        Tap::new(
            "t",
            s,
            k,
            rate,
            Label::default_label(),
            PrivilegeSet::empty(),
        )
    }

    #[test]
    fn const_tap_exact_rate() {
        let mut t = tap(RateSpec::constant(Power::from_milliwatts(750)));
        let moved = t.desired_transfer(Energy::from_joules(100), SimDuration::from_secs(2));
        assert_eq!(moved, Energy::from_millijoules(1_500));
    }

    #[test]
    fn const_tap_remainder_carries() {
        // 1 µW over 100 ms ticks: each tick wants 0.1 µJ; after 10 ticks a
        // full µJ must have moved.
        let mut t = tap(RateSpec::constant(Power::from_microwatts(1)));
        let mut total = Energy::ZERO;
        for _ in 0..10 {
            total += t.desired_transfer(Energy::from_joules(1), SimDuration::from_millis(100));
        }
        assert_eq!(total, Energy::from_microjoules(1));
    }

    #[test]
    fn proportional_tap_moves_fraction() {
        // 0.1/s of a 700 mJ reserve over 1 s = 70 mJ — Fig 6b's equilibrium.
        let mut t = tap(RateSpec::proportional(0.1));
        let moved = t.desired_transfer(Energy::from_millijoules(700), SimDuration::from_secs(1));
        assert_eq!(moved, Energy::from_millijoules(70));
    }

    #[test]
    fn proportional_tap_ignores_negative_levels() {
        let mut t = tap(RateSpec::proportional(0.5));
        let moved = t.desired_transfer(Energy::from_joules(-5), SimDuration::from_secs(1));
        assert_eq!(moved, Energy::ZERO);
    }

    #[test]
    fn zero_rate_moves_nothing() {
        let mut t = tap(RateSpec::constant(Power::ZERO));
        assert!(t.rate().is_zero());
        let moved = t.desired_transfer(Energy::from_joules(1), SimDuration::from_secs(10));
        assert_eq!(moved, Energy::ZERO);
    }

    #[test]
    fn set_rate_resets_remainder() {
        let mut t = tap(RateSpec::constant(Power::from_microwatts(1)));
        let _ = t.desired_transfer(Energy::from_joules(1), SimDuration::from_millis(500));
        t.set_rate(RateSpec::constant(Power::from_watts(1)));
        let moved = t.desired_transfer(Energy::from_joules(1), SimDuration::from_secs(1));
        assert_eq!(moved, Energy::from_joules(1));
    }

    #[test]
    fn proportional_saturates_out_of_range() {
        // Above 1 saturates to the whole level per second…
        assert_eq!(
            RateSpec::proportional(1.5),
            RateSpec::Proportional {
                ppm_per_s: 1_000_000
            }
        );
        assert_eq!(
            RateSpec::proportional(f64::INFINITY),
            RateSpec::Proportional {
                ppm_per_s: 1_000_000
            }
        );
        // …below 0 (and NaN) saturates to no flow.
        assert_eq!(
            RateSpec::proportional(-0.25),
            RateSpec::Proportional { ppm_per_s: 0 }
        );
        assert_eq!(
            RateSpec::proportional(f64::NEG_INFINITY),
            RateSpec::Proportional { ppm_per_s: 0 }
        );
        assert_eq!(
            RateSpec::proportional(f64::NAN),
            RateSpec::Proportional { ppm_per_s: 0 }
        );
    }

    #[test]
    fn proportional_boundary_and_rounding() {
        // Exact endpoints map exactly.
        assert_eq!(
            RateSpec::proportional(0.0),
            RateSpec::Proportional { ppm_per_s: 0 }
        );
        assert!(RateSpec::proportional(0.0).is_zero());
        assert_eq!(
            RateSpec::proportional(1.0),
            RateSpec::Proportional {
                ppm_per_s: 1_000_000
            }
        );
        // Conversion rounds to the nearest ppm, not truncates.
        assert_eq!(
            RateSpec::proportional(0.1),
            RateSpec::Proportional { ppm_per_s: 100_000 }
        );
        assert_eq!(
            RateSpec::proportional(0.000_000_15),
            RateSpec::Proportional { ppm_per_s: 0 } // 0.15 ppm rounds to 0
        );
        assert_eq!(
            RateSpec::proportional(0.000_000_55),
            RateSpec::Proportional { ppm_per_s: 1 } // 0.55 ppm rounds to 1
        );
        // One ulp below 1.0 stays within range instead of overshooting.
        let just_below_one = 1.0_f64 - f64::EPSILON;
        assert_eq!(
            RateSpec::proportional(just_below_one),
            RateSpec::Proportional {
                ppm_per_s: 1_000_000
            }
        );
    }

    #[test]
    fn bulk_advance_const_matches_per_tick_loop() {
        // 137 µW over 100 ms ticks: 13.7 µJ/tick exercises the carry.
        let mut bulk = tap(RateSpec::constant(Power::from_microwatts(137)));
        let mut naive = tap(RateSpec::constant(Power::from_microwatts(137)));
        let dt = SimDuration::from_millis(100);
        let n = 12_345;
        let mut naive_total = Energy::ZERO;
        for _ in 0..n {
            naive_total += naive.desired_transfer(Energy::ZERO, dt);
        }
        assert_eq!(bulk.bulk_advance_const(n, dt), naive_total);
        // The carries agree too: one further tick moves the same amount.
        assert_eq!(
            bulk.desired_transfer(Energy::ZERO, dt),
            naive.desired_transfer(Energy::ZERO, dt)
        );
    }

    #[test]
    fn proportional_remainder_smooths_small_levels() {
        // 10% per second of a 5 µJ reserve at 100 ms ticks: 0.05 µJ/tick.
        // Over 20 ticks (2 s) the true leak is 5 µJ × (1 - 0.9^2) ≈ 0.95 µJ;
        // with a static source snapshot it should move 1 µJ, not 0.
        let mut t = tap(RateSpec::proportional(0.1));
        let mut total = Energy::ZERO;
        for _ in 0..20 {
            total += t.desired_transfer(Energy::from_microjoules(5), SimDuration::from_millis(100));
        }
        assert_eq!(total, Energy::from_microjoules(1));
        let _ = SimTime::ZERO; // silence unused import in cfg(test)
    }
}
