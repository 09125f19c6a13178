//! A simulated DC power meter.
//!
//! The paper measured the HTC Dream with an Agilent E3644A power supply,
//! sampling voltage and current roughly every 200 ms (§4.2). [`PowerMeter`]
//! plays that role: hardware models report instantaneous power changes
//! (`set_power`), the meter integrates energy *exactly* between changes, and
//! it optionally records periodic samples for plotting — the "measured"
//! (dotted) lines in Figs 4, 12 and 13.
//!
//! Exact integration matters because Table 1 compares total joules between
//! two 20-minute runs; sampling error would blur the 12.5% headline number.

use crate::time::{SimDuration, SimTime};
use crate::trace::Series;
use crate::units::{Energy, Power};

/// Default sampling cadence of the Agilent E3644A setup in the paper.
pub const AGILENT_SAMPLE_INTERVAL: SimDuration = SimDuration::from_millis(200);

/// An event-driven power meter with exact energy integration and optional
/// periodic sampling.
///
/// # Examples
///
/// ```
/// use cinder_sim::{PowerMeter, Power, SimTime};
///
/// let mut meter = PowerMeter::new(Power::from_milliwatts(699)); // idle draw
/// meter.set_power(SimTime::from_secs(10), Power::from_milliwatts(836));
/// meter.advance(SimTime::from_secs(20));
/// // 699 mW * 10 s + 836 mW * 10 s = 15.35 J
/// assert_eq!(meter.total_energy().as_microjoules(), 15_350_000);
/// ```
#[derive(Debug)]
pub struct PowerMeter {
    current: Power,
    now: SimTime,
    /// Exact accumulated energy in µJ·µs, i.e. µW·µs products.
    accum_uw_us: u128,
    sampler: Option<Sampler>,
}

#[derive(Debug)]
struct Sampler {
    interval: SimDuration,
    next_at: SimTime,
    trace: Series,
}

/// A snapshot of the meter's accumulated energy, for measuring intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeterCheckpoint {
    accum_uw_us: u128,
    at: SimTime,
}

impl PowerMeter {
    /// Creates a meter reading `initial` power at t = 0, without sampling.
    pub fn new(initial: Power) -> Self {
        PowerMeter {
            current: initial,
            now: SimTime::ZERO,
            accum_uw_us: 0,
            sampler: None,
        }
    }

    /// Enables periodic sampling into a trace named `name` (unit: watts),
    /// starting at the current time.
    pub fn enable_sampling(&mut self, name: &str, interval: SimDuration) {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        self.sampler = Some(Sampler {
            interval,
            next_at: self.now,
            trace: Series::new(name, "W"),
        });
    }

    /// The power currently being drawn.
    pub fn current_power(&self) -> Power {
        self.current
    }

    /// The meter's notion of "now".
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Integrates up to `t` and changes the measured power.
    ///
    /// Consecutive calls with an unchanged power are deduplicated: the
    /// meter defers the integration (constant power integrates linearly,
    /// so catching up at the next change — or at the next explicit
    /// [`PowerMeter::advance`] — yields the identical µJ·µs accumulator),
    /// and any samples falling inside the deferred span are emitted by that
    /// catch-up with the same times and values. Totals, checkpoints, and
    /// traces are byte-identical to the undeduplicated meter *after* an
    /// `advance`; callers that read mid-stream (the kernel run loop closes
    /// every `run_until` with one) must advance first.
    ///
    /// # Panics
    ///
    /// Panics if `t` is before the meter's current time.
    pub fn set_power(&mut self, t: SimTime, power: Power) {
        if power == self.current {
            debug_assert!(t >= self.now, "meter time went backwards");
            return;
        }
        self.advance(t);
        self.current = power;
    }

    /// Integrates the current power up to `t`, emitting any due samples.
    ///
    /// # Panics
    ///
    /// Panics if `t` is before the meter's current time.
    pub fn advance(&mut self, t: SimTime) {
        assert!(t >= self.now, "meter time went backwards");
        // Emit samples strictly inside (now, t]; each sample reports the
        // instantaneous power, like the real supply's readback.
        if let Some(s) = &mut self.sampler {
            while s.next_at <= t {
                s.trace.push(s.next_at, self.current.as_watts_f64());
                s.next_at += s.interval;
            }
        }
        let dt = t.since(self.now);
        self.accum_uw_us += (self.current.as_microwatts() as u128) * (dt.as_micros() as u128);
        self.now = t;
    }

    /// The state [`PowerMeter::set_power`] calls alternating between the
    /// current power and `other` leave, in one exact update: `other` was
    /// drawn for `dt` in all up to `t`, where the power last changed, to
    /// `power`. Panics if the meter samples: its trace needs each change.
    pub fn settle_alternating(&mut self, t: SimTime, other: Power, dt: SimDuration, power: Power) {
        assert!(self.sampler.is_none(), "sampling needs each change");
        if other != self.current {
            self.accum_uw_us += (other.as_microwatts() as u128) * (dt.as_micros() as u128);
            self.now += dt;
            self.advance(t);
            self.current = power;
        }
    }

    /// Adds an instantaneous energy event (e.g. the per-byte cost of a
    /// packet burst too short to resolve as a power step).
    ///
    /// # Panics
    ///
    /// Panics if `e` is negative.
    pub fn add_energy(&mut self, e: Energy) {
        assert!(!e.is_negative(), "cannot meter negative energy");
        self.accum_uw_us += (e.as_microjoules() as u128) * 1_000_000;
    }

    /// Total energy measured since construction, truncated to microjoules.
    pub fn total_energy(&self) -> Energy {
        Energy::from_microjoules((self.accum_uw_us / 1_000_000) as i64)
    }

    /// Takes a checkpoint; pair with [`PowerMeter::energy_since`].
    pub fn checkpoint(&self) -> MeterCheckpoint {
        MeterCheckpoint {
            accum_uw_us: self.accum_uw_us,
            at: self.now,
        }
    }

    /// Energy measured since `cp` was taken.
    pub fn energy_since(&self, cp: MeterCheckpoint) -> Energy {
        Energy::from_microjoules(((self.accum_uw_us - cp.accum_uw_us) / 1_000_000) as i64)
    }

    /// Average power since `cp` was taken, or zero if no time has elapsed.
    pub fn average_power_since(&self, cp: MeterCheckpoint) -> Power {
        self.energy_since(cp)
            .average_power_over(self.now.saturating_since(cp.at))
    }

    /// The sampled trace, if sampling was enabled.
    pub fn trace(&self) -> Option<&Series> {
        self.sampler.as_ref().map(|s| &s.trace)
    }

    /// Consumes the meter, returning the sampled trace, if any.
    pub fn into_trace(self) -> Option<Series> {
        self.sampler.map(|s| s.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_constant_power_exactly() {
        let mut m = PowerMeter::new(Power::from_milliwatts(699));
        m.advance(SimTime::from_secs(1201));
        // 0.699 W * 1201 s = 839.499 J: the idle floor under Table 1.
        assert_eq!(m.total_energy(), Energy::from_microjoules(839_499_000));
    }

    #[test]
    fn integrates_step_changes() {
        let mut m = PowerMeter::new(Power::from_watts(1));
        m.set_power(SimTime::from_secs(2), Power::from_watts(3));
        m.advance(SimTime::from_secs(4));
        assert_eq!(m.total_energy(), Energy::from_joules(2 + 6));
    }

    #[test]
    fn checkpoint_measures_interval() {
        let mut m = PowerMeter::new(Power::from_watts(2));
        m.advance(SimTime::from_secs(5));
        let cp = m.checkpoint();
        m.advance(SimTime::from_secs(8));
        assert_eq!(m.energy_since(cp), Energy::from_joules(6));
        assert_eq!(m.average_power_since(cp), Power::from_watts(2));
    }

    #[test]
    fn sampling_records_agilent_style_trace() {
        let mut m = PowerMeter::new(Power::from_watts(1));
        m.enable_sampling("measured", AGILENT_SAMPLE_INTERVAL);
        m.advance(SimTime::from_secs(1));
        let trace = m.trace().unwrap();
        // Samples at 0.0, 0.2, ..., 1.0 s inclusive.
        assert_eq!(trace.len(), 6);
        assert!(trace.points().iter().all(|&(_, v)| v == 1.0));
    }

    #[test]
    fn samples_capture_power_at_sample_instant() {
        let mut m = PowerMeter::new(Power::from_watts(1));
        m.enable_sampling("measured", SimDuration::from_millis(200));
        m.set_power(SimTime::from_millis(100), Power::from_watts(5));
        m.advance(SimTime::from_millis(400));
        let pts = m.trace().unwrap().points().to_vec();
        // t=0 sampled at 1 W (before the step), t=0.2 and t=0.4 at 5 W.
        assert_eq!(pts[0].1, 1.0);
        assert_eq!(pts[1].1, 5.0);
        assert_eq!(pts[2].1, 5.0);
    }

    #[test]
    #[should_panic(expected = "meter time went backwards")]
    fn rejects_backwards_time() {
        let mut m = PowerMeter::new(Power::ZERO);
        m.advance(SimTime::from_secs(2));
        m.advance(SimTime::from_secs(1));
    }

    #[test]
    fn zero_power_measures_zero() {
        let mut m = PowerMeter::new(Power::ZERO);
        m.advance(SimTime::from_secs(1000));
        assert_eq!(m.total_energy(), Energy::ZERO);
    }

    /// The set_power dedupe must be invisible: a meter fed a redundant
    /// `set_power` every "quantum" (the kernel run-loop pattern) produces a
    /// byte-identical trace and total to one that integrates the same power
    /// history with explicit advances.
    #[test]
    fn redundant_set_power_is_byte_identical() {
        let mut deduped = PowerMeter::new(Power::from_milliwatts(699));
        let mut reference = PowerMeter::new(Power::from_milliwatts(699));
        deduped.enable_sampling("measured", AGILENT_SAMPLE_INTERVAL);
        reference.enable_sampling("measured", AGILENT_SAMPLE_INTERVAL);
        // 10 ms quanta for 2 s; the power only actually changes twice.
        for q in 0..200u64 {
            let t = SimTime::from_millis(10 * q);
            let p = match q {
                50..=99 => Power::from_milliwatts(836),
                _ => Power::from_milliwatts(699),
            };
            deduped.set_power(t, p); // mostly redundant calls
            if p != reference.current_power() {
                reference.set_power(t, p);
            } else {
                reference.advance(t); // the undeduplicated behaviour
            }
            if q == 120 {
                deduped.add_energy(Energy::from_millijoules(3));
                reference.add_energy(Energy::from_millijoules(3));
            }
        }
        let end = SimTime::from_secs(2);
        deduped.advance(end);
        reference.advance(end);
        assert_eq!(deduped.total_energy(), reference.total_energy());
        assert_eq!(
            deduped.trace().unwrap().points(),
            reference.trace().unwrap().points()
        );
    }

    /// One exact update leaves the state per-quantum `set_power` calls
    /// alternating between two levels leave: accumulator, time and power.
    #[test]
    fn alternating_settle_matches_each_change() {
        let (high, low) = (Power::from_milliwatts(836), Power::from_milliwatts(699));
        let quantum = SimDuration::from_millis(10);
        let start = SimTime::from_millis(100);
        let runs = [true, false, false, true, true, false, true, false, false];
        let mut stepped = PowerMeter::new(low);
        stepped.set_power(SimTime::from_millis(30), high);
        let mut settled = PowerMeter::new(low);
        settled.set_power(SimTime::from_millis(30), high);
        let (mut edge, mut before, mut lows) = (0, 0, 0);
        for (i, &run) in runs.iter().enumerate() {
            let t = start + quantum * i as u64;
            stepped.set_power(t, if run { high } else { low });
            if run != (i == 0 || runs[i - 1]) {
                (edge, before) = (i as u64, lows);
            }
            lows += u64::from(!run);
        }
        settled.settle_alternating(start + quantum * edge, low, quantum * before, low);
        assert_eq!(settled.checkpoint(), stepped.checkpoint());
        assert_eq!(settled.current_power(), stepped.current_power());
        let end = SimTime::from_millis(400);
        stepped.advance(end);
        settled.advance(end);
        assert_eq!(settled.checkpoint(), stepped.checkpoint());
    }

    #[test]
    fn instant_energy_adds_to_total() {
        let mut m = PowerMeter::new(Power::from_watts(1));
        m.advance(SimTime::from_secs(1));
        m.add_energy(Energy::from_millijoules(500));
        m.advance(SimTime::from_secs(2));
        assert_eq!(m.total_energy(), Energy::from_millijoules(2_500));
    }
}
