//! Sliding-window power estimation.
//!
//! The paper's stacked accounting figures (Figs 9 and 12) plot "Cinder's CPU
//! energy accounting estimates" per process: the energy charged to each
//! principal over a trailing window, expressed as a power. [`PowerEstimator`]
//! reproduces that: consumption deltas are recorded as they are charged, and
//! `estimate` reports the windowed average (the paper's measured line is
//! "averaged over 1 second intervals").

use std::collections::VecDeque;

use cinder_sim::{Energy, Power, SimDuration, SimTime};

/// A trailing-window estimator of consumption power.
#[derive(Debug, Clone)]
pub struct PowerEstimator {
    window: SimDuration,
    events: VecDeque<(SimTime, Energy)>,
    total_in_window: Energy,
    lifetime_total: Energy,
}

impl PowerEstimator {
    /// Creates an estimator with the given trailing window (the figures use
    /// 1 s).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "estimator window must be positive");
        PowerEstimator {
            window,
            events: VecDeque::new(),
            total_in_window: Energy::ZERO,
            lifetime_total: Energy::ZERO,
        }
    }

    /// The configured window.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Records a consumption event of `amount` at time `t`.
    pub fn record(&mut self, t: SimTime, amount: Energy) {
        if amount.is_zero() {
            return;
        }
        self.events.push_back((t, amount));
        self.total_in_window += amount;
        self.lifetime_total += amount;
        self.expire(t);
    }

    /// Counts `amount` in the lifetime total only: a record already expired.
    pub fn record_expired(&mut self, amount: Energy) {
        self.lifetime_total += amount;
    }

    /// The estimated power at time `now`: energy recorded in
    /// `(now - window, now]` divided by the window.
    pub fn estimate(&mut self, now: SimTime) -> Power {
        self.expire(now);
        self.total_in_window
            .clamp_non_negative()
            .average_power_over(self.window)
    }

    /// Total energy ever recorded.
    pub fn lifetime_total(&self) -> Energy {
        self.lifetime_total
    }

    fn expire(&mut self, now: SimTime) {
        // Events at or before `now - window` fall out (half-open window).
        while let Some(&(t, amount)) = self.events.front() {
            if t.as_micros() + self.window.as_micros() <= now.as_micros() {
                self.events.pop_front();
                self.total_in_window -= amount;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> PowerEstimator {
        PowerEstimator::new(SimDuration::from_secs(1))
    }

    #[test]
    fn steady_charging_estimates_true_power() {
        // 1.37 mJ every 10 ms = 137 mW, the paper's CPU power.
        let mut e = est();
        for i in 0..200 {
            e.record(
                SimTime::from_millis(10 * i),
                Energy::from_microjoules(1_370),
            );
        }
        let p = e.estimate(SimTime::from_millis(1_999));
        let mw = p.as_milliwatts_f64();
        assert!((mw - 137.0).abs() < 2.0, "estimate {mw} mW");
    }

    #[test]
    fn estimate_decays_to_zero_after_idle() {
        let mut e = est();
        e.record(SimTime::ZERO, Energy::from_millijoules(100));
        assert!(e.estimate(SimTime::from_millis(500)).as_microwatts() > 0);
        assert_eq!(e.estimate(SimTime::from_secs(2)), Power::ZERO);
        assert_eq!(e.lifetime_total(), Energy::from_millijoules(100));
    }

    #[test]
    fn window_boundary_is_half_open() {
        let mut e = est();
        e.record(SimTime::ZERO, Energy::from_millijoules(1));
        // At exactly t = window the event has aged out.
        assert_eq!(e.estimate(SimTime::from_secs(1)), Power::ZERO);
    }

    #[test]
    fn burst_shows_then_fades() {
        let mut e = est();
        e.record(SimTime::from_secs(10), Energy::from_millijoules(137));
        let during = e.estimate(SimTime::from_millis(10_500));
        assert_eq!(during, Power::from_milliwatts(137));
        let after = e.estimate(SimTime::from_millis(11_001));
        assert_eq!(after, Power::ZERO);
    }

    #[test]
    fn zero_amounts_are_ignored() {
        let mut e = est();
        e.record(SimTime::ZERO, Energy::ZERO);
        assert_eq!(e.lifetime_total(), Energy::ZERO);
        assert_eq!(e.estimate(SimTime::ZERO), Power::ZERO);
    }
}
