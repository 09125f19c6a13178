//! Struct-of-arrays storage for retained per-device telemetry.
//!
//! A million-device retained run used to hold `Vec<Option<DeviceReport>>`
//! — an `Option` discriminant per slot and every aggregation pass striding
//! over full 200-byte rows to read one column. [`ReportSlab`] stores each
//! [`DeviceReport`] field in its own dense arena keyed by device id
//! (device `i` is row `i`), so a column scan (the lifetime histogram)
//! touches only the bytes it reads, slots need no presence tag, and
//! workers deposit whole chunks with plain column writes. Rows
//! materialise back into [`DeviceReport`] values on demand — the public
//! API stays value-shaped while the storage stays columnar.

use crate::device::{device_fields, DeviceReport};

macro_rules! slab_columns {
    ($($(#[$doc:meta])* $name:ident: $ty:ty $(as $csv:literal)? $(=> $derived:ident)?,)*) => {
        /// Columnar (struct-of-arrays) storage of device reports, keyed by dense
        /// device id. Row `i` holds device `i`; all columns always have equal
        /// length.
        #[derive(Debug, Clone, PartialEq, Default)]
        pub struct ReportSlab {
            $($name: Vec<$ty>,)*
        }

        impl ReportSlab {
            /// A slab with `n` zeroed rows, ready for [`ReportSlab::set`] by any
            /// worker order.
            pub fn with_len(n: usize) -> ReportSlab {
                ReportSlab {
                    $($name: vec![Default::default(); n],)*
                }
            }

            /// Writes `report` into row `i` (the report's own `id` is *not*
            /// consulted — the caller owns the id→row mapping).
            ///
            /// # Panics
            ///
            /// Panics if `i` is out of bounds.
            pub fn set(&mut self, i: usize, report: &DeviceReport) {
                $(self.$name[i] = report.$name;)*
            }

            /// Materialises row `i` as a [`DeviceReport`] (the row index is the
            /// device id).
            ///
            /// # Panics
            ///
            /// Panics if `i` is out of bounds.
            pub fn get(&self, i: usize) -> DeviceReport {
                DeviceReport {
                    id: i as u64,
                    $($name: self.$name[i],)*
                }
            }
        }
    };
}
device_fields!(slab_columns);

impl ReportSlab {
    /// An empty slab.
    pub fn new() -> ReportSlab {
        ReportSlab::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.workload.len()
    }

    /// Whether the slab holds no rows.
    pub fn is_empty(&self) -> bool {
        self.workload.is_empty()
    }

    /// Iterates rows as materialised [`DeviceReport`] values, in device-id
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = DeviceReport> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Direct view of the lifetime column (the lifetime histogram's scan).
    pub fn lifetimes_h(&self) -> &[f64] {
        &self.lifetime_h
    }
}

impl FromIterator<DeviceReport> for ReportSlab {
    fn from_iter<I: IntoIterator<Item = DeviceReport>>(iter: I) -> ReportSlab {
        let rows: Vec<DeviceReport> = iter.into_iter().collect();
        let mut slab = ReportSlab::with_len(rows.len());
        for (i, row) in rows.iter().enumerate() {
            slab.set(i, row);
        }
        slab
    }
}

impl<'a> IntoIterator for &'a ReportSlab {
    type Item = DeviceReport;
    type IntoIter = Box<dyn Iterator<Item = DeviceReport> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: u64) -> DeviceReport {
        DeviceReport {
            id,
            workload: "spinner",
            battery_capacity_uj: 1 + id as i64,
            battery_remaining_uj: 2,
            total_energy_uj: 3,
            cpu_energy_uj: 4,
            backlight_energy_uj: 5,
            gps_energy_uj: 6,
            backlight_shutdowns: 7,
            gps_shutdowns: 8,
            lifetime_h: 9.5,
            radio_activations: 10,
            radio_active_s: 11.5,
            net_bytes: 12,
            ops: 13,
            starved_s: 14.5,
            debt_reserves: 15,
            quota_exhausted: true,
            quota_remaining_bytes: -16,
            bytes_blocked_sends: 17,
            offload_attempts: 18,
            offload_accepted: 19,
            offload_completed: 20,
            offload_rejected: 21,
            offload_timed_out: 22,
            offload_latency_us: 23,
            policy_rerates: 24,
            policy_demotions: 25,
            presence_active_s: 26,
            presence_ambient_s: 27,
            presence_away_s: 28,
            presence_asleep_s: 29,
            lifetime_target_hit: true,
            link_flaps: 30,
            link_down_us: 31,
            flap_lost_bytes: 32,
            crashes: 33,
            restarts: 34,
            retries: 35,
            retries_exhausted: 36,
            fade_uj: -37,
        }
    }

    #[test]
    fn set_get_round_trips_every_field() {
        let mut slab = ReportSlab::with_len(3);
        slab.set(2, &sample(2));
        assert_eq!(slab.get(2), sample(2));
        assert_eq!(slab.len(), 3);
    }

    #[test]
    fn push_and_iter_preserve_order() {
        let slab: ReportSlab = (0..5).map(sample).collect();
        let ids: Vec<u64> = slab.iter().map(|d| d.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(slab.lifetimes_h().len(), 5);
    }

    #[test]
    fn out_of_order_set_matches_ordered_push() {
        let mut a = ReportSlab::with_len(4);
        for i in [3usize, 0, 2, 1] {
            a.set(i, &sample(i as u64));
        }
        let b: ReportSlab = (0..4).map(sample).collect();
        assert_eq!(a, b);
    }
}
