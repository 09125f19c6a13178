//! The aggregator: fleet percentiles, histograms, and CSV/JSON export.
//!
//! Per-device [`DeviceReport`]s roll up into a [`FleetSummary`] —
//! p50/p90/p99 battery lifetime, tail power, radio and starvation
//! distributions, quota exhaustion counts — and export as CSV (one row per
//! device, plus [`cinder_sim::trace`] series over the device index) and a
//! deterministic JSON summary. All writers propagate [`io::Result`] so a
//! read-only output directory is a diagnosable error, not a panic.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use cinder_sim::{Series, SimDuration, SimTime, Summary, TraceSet};

use crate::device::{device_fields, DeviceReport};
use crate::scenario::Scenario;
use crate::slab::ReportSlab;
use crate::stream::{StreamReport, StreamSummary, CHANNELS};

/// A finished fleet run: ordered per-device telemetry plus scenario
/// identity.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Scenario name.
    pub scenario: String,
    /// The fleet seed the run used.
    pub seed: u64,
    /// Per-device horizon.
    pub horizon: SimDuration,
    /// Columnar per-device telemetry; row `i` is device `i`.
    pub devices: ReportSlab,
}

/// Aggregate distributions over the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Device count.
    pub devices: usize,
    /// Projected battery lifetime distribution, hours.
    pub lifetime_h: Option<Summary>,
    /// Average platform power distribution, milliwatts (its p99 is the
    /// fleet's tail power).
    pub avg_power_mw: Option<Summary>,
    /// Radio activation count distribution.
    pub radio_activations: Option<Summary>,
    /// Starvation time distribution, seconds.
    pub starved_s: Option<Summary>,
    /// Total energy the whole fleet drew, joules.
    pub fleet_energy_j: f64,
    /// Devices whose §9 data plan ran out (a send blocked on bytes in the
    /// kernel).
    pub quota_exhausted: usize,
    /// Total sends across the fleet that the kernel held on byte quotas.
    pub bytes_blocked_sends: u64,
    /// Devices holding at least one reserve in debt at the horizon.
    pub devices_in_debt: usize,
    /// Total energy drained by reserve-gated peripherals (backlight + GPS)
    /// across the fleet, joules.
    pub peripheral_energy_j: f64,
    /// Total forced peripheral shutdowns (empty reserve → hardware down)
    /// across the fleet.
    pub forced_shutdowns: u64,
    /// Σ `offload` syscalls across the fleet.
    pub offload_attempts: u64,
    /// Σ offload requests the shared backend admitted.
    pub offload_accepted: u64,
    /// Σ offloads completed by a backend response in time.
    pub offload_completed: u64,
    /// Σ offloads refused up front (backend full, plan uncovered).
    pub offload_rejected: u64,
    /// Σ offloads whose deadline fired before the response.
    pub offload_timed_out: u64,
    /// Per-device mean offload request latency distribution, seconds
    /// (devices with at least one completed offload).
    pub offload_latency_s: Option<Summary>,
    /// Joules per completed offload request: total energy of the devices
    /// that attempted offloads, divided by the fleet's completed requests
    /// (0 when nothing completed).
    pub joules_per_request: f64,
    /// Σ tap/drive re-rates the policy engines applied across the fleet.
    pub policy_rerates: u64,
    /// Σ background-demotion edges across the fleet.
    pub policy_demotions: u64,
    /// Devices whose projected lifetime covered the policy's target.
    pub lifetime_target_hits: usize,
    /// Σ user-model seconds per presence state (Active, Ambient, Away,
    /// Asleep) across the fleet.
    pub presence_s: [u64; 4],
    /// Σ radio link flaps the fault injector landed.
    pub link_flaps: u64,
    /// Σ exact link-down time across the fleet, µs.
    pub link_down_us: u64,
    /// Σ in-flight bytes lost to drop-semantics flaps.
    pub flap_lost_bytes: u64,
    /// Σ transient app kills the fault supervisors landed.
    pub crashes: u64,
    /// Σ program instances respawned after a crash.
    pub restarts: u64,
    /// Σ backoff retries the resilience layers scheduled.
    pub retries: u64,
    /// Σ work items abandoned after the retry budget ran out.
    pub retries_exhausted: u64,
    /// Total battery capacity fade the aging taps drained, joules.
    pub fade_j: f64,
}

impl FleetReport {
    /// Assembles a report (the slab's row order *is* the device-id order).
    pub fn new(scenario: &Scenario, devices: ReportSlab) -> FleetReport {
        FleetReport {
            scenario: scenario.name.clone(),
            seed: scenario.seed,
            horizon: scenario.horizon,
            devices,
        }
    }

    /// Folds the slab once into this run's streamed twin, whose exact
    /// integer totals come through [`StreamSummary::observe`], and collects
    /// each distribution's observations for exact percentiles.
    fn aggregate(&self) -> (StreamReport, [Option<Summary>; CHANNELS]) {
        let mut summary = StreamSummary::new(self.horizon);
        let mut columns: [Vec<f64>; CHANNELS] = Default::default();
        for d in &self.devices {
            summary.observe(&d);
            let observed = StreamSummary::observations(&d, self.horizon);
            for (column, v) in columns.iter_mut().zip(observed) {
                column.extend(v);
            }
        }
        let twin = StreamReport {
            scenario: self.scenario.clone(),
            seed: self.seed,
            horizon: self.horizon,
            summary,
        };
        (twin, columns.map(|column| Summary::from_values(&column)))
    }

    /// The aggregate distributions.
    pub fn summary(&self) -> FleetSummary {
        let (twin, [lifetime_h, avg_power_mw, radio_activations, starved_s, offload_latency_s]) =
            self.aggregate();
        let s = &twin.summary;
        FleetSummary {
            devices: s.devices as usize,
            lifetime_h,
            avg_power_mw,
            radio_activations,
            starved_s,
            fleet_energy_j: s.fleet_energy_j(),
            quota_exhausted: s.quota_exhausted() as usize,
            bytes_blocked_sends: s.bytes_blocked_sends() as u64,
            devices_in_debt: s.devices_in_debt() as usize,
            peripheral_energy_j: s.peripheral_energy_j(),
            forced_shutdowns: s.forced_shutdowns() as u64,
            offload_attempts: s.offload_attempts() as u64,
            offload_accepted: s.offload_accepted() as u64,
            offload_completed: s.offload_completed() as u64,
            offload_rejected: s.offload_rejected() as u64,
            offload_timed_out: s.offload_timed_out() as u64,
            offload_latency_s,
            joules_per_request: s.joules_per_request(),
            policy_rerates: s.policy_rerates() as u64,
            policy_demotions: s.policy_demotions() as u64,
            lifetime_target_hits: s.lifetime_target_hits() as usize,
            presence_s: s.presence_s().map(|seconds| seconds as u64),
            link_flaps: s.link_flaps() as u64,
            link_down_us: s.link_down_us() as u64,
            flap_lost_bytes: s.flap_lost_bytes() as u64,
            crashes: s.crashes() as u64,
            restarts: s.restarts() as u64,
            retries: s.retries() as u64,
            retries_exhausted: s.retries_exhausted() as u64,
            fade_j: s.fade_j(),
        }
    }

    /// A fixed-width histogram of projected lifetimes: `bins` buckets over
    /// `[min, max]`, returned as `(bucket_low_h, count)`.
    pub fn lifetime_histogram(&self, bins: usize) -> Vec<(f64, usize)> {
        let finite: Vec<f64> = self
            .devices
            .lifetimes_h()
            .iter()
            .copied()
            .filter(|l| l.is_finite())
            .collect();
        let (Some(&min), Some(&max)) = (
            finite.iter().min_by(|a, b| a.total_cmp(b)),
            finite.iter().max_by(|a, b| a.total_cmp(b)),
        ) else {
            return Vec::new();
        };
        let bins = bins.max(1);
        let width = ((max - min) / bins as f64).max(f64::EPSILON);
        let mut hist = vec![0usize; bins];
        for l in &finite {
            let i = (((l - min) / width) as usize).min(bins - 1);
            hist[i] += 1;
        }
        hist.into_iter()
            .enumerate()
            .map(|(i, count)| (min + i as f64 * width, count))
            .collect()
    }

    /// Fleet-wide series over the *device index* (the trace machinery's
    /// time axis doubles as an ordinal axis: device `i` sits at `i`
    /// seconds), exportable through [`TraceSet::write_csv_dir`].
    pub fn trace_set(&self) -> TraceSet {
        let mut ts = TraceSet::new();
        let mut lifetime = Series::new("lifetime_by_device", "h");
        let mut power = Series::new("avg_power_by_device", "mW");
        let mut starved = Series::new("starved_by_device", "s");
        let horizon_s = self.horizon.as_secs_f64();
        for d in &self.devices {
            let at = SimTime::from_secs(d.id);
            lifetime.push(at, d.lifetime_h);
            power.push(at, avg_power_mw(&d, horizon_s));
            starved.push(at, d.starved_s);
        }
        ts.insert(lifetime);
        ts.insert(power);
        ts.insert(starved);
        ts
    }

    /// Writes the per-device CSV and the trace series under `dir`,
    /// prefixed with the scenario name.
    pub fn write_csv_dir(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::write(
            dir.join(format!("{}_devices.csv", self.scenario)),
            self.to_csv(),
        )?;
        self.trace_set().write_csv_dir(dir, &self.scenario)
    }

    /// A deterministic JSON rendering of the aggregate summary (fixed key
    /// order, fixed float precision): the artefact the scale benchmark and
    /// CI compare byte-for-byte across thread counts.
    pub fn to_json(&self) -> String {
        let (twin, distributions) = self.aggregate();
        twin.render_json(distributions)
    }
}

/// Average platform power of device `d` over a `horizon_s`-second run, in
/// milliwatts: the CSV's derived column and the power distribution's
/// observation.
pub(crate) fn avg_power_mw(d: &DeviceReport, horizon_s: f64) -> f64 {
    d.total_energy_uj as f64 / horizon_s / 1_000.0
}

/// One CSV cell, comma first: floats at fixed six-decimal precision,
/// everything else through `Display`.
trait CsvCell: std::fmt::Display {
    fn write_cell(&self, out: &mut String) {
        let _ = write!(out, ",{self}");
    }
}

impl CsvCell for f64 {
    fn write_cell(&self, out: &mut String) {
        let _ = write!(out, ",{self:.6}");
    }
}
impl CsvCell for &str {}
impl CsvCell for i64 {}
impl CsvCell for u64 {}
impl CsvCell for u32 {}
impl CsvCell for bool {}

/// A CSV column's header: the field's name unless its row renames it.
macro_rules! csv_header {
    ($name:ident) => {
        stringify!($name)
    };
    ($name:ident $csv:literal) => {
        $csv
    };
}

macro_rules! csv_writer {
    ($($(#[$doc:meta])* $name:ident: $ty:ty $(as $csv:literal)? $(=> $derived:ident)?,)*) => {
        impl FleetReport {
            /// Per-device CSV: one row per device, ordered by id.
            pub fn to_csv(&self) -> String {
                let mut out = String::from("device");
                $(
                    out.push(',');
                    out.push_str(csv_header!($name $($csv)?));
                    $(out.push_str(concat!(",", stringify!($derived)));)?
                )*
                out.push('\n');
                let horizon_s = self.horizon.as_secs_f64();
                for d in &self.devices {
                    let _ = write!(out, "{}", d.id);
                    $(
                        d.$name.write_cell(&mut out);
                        $($derived(&d, horizon_s).write_cell(&mut out);)?
                    )*
                    out.push('\n');
                }
                out
            }
        }
    };
}
device_fields!(csv_writer);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Workload;

    fn device(id: u64, lifetime_h: f64, energy_uj: i64) -> DeviceReport {
        DeviceReport {
            id,
            workload: Workload::Spinner.tag(),
            battery_capacity_uj: 15_000_000_000,
            battery_remaining_uj: 14_000_000_000,
            total_energy_uj: energy_uj,
            cpu_energy_uj: energy_uj / 10,
            backlight_energy_uj: id as i64 * 1_000_000,
            gps_energy_uj: 500_000,
            backlight_shutdowns: u64::from(id == 3),
            gps_shutdowns: u64::from(id == 3) * 2,
            lifetime_h,
            radio_activations: id,
            radio_active_s: 1.0,
            net_bytes: 100,
            ops: 3,
            starved_s: id as f64,
            debt_reserves: u32::from(id % 2 == 0),
            quota_exhausted: id == 1,
            quota_remaining_bytes: 0,
            bytes_blocked_sends: u64::from(id == 1) * 3,
            offload_attempts: id * 2,
            offload_accepted: id,
            offload_completed: id / 2,
            offload_rejected: id,
            offload_timed_out: id - id / 2,
            offload_latency_us: id / 2 * 600_000,
            policy_rerates: id * 3,
            policy_demotions: id,
            presence_active_s: 100,
            presence_ambient_s: 200,
            presence_away_s: 300,
            presence_asleep_s: 400,
            lifetime_target_hit: id >= 5,
            link_flaps: id,
            link_down_us: id * 1_000_000,
            flap_lost_bytes: id * 10,
            crashes: u64::from(id % 3 == 0),
            restarts: u64::from(id % 3 == 0),
            retries: id * 2,
            retries_exhausted: id / 4,
            fade_uj: 1_500_000,
        }
    }

    fn report() -> FleetReport {
        FleetReport {
            scenario: "unit".into(),
            seed: 9,
            horizon: SimDuration::from_secs(3_600),
            devices: (0..10)
                .map(|i| device(i, 4.0 + i as f64, 2_500_000_000))
                .collect(),
        }
    }

    #[test]
    fn summary_aggregates_distributions() {
        let s = report().summary();
        assert_eq!(s.devices, 10);
        let lifetime = s.lifetime_h.unwrap();
        assert_eq!(lifetime.min, 4.0);
        assert_eq!(lifetime.max, 13.0);
        assert_eq!(s.quota_exhausted, 1);
        assert_eq!(s.bytes_blocked_sends, 3);
        assert_eq!(s.devices_in_debt, 5);
        // Σ (id × 1 J) + 10 × 0.5 J of GPS.
        assert!((s.peripheral_energy_j - 50.0).abs() < 1e-9);
        assert_eq!(s.forced_shutdowns, 3);
        // 2500 J × 10 devices.
        assert!((s.fleet_energy_j - 25_000.0).abs() < 1e-9);
        // 2.5 MJ over 3600 s ≈ 694.4 mW for every device.
        let power = s.avg_power_mw.unwrap();
        assert!((power.mean - 694.444).abs() < 0.01, "{}", power.mean);
        // Offload totals: Σ 2id, Σ id, Σ id/2 over ids 0..10.
        assert_eq!(s.offload_attempts, 90);
        assert_eq!(s.offload_accepted, 45);
        assert_eq!(s.offload_completed, 20);
        assert_eq!(s.offload_rejected, 45);
        assert_eq!(s.offload_timed_out, 25);
        // Every completing device's mean latency is exactly 0.6 s.
        let lat = s.offload_latency_s.unwrap();
        assert!((lat.mean - 0.6).abs() < 1e-9, "{}", lat.mean);
        // 9 offloading devices × 2500 J over 20 completions.
        assert!((s.joules_per_request - 9.0 * 2_500.0 / 20.0).abs() < 1e-6);
        // Policy telemetry: Σ 3id, Σ id over ids 0..10; 5 devices hit.
        assert_eq!(s.policy_rerates, 135);
        assert_eq!(s.policy_demotions, 45);
        assert_eq!(s.lifetime_target_hits, 5);
        assert_eq!(s.presence_s, [1_000, 2_000, 3_000, 4_000]);
        // Fault telemetry: Σ id, Σ id × 1 s, Σ 10id; ids 0/3/6/9 crash.
        assert_eq!(s.link_flaps, 45);
        assert_eq!(s.link_down_us, 45_000_000);
        assert_eq!(s.flap_lost_bytes, 450);
        assert_eq!(s.crashes, 4);
        assert_eq!(s.restarts, 4);
        assert_eq!(s.retries, 90);
        assert_eq!(s.retries_exhausted, 8);
        // 1.5 J of fade per device.
        assert!((s.fade_j - 15.0).abs() < 1e-9, "{}", s.fade_j);
    }

    #[test]
    fn histogram_covers_all_finite_devices() {
        let h = report().lifetime_histogram(5);
        assert_eq!(h.len(), 5);
        assert_eq!(h.iter().map(|&(_, c)| c).sum::<usize>(), 10);
        assert_eq!(h[0].0, 4.0);
    }

    #[test]
    fn histogram_of_empty_fleet_is_empty() {
        let empty = FleetReport {
            devices: ReportSlab::new(),
            ..report()
        };
        assert!(empty.lifetime_histogram(4).is_empty());
        assert_eq!(empty.summary().lifetime_h, None);
    }

    #[test]
    fn zero_horizon_fleet_still_renders() {
        // Average power divides by zero and starvation's histogram range
        // is empty, but the retained report renders instead of panicking.
        let zero = FleetReport {
            horizon: SimDuration::ZERO,
            ..report()
        };
        assert_eq!(zero.summary().devices, 10);
        assert!(zero.to_json().contains("\"avg_power_mw\": { \"min\": inf"));
    }

    #[test]
    fn csv_has_one_row_per_device() {
        let csv = report().to_csv();
        assert_eq!(csv.lines().count(), 11); // header + 10 devices
        assert!(csv.starts_with("device,workload,"));
        assert!(csv.contains(",spinner,"));
    }

    #[test]
    fn json_is_deterministic_and_parses_shape() {
        let a = report().to_json();
        let b = report().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"p99\""));
        assert!(a.contains("\"quota_exhausted\": 1"));
        assert!(a.trim_end().ends_with('}'));
    }

    #[test]
    fn write_csv_dir_round_trips() {
        let dir = std::env::temp_dir().join(format!("cinder_fleet_test_{}", std::process::id()));
        report().write_csv_dir(&dir).unwrap();
        let devices = fs::read_to_string(dir.join("unit_devices.csv")).unwrap();
        assert!(devices.starts_with("device,workload,"));
        let series = fs::read_to_string(dir.join("unit_lifetime_by_device.csv")).unwrap();
        assert!(series.starts_with("time_s,lifetime_by_device_h"));
        fs::remove_dir_all(&dir).unwrap();
    }
}
