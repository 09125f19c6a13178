//! Streaming fleet aggregation and checkpoint/resume.
//!
//! The retained path ([`crate::executor::run_fleet_with`]) keeps every
//! [`DeviceReport`] — O(devices) memory — because the CSV exporter needs
//! the rows, and folds them through this same [`StreamSummary`] for its
//! totals. Fleet-scale studies only need the *aggregate*: percentiles,
//! totals, exhaustion counts. This module folds each finished device into
//! a [`StreamSummary`] and drops the report on the floor, so a
//! million-device run costs O(workers × bins) memory.
//!
//! # Exactness and merge order
//!
//! The summary must be byte-identical for any worker count and any chunk
//! assignment, yet workers steal chunks nondeterministically and merge
//! their local summaries in arbitrary order. Every accumulator is
//! therefore *exactly* commutative and associative:
//!
//! * sums are integers (`i128`/`u128`) — float fields are fixed-pointed
//!   per device (`round(v × scale)`), a deterministic per-device map, so
//!   the integer total is independent of addition order;
//! * histogram bins are `u64` counts;
//! * `min`/`max` over finite `f64`s commute exactly.
//!
//! Means and percentiles are *derived at render time* from the merged
//! state, never accumulated in floating point. Percentiles interpolate
//! the fixed-bin histogram with the same `rank = p/100 × (n−1)`
//! convention as [`cinder_sim::Summary`]; they are estimates with one-bin
//! resolution (exact `min`/`max` bracket them), which is the price of
//! O(bins) memory.
//!
//! # Checkpoint/resume
//!
//! Device `i` draws everything from `root.split(i)`, so the RNG "stream
//! position" of a half-finished fleet *is* the next unsimulated device
//! id. A [`FleetCheckpoint`] is that cursor plus the summary state and
//! the scenario identity, serialised as deterministic `key value` text
//! (floats as `f64::to_bits` hex, so round-trips are bit-exact) that
//! [`FleetCheckpoint::from_text`] checks key by key. Resuming replays
//! nothing: `run(0..k)` + checkpoint + `run(k..n)` merges to the same
//! bytes as one `run(0..n)` — a property test pins this down.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use cinder_sim::{json_string, SimDuration, Summary};

use crate::device::{DeviceReport, DeviceScratch};
use crate::report::avg_power_mw;
use crate::scenario::Scenario;

/// Histogram bins per channel. 256 bins over each channel's fixed range
/// gives sub-percent quantile resolution at O(bins) memory.
pub const STREAM_BINS: usize = 256;

/// Devices claimed per steal (mirrors the retained executor's chunking).
const CHUNK: usize = 16;

/// One streamed distribution: exact integer sum + exact min/max + a
/// fixed-bin histogram for quantile estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    /// Fixed-point scale: each observation contributes
    /// `round(v × scale)` to [`Channel::sum_fp`].
    scale: f64,
    /// Inclusive histogram low edge; values below clamp into bin 0.
    lo: f64,
    /// Histogram high edge; values above clamp into the last bin.
    hi: f64,
    /// Finite observations.
    count: u64,
    /// Non-finite observations (excluded from every statistic).
    nonfinite: u64,
    /// Exact fixed-point sum of finite observations.
    sum_fp: i128,
    /// Exact minimum (`+∞` until the first observation).
    min: f64,
    /// Exact maximum (`−∞` until the first observation).
    max: f64,
    /// Per-bin counts; edge bins absorb out-of-range values.
    counts: Vec<u64>,
}

impl Channel {
    /// An empty channel over `[lo, hi]`; in a zero-width range (a zero
    /// horizon's starvation channel) every value lands in an edge bin.
    fn new(scale: f64, lo: f64, hi: f64) -> Channel {
        assert!(hi >= lo, "inverted channel range [{lo}, {hi}]");
        Channel {
            scale,
            lo,
            hi,
            count: 0,
            nonfinite: 0,
            sum_fp: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            counts: vec![0; STREAM_BINS],
        }
    }

    fn width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Folds one observation in.
    fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            self.nonfinite += 1;
            return;
        }
        self.count += 1;
        self.sum_fp += (v * self.scale).round() as i128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let i = if v <= self.lo {
            0
        } else {
            (((v - self.lo) / self.width()) as usize).min(self.counts.len() - 1)
        };
        self.counts[i] += 1;
    }

    /// Exact merge; the two channels must share a configuration.
    fn merge(&mut self, other: &Channel) {
        assert_eq!(
            (self.scale, self.lo, self.hi, self.counts.len()),
            (other.scale, other.lo, other.hi, other.counts.len()),
            "merging differently-configured channels"
        );
        self.count += other.count;
        self.nonfinite += other.nonfinite;
        self.sum_fp += other.sum_fp;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Histogram-interpolated quantile estimate with the
    /// `rank = p/100 × (n−1)` convention; `None` on an empty channel.
    /// `quantile(0)` is the exact minimum, `quantile(100)` the exact
    /// maximum; interior quantiles are clamped to `[min, max]`.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        assert!(
            p.is_finite() && (0.0..=100.0).contains(&p),
            "quantile out of range: {p}"
        );
        if self.count == 0 {
            return None;
        }
        if p == 0.0 {
            return Some(self.min);
        }
        if p == 100.0 {
            return Some(self.max);
        }
        let rank = p / 100.0 * (self.count - 1) as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let before = cum as f64;
            cum += c;
            if (cum as f64) > rank {
                // Spread the bin's c items uniformly across its width and
                // read off the in-bin position of the continuous rank.
                let pos = ((rank - before + 0.5) / c as f64).clamp(0.0, 1.0);
                let v = self.lo + (i as f64 + pos) * self.width();
                return Some(v.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Exact mean (integer sum ÷ count, descaled once).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_fp as f64 / self.scale / self.count as f64)
    }

    /// Renders the channel in [`cinder_sim::Summary`] shape
    /// (min/max/mean exact, percentiles histogram-estimated).
    pub fn summary(&self) -> Option<Summary> {
        (self.count > 0).then(|| Summary {
            min: self.min,
            p50: self.quantile(50.0).unwrap(),
            p90: self.quantile(90.0).unwrap(),
            p99: self.quantile(99.0).unwrap(),
            max: self.max,
            mean: self.mean().unwrap(),
        })
    }

    /// The histogram as `(bin_low_edge, count)` rows.
    pub fn bins(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let w = self.width();
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + i as f64 * w, c))
    }

    fn write_text(&self, name: &str, out: &mut String) {
        let _ = writeln!(out, "channel {name}");
        let _ = writeln!(
            out,
            "cfg {:016x} {:016x} {:016x}",
            self.scale.to_bits(),
            self.lo.to_bits(),
            self.hi.to_bits()
        );
        let _ = writeln!(out, "count {} {}", self.count, self.nonfinite);
        let _ = writeln!(out, "sum_fp {}", self.sum_fp);
        let _ = writeln!(
            out,
            "minmax {:016x} {:016x}",
            self.min.to_bits(),
            self.max.to_bits()
        );
        let mut counts = String::from("counts");
        for c in &self.counts {
            let _ = write!(counts, " {c}");
        }
        let _ = writeln!(out, "{counts}");
    }

    /// Reads the block [`Channel::write_text`] wrote into this empty
    /// channel, whose configuration the stored `cfg` must equal. The bins
    /// must sum to `count`, and a non-empty channel needs `min ≤ max`
    /// (rendering clamps quantiles into that envelope).
    fn read_text(&mut self, name: &str, fields: &mut Fields<'_>) -> Result<(), String> {
        let header = fields.value("channel")?;
        if header != name {
            return Err(format!("expected channel {name}, got {header}"));
        }
        let cfg = parse_bits_row::<3>(fields.value("cfg")?)?;
        let own = [self.scale, self.lo, self.hi];
        if cfg.map(f64::to_bits) != own.map(f64::to_bits) {
            return Err(format!(
                "channel {name}: cfg {cfg:?} differs from the horizon's {own:?}"
            ));
        }
        let (count, nonfinite) = fields.value("count")?.split_once(' ').unwrap_or(("", ""));
        self.count = parse_num(count)?;
        self.nonfinite = parse_num(nonfinite)?;
        self.sum_fp = fields.parse("sum_fp")?;
        [self.min, self.max] = parse_bits_row(fields.value("minmax")?)?;
        let counts = fields.value("counts")?.split(' ').map(parse_num);
        self.counts = counts.collect::<Result<_, _>>()?;
        if self.counts.len() != STREAM_BINS {
            return Err(format!("expected {STREAM_BINS} bins for {name}"));
        }
        let binned: u128 = self.counts.iter().map(|&c| u128::from(c)).sum();
        if binned != u128::from(self.count) {
            return Err(format!(
                "channel {name}: counts sum to {binned} but count is {}",
                self.count
            ));
        }
        // False for a NaN bound as well as for min > max.
        let ordered = self.min <= self.max;
        if self.count > 0 && !ordered {
            return Err(format!(
                "channel {name}: minmax has min {} above max {}",
                self.min, self.max
            ));
        }
        Ok(())
    }
}

/// The fleet-aggregate schema, in checkpoint order: the exact integer
/// totals (doc, name, type, and the per-device value
/// [`StreamSummary::observe`] adds via `From`), then after the `;` the
/// streamed distributions (doc, name, empty channel, and the device's
/// observation; `None` leaves the device out). In the expressions `$d` is
/// the device and `$h` the horizon in seconds. The rows generate the
/// summary's fields, `new`, `observe`, `merge`, the accessors, and both
/// directions of the checkpoint text.
macro_rules! stream_summary {
    (
        |$d:ident, $h:ident|
        $($(#[$tdoc:meta])* $total:ident: $ty:ty = $add:expr,)*
        ;
        $($(#[$cdoc:meta])* $ch:ident: $new:expr => $obs:expr,)*
    ) => {
        /// The mergeable, checkpointable aggregate of a (partial) fleet run.
        ///
        /// Construct with [`StreamSummary::new`], fold devices in with
        /// [`StreamSummary::observe`], combine partial runs with
        /// [`StreamSummary::merge`]. All state is exactly commutative (module
        /// docs), so any observe/merge order over the same device set yields
        /// bit-identical state.
        #[derive(Debug, Clone, PartialEq)]
        pub struct StreamSummary {
            /// Per-device horizon (fixes the power denominator and the
            /// starvation histogram range).
            horizon: SimDuration,
            /// Devices folded in so far.
            pub devices: u64,
            $($(#[$tdoc])* $total: $ty,)*
            $($(#[$cdoc])* pub $ch: Channel,)*
        }

        /// Streamed distributions per summary.
        pub(crate) const CHANNELS: usize = [$(stringify!($ch)),*].len();

        impl StreamSummary {
            /// An empty summary for runs over `horizon`.
            ///
            /// Histogram ranges are fixed up front (they must be, for exact
            /// merges): lifetimes 0–1000 h, power 0–5000 mW, activations
            /// 0–20000, starvation 0–horizon. Out-of-range values clamp into
            /// the edge bins — the exact min/max still bracket the
            /// distribution, only the tail quantile estimate coarsens.
            pub fn new(horizon: SimDuration) -> StreamSummary {
                let $h = horizon.as_secs_f64();
                StreamSummary {
                    horizon,
                    devices: 0,
                    $($total: 0,)*
                    $($ch: $new,)*
                }
            }

            /// Device `d`'s observation for each distribution, in channel
            /// order (`None`: the device is not part of it).
            pub(crate) fn observations(
                $d: &DeviceReport,
                horizon: SimDuration,
            ) -> [Option<f64>; CHANNELS] {
                let $h = horizon.as_secs_f64();
                [$($obs),*]
            }

            /// Folds one device's report into the summary.
            pub fn observe(&mut self, $d: &DeviceReport) {
                self.devices += 1;
                $(self.$total += <$ty>::from($add);)*
                let [$($ch),*] = StreamSummary::observations($d, self.horizon);
                $(if let Some(v) = $ch {
                    self.$ch.observe(v);
                })*
            }

            /// Exact merge of two partial summaries over the same horizon.
            pub fn merge(&mut self, other: &StreamSummary) {
                assert_eq!(self.horizon, other.horizon, "merging different horizons");
                self.devices += other.devices;
                $(self.$total += other.$total;)*
                $(self.$ch.merge(&other.$ch);)*
            }

            $($(#[$tdoc])* pub fn $total(&self) -> $ty {
                self.$total
            })*

            fn channels(&self) -> [(&'static str, &Channel); CHANNELS] {
                [$((stringify!($ch), &self.$ch)),*]
            }

            fn write_text(&self, out: &mut String) {
                let _ = writeln!(out, "horizon_us {}", self.horizon.as_micros());
                let _ = writeln!(out, "observed {}", self.devices);
                $(let _ = writeln!(out, concat!(stringify!($total), " {}"), self.$total);)*
                for (name, ch) in self.channels() {
                    ch.write_text(name, out);
                }
            }

            /// Reads what [`StreamSummary::write_text`] wrote, refusing a
            /// zero horizon before any channel is built from it.
            fn read_text(fields: &mut Fields<'_>) -> Result<StreamSummary, String> {
                let horizon = SimDuration::from_micros(fields.parse("horizon_us")?);
                if horizon == SimDuration::ZERO {
                    return Err("checkpoint horizon_us must be positive".into());
                }
                let mut summary = StreamSummary::new(horizon);
                summary.devices = fields.parse("observed")?;
                $(summary.$total = fields.parse(stringify!($total))?;)*
                $(summary.$ch.read_text(stringify!($ch), fields)?;)*
                Ok(summary)
            }
        }
    };
}

stream_summary! {
    |d, horizon_s|
    /// Exact Σ total_energy_uj.
    total_energy_uj: i128 = d.total_energy_uj,
    /// Exact Σ (backlight + GPS) µJ.
    peripheral_energy_uj: i128 = d.backlight_energy_uj + d.gps_energy_uj,
    /// Devices whose §9 data plan ran out.
    quota_exhausted: u64 = d.quota_exhausted,
    /// Σ sends the kernel held on byte quotas.
    bytes_blocked_sends: u128 = d.bytes_blocked_sends,
    /// Devices holding at least one reserve in debt at the horizon.
    devices_in_debt: u64 = d.debt_reserves > 0,
    /// Σ forced peripheral shutdowns.
    forced_shutdowns: u128 = d.backlight_shutdowns + d.gps_shutdowns,
    /// Σ `offload` syscalls across the fleet.
    offload_attempts: u128 = d.offload_attempts,
    /// Σ offload requests the shared backend admitted.
    offload_accepted: u128 = d.offload_accepted,
    /// Σ offloads completed by a backend response in time.
    offload_completed: u128 = d.offload_completed,
    /// Σ offloads refused up front.
    offload_rejected: u128 = d.offload_rejected,
    /// Σ offloads whose deadline fired before the response.
    offload_timed_out: u128 = d.offload_timed_out,
    /// Σ observed request latency over completed offloads, µs.
    offload_latency_us: u128 = d.offload_latency_us,
    /// Σ total_energy_uj over devices that attempted offloads (the
    /// joules-per-request numerator).
    offload_energy_uj: i128 = if d.offload_attempts > 0 { d.total_energy_uj } else { 0 },
    /// Σ tap/drive re-rates the policy engines applied.
    policy_rerates: u128 = d.policy_rerates,
    /// Σ background-demotion edges.
    policy_demotions: u128 = d.policy_demotions,
    /// Devices whose projected lifetime covered the policy's target.
    lifetime_target_hits: u64 = d.lifetime_target_hit,
    /// Σ user-model seconds spent Active.
    presence_active_s: u128 = d.presence_active_s,
    /// Σ user-model seconds spent Ambient.
    presence_ambient_s: u128 = d.presence_ambient_s,
    /// Σ user-model seconds spent Away.
    presence_away_s: u128 = d.presence_away_s,
    /// Σ user-model seconds spent Asleep.
    presence_asleep_s: u128 = d.presence_asleep_s,
    /// Σ radio link flaps the fault injectors landed.
    link_flaps: u128 = d.link_flaps,
    /// Σ exact link-down time across the fleet, µs.
    link_down_us: u128 = d.link_down_us,
    /// Σ in-flight bytes lost to drop-semantics flaps.
    flap_lost_bytes: u128 = d.flap_lost_bytes,
    /// Σ transient app kills the fault supervisors landed.
    crashes: u128 = d.crashes,
    /// Σ program instances respawned after a crash.
    restarts: u128 = d.restarts,
    /// Σ backoff retries the resilience layers scheduled.
    retries: u128 = d.retries,
    /// Σ work items abandoned after the retry budget ran out.
    retries_exhausted: u128 = d.retries_exhausted,
    /// Exact Σ battery capacity fade, µJ.
    fade_uj: i128 = d.fade_uj,
    ;
    /// Projected lifetime distribution, hours (µh fixed point: exact to a
    /// microhour per device).
    lifetime_h: Channel::new(1e6, 0.0, 1_000.0) => Some(d.lifetime_h),
    /// Average platform power distribution, milliwatts.
    avg_power_mw: Channel::new(1e6, 0.0, 5_000.0) => Some(avg_power_mw(d, horizon_s)),
    /// Radio activation count distribution.
    radio_activations: Channel::new(1.0, 0.0, 20_000.0) => Some(d.radio_activations as f64),
    /// Starvation time distribution, seconds (integer µs rendered as
    /// seconds, so the 1e6 fixed point recovers the original integer
    /// exactly).
    starved_s: Channel::new(1e6, 0.0, horizon_s) => Some(d.starved_s),
    /// Per-device mean offload request latency, seconds (devices with at
    /// least one completed offload). Means live well under a minute; the
    /// exact min/max still bracket any outlier past the clamp.
    offload_latency_s: Channel::new(1e6, 0.0, 60.0) => (d.offload_completed > 0)
        .then(|| d.offload_latency_us as f64 / d.offload_completed as f64 / 1e6),
}

impl StreamSummary {
    /// Total fleet energy in joules (exact integer total, descaled once).
    pub fn fleet_energy_j(&self) -> f64 {
        self.total_energy_uj as f64 / 1e6
    }

    /// Total reserve-gated peripheral energy in joules.
    pub fn peripheral_energy_j(&self) -> f64 {
        self.peripheral_energy_uj as f64 / 1e6
    }

    /// Joules per completed offload request (exact integer totals,
    /// descaled once; 0 when nothing completed).
    pub fn joules_per_request(&self) -> f64 {
        if self.offload_completed == 0 {
            0.0
        } else {
            self.offload_energy_uj as f64 / 1e6 / self.offload_completed as f64
        }
    }

    /// Σ user-model seconds per presence state (Active, Ambient, Away,
    /// Asleep).
    pub fn presence_s(&self) -> [u128; 4] {
        [
            self.presence_active_s,
            self.presence_ambient_s,
            self.presence_away_s,
            self.presence_asleep_s,
        ]
    }

    /// Total battery capacity fade in joules (exact integer total,
    /// descaled once).
    pub fn fade_j(&self) -> f64 {
        self.fade_uj as f64 / 1e6
    }
}

/// A streamed fleet run: scenario identity plus the aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Scenario name.
    pub scenario: String,
    /// Fleet seed.
    pub seed: u64,
    /// Per-device horizon.
    pub horizon: SimDuration,
    /// The aggregate.
    pub summary: StreamSummary,
}

impl StreamReport {
    /// Deterministic JSON in the same shape and key order as
    /// [`crate::FleetReport::to_json`] (percentiles are the streaming
    /// estimates; totals and min/max/mean are exact).
    pub fn to_json(&self) -> String {
        self.render_json(self.summary.channels().map(|(_, ch)| ch.summary()))
    }

    /// The one JSON rendering of a fleet aggregate, shared with the
    /// retained report so both emit the same keys in the same order (fixed
    /// float precision): totals from the summary, distributions in channel
    /// order — exact percentiles for a retained fleet, histogram estimates
    /// for a streamed one.
    pub(crate) fn render_json(
        &self,
        [lifetime_h, avg_power_mw, radio_activations, starved_s, offload_latency_s]: [Option<Summary>;
            CHANNELS],
    ) -> String {
        let s = &self.summary;
        let presence = s.presence_s();
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"scenario\": {},", json_string(&self.scenario));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"devices\": {},", s.devices);
        let _ = writeln!(out, "  \"horizon_s\": {:.3},", self.horizon.as_secs_f64());
        let _ = writeln!(out, "  \"fleet_energy_j\": {:.6},", s.fleet_energy_j());
        let _ = writeln!(out, "  \"lifetime_h\": {},", summary_json(lifetime_h));
        let _ = writeln!(out, "  \"avg_power_mw\": {},", summary_json(avg_power_mw));
        let _ = writeln!(
            out,
            "  \"radio_activations\": {},",
            summary_json(radio_activations)
        );
        let _ = writeln!(out, "  \"starved_s\": {},", summary_json(starved_s));
        let _ = writeln!(out, "  \"quota_exhausted\": {},", s.quota_exhausted());
        let _ = writeln!(
            out,
            "  \"bytes_blocked_sends\": {},",
            s.bytes_blocked_sends()
        );
        let _ = writeln!(
            out,
            "  \"peripheral_energy_j\": {:.6},",
            s.peripheral_energy_j()
        );
        let _ = writeln!(out, "  \"forced_shutdowns\": {},", s.forced_shutdowns());
        let _ = writeln!(out, "  \"offload_attempts\": {},", s.offload_attempts());
        let _ = writeln!(out, "  \"offload_accepted\": {},", s.offload_accepted());
        let _ = writeln!(out, "  \"offload_completed\": {},", s.offload_completed());
        let _ = writeln!(out, "  \"offload_rejected\": {},", s.offload_rejected());
        let _ = writeln!(out, "  \"offload_timed_out\": {},", s.offload_timed_out());
        let _ = writeln!(
            out,
            "  \"offload_latency_s\": {},",
            summary_json(offload_latency_s)
        );
        let _ = writeln!(
            out,
            "  \"joules_per_request\": {:.6},",
            s.joules_per_request()
        );
        let _ = writeln!(out, "  \"policy_rerates\": {},", s.policy_rerates());
        let _ = writeln!(out, "  \"policy_demotions\": {},", s.policy_demotions());
        let _ = writeln!(
            out,
            "  \"lifetime_target_hits\": {},",
            s.lifetime_target_hits()
        );
        let _ = writeln!(
            out,
            "  \"presence_s\": [{}, {}, {}, {}],",
            presence[0], presence[1], presence[2], presence[3]
        );
        let _ = writeln!(out, "  \"link_flaps\": {},", s.link_flaps());
        let _ = writeln!(out, "  \"link_down_us\": {},", s.link_down_us());
        let _ = writeln!(out, "  \"flap_lost_bytes\": {},", s.flap_lost_bytes());
        let _ = writeln!(out, "  \"crashes\": {},", s.crashes());
        let _ = writeln!(out, "  \"restarts\": {},", s.restarts());
        let _ = writeln!(out, "  \"retries\": {},", s.retries());
        let _ = writeln!(out, "  \"retries_exhausted\": {},", s.retries_exhausted());
        let _ = writeln!(out, "  \"fade_j\": {:.6},", s.fade_j());
        let _ = writeln!(out, "  \"devices_in_debt\": {}", s.devices_in_debt());
        out.push_str("}\n");
        out
    }

    /// The five channel histograms as one deterministic CSV
    /// (`metric,bin_lo,count`, all bins, fixed order).
    pub fn histograms_csv(&self) -> String {
        let mut out = String::from("metric,bin_lo,count\n");
        for (name, ch) in self.summary.channels() {
            for (lo, c) in ch.bins() {
                let _ = writeln!(out, "{name},{lo:.6},{c}");
            }
        }
        out
    }
}

/// One distribution block of [`StreamReport::render_json`].
fn summary_json(sum: Option<Summary>) -> String {
    match sum {
        None => "null".to_string(),
        Some(s) => format!(
            "{{ \"min\": {:.6}, \"p50\": {:.6}, \"p90\": {:.6}, \"p99\": {:.6}, \
             \"max\": {:.6}, \"mean\": {:.6} }}",
            s.min, s.p50, s.p90, s.p99, s.max, s.mean
        ),
    }
}

/// A paused streamed run: everything needed to finish it later in a fresh
/// process, serialised by [`FleetCheckpoint::to_text`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCheckpoint {
    /// Scenario name (identity check on resume).
    pub scenario: String,
    /// Fleet seed (identity check on resume).
    pub seed: u64,
    /// Total fleet size.
    pub fleet_devices: u32,
    /// Per-device horizon.
    pub horizon: SimDuration,
    /// First device id not yet simulated. Because device `i` draws
    /// everything from `root.split(i)` (a pure function of seed and id),
    /// this cursor *is* the per-device RNG stream position.
    pub next_device: u64,
    /// Aggregate over devices `0..next_device`.
    pub summary: StreamSummary,
}

/// The checkpoint format this build reads and writes. Every line is a
/// `key value` pair, read strictly in the order the aggregate table
/// declares; a missing or unknown key is an error naming it, so adding a
/// table row needs no version bump. v1–v3 predate that strictness (each
/// was bumped because its successor added accumulators) and are rejected
/// outright rather than migrated. v4 also appends a `checksum` line
/// (FNV-1a 64 over every preceding byte) so truncated or bit-flipped files
/// are rejected by name.
pub const CHECKPOINT_FORMAT: &str = "cinder-fleet-checkpoint v4";

/// FNV-1a 64-bit over the checkpoint body: cheap, dependency-free, and
/// stable across platforms — integrity against truncation and bit rot,
/// not an adversary.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl FleetCheckpoint {
    /// Deterministic text serialisation. Floats travel as `f64::to_bits`
    /// hex, so `from_text(to_text(cp)) == cp` bit-for-bit. The
    /// second-to-last line checksums everything above it.
    pub fn to_text(&self) -> String {
        let mut out = String::from(CHECKPOINT_FORMAT);
        out.push('\n');
        let _ = writeln!(out, "scenario {}", json_string(&self.scenario));
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "fleet_devices {}", self.fleet_devices);
        let _ = writeln!(out, "next_device {}", self.next_device);
        self.summary.write_text(&mut out);
        let sum = fnv1a_64(out.as_bytes());
        let _ = writeln!(out, "checksum {sum:016x}");
        out.push_str("end\n");
        out
    }

    /// Parses [`FleetCheckpoint::to_text`] output. A checkpoint written by
    /// an older format version (v1–v3) is rejected with an error naming
    /// both versions, and one whose checksum line is missing or does not
    /// match its body (truncation, bit flips) is rejected before any field
    /// is trusted. A well-signed body must still have a positive horizon,
    /// each channel's `cfg` equal to the horizon's, bins summing to each
    /// `count` with `min ≤ max` in a non-empty channel, `next_device` at
    /// most `fleet_devices`, and `observed` equal to `next_device`; each
    /// failure is an error naming the key or channel, so resuming never
    /// merges or renders hostile state.
    pub fn from_text(text: &str) -> Result<FleetCheckpoint, String> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or("");
        if header != CHECKPOINT_FORMAT {
            return Err(match header.strip_prefix("cinder-fleet-checkpoint ") {
                Some(version) => format!(
                    "checkpoint format {version} is not supported by this build \
                     (expected {CHECKPOINT_FORMAT}); re-run the checkpoint with a \
                     matching build instead of resuming it"
                ),
                None => format!("not a cinder-fleet checkpoint (first line `{header}`)"),
            });
        }
        // Verify integrity before trusting any field. The scenario name is
        // JSON-escaped onto a single line, so the last `\nchecksum ` in the
        // file is always the real checksum line.
        let body_end = text
            .rfind("\nchecksum ")
            .ok_or("checkpoint is missing its checksum line (truncated?)")?
            + 1;
        let stored_hex = text[body_end..]
            .lines()
            .next()
            .and_then(|line| line.strip_prefix("checksum "))
            .unwrap_or("");
        let stored = u64::from_str_radix(stored_hex, 16)
            .map_err(|_| format!("bad checksum `{stored_hex}`"))?;
        let computed = fnv1a_64(&text.as_bytes()[..body_end]);
        if stored != computed {
            return Err(format!(
                "checkpoint checksum mismatch: stored {stored:016x}, computed \
                 {computed:016x} — the file is truncated or corrupted"
            ));
        }
        let mut fields = Fields(lines);
        let scenario = parse_json_string(fields.value("scenario")?)?;
        let seed = fields.parse("seed")?;
        let fleet_devices = fields.parse("fleet_devices")?;
        let next_device = fields.parse("next_device")?;
        if next_device > u64::from(fleet_devices) {
            return Err(format!(
                "checkpoint next_device {next_device} is beyond fleet_devices {fleet_devices}"
            ));
        }
        let summary = StreamSummary::read_text(&mut fields)?;
        if summary.devices != next_device {
            return Err(format!(
                "checkpoint observed {} devices but next_device is {next_device}",
                summary.devices
            ));
        }
        fields.value("checksum")?;
        fields.value("end")?;
        Ok(FleetCheckpoint {
            scenario,
            seed,
            fleet_devices,
            horizon: summary.horizon,
            next_device,
            summary,
        })
    }
}

/// A checkpoint body as `key value` lines, read strictly in order.
struct Fields<'a>(std::str::Lines<'a>);

impl<'a> Fields<'a> {
    /// The value of the next line, whose key must be `key`.
    fn value(&mut self, key: &str) -> Result<&'a str, String> {
        let line = self.0.next().unwrap_or("");
        let (found, value) = line.split_once(' ').unwrap_or((line, ""));
        if found != key {
            return Err(format!(
                "expected checkpoint key `{key}`, found `{found}`: a key is missing or unknown"
            ));
        }
        Ok(value)
    }

    /// The next line's value parsed as a number.
    fn parse<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, String> {
        parse_num(self.value(key)?).map_err(|e| format!("{e} for `{key}`"))
    }
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number `{s}`"))
}

/// Parses `N` space-separated `f64::to_bits` hex words.
fn parse_bits_row<const N: usize>(s: &str) -> Result<[f64; N], String> {
    let mut out = [0.0; N];
    let mut it = s.split(' ');
    for slot in &mut out {
        let word = it.next().ok_or_else(|| format!("short float row `{s}`"))?;
        let bits = u64::from_str_radix(word, 16).map_err(|_| format!("bad float bits `{word}`"))?;
        *slot = f64::from_bits(bits);
    }
    Ok(out)
}

/// Parses the `json_string` rendering back (enough for names we emit:
/// quoted, with `\"`/`\\`/`\n`/`\t` escapes).
fn parse_json_string(s: &str) -> Result<String, String> {
    let inner = s
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("bad string `{s}`"))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some(c @ ('"' | '\\')) => out.push(c),
            other => return Err(format!("bad escape `\\{other:?}`")),
        }
    }
    Ok(out)
}

/// Streams devices `[from, to)` of `scenario` across `threads` workers and
/// returns the merged summary. Memory is O(workers × bins): specs are
/// derived per device (`spec_for`), reports are folded and dropped.
pub fn stream_fleet_span(scenario: &Scenario, from: u64, to: u64, threads: usize) -> StreamSummary {
    let to = to.min(scenario.devices as u64);
    let from = from.min(to);
    let span = (to - from) as usize;
    let threads = threads.max(1).min(span.max(1));
    let cursor = AtomicUsize::new(0);
    let merged = Mutex::new(StreamSummary::new(scenario.horizon));

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = DeviceScratch::default();
                let mut local = StreamSummary::new(scenario.horizon);
                loop {
                    let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                    if start >= span {
                        break;
                    }
                    let end = (start + CHUNK).min(span);
                    for id in from + start as u64..from + end as u64 {
                        let spec = scenario.spec_for(id);
                        let report = crate::device::simulate_device_with(&spec, &mut scratch);
                        local.observe(&report);
                    }
                }
                // Merge order across workers is arbitrary; every
                // accumulator is exactly commutative, so the result is
                // byte-identical regardless.
                merged
                    .lock()
                    .expect("no worker panics while holding it")
                    .merge(&local);
            });
        }
    });

    merged.into_inner().expect("workers joined")
}

/// Streams the whole fleet on `threads` workers.
pub fn stream_fleet_with(scenario: &Scenario, threads: usize) -> StreamReport {
    StreamReport {
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        horizon: scenario.horizon,
        summary: stream_fleet_span(scenario, 0, scenario.devices as u64, threads),
    }
}

/// Streams the whole fleet on all available cores.
pub fn stream_fleet(scenario: &Scenario) -> StreamReport {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    stream_fleet_with(scenario, threads)
}

/// Streams devices `0..upto` and packages the paused run as a checkpoint.
pub fn checkpoint_fleet(scenario: &Scenario, upto: u64, threads: usize) -> FleetCheckpoint {
    let upto = upto.min(scenario.devices as u64);
    FleetCheckpoint {
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        fleet_devices: scenario.devices,
        horizon: scenario.horizon,
        next_device: upto,
        summary: stream_fleet_span(scenario, 0, upto, threads),
    }
}

/// Finishes a checkpointed run: simulates the remaining devices and merges
/// them into the checkpoint's summary. Errs if `checkpoint` was taken
/// against a different scenario identity.
pub fn resume_fleet(
    checkpoint: &FleetCheckpoint,
    scenario: &Scenario,
    threads: usize,
) -> Result<StreamReport, String> {
    let identity = (
        checkpoint.scenario == scenario.name,
        checkpoint.seed == scenario.seed,
        checkpoint.fleet_devices == scenario.devices,
        checkpoint.horizon == scenario.horizon,
    );
    if identity != (true, true, true, true) {
        return Err(format!(
            "checkpoint is for {}/seed {}/{} devices/{} s, not {}/seed {}/{} devices/{} s",
            checkpoint.scenario,
            checkpoint.seed,
            checkpoint.fleet_devices,
            checkpoint.horizon.as_secs_f64(),
            scenario.name,
            scenario.seed,
            scenario.devices,
            scenario.horizon.as_secs_f64(),
        ));
    }
    let mut summary = checkpoint.summary.clone();
    summary.merge(&stream_fleet_span(
        scenario,
        checkpoint.next_device,
        scenario.devices as u64,
        threads,
    ));
    Ok(StreamReport {
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        horizon: scenario.horizon,
        summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_channel(n: u64) -> Channel {
        // n values spread uniformly over [0, 100).
        let mut ch = Channel::new(1e6, 0.0, 100.0);
        for i in 0..n {
            ch.observe(i as f64 * 100.0 / n as f64);
        }
        ch
    }

    #[test]
    fn channel_quantiles_bracket_and_order() {
        let ch = uniform_channel(1_000);
        let q = |p: f64| ch.quantile(p).unwrap();
        assert_eq!(q(0.0), 0.0);
        assert_eq!(q(100.0), ch.max);
        assert!(q(50.0) < q(90.0) && q(90.0) < q(99.0));
        // One-bin resolution over [0,100) with 256 bins.
        assert!((q(50.0) - 50.0).abs() < 1.0, "{}", q(50.0));
        assert!((q(90.0) - 90.0).abs() < 1.0, "{}", q(90.0));
    }

    #[test]
    fn channel_empty_and_singleton() {
        let empty = Channel::new(1.0, 0.0, 10.0);
        assert_eq!(empty.quantile(50.0), None);
        assert_eq!(empty.summary(), None);
        let mut one = Channel::new(1.0, 0.0, 10.0);
        one.observe(7.0);
        assert_eq!(one.quantile(0.0), Some(7.0));
        assert_eq!(one.quantile(50.0), Some(7.0));
        assert_eq!(one.quantile(100.0), Some(7.0));
        assert_eq!(one.mean(), Some(7.0));
    }

    #[test]
    fn channel_clamps_out_of_range_and_skips_nonfinite() {
        let mut ch = Channel::new(1e6, 0.0, 10.0);
        ch.observe(-5.0);
        ch.observe(50.0);
        ch.observe(f64::INFINITY);
        ch.observe(f64::NAN);
        assert_eq!(ch.count, 2);
        assert_eq!(ch.nonfinite, 2);
        assert_eq!(ch.min, -5.0);
        assert_eq!(ch.max, 50.0);
        assert_eq!(ch.counts[0], 1);
        assert_eq!(ch.counts[STREAM_BINS - 1], 1);
        // Quantiles stay inside the exact envelope despite clamped bins.
        let q = ch.quantile(50.0).unwrap();
        assert!((-5.0..=50.0).contains(&q));
    }

    #[test]
    fn merge_is_exactly_order_independent() {
        let full = uniform_channel(999);
        // Re-observe the same values split across three parts, merged in a
        // different order than observed.
        let mut parts = [
            Channel::new(1e6, 0.0, 100.0),
            Channel::new(1e6, 0.0, 100.0),
            Channel::new(1e6, 0.0, 100.0),
        ];
        for i in 0..999u64 {
            parts[(i % 3) as usize].observe(i as f64 * 100.0 / 999.0);
        }
        let mut merged = parts[2].clone();
        merged.merge(&parts[0]);
        merged.merge(&parts[1]);
        assert_eq!(merged, full);
    }

    #[test]
    fn checkpoint_text_round_trips_bit_exactly() {
        let scenario = Scenario {
            horizon: SimDuration::from_secs(120),
            ..Scenario::mixed("ckpt \"quoted\"", 7, 6)
        };
        let cp = checkpoint_fleet(&scenario, 4, 2);
        let text = cp.to_text();
        let back = FleetCheckpoint::from_text(&text).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(FleetCheckpoint::from_text("").is_err());
        // Old format versions are named in the error, not silently
        // migrated (their layouts are missing accumulators).
        for old in ["v1", "v2", "v3"] {
            let err = FleetCheckpoint::from_text(&format!("cinder-fleet-checkpoint {old}\nnope"))
                .unwrap_err();
            assert!(err.contains(old) && err.contains("v4"), "{err}");
        }
        assert!(FleetCheckpoint::from_text("cinder-fleet-checkpoint v4\nnope").is_err());
    }

    #[test]
    fn from_text_rejects_corruption() {
        let scenario = Scenario {
            horizon: SimDuration::from_secs(60),
            ..Scenario::mixed("integrity", 3, 4)
        };
        let text = checkpoint_fleet(&scenario, 2, 1).to_text();

        // A single flipped bit anywhere in the body breaks the checksum.
        let target = "seed 3";
        let flipped = text.replacen(target, "seed 7", 1);
        assert_ne!(flipped, text);
        let err = FleetCheckpoint::from_text(&flipped).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");

        // A flipped digit inside the checksum line itself is also caught.
        let sum_at = text.rfind("checksum ").unwrap() + "checksum ".len();
        let digit = text.as_bytes()[sum_at] as char;
        let swap = if digit == '0' { '1' } else { '0' };
        let mut bad_sum = text.clone();
        bad_sum.replace_range(sum_at..sum_at + 1, &swap.to_string());
        let err = FleetCheckpoint::from_text(&bad_sum).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");

        // Truncation loses the checksum line entirely.
        let truncated = &text[..text.rfind("checksum ").unwrap()];
        let err = FleetCheckpoint::from_text(truncated).unwrap_err();
        assert!(err.contains("missing its checksum"), "{err}");
    }

    #[test]
    fn resume_rejects_identity_mismatch() {
        let a = Scenario {
            horizon: SimDuration::from_secs(60),
            ..Scenario::mixed("a", 1, 4)
        };
        let b = Scenario {
            horizon: SimDuration::from_secs(60),
            ..Scenario::mixed("b", 1, 4)
        };
        let cp = checkpoint_fleet(&a, 2, 1);
        assert!(resume_fleet(&cp, &b, 1).is_err());
        assert!(resume_fleet(&cp, &a, 1).is_ok());
    }

    /// A real checkpoint of a small fleet, taken at n.
    fn real_checkpoint() -> String {
        let scenario = Scenario {
            horizon: SimDuration::from_secs(60),
            ..Scenario::mixed("hostile", 5, 3)
        };
        checkpoint_fleet(&scenario, 3, 1).to_text()
    }

    /// `text` with a recomputed, valid checksum line.
    fn resign(text: &str) -> String {
        let body_end = text.rfind("\nchecksum ").expect("checksum line") + 1;
        let body = &text[..body_end];
        format!("{body}checksum {:016x}\nend\n", fnv1a_64(body.as_bytes()))
    }

    /// `text` with the first `key` line after `after` set to `key value`,
    /// re-signed so only the field checks stand between it and a resume.
    fn edited(text: &str, after: &str, key: &str, value: &str) -> String {
        let from = text.find(after).expect("anchor");
        let at = from + text[from..].find(&format!("\n{key} ")).expect("key") + 1;
        let end = at + text[at..].find('\n').expect("line end");
        resign(&format!("{}{key} {value}{}", &text[..at], &text[end..]))
    }

    fn refused(text: &str) -> String {
        FleetCheckpoint::from_text(text).expect_err("hostile checkpoint accepted")
    }

    fn bits(v: f64) -> String {
        format!("{:016x}", v.to_bits())
    }

    #[test]
    fn hostile_zero_horizon_is_refused() {
        let err = refused(&edited(&real_checkpoint(), "", "horizon_us", "0"));
        assert!(err.contains("horizon_us"), "{err}");
    }

    #[test]
    fn hostile_degenerate_cfg_is_refused() {
        let cfg = format!("{} {} {}", bits(1e6), bits(0.0), bits(0.0));
        let text = edited(&real_checkpoint(), "channel lifetime_h", "cfg", &cfg);
        let err = refused(&text);
        assert!(err.contains("lifetime_h") && err.contains("cfg"), "{err}");
    }

    #[test]
    fn hostile_foreign_cfg_is_refused() {
        // A valid range, but not the one a 60 s horizon gives starved_s.
        let cfg = format!("{} {} {}", bits(1e6), bits(0.0), bits(120.0));
        let text = edited(&real_checkpoint(), "channel starved_s", "cfg", &cfg);
        let err = refused(&text);
        assert!(err.contains("starved_s") && err.contains("cfg"), "{err}");
    }

    #[test]
    fn hostile_inverted_minmax_is_refused() {
        let minmax = format!("{} {}", bits(5.0), bits(1.0));
        let text = edited(&real_checkpoint(), "channel lifetime_h", "minmax", &minmax);
        let err = refused(&text);
        assert!(
            err.contains("lifetime_h") && err.contains("minmax"),
            "{err}"
        );
    }

    #[test]
    fn hostile_observed_count_is_refused() {
        let err = refused(&edited(&real_checkpoint(), "", "observed", "2"));
        assert!(
            err.contains("observed") && err.contains("next_device"),
            "{err}"
        );
    }

    #[test]
    fn hostile_cursor_beyond_fleet_is_refused() {
        let beyond = edited(&real_checkpoint(), "", "next_device", "5");
        let err = refused(&edited(&beyond, "", "observed", "5"));
        assert!(
            err.contains("next_device") && err.contains("fleet_devices"),
            "{err}"
        );
    }

    #[test]
    fn hostile_bin_total_is_refused() {
        let text = edited(&real_checkpoint(), "channel lifetime_h", "count", "4 0");
        let err = refused(&text);
        assert!(
            err.contains("lifetime_h") && err.contains("counts"),
            "{err}"
        );
    }

    #[test]
    fn missing_checkpoint_key_is_named() {
        let text = real_checkpoint();
        let line = text
            .lines()
            .find(|l| l.starts_with("retries_exhausted "))
            .expect("accumulator line");
        let err = refused(&resign(&text.replacen(&format!("{line}\n"), "", 1)));
        assert!(err.contains("retries_exhausted"), "{err}");
    }

    #[test]
    fn unknown_checkpoint_key_is_named() {
        let text = real_checkpoint().replacen("\nretries ", "\nbogus_total 1\nretries ", 1);
        let err = refused(&resign(&text));
        assert!(err.contains("bogus_total"), "{err}");
    }
}
