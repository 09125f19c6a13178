//! Population-scale Cinder studies: a *fleet* of independent, deterministic
//! device simulations with aggregate telemetry.
//!
//! The paper evaluates Cinder on a single HTC Dream; this crate spends the
//! simulator's speed on the regime fleet-level energy monitoring work
//! targets — thousands of heterogeneous devices, each running one of the
//! paper's §5/§6 application workloads with device-local parameter jitter.
//!
//! The layering sits strictly *above* the kernel:
//!
//! ```text
//!   scenario ──► specs ──► device driver (one Kernel each) ──► reports
//!      │                        ▲                                │
//!      │        sharded executor (std::thread workers,           │
//!      │        chunked work stealing, id-ordered results)       │
//!      └────────────────────────┴────────────────────────────────┤
//!                                              aggregator (percentiles,
//!                                              histograms, CSV/JSON)
//! ```
//!
//! # Determinism contract
//!
//! * One fleet seed fixes everything. Device `i` draws its parameters from
//!   [`cinder_sim::SimRng::split`]`(i)` — an independent child stream — so
//!   its behaviour does not depend on how many devices surround it.
//! * Devices never share state; each runs its own [`cinder_kernel::Kernel`]
//!   to the horizon (with the kernel's bit-exact idle, frozen, and pooled
//!   jumps on).
//! * The executor assembles results **by device id**, so the aggregate
//!   report is byte-identical for *any* worker thread count — property
//!   tests in `tests/fleet_props.rs` enforce this.
//!
//! # Modules
//!
//! * [`scenario`] — the population model: workload mixture, battery and
//!   rate jitter, optional §9 data-plan quota.
//! * [`device`] — builds one kernel from a [`scenario::DeviceSpec`], runs
//!   it in one loop whose spans end only at policy ticks and fault
//!   boundaries (the kernel's jump certificate crosses the rest), and
//!   extracts a compact [`device::DeviceReport`], whose one field table
//!   also generates the slab's columns and the CSV.
//! * [`executor`] — shards devices across `std::thread` workers into a
//!   retained [`slab::ReportSlab`].
//! * [`slab`] — struct-of-arrays storage of per-device telemetry.
//! * [`stream`] — O(workers × bins) streaming aggregation with exact
//!   merges (the one aggregation path: the retained summary folds through
//!   it too), plus deterministic, strictly keyed checkpoint/resume.
//! * [`report`] — exact fleet percentiles (p50/p90/p99 lifetime, tail
//!   power) and CSV/JSON export via [`cinder_sim::trace`].
//! * [`policy_driver`] — kernel wiring for `cinder-policy`'s pure
//!   user-aware policies: observables in at grid-aligned ticks, tap
//!   re-rates and drive caps out through root syscalls.
//! * [`fault_driver`] — kernel wiring for `cinder-faults`' pure fault
//!   schedules: link flaps, kill/respawn supervision, and the battery
//!   aging tap, all at quantum-aligned span boundaries.

pub mod device;
pub mod executor;
pub mod fault_driver;
pub mod policy_driver;
pub mod report;
pub mod scenario;
pub mod slab;
pub mod stream;

pub use cinder_faults::{FaultConfig, FaultPlan, FlapSemantics, OutageSpec, RetryPolicy};
pub use cinder_policy::{PolicyConfig, PolicyVariant, PresenceState, PresenceTrace};
pub use device::{simulate_device, simulate_device_with, DeviceReport, DeviceScratch};
pub use executor::{run_fleet, run_fleet_with};
pub use fault_driver::FaultRuntime;
pub use policy_driver::PolicyRuntime;
pub use report::{FleetReport, FleetSummary};
pub use scenario::{DataPlan, DeviceSpec, Scenario, Workload};
pub use slab::ReportSlab;
pub use stream::{
    checkpoint_fleet, resume_fleet, stream_fleet, stream_fleet_span, stream_fleet_with,
    FleetCheckpoint, StreamReport, StreamSummary, CHECKPOINT_FORMAT,
};
