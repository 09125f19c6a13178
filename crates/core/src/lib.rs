//! The Cinder paper's primary contribution: **reserves** and **taps**.
//!
//! A *reserve* describes a right to use a given quantity of a resource
//! (paper §3.2); a *tap* transfers resources between two reserves at a rate
//! (§3.3). Together they form a directed *resource consumption graph* (§3.4)
//! rooted at the battery, giving applications three control mechanisms the
//! paper argues an energy-aware OS must provide (§2.2):
//!
//! * **isolation** — a thread can only spend what its reserves hold;
//! * **delegation** — reserves/taps can be shared or pointed at another
//!   principal's reserve, pooling resources;
//! * **subdivision** — a reserve can be split, and taps parcel out rates.
//!
//! This crate is deliberately kernel-agnostic: it depends only on the
//! simulation substrate (`cinder-sim`) and the label model (`cinder-label`).
//! The simulated kernel (`cinder-kernel`) embeds a [`ResourceGraph`] and a
//! [`ResourceScheduler`] and drives them from its run loop.
//!
//! # Modules
//!
//! * [`arena`] — generational arena storage for reserves and taps.
//! * [`reserve`] — the reserve object and its accounting statistics.
//! * [`tap`] — tap rates: constant and (backward-)proportional.
//! * [`graph`] — the resource consumption graph: creation, transfer,
//!   consumption, batch flows, decay, strict anti-hoarding mode.
//! * [`flow`] — the `FlowEngine` executing batch flows: a per-source
//!   adjacency index maintained across tap/reserve mutations, reusable
//!   snapshot scratch instead of per-tick allocation, quiescent-source
//!   skipping, and closed-form fast-forward of all-constant tick runs —
//!   bit-identical to the naive reference loop
//!   (`ResourceGraph::flow_until_reference`, built for tests and under the
//!   `reference-flow` feature), which differential property tests enforce.
//! * [`decay`] — the global half-life decay that prevents hoarding (§5.2.2).
//! * [`sched`] — the resource-aware scheduler: threads whose reserves are
//!   empty cannot run (§3.2), with per-kind reserve sets.
//! * [`accounting`] — sliding-window power estimation for the paper's
//!   stacked accounting figures (Figs 9, 12).
//! * [`kind`] — typed resource kinds (§9 made first-class): every reserve
//!   declares whether it holds energy, network bytes, or SMS messages;
//!   taps/transfers are kind-checked and conservation holds per kind.
//! * [`quota`] — quota helpers over [`kind`]: byte/SMS grain conversions.
//!
//! # Examples
//!
//! Figure 1 of the paper — a 15 kJ battery feeding a web browser through a
//! 750 mW tap, guaranteeing at least 5 hours of battery:
//!
//! ```
//! use cinder_core::{Actor, RateSpec, ResourceGraph};
//! use cinder_sim::{Energy, Power, SimTime};
//!
//! let mut g = ResourceGraph::new(Energy::from_joules(15_000));
//! let kernel = Actor::kernel();
//! let browser = g
//!     .create_reserve(&kernel, "web browser", Default::default())
//!     .unwrap();
//! let _tap = g
//!     .create_tap(
//!         &kernel,
//!         "750mW",
//!         g.battery(),
//!         browser,
//!         RateSpec::constant(Power::from_milliwatts(750)),
//!         Default::default(),
//!     )
//!     .unwrap();
//!
//! // Even a maximally aggressive browser cannot outspend the tap:
//! // 15 kJ / 0.75 W ≈ 5.6 hours.
//! g.flow_until(SimTime::from_secs(3600));
//! let drawn = Energy::from_joules(15_000) - g.level(&kernel, g.battery()).unwrap();
//! assert!(drawn <= Energy::from_joules(2_701)); // ≤ 0.75 W × 3600 s (+tick)
//! ```

pub mod accounting;
pub mod arena;
pub mod decay;
pub mod errors;
pub mod flow;
pub mod graph;
pub mod kind;
pub mod quota;
pub mod reserve;
pub mod sched;
pub mod tap;

pub use accounting::PowerEstimator;
pub use arena::{Arena, RawId};
pub use decay::DecayConfig;
pub use errors::GraphError;
pub use graph::{Actor, GraphConfig, PoolRefusal, ReserveId, ResourceGraph, TapId};
pub use kind::{Quantity, Rate, ResourceKind};
pub use reserve::{Reserve, ReserveStats};
pub use sched::{ResourceScheduler, SchedulerConfig, TaskId, TaskState};
pub use tap::{RateSpec, Tap};
