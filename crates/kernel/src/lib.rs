//! The simulated Cinder kernel.
//!
//! Cinder extends HiStar with reserves and taps (paper §3). This crate is
//! the HiStar-shaped substrate those abstractions live in, reproduced as a
//! deterministic simulation:
//!
//! * [`object`] — the six HiStar first-class object types (§3.1) plus
//!   reserves and taps, with **containers** providing hierarchical
//!   deallocation: unlink a container and everything beneath it — including
//!   taps, whose deletion *revokes power sources* (§5.2) — is garbage
//!   collected.
//! * [`program`] — threads are [`Program`] state machines; each scheduler
//!   quantum the kernel steps the chosen thread's program and charges its
//!   active reserve, so CPU spending is gated by energy exactly as §3.2
//!   prescribes.
//! * [`netstack`] — the boundary where network *policy* plugs in. The
//!   cooperative `netd` and the uncooperative baseline live in
//!   `cinder-net`; the kernel provides the mechanism (blocking threads,
//!   waking them, delivering and billing received packets).
//! * [`offload`] — the cloud-offload boundary: the `offload` syscall ships
//!   a work estimate over the stack, blocks the thread until the response
//!   or a deadline, and bills the traffic like any other send; the backend
//!   itself plugs in behind [`OffloadBackend`].
//! * [`peripheral`] — the backlight and GPS as reserve-gated devices:
//!   enabling one requires a dedicated reserve, the draw is drained from
//!   it by a kernel tap, and an empty reserve forces the hardware down.
//! * [`kernel`] — the [`Kernel`] itself: run loop, syscall surface
//!   ([`Ctx`]), event queue, the ARM9 facade, and the power meter.
//!
//! # Billing across IPC
//!
//! Gate calls move the *calling thread* into the service: work done in a
//! gate is billed to the caller's active reserve with no extra machinery
//! (§5.5.1). The message-passing alternative ([`Ctx::msg_send`]) bills the
//! daemon instead — reproducing §7.1's Cinder-Linux misattribution problem
//! as a measurable ablation.

pub mod errors;
pub mod kernel;
pub mod netstack;
pub mod object;
pub mod offload;
pub mod peripheral;
pub mod program;

pub use cinder_faults::FlapSemantics;
pub use errors::KernelError;
pub use kernel::{
    Ctx, DownloadGrant, FaultCounters, Kernel, KernelConfig, KernelObservables, Obstacle,
    RunProfile, ThreadId,
};
pub use netstack::{NetEnv, NetStack, Pooling, SendRequest, SendVerdict};
pub use object::{Body, KObject, ObjectId, ObjectKind};
pub use offload::{
    OffloadBackend, OffloadOutcome, OffloadRequest, OffloadStats, OffloadStatus, OffloadVerdict,
};
pub use peripheral::PeripheralKind;
pub use program::{FnProgram, NetSendStatus, Program, Step};
