//! `dmtcp` — Distributed MultiThreaded CheckPointing.
//!
//! This crate is the reproduction of the paper's primary contribution: the
//! distributed layer that turns MTCP's single-process images into
//! transparent whole-cluster checkpoints. It implements, over the simulated
//! kernel in `oskit`:
//!
//! * the **checkpoint coordinator** — barriers, interval checkpoints, the
//!   restart-time discovery service, and restart-script generation
//!   ([`coord`]), optionally scaled out through per-node aggregation
//!   relays ([`relay`]);
//! * the **injected hijack layer** — per-process state installed by the
//!   launcher's spawn hook into every traced process, propagated across
//!   `fork`/`exec`/`ssh` ([`hijack`], [`launch`]);
//! * the **checkpoint-manager thread** running the seven-stage, six-barrier
//!   protocol of §4.3: suspend, F_SETOWN leader election, token drain with
//!   peer handshakes, MTCP image write, kernel-buffer refill, resume
//!   ([`manager`]);
//! * **restart** per §4.4: one unified restart process per host recreates
//!   files/ptys/listeners, reconnects sockets through the discovery
//!   service, forks into user processes, rearranges fds with `dup2`,
//!   restores memory/threads via MTCP, and refills kernel buffers
//!   ([`restart`]);
//! * **pid virtualization** with the conflict-detecting fork wrapper
//!   ([`launch`]);
//! * the **`dmtcpaware` programming interface** ([`aware`]);
//! * a high-level [`session::Session`] driver used by examples, tests and
//!   the benchmark harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aware;
pub mod catalog;
pub mod coord;
pub mod gsid;
pub mod hijack;
pub mod launch;
pub mod manager;
mod peers;
pub mod proto;
pub mod relay;
pub mod replay;
pub mod restart;
pub mod session;

pub use launch::{launch_under_dmtcp, Options, OptionsBuilder, Topology};
pub use replay::{ReplayReport, ReplaySchedule};
pub use restart::plan::{MigrationReport, Packing, RestartPlan, RestartPlanBuilder};
pub use session::{CkptError, ExpectCkpt, RestartError, RestartOutcome, Session};
