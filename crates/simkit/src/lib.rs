//! `simkit` — the deterministic discrete-event simulation kernel underneath
//! the DMTCP reproduction.
//!
//! The crate provides five small, orthogonal pieces:
//!
//! * [`time`] — virtual time as integer nanoseconds ([`Nanos`]), so every run
//!   is exactly reproducible (no floating-point drift in the event queue).
//! * [`engine`] — the event queue generic over the *world* type. The world
//!   owns all mutable simulation state; events are boxed `FnOnce` closures
//!   that receive `(&mut W, &mut Sim<W>)`, or zero-allocation keyed
//!   function pointers for hot periodic work. The queue is one
//!   `BinaryHeap` ordered by `(time, schedule sequence)`.
//! * [`resource`] — analytic hardware resources (FIFO bandwidth pipes, core
//!   pools) used to charge virtual time for disk writes, NIC transfers,
//!   compression, and similar work.
//! * [`rng`] — a deterministic SplitMix64 / xoshiro256++ generator that is
//!   stable across toolchain and dependency upgrades (unlike `rand`'s
//!   `SmallRng`, whose algorithm is unspecified).
//! * [`snap`] — a tiny self-describing-enough binary codec used to serialize
//!   simulated program state into thread "stack regions", and checkpoint
//!   image metadata onto simulated disks.
//!
//! Nothing in this crate knows about operating systems or checkpointing; it
//! is the analogue of "physics" for the simulated cluster.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod resource;
pub mod ring;
pub mod rng;
pub mod snap;
pub mod stats;
pub mod time;

pub use engine::{RunOutcome, Sim};
pub use ring::Ring;
pub use rng::{mix2, splitmix64, DetRng};
pub use snap::{Snap, SnapError, SnapReader, SnapWriter};
pub use stats::Summary;
pub use time::Nanos;
