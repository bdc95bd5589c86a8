//! `mtcp` — MultiThreaded CheckPointing, the lower layer of the paper's
//! two-layer design (§4.1).
//!
//! MTCP owns *single-process* checkpointing: it captures a process's address
//! space and thread contexts into an image file, and restores them. It knows
//! nothing about sockets, coordinators, or other processes — that is the
//! DMTCP layer's job, which drives MTCP through the small API in this crate
//! (`write_checkpoint` / `read_image` / `restore_into`), mirroring the "separate
//! layers with a small API between them" structure the paper credits for
//! maintainability.
//!
//! Images are written through the real [`szip`] compressor when compression
//! is on (the paper's default, via gzip), with a per-region CRC-32 so
//! restore can prove bit-identical reconstruction. Forked checkpointing
//! (§5.3, Table 1) exploits the simulated kernel's copy-on-write `fork`:
//! the parent is blocked only for the COW setup while a child does the
//! compression and I/O in the background.
//!
//! The host work behind that model — packing a capture's regions, unpacking
//! and CRC-checking a restore's — runs on every host core through one
//! crate-private fan-out (`fanout.rs`), with results taken in region order,
//! so no stored byte, error or virtual instant depends on the host.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fanout;
pub mod image;
pub mod incr;
pub mod reader;
pub mod store;
pub mod writer;

pub use image::{CkptImage, HeaderError, ImageName, RegionMeta, StoredAs, IMAGE_MAGIC};
pub use incr::{IncrState, RegionRec};
pub use reader::{read_image, restore_into, verify_image, ImageError, RestoreError, RestoreReport};
pub use store::{ImageStore, ResolvedImage, SinkCommit};
pub use writer::{
    begin_forked_write, write_checkpoint, write_image, write_image_full, ForkedWrite, WriteMode,
    WriteReport, Written,
};
