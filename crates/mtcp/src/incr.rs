//! Incremental (dirty-region) checkpoint state.
//!
//! At generation N ≥ 2 the writer consults two things: the address space's
//! dirty-region set (armed by the first capture, maintained by
//! `oskit::mem`), and the [`IncrState`] cached here from the previous
//! generation's capture — per-region CRCs, stored sizes, and payload
//! offsets within the prior image file. A region that is not dirty is
//! emitted without being read, compressed, or hashed again: its
//! [`crate::image::RegionMeta`] is rebuilt from the cache (valid because
//! szip is deterministic — same raw bytes, same compressed bytes) and its
//! payload becomes an *alias extent*, a virtual chunk whose metadata names
//! a byte range of the previous image. The installed
//! [`crate::store::ImageStore`] resolves alias extents into references to
//! chunks it already holds; the plain-file path never sees one (with no
//! store, or a store that cannot alias, the writer falls back to a full
//! capture).
//!
//! ## Lifecycle — reset at CKPT_WRITTEN, not REFILLED
//!
//! The dirty set taken at capture time is *pending* until the image is
//! durable. An inline write is durable when `write_image` returns, so the
//! set is dropped there. A forked write is durable only at the
//! `CKPT_WRITTEN` barrier: [`crate::writer::ForkedWrite::finish`] commits
//! the pending state then; if the generation aborts mid-drain,
//! [`crate::writer::ForkedWrite::abort`] merges the taken set back into
//! the live address space and discards the pending cache — the next
//! incremental capture is always relative to the last *durable* image.
//!
//! A restore is the other way a process comes to match a durable image:
//! [`crate::reader::restore_into`] has just checked every region of the
//! image against the bytes it mapped, so it rebuilds the state from that
//! image's region table and arms dirty tracking on the new address space —
//! a restarted or migrated process's next capture aliases the image it was
//! restored from. The state dies with the address space it describes: at
//! process exit (the world's [`oskit::world::ExitHook`]) and whenever a
//! restore replaces the memory under it.

use crate::image::StoredAs;
use oskit::mem::RegionId;
use oskit::world::{Pid, World};
use simkit::{Snap, SnapReader, SnapWriter};
use std::collections::BTreeMap;

/// Magic prefix of an alias extent's virtual-chunk metadata.
pub const ALIAS_MAGIC: &[u8; 8] = b"MTCPALS1";

/// Encode alias-extent metadata: `len` stored bytes at byte offset `off`
/// of the previous image `prev_path`.
pub fn encode_alias(prev_path: &str, off: u64, len: u64) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_raw(ALIAS_MAGIC);
    w.put_varint(off);
    w.put_varint(len);
    prev_path.to_string().save(&mut w);
    w.into_bytes()
}

/// Decode alias-extent metadata; `None` when `meta` is not an alias.
pub fn decode_alias(meta: &[u8]) -> Option<(String, u64, u64)> {
    if meta.len() < ALIAS_MAGIC.len() || &meta[..ALIAS_MAGIC.len()] != ALIAS_MAGIC {
        return None;
    }
    let mut r = SnapReader::new(&meta[ALIAS_MAGIC.len()..]);
    let off = r.get_varint().ok()?;
    let len = r.get_varint().ok()?;
    let path = String::load(&mut r).ok()?;
    Some((path, off, len))
}

/// What the previous capture recorded about one region.
#[derive(Debug, Clone)]
pub struct RegionRec {
    /// Raw (uncompressed) length at capture time.
    pub raw_len: u64,
    /// CRC-32 of the raw bytes (0 for synthetic).
    pub crc: u32,
    /// Stored representation (carries the compressed payload size).
    pub stored: StoredAs,
    /// Byte offset of this region's payload within the image file.
    pub payload_off: u64,
}

/// Per-process cache from the last durable capture.
#[derive(Debug, Clone, Default)]
pub struct IncrState {
    /// Path of the image this state describes.
    pub prev_path: String,
    /// Cached records keyed by live region id.
    pub regions: BTreeMap<RegionId, RegionRec>,
}

/// The world's per-process incremental state (a typed world extension).
#[derive(Default)]
struct IncrStates(BTreeMap<Pid, IncrState>);

/// Present in a world exactly while incremental capture is switched off.
#[derive(Default)]
struct IncrDisabled;

/// The cached state for `pid`, if a prior compressed capture recorded one.
pub fn state_of(w: &World, pid: Pid) -> Option<IncrState> {
    w.ext_ref::<IncrStates>()?.0.get(&pid).cloned()
}

/// Install `state` as `pid`'s last-durable-capture cache. A world that
/// holds one drops it when its process exits.
pub fn commit_state(w: &mut World, pid: Pid, state: IncrState) {
    w.ext::<IncrStates>().0.insert(pid, state);
    w.exit_hook
        .get_or_insert_with(|| std::rc::Rc::new(clear_state));
}

/// Drop `pid`'s cache (process death / teardown).
pub fn clear_state(w: &mut World, pid: Pid) {
    w.ext::<IncrStates>().0.remove(&pid);
}

/// Globally enable/disable incremental capture (default: enabled). Bench
/// baselines disable it to measure the full-capture cost on the same
/// workload; captures still arm dirty tracking and record state, so
/// re-enabling takes effect at the next generation.
pub fn set_enabled(w: &mut World, enabled: bool) {
    if enabled {
        w.ext_remove::<IncrDisabled>();
    } else {
        w.ext::<IncrDisabled>();
    }
}

/// Whether incremental capture is enabled.
pub fn enabled(w: &World) -> bool {
    w.ext_ref::<IncrDisabled>().is_none()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alias_meta_roundtrips() {
        let meta = encode_alias("/shared/ckpt/ckpt_1_gen3.dmtcp", 4096, 123_456);
        assert_eq!(
            decode_alias(&meta),
            Some(("/shared/ckpt/ckpt_1_gen3.dmtcp".to_string(), 4096, 123_456))
        );
    }

    #[test]
    fn non_alias_meta_rejected() {
        assert_eq!(decode_alias(b""), None);
        assert_eq!(decode_alias(b"NOTALIAS........."), None);
        // A truncated alias must not decode.
        let meta = encode_alias("/p", 1, 2);
        assert_eq!(decode_alias(&meta[..meta.len() - 1]), None);
    }
}
