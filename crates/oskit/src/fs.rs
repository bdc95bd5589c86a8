//! Simulated filesystems.
//!
//! Each node has a local [`Fs`]; the world additionally holds one shared
//! [`Fs`] mounted at [`SHARED_MOUNT`] on every node (the paper's EMC SAN
//! reachable by 8 nodes over Fibre Channel and by the other 24 via NFS).
//! Path routing and I/O *timing* live in `world.rs`; this module is the pure
//! data model.
//!
//! File contents are [`Blob`]s: sequences of real-byte chunks and *virtual*
//! chunks. A virtual chunk contributes to the file's size and carries opaque
//! metadata for whoever wrote it — the checkpoint layer uses this to "write"
//! multi-gigabyte compressed payloads of synthetic memory without the host
//! materializing them. Ordinary files (scripts, tables, logs) are all-real
//! and support byte-accurate read-back.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Mount point of the cluster-shared filesystem.
pub const SHARED_MOUNT: &str = "/shared";

/// Root directory of a node's content-addressed checkpoint store. Kept here
/// (rather than in the store crate) so low-level layers — fault injection,
/// storage accounting — can recognize store traffic without a dependency on
/// the store itself.
pub const STORE_ROOT: &str = "/ckptstore";

/// One extent of file content.
#[derive(Debug, Clone)]
pub enum Chunk {
    /// Literal bytes.
    Real(Vec<u8>),
    /// `len` bytes that were accounted but not materialized; `meta` is
    /// opaque to the filesystem (the checkpoint layer stores synthetic
    /// region recipes here).
    Virtual {
        /// Size contributed to the file.
        len: u64,
        /// Writer-defined payload describing how to regenerate the bytes.
        meta: Vec<u8>,
    },
}

impl Chunk {
    /// Size contributed to the containing file.
    pub fn len(&self) -> u64 {
        match self {
            Chunk::Real(b) => b.len() as u64,
            Chunk::Virtual { len, .. } => *len,
        }
    }

    /// True for zero-length chunks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// File content as an append-only chunk sequence.
#[derive(Debug, Clone, Default)]
pub struct Blob {
    chunks: Vec<Chunk>,
    len: u64,
}

impl Blob {
    /// An empty blob.
    pub fn new() -> Self {
        Blob::default()
    }

    /// A blob holding `bytes`.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        let mut b = Blob::new();
        b.append_bytes(&bytes);
        b
    }

    /// Total size in bytes (real + virtual).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the blob has no content.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append literal bytes (coalesces with a trailing real chunk).
    pub fn append_bytes(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        self.len += bytes.len() as u64;
        if let Some(Chunk::Real(last)) = self.chunks.last_mut() {
            last.extend_from_slice(bytes);
        } else {
            self.chunks.push(Chunk::Real(bytes.to_vec()));
        }
    }

    /// Append an accounted-but-unmaterialized extent.
    pub fn append_virtual(&mut self, len: u64, meta: Vec<u8>) {
        self.len += len;
        self.chunks.push(Chunk::Virtual { len, meta });
    }

    /// The chunk sequence.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// All bytes, if the blob is entirely real. `None` if any chunk is
    /// virtual (the caller is trying to byte-read an image that was sized
    /// but not materialized — a logic error it must handle explicitly).
    pub fn read_all(&self) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(self.len as usize);
        for c in &self.chunks {
            match c {
                Chunk::Real(b) => out.extend_from_slice(b),
                Chunk::Virtual { .. } => return None,
            }
        }
        Some(out)
    }

    /// Truncate to empty.
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
    }

    /// Truncate to `new_len` bytes, slicing through whatever chunk the cut
    /// lands in (a virtual chunk keeps its meta but shrinks — models a torn
    /// write that stopped partway through a sized extent).
    ///
    /// Returns how many bytes of the extent the cut landed in survived the
    /// tear — 0 when the cut falls exactly on a chunk boundary (or beyond the
    /// end). Callers resuming an interrupted upload use this to know how much
    /// of the in-flight extent actually reached the file.
    pub fn truncate(&mut self, new_len: u64) -> u64 {
        if new_len >= self.len {
            return 0;
        }
        let mut kept = 0u64;
        let mut torn_written = 0u64;
        let mut out = Vec::new();
        for c in self.chunks.drain(..) {
            if kept >= new_len {
                break;
            }
            let room = new_len - kept;
            let clen = c.len();
            if clen <= room {
                kept += clen;
                out.push(c);
                continue;
            }
            torn_written = room;
            match c {
                Chunk::Real(mut b) => {
                    b.truncate(room as usize);
                    if !b.is_empty() {
                        out.push(Chunk::Real(b));
                    }
                }
                Chunk::Virtual { meta, .. } => {
                    if room > 0 {
                        out.push(Chunk::Virtual { len: room, meta });
                    }
                }
            }
            kept = new_len;
        }
        self.chunks = out;
        self.len = new_len;
        torn_written
    }

    /// Flip one bit at byte offset `off` within the blob's *real* bytes,
    /// where `off` indexes the concatenation of real chunks only (virtual
    /// extents have no bytes to corrupt). Returns `false` if the blob has
    /// fewer than `off + 1` real bytes.
    pub fn flip_bit(&mut self, off: u64, bit: u8) -> bool {
        let mut skip = off;
        for c in &mut self.chunks {
            if let Chunk::Real(b) = c {
                if skip < b.len() as u64 {
                    b[skip as usize] ^= 1 << (bit & 7);
                    return true;
                }
                skip -= b.len() as u64;
            }
        }
        false
    }

    /// Total number of real (materialized) bytes in the blob.
    pub fn real_len(&self) -> u64 {
        self.chunks
            .iter()
            .map(|c| match c {
                Chunk::Real(b) => b.len() as u64,
                Chunk::Virtual { .. } => 0,
            })
            .sum()
    }
}

/// A file.
#[derive(Debug, Clone)]
pub struct FileNode {
    /// Content.
    pub blob: Blob,
    /// Whether writes are permitted (models read-only system data for the
    /// shared-memory restore rules of §4.5).
    pub writable: bool,
}

/// Errors from filesystem operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path does not exist.
    NotFound,
    /// Write to a read-only file or creation in a read-only directory.
    ReadOnly,
    /// Byte-read of a file containing virtual extents.
    NotMaterialized,
}

/// A token whose holder can tell, in O(1), whether anything but itself has
/// changed a filesystem's [`STORE_ROOT`] subtree since it last looked: the
/// holder puts the seal on with [`Fs::seal_store`] after its own writes, and
/// every other mutation under [`STORE_ROOT`] takes it off. Identity is the
/// allocation, not a number: a seal found on an [`Fs`] was put there by the
/// holder of that very seal, on that very `Fs` value — a clone starts
/// unsealed, so a filesystem that was *replaced* (a transplanted disk, two
/// nodes' disks swapped) can never pass for the one that was sealed.
#[derive(Debug, Clone, Default)]
pub struct StoreSeal(Rc<()>);

/// One filesystem tree (flat path → file map; directories are implicit).
#[derive(Debug, Default)]
pub struct Fs {
    files: BTreeMap<String, FileNode>,
    readonly_dirs: BTreeSet<String>,
    /// On while nothing has changed a store path since [`Fs::seal_store`].
    store_seal: Option<StoreSeal>,
}

/// A copy is another disk: same files, no seal.
impl Clone for Fs {
    fn clone(&self) -> Self {
        Fs {
            files: self.files.clone(),
            readonly_dirs: self.readonly_dirs.clone(),
            store_seal: None,
        }
    }
}

impl Fs {
    /// An empty filesystem.
    pub fn new() -> Self {
        Fs::default()
    }

    /// Put `seal` on the store subtree (see [`StoreSeal`]).
    pub fn seal_store(&mut self, seal: &StoreSeal) {
        self.store_seal = Some(seal.clone());
    }

    /// Is `seal` still on — has every change under [`STORE_ROOT`] since
    /// `seal_store(seal)` been followed by another `seal_store(seal)`?
    pub fn store_sealed_by(&self, seal: &StoreSeal) -> bool {
        self.store_seal
            .as_ref()
            .is_some_and(|s| Rc::ptr_eq(&s.0, &seal.0))
    }

    /// Every method that can change what a path holds calls this first: a
    /// change under [`STORE_ROOT`] takes the seal off.
    fn unseal(&mut self, path: &str) {
        if self.store_seal.is_some() && path.starts_with(STORE_ROOT) {
            self.store_seal = None;
        }
    }

    /// Does `path` exist?
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Mark a directory prefix read-only (creations under it fail).
    pub fn set_dir_readonly(&mut self, dir: &str) {
        self.readonly_dirs.insert(dir.to_string());
    }

    /// Whether new files may be created under `path`'s directory.
    pub fn dir_writable(&self, path: &str) -> bool {
        !self
            .readonly_dirs
            .iter()
            .any(|d| path.starts_with(d.as_str()))
    }

    /// Create or truncate a file; fails under a read-only directory.
    pub fn create(&mut self, path: &str) -> Result<(), FsError> {
        self.unseal(path);
        if let Some(f) = self.files.get_mut(path) {
            if !f.writable {
                return Err(FsError::ReadOnly);
            }
            f.blob.clear();
            return Ok(());
        }
        if !self.dir_writable(path) {
            return Err(FsError::ReadOnly);
        }
        self.files.insert(
            path.to_string(),
            FileNode {
                blob: Blob::new(),
                writable: true,
            },
        );
        Ok(())
    }

    /// Append bytes to an existing file. Returns the bytes written, so a
    /// caller whose write was torn (truncated by a fault) can compare against
    /// the file's eventual size and resume the interrupted extent.
    pub fn append(&mut self, path: &str, bytes: &[u8]) -> Result<u64, FsError> {
        self.unseal(path);
        let f = self.files.get_mut(path).ok_or(FsError::NotFound)?;
        if !f.writable {
            return Err(FsError::ReadOnly);
        }
        f.blob.append_bytes(bytes);
        Ok(bytes.len() as u64)
    }

    /// Append a virtual extent to an existing file. Returns the extent size
    /// written (see [`Fs::append`]).
    pub fn append_virtual(&mut self, path: &str, len: u64, meta: Vec<u8>) -> Result<u64, FsError> {
        self.unseal(path);
        let f = self.files.get_mut(path).ok_or(FsError::NotFound)?;
        if !f.writable {
            return Err(FsError::ReadOnly);
        }
        f.blob.append_virtual(len, meta);
        Ok(len)
    }

    /// Write a whole file in one call. Returns the bytes written.
    pub fn write_all(&mut self, path: &str, bytes: &[u8]) -> Result<u64, FsError> {
        self.create(path)?;
        self.append(path, bytes)
    }

    /// Read a whole (fully real) file.
    pub fn read_all(&self, path: &str) -> Result<Vec<u8>, FsError> {
        let f = self.files.get(path).ok_or(FsError::NotFound)?;
        f.blob.read_all().ok_or(FsError::NotMaterialized)
    }

    /// Borrow a file node.
    pub fn get(&self, path: &str) -> Option<&FileNode> {
        self.files.get(path)
    }

    /// Mutably borrow a file node.
    pub fn get_mut(&mut self, path: &str) -> Option<&mut FileNode> {
        self.unseal(path);
        self.files.get_mut(path)
    }

    /// File size, if it exists.
    pub fn size(&self, path: &str) -> Option<u64> {
        self.files.get(path).map(|f| f.blob.len())
    }

    /// Delete a file.
    pub fn remove(&mut self, path: &str) -> Result<(), FsError> {
        self.unseal(path);
        self.files.remove(path).map(|_| ()).ok_or(FsError::NotFound)
    }

    /// Mark an existing file read-only.
    pub fn set_readonly(&mut self, path: &str) -> Result<(), FsError> {
        let f = self.files.get_mut(path).ok_or(FsError::NotFound)?;
        f.writable = false;
        Ok(())
    }

    /// All paths with a given prefix, in order (restart-script discovery).
    pub fn list_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.files
            .range(prefix.to_string()..)
            .take_while(move |(p, _)| p.starts_with(prefix))
            .map(|(p, _)| p.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_roundtrips_bytes_and_coalesces() {
        let mut b = Blob::new();
        b.append_bytes(b"hello ");
        b.append_bytes(b"world");
        assert_eq!(b.len(), 11);
        assert_eq!(b.chunks().len(), 1, "adjacent real chunks coalesce");
        assert_eq!(b.read_all().unwrap(), b"hello world");
    }

    #[test]
    fn virtual_chunks_count_but_do_not_materialize() {
        let mut b = Blob::new();
        b.append_bytes(b"hdr");
        b.append_virtual(1 << 30, vec![1, 2, 3]);
        assert_eq!(b.len(), 3 + (1 << 30));
        assert!(b.read_all().is_none());
        assert_eq!(b.chunks().len(), 2);
    }

    #[test]
    fn truncate_slices_through_chunks() {
        let mut b = Blob::new();
        b.append_bytes(b"0123456789");
        b.append_virtual(100, vec![7]);
        b.append_bytes(b"tail");

        let mut t = b.clone();
        assert_eq!(t.truncate(4), 4, "cut inside the first real chunk");
        assert_eq!(t.len(), 4);
        assert_eq!(t.read_all().unwrap(), b"0123");

        let mut t = b.clone();
        assert_eq!(t.truncate(60), 50, "cut inside the virtual extent");
        assert_eq!(t.len(), 60);
        assert_eq!(t.chunks().len(), 2);
        assert_eq!(t.chunks()[1].len(), 50);

        let mut t = b.clone();
        assert_eq!(t.truncate(10_000), 0, "no-op beyond the end");
        assert_eq!(t.len(), 114);

        let mut t = b.clone();
        assert_eq!(t.truncate(0), 0, "cut on a chunk boundary");
        assert!(t.is_empty());

        let mut t = b.clone();
        assert_eq!(t.truncate(10), 0, "cut exactly between real and virtual");
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn flip_bit_targets_real_bytes_only() {
        let mut b = Blob::new();
        b.append_bytes(b"ab");
        b.append_virtual(1000, vec![]);
        b.append_bytes(b"cd");
        assert_eq!(b.real_len(), 4);
        assert!(b.flip_bit(2, 0)); // 'c' -> 'b'
        let mut bytes = Vec::new();
        for c in b.chunks() {
            if let Chunk::Real(r) = c {
                bytes.extend_from_slice(r);
            }
        }
        assert_eq!(bytes, b"abbd");
        assert!(!b.flip_bit(4, 0), "offset past real bytes");
    }

    #[test]
    fn create_write_read() {
        let mut fs = Fs::new();
        fs.write_all("/tmp/x", b"data").unwrap();
        assert_eq!(fs.read_all("/tmp/x").unwrap(), b"data");
        assert_eq!(fs.size("/tmp/x"), Some(4));
        assert!(fs.exists("/tmp/x"));
        assert_eq!(fs.read_all("/nope"), Err(FsError::NotFound));
    }

    #[test]
    fn create_truncates() {
        let mut fs = Fs::new();
        fs.write_all("/f", b"long content").unwrap();
        fs.write_all("/f", b"s").unwrap();
        assert_eq!(fs.read_all("/f").unwrap(), b"s");
    }

    #[test]
    fn readonly_file_rejects_writes() {
        let mut fs = Fs::new();
        fs.write_all("/sys/data", b"system").unwrap();
        fs.set_readonly("/sys/data").unwrap();
        assert_eq!(fs.append("/sys/data", b"x"), Err(FsError::ReadOnly));
        assert_eq!(fs.create("/sys/data"), Err(FsError::ReadOnly));
        // Reading still works.
        assert_eq!(fs.read_all("/sys/data").unwrap(), b"system");
    }

    #[test]
    fn readonly_dir_rejects_creation() {
        let mut fs = Fs::new();
        fs.set_dir_readonly("/usr/lib/");
        assert_eq!(fs.create("/usr/lib/libc.so"), Err(FsError::ReadOnly));
        assert!(fs.create("/home/u/f").is_ok());
        assert!(!fs.dir_writable("/usr/lib/x/y"));
    }

    #[test]
    fn store_seal_comes_off_on_any_store_change_and_never_copies() {
        let chunk = format!("{STORE_ROOT}/chunks/r0-1");
        let mut fs = Fs::new();
        fs.write_all(&chunk, b"x").unwrap();
        let seal = StoreSeal::default();
        assert!(!fs.store_sealed_by(&seal));
        let change: [fn(&mut Fs, &str); 5] = [
            |fs, p| _ = fs.create(p),
            |fs, p| _ = fs.append(p, b"y"),
            |fs, p| _ = fs.append_virtual(p, 1, vec![]),
            |fs, p| _ = fs.get_mut(p),
            |fs, p| _ = fs.remove(p),
        ];
        for f in change {
            fs.seal_store(&seal);
            f(&mut fs, "/ckpt/plain.img");
            assert!(fs.store_sealed_by(&seal), "not a store path");
            f(&mut fs, &chunk);
            assert!(!fs.store_sealed_by(&seal));
        }
        // Another holder's seal is not this one, and a copy is another disk.
        fs.seal_store(&seal);
        assert!(!fs.store_sealed_by(&StoreSeal::default()));
        assert!(!fs.clone().store_sealed_by(&seal));
        assert!(fs.store_sealed_by(&seal));
    }

    #[test]
    fn list_prefix_is_ordered_and_scoped() {
        let mut fs = Fs::new();
        for p in ["/ckpt/b.img", "/ckpt/a.img", "/other/c", "/ckpt2/d"] {
            fs.write_all(p, b"").unwrap();
        }
        let got: Vec<_> = fs.list_prefix("/ckpt/").collect();
        assert_eq!(got, vec!["/ckpt/a.img", "/ckpt/b.img"]);
    }
}
