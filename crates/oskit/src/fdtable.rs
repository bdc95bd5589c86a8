//! File descriptors and the system-wide open-file table.
//!
//! UNIX separates the per-process fd table from the system open-file table;
//! DMTCP depends on that distinction (shared offsets after `fork`, the
//! F_SETOWN leader-election trick, `dup2` rearrangement at restart), so the
//! model keeps both layers explicit. Reference counts are maintained by the
//! world when fds are duplicated, inherited across `fork`, or closed.

use crate::net::ConnId;
use crate::pty::PtyId;
use std::collections::BTreeMap;

/// A per-process file descriptor number.
pub type Fd = i32;

/// Id of an entry in the system open-file table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpenFileId(pub u64);

/// Id of a listening socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ListenerId(pub u64);

/// What an fd refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdObject {
    /// Regular file via the open-file table (shared offset semantics).
    File(OpenFileId),
    /// One endpoint (0 or 1) of a connection (TCP socket, UNIX socket,
    /// socketpair, or promoted pipe).
    Sock(ConnId, u8),
    /// A listening TCP socket.
    Listener(ListenerId),
    /// Pty master side.
    PtyMaster(PtyId),
    /// Pty slave side.
    PtySlave(PtyId),
}

/// One slot in a process's fd table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdEntry {
    /// Referent.
    pub obj: FdObject,
    /// Close-on-exec flag.
    pub cloexec: bool,
}

/// An entry in the system-wide open-file table: shared by every fd that
/// `dup`ed or inherited it, with a shared offset.
#[derive(Debug, Clone)]
pub struct OpenFile {
    /// Absolute path.
    pub path: String,
    /// Shared read/write offset.
    pub offset: u64,
    /// Open for writing?
    pub writable: bool,
    /// `fcntl(F_SETOWN)` owner — DMTCP's leader election misuses this.
    pub owner_pid: u32,
    /// Live fd references across all processes.
    pub refs: u32,
}

/// The lowest fd [`FdTable::install`] hands out; 0–2 are the std streams,
/// which the world wires to a pty or /dev/null at spawn.
const FIRST_FD: Fd = 3;

/// A per-process fd table.
#[derive(Debug, Clone)]
pub struct FdTable {
    entries: BTreeMap<Fd, FdEntry>,
    /// Lowest-free hint: every fd in `[FIRST_FD, free_hint)` is open.
    free_hint: Fd,
}

impl Default for FdTable {
    fn default() -> Self {
        FdTable {
            entries: BTreeMap::new(),
            free_hint: FIRST_FD,
        }
    }
}

impl FdTable {
    /// An empty table; fds start at 3 (0–2 reserved for std streams, which
    /// the world wires to a pty or /dev/null at spawn).
    pub fn new() -> Self {
        Self::default()
    }

    /// Install `entry` at the lowest free fd ≥ 3, POSIX-style.
    ///
    /// Invariant: every fd in `[3, free_hint)` is open, so the scan starts
    /// at the hint and only steps over fds placed above it by
    /// [`FdTable::install_at`]; [`FdTable::remove`] lowers the hint to the
    /// freed fd. The fd returned is the one a scan from 3 would find —
    /// images record fd numbers in their connection tables, so the
    /// numbering must not depend on how the table is searched.
    pub fn install(&mut self, entry: FdEntry) -> Fd {
        let mut fd = self.free_hint;
        while self.entries.contains_key(&fd) {
            fd += 1;
        }
        self.entries.insert(fd, entry);
        self.free_hint = fd + 1;
        fd
    }

    /// Install at a specific fd, returning whatever was displaced
    /// (dup2 semantics: caller must release the displaced reference).
    /// Leaves the lowest-free hint alone: filling a hole above it does not
    /// break the invariant, and every fd below it is already open.
    pub fn install_at(&mut self, fd: Fd, entry: FdEntry) -> Option<FdEntry> {
        self.entries.insert(fd, entry)
    }

    /// Look up an fd.
    pub fn get(&self, fd: Fd) -> Option<&FdEntry> {
        self.entries.get(&fd)
    }

    /// Remove an fd, returning its entry for the caller to release.
    pub fn remove(&mut self, fd: Fd) -> Option<FdEntry> {
        let entry = self.entries.remove(&fd);
        if entry.is_some() && fd >= FIRST_FD {
            self.free_hint = self.free_hint.min(fd);
        }
        entry
    }

    /// Iterate `(fd, entry)` in fd order.
    pub fn iter(&self) -> impl Iterator<Item = (Fd, &FdEntry)> {
        self.entries.iter().map(|(fd, e)| (*fd, e))
    }

    /// All entries (for fork inheritance).
    pub fn clone_entries(&self) -> Vec<(Fd, FdEntry)> {
        self.entries.iter().map(|(fd, e)| (*fd, *e)).collect()
    }

    /// Number of open fds.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no fds are open.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::DetRng;

    fn file_entry(id: u64) -> FdEntry {
        FdEntry {
            obj: FdObject::File(OpenFileId(id)),
            cloexec: false,
        }
    }

    /// The lowest-free rule with no hint: scan from 3 on every install.
    #[derive(Default)]
    struct NaiveTable(BTreeMap<Fd, FdEntry>);

    impl NaiveTable {
        fn install(&mut self, entry: FdEntry) -> Fd {
            let mut fd = FIRST_FD;
            while self.0.contains_key(&fd) {
                fd += 1;
            }
            self.0.insert(fd, entry);
            fd
        }
    }

    /// Random `install`/`remove`/`install_at` sequences hand out the same
    /// fd numbers as the naive scan, and leave the same table behind.
    #[test]
    fn install_matches_naive_lowest_free_oracle() {
        for seed in 0..32u64 {
            let mut rng = DetRng::seed_from_u64(0xFD7A_B1E0 ^ seed);
            let (mut t, mut naive) = (FdTable::new(), NaiveTable::default());
            for op in 0..2_000u64 {
                let entry = file_entry(op);
                match rng.below(10) {
                    0..=4 => assert_eq!(
                        t.install(entry),
                        naive.install(entry),
                        "seed {seed} op {op}"
                    ),
                    5..=7 => {
                        // Mostly open fds, sometimes a free or std-stream one.
                        let fd = rng.below(t.len() as u64 + 8) as Fd;
                        assert_eq!(t.remove(fd), naive.0.remove(&fd), "seed {seed} op {op}");
                    }
                    _ => {
                        let fd = rng.below(t.len() as u64 + 16) as Fd;
                        assert_eq!(t.install_at(fd, entry), naive.0.insert(fd, entry));
                    }
                }
            }
            assert!(t
                .iter()
                .map(|(fd, e)| (fd, *e))
                .eq(naive.0.iter().map(|(fd, e)| (*fd, *e))));
        }
    }

    /// A coordinator re-accepting every manager holds tens of thousands of
    /// fds; freeing and refilling the lowest one must not rescan them all
    /// (a scan from 3 makes ≈ 65 k lookups per install here).
    #[test]
    fn large_table_refills_the_lowest_hole() {
        const OPEN: Fd = 65_536;
        let mut t = FdTable::new();
        for i in 0..OPEN {
            assert_eq!(t.install(file_entry(i as u64)), FIRST_FD + i);
        }
        for round in 0..4_096u64 {
            assert_eq!(t.remove(FIRST_FD), Some(file_entry(round)));
            assert_eq!(t.install(file_entry(round + 1)), FIRST_FD);
        }
        assert_eq!(t.install(file_entry(0)), FIRST_FD + OPEN);
        assert_eq!(t.len(), OPEN as usize + 1);
    }

    #[test]
    fn install_uses_lowest_free_fd() {
        let mut t = FdTable::new();
        let a = t.install(file_entry(1));
        let b = t.install(file_entry(2));
        assert_eq!((a, b), (3, 4));
        t.remove(3);
        let c = t.install(file_entry(3));
        assert_eq!(c, 3, "lowest free fd is reused");
    }

    #[test]
    fn install_at_returns_displaced_entry() {
        let mut t = FdTable::new();
        let fd = t.install(file_entry(1));
        let old = t.install_at(fd, file_entry(2));
        assert_eq!(old, Some(file_entry(1)));
        assert_eq!(t.get(fd), Some(&file_entry(2)));
        assert_eq!(t.install_at(99, file_entry(3)), None);
    }

    #[test]
    fn clone_entries_preserves_everything() {
        let mut t = FdTable::new();
        t.install(file_entry(1));
        t.install_at(
            7,
            FdEntry {
                obj: FdObject::Sock(ConnId(4), 1),
                cloexec: true,
            },
        );
        let cloned = t.clone_entries();
        assert_eq!(cloned.len(), 2);
        assert!(cloned.contains(&(
            7,
            FdEntry {
                obj: FdObject::Sock(ConnId(4), 1),
                cloexec: true
            }
        )));
    }
}
