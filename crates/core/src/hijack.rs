//! The injected per-process state — our `dmtcphijack.so`.
//!
//! The launcher's spawn hook installs a [`Hijack`] into every traced
//! process's kernel extension slot and adds the checkpoint-manager thread.
//! The hijack state holds what the real library keeps in the application's
//! address space: the coordinator address, the virtual pid, the
//! connection-information table built at checkpoint time, drained socket
//! data, and the `dmtcpaware` flags.

use crate::gsid::Gsid;
use mtcp::{ImageName, WriteMode};
use oskit::pty::Termios;
use oskit::world::{Pid, World};
use simkit::impl_snap;

/// What kind of object an fd referred to at checkpoint time, with enough
/// recorded information to recreate it at restart (§4.4 steps 1–2, 4).
#[derive(Debug, Clone, PartialEq)]
pub enum FdKindRec {
    /// Regular file: reopen `path`, `lseek` to `offset`.
    File {
        /// Absolute path.
        path: String,
        /// Shared offset at checkpoint time.
        offset: u64,
        /// Opened writable?
        writable: bool,
    },
    /// Connected socket end (TCP, UNIX, socketpair, or promoted pipe).
    Sock {
        /// Globally unique id of the connection.
        gsid: Gsid,
        /// Which end this process held (0 = original connector).
        end: u8,
        /// Peer gsid learned during the drain handshake (same gsid — ids
        /// name connections; the pair (gsid, end) names an endpoint).
        peer_seen: bool,
        /// Was this process the elected leader for the end?
        leader: bool,
        /// Original kind (0 tcp, 1 unix, 2 socketpair, 3 pipe).
        kind_byte: u8,
        /// Write side was shut down (`shutdown(SHUT_WR)`) at checkpoint
        /// time; restart re-applies the half-close.
        shut_wr: bool,
    },
    /// Listening socket: re-`listen` on `port`.
    Listener {
        /// Bound port.
        port: u16,
    },
    /// Pty master side.
    PtyMaster {
        /// Pty gsid.
        gsid: Gsid,
    },
    /// Pty slave side.
    PtySlave {
        /// Pty gsid.
        gsid: Gsid,
    },
}

impl_snap!(enum FdKindRec {
    File { path, offset, writable },
    Sock { gsid, end, peer_seen, leader, kind_byte, shut_wr },
    Listener { port },
    PtyMaster { gsid },
    PtySlave { gsid },
});

/// One fd table entry in the connection-information table.
#[derive(Debug, Clone, PartialEq)]
pub struct FdRecord {
    /// The fd number to restore at (via `dup2`).
    pub fd: i32,
    /// Close-on-exec flag.
    pub cloexec: bool,
    /// Recorded object description.
    pub kind: FdKindRec,
}

impl_snap!(struct FdRecord { fd, cloexec, kind });

/// Saved pty state (buffers + terminal modes), stored by the process that
/// held the master side.
#[derive(Debug, Clone, PartialEq)]
pub struct PtyRecord {
    /// Pty gsid.
    pub gsid: Gsid,
    /// Bytes queued master→slave at checkpoint time.
    pub to_slave: Vec<u8>,
    /// Bytes queued slave→master at checkpoint time.
    pub to_master: Vec<u8>,
    /// Terminal modes.
    pub termios: Termios,
    /// Virtual pid of the controlling process, if any.
    pub controlling_vpid: Option<u32>,
}

impl_snap!(struct PtyRecord { gsid, to_slave, to_master, termios, controlling_vpid });

/// The per-process connection-information table written to disk alongside
/// the memory image (§4.3 stage 4: "the connection information table is
/// then written to disk").
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConnTable {
    /// This process's virtual pid.
    pub vpid: u32,
    /// Hostname at checkpoint time (restart may move it).
    pub host: String,
    /// Fd records in fd order.
    pub records: Vec<FdRecord>,
    /// Per-connection inbound bytes this process's leader drained.
    pub drained: Vec<(Gsid, Vec<u8>)>,
    /// Pty state saved by master holders.
    pub ptys: Vec<PtyRecord>,
    /// Controlling terminal.
    pub ctty: Option<Gsid>,
    /// Virtual pids this process holds in its pid map (children etc.),
    /// so restart can rewire the translations.
    pub known_vpids: Vec<u32>,
    /// Virtual pid of the parent when the parent is also traced (0
    /// otherwise) — restores parent-child relationships across restart.
    pub parent_vpid: u32,
}

impl_snap!(struct ConnTable {
    vpid, host, records, drained, ptys, ctty, known_vpids, parent_vpid
});

/// `dmtcpaware` per-process flags.
#[derive(Debug, Clone, Default)]
pub struct AwareState {
    /// Nesting depth of `delay_checkpoints` critical sections.
    pub delay_depth: u32,
    /// The application asked for a checkpoint.
    pub ckpt_requested: bool,
}

/// The injected state (one per traced process).
#[derive(Debug)]
pub struct Hijack {
    /// Virtual pid (the pid at first trace; stable across restarts).
    pub vpid: u32,
    /// Coordinator address.
    pub coord_host: String,
    /// Coordinator port. Under the hierarchical topology this is the
    /// per-node relay, not the root.
    pub coord_port: u16,
    /// Port of the *root* coordinator this process ultimately answers to —
    /// the key of the [`crate::coord::CoordShared`] slot its written images
    /// are recorded into. Equals `coord_port` in the flat topology; behind
    /// a relay it names the root the relay fronts.
    pub root_port: u16,
    /// Directory for checkpoint images.
    pub ckpt_dir: String,
    /// Image write mode.
    pub mode: WriteMode,
    /// Completed checkpoint generation.
    pub gen: u64,
    /// Completed restart count.
    pub restarts: u64,
    /// `dmtcpaware` flags.
    pub aware: AwareState,
    /// Drained inbound data per connection this process leads, carried
    /// between the drain and refill stages (and through the image).
    pub drained: Vec<(Gsid, Vec<u8>)>,
    /// The table captured at the last checkpoint.
    pub table: ConnTable,
    /// Restart-stage durations (files, sockets, memory) recorded by the
    /// restart process; the manager adds the refill time and reports the
    /// completed sample (Table 1b).
    pub restart_partial: Option<(simkit::Nanos, simkit::Nanos, simkit::Nanos)>,
    /// Image durability policy.
    pub sync: crate::launch::SyncMode,
}

impl Hijack {
    /// This process's image at generation `gen`.
    pub fn image_name(&self, gen: u64) -> ImageName {
        ImageName {
            dir: self.ckpt_dir.clone(),
            vpid: self.vpid,
            gen,
        }
    }
}

/// Borrow the hijack state of `pid`, if that process is traced.
pub fn hijack_of(w: &mut World, pid: Pid) -> Option<&mut Hijack> {
    w.procs
        .get_mut(&pid)?
        .ext
        .as_mut()?
        .downcast_mut::<Hijack>()
}

/// Is `pid` running under DMTCP?
pub fn is_traced(w: &World, pid: Pid) -> bool {
    w.procs.get(&pid).map(is_traced_proc).unwrap_or(false)
}

/// Is this process running under DMTCP?
pub fn is_traced_proc(p: &oskit::proc::Process) -> bool {
    hijack_in(p).is_some()
}

/// The hijack state of `p`, if it is traced — the read-only counterpart of
/// [`hijack_of`] for code walking `World::procs`.
pub fn hijack_in(p: &oskit::proc::Process) -> Option<&Hijack> {
    p.ext.as_ref()?.downcast_ref::<Hijack>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Snap;

    #[test]
    fn conn_table_snap_roundtrip() {
        let t = ConnTable {
            vpid: 9,
            host: "node02".into(),
            records: vec![
                FdRecord {
                    fd: 3,
                    cloexec: false,
                    kind: FdKindRec::Sock {
                        gsid: Gsid(4),
                        end: 1,
                        peer_seen: true,
                        leader: true,
                        kind_byte: 0,
                        shut_wr: true,
                    },
                },
                FdRecord {
                    fd: 5,
                    cloexec: true,
                    kind: FdKindRec::File {
                        path: "/shared/data".into(),
                        offset: 123,
                        writable: false,
                    },
                },
                FdRecord {
                    fd: 7,
                    cloexec: false,
                    kind: FdKindRec::Listener { port: 8080 },
                },
            ],
            drained: vec![(Gsid(4), vec![1, 2, 3])],
            ptys: vec![PtyRecord {
                gsid: Gsid(11),
                to_slave: b"ls\n".to_vec(),
                to_master: Vec::new(),
                termios: Termios::default(),
                controlling_vpid: Some(9),
            }],
            ctty: Some(Gsid(11)),
            known_vpids: vec![9, 12],
            parent_vpid: 7,
        };
        let back = ConnTable::from_snap_bytes(&t.to_snap_bytes()).expect("roundtrip");
        assert_eq!(back, t);
    }

    #[test]
    fn image_name_is_per_vpid_and_generation() {
        let env = [
            (crate::launch::ENV_COORD_HOST, "node00"),
            (crate::launch::ENV_COORD_PORT, "7779"),
            (crate::launch::ENV_CKPT_DIR, "/shared/ckpt"),
        ]
        .map(|(k, v)| (k.to_string(), v.to_string()));
        let h = crate::launch::hijack_from_env(42, &env.into());
        let path = h.image_name(3).to_string();
        assert_eq!(path, "/shared/ckpt/ckpt_42_gen3.dmtcp");
        assert_ne!(h.image_name(3), h.image_name(4));
    }
}
