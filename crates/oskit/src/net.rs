//! Connections: TCP sockets, UNIX-domain sockets, socketpairs, and pipes
//! (which the kernel wrapper layer promotes to socketpairs, exactly as
//! DMTCP's `pipe` wrapper does — §4.5).
//!
//! Each connection has two directions; each direction models the sender's
//! view of "bytes accepted by the kernel" as `in_flight` (on the wire /
//! in the sender's kernel buffer) plus the receiver's kernel `recv_buf` of
//! *real bytes*. The DMTCP drain stage empties exactly these buffers, so
//! they must be faithful: byte streams are preserved bit-for-bit and
//! sequence-checked in tests.
//!
//! Data movement *timing* (NIC bandwidth, latency) is charged by the world
//! when it schedules delivery events; this module is the pure state.

use crate::world::{NodeId, Pid, Tid};
use std::collections::VecDeque;

/// Connection id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(pub u64);

/// What kind of byte stream this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnKind {
    /// TCP/IP socket (possibly cross-node).
    Tcp,
    /// UNIX domain socket (same node).
    Unix,
    /// `socketpair(2)`.
    SocketPair,
    /// A pipe, promoted to a socketpair by the wrapper layer. The flag is
    /// kept so `/proc`-style introspection and tests can see the promotion.
    Pipe,
}

/// A thread's blocked-waiter registration, or the `(Pid, Tid)` a wake targets.
pub type Waiter = (Pid, Tid);

/// Register `who` on a waiter list, idempotently: a thread that polls the
/// same idle object a thousand times is still one waiter. (Lists hold the
/// handful of threads sharing an fd, so the scan is cheaper than a set.)
pub fn add_waiter(list: &mut Vec<Waiter>, who: Waiter) {
    if !list.contains(&who) {
        list.push(who);
    }
}

/// A persistent read-readiness registration (`Kernel::watch_read`): every
/// time the watched end becomes readable, `token` is added to `who`'s ready
/// set and `who` is woken. Unlike a waiter it is not consumed by the wake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watch {
    /// The watching thread.
    pub who: Waiter,
    /// What the watcher calls this object.
    pub token: u64,
}

/// One direction of a connection (from `ends[src]` to `ends[1-src]`).
#[derive(Debug, Default)]
pub struct DirState {
    /// Bytes accepted from the sender but not yet in `recv_buf`.
    pub in_flight: u64,
    /// Receiver-side kernel buffer (real bytes).
    pub recv_buf: VecDeque<u8>,
    /// Threads blocked reading this direction.
    pub read_waiters: Vec<Waiter>,
    /// Threads blocked writing this direction (buffer full).
    pub write_waiters: Vec<Waiter>,
    /// Total bytes ever sent (sequence checks in tests).
    pub tx_total: u64,
    /// Total bytes ever delivered into `recv_buf`.
    pub rx_total: u64,
}

impl DirState {
    /// Bytes currently buffered end-to-end (the drain stage must move all
    /// of this into user space).
    pub fn buffered(&self) -> u64 {
        self.in_flight + self.recv_buf.len() as u64
    }
}

/// Default kernel buffering per direction (send + receive windows). The
/// paper notes drained data "tends to be on the order of tens of kilobytes".
pub const CONN_CAPACITY: u64 = 64 * 1024;

/// A two-endpoint byte stream.
#[derive(Debug)]
pub struct Conn {
    /// Id.
    pub id: ConnId,
    /// Stream kind.
    pub kind: ConnKind,
    /// Node of each endpoint.
    pub node: [NodeId; 2],
    /// Per-direction state; `dirs[e]` carries bytes from end `e`.
    pub dirs: [DirState; 2],
    /// Live fd references per end (across all processes).
    pub end_refs: [u32; 2],
    /// Per-end `F_SETOWN` owner (0 = unset) — DMTCP's election scratchpad.
    pub owner_pid: [u32; 2],
    /// Per-direction buffering capacity.
    pub capacity: u64,
    /// An end that was `close`d for good (EOF for the peer).
    pub closed: [bool; 2],
    /// An end whose write side was shut down (`shutdown(SHUT_WR)`): the end
    /// can still read, the peer sees EOF once in-flight bytes drain.
    pub wr_closed: [bool; 2],
    /// Readiness watcher per *reading* end: `watchers[e]` fires when a read
    /// on end `e` would stop returning `WouldBlock`. Cleared when end `e`'s
    /// last fd reference is released.
    pub watchers: [Option<Watch>; 2],
}

impl Conn {
    /// A fresh connection between `node_a` (end 0) and `node_b` (end 1).
    pub fn new(id: ConnId, kind: ConnKind, node_a: NodeId, node_b: NodeId) -> Self {
        Conn {
            id,
            kind,
            node: [node_a, node_b],
            dirs: [DirState::default(), DirState::default()],
            end_refs: [0, 0],
            owner_pid: [0, 0],
            capacity: CONN_CAPACITY,
            closed: [false, false],
            wr_closed: [false, false],
            watchers: [None, None],
        }
    }

    /// A read on end `e` would return EOF: nothing buffered, the peer closed
    /// (or shut down its write side), and nothing is still on the wire.
    pub fn at_eof(&self, e: usize) -> bool {
        let src = Conn::peer(e);
        let d = &self.dirs[src];
        d.recv_buf.is_empty() && (self.closed[src] || self.wr_closed[src]) && d.in_flight == 0
    }

    /// A read on end `e` would not block (data or EOF).
    pub fn readable(&self, e: usize) -> bool {
        !self.dirs[Conn::peer(e)].recv_buf.is_empty() || self.at_eof(e)
    }

    /// Everyone to tell that end `e` became readable: the blocked readers
    /// (consumed) and the persistent watcher (kept).
    pub fn read_interest(&mut self, e: usize) -> (Vec<Waiter>, Option<Watch>) {
        let readers = std::mem::take(&mut self.dirs[Conn::peer(e)].read_waiters);
        (readers, self.watchers[e])
    }

    /// How many more bytes end `e` may send before blocking.
    pub fn send_room(&self, e: usize) -> u64 {
        self.capacity.saturating_sub(self.dirs[e].buffered())
    }

    /// Whether the connection crosses nodes.
    pub fn cross_node(&self) -> bool {
        self.node[0] != self.node[1]
    }

    /// Peer endpoint index.
    pub fn peer(e: usize) -> usize {
        1 - e
    }
}

/// A pending, not-yet-accepted connection on a listener.
#[derive(Debug, Clone, Copy)]
pub struct PendingConn {
    /// The connection (already constructed; the acceptor claims end 1).
    pub conn: ConnId,
}

/// A listening TCP socket bound to `(node, port)`.
#[derive(Debug)]
pub struct Listener {
    /// Id.
    pub id: crate::fdtable::ListenerId,
    /// Node it is bound on.
    pub node: NodeId,
    /// Bound port.
    pub port: u16,
    /// Completed connections waiting for `accept`.
    pub backlog: VecDeque<PendingConn>,
    /// Threads blocked in `accept`.
    pub accept_waiters: Vec<Waiter>,
    /// Readiness watcher: fires on every pending connection.
    pub watcher: Option<Watch>,
    /// Live fd references.
    pub refs: u32,
    /// `F_SETOWN` owner.
    pub owner_pid: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::NodeId;

    #[test]
    fn send_room_shrinks_with_buffered_bytes() {
        let mut c = Conn::new(ConnId(1), ConnKind::Tcp, NodeId(0), NodeId(1));
        assert_eq!(c.send_room(0), CONN_CAPACITY);
        c.dirs[0].in_flight = 1000;
        c.dirs[0].recv_buf.extend(std::iter::repeat_n(0u8, 500));
        assert_eq!(c.send_room(0), CONN_CAPACITY - 1500);
        assert_eq!(c.dirs[0].buffered(), 1500);
        // The opposite direction is unaffected.
        assert_eq!(c.send_room(1), CONN_CAPACITY);
    }

    #[test]
    fn peer_index() {
        assert_eq!(Conn::peer(0), 1);
        assert_eq!(Conn::peer(1), 0);
    }

    #[test]
    fn cross_node_detection() {
        let c = Conn::new(ConnId(1), ConnKind::Tcp, NodeId(2), NodeId(2));
        assert!(!c.cross_node());
        let d = Conn::new(ConnId(2), ConnKind::Tcp, NodeId(0), NodeId(3));
        assert!(d.cross_node());
    }
}
