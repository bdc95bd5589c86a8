//! The peer set both protocol hubs (root coordinator, per-node relay) are
//! built on: a listening socket, the framed connections accepted from it,
//! and a readiness-driven message pump.
//!
//! A hub used to poll every peer socket on every wake-up — O(peers) host
//! work per message, with all but one peer idle. Here each accepted socket
//! (and the listener) carries a persistent `Kernel::watch_read` watcher
//! whose token is the peer's connection serial, and [`PeerSet::next_msg`]
//! reads **only** the peers the kernel reported ready.
//!
//! The ordering rule that keeps the simulation bit-identical: ready peers
//! are served in ascending serial order, and a peer that becomes ready
//! while the pass is already beyond it waits for the next pass. That is
//! exactly the order the old index loop visited sockets in (peers are
//! appended on accept and removal preserves order, so index order *is*
//! serial order), so handlers run — and send — in the same sequence.

use crate::proto::{frame, FrameBuf, Msg};
use oskit::world::{Tid, World};
use oskit::{Errno, Fd, Kernel};
use simkit::Nanos;
use std::collections::BTreeSet;
use std::ops::{Deref, DerefMut};

/// Ready token of the hub's listening socket.
const ACCEPT: u64 = u64::MAX;

/// Ready token a hub may give one extra watched socket of its own (the
/// relay's uplink); see [`PeerSet::take_token`]. Peer serials stay below.
pub(crate) const UPLINK: u64 = u64::MAX - 1;

/// Send one framed message on a hub socket. Protocol frames are tiny next
/// to the socket window, so a short write is a bug; a peer that already
/// hung up is not — its EOF is reaped on the hub's next pass.
pub(crate) fn send_frame(k: &mut Kernel<'_>, fd: Fd, msg: &Msg) {
    let bytes = frame(msg);
    match k.write(fd, &bytes) {
        Ok(n) => assert_eq!(n, bytes.len(), "hub socket full"),
        Err(Errno::Pipe) | Err(Errno::BadFd) => {}
        Err(e) => panic!("hub send: {e:?}"),
    }
}

/// Arm a wake-up for the calling hub process `dt` from now.
pub(crate) fn wake_after(k: &mut Kernel<'_>, dt: Nanos) {
    let pid = k.getpid_real();
    k.sim.after(dt, move |w: &mut World, sim| {
        w.wake(sim, (pid, Tid(0)));
    });
}

/// One accepted connection.
pub(crate) struct Peer<T> {
    /// The connected socket.
    pub fd: Fd,
    /// Unique per accepted connection, ascending in accept order; also the
    /// socket's ready token.
    pub serial: u64,
    fb: FrameBuf,
    /// What the hub knows about this peer.
    pub info: T,
}

/// A hub's listener plus its accepted peers, in ascending serial order.
/// Derefs to the peer slice for indexing and iteration.
#[derive(Default)]
pub(crate) struct PeerSet<T> {
    lfd: Option<Fd>,
    peers: Vec<Peer<T>>,
    next_serial: u64,
    /// Tokens reported ready by the kernel and not yet served.
    ready: BTreeSet<u64>,
    /// Lower bound of the next token the current pass may serve.
    cursor: u64,
    /// Peer whose buffered frames the current pass is popping.
    draining: Option<usize>,
    /// Peers the current pass found hung up or speaking garbage.
    dead: Vec<usize>,
}

impl<T> Deref for PeerSet<T> {
    type Target = [Peer<T>];
    fn deref(&self) -> &[Peer<T>] {
        &self.peers
    }
}

impl<T> DerefMut for PeerSet<T> {
    fn deref_mut(&mut self) -> &mut [Peer<T>] {
        &mut self.peers
    }
}

impl<T: Default> PeerSet<T> {
    /// On the first call, bind + listen on `port` (0 = ephemeral), watch
    /// the listener and return the bound port; `None` once listening.
    pub fn listen_once(&mut self, k: &mut Kernel<'_>, port: u16) -> Option<u16> {
        if self.lfd.is_some() {
            return None;
        }
        let (fd, port) = k.listen_on(port).expect("hub port free");
        k.watch_read(fd, ACCEPT).expect("listener is watchable");
        self.lfd = Some(fd);
        Some(port)
    }

    fn merge_ready(&mut self, k: &mut Kernel<'_>) {
        self.ready.extend(k.take_ready());
    }

    /// Consume `token` from the ready set: did the hub's own extra socket
    /// (watched with that token) become readable since the last call?
    pub fn take_token(&mut self, k: &mut Kernel<'_>, token: u64) -> bool {
        self.merge_ready(k);
        self.ready.remove(&token)
    }

    /// Accept every pending connection (if the listener is ready) as a new
    /// watched peer with default `info`; returns whether any arrived.
    pub fn accept_new(&mut self, k: &mut Kernel<'_>) -> bool {
        if !self.take_token(k, ACCEPT) {
            return false;
        }
        let before = self.peers.len();
        loop {
            match k.accept(self.lfd.expect("listening")) {
                Ok(fd) => {
                    let serial = self.next_serial;
                    self.next_serial += 1;
                    k.watch_read(fd, serial).expect("accepted fd is a socket");
                    self.peers.push(Peer {
                        fd,
                        serial,
                        fb: FrameBuf::new(),
                        info: T::default(),
                    });
                }
                Err(Errno::WouldBlock) => break,
                Err(e) => panic!("hub accept: {e:?}"),
            }
        }
        self.peers.len() > before
    }

    /// The next message of the current pass as `(peer index, message)`:
    /// ready peers in ascending serial order, each one's socket drained
    /// into its frame buffer and then its complete frames popped one by
    /// one. A peer at EOF — or speaking garbage — is set aside for
    /// [`PeerSet::reap`] after its last whole frame. `None` ends the pass;
    /// the next call starts a new one from the lowest serial. Indices stay
    /// valid until `reap`/`remove`.
    pub fn next_msg(&mut self, k: &mut Kernel<'_>) -> Option<(usize, Msg)> {
        loop {
            if let Some(i) = self.draining {
                match self.peers[i].fb.pop() {
                    Ok(Some(msg)) => return Some((i, msg)),
                    Ok(None) => {}
                    Err(_) => self.dead.push(i),
                }
                self.draining = None;
            }
            // Ask the kernel again before every choice: the old loop read
            // each socket when it reached it, so a peer a handler just made
            // readable is still served this pass if its turn is yet to come.
            self.merge_ready(k);
            let Some(&token) = self.ready.range(self.cursor..UPLINK).next() else {
                self.cursor = 0;
                return None;
            };
            self.ready.remove(&token);
            self.cursor = token + 1;
            // A token can outlive its peer (reaped, or timed out).
            if let Ok(i) = self.peers.binary_search_by_key(&token, |p| p.serial) {
                let p = &mut self.peers[i];
                if !p.fb.fill(k, p.fd) {
                    self.dead.push(i);
                }
                self.draining = Some(i);
            }
        }
    }

    /// Drop and close every peer the finished pass set aside; returns them
    /// so the hub can tell participants from bystanders.
    pub fn reap(&mut self, k: &mut Kernel<'_>) -> Vec<Peer<T>> {
        let mut dead = std::mem::take(&mut self.dead);
        dead.dedup(); // at EOF *and* garbled: set aside twice, back to back
        dead.into_iter().rev().map(|i| self.remove(k, i)).collect()
    }

    /// Drop peer `i` and close its socket (which also clears its watcher).
    pub fn remove(&mut self, k: &mut Kernel<'_>, i: usize) -> Peer<T> {
        let p = self.peers.remove(i);
        let _ = k.close(p.fd);
        p
    }
}
