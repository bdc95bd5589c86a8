//! The per-rank MPI runtime.
//!
//! `MpiRt` lives inside each rank's program struct. Every field is
//! snap-serializable, so checkpointing a rank mid-communication (partial
//! frames, queued sends, half-connected mesh) restores exactly — DMTCP's
//! drain/refill recovers the kernel-side bytes, and this struct carries the
//! user-side state.
//!
//! Wire format per message: `tag: u32 LE · len: u32 LE · payload`. Sends
//! enqueue into unbounded user-space out-queues (MPI buffered semantics —
//! sends never deadlock) that [`MpiRt::pump`] flushes opportunistically.

use oskit::{Errno, Fd, Kernel};
use simkit::impl_snap;

/// Base port for rank listeners; rank `r` listens on `base + r`.
pub const DEFAULT_BASE_PORT: u16 = 30_000;

/// Per-peer output queue with a send offset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OutQ {
    /// Pending bytes.
    pub buf: Vec<u8>,
    /// How much of `buf` has been handed to the kernel.
    pub off: usize,
}
impl_snap!(struct OutQ { buf, off });

impl OutQ {
    fn compact(&mut self) {
        if self.off == self.buf.len() {
            self.buf.clear();
            self.off = 0;
        } else if self.off > 4096 {
            self.buf.drain(..self.off);
            self.off = 0;
        }
    }
}

/// A received, fully parsed message.
#[derive(Debug, Clone, PartialEq)]
pub struct MpiMsg {
    /// Message tag.
    pub tag: u32,
    /// Payload bytes.
    pub data: Vec<u8>,
}
impl_snap!(struct MpiMsg { tag, data });

/// Mesh-construction progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitPhase {
    /// Not started.
    Fresh,
    /// Listener bound; connecting to lower ranks / accepting higher ones.
    Wiring,
    /// Fully connected.
    Ready,
}
impl_snap!(
    enum InitPhase {
        Fresh,
        Wiring,
        Ready,
    }
);

/// The embedded MPI runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct MpiRt {
    /// This rank.
    pub rank: u32,
    /// World size.
    pub size: u32,
    /// Listener port base.
    pub base_port: u16,
    /// Hostname of each rank's node (set by the launcher).
    pub rank_hosts: Vec<String>,
    phase: InitPhase,
    lfd: Fd,
    /// fd per peer rank (-1 until connected; self stays -1).
    fds: Vec<Fd>,
    /// Pending inbound handshakes: (fd, bytes so far).
    pending_accepts: Vec<(Fd, Vec<u8>)>,
    /// Per-peer partial inbound frame bytes.
    in_partial: Vec<Vec<u8>>,
    /// Parsed inboxes per peer.
    inbox: Vec<Vec<MpiMsg>>,
    /// Out queues per peer.
    outq: Vec<OutQ>,
    /// Collective sequence counter (tags uniqueness).
    pub coll_seq: u32,
}
impl_snap!(struct MpiRt {
    rank, size, base_port, rank_hosts, phase, lfd, fds, pending_accepts,
    in_partial, inbox, outq, coll_seq
});

impl MpiRt {
    /// A runtime for `rank` of `size`, with `rank_hosts[r]` naming the node
    /// of each rank.
    pub fn new(rank: u32, size: u32, base_port: u16, rank_hosts: Vec<String>) -> Self {
        assert_eq!(rank_hosts.len(), size as usize);
        MpiRt {
            rank,
            size,
            base_port,
            rank_hosts,
            phase: InitPhase::Fresh,
            lfd: -1,
            fds: vec![-1; size as usize],
            pending_accepts: Vec::new(),
            in_partial: vec![Vec::new(); size as usize],
            inbox: vec![Vec::new(); size as usize],
            outq: vec![OutQ::default(); size as usize],
            coll_seq: 0,
        }
    }

    /// Is the mesh fully wired?
    pub fn ready(&self) -> bool {
        self.phase == InitPhase::Ready
    }

    /// Drive mesh construction; returns true when ready. Callers should
    /// return `Step::Sleep(~1ms)` while false (peers may not be up yet).
    pub fn init(&mut self, k: &mut Kernel<'_>) -> bool {
        match self.phase {
            InitPhase::Ready => return true,
            InitPhase::Fresh => {
                let port = self.base_port + self.rank as u16;
                let (lfd, _) = k.listen_on(port).expect("rank port free");
                self.lfd = lfd;
                self.phase = InitPhase::Wiring;
            }
            InitPhase::Wiring => {}
        }
        // Connect to every lower rank not yet wired.
        for peer in 0..self.rank {
            if self.fds[peer as usize] >= 0 {
                continue;
            }
            let host = self.rank_hosts[peer as usize].clone();
            match k.connect(&host, self.base_port + peer as u16) {
                Ok(fd) => {
                    let hello = self.rank.to_le_bytes();
                    let n = k.write(fd, &hello).expect("rank handshake");
                    assert_eq!(n, 4);
                    self.fds[peer as usize] = fd;
                }
                Err(Errno::ConnRefused) | Err(Errno::HostUnreach) => {
                    // Peer not listening yet; retry on the next poll.
                }
                Err(e) => panic!("rank {} connect to {}: {e:?}", self.rank, peer),
            }
        }
        // Accept connections from higher ranks.
        loop {
            match k.accept(self.lfd) {
                Ok(fd) => self.pending_accepts.push((fd, Vec::new())),
                Err(Errno::WouldBlock) => break,
                Err(e) => panic!("rank accept: {e:?}"),
            }
        }
        let mut still = Vec::new();
        for (fd, mut buf) in std::mem::take(&mut self.pending_accepts) {
            loop {
                if buf.len() == 4 {
                    let peer = u32::from_le_bytes(buf[..].try_into().expect("4 bytes"));
                    assert!(peer > self.rank && peer < self.size, "bad peer {peer}");
                    self.fds[peer as usize] = fd;
                    break;
                }
                match k.read(fd, 4 - buf.len()) {
                    Ok(b) if b.is_empty() => panic!("peer died during handshake"),
                    Ok(b) => buf.extend_from_slice(&b),
                    Err(Errno::WouldBlock) => {
                        still.push((fd, buf));
                        break;
                    }
                    Err(e) => panic!("handshake read: {e:?}"),
                }
            }
        }
        self.pending_accepts = still;
        let wired = (0..self.size)
            .filter(|&r| r != self.rank)
            .all(|r| self.fds[r as usize] >= 0);
        if wired && self.pending_accepts.is_empty() {
            self.phase = InitPhase::Ready;
            // From here on `pump` reads only the peers the kernel reports
            // readable; the token of a peer's socket is its rank. The
            // watches are kernel state: a checkpoint carries them across a
            // restart, so this runs once per job, not once per restart.
            for (peer, &fd) in self.fds.iter().enumerate() {
                if fd >= 0 {
                    let _ = k.watch_read(fd, peer as u64); // fd is a connected socket
                }
            }
        }
        self.phase == InitPhase::Ready
    }

    /// Queue a message (never blocks; MPI buffered-send semantics).
    pub fn send(&mut self, to: u32, tag: u32, data: &[u8]) {
        assert_ne!(to, self.rank, "send to self");
        let q = &mut self.outq[to as usize];
        q.buf.extend_from_slice(&tag.to_le_bytes());
        q.buf.extend_from_slice(&(data.len() as u32).to_le_bytes());
        q.buf.extend_from_slice(data);
    }

    /// Flush out-queues and ingest inbound bytes. Returns true if anything
    /// moved. Registers wakers on every blocked direction, so a caller that
    /// sees no progress and no completed receive may safely `Step::Block`.
    ///
    /// Only the peers in the kernel's ready set are read (`init` watches
    /// them), each until `WouldBlock`. Peers are visited in ascending rank
    /// order, so every send and every read that returns bytes happens in
    /// the order a loop reading every peer would issue it: a peer left out
    /// could only have answered `WouldBlock`.
    pub fn pump(&mut self, k: &mut Kernel<'_>) -> bool {
        let mut progressed = false;
        let mut msgs = 0;
        let mut ready = k.take_ready().into_iter().peekable();
        for peer in 0..self.size as usize {
            let fd = self.fds[peer];
            if fd < 0 {
                continue;
            }
            // Flush.
            loop {
                let q = &mut self.outq[peer];
                if q.off >= q.buf.len() {
                    q.compact();
                    break;
                }
                match k.write(fd, &q.buf[q.off..]) {
                    Ok(n) => {
                        q.off += n;
                        progressed = true;
                    }
                    Err(Errno::WouldBlock) => break,
                    Err(Errno::Pipe) => {
                        // Peer finished and closed; sends to it are dropped
                        // (matches a finished MPI rank).
                        q.off = q.buf.len();
                        q.compact();
                        break;
                    }
                    Err(e) => panic!("mpi flush: {e:?}"),
                }
            }
            // Ingest.
            while ready.next_if(|&t| t < peer as u64).is_some() {}
            if ready.next_if_eq(&(peer as u64)).is_none() {
                continue;
            }
            loop {
                match k.read(fd, 64 * 1024) {
                    Ok(b) if b.is_empty() => break, // peer done
                    Ok(b) => {
                        let part = &mut self.in_partial[peer];
                        if part.is_empty() {
                            *part = b;
                        } else {
                            part.extend_from_slice(&b);
                        }
                        progressed = true;
                    }
                    Err(Errno::WouldBlock) => break,
                    Err(e) => panic!("mpi ingest: {e:?}"),
                }
            }
            // Parse complete frames.
            let part = &mut self.in_partial[peer];
            let mut pos = 0usize;
            while part.len() - pos >= 8 {
                let tag = u32::from_le_bytes(part[pos..pos + 4].try_into().expect("4"));
                let len =
                    u32::from_le_bytes(part[pos + 4..pos + 8].try_into().expect("4")) as usize;
                if part.len() - pos - 8 < len {
                    break;
                }
                let data = part[pos + 8..pos + 8 + len].to_vec();
                self.inbox[peer].push(MpiMsg { tag, data });
                pos += 8 + len;
                msgs += 1;
            }
            if pos > 0 {
                part.drain(..pos);
            }
        }
        if msgs > 0 {
            // Labeled like `oskit.sock.would_block`, so the two compare per
            // process: a rank's reads that found nothing against the
            // messages it took in.
            let pid = k.getpid_real().0 as u64;
            k.obs().metrics.add("simmpi.msgs_in", pid, msgs);
        }
        progressed
    }

    /// Non-blocking matched receive: first queued message from `from` with
    /// `tag`.
    pub fn try_recv(&mut self, from: u32, tag: u32) -> Option<Vec<u8>> {
        let q = &mut self.inbox[from as usize];
        let idx = q.iter().position(|m| m.tag == tag)?;
        Some(q.remove(idx).data)
    }

    /// Pump, then matched receive. `None` means "block and retry" (wakers
    /// are registered).
    pub fn recv_or_block(&mut self, k: &mut Kernel<'_>, from: u32, tag: u32) -> Option<Vec<u8>> {
        if let Some(d) = self.try_recv(from, tag) {
            return Some(d);
        }
        self.pump(k);
        self.try_recv(from, tag)
    }

    /// Receive from any peer with `tag`; returns `(from, data)`.
    pub fn recv_any_or_block(&mut self, k: &mut Kernel<'_>, tag: u32) -> Option<(u32, Vec<u8>)> {
        let probe = |inbox: &mut Vec<Vec<MpiMsg>>| -> Option<(u32, Vec<u8>)> {
            for (peer, q) in inbox.iter_mut().enumerate() {
                if let Some(idx) = q.iter().position(|m| m.tag == tag) {
                    return Some((peer as u32, q.remove(idx).data));
                }
            }
            None
        };
        if let Some(hit) = probe(&mut self.inbox) {
            return Some(hit);
        }
        self.pump(k);
        probe(&mut self.inbox)
    }

    /// Bytes still queued outbound (tests use this to exercise drains).
    pub fn outbound_pending(&self) -> usize {
        self.outq.iter().map(|q| q.buf.len() - q.off).sum()
    }

    /// Flush everything outbound; true once the kernel has accepted every
    /// queued byte. Programs must poll this to completion before exiting,
    /// or their last messages die in user space (the moral equivalent of
    /// `MPI_Finalize` waiting on pending sends).
    pub fn drain_out(&mut self, k: &mut Kernel<'_>) -> bool {
        self.pump(k);
        self.outbound_pending() == 0
    }

    /// Allocate a unique tag namespace id for the next collective.
    pub fn next_coll_seq(&mut self) -> u32 {
        self.coll_seq += 1;
        self.coll_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Snap;

    #[test]
    fn rt_state_snap_roundtrips_mid_flight() {
        let mut rt = MpiRt::new(
            1,
            4,
            30_000,
            vec!["a".into(), "b".into(), "c".into(), "d".into()],
        );
        rt.send(0, 7, b"hello");
        rt.inbox[2].push(MpiMsg {
            tag: 9,
            data: vec![1, 2],
        });
        rt.in_partial[3] = vec![5, 0, 0, 0];
        rt.coll_seq = 12;
        let back = MpiRt::from_snap_bytes(&rt.to_snap_bytes()).expect("roundtrip");
        assert_eq!(back, rt);
    }

    #[test]
    fn try_recv_matches_tag_in_fifo_order() {
        let mut rt = MpiRt::new(0, 2, 30_000, vec!["a".into(), "b".into()]);
        rt.inbox[1].push(MpiMsg {
            tag: 1,
            data: vec![1],
        });
        rt.inbox[1].push(MpiMsg {
            tag: 2,
            data: vec![2],
        });
        rt.inbox[1].push(MpiMsg {
            tag: 1,
            data: vec![3],
        });
        assert_eq!(rt.try_recv(1, 2), Some(vec![2]));
        assert_eq!(rt.try_recv(1, 1), Some(vec![1]));
        assert_eq!(rt.try_recv(1, 1), Some(vec![3]));
        assert_eq!(rt.try_recv(1, 1), None);
    }
}
