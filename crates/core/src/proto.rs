//! The coordinator wire protocol and in-band drain/refill framing.
//!
//! Everything DMTCP says on the wire is a length-prefixed snap frame. The
//! same framing carries coordinator traffic (registration, barriers,
//! discovery) and the in-band drain/refill exchanges that travel through
//! the *application's own sockets* during a checkpoint.

use crate::gsid::Gsid;
use oskit::{Errno, Fd, Kernel};
use simkit::{impl_snap, Snap, SnapError};

/// The drain token: pushed through every socket by its receiving-end leader
/// so the drain loop knows when the stream is empty (§4.3 stage 4). The
/// token also carries the sender's gsid — the peer handshake that lets both
/// sides record the globally unique id of the remote end.
pub const DRAIN_MAGIC: [u8; 16] = *b"DMTCP-DRAIN-TOK\n";

/// Messages between checkpoint managers / restart processes and the
/// coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// A manager announces itself (vpid, hostname).
    Register(u32, String),
    /// Coordinator → managers: begin checkpoint generation `gen`.
    CkptRequest(u64),
    /// Manager → coordinator: reached barrier `stage` of generation `gen`.
    BarrierReached(u64, u8),
    /// Coordinator → managers: barrier `stage` of `gen` released.
    BarrierRelease(u64, u8),
    /// Restart process → coordinator: the acceptor side of `gsid` now
    /// listens at (host, port).
    Advertise(Gsid, String, u16),
    /// Restart process → coordinator: where is `gsid`?
    Query(Gsid),
    /// Coordinator → restart process: `gsid` is at (host, port); empty host
    /// means "not yet advertised, retry".
    QueryReply(Gsid, String, u16),
    /// Restart process → coordinator: expect `n` managers restoring
    /// generation `gen` (re-arms barrier accounting).
    RestartPlan(u32, u64),
    /// In-band refill frame: bytes the receiver drained and is returning to
    /// the sender for retransmission (§4.3 stage 6).
    Refill(Vec<u8>),
    /// Coordinator → managers: abandon checkpoint generation `gen` (a
    /// participant died mid-protocol); roll back and resume computing.
    CkptAbort(u64),
    /// A per-node relay announces itself (hostname). A relay is a protocol
    /// aggregation point, not a checkpointed participant: it fronts every
    /// manager on its node and speaks to the root as a single client.
    RelayRegister(String),
    /// Relay → coordinator: it now fronts `count` local participants, of
    /// which `lost` vanished since the last report (a non-zero `lost`
    /// during an in-flight generation is a lost-participant event).
    RelayMembership(u32, u32),
    /// Relay → coordinator: `count` of its local participants reached
    /// barrier `stage` of generation `gen`. The count is cumulative and
    /// idempotent — retransmissions carry the same or a larger value.
    BarrierAckN(u64, u8, u32),
    /// Relay → coordinator: liveness probe, sent only while generation
    /// `gen` is in flight (the relay is silent between checkpoints).
    RelayPing(u64),
    /// Coordinator → relay: answer to a [`Msg::RelayPing`].
    RelayPong(u64),
    /// Client → dmtcpd: open a session for tenant `tenant` expecting up to
    /// `procs` participants. The daemon answers with
    /// [`Msg::SessionAccepted`] or [`Msg::SessionRejected`].
    OpenSession(String, u32),
    /// dmtcpd → client: session `sid` admitted; its shard's root
    /// coordinator listens on `shard_port` and images live under `dir`.
    SessionAccepted(u64, u16, String),
    /// dmtcpd → client: admission refused. `code` is a
    /// [`RejectReason`] discriminant; `detail` is human-readable.
    SessionRejected(u8, String),
    /// Client → dmtcpd: tear down session `sid` (frees its registry slot;
    /// stored images persist per the tenant's retention policy).
    CloseSession(u64),
    /// Client → dmtcpd: request a checkpoint of session `sid` (tenant-
    /// tagged equivalent of [`Msg::CkptRequest`] travelling over the
    /// service socket rather than a coordinator connection).
    SessionCkpt(u64),
    /// Restart process → coordinator: expect `n` *migrating* managers
    /// restoring generation `gen` on new nodes while the rest of the
    /// computation keeps running. Unlike [`Msg::RestartPlan`] this does not
    /// re-arm the full barrier accounting — only the restart-stage barriers
    /// of `gen` count against `n`, live bystander clients are left alone,
    /// and no client is marked stale.
    MigratePlan(u32, u64),
}

/// Why `dmtcpd` refused to open a session (the `code` byte of
/// [`Msg::SessionRejected`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RejectReason {
    /// The registry is at `max_sessions`.
    SessionsFull = 1,
    /// The request's `procs` exceeds `max_procs_per_session`.
    TooManyProcs = 2,
    /// The tenant's stored bytes already exceed its quota.
    QuotaExceeded = 3,
    /// Malformed request (empty tenant name, zero procs).
    BadRequest = 4,
}

impl RejectReason {
    /// Decode the wire byte, if it names a known reason.
    pub fn from_code(code: u8) -> Option<RejectReason> {
        match code {
            1 => Some(RejectReason::SessionsFull),
            2 => Some(RejectReason::TooManyProcs),
            3 => Some(RejectReason::QuotaExceeded),
            4 => Some(RejectReason::BadRequest),
            _ => None,
        }
    }
}

impl_snap!(
    enum Msg {
        Register(vpid, host),
        CkptRequest(gen),
        BarrierReached(gen, stage),
        BarrierRelease(gen, stage),
        Advertise(gsid, host, port),
        Query(gsid),
        QueryReply(gsid, host, port),
        RestartPlan(n, gen),
        Refill(data),
        CkptAbort(gen),
        RelayRegister(host),
        RelayMembership(count, lost),
        BarrierAckN(gen, stage, count),
        RelayPing(gen),
        RelayPong(gen),
        OpenSession(tenant, procs),
        SessionAccepted(sid, shard_port, dir),
        SessionRejected(code, detail),
        CloseSession(sid),
        SessionCkpt(sid),
        MigratePlan(n, gen),
    }
);

/// Display name of a message variant (flight-recorder labels).
pub fn msg_name(msg: &Msg) -> &'static str {
    match msg {
        Msg::Register(..) => "Register",
        Msg::CkptRequest(..) => "CkptRequest",
        Msg::BarrierReached(..) => "BarrierReached",
        Msg::BarrierRelease(..) => "BarrierRelease",
        Msg::Advertise(..) => "Advertise",
        Msg::Query(..) => "Query",
        Msg::QueryReply(..) => "QueryReply",
        Msg::RestartPlan(..) => "RestartPlan",
        Msg::Refill(..) => "Refill",
        Msg::CkptAbort(..) => "CkptAbort",
        Msg::RelayRegister(..) => "RelayRegister",
        Msg::RelayMembership(..) => "RelayMembership",
        Msg::BarrierAckN(..) => "BarrierAckN",
        Msg::RelayPing(..) => "RelayPing",
        Msg::RelayPong(..) => "RelayPong",
        Msg::OpenSession(..) => "OpenSession",
        Msg::SessionAccepted(..) => "SessionAccepted",
        Msg::SessionRejected(..) => "SessionRejected",
        Msg::CloseSession(..) => "CloseSession",
        Msg::SessionCkpt(..) => "SessionCkpt",
        Msg::MigratePlan(..) => "MigratePlan",
    }
}

/// Encode a message as a length-prefixed frame.
pub fn frame(msg: &Msg) -> Vec<u8> {
    let body = msg.to_snap_bytes();
    let mut out = Vec::with_capacity(body.len() + 4);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Incremental frame decoder: feed arbitrary byte chunks, pop whole
/// messages.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Feed received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Read socket `fd` dry into the buffer; `false` once it is at EOF (or
    /// already closed under us).
    pub fn fill(&mut self, k: &mut Kernel<'_>, fd: Fd) -> bool {
        loop {
            match k.read(fd, 64 * 1024) {
                Ok(b) if b.is_empty() => return false,
                Ok(b) => self.feed(&b),
                Err(Errno::WouldBlock) => return true,
                Err(Errno::BadFd) => return false,
                Err(e) => panic!("protocol read: {e:?}"),
            }
        }
    }

    /// Pop the next complete message, if one has fully arrived.
    pub fn pop(&mut self) -> Result<Option<Msg>, SnapError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let msg = Msg::from_snap_bytes(&self.buf[4..4 + len])?;
        self.buf.drain(..4 + len);
        Ok(Some(msg))
    }

    /// Bytes buffered but not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

/// Build the drain token for an end whose gsid is `g`.
pub fn drain_token(g: Gsid) -> Vec<u8> {
    let mut t = DRAIN_MAGIC.to_vec();
    t.extend_from_slice(&g.0.to_le_bytes());
    t
}

/// If `stream` ends with a drain token, split it into (drained data, peer
/// gsid).
pub fn split_drain_token(stream: &[u8]) -> Option<(&[u8], Gsid)> {
    let tok_len = DRAIN_MAGIC.len() + 8;
    if stream.len() < tok_len {
        return None;
    }
    let (data, tail) = stream.split_at(stream.len() - tok_len);
    if tail[..DRAIN_MAGIC.len()] != DRAIN_MAGIC {
        return None;
    }
    let g = u64::from_le_bytes(tail[DRAIN_MAGIC.len()..].try_into().expect("8 bytes"));
    Some((data, Gsid(g)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_arbitrary_chunking() {
        let msgs = vec![
            Msg::Register(12, "node00".into()),
            Msg::CkptRequest(3),
            Msg::BarrierReached(3, 2),
            Msg::Advertise(Gsid(9), "node01".into(), 21000),
            Msg::QueryReply(Gsid(9), String::new(), 0),
            Msg::Refill(vec![1, 2, 3, 255]),
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&frame(m));
        }
        let mut fb = FrameBuf::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(3) {
            fb.feed(chunk);
            while let Some(m) = fb.pop().expect("valid frames") {
                got.push(m);
            }
        }
        assert_eq!(got, msgs);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn incomplete_frame_stays_buffered() {
        let f = frame(&Msg::CkptRequest(1));
        let mut fb = FrameBuf::new();
        fb.feed(&f[..f.len() - 1]);
        assert_eq!(fb.pop().unwrap(), None);
        fb.feed(&f[f.len() - 1..]);
        assert_eq!(fb.pop().unwrap(), Some(Msg::CkptRequest(1)));
    }

    #[test]
    fn corrupt_frame_is_an_error_not_a_panic() {
        let mut fb = FrameBuf::new();
        fb.feed(&3u32.to_le_bytes());
        fb.feed(&[0xff, 0xff, 0xff]);
        assert!(fb.pop().is_err());
    }

    #[test]
    fn drain_token_roundtrip() {
        let mut stream = b"app data in flight".to_vec();
        stream.extend_from_slice(&drain_token(Gsid(77)));
        let (data, g) = split_drain_token(&stream).expect("token found");
        assert_eq!(data, b"app data in flight");
        assert_eq!(g, Gsid(77));
    }

    #[test]
    fn token_absent_when_stream_is_cut_short() {
        let mut stream = b"x".to_vec();
        stream.extend_from_slice(&drain_token(Gsid(1)));
        assert!(split_drain_token(&stream[..stream.len() - 1]).is_none());
        assert!(split_drain_token(b"short").is_none());
    }
}
