//! MPI collectives over the point-to-point runtime.
//!
//! Star-topology implementations (everyone ↔ root), which is accurate
//! enough for the cluster scales of the paper and keeps the poll-model
//! state small. Each collective instance owns a [`CollOp`] whose tag is
//! derived from a per-rank sequence number; because every rank executes
//! collectives in the same program order, sequence numbers agree without
//! negotiation (the standard MPI context-id argument).

use crate::rt::MpiRt;
use oskit::Kernel;
use simkit::impl_snap;

const KIND_BARRIER: u32 = 1;
const KIND_BCAST: u32 = 2;
const KIND_REDUCE: u32 = 3;
const KIND_ALLREDUCE_B: u32 = 4;
const KIND_ALLTOALL: u32 = 5;
const KIND_GATHER: u32 = 6;

fn tag_for(kind: u32, seq: u32) -> u32 {
    0x8000_0000 | (kind << 24) | (seq & 0x00FF_FFFF)
}

/// Progress state for one collective invocation. Construct with the
/// matching `CollOp::new_*`, then call the matching `*_poll` method each
/// step until it returns `Some`/`true`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CollOp {
    seq: u32,
    sent: bool,
    /// For root: which peers have contributed.
    got: Vec<Option<Vec<u8>>>,
    /// Second phase flag (reduce→bcast of allreduce, ack of barrier).
    phase2: bool,
}
impl_snap!(struct CollOp { seq, sent, got, phase2 });

impl CollOp {
    /// New collective instance; bumps the runtime's sequence counter.
    pub fn begin(rt: &mut MpiRt) -> CollOp {
        CollOp {
            seq: rt.next_coll_seq(),
            sent: false,
            got: vec![None; rt.size as usize],
            phase2: false,
        }
    }

    /// Whether this rank's own contribution has gone out. A caller whose
    /// send buffers are costly to build needs them only while this is false.
    pub fn sent(&self) -> bool {
        self.sent
    }

    /// Barrier: true when every rank has arrived and been released.
    pub fn barrier(&mut self, rt: &mut MpiRt, k: &mut Kernel<'_>) -> bool {
        let tag = tag_for(KIND_BARRIER, self.seq);
        if rt.rank == 0 {
            // Collect size-1 arrivals, then release everyone.
            if !self.phase2 {
                loop {
                    let missing = (1..rt.size).find(|&r| self.got[r as usize].is_none());
                    let Some(_r) = missing else {
                        for r in 1..rt.size {
                            rt.send(r, tag, b"");
                        }
                        self.phase2 = true;
                        break;
                    };
                    match rt.recv_any_or_block(k, tag) {
                        Some((from, d)) => self.got[from as usize] = Some(d),
                        None => return false,
                    }
                }
            }
            // Release sends flush opportunistically.
            rt.pump(k);
            true
        } else {
            if !self.sent {
                rt.send(0, tag, b"");
                self.sent = true;
            }
            rt.recv_or_block(k, 0, tag).is_some()
        }
    }

    /// Broadcast `data` from `root`; non-roots receive into `data`.
    /// True when complete.
    pub fn bcast(
        &mut self,
        rt: &mut MpiRt,
        k: &mut Kernel<'_>,
        root: u32,
        data: &mut Vec<u8>,
    ) -> bool {
        let tag = tag_for(KIND_BCAST, self.seq);
        if rt.rank == root {
            if !self.sent {
                for r in 0..rt.size {
                    if r != root {
                        rt.send(r, tag, data);
                    }
                }
                self.sent = true;
            }
            rt.pump(k);
            true
        } else {
            match rt.recv_or_block(k, root, tag) {
                Some(d) => {
                    *data = d;
                    true
                }
                None => false,
            }
        }
    }

    /// Sum-reduce f64 vectors to `root`. On completion, root's `out` holds
    /// the element-wise sum (including its own `contrib`); non-roots get
    /// their contrib echoed into `out`. True when complete.
    pub fn reduce_sum_f64(
        &mut self,
        rt: &mut MpiRt,
        k: &mut Kernel<'_>,
        root: u32,
        contrib: &[f64],
        out: &mut Vec<f64>,
    ) -> bool {
        let tag = tag_for(KIND_REDUCE, self.seq);
        if rt.rank == root {
            loop {
                let missing = (0..rt.size).find(|&r| r != root && self.got[r as usize].is_none());
                let Some(_) = missing else {
                    let mut acc = contrib.to_vec();
                    for (r, slot) in self.got.iter().enumerate() {
                        if r as u32 == root {
                            continue;
                        }
                        let xs = crate::bytes_to_f64s(slot.as_ref().expect("collected"));
                        assert_eq!(xs.len(), acc.len(), "reduce length mismatch");
                        for (a, x) in acc.iter_mut().zip(&xs) {
                            *a += x;
                        }
                    }
                    *out = acc;
                    return true;
                };
                match rt.recv_any_or_block(k, tag) {
                    Some((from, d)) => self.got[from as usize] = Some(d),
                    None => return false,
                }
            }
        } else {
            if !self.sent {
                rt.send(root, tag, &crate::f64s_to_bytes(contrib));
                self.sent = true;
                *out = contrib.to_vec();
            }
            rt.pump(k);
            true
        }
    }

    /// Allreduce (sum) of f64 vectors. True when complete; `out` holds the
    /// global sum on every rank.
    pub fn allreduce_sum_f64(
        &mut self,
        rt: &mut MpiRt,
        k: &mut Kernel<'_>,
        contrib: &[f64],
        out: &mut Vec<f64>,
    ) -> bool {
        let rtag = tag_for(KIND_REDUCE, self.seq);
        let btag = tag_for(KIND_ALLREDUCE_B, self.seq);
        if rt.rank == 0 {
            if !self.phase2 {
                loop {
                    let missing = (1..rt.size).find(|&r| self.got[r as usize].is_none());
                    let Some(_) = missing else {
                        let mut acc = contrib.to_vec();
                        for (r, slot) in self.got.iter().enumerate() {
                            if r == 0 {
                                continue;
                            }
                            let xs = crate::bytes_to_f64s(slot.as_ref().expect("collected"));
                            for (a, x) in acc.iter_mut().zip(&xs) {
                                *a += x;
                            }
                        }
                        let payload = crate::f64s_to_bytes(&acc);
                        for r in 1..rt.size {
                            rt.send(r, btag, &payload);
                        }
                        *out = acc;
                        self.phase2 = true;
                        break;
                    };
                    match rt.recv_any_or_block(k, rtag) {
                        Some((from, d)) => self.got[from as usize] = Some(d),
                        None => return false,
                    }
                }
            }
            rt.pump(k);
            true
        } else {
            if !self.sent {
                rt.send(0, rtag, &crate::f64s_to_bytes(contrib));
                self.sent = true;
            }
            match rt.recv_or_block(k, 0, btag) {
                Some(d) => {
                    *out = crate::bytes_to_f64s(&d);
                    true
                }
                None => false,
            }
        }
    }

    /// All-to-all: `sends[r]` goes to rank r (self delivery is a copy);
    /// `recvs[r]` is filled with rank r's message. True when complete.
    pub fn alltoall(
        &mut self,
        rt: &mut MpiRt,
        k: &mut Kernel<'_>,
        sends: &[Vec<u8>],
        recvs: &mut [Option<Vec<u8>>],
    ) -> bool {
        assert_eq!(sends.len(), rt.size as usize);
        assert_eq!(recvs.len(), rt.size as usize);
        let tag = tag_for(KIND_ALLTOALL, self.seq);
        if !self.sent {
            for r in 0..rt.size {
                if r == rt.rank {
                    self.got[r as usize] = Some(sends[r as usize].clone());
                } else {
                    rt.send(r, tag, &sends[r as usize]);
                }
            }
            self.sent = true;
        }
        // Accumulate into self.got (not the caller's buffer): payloads
        // consumed before a block must survive the block.
        loop {
            let missing = (0..rt.size).find(|&r| r != rt.rank && self.got[r as usize].is_none());
            let Some(r) = missing else {
                rt.pump(k); // keep flushing our own sends
                for (slot, got) in recvs.iter_mut().zip(self.got.iter()) {
                    *slot = got.clone();
                }
                return true;
            };
            match rt.recv_or_block(k, r, tag) {
                Some(d) => self.got[r as usize] = Some(d),
                None => return false,
            }
        }
    }

    /// Gather byte payloads to `root`; `out[r]` filled on root. True when
    /// complete.
    pub fn gather(
        &mut self,
        rt: &mut MpiRt,
        k: &mut Kernel<'_>,
        root: u32,
        contrib: &[u8],
        out: &mut [Option<Vec<u8>>],
    ) -> bool {
        let tag = tag_for(KIND_GATHER, self.seq);
        if rt.rank == root {
            self.got[root as usize] = Some(contrib.to_vec());
            loop {
                let missing = (0..rt.size).find(|&r| r != root && self.got[r as usize].is_none());
                if missing.is_none() {
                    for (slot, got) in out.iter_mut().zip(self.got.iter()) {
                        *slot = got.clone();
                    }
                    return true;
                }
                match rt.recv_any_or_block(k, tag) {
                    Some((from, d)) => self.got[from as usize] = Some(d),
                    None => return false,
                }
            }
        } else {
            if !self.sent {
                rt.send(root, tag, contrib);
                self.sent = true;
            }
            rt.pump(k);
            true
        }
    }
}
