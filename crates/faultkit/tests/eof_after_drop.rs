//! A dropped segment must not swallow the EOF behind it.
//!
//! When a net fault drops a segment, only the sender's in-flight
//! accounting unwinds, at what would have been the arrival instant. If the
//! sender closed right after the send, that unwind is the event that turns
//! the reader's side into EOF (`closed && in_flight == 0`) — a
//! readable-by-EOF transition like any other, so it must wake the reader.
//! It used to wake nobody: a reader blocked on that one socket, with no
//! unrelated wake-up to make it re-read, slept forever. The hubs' old
//! poll-everything loops masked this; their ready set cannot.

use faultkit::{FaultKind, FaultPlan};
use oskit::fdtable::FdObject;
use oskit::program::{Program, Registry, Step};
use oskit::world::{NodeId, OsSim, Pid, World};
use oskit::{Errno, Fd, HwSpec, Kernel};
use simkit::{Nanos, Sim};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

const PORT: u16 = 7100;
const GEN: u64 = 1;
const STAGE: u8 = 2;

/// Sends one small segment per millisecond until the injector reports a
/// drop, then closes at once: the dropped segment is the last thing in
/// flight on a closed direction.
struct Sender {
    fd: Fd,
}
impl Program for Sender {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.fd < 0 {
            match k.connect("node00", PORT) {
                Ok(fd) => self.fd = fd,
                Err(Errno::ConnRefused) => return Step::Sleep(Nanos::from_micros(10)),
                Err(e) => panic!("connect: {e:?}"),
            }
            let FdObject::Sock(cid, _) = k.fd_object(self.fd).unwrap() else {
                unreachable!("connect returns a socket");
            };
            // Message faults only target protocol connections.
            faultkit::note_protocol_conn(k.w, cid);
        }
        k.write(self.fd, b"segment").unwrap();
        // The injector decides inside `write`; close in this same step, so
        // the lost segment's unwind comes after the close.
        let dropped = faultkit::state(k.w).is_some_and(|st| !st.borrow().injected().is_empty());
        if dropped {
            k.close(self.fd).unwrap();
            return Step::Exit(0);
        }
        Step::Sleep(Nanos::from_millis(1))
    }
    fn tag(&self) -> &'static str {
        "drop-sender"
    }
    fn save(&self) -> Vec<u8> {
        unimplemented!("never checkpointed")
    }
}

/// Blocks on its one accepted socket — through a plain blocking read, or
/// through the ready set — and records when it saw EOF.
struct Receiver {
    watch: bool,
    lfd: Fd,
    fd: Fd,
    eof_at: Rc<RefCell<Option<Nanos>>>,
}
impl Program for Receiver {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.lfd < 0 {
            self.lfd = k.listen_on(PORT).unwrap().0;
        }
        if self.fd < 0 {
            match k.accept(self.lfd) {
                Ok(fd) => self.fd = fd,
                Err(Errno::WouldBlock) => return Step::Block,
                Err(e) => panic!("accept: {e:?}"),
            }
            if self.watch {
                k.watch_read(self.fd, 0).unwrap();
            }
        }
        if self.watch && k.take_ready().is_empty() {
            return Step::Block;
        }
        loop {
            match k.read(self.fd, 4096) {
                Ok(b) if b.is_empty() => {
                    *self.eof_at.borrow_mut() = Some(k.now());
                    return Step::Exit(0);
                }
                Ok(_) => {}
                Err(Errno::WouldBlock) => return Step::Block,
                Err(e) => panic!("read: {e:?}"),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "drop-receiver"
    }
    fn save(&self) -> Vec<u8> {
        unimplemented!("never checkpointed")
    }
}

fn eof_after_dropped_last_segment(seed: u64, watch: bool) -> Option<Nanos> {
    let mut w = World::new(HwSpec::default(), 2, Registry::new());
    let mut sim: OsSim = Sim::new();
    let st = faultkit::install(
        &mut w,
        FaultPlan {
            seed,
            kind: FaultKind::DropMsg,
            stage: STAGE,
            target_gen: GEN,
        },
    );
    let eof_at = Rc::new(RefCell::new(None));
    w.spawn(
        &mut sim,
        NodeId(0),
        "receiver",
        Box::new(Receiver {
            watch,
            lfd: -1,
            fd: -1,
            eof_at: eof_at.clone(),
        }),
        Pid(1),
        BTreeMap::new(),
    );
    w.spawn(
        &mut sim,
        NodeId(1),
        "sender",
        Box::new(Sender { fd: -1 }),
        Pid(1),
        BTreeMap::new(),
    );
    // Open the injection window: the next protocol segment (after the
    // seed's skip count) is dropped.
    faultkit::checkpoint_requested(&mut w, &mut sim, GEN, STAGE, &[], NodeId(0));
    assert!(sim.run_bounded(&mut w, 100_000), "world must go quiescent");
    assert_eq!(st.borrow().injected().len(), 1, "exactly one drop injected");
    let at = *eof_at.borrow();
    at
}

#[test]
fn blocked_reader_sees_eof_when_the_last_segment_was_dropped() {
    for seed in 0..8 {
        for watch in [false, true] {
            let at = eof_after_dropped_last_segment(seed, watch);
            assert!(
                at.is_some(),
                "seed {seed} watch {watch}: the reader never observed EOF"
            );
        }
    }
}
