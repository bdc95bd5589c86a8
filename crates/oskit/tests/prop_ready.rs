//! Differential oracle for the kernel's ready set
//! (`Kernel::watch_read` / `Kernel::take_ready`).
//!
//! The protocol hubs used to read every peer socket on every wake-up; they
//! now read only the sockets the kernel reports ready. The contract is that
//! this is a pure host-time play: a reader driven by the ready set must
//! observe exactly what the read-everything loop observed — the same bytes
//! per socket, EOF at the same virtual instants, connections accepted in
//! the same order — and must not perturb the event schedule.
//!
//! So each seeded case runs one scenario twice, in two fresh worlds that
//! differ only in the reader program: [`Reader`] with `Drive::ReadySet`,
//! and with `Drive::PollAll` — the old loop, kept here (and only here) as
//! the reference. At least 64 writers follow random scripts: connect, small
//! and window-filling sends (partial delivery through flow control),
//! pauses, `shutdown_write`, close, exit without closing, hang — and a
//! fifth of them are SIGKILLed at a random instant, possibly with bytes
//! still on the wire.
//!
//! Each case also freezes the reader for a random window, as a checkpoint
//! suspends user threads while its drain and refill deliver to them. A
//! delivery to a frozen thread wakes it into a dispatch that parks; the
//! ready set must cost exactly the parked dispatches the old loop's
//! one-shot waiters did — one per object until the reader reads it again —
//! or the event schedule moves.

use oskit::proc::sig;
use oskit::program::{Program, Registry, Step};
use oskit::world::{NodeId, OsSim, Pid, World};
use oskit::{Errno, Fd, HwSpec, Kernel};
use simkit::{mix2, DetRng, Nanos, Sim};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

const CASES: u64 = 24;
const NODES: u64 = 4;
const PORT: u16 = 6000;

/// Ready token of the reader's listener (sockets use their accept index).
const LISTENER: u64 = u64::MAX;

// ---------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Op {
    Send(usize),
    Pause(Nanos),
    ShutdownWrite,
    Close,
    Exit,
    Hang,
}

/// Byte `off` of writer `id`'s stream.
fn stream_byte(id: u32, off: u64) -> u8 {
    mix2(id as u64, off / 8).to_le_bytes()[(off % 8) as usize]
}

struct Writer {
    id: u32,
    script: Vec<Op>,
    pc: usize,
    fd: Fd,
    /// Stream offset of the next byte to send.
    sent: u64,
    /// Bytes of the current `Send` still to go.
    left: Option<usize>,
}

impl Program for Writer {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.fd < 0 {
            match k.connect("node00", PORT) {
                Ok(fd) => self.fd = fd,
                Err(Errno::ConnRefused) => return Step::Sleep(Nanos::from_micros(10)),
                Err(e) => panic!("writer connect: {e:?}"),
            }
        }
        loop {
            let Some(op) = self.script.get(self.pc).copied() else {
                return Step::Exit(0);
            };
            match op {
                Op::Send(len) => {
                    let left = self.left.unwrap_or(len);
                    if left == 0 {
                        self.left = None;
                        self.pc += 1;
                        continue;
                    }
                    let chunk: Vec<u8> = (0..left as u64)
                        .map(|i| stream_byte(self.id, self.sent + i))
                        .collect();
                    match k.write(self.fd, &chunk) {
                        Ok(n) => {
                            self.sent += n as u64;
                            self.left = Some(left - n);
                        }
                        Err(Errno::WouldBlock) => {
                            self.left = Some(left);
                            return Step::Block;
                        }
                        Err(e) => panic!("writer {} send: {e:?}", self.id),
                    }
                }
                Op::Pause(d) => {
                    self.pc += 1;
                    return Step::Sleep(d);
                }
                Op::ShutdownWrite => {
                    k.shutdown_write(self.fd).expect("shutdown_write");
                    self.pc += 1;
                }
                Op::Close => {
                    k.close(self.fd).expect("close");
                    return Step::Exit(0);
                }
                Op::Exit => return Step::Exit(0),
                Op::Hang => {
                    k.block_forever();
                    return Step::Block;
                }
            }
        }
    }
    fn tag(&self) -> &'static str {
        "prop-writer"
    }
    fn save(&self) -> Vec<u8> {
        unimplemented!("test program is never checkpointed")
    }
}

// ---------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------

/// Everything a reader observes, in observation order.
#[derive(Debug, Default, PartialEq, Eq)]
struct Observed {
    /// `(virtual time, accept index)` per accepted connection.
    accepts: Vec<(u64, usize)>,
    /// `(virtual time, accept index, bytes)` per successful read.
    reads: Vec<(u64, usize, usize)>,
    /// Per accept index: the bytes received, in order.
    streams: Vec<Vec<u8>>,
    /// Per accept index: when EOF was observed.
    eof_at: Vec<Option<u64>>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Drive {
    /// Serve exactly the sockets `take_ready()` reports.
    ReadySet,
    /// Read every open socket on every wake-up (the reference).
    PollAll,
}

struct Reader {
    drive: Drive,
    lfd: Fd,
    /// Per accept index: the socket, until EOF closes it.
    socks: Vec<Option<Fd>>,
    obs: Rc<RefCell<Observed>>,
}

impl Reader {
    fn accept_all(&mut self, k: &mut Kernel<'_>) {
        loop {
            match k.accept(self.lfd) {
                Ok(fd) => {
                    let idx = self.socks.len();
                    if self.drive == Drive::ReadySet {
                        k.watch_read(fd, idx as u64).expect("watch socket");
                    }
                    self.socks.push(Some(fd));
                    let mut o = self.obs.borrow_mut();
                    o.accepts.push((k.now().0, idx));
                    o.streams.push(Vec::new());
                    o.eof_at.push(None);
                }
                Err(Errno::WouldBlock) => return,
                Err(e) => panic!("reader accept: {e:?}"),
            }
        }
    }

    /// Read socket `idx` until it would block; close it at EOF. Read sizes
    /// vary with what was already received, identically in both drives.
    fn drain(&mut self, k: &mut Kernel<'_>, idx: usize) {
        let Some(fd) = self.socks[idx] else {
            return;
        };
        loop {
            let got = self.obs.borrow().streams[idx].len() as u64;
            let max = 1 + (mix2(idx as u64, got) % 9000) as usize;
            match k.read(fd, max) {
                Ok(b) if b.is_empty() => {
                    self.obs.borrow_mut().eof_at[idx] = Some(k.now().0);
                    k.close(fd).expect("close at EOF");
                    self.socks[idx] = None;
                    return;
                }
                Ok(b) => {
                    let mut o = self.obs.borrow_mut();
                    o.reads.push((k.now().0, idx, b.len()));
                    o.streams[idx].extend_from_slice(&b);
                }
                Err(Errno::WouldBlock) => return,
                Err(e) => panic!("reader read: {e:?}"),
            }
        }
    }
}

impl Program for Reader {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.lfd < 0 {
            let (fd, _) = k.listen_on(PORT).expect("listen");
            self.lfd = fd;
            if self.drive == Drive::ReadySet {
                k.watch_read(fd, LISTENER).expect("watch listener");
            }
        }
        match self.drive {
            Drive::PollAll => {
                self.accept_all(k);
                for idx in 0..self.socks.len() {
                    self.drain(k, idx);
                }
            }
            Drive::ReadySet => loop {
                let mut ready = k.take_ready();
                if ready.is_empty() {
                    break;
                }
                // The listener sorts last but is served first, as the
                // poll loop does; sockets it yields (always higher
                // indices) are reported by the next `take_ready`.
                if ready.last() == Some(&LISTENER) {
                    ready.pop();
                    self.accept_all(k);
                }
                for token in ready {
                    self.drain(k, token as usize);
                }
            },
        }
        Step::Block
    }
    fn tag(&self) -> &'static str {
        "prop-reader"
    }
    fn save(&self) -> Vec<u8> {
        unimplemented!("test program is never checkpointed")
    }
}

// ---------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------

struct WriterPlan {
    node: u32,
    start: Nanos,
    script: Vec<Op>,
    kill_at: Option<Nanos>,
}

fn plan(seed: u64) -> Vec<WriterPlan> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..rng.range(64, 96))
        .map(|_| {
            let mut script = Vec::new();
            for _ in 0..rng.range(0, 6) {
                script.push(match rng.below(6) {
                    0 | 1 => Op::Send(rng.range(1, 200) as usize),
                    2 => Op::Send(rng.range(200, 6000) as usize),
                    // More than the 64 KiB window: the tail waits for the
                    // reader to make room.
                    3 => Op::Send(rng.range(60_000, 200_000) as usize),
                    _ => Op::Pause(Nanos(rng.range(0, 2_000_000))),
                });
            }
            match rng.below(5) {
                0 => script.push(Op::Close),
                1 => script.extend([
                    Op::ShutdownWrite,
                    Op::Pause(Nanos(rng.range(0, 1_000_000))),
                    Op::Close,
                ]),
                2 => script.push(Op::Exit),
                3 => script.extend([Op::ShutdownWrite, Op::Hang]),
                _ => script.push(Op::Hang),
            }
            WriterPlan {
                node: rng.below(NODES) as u32,
                // Several writers share a start instant, so the backlog
                // holds more than one pending connection.
                start: Nanos(1_000 + rng.below(40) * 125_000),
                script,
                kill_at: rng.chance(0.2).then(|| Nanos(rng.range(1_000, 12_000_000))),
            }
        })
        .collect()
}

/// When the reader is frozen and thawed: inside the busiest stretch of
/// the writers' start instants and pauses.
fn suspend_window(seed: u64) -> (Nanos, Nanos) {
    let mut rng = DetRng::seed_from_u64(mix2(seed, 5));
    let freeze = rng.range(500_000, 6_000_000);
    (Nanos(freeze), Nanos(freeze + rng.range(200_000, 4_000_000)))
}

struct Outcome {
    obs: Observed,
    events_fired: u64,
    end: u64,
    /// Reads by the reader that found nothing.
    would_block: u64,
}

fn run(seed: u64, drive: Drive) -> Outcome {
    let mut w = World::new(HwSpec::default(), NODES as usize, Registry::new());
    let mut sim: OsSim = Sim::new();
    let obs = Rc::new(RefCell::new(Observed::default()));
    let reader = w.spawn(
        &mut sim,
        NodeId(0),
        "reader",
        Box::new(Reader {
            drive,
            lfd: -1,
            socks: Vec::new(),
            obs: obs.clone(),
        }),
        Pid(1),
        BTreeMap::new(),
    );
    let (freeze, thaw) = suspend_window(seed);
    sim.at(freeze, move |w: &mut World, sim| {
        w.suspend_user_threads(sim, reader)
    });
    sim.at(thaw, move |w: &mut World, sim| {
        w.resume_user_threads(sim, reader)
    });
    let plans = plan(seed);
    for (id, p) in plans.iter().enumerate() {
        let (node, script, kill_at) = (NodeId(p.node), p.script.clone(), p.kill_at);
        sim.at(p.start, move |w: &mut World, sim| {
            let pid = w.spawn(
                sim,
                node,
                "writer",
                Box::new(Writer {
                    id: id as u32,
                    script,
                    pc: 0,
                    fd: -1,
                    sent: 0,
                    left: None,
                }),
                Pid(1),
                BTreeMap::new(),
            );
            if let Some(at) = kill_at {
                sim.at(at.max(sim.now()), move |w: &mut World, sim| {
                    w.signal(sim, pid, sig::SIGKILL);
                });
            }
        });
    }
    sim.run(&mut w);
    let would_block = w
        .obs
        .metrics
        .counter("oskit.sock.would_block", reader.0 as u64);
    drop(w);
    Outcome {
        obs: Rc::try_unwrap(obs).expect("world dropped").into_inner(),
        events_fired: sim.events_fired(),
        end: sim.now().0,
        would_block,
    }
}

#[test]
fn ready_set_reader_observes_what_the_poll_everything_reader_observes() {
    let mut seeds = DetRng::seed_from_u64(0x5EAD_1E55);
    let (mut sockets, mut eofs, mut ready_wb, mut poll_wb) = (0, 0, 0, 0);
    for case in 0..CASES {
        let seed = seeds.next_u64();
        let ready = run(seed, Drive::ReadySet);
        let poll = run(seed, Drive::PollAll);
        assert!(
            ready.obs.streams.len() >= 48,
            "case {case}: most of the >= 64 writers connect before any kill"
        );
        // Accept order: the i-th accepted connection is the same writer in
        // both runs (each stream is a pure function of the writer's id).
        assert_eq!(
            ready.obs.accepts, poll.obs.accepts,
            "case {case} seed {seed:#x}: accept order/instants"
        );
        assert_eq!(
            ready.obs.eof_at, poll.obs.eof_at,
            "case {case} seed {seed:#x}: EOF instants"
        );
        for (idx, (a, b)) in ready.obs.streams.iter().zip(&poll.obs.streams).enumerate() {
            assert!(a == b, "case {case} seed {seed:#x}: stream {idx} differs");
        }
        assert_eq!(
            ready.obs.reads, poll.obs.reads,
            "case {case} seed {seed:#x}: read log"
        );
        // The ready set must not move the schedule at all.
        assert_eq!(
            (ready.events_fired, ready.end),
            (poll.events_fired, poll.end),
            "case {case} seed {seed:#x}: event schedule"
        );
        sockets += ready.obs.streams.len();
        eofs += ready.obs.eof_at.iter().flatten().count();
        ready_wb += ready.would_block;
        poll_wb += poll.would_block;
    }
    // The scenarios exercised what they claim to, and the point of the
    // exercise holds: far fewer reads that find nothing.
    assert!(sockets >= 64 * CASES as usize, "sockets {sockets}");
    assert!(eofs * 2 > sockets, "eofs {eofs} of {sockets}");
    assert!(
        ready_wb * 4 < poll_wb,
        "ready-set reader would-block reads {ready_wb} vs poll-all {poll_wb}"
    );
}

/// Streams are what the writers sent: the prefix property against the
/// generator, on the ready-set reader alone. Cross-node writers only: a
/// loopback delivery is scheduled at `now + bytes / loopback_bps`, so two
/// back-to-back sends of different sizes on a same-node connection can
/// arrive out of order — a quirk of the network model that predates the
/// ready set (both readers above see the same reordered bytes) and that
/// fixing would move virtual time.
#[test]
fn ready_set_streams_are_prefixes_of_what_each_writer_sent() {
    let out = run(0xC0FFEE, Drive::ReadySet);
    let plans = plan(0xC0FFEE);
    let mut complete = 0;
    for (idx, got) in out.obs.streams.iter().enumerate() {
        // Identify the writer by trying each id against the first bytes.
        // Empty streams identify nobody and constrain nothing; a stream
        // matching no cross-node writer is a (possibly reordered) loopback
        // one.
        if got.len() < 8 {
            continue;
        }
        let Some(id) = (0..plans.len() as u32).find(|id| {
            plans[*id as usize].node != 0 && (0..8).all(|i| stream_byte(*id, i) == got[i as usize])
        }) else {
            continue;
        };
        let p = &plans[id as usize];
        for (off, b) in got.iter().enumerate() {
            assert_eq!(*b, stream_byte(id, off as u64), "stream {idx} byte {off}");
        }
        let total: usize = p
            .script
            .iter()
            .map(|op| if let Op::Send(n) = op { *n } else { 0 })
            .sum();
        assert!(got.len() <= total);
        if p.kill_at.is_none() {
            assert_eq!(got.len(), total, "unkilled writer {id} delivers all");
            complete += 1;
        }
    }
    assert!(complete >= 16, "complete streams {complete}");
}
