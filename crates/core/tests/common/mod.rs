//! Checkpointable test applications shared by the dmtcp integration tests.
#![allow(dead_code)] // each test binary uses a different subset
//!
//! These are honest applications: they never mention DMTCP (except the
//! `aware_*` variants), keep all state in snap-serializable structs, and
//! verify their own data integrity, so a checkpoint/restart that corrupts
//! a byte stream or loses in-flight data fails the test through the
//! application's own checks.

use oskit::program::{Program, Registry, Step};
use oskit::world::{OsSim, World};
use oskit::{Errno, Fd, HwSpec, Kernel};
use simkit::{Nanos, Sim, Snap};

/// A TCP server: accepts one client, then for each 8-byte LE integer
/// received replies with value + 1. Exits on client EOF, recording the
/// number of rounds served in `/shared/server_result` — or, when the client
/// dies before reading a reply, without recording anything.
pub struct EchoPlusOne {
    pub pc: u8,
    pub lfd: Fd,
    pub cfd: Fd,
    pub port: u16,
    pub rounds: u64,
    pub inbuf: Vec<u8>,
}
simkit::impl_snap!(struct EchoPlusOne { pc, lfd, cfd, port, rounds, inbuf });

impl EchoPlusOne {
    pub fn new(port: u16) -> Self {
        EchoPlusOne {
            pc: 0,
            lfd: -1,
            cfd: -1,
            port,
            rounds: 0,
            inbuf: Vec::new(),
        }
    }
}

impl Program for EchoPlusOne {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => {
                    let (fd, _) = k.listen_on(self.port).expect("server listen");
                    self.lfd = fd;
                    self.pc = 1;
                }
                1 => match k.accept(self.lfd) {
                    Ok(fd) => {
                        self.cfd = fd;
                        self.pc = 2;
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("server accept: {e:?}"),
                },
                2 => {
                    match k.read(self.cfd, 8 - self.inbuf.len()) {
                        Ok(b) if b.is_empty() => {
                            // Client done.
                            let fd = k.open("/shared/server_result", true).expect("result");
                            k.write(fd, self.rounds.to_string().as_bytes()).expect("w");
                            return Step::Exit(0);
                        }
                        Ok(b) => {
                            self.inbuf.extend_from_slice(&b);
                            if self.inbuf.len() == 8 {
                                let v =
                                    u64::from_le_bytes(self.inbuf[..].try_into().expect("8 bytes"));
                                self.inbuf.clear();
                                self.rounds += 1;
                                let reply = (v + 1).to_le_bytes();
                                match k.write(self.cfd, &reply) {
                                    Ok(n) => assert_eq!(n, 8),
                                    // The client died mid-round: no answer.
                                    Err(Errno::Pipe) => return Step::Exit(1),
                                    Err(e) => panic!("server reply: {e:?}"),
                                }
                            }
                        }
                        Err(Errno::WouldBlock) => return Step::Block,
                        Err(e) => panic!("server read: {e:?}"),
                    }
                }
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "echo-plus-one"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// The client: `rounds` request/response exchanges with compute in between,
/// verifying each reply is its value + 1; records the final accumulator in
/// `/shared/client_result`.
pub struct ChainClient {
    pub pc: u8,
    pub fd: Fd,
    pub server: String,
    pub port: u16,
    pub sent: u64,
    pub rounds: u64,
    pub value: u64,
    pub inbuf: Vec<u8>,
    /// MiB of synthetic memory ballast (exercises image size effects).
    pub ballast_mb: u64,
}
simkit::impl_snap!(struct ChainClient { pc, fd, server, port, sent, rounds, value, inbuf, ballast_mb });

impl ChainClient {
    pub fn new(server: &str, port: u16, rounds: u64) -> Self {
        ChainClient {
            pc: 0,
            fd: -1,
            server: server.to_string(),
            port,
            sent: 0,
            rounds,
            value: 1,
            inbuf: Vec::new(),
            ballast_mb: 0,
        }
    }

    pub fn with_ballast(mut self, mb: u64) -> Self {
        self.ballast_mb = mb;
        self
    }
}

impl Program for ChainClient {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => match k.connect(&self.server, self.port) {
                    Ok(fd) => {
                        if self.ballast_mb > 0 {
                            k.mmap_synthetic(
                                "client-ballast",
                                self.ballast_mb << 20,
                                77,
                                oskit::mem::FillProfile::Text,
                            );
                        }
                        self.fd = fd;
                        self.pc = 1;
                    }
                    Err(Errno::ConnRefused) => return Step::Sleep(Nanos::from_millis(2)),
                    Err(e) => panic!("client connect: {e:?}"),
                },
                1 => {
                    if self.sent == self.rounds {
                        k.close(self.fd).expect("close");
                        let fd = k.open("/shared/client_result", true).expect("result");
                        k.write(fd, self.value.to_string().as_bytes()).expect("w");
                        return Step::Exit(0);
                    }
                    let n = k.write(self.fd, &self.value.to_le_bytes()).expect("send");
                    assert_eq!(n, 8);
                    self.sent += 1;
                    self.pc = 2;
                    // A little compute between rounds keeps user threads
                    // busy when the checkpoint lands.
                    return Step::Compute(200_000);
                }
                2 => match k.read(self.fd, 8 - self.inbuf.len()) {
                    Ok(b) if b.is_empty() => panic!("server hung up mid-round"),
                    Ok(b) => {
                        self.inbuf.extend_from_slice(&b);
                        if self.inbuf.len() == 8 {
                            let v = u64::from_le_bytes(self.inbuf[..].try_into().expect("8"));
                            assert_eq!(v, self.value + 1, "stream corrupted");
                            self.value = v;
                            self.inbuf.clear();
                            self.pc = 1;
                        }
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("client read: {e:?}"),
                },
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "chain-client"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// A fork-based pipe chain: the parent creates a pipe and forks; the child
/// (fork_ret == 0) writes `total` sequenced bytes and exits; the parent
/// reads and verifies them, then records the checksum.
pub struct PipeChain {
    pub pc: u8,
    pub rfd: Fd,
    pub wfd: Fd,
    pub total: u64,
    pub progress: u64,
    pub checksum: u64,
    pub child: u32,
}
simkit::impl_snap!(struct PipeChain { pc, rfd, wfd, total, progress, checksum, child });

impl PipeChain {
    pub fn new(total: u64) -> Self {
        PipeChain {
            pc: 0,
            rfd: -1,
            wfd: -1,
            total,
            progress: 0,
            checksum: 0,
            child: 0,
        }
    }
}

impl Program for PipeChain {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => {
                    let (r, w) = k.pipe();
                    self.rfd = r;
                    self.wfd = w;
                    self.pc = 1;
                    let child = k.fork_snapshot(self).expect("fork");
                    self.child = child.0;
                }
                1 => match k.fork_ret() {
                    Some(0) => {
                        k.clear_fork_ret();
                        k.close(self.rfd).expect("child closes read end");
                        self.pc = 10; // writer
                    }
                    _ => {
                        k.clear_fork_ret();
                        k.close(self.wfd).expect("parent closes write end");
                        self.pc = 20; // reader
                    }
                },
                // ---- child: writer ----
                10 => {
                    if self.progress >= self.total {
                        k.close(self.wfd).expect("writer done");
                        return Step::Exit(0);
                    }
                    let n = (self.total - self.progress).min(2048) as usize;
                    let chunk: Vec<u8> = (self.progress..self.progress + n as u64)
                        .map(|i| (i % 251) as u8)
                        .collect();
                    match k.write(self.wfd, &chunk) {
                        Ok(sent) => {
                            self.progress += sent as u64;
                            return Step::Compute(50_000);
                        }
                        Err(Errno::WouldBlock) => return Step::Block,
                        Err(e) => panic!("pipe write: {e:?}"),
                    }
                }
                // ---- parent: reader ----
                20 => match k.read(self.rfd, 4096) {
                    Ok(b) if b.is_empty() => {
                        assert_eq!(self.progress, self.total, "short pipe stream");
                        let fd = k.open("/shared/pipe_result", true).expect("result");
                        k.write(fd, self.checksum.to_string().as_bytes())
                            .expect("w");
                        self.pc = 21;
                    }
                    Ok(b) => {
                        for &byte in &b {
                            assert_eq!(
                                byte,
                                (self.progress % 251) as u8,
                                "pipe byte order broken at {}",
                                self.progress
                            );
                            self.checksum =
                                self.checksum.wrapping_mul(31).wrapping_add(byte as u64);
                            self.progress += 1;
                        }
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("pipe read: {e:?}"),
                },
                21 => match k.waitpid(oskit::world::Pid(self.child)) {
                    Ok(code) => {
                        assert_eq!(code, 0);
                        return Step::Exit(0);
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("waitpid: {e:?}"),
                },
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "pipe-chain"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// A two-thread process: the main thread spawns a worker; both count to a
/// target with compute steps; main joins by polling a shared heap cell the
/// worker bumps, then records both counters.
pub struct TwinMain {
    pub pc: u8,
    pub heap: u64,
    pub count: u64,
    pub target: u64,
}
simkit::impl_snap!(struct TwinMain { pc, heap, count, target });

pub struct TwinWorker {
    pub heap: u64,
    pub count: u64,
    pub target: u64,
}
simkit::impl_snap!(struct TwinWorker { heap, count, target });

impl Program for TwinWorker {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.count < self.target {
            self.count += 1;
            return Step::Compute(100_000);
        }
        k.mem_write(self.heap as usize, 0, &1u64.to_le_bytes());
        Step::ExitThread
    }
    fn tag(&self) -> &'static str {
        "twin-worker"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

impl Program for TwinMain {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => {
                    self.heap = k.mmap_anon("twin-flag", 8) as u64;
                    let worker = TwinWorker {
                        heap: self.heap,
                        count: 0,
                        target: self.target,
                    };
                    k.spawn_thread(Box::new(worker), true);
                    self.pc = 1;
                }
                1 => {
                    if self.count < self.target {
                        self.count += 1;
                        return Step::Compute(100_000);
                    }
                    self.pc = 2;
                }
                2 => {
                    let flag = k.mem_read(self.heap as usize, 0, 8);
                    if u64::from_le_bytes(flag.try_into().expect("8")) == 1 {
                        let fd = k.open("/shared/twin_result", true).expect("result");
                        k.write(fd, format!("{}", self.count * 2).as_bytes())
                            .expect("w");
                        return Step::Exit(0);
                    }
                    return Step::Sleep(Nanos::from_millis(1));
                }
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "twin-main"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// Like [`ChainClient`], but fault-tolerant: when the server dies mid-run
/// (fault-injection cells kill processes at protocol stages) the client
/// exits with a nonzero status *without* writing its result file. A faulted
/// run may therefore produce no answer — never a wrong one.
pub struct FtChainClient {
    pub inner: ChainClient,
}
simkit::impl_snap!(struct FtChainClient { inner });

impl FtChainClient {
    pub fn new(server: &str, port: u16, rounds: u64) -> Self {
        FtChainClient {
            inner: ChainClient::new(server, port, rounds),
        }
    }
}

impl Program for FtChainClient {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        let c = &mut self.inner;
        loop {
            match c.pc {
                0 => match k.connect(&c.server, c.port) {
                    Ok(fd) => {
                        c.fd = fd;
                        c.pc = 1;
                    }
                    Err(Errno::ConnRefused) => return Step::Sleep(Nanos::from_millis(2)),
                    Err(e) => panic!("ft client connect: {e:?}"),
                },
                1 => {
                    if c.sent == c.rounds {
                        let _ = k.close(c.fd);
                        let fd = k.open("/shared/client_result", true).expect("result");
                        k.write(fd, c.value.to_string().as_bytes()).expect("w");
                        return Step::Exit(0);
                    }
                    match k.write(c.fd, &c.value.to_le_bytes()) {
                        Ok(n) => {
                            assert_eq!(n, 8);
                            c.sent += 1;
                            c.pc = 2;
                            return Step::Compute(200_000);
                        }
                        Err(Errno::WouldBlock) => return Step::Block,
                        // Server killed by a fault: die without an answer.
                        Err(Errno::Pipe) => return Step::Exit(1),
                        Err(e) => panic!("ft client send: {e:?}"),
                    }
                }
                2 => match k.read(c.fd, 8 - c.inbuf.len()) {
                    // Server hung up mid-round: tolerated, but no result.
                    Ok(b) if b.is_empty() => return Step::Exit(1),
                    Ok(b) => {
                        c.inbuf.extend_from_slice(&b);
                        if c.inbuf.len() == 8 {
                            let v = u64::from_le_bytes(c.inbuf[..].try_into().expect("8"));
                            assert_eq!(v, c.value + 1, "stream corrupted");
                            c.value = v;
                            c.inbuf.clear();
                            c.pc = 1;
                        }
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("ft client read: {e:?}"),
                },
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "ft-chain-client"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// Like [`PipeChain`], but fault-tolerant: if the writer child is killed
/// the reader sees a short stream and exits nonzero without a result; if
/// the reader dies the writer's EPIPE is likewise a clean exit. Used by the
/// fault matrix, where a kill mid-protocol must never yield a wrong answer.
pub struct FtPipeChain {
    pub inner: PipeChain,
}
simkit::impl_snap!(struct FtPipeChain { inner });

impl FtPipeChain {
    pub fn new(total: u64) -> Self {
        FtPipeChain {
            inner: PipeChain::new(total),
        }
    }
}

impl Program for FtPipeChain {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            // `fork_snapshot` needs `self` whole, so re-borrow per iteration.
            if self.inner.pc == 0 {
                let (r, w) = k.pipe();
                self.inner.rfd = r;
                self.inner.wfd = w;
                self.inner.pc = 1;
                let child = k.fork_snapshot(self).expect("fork");
                self.inner.child = child.0;
                continue;
            }
            let c = &mut self.inner;
            match c.pc {
                1 => match k.fork_ret() {
                    Some(0) => {
                        k.clear_fork_ret();
                        k.close(c.rfd).expect("child closes read end");
                        c.pc = 10;
                    }
                    _ => {
                        k.clear_fork_ret();
                        k.close(c.wfd).expect("parent closes write end");
                        c.pc = 20;
                    }
                },
                // ---- child: writer ----
                10 => {
                    if c.progress >= c.total {
                        let _ = k.close(c.wfd);
                        return Step::Exit(0);
                    }
                    let n = (c.total - c.progress).min(2048) as usize;
                    let chunk: Vec<u8> = (c.progress..c.progress + n as u64)
                        .map(|i| (i % 251) as u8)
                        .collect();
                    match k.write(c.wfd, &chunk) {
                        Ok(sent) => {
                            c.progress += sent as u64;
                            return Step::Compute(50_000);
                        }
                        Err(Errno::WouldBlock) => return Step::Block,
                        // Reader killed by a fault: die without an answer.
                        Err(Errno::Pipe) => return Step::Exit(1),
                        Err(e) => panic!("ft pipe write: {e:?}"),
                    }
                }
                // ---- parent: reader ----
                20 => match k.read(c.rfd, 4096) {
                    Ok(b) if b.is_empty() => {
                        if c.progress != c.total {
                            // Writer killed mid-stream: no result.
                            return Step::Exit(1);
                        }
                        let fd = k.open("/shared/pipe_result", true).expect("result");
                        k.write(fd, c.checksum.to_string().as_bytes()).expect("w");
                        c.pc = 21;
                    }
                    Ok(b) => {
                        for &byte in &b {
                            assert_eq!(
                                byte,
                                (c.progress % 251) as u8,
                                "pipe byte order broken at {}",
                                c.progress
                            );
                            c.checksum = c.checksum.wrapping_mul(31).wrapping_add(byte as u64);
                            c.progress += 1;
                        }
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("ft pipe read: {e:?}"),
                },
                21 => match k.waitpid(oskit::world::Pid(c.child)) {
                    // The child may have been SIGKILLed *after* it finished
                    // writing — the stream was complete, so any exit code
                    // is acceptable here.
                    Ok(_) => return Step::Exit(0),
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("ft waitpid: {e:?}"),
                },
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "ft-pipe-chain"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// Fills an anonymous region with a deterministic pattern, then — when the
/// test raises the `/shared/cow_go` flag — overwrites the whole region: the
/// canonical probe for copy-on-write forked checkpoints, where that write
/// must be charged a physical copy and must NOT leak into the in-flight
/// image. On `/shared/cow_dump` it records the region's rolling checksum in
/// `/shared/cow_result` and exits.
pub struct CowProbe {
    pub pc: u8,
    pub region: u64,
    pub len: u64,
    pub wrote: u8,
}
simkit::impl_snap!(struct CowProbe { pc, region, len, wrote });

impl CowProbe {
    pub fn new(len: u64) -> Self {
        CowProbe {
            pc: 0,
            region: 0,
            len,
            wrote: 0,
        }
    }

    /// The bytes the region holds at fork time.
    pub fn pattern(len: u64) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    /// Rolling checksum matching what the probe records.
    pub fn checksum(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0u64, |a, &b| a.wrapping_mul(31).wrapping_add(b as u64))
    }
}

impl Program for CowProbe {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => {
                    self.region = k.mmap_anon("cow-probe", self.len as usize) as u64;
                    k.mem_write(self.region as usize, 0, &Self::pattern(self.len));
                    let fd = k.open("/shared/cow_ready", true).expect("flag");
                    k.close(fd).expect("close flag");
                    self.pc = 1;
                }
                1 => {
                    if let Ok(fd) = k.open("/shared/cow_dump", false) {
                        k.close(fd).expect("close");
                        let bytes = k.mem_read(self.region as usize, 0, self.len as usize);
                        let fd = k.open("/shared/cow_result", true).expect("result");
                        k.write(fd, Self::checksum(&bytes).to_string().as_bytes())
                            .expect("w");
                        return Step::Exit(0);
                    }
                    if self.wrote == 0 {
                        if let Ok(fd) = k.open("/shared/cow_go", false) {
                            k.close(fd).expect("close");
                            k.mem_write(self.region as usize, 0, &vec![0xBB; self.len as usize]);
                            self.wrote = 1;
                            let fd = k.open("/shared/cow_done", true).expect("flag");
                            k.close(fd).expect("close flag");
                        }
                    }
                    return Step::Sleep(Nanos(200_000));
                }
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "cow-probe"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// Like [`CowProbe`] but over an `mmap(MAP_SHARED)` segment: writes go
/// through to the live segment (never copy-on-write), so a forked
/// checkpoint must charge nothing for them. Flags: `/shared/shm_go`,
/// `/shared/shm_done`, `/shared/shm_dump`, result `/shared/shm_result`.
pub struct ShmProbe {
    pub pc: u8,
    pub region: u64,
    pub len: u64,
    pub wrote: u8,
}
simkit::impl_snap!(struct ShmProbe { pc, region, len, wrote });

impl ShmProbe {
    pub fn new(len: u64) -> Self {
        ShmProbe {
            pc: 0,
            region: 0,
            len,
            wrote: 0,
        }
    }
}

impl Program for ShmProbe {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => {
                    let id = k.mmap_shared("/shm_probe", self.len as usize).expect("shm");
                    self.region = id as u64;
                    k.mem_write(self.region as usize, 0, &CowProbe::pattern(self.len));
                    let fd = k.open("/shared/shm_ready", true).expect("flag");
                    k.close(fd).expect("close flag");
                    self.pc = 1;
                }
                1 => {
                    if let Ok(fd) = k.open("/shared/shm_dump", false) {
                        k.close(fd).expect("close");
                        let bytes = k.mem_read(self.region as usize, 0, self.len as usize);
                        let fd = k.open("/shared/shm_result", true).expect("result");
                        k.write(fd, CowProbe::checksum(&bytes).to_string().as_bytes())
                            .expect("w");
                        return Step::Exit(0);
                    }
                    if self.wrote == 0 {
                        if let Ok(fd) = k.open("/shared/shm_go", false) {
                            k.close(fd).expect("close");
                            k.mem_write(self.region as usize, 0, &vec![0x5A; self.len as usize]);
                            self.wrote = 1;
                            let fd = k.open("/shared/shm_done", true).expect("flag");
                            k.close(fd).expect("close flag");
                        }
                    }
                    return Step::Sleep(Nanos(200_000));
                }
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "shm-probe"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// A second user thread that gives a checkpoint-unaware test process a
/// working set: it maps a 64 KiB anonymous region and rewrites all of it
/// every millisecond. The test programs above own no memory at all, and
/// `mtcp::write_checkpoint` rightly writes an image that small in-line;
/// with this thread every generation — an incremental one included — has
/// 64 KiB to compress (4.5 ms in-line) against a 0.3 ms fork, so a forked
/// session forks. The bytes are noise, which szip stores as they are: a
/// bit flipped anywhere in the image's payload is a bit flipped in memory,
/// never slack in a match token that decodes to the same bytes.
pub struct WorkingSet {
    pub mapped: bool,
    pub region: u64,
    pub tick: u64,
}
simkit::impl_snap!(struct WorkingSet { mapped, region, tick });

impl WorkingSet {
    pub const LEN: usize = 64 << 10;

    /// Add one to the freshly launched process `pid`.
    pub fn add_to(w: &mut World, sim: &mut OsSim, pid: oskit::world::Pid) {
        let ws = WorkingSet {
            mapped: false,
            region: 0,
            tick: 0,
        };
        add_user_thread(w, sim, pid, Box::new(ws));
    }
}

/// Start `prog` as one more user thread of the live process `pid`.
fn add_user_thread(w: &mut World, sim: &mut OsSim, pid: oskit::world::Pid, prog: Box<dyn Program>) {
    let p = w.procs.get_mut(&pid).expect("just launched");
    let tid = p.add_thread(prog, true);
    w.schedule_dispatch(sim, pid, tid);
}

/// A second user thread that gives a test process memory a restore has to
/// fill in: it maps four 64 KiB regions of noise, never writes them again,
/// and reads a word of one of them every millisecond. From the second
/// generation on an incremental image inherits them from the first, so a
/// restore maps them cold and this thread's next read waits for one to land.
pub struct ColdSet {
    pub regions: Vec<u64>,
    pub tick: u64,
}
simkit::impl_snap!(struct ColdSet { regions, tick });

impl ColdSet {
    pub const REGIONS: u64 = 4;
    pub const LEN: usize = 64 << 10;

    /// Add one to the freshly launched process `pid`.
    pub fn add_to(w: &mut World, sim: &mut OsSim, pid: oskit::world::Pid) {
        let cs = ColdSet {
            regions: Vec::new(),
            tick: 0,
        };
        add_user_thread(w, sim, pid, Box::new(cs));
    }
}

impl Program for ColdSet {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.regions.is_empty() {
            for i in 0..Self::REGIONS {
                let id = k.mmap_anon(&format!("cold-set{i}"), Self::LEN);
                let noise = oskit::mem::FillProfile::Random.bytes(0xc01d ^ i, Self::LEN);
                k.mem_write(id, 0, &noise);
                self.regions.push(id as u64);
            }
        }
        self.tick += 1;
        let id = self.regions[(self.tick % Self::REGIONS) as usize];
        k.mem_read(id as usize, 0, 8);
        Step::Sleep(Nanos::from_millis(1))
    }
    fn tag(&self) -> &'static str {
        "cold-set"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

impl Program for WorkingSet {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if !self.mapped {
            self.region = k.mmap_anon("working-set", Self::LEN) as u64;
            self.mapped = true;
        }
        self.tick += 1;
        let noise = oskit::mem::FillProfile::Random.bytes(self.tick, Self::LEN);
        k.mem_write(self.region as usize, 0, &noise);
        Step::Sleep(Nanos::from_millis(1))
    }
    fn tag(&self) -> &'static str {
        "working-set"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// Registry with every test application.
pub fn test_registry() -> Registry {
    let mut r = Registry::new();
    r.register_snap::<WorkingSet>("working-set");
    r.register_snap::<ColdSet>("cold-set");
    r.register_snap::<EchoPlusOne>("echo-plus-one");
    r.register_snap::<ChainClient>("chain-client");
    r.register_snap::<PipeChain>("pipe-chain");
    r.register_snap::<TwinMain>("twin-main");
    r.register_snap::<TwinWorker>("twin-worker");
    r.register_snap::<FtChainClient>("ft-chain-client");
    r.register_snap::<FtPipeChain>("ft-pipe-chain");
    r.register_snap::<CowProbe>("cow-probe");
    r.register_snap::<ShmProbe>("shm-probe");
    r
}

/// A standard 2-node world + sim.
pub fn cluster(nodes: usize) -> (World, OsSim) {
    (
        World::new(HwSpec::cluster(), nodes, test_registry()),
        Sim::new(),
    )
}

/// Launch the two-node chain workload under `s`: the echo server on node 1,
/// a client on node 0 driving it for `rounds` round trips.
pub fn launch_chain(w: &mut World, sim: &mut OsSim, s: &dmtcp::Session, rounds: u64) {
    let server = Box::new(EchoPlusOne::new(9000));
    s.launch(w, sim, oskit::world::NodeId(1), "server", server);
    let client = Box::new(ChainClient::new("node01", 9000, rounds));
    s.launch(w, sim, oskit::world::NodeId(0), "client", client);
}

/// Event budget for bounded simulation runs.
///
/// Defaults to 8 million events; override with `DMTCP_TEST_EV_BUDGET` when a
/// slow machine or an unusually deep workload needs more headroom. Tests use
/// this through `Sim::run_budgeted` so that an exhausted budget is reported
/// distinctly from a genuine deadlock (drained queue, unfinished app).
pub fn run_budget() -> u64 {
    std::env::var("DMTCP_TEST_EV_BUDGET")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(8_000_000)
}

/// FNV-1a, for pinning a journal or a release list to one recorded number.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Read a /shared result file as a string.
pub fn shared_result(w: &World, path: &str) -> Option<String> {
    w.shared_fs
        .read_all(path)
        .ok()
        .map(|b| String::from_utf8(b).expect("utf8"))
}
