//! Layer replay: after the traced run's measured phases, time direct calls
//! into each layer's public functions on the very bytes, images, messages and
//! populations the workload produced. These unit costs, multiplied by the
//! untraced phase's work counts, give the `attrib.*` shares; by themselves
//! they are the per-layer host rates.
//!
//! Also writes the Perfetto trace of the traced run.

use crate::harness::{Sys, Tracer, Workload};
use dmtcp::proto::{frame, FrameBuf, Msg};
use mtcp::WriteMode;
use oskit::mem::{Content, RegionId};
use oskit::proc::sig;
use oskit::program::{Program, Registry, Step};
use oskit::world::{NodeId, OsSim, Pid, World};
use oskit::{Errno, Fd, HwSpec, Kernel};
use simkit::rng::{mix2, splitmix64};
use simkit::{Nanos, Sim};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Workload processes sampled (evenly spaced over the live set).
const MAX_TARGETS: usize = 16;
/// Replay images live under their own directory and virtual pids, so they
/// share no store lineage (retention, alias chains) with the workload's.
const REPLAY_DIR: &str = "/perf-replay";
const REPLAY_VPID_BASE: u32 = 4_000_000;
/// Image-level calls run this many times per process and the fastest counts:
/// the first round pays for memory the allocator has never touched, which no
/// steady-state checkpoint or restart does.
const ROUNDS: u32 = 2;

/// Host seconds one image costs each layer.
#[derive(Clone, Copy)]
pub struct UnitCost {
    pub szip_s: f64,
    pub crc_s: f64,
    pub mtcp_s: f64,
    pub store_s: f64,
}

/// Everything the replay measured.
pub struct Replay {
    pub compress_mb_s: f64,
    pub decompress_mb_s: f64,
    pub crc32_mb_s: f64,
    pub write_full_ms: f64,
    pub write_incr_ms: f64,
    pub restore_ms: f64,
    pub verify_ms: f64,
    pub commit_mb_s: f64,
    pub resolve_ms: f64,
    pub engine_mevents_s: f64,
    pub sched_steps_s: f64,
    pub net_msgs_s: f64,
    pub spawn_us: f64,
    pub proto_encode_mframes_s: f64,
    pub proto_decode_mframes_s: f64,
    /// Encode + decode seconds per frame.
    pub proto_frame_s: f64,
    pub journal_mrecords_s: f64,
    /// Per full capture, per incremental capture, per restored image.
    pub full: UnitCost,
    pub incr: UnitCost,
    pub restore: UnitCost,
}

/// Accumulated `(bytes, time)` of one kind of byte work.
#[derive(Default)]
struct Rate {
    bytes: u64,
    time: Duration,
}

impl Rate {
    fn add(&mut self, bytes: usize, time: Duration) {
        self.bytes += bytes as u64;
        self.time += time;
    }
    fn mb_s(&self) -> f64 {
        if self.time.is_zero() {
            0.0
        } else {
            self.bytes as f64 / 1e6 / self.time.as_secs_f64()
        }
    }
}

/// Time `f` as one harness span in layer `layer`.
fn timed<T>(
    t: &mut Tracer,
    name: &'static str,
    layer: &'static str,
    virt: Nanos,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let token = t.begin(name, layer, virt);
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    let dt = t0.elapsed();
    t.end(token, virt);
    (out, dt)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// szip and CRC time over one set of regions of a process.
#[derive(Default, Clone, Copy)]
struct ByteCost {
    compress: Duration,
    crc: Duration,
    decompress: Duration,
}

/// Shared accumulators of the byte-level replay.
#[derive(Default)]
struct ByteRates {
    compress: Rate,
    decompress: Rate,
    crc: Rate,
}

/// Run szip and `crc32` over the bytes the writer would feed them for
/// `regions` of `pid`: real regions whole, synthetic ones by the estimator's
/// sampling policy (and only when `compressed`).
fn byte_replay(
    t: &mut Tracer,
    sys: &Sys,
    pid: Pid,
    regions: &[RegionId],
    compressed: bool,
    rates: &mut ByteRates,
) -> ByteCost {
    let now = sys.sim.now();
    let estimator = szip::SizeEstimator::default();
    let mem = &sys.w.procs[&pid].mem;
    let mut cost = ByteCost::default();
    for &id in regions {
        let Some(region) = mem.region(id) else {
            continue;
        };
        match &region.content {
            Content::Synthetic { seed, len, profile } => {
                let n = if estimator.should_sample(*len) {
                    estimator.sample_len
                } else {
                    *len
                };
                let bytes = profile.bytes(*seed, n as usize);
                let (_, dt) = timed(t, "szip::compressed_len", "szip", now, || {
                    szip::compressed_len(&bytes)
                });
                rates.compress.add(bytes.len(), dt);
                if compressed {
                    cost.compress += dt;
                }
            }
            Content::Real(b) => real_bytes_replay(t, now, b, compressed, rates, &mut cost),
            Content::Shared(b) => {
                real_bytes_replay(t, now, &b.borrow(), compressed, rates, &mut cost)
            }
        }
    }
    cost
}

/// Compress, checksum and decompress one real region's bytes.
fn real_bytes_replay(
    t: &mut Tracer,
    now: Nanos,
    bytes: &[u8],
    compressed: bool,
    rates: &mut ByteRates,
    cost: &mut ByteCost,
) {
    let (packed, dt) = timed(t, "szip::compress", "szip", now, || szip::compress(bytes));
    rates.compress.add(bytes.len(), dt);
    let (_, dt_crc) = timed(t, "szip::crc32", "szip", now, || szip::crc32(bytes));
    rates.crc.add(bytes.len(), dt_crc);
    let (_, dt_de) = timed(t, "szip::decompress", "szip", now, || {
        szip::decompress(&packed).expect("round trip")
    });
    rates.decompress.add(bytes.len(), dt_de);
    // The writer checksums real bytes in every mode; it compresses (and a
    // restore decompresses) only in the compressed ones.
    cost.crc += dt_crc;
    if compressed {
        cost.compress += dt;
        cost.decompress += dt_de;
    }
}

/// A thread-less placeholder the restore replay restores *into*.
struct Husk;
impl Program for Husk {
    fn step(&mut self, _k: &mut Kernel<'_>) -> Step {
        Step::Block
    }
    fn tag(&self) -> &'static str {
        "perf-husk"
    }
    fn save(&self) -> Vec<u8> {
        Vec::new()
    }
}

/// Host time of every image-level call on one process.
#[derive(Clone, Copy)]
struct ImageTimes {
    full: Duration,
    incr: Duration,
    store_full: Duration,
    store_incr: Duration,
    resolve: Duration,
    verify: Duration,
    restore: Duration,
    /// Whether the second capture really took the incremental path.
    incremental: bool,
    /// Materialized bytes of the full image's blob.
    blob_bytes: u64,
}

impl ImageTimes {
    /// The faster of two rounds, call by call.
    fn best(self, o: ImageTimes) -> ImageTimes {
        ImageTimes {
            full: self.full.min(o.full),
            incr: self.incr.min(o.incr),
            store_full: self.store_full.min(o.store_full),
            store_incr: self.store_incr.min(o.store_incr),
            resolve: self.resolve.min(o.resolve),
            verify: self.verify.min(o.verify),
            restore: self.restore.min(o.restore),
            ..self
        }
    }
}

/// One round of image-level calls on suspended process `pid`: a full and an
/// incremental `write_image` (the latter after re-dirtying `pattern`), a
/// store commit of each and a resolve, then a verify and a restore of the
/// newest image.
fn image_round(
    t: &mut Tracer,
    sys: &mut Sys,
    pid: Pid,
    vpid: u32,
    mode: WriteMode,
    pattern: &[RegionId],
) -> ImageTimes {
    let now = sys.sim.now();
    let node = sys.w.procs[&pid].node;
    let path = |gen: u32| format!("{REPLAY_DIR}/ckpt_{vpid}_gen{gen}.dmtcp");
    // No baseline: the next capture is a full one.
    mtcp::incr::clear_state(&mut sys.w, pid);
    let (_, full) = timed(t, "mtcp::write_image(full)", "mtcp", now, || {
        mtcp::write_image(&mut sys.w, now, pid, &path(1), mode, vpid, Vec::new())
    });
    // Re-dirty the pattern without changing a byte, so the oracle still
    // holds afterwards.
    for &id in pattern {
        let mem = &mut sys.w.procs.get_mut(&pid).expect("target is live").mem;
        if matches!(mem.region(id).map(|r| &r.content), Some(Content::Real(_))) {
            let len = mem.region(id).map_or(0, |r| r.len()) as usize;
            let bytes = mem.read(id, 0, len);
            mem.write(id, 0, &bytes);
        }
    }
    let (report, incr) = timed(t, "mtcp::write_image(incr)", "mtcp", now, || {
        mtcp::write_image(&mut sys.w, now, pid, &path(2), mode, vpid, Vec::new())
    });

    // Store: commit the full image on a node past the replica ring, the
    // incremental one where its alias extents resolve (the writing node);
    // resolve what was just written.
    let mut store_full = Duration::ZERO;
    let mut store_incr = Duration::ZERO;
    let mut resolve = Duration::ZERO;
    let mut blob_bytes = 0;
    if let Some(store) = mtcp::store::installed(&sys.w) {
        let far = NodeId((node.0 + 2) % sys.w.nodes.len() as u32);
        let other = |gen: u32| format!("{REPLAY_DIR}/ckpt_{}_gen{gen}.dmtcp", vpid + 1_000_000);
        for (gen, target, slot) in [(1, far, &mut store_full), (2, node, &mut store_incr)] {
            let Some(img) = ckptstore::resolve_image(&sys.w, node, &path(gen)) else {
                continue;
            };
            (_, *slot) = timed(t, "ImageStore::commit", "ckptstore", now, || {
                store.commit(&mut sys.w, now, target, &other(gen), &img.blob)
            });
            if gen == 1 {
                blob_bytes = img.blob.real_len();
            }
        }
        (_, resolve) = timed(t, "ckptstore::resolve_image", "ckptstore", now, || {
            ckptstore::resolve_image(&sys.w, node, &path(2))
        });
    }

    // Verify and restore the newest image, into a scratch process so the
    // workload's own process is untouched.
    let (verified, verify) = timed(t, "mtcp::verify_image", "mtcp", now, || {
        mtcp::verify_image(&sys.w, node, &path(2))
    });
    let img = verified.expect("an image written a moment ago verifies");
    let husk = sys.w.spawn(
        &mut sys.sim,
        node,
        "perf-husk",
        Box::new(Husk),
        Pid(1),
        BTreeMap::new(),
    );
    let (restored, restore) = timed(t, "mtcp::restore_into", "mtcp", now, || {
        mtcp::restore_into(&mut sys.w, now, husk, node, &path(2), &img)
    });
    restored.expect("an image written a moment ago restores");
    // Kill and reap, so the restored memory goes back to the allocator.
    sys.w.signal(&mut sys.sim, husk, sig::SIGKILL);
    sys.w.reap(husk);

    ImageTimes {
        full,
        incr,
        store_full,
        store_incr,
        resolve,
        verify,
        restore,
        incremental: report.incremental,
        blob_bytes,
    }
}

/// Split the host time of one image-level call among the layers: szip and
/// CRC as timed on the same bytes, the store as timed on the same blob, mtcp
/// the rest — each part capped so the parts never exceed the whole.
fn split(total: Duration, szip: Duration, crc: Duration, store: Duration) -> UnitCost {
    let mut left = total;
    let mut take = |part: Duration| {
        let got = part.min(left);
        left -= got;
        got.as_secs_f64()
    };
    UnitCost {
        szip_s: take(szip),
        crc_s: take(crc),
        store_s: take(store),
        mtcp_s: left.as_secs_f64(),
    }
}

/// Replay one process: szip/CRC on its bytes, then [`ROUNDS`] rounds of
/// image-level calls, of which the fastest counts. Pushes one sample per
/// quantity.
fn replay_process(
    t: &mut Tracer,
    sys: &mut Sys,
    pid: Pid,
    nth: u32,
    mode: WriteMode,
    s: &mut Samples,
) {
    let all: Vec<RegionId> = sys.w.procs[&pid].mem.iter().map(|(id, _)| id).collect();
    // What this process dirtied since its last checkpoint is the workload's
    // own write pattern; without an armed dirty set, assume everything.
    let pattern: Vec<RegionId> = match sys.w.procs[&pid].mem.dirty_regions() {
        Some(d) => d.iter().copied().collect(),
        None => all.clone(),
    };
    let compressed = mode.compressed();
    let bytes_full = byte_replay(t, sys, pid, &all, compressed, &mut s.rates);
    let bytes_incr = byte_replay(t, sys, pid, &pattern, compressed, &mut s.rates);

    t.call("World::suspend_user_threads", "oskit", sys, |w, sim| {
        w.suspend_user_threads(sim, pid)
    });
    let it = (0..ROUNDS)
        .map(|round| {
            let vpid = REPLAY_VPID_BASE + nth * ROUNDS + round;
            image_round(t, sys, pid, vpid, mode, &pattern)
        })
        .reduce(ImageTimes::best)
        .expect("ROUNDS > 0");
    t.call("World::resume_user_threads", "oskit", sys, |w, sim| {
        w.resume_user_threads(sim, pid)
    });

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    s.write_full_ms.push(ms(it.full));
    s.write_incr_ms.push(ms(it.incr));
    s.verify_ms.push(ms(it.verify));
    s.restore_ms.push(ms(it.restore));
    if it.blob_bytes > 0 {
        s.resolve_ms.push(ms(it.resolve));
        s.commit.add(it.blob_bytes as usize, it.store_full);
    }
    s.full.push(split(
        it.full,
        bytes_full.compress,
        bytes_full.crc,
        it.store_full,
    ));
    // Only a capture that really went incremental prices the incremental
    // path; elsewhere the second write is one more full capture.
    s.incr.push(if it.incremental {
        split(it.incr, bytes_incr.compress, bytes_incr.crc, it.store_incr)
    } else {
        split(it.incr, bytes_full.compress, bytes_full.crc, it.store_full)
    });
    // A restart verifies each image and then restores it: both decompress,
    // check every CRC and resolve the blob.
    s.restore.push(split(
        it.verify + it.restore,
        2 * bytes_full.decompress,
        2 * bytes_full.crc,
        2 * it.resolve,
    ));
}

#[derive(Default)]
struct Samples {
    rates: ByteRates,
    commit: Rate,
    write_full_ms: Vec<f64>,
    write_incr_ms: Vec<f64>,
    verify_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    resolve_ms: Vec<f64>,
    full: Vec<UnitCost>,
    incr: Vec<UnitCost>,
    restore: Vec<UnitCost>,
}

fn mean_cost(xs: &[UnitCost]) -> UnitCost {
    let f = |get: fn(&UnitCost) -> f64| mean(&xs.iter().map(get).collect::<Vec<_>>());
    UnitCost {
        szip_s: f(|c| c.szip_s),
        crc_s: f(|c| c.crc_s),
        mtcp_s: f(|c| c.mtcp_s),
        store_s: f(|c| c.store_s),
    }
}

/// The whole replay for one workload instance.
pub fn run(wl: &mut dyn Workload, t: &mut Tracer) -> Replay {
    // One more generation and gap: every process then has a baseline and
    // carries exactly one gap's worth of dirty regions, even if the measured
    // phase ended on a recovery that restored it from scratch.
    let op = t.begin_op("replay-warm", wl.sys().sim.now());
    let warm = wl.checkpoint(t);
    let gap = wl.gap_base();
    t.run_for(wl.sys(), gap);
    t.end(op, wl.sys().sim.now());
    if let Err(e) = warm {
        eprintln!("perf: replay warm-up generation failed: {e}");
    }

    let mode = if wl.compressed() {
        WriteMode::Compressed
    } else {
        WriteMode::Uncompressed
    };
    // Every live traced process of the workload is a candidate.
    let targets: Vec<Pid> = wl
        .sys()
        .w
        .procs
        .iter()
        .filter(|(_, p)| p.alive() && p.virt_pid.is_some())
        .map(|(pid, _)| *pid)
        .collect();
    let population = targets.len();
    let step = population.div_ceil(MAX_TARGETS).max(1);
    let mut s = Samples::default();
    for (nth, &pid) in targets.iter().step_by(step).enumerate() {
        let op = t.begin_op("replay-process", wl.sys().sim.now());
        replay_process(t, wl.sys(), pid, nth as u32, mode, &mut s);
        t.end(op, wl.sys().sim.now());
    }

    let op = t.begin_op("replay-micro", wl.sys().sim.now());
    let now = wl.sys().sim.now();
    let pending = wl.sys().sim.pending().max(1);
    let (engine_mevents_s, _) = timed(t, "Sim::run_budgeted", "simkit", now, || {
        engine_rate(pending)
    });
    let ((sched_steps_s, spawn_us), _) = timed(t, "dispatch sleepers", "oskit", now, || {
        sched_rate(population.max(1))
    });
    let (net_msgs_s, _) = timed(t, "tcp ping-pong", "oskit", now, net_rate);
    let mix = message_mix(&wl.sys().w);
    let ((enc, dec), _) = timed(t, "proto::frame/FrameBuf", "core", now, || {
        proto_rates(&mix)
    });
    let (journal_mrecords_s, _) = timed(t, "Journal::record", "obs", now, journal_rate);
    t.end(op, now);

    Replay {
        compress_mb_s: s.rates.compress.mb_s(),
        decompress_mb_s: s.rates.decompress.mb_s(),
        crc32_mb_s: s.rates.crc.mb_s(),
        write_full_ms: mean(&s.write_full_ms),
        write_incr_ms: mean(&s.write_incr_ms),
        restore_ms: mean(&s.restore_ms),
        verify_ms: mean(&s.verify_ms),
        commit_mb_s: s.commit.mb_s(),
        resolve_ms: mean(&s.resolve_ms),
        engine_mevents_s,
        sched_steps_s,
        net_msgs_s,
        spawn_us,
        proto_encode_mframes_s: enc / 1e6,
        proto_decode_mframes_s: dec / 1e6,
        proto_frame_s: 1.0 / enc + 1.0 / dec,
        journal_mrecords_s,
        full: mean_cost(&s.full),
        incr: mean_cost(&s.incr),
        restore: mean_cost(&s.restore),
    }
}

// ---------------------------------------------------------------------
// simkit: the bare engine at the workload's pending-event population.
// ---------------------------------------------------------------------

fn engine_timer(w: &mut u64, sim: &mut Sim<u64>, key: u64) {
    *w = mix2(*w ^ sim.now().0, key);
    let mut s = key ^ sim.now().0;
    let r = splitmix64(&mut s);
    if r.is_multiple_of(64) {
        // A barrier release: a same-instant storm of boxed events.
        for i in 0..8u64 {
            sim.soon(move |w: &mut u64, sim| *w = mix2(*w ^ sim.now().0, i));
        }
    }
    // Mostly 10 ms sleeps (the programs' period), some microsecond hops.
    let delta = if r.is_multiple_of(4) {
        1_000 + r % 100_000
    } else {
        9_000_000 + r % 2_000_000
    };
    sim.at_keyed(sim.now() + Nanos(delta), splitmix64(&mut s), engine_timer);
}

/// Million events per host second of a bare `Sim<u64>` holding `pending`
/// self-re-arming keyed timers with periodic `soon` storms.
fn engine_rate(pending: usize) -> f64 {
    const EVENTS: u64 = 2_000_000;
    let mut sim: Sim<u64> = Sim::new();
    let mut w = 0u64;
    let mut s = 0xC0FFEE;
    for _ in 0..pending {
        let key = splitmix64(&mut s);
        sim.at_keyed(Nanos(1 + key % 10_000_000), key, engine_timer);
    }
    let t0 = Instant::now();
    sim.run_budgeted(&mut w, EVENTS);
    std::hint::black_box(w);
    sim.events_fired() as f64 / 1e6 / t0.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------
// oskit: dispatcher, spawn and network, no DMTCP anywhere.
// ---------------------------------------------------------------------

/// Sleeps 1 ms, forever.
struct Napper;
impl Program for Napper {
    fn step(&mut self, _k: &mut Kernel<'_>) -> Step {
        Step::Sleep(Nanos::from_millis(1))
    }
    fn tag(&self) -> &'static str {
        "perf-napper"
    }
    fn save(&self) -> Vec<u8> {
        Vec::new()
    }
}

fn bare_world(nodes: usize) -> (World, OsSim) {
    (
        World::new(HwSpec::cluster(), nodes, Registry::new()),
        Sim::new(),
    )
}

/// `(scheduler steps per host second, microseconds per spawn)` with `procs`
/// sleeping processes on 8 nodes.
fn sched_rate(procs: usize) -> (f64, f64) {
    const STEPS: u64 = 1_000_000;
    let (mut w, mut sim) = bare_world(8);
    let t0 = Instant::now();
    for i in 0..procs {
        w.spawn(
            &mut sim,
            NodeId((i % 8) as u32),
            "napper",
            Box::new(Napper),
            Pid(1),
            BTreeMap::new(),
        );
    }
    let spawn_us = t0.elapsed().as_secs_f64() * 1e6 / procs as f64;
    // Every process steps once per virtual millisecond.
    let millis = STEPS.div_ceil(procs as u64);
    let t0 = Instant::now();
    sim.run_until(&mut w, Nanos::from_millis(millis));
    let steps = millis * procs as u64;
    (steps as f64 / t0.elapsed().as_secs_f64(), spawn_us)
}

const PING_PORT: u16 = 5_000;
const PING_ROUNDS: u32 = 50_000;

struct Pong {
    lfd: Fd,
    cfd: Fd,
}
impl Program for Pong {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.lfd < 0 {
            self.lfd = k.listen_on(PING_PORT).expect("port is free").0;
        }
        if self.cfd < 0 {
            match k.accept(self.lfd) {
                Ok(fd) => self.cfd = fd,
                Err(Errno::WouldBlock) => return Step::Block,
                Err(e) => panic!("accept: {e:?}"),
            }
        }
        loop {
            match k.read(self.cfd, 4096) {
                Ok(b) if b.is_empty() => return Step::Exit(0),
                Ok(b) => {
                    k.write(self.cfd, &b).expect("echo");
                }
                Err(Errno::WouldBlock) => return Step::Block,
                Err(e) => panic!("read: {e:?}"),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "perf-pong"
    }
    fn save(&self) -> Vec<u8> {
        Vec::new()
    }
}

struct Ping {
    fd: Fd,
    sent: u32,
    waiting: bool,
}
impl Program for Ping {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.fd < 0 {
            match k.connect("node01", PING_PORT) {
                Ok(fd) => self.fd = fd,
                Err(Errno::ConnRefused) => return Step::Sleep(Nanos::from_millis(1)),
                Err(e) => panic!("connect: {e:?}"),
            }
        }
        loop {
            if self.waiting {
                match k.read(self.fd, 4096) {
                    Ok(b) if b.is_empty() => panic!("pong hung up"),
                    Ok(_) => self.waiting = false,
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("read: {e:?}"),
                }
            }
            if self.sent == PING_ROUNDS {
                k.close(self.fd).expect("close");
                return Step::Exit(0);
            }
            k.write(self.fd, &[0x5a; 64]).expect("ping");
            self.sent += 1;
            self.waiting = true;
        }
    }
    fn tag(&self) -> &'static str {
        "perf-ping"
    }
    fn save(&self) -> Vec<u8> {
        Vec::new()
    }
}

/// Messages per host second of a two-node TCP ping-pong of 64-byte frames.
fn net_rate() -> f64 {
    let (mut w, mut sim) = bare_world(2);
    let spawn = |w: &mut World, sim: &mut OsSim, node: u32, prog: Box<dyn Program>| {
        w.spawn(sim, NodeId(node), "pingpong", prog, Pid(1), BTreeMap::new())
    };
    spawn(&mut w, &mut sim, 1, Box::new(Pong { lfd: -1, cfd: -1 }));
    let ping = spawn(
        &mut w,
        &mut sim,
        0,
        Box::new(Ping {
            fd: -1,
            sent: 0,
            waiting: false,
        }),
    );
    let t0 = Instant::now();
    while w.procs.get(&ping).is_some_and(|p| p.alive()) && sim.step(&mut w) {}
    2.0 * PING_ROUNDS as f64 / t0.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------
// core: protocol framing on the workload's own message mix.
// ---------------------------------------------------------------------

/// A representative message of the variant the flight recorder named.
fn sample_msg(name: &str) -> Option<Msg> {
    let gsid = dmtcp::gsid::Gsid(0x0007_a1b2_c3d4);
    let host = || "node07".to_string();
    Some(match name {
        "Register" => Msg::Register(20_417, host()),
        "CkptRequest" => Msg::CkptRequest(42),
        "BarrierReached" => Msg::BarrierReached(42, 4),
        "BarrierRelease" => Msg::BarrierRelease(42, 4),
        "Advertise" => Msg::Advertise(gsid, host(), 30_007),
        "Query" => Msg::Query(gsid),
        "QueryReply" => Msg::QueryReply(gsid, host(), 30_007),
        "RestartPlan" => Msg::RestartPlan(16, 42),
        "Refill" => Msg::Refill(vec![0x5a; 256]),
        "CkptAbort" => Msg::CkptAbort(42),
        "RelayRegister" => Msg::RelayRegister(host()),
        "RelayMembership" => Msg::RelayMembership(16, 0),
        "BarrierAckN" => Msg::BarrierAckN(42, 4, 16),
        "RelayPing" => Msg::RelayPing(42),
        "RelayPong" => Msg::RelayPong(42),
        "OpenSession" => Msg::OpenSession("tenant-a".to_string(), 4),
        "SessionAccepted" => Msg::SessionAccepted(17, 7_802, "/ckpt/tenants/tenant-a/s17".into()),
        "SessionRejected" => Msg::SessionRejected(3, "quota".to_string()),
        "CloseSession" => Msg::CloseSession(17),
        "SessionCkpt" => Msg::SessionCkpt(17),
        "MigratePlan" => Msg::MigratePlan(1, 42),
        _ => return None,
    })
}

/// Up to 4096 protocol messages in the proportions the flight recorder saw
/// during the recorded phases (its retained window of `msg.send` events).
fn message_mix(w: &World) -> Vec<Msg> {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for ev in w.obs.journal.events() {
        if ev.kind == "msg.send" && !ev.detail.is_empty() {
            *counts.entry(ev.detail.as_str()).or_default() += 1;
        }
    }
    let total: usize = counts.values().sum();
    let mut mix = Vec::new();
    for (name, n) in counts {
        if let Some(msg) = sample_msg(name) {
            let share = (n * 4096).div_ceil(total.max(1));
            mix.extend(std::iter::repeat_n(msg, share));
        }
    }
    if mix.is_empty() {
        // Nothing retained: fall back to one participant's barrier traffic.
        mix.push(Msg::CkptRequest(42));
        for stage in 2..8 {
            mix.push(Msg::BarrierReached(42, stage));
            mix.push(Msg::BarrierRelease(42, stage));
        }
    }
    mix
}

/// `(frames encoded per second, frames decoded per second)` over `mix`.
fn proto_rates(mix: &[Msg]) -> (f64, f64) {
    const FRAMES: usize = 400_000;
    let rounds = FRAMES.div_ceil(mix.len());
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let t0 = Instant::now();
    for _ in 0..rounds {
        frames.clear();
        frames.extend(mix.iter().map(frame));
        std::hint::black_box(&frames);
    }
    let enc = (rounds * mix.len()) as f64 / t0.elapsed().as_secs_f64();
    let mut fb = FrameBuf::new();
    let t0 = Instant::now();
    for _ in 0..rounds {
        for f in &frames {
            fb.feed(f);
            std::hint::black_box(fb.pop().expect("well-formed frame"));
        }
    }
    let dec = (rounds * mix.len()) as f64 / t0.elapsed().as_secs_f64();
    (enc, dec)
}

// ---------------------------------------------------------------------
// obs: the flight recorder's record path.
// ---------------------------------------------------------------------

/// Million journal records per host second, scheduler-step shaped.
fn journal_rate() -> f64 {
    const RECORDS: u64 = 500_000;
    let mut j = obs::Journal::new();
    j.enable(obs::journal::CLASS_ALL);
    let t0 = Instant::now();
    for i in 0..RECORDS {
        j.record(
            Nanos(i),
            obs::journal::CLASS_SCHED,
            "sched.step",
            None,
            &[("pid", i & 0xfff), ("tid", 0)],
            "",
        );
    }
    std::hint::black_box(j.len());
    RECORDS as f64 / 1e6 / t0.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------
// The trace file.
// ---------------------------------------------------------------------

/// Chrome `pid` of the harness tracks: far from any simulated pid.
const HARNESS_PID: u64 = 9_000_000;

/// Write the traced run as Chrome trace-event JSON (load in Perfetto): the
/// program's own virtual-clock spans, plus every harness span twice — on the
/// virtual clock, where it lines up with the program's tracks, and on the
/// host clock, where its width is what the operation cost this machine.
pub fn write_trace(
    wl: &mut dyn Workload,
    t: &Tracer,
    out_dir: &str,
    workload: &str,
) -> std::io::Result<String> {
    let program = wl.sys().w.obs.chrome_trace();
    let mut events = String::new();
    for (tid, clock) in [(1u64, "virtual clock"), (2, "host clock")] {
        events.push_str(&format!(
            ",{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{HARNESS_PID},\"tid\":{tid},\
             \"args\":{{\"name\":\"harness calls, {clock}\"}}}}"
        ));
    }
    events.push_str(&format!(
        ",{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{HARNESS_PID},\"tid\":0,\
         \"args\":{{\"name\":\"perf harness\"}}}}"
    ));
    for (i, s) in t.spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let virt = (s.virt_ns.0 as f64 / 1e3, s.virt_ns.1 as f64 / 1e3);
        for (tid, (start, end)) in [(1u64, virt), (2, s.host_us)] {
            let mut j = obs::json::JsonWriter::new();
            j.obj_begin()
                .field_str("name", s.name)
                .field_str("cat", s.layer)
                .field_str("ph", "X")
                .field_u64("pid", HARNESS_PID)
                .field_u64("tid", tid)
                .field_f64("ts", start)
                .field_f64("dur", end - start);
            j.key("args")
                .obj_begin()
                .field_u64("span", i as u64)
                .key("parent")
                .val_i64(parent)
                .field_u64("op", s.op)
                .field_f64("host_us", s.host_us.1 - s.host_us.0)
                .field_f64("virt_us", virt.1 - virt.0)
                .obj_end();
            j.obj_end();
            events.push(',');
            events.push_str(&j.into_string());
        }
    }
    // Splice the harness events in before the program trace's closing `]}`.
    let close = program
        .rfind(']')
        .expect("a chrome trace ends its event array");
    let mut doc = String::with_capacity(program.len() + events.len());
    doc.push_str(&program[..close]);
    if program[..close].trim_end().ends_with('[') {
        // Empty event array: drop the leading comma.
        doc.push_str(&events[1..]);
    } else {
        doc.push_str(&events);
    }
    doc.push_str(&program[close..]);
    std::fs::create_dir_all(out_dir)?;
    let path = format!("{out_dir}/trace-{workload}.json");
    std::fs::write(&path, doc)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_protocol_variant_has_a_sample() {
        for name in [
            "Register",
            "CkptRequest",
            "BarrierReached",
            "BarrierRelease",
            "Advertise",
            "Query",
            "QueryReply",
            "RestartPlan",
            "Refill",
            "CkptAbort",
            "RelayRegister",
            "RelayMembership",
            "BarrierAckN",
            "RelayPing",
            "RelayPong",
            "OpenSession",
            "SessionAccepted",
            "SessionRejected",
            "CloseSession",
            "SessionCkpt",
            "MigratePlan",
        ] {
            let msg = sample_msg(name).unwrap_or_else(|| panic!("{name} has no sample"));
            assert_eq!(dmtcp::proto::msg_name(&msg), name);
        }
        assert!(sample_msg("NoSuchFrame").is_none());
    }
}
