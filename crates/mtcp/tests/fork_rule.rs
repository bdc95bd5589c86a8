//! `write_checkpoint` under `WriteMode::ForkedCompressed` forks iff the
//! fork costs less than compressing the planned capture in-line: one test
//! per side of the rule on a process a benchmark workload looks like, the
//! boundary read off the cost model itself, and the baseline a restore
//! leaves behind — which is what puts a restored process on the cheap side.

use mtcp::{restore_into, verify_image, write_checkpoint, write_image, WriteMode, Written};
use oskit::mem::{Content, FillProfile, RegionId, RegionKind, PROT_R, PROT_W};
use oskit::program::{Program, Registry, Step};
use oskit::world::{NodeId, OsSim, Pid, World};
use oskit::{HwSpec, Kernel};
use simkit::{Nanos, Sim, Snap};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Owns whatever the test maps into it; never runs.
struct Idle;
simkit::impl_snap!(
    struct Idle {}
);

impl Program for Idle {
    fn step(&mut self, _k: &mut Kernel<'_>) -> Step {
        Step::Sleep(Nanos::from_millis(1_000))
    }
    fn tag(&self) -> &'static str {
        "idle"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

fn world(nodes: usize) -> (World, OsSim) {
    let mut reg = Registry::new();
    reg.register_snap::<Idle>("idle");
    (World::new(HwSpec::cluster(), nodes, reg), Sim::new())
}

/// A suspended process on `node` with one real region per entry of `lens`.
fn process(w: &mut World, sim: &mut OsSim, node: NodeId, lens: &[usize]) -> (Pid, Vec<RegionId>) {
    let pid = w.spawn(sim, node, "idle", Box::new(Idle), Pid(1), BTreeMap::new());
    let mem = &mut w.procs.get_mut(&pid).expect("spawned").mem;
    let ids = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            let bytes = FillProfile::Code.bytes(i as u64 + 1, len);
            mem.map(
                format!("r{i}"),
                RegionKind::Anon,
                PROT_R | PROT_W,
                Content::Real(Rc::new(bytes)),
            )
        })
        .collect();
    w.suspend_user_threads(sim, pid);
    (pid, ids)
}

fn path(gen: u32) -> String {
    format!("/ckpt/ckpt_1_gen{gen}.dmtcp")
}

fn checkpoint(w: &mut World, sim: &OsSim, pid: Pid, gen: u32, mode: WriteMode) -> Written {
    write_checkpoint(w, sim.now(), pid, &path(gen), mode, 1, vec![])
}

/// Sixteen 64 KiB regions, the store installed, generation 1 written.
fn hog(nodes: usize) -> (World, OsSim, Pid, Vec<RegionId>) {
    let (mut w, mut sim) = world(nodes);
    ckptstore::install(&mut w, ckptstore::Config::default());
    let (pid, ids) = process(&mut w, &mut sim, NodeId(0), &[64 << 10; 16]);
    let first = checkpoint(&mut w, &sim, pid, 1, WriteMode::ForkedCompressed);
    let Written::Forked(fw) = first else {
        panic!("a first, full capture of 1 MiB forks: {first:?}");
    };
    fw.finish(&mut w, pid);
    (w, sim, pid, ids)
}

fn dirty(w: &mut World, pid: Pid, ids: &[RegionId]) {
    let mem = &mut w.procs.get_mut(&pid).expect("live").mem;
    for &id in ids {
        mem.write(id, 17, &[0xD1]);
    }
}

#[test]
fn a_process_that_rewrote_its_memory_forks() {
    let (mut w, sim, pid, ids) = hog(2);
    dirty(&mut w, pid, &ids[..15]);
    let written = checkpoint(&mut w, &sim, pid, 2, WriteMode::ForkedCompressed);
    let Written::Forked(fw) = written else {
        panic!("15 of 16 regions dirty must fork: {written:?}");
    };
    let r = fw.report;
    assert!(r.incremental);
    assert_eq!(r.captured_raw_bytes, 15 * (64 << 10));
    assert_eq!(r.resume_at, sim.now() + w.spec.fork_time(r.raw_bytes));
    assert!(r.resume_at < r.image_complete_at);
    // The application pays for what it writes while the child drains.
    dirty(&mut w, pid, &ids[..2]);
    let cow = fw.finish(&mut w, pid);
    assert_eq!(cow.copied_bytes, 2 * (64 << 10));
}

/// The same 64 KiB dirtied in two processes: the choice follows what the
/// fork would have to copy page tables for.
#[test]
fn a_process_that_dirtied_a_sliver_of_its_memory_is_written_in_line() {
    // 1 MiB mapped: the fork (1.2 ms) still beats 64 KiB of gzip (4.5 ms).
    let (mut w, sim, pid, ids) = hog(2);
    dirty(&mut w, pid, &ids[3..4]);
    let written = checkpoint(&mut w, &sim, pid, 2, WriteMode::ForkedCompressed);
    assert!(matches!(written, Written::Forked(_)), "{written:?}");

    // The benchmark's idle shape — 8 MiB mapped: forking it (8 ms) does not.
    let (mut w, mut sim) = world(2);
    ckptstore::install(&mut w, ckptstore::Config::default());
    let mut lens = vec![512 << 10; 16];
    lens.push(64 << 10);
    let (pid, ids) = process(&mut w, &mut sim, NodeId(0), &lens);
    write_image(
        &mut w,
        sim.now(),
        pid,
        &path(1),
        WriteMode::Compressed,
        1,
        vec![],
    );
    dirty(&mut w, pid, &ids[16..]);
    let written = checkpoint(&mut w, &sim, pid, 2, WriteMode::ForkedCompressed);
    let Written::Inline(r) = written else {
        panic!("one small dirty region of 8 MiB must not fork: {written:?}");
    };
    assert!(r.incremental);
    assert_eq!(r.captured_raw_bytes, 64 << 10);
    assert_eq!(
        r.resume_at, r.image_complete_at,
        "in-line: resumes when durable"
    );
    assert_eq!(
        mtcp::incr::state_of(&w, pid)
            .expect("baseline moved")
            .prev_path,
        path(2),
        "an in-line write commits its baseline before returning"
    );
    assert!(!w.procs[&pid].mem.cow_snapshot_active());
}

/// The smallest full capture that forks is where the model's own two costs
/// cross; one byte less is written in-line. No number of this test's own.
#[test]
fn the_boundary_is_where_the_two_costs_cross() {
    let spec = HwSpec::cluster();
    let pays = |raw: u64| spec.fork_time(raw) < spec.gzip_time(raw);
    let (mut lo, mut hi) = (0u64, 1 << 20);
    assert!(!pays(lo) && pays(hi));
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if pays(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    for (raw, forks) in [(lo, false), (hi, true)] {
        let (mut w, mut sim) = world(1);
        let (pid, _) = process(&mut w, &mut sim, NodeId(0), &[raw as usize]);
        let written = checkpoint(&mut w, &sim, pid, 1, WriteMode::ForkedCompressed);
        assert_eq!(
            matches!(written, Written::Forked(_)),
            forks,
            "{raw} raw bytes: {written:?}"
        );
    }
}

#[test]
fn the_other_modes_have_nothing_to_choose() {
    for mode in [WriteMode::Compressed, WriteMode::Uncompressed] {
        let (mut w, mut sim) = world(1);
        let (pid, _) = process(&mut w, &mut sim, NodeId(0), &[1 << 20]);
        let written = checkpoint(&mut w, &sim, pid, 1, mode);
        assert!(
            matches!(written, Written::Inline(_)),
            "{mode:?}: {written:?}"
        );
    }
}

/// A restore leaves behind what a capture of the same image would have:
/// the next capture aliases everything the process has not touched since,
/// wherever the image was restored and whoever served it.
#[test]
fn the_image_restored_from_is_the_next_capture_s_baseline() {
    // Node 0 wrote it, node 1 is its ring successor, node 2 holds nothing.
    for target in [0u32, 1, 2] {
        let (mut w, mut sim, pid, _) = hog(3);
        let before = mtcp::incr::state_of(&w, pid).expect("generation 1 left a baseline");
        w.signal(&mut sim, pid, oskit::proc::sig::SIGKILL);
        assert!(
            mtcp::incr::state_of(&w, pid).is_none(),
            "dies with the process"
        );

        let node = NodeId(target);
        let img = verify_image(&w, node, &path(1)).expect("verifies");
        let husk = w.spawn(
            &mut sim,
            node,
            "husk",
            Box::new(Idle),
            Pid(1),
            BTreeMap::new(),
        );
        restore_into(&mut w, sim.now(), husk, node, &path(1), &img).expect("restores");
        let after = mtcp::incr::state_of(&w, husk).expect("restore left a baseline");
        assert_eq!(after.prev_path, path(1));
        assert_eq!(
            format!("{:?}", after.regions),
            format!("{:?}", before.regions),
            "node {target}: same records a capture of this image left"
        );
        let mem = &w.procs[&husk].mem;
        assert_eq!(mem.dirty_regions().map(|d| d.len()), Some(0));

        let ids: Vec<RegionId> = mem.iter().map(|(id, _)| id).collect();
        dirty(&mut w, husk, &ids[5..7]);
        let r = write_image(
            &mut w,
            sim.now(),
            husk,
            &path(2),
            WriteMode::Compressed,
            1,
            vec![],
        );
        assert!(
            r.incremental,
            "node {target}: first capture after a restore"
        );
        assert_eq!(r.captured_raw_bytes, 2 * (64 << 10));
        verify_image(&w, node, &path(2)).expect("the aliasing image verifies");
    }
}

#[test]
fn only_a_complete_compressed_restore_leaves_a_baseline() {
    // Uncompressed: nothing to alias, and no stale state either.
    let (mut w, mut sim) = world(1);
    let (pid, _) = process(&mut w, &mut sim, NodeId(0), &[64 << 10; 4]);
    write_image(
        &mut w,
        sim.now(),
        pid,
        &path(1),
        WriteMode::Compressed,
        1,
        vec![],
    );
    write_image(
        &mut w,
        sim.now(),
        pid,
        "/u.img",
        WriteMode::Uncompressed,
        1,
        vec![],
    );
    let img = verify_image(&w, NodeId(0), "/u.img").expect("verifies");
    restore_into(&mut w, sim.now(), pid, NodeId(0), "/u.img", &img).expect("restores");
    assert!(mtcp::incr::state_of(&w, pid).is_none());
    assert!(!w.procs[&pid].mem.dirty_tracking_active());

    // A restore that fails its CRC half-way changes nothing.
    write_image(
        &mut w,
        sim.now(),
        pid,
        &path(2),
        WriteMode::Compressed,
        1,
        vec![],
    );
    let img = verify_image(&w, NodeId(0), &path(2)).expect("verifies");
    let before = format!("{:?}", mtcp::incr::state_of(&w, pid));
    let blob = &mut w.nodes[0].fs.get_mut(&path(2)).expect("plain file").blob;
    let last = blob.len() - 1;
    assert!(blob.flip_bit(last, 0));
    restore_into(&mut w, sim.now(), pid, NodeId(0), &path(2), &img).expect_err("CRC mismatch");
    assert_eq!(format!("{:?}", mtcp::incr::state_of(&w, pid)), before);
    assert_eq!(w.procs[&pid].mem.region_count(), 4, "memory untouched");
}
