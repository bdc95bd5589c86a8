//! Single-process checkpoint/restore roundtrips: memory must come back
//! bit-identical, programs must continue to the same answer, and corruption
//! must be caught by the per-region CRC.

use mtcp::{read_image, restore_into, write_image, WriteMode};
use oskit::mem::FillProfile;
use oskit::program::{Program, Registry, Step};
use oskit::world::{NodeId, OsSim, Pid, World};
use oskit::{HwSpec, Kernel};
use simkit::{Nanos, Sim, Snap};
use std::collections::BTreeMap;

/// A deterministic compute loop whose entire state lives in (a) its program
/// struct and (b) a heap region it keeps updating. It finishes by writing
/// its accumulated total into `/result`.
struct Counter {
    pc: u8,
    heap: u64, // RegionId, stored as u64 for snap
    left: u32,
    total: u64,
}
simkit::impl_snap!(struct Counter { pc, heap, left, total });

impl Program for Counter {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        match self.pc {
            0 => {
                self.heap = k.mmap_anon("counter-heap", 4096) as u64;
                k.mmap_synthetic("ballast", 3 << 20, 42, FillProfile::Text);
                self.pc = 1;
                Step::Yield
            }
            1 => {
                if self.left == 0 {
                    // Fold the heap state into the result so memory
                    // corruption would change the answer.
                    let heap = k.mem_read(self.heap as usize, 0, 8);
                    let heap_word = u64::from_le_bytes(heap.try_into().expect("8 bytes"));
                    let fd = k.open("/result", true).expect("result file");
                    k.write(fd, format!("{}:{}", self.total, heap_word).as_bytes())
                        .expect("write result");
                    k.close(fd).expect("close");
                    return Step::Exit(0);
                }
                self.total = self
                    .total
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(self.left as u64);
                self.left -= 1;
                k.mem_write(self.heap as usize, 0, &self.total.to_le_bytes());
                Step::Compute(100_000) // 0.1 ms
            }
            _ => unreachable!(),
        }
    }
    fn tag(&self) -> &'static str {
        "counter"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

fn registry() -> Registry {
    let mut r = Registry::new();
    r.register_snap::<Counter>("counter");
    r
}

fn fresh_world() -> (World, OsSim) {
    (World::new(HwSpec::desktop(), 1, registry()), Sim::new())
}

fn spawn_counter(w: &mut World, sim: &mut OsSim, steps: u32) -> Pid {
    w.spawn(
        sim,
        NodeId(0),
        "counter",
        Box::new(Counter {
            pc: 0,
            heap: 0,
            left: steps,
            total: 1,
        }),
        Pid(1),
        BTreeMap::new(),
    )
}

fn result_of(w: &World) -> Option<String> {
    w.nodes[0]
        .fs
        .read_all("/result")
        .ok()
        .map(|b| String::from_utf8(b).expect("utf8 result"))
}

/// Reference run with no checkpointing at all.
fn reference_answer(steps: u32) -> String {
    let (mut w, mut sim) = fresh_world();
    spawn_counter(&mut w, &mut sim, steps);
    sim.run(&mut w);
    result_of(&w).expect("reference run finished")
}

fn mem_digests(w: &World, pid: Pid) -> Vec<(String, u64)> {
    w.procs[&pid]
        .mem
        .iter()
        .map(|(_, r)| (r.name.clone(), r.content.digest()))
        .collect()
}

/// Run halfway, checkpoint with `mode`, kill the world, restore into a brand
/// new world, run to completion; the answer must match the reference.
fn ckpt_kill_restore(mode: WriteMode) {
    let steps = 500;
    let reference = reference_answer(steps);

    // --- Original world: run halfway, freeze, write image. ---
    let (mut w, mut sim) = fresh_world();
    let pid = spawn_counter(&mut w, &mut sim, steps);
    sim.run_until(&mut w, Nanos::from_millis(25)); // ~250 of 500 steps
    w.suspend_user_threads(&mut sim, pid);
    let digests_before = mem_digests(&w, pid);
    let report = write_image(&mut w, sim.now(), pid, "/ckpt.img", mode, pid.0, vec![7, 7]);
    assert!(report.image_bytes > 0);
    assert_eq!(
        w.nodes[0].fs.size("/ckpt.img"),
        Some(report.image_bytes),
        "file size matches report"
    );
    // Carry the image file (and nothing else) to a new world: the cluster
    // "crashed" and we restart elsewhere.
    let image_file = w.nodes[0]
        .fs
        .get("/ckpt.img")
        .expect("image written")
        .clone();
    drop(w);
    drop(sim);

    // --- New world: restore into a fresh shell process. ---
    let (mut w2, mut sim2) = fresh_world();
    w2.nodes[0].fs.create("/ckpt.img").expect("fs writable");
    *w2.nodes[0].fs.get_mut("/ckpt.img").expect("file") = image_file;

    let img = read_image(&w2, NodeId(0), "/ckpt.img").expect("header parses");
    let file = w2.nodes[0].fs.get("/ckpt.img").expect("image file");
    let Some(oskit::fs::Chunk::Real(head)) = file.blob.chunks().first() else {
        panic!("an image starts with real bytes");
    };
    let (whole, _) = mtcp::CkptImage::decode_header(head).expect("header decodes");
    assert_eq!(img, whole, "read_image is the header of the whole file");
    assert_eq!(img.vpid, pid.0);
    assert_eq!(img.cmd, "counter");
    assert_eq!(img.dmtcp_meta, vec![7, 7]);
    assert_eq!(img.threads.len(), 1);

    // Shell process (what dmtcp_restart forks), with a placeholder program.
    struct Shell;
    impl Program for Shell {
        fn step(&mut self, _k: &mut Kernel<'_>) -> Step {
            Step::ExitThread
        }
        fn tag(&self) -> &'static str {
            "shell"
        }
        fn save(&self) -> Vec<u8> {
            Vec::new()
        }
    }
    let new_pid = w2.spawn(
        &mut sim2,
        NodeId(0),
        "dmtcp_restart",
        Box::new(Shell),
        Pid(1),
        BTreeMap::new(),
    );
    let rep = restore_into(&mut w2, sim2.now(), new_pid, NodeId(0), "/ckpt.img", &img)
        .expect("restore succeeds");
    assert_eq!(rep.image_bytes, report.image_bytes);
    assert_eq!(rep.raw_bytes, report.raw_bytes);

    // Memory must be bit-identical (digest compares real bytes / recipes).
    let digests_after = mem_digests(&w2, new_pid);
    assert_eq!(
        digests_before, digests_after,
        "memory not restored identically"
    );

    // Resume and finish.
    w2.resume_user_threads(&mut sim2, new_pid);
    sim2.run(&mut w2);
    assert_eq!(
        result_of(&w2).as_deref(),
        Some(reference.as_str()),
        "{mode:?}"
    );
}

#[test]
fn uncompressed_roundtrip_resumes_to_same_answer() {
    ckpt_kill_restore(WriteMode::Uncompressed);
}

#[test]
fn compressed_roundtrip_resumes_to_same_answer() {
    ckpt_kill_restore(WriteMode::Compressed);
}

#[test]
fn forked_roundtrip_resumes_to_same_answer() {
    ckpt_kill_restore(WriteMode::ForkedCompressed);
}

#[test]
fn compressed_image_is_smaller_and_slower_than_uncompressed() {
    let (mut w, mut sim) = fresh_world();
    let pid = spawn_counter(&mut w, &mut sim, 100);
    sim.run_until(&mut w, Nanos::from_millis(5));
    w.suspend_user_threads(&mut sim, pid);
    let now = sim.now();
    let un = write_image(
        &mut w,
        now,
        pid,
        "/u.img",
        WriteMode::Uncompressed,
        pid.0,
        vec![],
    );
    let co = write_image(
        &mut w,
        now,
        pid,
        "/c.img",
        WriteMode::Compressed,
        pid.0,
        vec![],
    );
    assert!(
        co.image_bytes < un.image_bytes / 2,
        "text ballast should compress well: {} vs {}",
        co.image_bytes,
        un.image_bytes
    );
    assert!(
        co.image_complete_at > un.image_complete_at,
        "gzip dominates"
    );
}

#[test]
fn forked_mode_resumes_parent_long_before_image_completes() {
    let (mut w, mut sim) = fresh_world();
    let pid = spawn_counter(&mut w, &mut sim, 100);
    sim.run_until(&mut w, Nanos::from_millis(5));
    w.suspend_user_threads(&mut sim, pid);
    let now = sim.now();
    let rep = write_image(
        &mut w,
        now,
        pid,
        "/f.img",
        WriteMode::ForkedCompressed,
        pid.0,
        vec![],
    );
    let pause = rep.resume_at - now;
    let full = rep.image_complete_at - now;
    assert!(
        pause.as_secs_f64() < full.as_secs_f64() / 5.0,
        "fork pause {pause:?} vs full write {full:?}"
    );
}

#[test]
fn corrupted_payload_is_rejected_by_crc() {
    let (mut w, mut sim) = fresh_world();
    let pid = spawn_counter(&mut w, &mut sim, 100);
    sim.run_until(&mut w, Nanos::from_millis(5));
    w.suspend_user_threads(&mut sim, pid);
    write_image(
        &mut w,
        sim.now(),
        pid,
        "/x.img",
        WriteMode::Uncompressed,
        pid.0,
        vec![],
    );

    // Flip one byte of the heap payload (well past the header).
    let img = read_image(&w, NodeId(0), "/x.img").expect("parses");
    {
        let f = w.nodes[0].fs.get_mut("/x.img").expect("image");
        let blob = &mut f.blob;
        // First chunk is real: header + real payloads; flip its last byte.
        let chunks = blob.chunks().len();
        assert!(chunks >= 1);
        let mut rebuilt = oskit::fs::Blob::new();
        for (i, c) in blob.chunks().iter().enumerate() {
            match c {
                oskit::fs::Chunk::Real(b) => {
                    let mut b = b.clone();
                    if i == 0 {
                        let last = b.len() - 1;
                        b[last] ^= 0xFF;
                    }
                    rebuilt.append_bytes(&b);
                }
                oskit::fs::Chunk::Virtual { len, meta } => {
                    rebuilt.append_virtual(*len, meta.clone())
                }
            }
        }
        f.blob = rebuilt;
    }
    struct Shell;
    impl Program for Shell {
        fn step(&mut self, _k: &mut Kernel<'_>) -> Step {
            Step::ExitThread
        }
        fn tag(&self) -> &'static str {
            "shell"
        }
        fn save(&self) -> Vec<u8> {
            Vec::new()
        }
    }
    let new_pid = w.spawn(
        &mut sim,
        NodeId(0),
        "dmtcp_restart",
        Box::new(Shell),
        Pid(1),
        BTreeMap::new(),
    );
    let err = restore_into(&mut w, sim.now(), new_pid, NodeId(0), "/x.img", &img).unwrap_err();
    assert!(
        matches!(
            err,
            mtcp::reader::RestoreError::CrcMismatch { .. }
                | mtcp::reader::RestoreError::BadPayload(_)
        ),
        "got {err}"
    );
}

#[test]
fn synthetic_regions_are_virtual_in_the_file() {
    let (mut w, mut sim) = fresh_world();
    let pid = spawn_counter(&mut w, &mut sim, 100);
    sim.run_until(&mut w, Nanos::from_millis(5));
    w.suspend_user_threads(&mut sim, pid);
    let rep = write_image(
        &mut w,
        sim.now(),
        pid,
        "/s.img",
        WriteMode::Compressed,
        pid.0,
        vec![],
    );
    let f = w.nodes[0].fs.get("/s.img").expect("image");
    let has_virtual = f
        .blob
        .chunks()
        .iter()
        .any(|c| matches!(c, oskit::fs::Chunk::Virtual { .. }));
    assert!(has_virtual, "3 MiB text ballast should be a virtual extent");
    // But the file still reports its full on-disk size.
    assert_eq!(f.blob.len(), rep.image_bytes);
    // The ballast is text: the image must be much smaller than raw.
    assert!(rep.image_bytes < rep.raw_bytes / 2);
}
