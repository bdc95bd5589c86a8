//! Typed image-validation errors: every way an image file can be damaged —
//! missing, truncated inside the header, bad magic, header-CRC mismatch,
//! truncated payload, bit-flipped payload — must surface as the matching
//! [`ImageError`] variant, never a panic or a silently-wrong restore. This
//! is the contract the restart path's fall-back-to-older-generation logic
//! (and the fault matrix's torn-image cells) relies on.

use mtcp::{
    restore_into, verify_image, write_image, CkptImage, HeaderError, ImageError, WriteMode,
};
use oskit::program::{Program, Registry, Step};
use oskit::world::{NodeId, OsSim, Pid, World};
use oskit::{HwSpec, Kernel};
use simkit::{DetRng, Nanos, Sim, Snap};
use std::collections::BTreeMap;

/// Minimal checkpointable program: a snap-able counter with one heap region,
/// so the image has a header, a thread record, and real payload bytes.
struct Ticker {
    pc: u8,
    heap: u64,
    ticks: u32,
}
simkit::impl_snap!(struct Ticker { pc, heap, ticks });

impl Program for Ticker {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.pc == 0 {
            self.heap = k.mmap_anon("ticker-heap", 4096) as u64;
            self.pc = 1;
        }
        self.ticks += 1;
        k.mem_write(self.heap as usize, 0, &self.ticks.to_le_bytes());
        Step::Compute(100_000)
    }
    fn tag(&self) -> &'static str {
        "ticker"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

const IMG: &str = "/img";

/// A world holding a freshly written, valid image at [`IMG`]. Also returns
/// the encoded header length so tests can aim their damage precisely at the
/// header, the header CRC, or the payload.
fn world_with_image() -> (World, OsSim, usize) {
    let mut reg = Registry::new();
    reg.register_snap::<Ticker>("ticker");
    let mut w = World::new(HwSpec::desktop(), 1, reg);
    let mut sim: OsSim = Sim::new();
    let pid = w.spawn(
        &mut sim,
        NodeId(0),
        "ticker",
        Box::new(Ticker {
            pc: 0,
            heap: 0,
            ticks: 0,
        }),
        Pid(1),
        BTreeMap::new(),
    );
    sim.run_until(&mut w, Nanos::from_millis(3));
    w.suspend_user_threads(&mut sim, pid);
    write_image(
        &mut w,
        sim.now(),
        pid,
        IMG,
        WriteMode::Uncompressed,
        pid.0,
        vec![],
    );
    let head = {
        let f = w.nodes[0].fs.get(IMG).expect("image written");
        match f.blob.chunks().first() {
            Some(oskit::fs::Chunk::Real(b)) => b.clone(),
            _ => panic!("header chunk must be real"),
        }
    };
    let (_, header_len) = CkptImage::decode_header(&head).expect("fresh image parses");
    (w, sim, header_len)
}

fn damage(w: &mut World, f: impl FnOnce(&mut oskit::fs::Blob)) {
    f(&mut w.nodes[0].fs.get_mut(IMG).expect("image").blob);
}

#[test]
fn intact_image_verifies_clean() {
    let (w, _sim, _) = world_with_image();
    let img = verify_image(&w, NodeId(0), IMG).expect("valid image verifies");
    assert_eq!(img.cmd, "ticker");
    assert_eq!(img.threads.len(), 1);
    assert!(!img.regions.is_empty());
}

#[test]
fn missing_image_is_not_found() {
    let (w, _sim, _) = world_with_image();
    assert_eq!(
        verify_image(&w, NodeId(0), "/no/such.img"),
        Err(ImageError::NotFound)
    );
}

#[test]
fn truncated_header_is_typed_truncated() {
    let (mut w, _sim, _) = world_with_image();
    // Cut inside the 8-byte magic: not even the magic survives.
    damage(&mut w, |b| {
        b.truncate(4);
    });
    assert_eq!(
        verify_image(&w, NodeId(0), IMG),
        Err(ImageError::BadHeader(HeaderError::Truncated))
    );
}

#[test]
fn truncated_header_body_is_typed_truncated() {
    let (mut w, _sim, header_len) = world_with_image();
    // Magic intact, header body cut short.
    damage(&mut w, |b| {
        b.truncate(header_len as u64 / 2);
    });
    assert_eq!(
        verify_image(&w, NodeId(0), IMG),
        Err(ImageError::BadHeader(HeaderError::Truncated))
    );
}

#[test]
fn flipped_magic_is_bad_magic() {
    let (mut w, _sim, _) = world_with_image();
    damage(&mut w, |b| assert!(b.flip_bit(0, 3)));
    assert_eq!(
        verify_image(&w, NodeId(0), IMG),
        Err(ImageError::BadHeader(HeaderError::BadMagic))
    );
}

#[test]
fn flipped_header_body_is_bad_crc() {
    let (mut w, _sim, header_len) = world_with_image();
    // Last byte of the snap-encoded body, just before the 4-byte header CRC.
    damage(&mut w, |b| {
        assert!(b.flip_bit(header_len as u64 - 5, 0));
    });
    assert_eq!(
        verify_image(&w, NodeId(0), IMG),
        Err(ImageError::BadHeader(HeaderError::BadCrc))
    );
}

#[test]
fn truncated_payload_is_bad_payload() {
    let (mut w, _sim, header_len) = world_with_image();
    // Header intact, first region payload cut mid-way.
    damage(&mut w, |b| {
        b.truncate(header_len as u64 + 10);
    });
    match verify_image(&w, NodeId(0), IMG) {
        Err(ImageError::BadPayload(region)) => assert!(!region.is_empty()),
        other => panic!("expected BadPayload, got {other:?}"),
    }
}

#[test]
fn flipped_payload_bit_is_crc_mismatch() {
    let (mut w, _sim, header_len) = world_with_image();
    // Well past the header: inside the first region's stored bytes.
    damage(&mut w, |b| {
        assert!(b.flip_bit(header_len as u64 + 100, 5));
    });
    match verify_image(&w, NodeId(0), IMG) {
        Err(ImageError::CrcMismatch { region, .. }) => assert!(!region.is_empty()),
        other => panic!("expected CrcMismatch, got {other:?}"),
    }
}

/// Several heap regions so damage can target one in the *middle* of the
/// region table.
struct MultiMapper {
    pc: u8,
}
simkit::impl_snap!(struct MultiMapper { pc });

impl Program for MultiMapper {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.pc == 0 {
            for (i, name) in ["seg-a", "seg-b", "seg-c"].iter().enumerate() {
                let id = k.mmap_anon(name, 2048);
                k.mem_write(id, 0, &[i as u8 + 1; 64]);
            }
            self.pc = 1;
        }
        Step::Compute(100_000)
    }
    fn tag(&self) -> &'static str {
        "multi-mapper"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

#[test]
fn crc_mismatch_reports_region_index_and_offset() {
    let mut reg = Registry::new();
    reg.register_snap::<MultiMapper>("multi-mapper");
    let mut w = World::new(HwSpec::desktop(), 1, reg);
    let mut sim: OsSim = Sim::new();
    let pid = w.spawn(
        &mut sim,
        NodeId(0),
        "multi-mapper",
        Box::new(MultiMapper { pc: 0 }),
        Pid(1),
        BTreeMap::new(),
    );
    sim.run_until(&mut w, Nanos::from_millis(3));
    w.suspend_user_threads(&mut sim, pid);
    write_image(
        &mut w,
        sim.now(),
        pid,
        IMG,
        WriteMode::Uncompressed,
        pid.0,
        vec![],
    );
    let img = verify_image(&w, NodeId(0), IMG).expect("fresh image verifies");
    assert!(img.regions.len() >= 3, "need a middle region to corrupt");
    let head = {
        let f = w.nodes[0].fs.get(IMG).expect("image written");
        match f.blob.chunks().first() {
            Some(oskit::fs::Chunk::Real(b)) => b.clone(),
            _ => panic!("header chunk must be real"),
        }
    };
    let (_, header_len) = CkptImage::decode_header(&head).expect("header parses");
    // Expected payload offset of region 1: header, then region 0's bytes.
    let stored_len = |r: &mtcp::RegionMeta| match &r.stored {
        mtcp::StoredAs::Real { comp_len } => *comp_len,
        mtcp::StoredAs::Shared { comp_len, .. } => *comp_len,
        mtcp::StoredAs::Synthetic { comp_len, .. } => *comp_len,
    };
    let target_off = header_len as u64 + stored_len(&img.regions[0]);
    // Single-bit flip a few bytes into the middle region's payload.
    damage(&mut w, |b| assert!(b.flip_bit(target_off + 7, 2)));
    match verify_image(&w, NodeId(0), IMG) {
        Err(ImageError::CrcMismatch {
            region,
            index,
            offset,
        }) => {
            assert_eq!(index, 1, "the corrupted region is index 1");
            assert_eq!(offset, target_off, "offset points at its payload");
            assert_eq!(region, img.regions[1].name);
        }
        other => panic!("expected CrcMismatch, got {other:?}"),
    }
}

/// Six regions of two szip blocks each, of bytes that do not compress, so
/// every block is stored raw: a flipped payload byte decodes fine and only
/// the CRC can catch it.
struct WideMapper {
    pc: u8,
}
simkit::impl_snap!(struct WideMapper { pc });

const WIDE_REGIONS: usize = 6;

impl Program for WideMapper {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.pc == 0 {
            let mut rng = DetRng::seed_from_u64(0x01de);
            for i in 0..WIDE_REGIONS {
                let mut bytes = vec![0u8; 2 * szip::stream::BLOCK];
                rng.fill_bytes(&mut bytes);
                let id = k.mmap_anon(&format!("wide{i}"), bytes.len());
                k.mem_write(id, 0, &bytes);
            }
            self.pc = 1;
        }
        Step::Compute(100_000)
    }
    fn tag(&self) -> &'static str {
        "wide-mapper"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// With two faults in one image, verify and restore report the one in the
/// lower-indexed region — what walking the regions one at a time finds
/// first — even though the payloads are unpacked and checked on every host
/// core: a bit flip in region 2 and a cut in region 4 is region 2's
/// `CrcMismatch`, the cut in region 2 and the flip in region 4 is region 2's
/// `BadPayload`.
#[test]
fn first_bad_region_wins_when_payloads_are_checked_in_parallel() {
    let mut reg = Registry::new();
    reg.register_snap::<WideMapper>("wide-mapper");
    reg.register_snap::<Ticker>("ticker");
    let mut w = World::new(HwSpec::desktop(), 1, reg);
    let mut sim: OsSim = Sim::new();
    let pid = w.spawn(
        &mut sim,
        NodeId(0),
        "wide-mapper",
        Box::new(WideMapper { pc: 0 }),
        Pid(1),
        BTreeMap::new(),
    );
    sim.run_until(&mut w, Nanos::from_millis(3));
    w.suspend_user_threads(&mut sim, pid);
    write_image(
        &mut w,
        sim.now(),
        pid,
        IMG,
        WriteMode::Compressed,
        1,
        vec![],
    );
    let img = verify_image(&w, NodeId(0), IMG).expect("fresh image verifies");
    assert_eq!(img.regions.len(), WIDE_REGIONS);
    let intact = w.nodes[0].fs.get(IMG).expect("image").blob.clone();
    let head = intact.read_all().expect("a plain image is all real bytes");
    let (_, header_len) = CkptImage::decode_header(&head).expect("header parses");
    // Where each region's payload starts.
    let mut offsets = vec![header_len as u64];
    for r in &img.regions {
        let mtcp::StoredAs::Real { comp_len } = r.stored else {
            panic!("{} is a real region", r.name);
        };
        offsets.push(offsets.last().copied().unwrap_or_default() + comp_len);
    }
    let husk = w.spawn(
        &mut sim,
        NodeId(0),
        "ticker",
        Box::new(Ticker {
            pc: 0,
            heap: 0,
            ticks: 0,
        }),
        Pid(2),
        BTreeMap::new(),
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let crc_2 = ImageError::CrcMismatch {
        region: "wide2".into(),
        index: 2,
        offset: offsets[2],
    };
    let cut_2 = ImageError::BadPayload("wide2".into());
    for (flip, cut, want) in [(2, 4, crc_2), (4, 2, cut_2)] {
        damage(&mut w, |b| {
            *b = intact.clone();
            // Inside the first block's stored bytes, past its header.
            assert!(b.flip_bit(offsets[flip] + 100, 3));
            b.truncate(offsets[cut] + 1000);
        });
        let at = format!("flip in region {flip}, cut in region {cut}");
        assert_eq!(verify_image(&w, NodeId(0), IMG), Err(want.clone()), "{at}");
        let before = w.obs.metrics.counter_total("mtcp.fanout.regions");
        let restored = restore_into(&mut w, sim.now(), husk, NodeId(0), IMG, &img);
        assert_eq!(restored.map(|_| ()), Err(want), "{at}");
        // Both regions ahead of the first fault hold two szip blocks, so the
        // restore unpacked them off the calling thread given a second core.
        let off_thread = w.obs.metrics.counter_total("mtcp.fanout.regions") - before;
        assert_eq!(off_thread > 0, cores > 1, "{at}: on {cores} cores");
    }
}
