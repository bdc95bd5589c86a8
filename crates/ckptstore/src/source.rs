//! Resolution path: reassemble an image blob from a manifest and its
//! chunks — from the reader's own store when it survived, otherwise from
//! the first peer node whose store holds a complete replica.

use crate::manifest::{chunk_path, manifest_path, ChunkRef, Manifest};
use mtcp::ResolvedImage;
use oskit::fs::{Blob, Chunk, FileNode, Fs};
use oskit::world::{NodeId, World};
use std::ops::Range;

/// The stored file behind manifest entry `c`, if it is there and can supply
/// what the entry asks of it: its full length for a whole-chunk ref,
/// materialized bytes up to the slice's end for a slice ref (a torn or
/// virtual chunk cannot satisfy one). `None` is a torn upload that never
/// completed.
fn chunk_file<'f>(fs: &'f Fs, c: &ChunkRef) -> Option<&'f FileNode> {
    let f = fs.get(&chunk_path(&c.id))?;
    let fits = match c.off {
        None => f.blob.len() == c.len,
        Some(off) => {
            f.blob.real_len() == f.blob.len()
                && off
                    .checked_add(c.len)
                    .is_some_and(|end| end <= f.blob.len())
        }
    };
    fits.then_some(f)
}

/// Whether the store on `fs` holds every byte `man` describes — the rule
/// [`assemble`] trusts a replica by, for a caller that wants the files and
/// not the blob.
pub(crate) fn complete(fs: &Fs, man: &Manifest) -> bool {
    man.chunks.iter().all(|c| chunk_file(fs, c).is_some())
        && man.chunks.iter().map(|c| c.len).sum::<u64>() == man.logical_len
}

/// The manifest standing in for `logical` on `fs`, if it is there and parses.
fn manifest(fs: &Fs, logical: &str) -> Option<Manifest> {
    Manifest::decode(&fs.read_all(&manifest_path(logical)).ok()?)
}

/// Append what manifest entry `c` contributes, out of its stored file `f`:
/// the bytes a slice ref names (`chunk_file` checked that the file is all
/// real bytes and reaches the slice's end), or every extent of the chunk.
fn append_chunk(blob: &mut Blob, f: &FileNode, c: &ChunkRef) {
    if let Some(off) = c.off {
        for part in f.blob.real_slices(off, off + c.len) {
            blob.append_bytes(part);
        }
        return;
    }
    for ch in f.blob.chunks() {
        match ch {
            Chunk::Real(b) => blob.append_bytes(b),
            Chunk::Virtual { len, meta } => blob.append_virtual(*len, meta.clone()),
        }
    }
}

/// Reassemble `logical` from one store, or `None` when the manifest is
/// missing or any chunk is absent/torn (a partial replica must not be
/// trusted — the caller falls through to the next node).
///
/// Slice refs (incremental generations aliasing clean regions of an
/// earlier image) are materialized here by slicing the stored chunk's real
/// bytes, so the blob handed back to `mtcp` is byte-identical to the full
/// image the writer described — the reader never sees an alias. What it is
/// told instead is where they were: the blob's byte ranges that slice refs
/// supplied, ascending and merged where they touch — everything this
/// generation inherited from older ones.
pub(crate) fn assemble(fs: &Fs, logical: &str) -> Option<(Blob, Vec<Range<u64>>)> {
    let man = manifest(fs, logical)?;
    let mut blob = Blob::new();
    let mut inherited: Vec<Range<u64>> = Vec::new();
    for c in &man.chunks {
        let f = chunk_file(fs, c)?;
        if c.off.is_some() {
            let at = blob.len();
            match inherited.last_mut() {
                Some(r) if r.end == at => r.end += c.len,
                _ => inherited.push(at..at + c.len),
            }
        }
        append_chunk(&mut blob, f, c);
    }
    (blob.len() == man.logical_len).then_some((blob, inherited))
}

/// The front of `logical` from one store, through the end of its image
/// header: what [`assemble`] would give, cut after the first chunk at which
/// [`mtcp::CkptImage::decode_header`] stops reporting `Truncated` or the
/// real bytes the header lives in end. Trusted by the same rule — `None`
/// unless the store holds every byte of the image ([`complete`]) — so a
/// reader falls through to the same node it would for the whole image.
pub(crate) fn assemble_head(fs: &Fs, logical: &str) -> Option<Blob> {
    let man = manifest(fs, logical)?;
    if !complete(fs, &man) {
        return None;
    }
    let mut blob = Blob::new();
    for c in &man.chunks {
        append_chunk(&mut blob, chunk_file(fs, c)?, c);
        match blob.chunks() {
            [] => {}
            [Chunk::Real(head)]
                if matches!(
                    mtcp::CkptImage::decode_header(head),
                    Err(mtcp::HeaderError::Truncated)
                ) => {}
            _ => break,
        }
    }
    Some(blob)
}

/// The nodes a reader on `node` resolves from: its own store first, then
/// every other node in index order (deterministic, so restart picks the
/// same replica on every run).
fn resolution_order(w: &World, node: NodeId) -> impl Iterator<Item = usize> {
    let ni = node.0 as usize;
    std::iter::once(ni).chain((0..w.nodes.len()).filter(move |&i| i != ni))
}

/// Resolve an image for a reader on `node` from the first store in
/// [`resolution_order`] that holds all of it.
pub(crate) fn resolve(w: &World, node: NodeId, path: &str) -> Option<ResolvedImage> {
    resolution_order(w, node).find_map(|i| {
        let (blob, inherited) = assemble(&w.nodes[i].fs, path)?;
        Some(ResolvedImage {
            blob,
            fetched_from: (i != node.0 as usize).then_some(NodeId(i as u32)),
            inherited,
        })
    })
}

/// [`resolve`], assembling only the front of the image through its header
/// ([`assemble_head`]), from the same node.
pub(crate) fn resolve_head(w: &World, node: NodeId, path: &str) -> Option<Blob> {
    resolution_order(w, node).find_map(|i| assemble_head(&w.nodes[i].fs, path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtcp::CkptImage;
    use oskit::program::Registry;
    use oskit::HwSpec;

    /// A header of a few hundred bytes naming `vpid`, then a payload.
    fn image_bytes(vpid: u32) -> (CkptImage, Vec<u8>) {
        let img = CkptImage {
            vpid,
            cmd: "hog".into(),
            env: vec![("HOME".into(), "/home/hog".into())],
            threads: Vec::new(),
            regions: Vec::new(),
            sig_actions: Vec::new(),
            compressed: true,
            dmtcp_meta: (0..=255u8).collect(),
        };
        let mut bytes = img.encode_header();
        bytes.extend((0..900u32).map(|i| (i * 7) as u8));
        (img, bytes)
    }

    /// Store `bytes` on `fs` as the image `logical`, cut at `cuts` into
    /// whole chunks, with a last entry slicing an older chunk.
    fn store_image(fs: &mut Fs, logical: &str, bytes: &[u8], cuts: &[usize]) -> Manifest {
        let old: Vec<u8> = (0..64u8).collect();
        fs.write_all(&chunk_path("rold-64"), &old).unwrap();
        let mut chunks = Vec::new();
        let mut from = 0;
        for &to in cuts.iter().chain([&bytes.len()]) {
            let id = format!("r{logical}-{from}-{to}").replace('/', "_");
            fs.write_all(&chunk_path(&id), &bytes[from..to]).unwrap();
            chunks.push(ChunkRef::whole(id, (to - from) as u64));
            from = to;
        }
        chunks.push(ChunkRef {
            id: "rold-64".into(),
            len: 16,
            off: Some(8),
        });
        let man = Manifest {
            gen: 1,
            logical_len: bytes.len() as u64 + 16,
            src: logical.into(),
            chunks,
        };
        fs.write_all(&manifest_path(logical), &man.encode())
            .unwrap();
        man
    }

    /// The header at the front of `blob`'s first real chunk.
    fn header(blob: &Blob) -> CkptImage {
        match blob.chunks().first() {
            Some(Chunk::Real(head)) => CkptImage::decode_header(head).expect("header").0,
            other => panic!("no real chunk in front: {other:?}"),
        }
    }

    #[test]
    fn head_assembly_stops_after_the_chunk_that_ends_the_header() {
        let mut fs = Fs::new();
        let (img, bytes) = image_bytes(7);
        let header_len = img.encode_header().len();
        // The header spans three chunks; two more chunks and a slice follow.
        let cuts = [100, 200, header_len + 10, header_len + 400];
        let man = store_image(&mut fs, "/ckpt/a_gen1.dmtcp", &bytes, &cuts);
        let (full, _) = assemble(&fs, &man.src).expect("complete store assembles");
        let head = assemble_head(&fs, &man.src).expect("complete store assembles a head");
        assert_eq!(header(&head), img);
        assert_eq!(header(&head), header(&full));
        assert_eq!(
            head.len(),
            (header_len + 10) as u64,
            "stops at the third chunk"
        );
        assert_eq!(head.read_all().unwrap(), bytes[..header_len + 10]);
        // A header cut exactly at a chunk's end needs no more chunks.
        let man = store_image(&mut fs, "/ckpt/b_gen1.dmtcp", &bytes, &[50, header_len]);
        let head = assemble_head(&fs, &man.src).expect("assembles");
        assert_eq!(head.len(), header_len as u64);
        assert_eq!(header(&head), img);
    }

    #[test]
    fn head_resolution_skips_the_nodes_whole_resolution_skips() {
        let path = "/ckpt/c_gen1.dmtcp";
        let mut w = World::new(HwSpec::cluster(), 3, Registry::new());
        // Each node's copy names its own vpid, so a header says where it
        // came from.
        let mut mans = Vec::new();
        for i in 0..3 {
            let (_, bytes) = image_bytes(i);
            mans.push(store_image(
                &mut w.nodes[i as usize].fs,
                path,
                &bytes,
                &[100, 300, 700],
            ));
        }
        // Node 0 lost a chunk past its header; node 1 has one torn there.
        let lost = &mans[0].chunks[3].id;
        w.nodes[0].fs.remove(&chunk_path(lost)).unwrap();
        let torn = &mans[1].chunks[3].id;
        w.nodes[1]
            .fs
            .get_mut(&chunk_path(torn))
            .unwrap()
            .blob
            .truncate(5);
        let served = |w: &World, reader: u32| {
            let whole = resolve(w, NodeId(reader), path).map(|r| header(&r.blob).vpid);
            let head = resolve_head(w, NodeId(reader), path).map(|b| header(&b).vpid);
            assert_eq!(head, whole, "reader on node {reader}");
            head
        };
        for reader in 0..3 {
            assert_eq!(served(&w, reader), Some(2), "only node 2 is whole");
        }
        // A torn slice ref is refused too.
        let old = w.nodes[2].fs.get_mut(&chunk_path("rold-64")).unwrap();
        old.blob.truncate(20);
        for reader in 0..3 {
            assert_eq!(served(&w, reader), None, "no node is whole");
        }
        let (_, bytes) = image_bytes(1);
        store_image(&mut w.nodes[1].fs, path, &bytes, &[100, 300, 700]);
        for reader in 0..3 {
            assert_eq!(served(&w, reader), Some(1), "node 1 is whole again");
        }
        // With two whole copies, a reader prefers its own node, then the
        // lowest index.
        let (_, bytes) = image_bytes(2);
        store_image(&mut w.nodes[2].fs, path, &bytes, &[100, 300, 700]);
        let want = [Some(1), Some(1), Some(2)];
        for reader in 0..3 {
            assert_eq!(served(&w, reader), want[reader as usize], "reader {reader}");
        }
        // An image no store holds.
        assert!(resolve_head(&w, NodeId(0), "/ckpt/absent_gen1.dmtcp").is_none());
        crate::install(&mut w, crate::Config::default());
        assert_eq!(
            mtcp::read_image(&w, NodeId(0), "/ckpt/absent_gen1.dmtcp"),
            Err(mtcp::RestoreError::NotFound)
        );
        assert_eq!(mtcp::read_image(&w, NodeId(2), path).map(|i| i.vpid), Ok(2));
    }

    #[test]
    fn assemble_rejects_missing_and_torn_chunks() {
        let mut fs = Fs::new();
        let man = Manifest {
            gen: 1,
            logical_len: 10,
            src: "/ckpt/a_gen1.dmtcp".into(),
            chunks: vec![ChunkRef::whole("rab-10", 10)],
        };
        fs.write_all(&manifest_path(&man.src), &man.encode())
            .unwrap();
        assert!(assemble(&fs, &man.src).is_none(), "chunk missing");
        fs.write_all(&chunk_path("rab-10"), &[1u8; 10]).unwrap();
        let (got, inherited) = assemble(&fs, &man.src).expect("complete store assembles");
        assert_eq!(got.read_all().unwrap(), vec![1u8; 10]);
        assert!(
            inherited.is_empty(),
            "a whole-chunk manifest inherits nothing"
        );
        fs.get_mut(&chunk_path("rab-10")).unwrap().blob.truncate(4);
        assert!(assemble(&fs, &man.src).is_none(), "torn chunk rejected");
    }

    #[test]
    fn assemble_materializes_slice_refs() {
        let mut fs = Fs::new();
        let stored: Vec<u8> = (0..100u8).collect();
        fs.write_all(&chunk_path("rcd-100"), &stored).unwrap();
        fs.write_all(&chunk_path("rhd-8"), b"header!!").unwrap();
        let slice = |len, off| ChunkRef {
            id: "rcd-100".into(),
            len,
            off: Some(off),
        };
        let man = Manifest {
            gen: 2,
            logical_len: 58,
            src: "/ckpt/b_gen2.dmtcp".into(),
            chunks: vec![
                ChunkRef::whole("rhd-8", 8),
                slice(30, 40),
                slice(10, 0),
                ChunkRef::whole("rhd-8", 8),
                slice(2, 98),
            ],
        };
        fs.write_all(&manifest_path(&man.src), &man.encode())
            .unwrap();
        let (got, inherited) = assemble(&fs, &man.src).expect("slice refs assemble");
        let bytes = got.read_all().unwrap();
        assert_eq!(bytes[8..38], stored[40..70]);
        assert_eq!(bytes[38..48], stored[0..10]);
        assert_eq!(bytes[56..58], stored[98..100]);
        // Adjacent slices merge into one inherited range; whole refs break it.
        assert_eq!(inherited, vec![8..48, 56..58]);
        // Tear the chunk below the slice's end: the replica must be refused.
        fs.get_mut(&chunk_path("rcd-100"))
            .unwrap()
            .blob
            .truncate(60);
        assert!(assemble(&fs, &man.src).is_none(), "torn slice rejected");

        // A stored chunk of three real extents (0..30, 30..64, 64..100),
        // kept apart by empty virtual ones.
        let stored: Vec<u8> = (100..200u8).collect();
        fs.write_all(&chunk_path("rmx-100"), &stored[..30]).unwrap();
        let file = fs.get_mut(&chunk_path("rmx-100")).unwrap();
        for part in [&stored[30..64], &stored[64..]] {
            file.blob.append_virtual(0, Vec::new());
            file.blob.append_bytes(part);
        }
        assert_eq!(file.blob.chunks().len(), 5);
        let slice = |off: u64, len: u64| ChunkRef {
            id: "rmx-100".into(),
            len,
            off: Some(off),
        };
        // Slices at nonzero offsets that end exactly at the chunk's end,
        // and slices that end before it: inside one extent, on an extent's
        // edge, and across extents.
        let refs = [
            (64, 36),
            (30, 70),
            (99, 1),
            (5, 10),
            (34, 30),
            (20, 20),
            (1, 98),
        ];
        let man = Manifest {
            gen: 3,
            logical_len: refs.iter().map(|r| r.1).sum(),
            src: "/ckpt/c_gen3.dmtcp".into(),
            chunks: refs.iter().map(|&(off, len)| slice(off, len)).collect(),
        };
        fs.write_all(&manifest_path(&man.src), &man.encode())
            .unwrap();
        let (got, inherited) = assemble(&fs, &man.src).expect("slice refs assemble");
        let want: Vec<u8> = refs
            .iter()
            .flat_map(|&(off, len)| stored[off as usize..(off + len) as usize].to_vec())
            .collect();
        assert_eq!(got.read_all().unwrap(), want);
        assert_eq!(inherited, vec![0..man.logical_len]);
    }
}
