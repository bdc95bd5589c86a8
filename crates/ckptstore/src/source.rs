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
    let bytes = fs.read_all(&manifest_path(logical)).ok()?;
    let man = Manifest::decode(&bytes)?;
    let mut blob = Blob::new();
    let mut inherited: Vec<Range<u64>> = Vec::new();
    for c in &man.chunks {
        let f = chunk_file(fs, c)?;
        if let Some(off) = c.off {
            let stored = f.blob.read_all()?;
            let at = blob.len();
            match inherited.last_mut() {
                Some(r) if r.end == at => r.end += c.len,
                _ => inherited.push(at..at + c.len),
            }
            blob.append_bytes(&stored[off as usize..(off + c.len) as usize]);
            continue;
        }
        for ch in f.blob.chunks() {
            match ch {
                Chunk::Real(b) => blob.append_bytes(b),
                Chunk::Virtual { len, meta } => blob.append_virtual(*len, meta.clone()),
            }
        }
    }
    (blob.len() == man.logical_len).then_some((blob, inherited))
}

/// Resolve an image for a reader on `node`: local store first, then every
/// other node in index order (deterministic, so restart picks the same
/// replica on every run).
pub(crate) fn resolve(w: &World, node: NodeId, path: &str) -> Option<ResolvedImage> {
    let ni = node.0 as usize;
    let others = (0..w.nodes.len()).filter(|&i| i != ni);
    std::iter::once(ni).chain(others).find_map(|i| {
        let (blob, inherited) = assemble(&w.nodes[i].fs, path)?;
        Some(ResolvedImage {
            blob,
            fetched_from: (i != ni).then_some(NodeId(i as u32)),
            inherited,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }
}
