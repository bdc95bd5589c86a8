//! Resolution path: reassemble an image blob from a manifest and its
//! chunks — from the reader's own store when it survived, otherwise from
//! the first peer node whose store holds a complete replica.

use crate::manifest::{chunk_path, manifest_path, ChunkRef, Manifest};
use mtcp::ResolvedImage;
use oskit::fs::{Blob, Chunk, FileNode, Fs};
use oskit::world::{NodeId, World};

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
/// image the writer described — the reader never sees an alias.
pub(crate) fn assemble(fs: &Fs, logical: &str) -> Option<Blob> {
    let bytes = fs.read_all(&manifest_path(logical)).ok()?;
    let man = Manifest::decode(&bytes)?;
    let mut blob = Blob::new();
    for c in &man.chunks {
        let f = chunk_file(fs, c)?;
        if let Some(off) = c.off {
            let stored = f.blob.read_all()?;
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
    (blob.len() == man.logical_len).then_some(blob)
}

/// Resolve an image for a reader on `node`: local store first, then every
/// other node in index order (deterministic, so restart picks the same
/// replica on every run).
pub(crate) fn resolve(w: &World, node: NodeId, path: &str) -> Option<ResolvedImage> {
    let ni = node.0 as usize;
    if let Some(blob) = assemble(&w.nodes[ni].fs, path) {
        return Some(ResolvedImage {
            blob,
            fetched_from: None,
        });
    }
    for (i, n) in w.nodes.iter().enumerate() {
        if i == ni {
            continue;
        }
        if let Some(blob) = assemble(&n.fs, path) {
            return Some(ResolvedImage {
                blob,
                fetched_from: Some(NodeId(i as u32)),
            });
        }
    }
    None
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
        let got = assemble(&fs, &man.src).expect("complete store assembles");
        assert_eq!(got.read_all().unwrap(), vec![1u8; 10]);
        fs.get_mut(&chunk_path("rab-10")).unwrap().blob.truncate(4);
        assert!(assemble(&fs, &man.src).is_none(), "torn chunk rejected");
    }

    #[test]
    fn assemble_materializes_slice_refs() {
        let mut fs = Fs::new();
        let stored: Vec<u8> = (0..100u8).collect();
        fs.write_all(&chunk_path("rcd-100"), &stored).unwrap();
        let man = Manifest {
            gen: 2,
            logical_len: 30,
            src: "/ckpt/b_gen2.dmtcp".into(),
            chunks: vec![ChunkRef {
                id: "rcd-100".into(),
                len: 30,
                off: Some(40),
            }],
        };
        fs.write_all(&manifest_path(&man.src), &man.encode())
            .unwrap();
        let got = assemble(&fs, &man.src).expect("slice ref assembles");
        assert_eq!(got.read_all().unwrap(), stored[40..70].to_vec());
        // Tear the chunk below the slice's end: the replica must be refused.
        fs.get_mut(&chunk_path("rcd-100"))
            .unwrap()
            .blob
            .truncate(60);
        assert!(assemble(&fs, &man.src).is_none(), "torn slice rejected");
    }
}
