//! Commit path: chunk an image blob, dedup against the node's store, write
//! the manifest, replicate to peers, and garbage-collect expired
//! generations.
//!
//! Two behaviours layered on the PR-3 store:
//!
//! * **Alias extents** (incremental checkpoints): a virtual blob chunk
//!   whose metadata decodes via [`mtcp::incr::decode_alias`] names a byte
//!   range of the *previous* generation's image. It is mapped through the
//!   previous manifest into slice refs — manifest entries pointing into
//!   chunks the store already holds — so a clean region costs no chunk
//!   write, no hash, and no replica traffic. Mapping composes through
//!   slice refs in the previous manifest, keeping chains one level deep.
//! * **Pipelined replication**: each chunk's transfer to a peer starts when
//!   that chunk is locally durable (immediately, for dedup hits) instead of
//!   waiting for the whole image at `io_done`; the manifest is sent last,
//!   only after every chunk it references is durable on the peer, so a
//!   replica that *has* a manifest is complete up to torn-transfer damage
//!   the assemble-side length checks already reject.

use crate::gc::{self, Pass};
use crate::manifest::{chunk_path, manifest_path, ChunkRef, Lineage, Manifest};
use crate::{source, Config, CHUNK_SIZE};
use mtcp::{ImageName, SinkCommit};
use oskit::fs::{Blob, Chunk, Fs};
use oskit::world::{NodeId, World};
use simkit::Nanos;
use std::collections::{BTreeMap, BTreeSet};

/// A chunk cut out of an image blob, ready to store.
struct PChunk {
    id: String,
    len: u64,
    data: ChunkData,
}

enum ChunkData {
    Real(Vec<u8>),
    Virtual { len: u64, meta: Vec<u8> },
}

/// One piece of a blob: either a chunk to store, or an alias extent to map
/// through the previous generation's manifest.
enum Piece {
    Store(PChunk),
    Alias {
        prev_path: String,
        off: u64,
        len: u64,
    },
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a. The chunk identity needs a second hash that is *not*
/// linear over GF(2): checkpoint images end with their own CRC-32 trailer,
/// and for such self-checksummed content the contribution of the bytes to
/// any CRC-family hash of the whole cancels out (the CRC residue property),
/// so distinct header-only images of equal length all share one CRC-32.
/// FNV's multiplicative mixing has no such degeneracy.
fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV_OFFSET, bytes)
}

/// FNV-1a's chain continued from state `h` over `bytes`.
fn fnv1a64_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// [`fnv1a64`] of every piece, in order. Each byte of one chain waits for
/// the multiply before it, so four pieces' chains are stepped side by side
/// over their common length, then each finishes alone: the same hashes in
/// a quarter of the serial multiplies' latency.
fn fnv1a64_pieces(pieces: &[&[u8]]) -> Vec<u64> {
    let mut out = Vec::with_capacity(pieces.len());
    for group in pieces.chunks(4) {
        let mut h = [FNV_OFFSET; 4];
        let mut common = 0;
        if let [a, b, c, d] = group {
            common = a.len().min(b.len()).min(c.len()).min(d.len());
            let lanes = a[..common]
                .iter()
                .zip(&b[..common])
                .zip(&c[..common])
                .zip(&d[..common]);
            for (((&a, &b), &c), &d) in lanes {
                h[0] = (h[0] ^ a as u64).wrapping_mul(FNV_PRIME);
                h[1] = (h[1] ^ b as u64).wrapping_mul(FNV_PRIME);
                h[2] = (h[2] ^ c as u64).wrapping_mul(FNV_PRIME);
                h[3] = (h[3] ^ d as u64).wrapping_mul(FNV_PRIME);
            }
        }
        for (h, piece) in h.iter().zip(group) {
            out.push(fnv1a64_from(*h, &piece[common..]));
        }
    }
    out
}

/// Cut an image blob into content-addressed chunks: real byte runs split at
/// `chunk_size` boundaries, virtual extents kept whole (identified by their
/// recipe metadata — two generations of the same synthetic region share one
/// chunk without either ever being materialized). Identity is the CRC-32 of
/// the content joined with its FNV-1a 64 and the length; dedup additionally
/// verifies bytes, so a colliding id can never alias different content.
fn chunk_blob(blob: &Blob, chunk_size: u64) -> Vec<Piece> {
    let mut out = Vec::new();
    for c in blob.chunks() {
        match c {
            Chunk::Real(bytes) => {
                let pieces: Vec<&[u8]> = bytes.chunks(chunk_size.max(1) as usize).collect();
                for (piece, fnv) in pieces.iter().zip(fnv1a64_pieces(&pieces)) {
                    out.push(Piece::Store(PChunk {
                        id: format!("r{:08x}{:016x}-{}", szip::crc32(piece), fnv, piece.len()),
                        len: piece.len() as u64,
                        data: ChunkData::Real(piece.to_vec()),
                    }));
                }
            }
            Chunk::Virtual { len, meta } => {
                // An alias extent never becomes a chunk of its own: it is a
                // pointer into the previous image, resolved at manifest
                // level. A torn write may have shrunk the extent (`len` <
                // the length in the meta); the prefix is still valid.
                if let Some((prev_path, off, alias_len)) = mtcp::incr::decode_alias(meta) {
                    out.push(Piece::Alias {
                        prev_path,
                        off,
                        len: (*len).min(alias_len),
                    });
                    continue;
                }
                out.push(Piece::Store(PChunk {
                    id: format!("v{:08x}{:016x}-{}", szip::crc32(meta), fnv1a64(meta), len),
                    len: *len,
                    data: ChunkData::Virtual {
                        len: *len,
                        meta: meta.clone(),
                    },
                }));
            }
        }
    }
    out
}

/// Map an alias extent — `len` bytes from byte `off` of the previous
/// image — through that image's manifest into slice refs. Composes through
/// slice refs already present in the previous manifest, so a chain of
/// incremental generations always refs real stored chunks directly.
///
/// Every piece is a slice ref, even one that happens to cover a whole
/// chunk: a manifest's slice refs are then exactly the byte ranges its
/// image inherited from older generations, which is how a restore tells the
/// regions the newest generation wrote from the ones it did not.
///
/// Panics if the extent is not fully covered: the writer checked the alias
/// bound against this very manifest, so a shortfall is store corruption.
fn map_alias(prev_man: &Manifest, off: u64, len: u64) -> Vec<ChunkRef> {
    let mut out = Vec::new();
    let end = off + len;
    let mut base = 0u64;
    let mut covered = 0u64;
    for c in &prev_man.chunks {
        let c_end = base + c.len;
        if c_end > off && base < end {
            let s = off.max(base);
            let e = end.min(c_end);
            out.push(ChunkRef {
                id: c.id.clone(),
                len: e - s,
                off: Some(c.off.unwrap_or(0) + (s - base)),
            });
            covered += e - s;
        }
        base = c_end;
    }
    assert!(
        covered == len,
        "alias extent [{off}, {end}) exceeds previous image {} (len {})",
        prev_man.src,
        prev_man.logical_len
    );
    out
}

/// Rebuild a storable chunk from this node's own store (used to re-send a
/// slice-referenced chunk to a peer that lost it).
fn local_pchunk(fs: &Fs, id: &str) -> Option<PChunk> {
    let f = fs.get(&chunk_path(id))?;
    let data = match f.blob.chunks().first() {
        Some(Chunk::Virtual { len, meta }) => ChunkData::Virtual {
            len: *len,
            meta: meta.clone(),
        },
        Some(Chunk::Real(_)) => ChunkData::Real(f.blob.read_all()?),
        None => return None,
    };
    Some(PChunk {
        id: id.to_string(),
        len: f.blob.len(),
        data,
    })
}

enum Put {
    /// Chunk already present in full: nothing written.
    Deduped,
    /// Chunk written (the count is the bytes that went to storage — the
    /// whole chunk, or just the missing tail when resuming a torn upload).
    Wrote(u64),
}

/// Idempotently store one chunk. A file that already exists at its full
/// length with the same bytes is a dedup hit; a *shorter* file with a
/// matching prefix is a torn upload from an interrupted replication — for
/// real chunks only the missing tail is re-sent, which is exactly why
/// [`Fs::append`] and `Blob::truncate` report byte counts. A same-id file
/// with *different* content is an id collision: content-addressing with a
/// non-cryptographic hash must verify before trusting the address, and a
/// collision here would silently resurrect another image's bytes on
/// restart, so it is a hard error.
fn put_chunk(fs: &mut Fs, path: &str, chunk: &PChunk) -> Put {
    if let Some(have) = fs.size(path) {
        if have == chunk.len {
            let same = match (&chunk.data, fs.get(path)) {
                (ChunkData::Real(bytes), Some(f)) => {
                    f.blob.read_all().as_deref() == Some(bytes.as_slice())
                }
                (ChunkData::Virtual { len, meta }, Some(f)) => matches!(
                    f.blob.chunks().first(),
                    Some(Chunk::Virtual { len: l, meta: m }) if l == len && m == meta
                ),
                (_, None) => false,
            };
            assert!(
                same,
                "chunk id collision at {path}: same id, different content"
            );
            return Put::Deduped;
        }
        if let ChunkData::Real(bytes) = &chunk.data {
            let resumable = have < chunk.len
                && fs.get(path).map(|f| f.blob.real_len()) == Some(have)
                && fs
                    .get(path)
                    .and_then(|f| f.blob.read_all())
                    .is_some_and(|stored| stored == bytes[..have as usize]);
            if resumable {
                let written = fs
                    .append(path, &bytes[have as usize..])
                    .expect("store dir writable");
                return Put::Wrote(written);
            }
        }
        // Wrong length and not resumable: rewrite from scratch.
    }
    fs.create(path).expect("store dir writable");
    let written = match &chunk.data {
        ChunkData::Real(bytes) => fs.append(path, bytes),
        ChunkData::Virtual { len, meta } => fs.append_virtual(path, *len, meta.clone()),
    }
    .expect("store dir writable");
    Put::Wrote(written)
}

/// How a chunk reaches a replica.
enum RepData {
    /// Freshly chunked this commit: send the in-memory piece.
    Piece(usize),
    /// Slice-referenced from a previous generation: re-read from the local
    /// store only if the peer is missing it (normally a no-op — the ring is
    /// stable, so the peer got it when that generation replicated).
    FromStore,
}

/// One chunk a replica must hold, and when it becomes locally available
/// for transfer.
struct RepItem {
    id: String,
    avail: Nanos,
    data: RepData,
}

/// Commit an image into the store on `node` and return what `mtcp` needs:
/// physical bytes stored and when the image (including replicas) is durable.
pub(crate) fn commit(
    cfg: &Config,
    w: &mut World,
    now: Nanos,
    node: NodeId,
    path: &str,
    blob: &Blob,
) -> SinkCommit {
    let pieces = chunk_blob(blob, CHUNK_SIZE);
    let name = ImageName::parse(path);
    let gen = name.as_ref().map_or(0, |n| n.gen);
    let ni = node.0 as usize;
    // Inside a tenant namespace the owner's retention policy governs GC.
    let retention = crate::tenant::retention_for(w, path, cfg.retention);
    let expiring = name.as_ref().map(|n| Lineage::expiring(n, retention));

    // ---- Local store: new chunks (alias extents become slice refs into
    // already-stored chunks), then the manifest. ----
    let mut pass = Pass::begin(w, ni);
    let mut new_bytes = 0u64;
    let mut deduped_bytes = 0u64;
    let mut io_done = now;
    let mut new_ids: BTreeSet<String> = BTreeSet::new();
    let mut entries: Vec<ChunkRef> = Vec::new();
    let mut rep_items: Vec<RepItem> = Vec::new();
    let mut seen_rep: BTreeSet<String> = BTreeSet::new();
    let mut prev_mans: BTreeMap<String, Manifest> = BTreeMap::new();
    for (idx, piece) in pieces.iter().enumerate() {
        match piece {
            Piece::Store(p) => {
                let cpath = chunk_path(&p.id);
                let avail = match put_chunk(&mut w.nodes[ni].fs, &cpath, p) {
                    Put::Deduped => {
                        deduped_bytes += p.len;
                        now
                    }
                    Put::Wrote(n) => {
                        new_bytes += n;
                        new_ids.insert(p.id.clone());
                        let done = w.charge_storage_write(now, node, &cpath, n);
                        io_done = io_done.max(done);
                        done
                    }
                };
                entries.push(ChunkRef::whole(p.id.clone(), p.len));
                if seen_rep.insert(p.id.clone()) {
                    rep_items.push(RepItem {
                        id: p.id.clone(),
                        avail,
                        data: RepData::Piece(idx),
                    });
                }
            }
            Piece::Alias {
                prev_path,
                off,
                len,
            } => {
                let fs = &w.nodes[ni].fs;
                let man = prev_mans.entry(prev_path.clone()).or_insert_with(|| {
                    let bytes = fs
                        .read_all(&manifest_path(prev_path))
                        .expect("alias target manifest present (writer checked alias_bound)");
                    Manifest::decode(&bytes).expect("alias target manifest well-formed")
                });
                for r in map_alias(man, *off, *len) {
                    if seen_rep.insert(r.id.clone()) {
                        rep_items.push(RepItem {
                            id: r.id.clone(),
                            avail: now,
                            data: RepData::FromStore,
                        });
                    }
                    entries.push(r);
                }
            }
        }
    }
    let man = Manifest {
        gen,
        logical_len: blob.len(),
        src: path.to_string(),
        chunks: entries,
    };
    let man_bytes = man.encode();
    let man_names = gc::named(&man_bytes);
    let mpath = manifest_path(path);
    let man_len = pass.write_manifest(
        &mut w.nodes[ni].fs,
        &mpath,
        &man_bytes,
        man_names.as_deref(),
    );
    new_bytes += man_len;
    io_done = io_done.max(w.charge_storage_write(now, node, &mpath, man_len));

    // ---- Delta against the previous generation, if it exists. ----
    if let Some(prev_name) = name.as_ref().filter(|n| n.gen > 1) {
        let prev_path = prev_name.with_gen(gen - 1).to_string();
        if let Ok(prev) = w.nodes[ni].fs.read_all(&manifest_path(&prev_path)) {
            if let Some(prev_man) = Manifest::decode(&prev) {
                let prev_ids: BTreeSet<&str> =
                    prev_man.chunks.iter().map(|c| c.id.as_str()).collect();
                let delta: u64 = man
                    .chunks
                    .iter()
                    .filter(|c| !prev_ids.contains(c.id.as_str()))
                    .map(|c| c.len)
                    .sum();
                let ratio = delta as f64 / man.logical_len.max(1) as f64;
                w.obs.metrics.add("ckptstore.delta_bytes", 0, delta);
                w.obs
                    .metrics
                    .set_gauge("ckptstore.delta_ratio", node.0 as u64, ratio);
            }
        }
    }

    // ---- Replication: copy the manifest and its missing chunks to R
    // peers (ring order), so restart can proceed when this node's disk is
    // gone. Pipelined with the local commit: each chunk's NIC transfer
    // starts when that chunk is locally durable (immediately for dedup
    // hits) rather than when the whole image is, and the manifest is sent
    // last — only once every chunk it references is durable on the peer —
    // so a replica holding a manifest is complete. The checkpoint is not
    // declared durable until the slowest replica has the manifest. ----
    let n_nodes = w.nodes.len();
    let r = cfg.replicas.min(n_nodes.saturating_sub(1));
    let mut rep_done = io_done;
    let mut pipelined = 0u64;
    for k in 1..=r {
        let peer = (ni + k) % n_nodes;
        let mut peer_pass = Pass::begin(w, peer);
        let mut sent = 0u64;
        let mut chunks_durable = now;
        for item in &rep_items {
            let cpath = chunk_path(&item.id);
            let put = match &item.data {
                RepData::Piece(idx) => {
                    let Piece::Store(p) = &pieces[*idx] else {
                        unreachable!("RepData::Piece indexes a stored piece")
                    };
                    Some(put_chunk(&mut w.nodes[peer].fs, &cpath, p))
                }
                RepData::FromStore => {
                    let local_len = w.nodes[ni].fs.size(&cpath);
                    if local_len.is_none() || w.nodes[peer].fs.size(&cpath) == local_len {
                        None
                    } else {
                        local_pchunk(&w.nodes[ni].fs, &item.id)
                            .map(|p| put_chunk(&mut w.nodes[peer].fs, &cpath, &p))
                    }
                }
            };
            if let Some(Put::Wrote(n)) = put {
                if item.avail < io_done {
                    pipelined += 1;
                }
                let tx_done = w.nodes[ni].nic_tx.transfer(item.avail, n) + w.spec.net_latency;
                let peer_done = w.charge_storage_write(tx_done, NodeId(peer as u32), &cpath, n);
                chunks_durable = chunks_durable.max(peer_done);
                sent += n;
            }
        }
        peer_pass.write_manifest(
            &mut w.nodes[peer].fs,
            &mpath,
            &man_bytes,
            man_names.as_deref(),
        );
        sent += man_len;
        let man_start = io_done.max(chunks_durable);
        let tx_done = w.nodes[ni].nic_tx.transfer(man_start, man_len) + w.spec.net_latency;
        let peer_done = w.charge_storage_write(tx_done, NodeId(peer as u32), &mpath, man_len);
        rep_done = rep_done.max(peer_done);
        w.obs
            .metrics
            .add("ckptstore.replication_bytes", peer as u64, sent);
        peer_pass.finish(w, expiring.as_ref());
    }
    if pipelined > 0 {
        w.obs
            .metrics
            .add("ckptstore.pipelined_chunks", node.0 as u64, pipelined);
    }
    let lag = rep_done.saturating_sub(io_done);
    w.obs
        .metrics
        .observe("ckptstore.replication_lag_ns", node.0 as u64, lag.0);

    pass.finish(w, expiring.as_ref());

    // Tenant ledger: charge this commit's stored bytes, credit the
    // generations that just expired under the tenant's retention window.
    if let Some(tenant) = crate::tenant::tenant_of(path) {
        crate::tenant::charge(w, tenant, &mpath, new_bytes);
        if let Some(lineage) = &expiring {
            crate::tenant::credit_expired(w, tenant, lineage);
        }
    }

    w.obs
        .metrics
        .add("ckptstore.bytes_written", node.0 as u64, new_bytes);
    w.obs
        .metrics
        .add("ckptstore.bytes_deduped", node.0 as u64, deduped_bytes);
    w.obs.metrics.add(
        "ckptstore.chunks_written",
        node.0 as u64,
        new_ids.len() as u64,
    );

    SinkCommit {
        stored_bytes: new_bytes,
        io_done: rep_done,
    }
}

/// Make `node` a holder of the image `path` that `from`'s store has just
/// served it for a restore: the manifest and every chunk file it names,
/// copied file for file, manifest last. Nothing is re-chunked, hashed or
/// replicated onward — the bytes crossed the wire for the restore and were
/// CRC-checked on arrival, and `from` stays as much of a replica as it was.
/// A copy on `from` that is no longer whole is not adopted at all. The
/// local writes are charged at `now`; nobody waits for them.
pub(crate) fn adopt(w: &mut World, now: Nanos, node: NodeId, from: NodeId, path: &str) {
    let (ni, fi) = (node.0 as usize, from.0 as usize);
    let mpath = manifest_path(path);
    let Ok(man_bytes) = w.nodes[fi].fs.read_all(&mpath) else {
        return;
    };
    let whole = Manifest::decode(&man_bytes).filter(|m| source::complete(&w.nodes[fi].fs, m));
    let Some(names) = whole.and_then(|_| gc::named(&man_bytes)) else {
        return;
    };
    let mut pass = Pass::begin(w, ni);
    let mut adopted = 0u64;
    for id in &names {
        let cpath = chunk_path(id);
        let theirs = &w.nodes[fi].fs.get(&cpath).expect("complete above").blob;
        // Content-addressed: a local file of that name and length is it.
        if w.nodes[ni].fs.size(&cpath) == Some(theirs.len()) {
            continue;
        }
        let blob = theirs.clone();
        adopted += blob.len();
        let fs = &mut w.nodes[ni].fs;
        fs.create(&cpath).expect("store dir writable");
        fs.get_mut(&cpath).expect("just created").blob = blob;
    }
    adopted += pass.write_manifest(&mut w.nodes[ni].fs, &mpath, &man_bytes, Some(&names));
    w.charge_storage_write(now, node, &mpath, adopted);
    pass.finish(w, None);
    w.obs
        .metrics
        .add("ckptstore.adopted_bytes", node.0 as u64, adopted);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stored(p: &Piece) -> &PChunk {
        match p {
            Piece::Store(c) => c,
            Piece::Alias { .. } => panic!("expected a stored piece"),
        }
    }

    #[test]
    fn chunking_splits_real_runs_and_keeps_virtual_whole() {
        let mut b = Blob::new();
        b.append_bytes(&vec![7u8; 600]);
        b.append_virtual(1 << 30, vec![1, 2, 3]);
        b.append_bytes(b"tail");
        let pieces = chunk_blob(&b, 256);
        assert_eq!(pieces.len(), 3 + 1 + 1, "600 B at 256 → 3 pieces");
        assert_eq!(stored(&pieces[0]).len, 256);
        assert_eq!(stored(&pieces[2]).len, 88);
        assert!(stored(&pieces[3]).id.starts_with('v'));
        assert_eq!(stored(&pieces[3]).len, 1 << 30);
        assert_eq!(
            stored(&pieces[0]).id,
            stored(&pieces[1]).id,
            "identical content, same id"
        );
        let total: u64 = pieces.iter().map(|p| stored(p).len).sum();
        assert_eq!(total, b.len());
    }

    #[test]
    fn four_lane_fnv_equals_the_serial_hash() {
        let bytes: Vec<u8> = (0..10 * 1000u32).map(|i| (i * 7 + i / 251) as u8).collect();
        // 0–9 equal pieces, then the same with a short last piece, a
        // 1-byte last piece and a 1-byte piece among full ones.
        for count in 0..=9usize {
            let full: Vec<&[u8]> = bytes.chunks(1000).take(count).collect();
            let mut cases = vec![full.clone()];
            if count > 0 {
                let mut short = full.clone();
                short[count - 1] = &short[count - 1][..613];
                cases.push(short);
                let mut one = full.clone();
                one[count - 1] = &one[count - 1][..1];
                cases.push(one);
                let mut inner = full.clone();
                inner[count / 2] = &inner[count / 2][..1];
                cases.push(inner);
            }
            for pieces in cases {
                let serial: Vec<u64> = pieces.iter().map(|p| fnv1a64(p)).collect();
                assert_eq!(fnv1a64_pieces(&pieces), serial, "{count} pieces");
            }
        }
    }

    /// Ids of one fixed blob, computed outside this crate (Python's
    /// `zlib.crc32` and a byte-at-a-time FNV-1a 64): a change to how chunks
    /// are named renames every stored chunk, and this fails first.
    #[test]
    fn chunk_ids_are_golden() {
        let bytes: Vec<u8> = (0..600_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        let mut b = Blob::new();
        b.append_bytes(&bytes);
        let ids: Vec<String> = chunk_blob(&b, CHUNK_SIZE)
            .iter()
            .map(|p| stored(p).id.clone())
            .collect();
        assert_eq!(
            ids,
            [
                "r3be09fcf229eeb8621304c42-262144",
                "r528b83a1a2cf0b1f670cdd22-262144",
                "ra16450ac499c45f3559a67f4-75712",
            ]
        );
    }

    #[test]
    fn alias_extents_become_alias_pieces_not_chunks() {
        let mut b = Blob::new();
        b.append_bytes(b"header");
        let meta = mtcp::incr::encode_alias("/ckpt/a_gen1.dmtcp", 4096, 1000);
        b.append_virtual(1000, meta);
        let pieces = chunk_blob(&b, 256);
        assert_eq!(pieces.len(), 2);
        match &pieces[1] {
            Piece::Alias {
                prev_path,
                off,
                len,
            } => {
                assert_eq!(prev_path, "/ckpt/a_gen1.dmtcp");
                assert_eq!((*off, *len), (4096, 1000));
            }
            Piece::Store(_) => panic!("alias extent must not become a chunk"),
        }
        // A torn truncate shrinks the extent; the prefix is still aliased.
        b.truncate(b.len() - 600);
        let torn = chunk_blob(&b, 256);
        match &torn[1] {
            Piece::Alias { len, .. } => assert_eq!(*len, 400),
            Piece::Store(_) => panic!("torn alias extent must stay an alias"),
        }
    }

    #[test]
    fn map_alias_slices_and_composes() {
        let man = Manifest {
            gen: 2,
            logical_len: 1000,
            src: "/ckpt/a_gen2.dmtcp".into(),
            chunks: vec![
                ChunkRef::whole("ra-400", 400),
                // Itself a slice ref (gen 2 aliased gen 1): composition must
                // point straight at the stored chunk.
                ChunkRef {
                    id: "rb-4096".into(),
                    len: 600,
                    off: Some(100),
                },
            ],
        };
        // Whole-image alias → a slice covering the whole first chunk (an
        // inherited range stays a slice) plus the original slice.
        let refs = map_alias(&man, 0, 1000);
        assert_eq!(
            refs,
            vec![
                ChunkRef {
                    id: "ra-400".into(),
                    len: 400,
                    off: Some(0),
                },
                ChunkRef {
                    id: "rb-4096".into(),
                    len: 600,
                    off: Some(100),
                },
            ]
        );
        // A range crossing both entries slices each side and composes the
        // inner offset.
        let refs = map_alias(&man, 300, 300);
        assert_eq!(
            refs,
            vec![
                ChunkRef {
                    id: "ra-400".into(),
                    len: 100,
                    off: Some(300),
                },
                ChunkRef {
                    id: "rb-4096".into(),
                    len: 200,
                    off: Some(100),
                },
            ]
        );
    }

    #[test]
    #[should_panic(expected = "exceeds previous image")]
    fn map_alias_refuses_uncovered_ranges() {
        let man = Manifest {
            gen: 1,
            logical_len: 100,
            src: "/ckpt/a_gen1.dmtcp".into(),
            chunks: vec![ChunkRef::whole("ra-100", 100)],
        };
        map_alias(&man, 50, 100);
    }

    #[test]
    fn put_chunk_dedups_and_resumes_torn_uploads() {
        let mut fs = Fs::new();
        let bytes = vec![9u8; 1000];
        let chunk = PChunk {
            id: "r0-1000".into(),
            len: 1000,
            data: ChunkData::Real(bytes.clone()),
        };
        let p = chunk_path(&chunk.id);
        assert!(matches!(put_chunk(&mut fs, &p, &chunk), Put::Wrote(1000)));
        assert!(matches!(put_chunk(&mut fs, &p, &chunk), Put::Deduped));
        // Tear the upload: only the missing tail goes back out.
        let torn = fs.get_mut(&p).expect("chunk exists");
        assert_eq!(torn.blob.truncate(300), 300);
        assert!(matches!(put_chunk(&mut fs, &p, &chunk), Put::Wrote(700)));
        assert_eq!(fs.read_all(&p).unwrap(), bytes);
    }

    /// Checkpoint images end with their own CRC-32; by the CRC residue
    /// property every such buffer of one length has the *same* CRC-32, so a
    /// CRC-only identity deduped distinct images into one chunk (restart
    /// then resurrected another generation's state). The FNV half of the id
    /// must keep them apart.
    #[test]
    fn self_checksummed_content_gets_distinct_ids() {
        let image = |fill: u8| {
            let mut m = vec![fill; 64];
            let c = szip::crc32(&m);
            m.extend_from_slice(&c.to_le_bytes());
            m
        };
        let (a, b) = (image(1), image(2));
        assert_eq!(
            szip::crc32(&a),
            szip::crc32(&b),
            "residue property: self-checksummed buffers share a CRC"
        );
        let id_of = |bytes: &[u8]| {
            let mut bl = Blob::new();
            bl.append_bytes(bytes);
            stored(&chunk_blob(&bl, 1 << 20)[0]).id.clone()
        };
        assert_ne!(id_of(&a), id_of(&b), "ids must still differ");
    }

    #[test]
    #[should_panic(expected = "chunk id collision")]
    fn colliding_id_with_different_content_is_refused() {
        let mut fs = Fs::new();
        let mk = |fill: u8| PChunk {
            id: "r0-4".into(),
            len: 4,
            data: ChunkData::Real(vec![fill; 4]),
        };
        let p = chunk_path("r0-4");
        assert!(matches!(put_chunk(&mut fs, &p, &mk(1)), Put::Wrote(4)));
        put_chunk(&mut fs, &p, &mk(2));
    }
}
