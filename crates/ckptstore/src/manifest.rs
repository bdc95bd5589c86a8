//! Manifest and path scheme of the content-addressed store.
//!
//! Each node's store lives under [`oskit::fs::STORE_ROOT`] in its *local*
//! filesystem:
//!
//! ```text
//! /ckptstore/chunks/<id>            one file per unique chunk
//! /ckptstore/manifests/<image-key>  one file per checkpoint generation
//! ```
//!
//! A chunk id is `r<crc32>-<len>` for literal bytes and `v<crc32>-<len>`
//! for a virtual (accounted-but-unmaterialized) extent, with the CRC taken
//! over the extent's recipe metadata. The manifest is an ordered list of
//! chunk refs — concatenating the chunks in order reproduces the image blob
//! byte for byte. It is plain text so a human (or a test) can read it back.
//!
//! An entry may be a *slice ref* — `<id> <len> @<off>` — contributing `len`
//! bytes starting at byte `off` of the stored chunk instead of the whole
//! file. Slice refs are how incremental checkpoints alias clean regions of
//! the previous generation's image: the new manifest points into chunks the
//! store already holds, so an unchanged region costs no chunk I/O at all.
//! The sink composes slices when it maps an alias through a manifest that
//! itself contains slice refs, so chains stay one level deep.

use oskit::fs::STORE_ROOT;

/// First token of every manifest file.
pub const MANIFEST_MAGIC: &str = "CKPTMAN1";

/// One entry in a manifest: a chunk the image is assembled from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRef {
    /// Content-addressed chunk id (`r`/`v` prefix, CRC-32, length).
    pub id: String,
    /// Bytes this chunk contributes to the image.
    pub len: u64,
    /// Slice ref: byte offset within the stored chunk the contribution
    /// starts at. `None` means the whole chunk file (whose length is `len`).
    pub off: Option<u64>,
}

impl ChunkRef {
    /// A whole-chunk reference.
    pub fn whole(id: impl Into<String>, len: u64) -> ChunkRef {
        ChunkRef {
            id: id.into(),
            len,
            off: None,
        }
    }
}

/// A checkpoint generation: the ordered chunk list for one image file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Checkpoint generation of the image (0 when `src` is not an
    /// [`mtcp::ImageName`]).
    pub gen: u64,
    /// Total image size in bytes (sum of chunk lens).
    pub logical_len: u64,
    /// The logical image path this manifest stands in for.
    pub src: String,
    /// Ordered chunk references.
    pub chunks: Vec<ChunkRef>,
}

impl Manifest {
    /// Serialize to the text format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = format!(
            "{} gen={} len={} src={}\n",
            MANIFEST_MAGIC, self.gen, self.logical_len, self.src
        );
        for c in &self.chunks {
            match c.off {
                Some(off) => out.push_str(&format!("{} {} @{}\n", c.id, c.len, off)),
                None => out.push_str(&format!("{} {}\n", c.id, c.len)),
            }
        }
        out.into_bytes()
    }

    /// Parse the text format; `None` unless `bytes` is exactly what
    /// [`Manifest::encode`] prints for some manifest — every line ended by
    /// `\n`, the head fields in order, every number without sign or leading
    /// zero — so a manifest that decodes re-encodes to the same bytes and a
    /// torn or altered file cannot pass for a different, shorter one by
    /// accident of a lenient parser.
    pub fn decode(bytes: &[u8]) -> Option<Manifest> {
        let text = std::str::from_utf8(bytes).ok()?;
        let mut lines = text.strip_suffix('\n')?.split('\n');
        let mut head = lines.next()?.split(' ');
        if head.next()? != MANIFEST_MAGIC {
            return None;
        }
        let gen = number(head.next()?.strip_prefix("gen=")?)?;
        let logical_len = number(head.next()?.strip_prefix("len=")?)?;
        let src = head.next()?.strip_prefix("src=")?.to_string();
        if head.next().is_some() {
            return None;
        }
        let mut chunks = Vec::new();
        for line in lines {
            let mut parts = line.split(' ');
            let id = parts.next().filter(|id| !id.is_empty())?;
            let len = number(parts.next()?)?;
            let off = match parts.next() {
                Some(tok) => Some(number(tok.strip_prefix('@')?)?),
                None => None,
            };
            if parts.next().is_some() {
                return None;
            }
            chunks.push(ChunkRef {
                id: id.to_string(),
                len,
                off,
            });
        }
        Some(Manifest {
            gen,
            logical_len,
            src,
            chunks,
        })
    }
}

/// A `u64` spelled the one way `Display` spells it.
fn number(s: &str) -> Option<u64> {
    let canonical = s.bytes().all(|b| b.is_ascii_digit()) && (s == "0" || !s.starts_with('0'));
    canonical.then(|| s.parse().ok())?
}

/// Store path of a chunk file.
pub fn chunk_path(id: &str) -> String {
    format!("{STORE_ROOT}/chunks/{id}")
}

/// Prefix under which all chunk files live.
pub fn chunks_prefix() -> String {
    format!("{STORE_ROOT}/chunks/")
}

/// Store path of the manifest standing in for a logical image path.
pub fn manifest_path(logical: &str) -> String {
    format!("{STORE_ROOT}/manifests/{}", logical.replace('/', "_"))
}

/// Prefix under which all manifests live.
pub fn manifests_prefix() -> String {
    format!("{STORE_ROOT}/manifests/")
}

/// The manifests of one image across its generations, and which of them
/// the commit of `name` pushes out of a `retention`-generation window:
/// every generation *g* that exists with 1 ≤ *g* ≤ `name.gen − retention`.
/// Found by listing what is there under the lineage's prefix — a store's
/// files, a ledger's keys — never by counting up from 1.
pub(crate) struct Lineage<'a> {
    name: &'a mtcp::ImageName,
    stem: String,
    /// Store-path prefix shared by every generation's manifest.
    pub(crate) prefix: String,
    newest_expired: u64,
}

impl<'a> Lineage<'a> {
    pub(crate) fn expiring(name: &'a mtcp::ImageName, retention: u32) -> Self {
        let stem = name.lineage_prefix();
        Lineage {
            name,
            prefix: manifest_path(&stem),
            stem,
            newest_expired: name.gen.saturating_sub(retention as u64),
        }
    }

    /// Is `mpath` the manifest of an expired generation of this image? The
    /// part after the prefix goes back through [`mtcp::ImageName::parse`],
    /// and only the spelling `Display` gives that generation counts
    /// (`gen07` is a stranger's file, not generation 7).
    fn expired(&self, mpath: &str) -> bool {
        let Some(rest) = mpath.strip_prefix(&self.prefix) else {
            return false;
        };
        let logical = format!("{}{rest}", self.stem);
        mtcp::ImageName::parse(&logical).is_some_and(|n| {
            (1..=self.newest_expired).contains(&n.gen)
                && n == self.name.with_gen(n.gen)
                && n.to_string() == logical
        })
    }

    /// The expired manifests among `sorted`, an ascending walk of paths
    /// that starts at [`Lineage::prefix`] (it is cut where the prefix ends).
    pub(crate) fn expired_among<'p>(&self, sorted: impl Iterator<Item = &'p str>) -> Vec<String> {
        sorted
            .take_while(|p| p.starts_with(&self.prefix))
            .filter(|p| self.expired(p))
            .map(str::to_string)
            .collect()
    }
}

/// Virtual pid of the process that wrote the image at `path`.
pub fn parse_vpid(path: &str) -> Option<u32> {
    mtcp::ImageName::parse(path).map(|n| n.vpid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            gen: 3,
            logical_len: 1234,
            src: "/shared/ckpt/ckpt_40001_gen3.dmtcp".into(),
            chunks: vec![
                ChunkRef::whole("rdeadbeef-1000", 1000),
                ChunkRef::whole("v00c0ffee-234", 234),
            ],
        };
        assert_eq!(Manifest::decode(&m.encode()), Some(m));
    }

    #[test]
    fn slice_refs_round_trip() {
        let m = Manifest {
            gen: 4,
            logical_len: 700,
            src: "/shared/ckpt/ckpt_40001_gen4.dmtcp".into(),
            chunks: vec![
                ChunkRef::whole("rdeadbeef-500", 500),
                ChunkRef {
                    id: "rcafe-4096".into(),
                    len: 200,
                    off: Some(1024),
                },
            ],
        };
        let text = String::from_utf8(m.encode()).unwrap();
        assert!(text.contains("rcafe-4096 200 @1024\n"), "got: {text}");
        assert_eq!(Manifest::decode(&m.encode()), Some(m));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Manifest::decode(b"not a manifest"), None);
        assert_eq!(Manifest::decode(b"CKPTMAN1 gen=x len=1 src=/a\n"), None);
        assert_eq!(Manifest::decode(&[0xff, 0xfe]), None);
        // A malformed slice ref must not decode.
        assert_eq!(
            Manifest::decode(b"CKPTMAN1 gen=1 len=1 src=/a\nrff-1 1 1024\n"),
            None
        );
        assert_eq!(
            Manifest::decode(b"CKPTMAN1 gen=1 len=1 src=/a\nrff-1 1 @x\n"),
            None
        );
    }

    #[test]
    fn paths_are_node_local() {
        assert!(manifest_path("/shared/ckpt/a_gen1.dmtcp").starts_with("/ckptstore/manifests/"));
        assert!(!chunk_path("rff-1").starts_with(oskit::fs::SHARED_MOUNT));
    }
}
