//! The checkpoint image format.
//!
//! An image file is a [`oskit::fs::Blob`] laid out as:
//!
//! ```text
//! [ real chunk:  IMAGE_MAGIC · header_len varint · snap(CkptImage) ]
//! [ per-region payloads, in region-table order:
//!     StoredAs::Real      → real chunk of (possibly szip'd) bytes
//!     StoredAs::Shared    → real chunk of (possibly szip'd) bytes
//!     StoredAs::Synthetic → virtual chunk of comp_len bytes           ]
//! ```
//!
//! Synthetic payloads are "written" as virtual extents: the file records
//! their exact on-disk size (computed by really compressing the generated
//! stream, or a documented 1 MiB sample of it for very large regions) but
//! the simulation host never materializes them. Real application state is
//! always stored — and verified on restore — byte for byte.

use oskit::mem::{FillProfile, RegionKind};
use oskit::proc::{SigAction, ThreadCtx};
use simkit::{impl_snap, Snap, SnapReader, SnapWriter};

/// Magic prefix of image files.
pub const IMAGE_MAGIC: &[u8; 8] = b"MTCPIMG1";

/// Where one process's image of one generation lives:
/// `<dir>/ckpt_<vpid>_gen<gen>.dmtcp`. The only place that file-name
/// convention is spelled — writers format through [`std::fmt::Display`],
/// everything that must recover the vpid or generation from a path goes
/// through [`ImageName::parse`], and another generation of the same image
/// is [`ImageName::with_gen`] (never string surgery on the digits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageName {
    /// Checkpoint directory (no trailing slash).
    pub dir: String,
    /// Virtual pid of the writing process.
    pub vpid: u32,
    /// Checkpoint generation.
    pub gen: u64,
}

impl ImageName {
    /// Parse an image path; `None` for anything that is not exactly the
    /// convention (a restart script, a manifest, a foreign file).
    pub fn parse(path: &str) -> Option<ImageName> {
        let (dir, file) = path.rsplit_once('/')?;
        let (vpid, gen) = file
            .strip_prefix("ckpt_")?
            .strip_suffix(".dmtcp")?
            .split_once("_gen")?;
        let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        if !digits(vpid) || !digits(gen) {
            return None;
        }
        Some(ImageName {
            dir: dir.to_string(),
            vpid: vpid.parse().ok()?,
            gen: gen.parse().ok()?,
        })
    }

    /// The same process's image at another generation.
    pub fn with_gen(&self, gen: u64) -> ImageName {
        ImageName {
            gen,
            ..self.clone()
        }
    }

    /// The path up to the generation digits — what every generation of
    /// this process's image starts with and no other image does, so a
    /// sorted listing finds the generations that exist without counting
    /// from 1. The rest of a listed path goes back through
    /// [`ImageName::parse`].
    pub fn lineage_prefix(&self) -> String {
        format!("{}/ckpt_{}_gen", self.dir, self.vpid)
    }
}

impl std::fmt::Display for ImageName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/ckpt_{}_gen{}.dmtcp", self.dir, self.vpid, self.gen)
    }
}

/// Why a header failed to parse. Distinguishing truncation from corruption
/// matters to the restart path: a truncated image is a torn write (fall back
/// to the previous generation), a bad CRC is bit rot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// The bytes end before the header does (torn write).
    Truncated,
    /// The magic prefix is wrong — this is not an image file.
    BadMagic,
    /// The header checksum does not match its contents.
    BadCrc,
    /// Structurally invalid header despite a matching checksum.
    Malformed,
}

impl std::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeaderError::Truncated => write!(f, "image header truncated"),
            HeaderError::BadMagic => write!(f, "bad image magic"),
            HeaderError::BadCrc => write!(f, "image header CRC mismatch"),
            HeaderError::Malformed => write!(f, "malformed image header"),
        }
    }
}

impl std::error::Error for HeaderError {}

/// How a region's payload is stored in the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoredAs {
    /// Real bytes follow in the payload area (szip'd when the image is
    /// compressed).
    Real {
        /// Stored payload size in bytes.
        comp_len: u64,
    },
    /// A shared-memory segment's bytes follow, with the backing path
    /// recorded for the §4.5 restore rules.
    Shared {
        /// Backing file path.
        backing: String,
        /// Stored payload size in bytes.
        comp_len: u64,
    },
    /// Synthetic recipe; the payload is a virtual extent of `comp_len`.
    Synthetic {
        /// Generator seed.
        seed: u64,
        /// Fill profile.
        profile: FillProfile,
        /// Stored payload size in bytes.
        comp_len: u64,
        /// Whether `comp_len` came from sampled extrapolation.
        sampled: bool,
    },
}

impl_snap!(enum StoredAs {
    Real { comp_len },
    Shared { backing, comp_len },
    Synthetic { seed, profile, comp_len, sampled },
});

/// Region table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionMeta {
    /// Mapping name.
    pub name: String,
    /// Region kind.
    pub kind: RegionKind,
    /// Protection bits.
    pub prot: u8,
    /// Uncompressed length.
    pub raw_len: u64,
    /// Payload representation.
    pub stored: StoredAs,
    /// CRC-32 of the raw bytes (0 for synthetic — their identity is the
    /// recipe).
    pub crc: u32,
}

impl_snap!(struct RegionMeta { name, kind, prot, raw_len, stored, crc });

/// The image header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptImage {
    /// Original (virtual) pid of the checkpointed process.
    pub vpid: u32,
    /// Command name.
    pub cmd: String,
    /// Environment.
    pub env: Vec<(String, String)>,
    /// Captured thread contexts (registers/stack analogue).
    pub threads: Vec<ThreadCtx>,
    /// Region table.
    pub regions: Vec<RegionMeta>,
    /// Signal dispositions.
    pub sig_actions: Vec<(u8, SigAction)>,
    /// Whether payloads are szip-compressed.
    pub compressed: bool,
    /// Opaque upper-layer (DMTCP) metadata: the connection-information
    /// table, virtual-pid map, pty state. MTCP never interprets it.
    pub dmtcp_meta: Vec<u8>,
}

impl_snap!(struct CkptImage {
    vpid, cmd, env, threads, regions, sig_actions, compressed, dmtcp_meta
});

impl CkptImage {
    /// Serialize the header (magic + length-prefixed snap bytes + CRC-32 of
    /// the snap body, so torn or bit-flipped headers are detected before the
    /// region table is trusted).
    pub fn encode_header(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.save(&mut w);
        let body = w.into_bytes();
        let mut out = Vec::with_capacity(body.len() + 20);
        out.extend_from_slice(IMAGE_MAGIC);
        let mut lenw = SnapWriter::new();
        lenw.put_varint(body.len() as u64);
        out.extend_from_slice(&lenw.into_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&szip::crc32(&body).to_le_bytes());
        out
    }

    /// Parse a header from the front of `bytes`; returns the image and the
    /// number of bytes consumed.
    pub fn decode_header(bytes: &[u8]) -> Result<(CkptImage, usize), HeaderError> {
        if bytes.len() < IMAGE_MAGIC.len() {
            return Err(HeaderError::Truncated);
        }
        if &bytes[..IMAGE_MAGIC.len()] != IMAGE_MAGIC {
            return Err(HeaderError::BadMagic);
        }
        let mut r = SnapReader::new(&bytes[IMAGE_MAGIC.len()..]);
        let body_len = r.get_varint().map_err(|_| HeaderError::Truncated)? as usize;
        let varint_bytes = (bytes.len() - IMAGE_MAGIC.len()) - r.remaining();
        let body = r.get_raw(body_len).map_err(|_| HeaderError::Truncated)?;
        let crc = r.get_raw(4).map_err(|_| HeaderError::Truncated)?;
        let stored = u32::from_le_bytes(crc.try_into().expect("4 bytes"));
        if szip::crc32(body) != stored {
            return Err(HeaderError::BadCrc);
        }
        let img = CkptImage::from_snap_bytes(body).map_err(|_| HeaderError::Malformed)?;
        Ok((img, IMAGE_MAGIC.len() + varint_bytes + body_len + 4))
    }

    /// Total stored payload bytes (the image file size minus the header).
    pub fn payload_len(&self) -> u64 {
        self.regions
            .iter()
            .map(|r| match &r.stored {
                StoredAs::Real { comp_len } => *comp_len,
                StoredAs::Shared { comp_len, .. } => *comp_len,
                StoredAs::Synthetic { comp_len, .. } => *comp_len,
            })
            .sum()
    }

    /// Total raw (uncompressed) bytes of the address space.
    pub fn raw_len(&self) -> u64 {
        self.regions.iter().map(|r| r.raw_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_image() -> CkptImage {
        CkptImage {
            vpid: 1234,
            cmd: "octave".into(),
            env: vec![("DMTCP_COORD".into(), "node00:7779".into())],
            threads: vec![ThreadCtx {
                tag: "worker".into(),
                state: vec![9, 9],
                user: true,
                blocked: false,
            }],
            regions: vec![
                RegionMeta {
                    name: "heap".into(),
                    kind: RegionKind::Heap,
                    prot: 3,
                    raw_len: 4096,
                    stored: StoredAs::Real { comp_len: 812 },
                    crc: 0xDEADBEEF,
                },
                RegionMeta {
                    name: "ballast".into(),
                    kind: RegionKind::Anon,
                    prot: 1,
                    raw_len: 1 << 30,
                    stored: StoredAs::Synthetic {
                        seed: 7,
                        profile: FillProfile::Text,
                        comp_len: 200 << 20,
                        sampled: true,
                    },
                    crc: 0,
                },
            ],
            sig_actions: vec![(15, SigAction::Handler)],
            compressed: true,
            dmtcp_meta: vec![1, 2, 3],
        }
    }

    #[test]
    fn image_name_round_trips_and_rejects_foreign_paths() {
        // Generation-looking directories are not the file name's business.
        let p = "/ckpt_gen9/t_gen1/ckpt_40001_gen12.dmtcp";
        let n = ImageName::parse(p).expect("conforming path");
        assert_eq!(
            (n.dir.as_str(), n.vpid, n.gen),
            ("/ckpt_gen9/t_gen1", 40001, 12)
        );
        assert_eq!(n.to_string(), p);
        let older = n.with_gen(3).to_string();
        assert_eq!(older, "/ckpt_gen9/t_gen1/ckpt_40001_gen3.dmtcp");
        // Every generation starts with the lineage prefix; another vpid
        // that merely starts with the same digits does not.
        assert_eq!(older.strip_prefix(&n.lineage_prefix()), Some("3.dmtcp"));
        let longer_vpid = ImageName {
            vpid: 400010,
            ..n.clone()
        };
        assert!(!longer_vpid.to_string().starts_with(&n.lineage_prefix()));
        for bad in [
            "/ckpt/no-generation",
            "/ckpt/ckpt_+1_gen2.dmtcp",
            "/ckpt/ckpt_1_gen2.dmtcp.tmp",
            "ckpt_1_gen2.dmtcp",
        ] {
            assert_eq!(ImageName::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn header_roundtrip() {
        let img = sample_image();
        let enc = img.encode_header();
        let (back, used) = CkptImage::decode_header(&enc).unwrap();
        assert_eq!(back, img);
        assert_eq!(used, enc.len());
    }

    #[test]
    fn header_roundtrip_with_trailing_payload() {
        let img = sample_image();
        let mut enc = img.encode_header();
        let hdr_len = enc.len();
        enc.extend_from_slice(&[0xAB; 100]); // payload bytes follow
        let (back, used) = CkptImage::decode_header(&enc).unwrap();
        assert_eq!(back, img);
        assert_eq!(used, hdr_len);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            CkptImage::decode_header(b"NOTANIMG........"),
            Err(HeaderError::BadMagic)
        );
        assert_eq!(CkptImage::decode_header(b""), Err(HeaderError::Truncated));
    }

    #[test]
    fn truncated_header_rejected() {
        let enc = sample_image().encode_header();
        for cut in [8, 9, enc.len() / 2, enc.len() - 1] {
            assert_eq!(
                CkptImage::decode_header(&enc[..cut]),
                Err(HeaderError::Truncated),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn bit_flipped_header_fails_crc() {
        let enc = sample_image().encode_header();
        // Flip one bit in every body byte position in turn; all must be
        // caught by the header CRC (magic/length corruption is caught by the
        // magic check or truncation instead).
        for pos in [10, enc.len() / 2, enc.len() - 5] {
            let mut bad = enc.clone();
            bad[pos] ^= 0x10;
            assert!(
                matches!(
                    CkptImage::decode_header(&bad),
                    Err(HeaderError::BadCrc) | Err(HeaderError::Truncated)
                ),
                "pos {pos}"
            );
        }
    }

    #[test]
    fn size_accounting() {
        let img = sample_image();
        assert_eq!(img.payload_len(), 812 + (200 << 20));
        assert_eq!(img.raw_len(), 4096 + (1 << 30));
    }
}
