//! The generation catalog: which images make up committed generation *g*.
//!
//! One small record per committed generation sits on shared storage beside
//! the restart script, keyed by the root coordinator's port. Writing record
//! *g* **is** the commit of generation *g*: the coordinator does it when
//! `CKPT_WRITTEN` releases and at no other time, and before it requests
//! generation *g* it discards every record ≥ *g* — after a rollback those
//! generations' image files are about to be overwritten, so a record never
//! describes files in flux. Restart reads record *g* for exactly the
//! processes and hosts of generation *g*; nothing is inferred from file
//! names or from the newest generation. This module is the only code that
//! knows the record format or where records live.

use crate::session::RestartError;
use mtcp::ImageName;
use oskit::world::World;
use simkit::{impl_snap, Snap};

/// One committed generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenRecord {
    /// Generation number.
    pub gen: u64,
    /// `(writing host, checkpoint directory, virtual pid)` of every image,
    /// hosts in name order — the order restart reads and places them in.
    /// Paths are derived ([`GenRecord::paths`]), not stored: a long-lived
    /// service commits thousands of generations per process lifetime.
    pub images: Vec<(String, String, u32)>,
}

impl_snap!(struct GenRecord { gen, images });

impl GenRecord {
    /// The file form: snap body, then its CRC-32 little-endian.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.to_snap_bytes();
        let crc = szip::crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Check and parse the file form; `Err` says what is wrong with it.
    pub fn decode(bytes: &[u8]) -> Result<GenRecord, String> {
        let Some((body, crc)) = bytes.split_last_chunk::<4>() else {
            return Err("record truncated".into());
        };
        if szip::crc32(body) != u32::from_le_bytes(*crc) {
            return Err("record CRC mismatch".into());
        }
        GenRecord::from_snap_bytes(body).map_err(|e| format!("malformed record: {e}"))
    }

    /// Each image's writing host and path, in record order.
    pub fn paths(&self) -> impl Iterator<Item = (&str, String)> + '_ {
        self.images.iter().map(|(host, dir, vpid)| {
            let (dir, vpid, gen) = (dir.clone(), *vpid, self.gen);
            (host.as_str(), ImageName { dir, vpid, gen }.to_string())
        })
    }
}

fn dir(port: u16) -> String {
    format!("/shared/dmtcp_catalog_{port}/")
}

/// Shared-storage path of generation `gen`'s record for the computation
/// rooted at `port`.
pub fn record_path(port: u16, gen: u64) -> String {
    format!("{}{gen}", dir(port))
}

/// The generations that have a record, ascending.
pub fn generations(w: &World, port: u16) -> Vec<u64> {
    let dir = dir(port);
    let names = w.shared_fs.list_prefix(&dir);
    let mut gens: Vec<u64> = names.filter_map(|p| p[dir.len()..].parse().ok()).collect();
    gens.sort_unstable();
    gens
}

/// Read generation `gen`'s record: [`RestartError::NoScript`] when nothing
/// ever committed, [`RestartError::MissingGeneration`] when other
/// generations did but not this one, [`RestartError::BadRecord`] when the
/// file is there and cannot be trusted.
pub fn read(w: &World, port: u16, gen: u64) -> Result<GenRecord, RestartError> {
    let path = record_path(port, gen);
    let Ok(bytes) = w.shared_fs.read_all(&path) else {
        return Err(if generations(w, port).is_empty() {
            RestartError::NoScript
        } else {
            RestartError::MissingGeneration { gen }
        });
    };
    let reason = match GenRecord::decode(&bytes) {
        Ok(rec) if rec.gen == gen => return Ok(rec),
        Ok(rec) => format!("record names generation {}", rec.gen),
        Err(reason) => reason,
    };
    Err(RestartError::BadRecord { path, reason })
}

/// Commit `rec` (see the module docs) and render it as the paper's restart
/// script (§3) — for people; nothing reads the script back.
pub(crate) fn commit(w: &mut World, port: u16, rec: &GenRecord) {
    let mut script = String::from("#!/bin/sh\n# generated by dmtcp_coordinator");
    let mut cur = "";
    for (host, path) in rec.paths() {
        if host != cur {
            script.push_str(&format!("\nssh {host} dmtcp_restart"));
            cur = host;
        }
        script.push_str(&format!(" {path}"));
    }
    script.push('\n');
    let script_path = crate::coord::restart_script_path(port);
    let fs = &mut w.shared_fs;
    fs.write_all(&record_path(port, rec.gen), &rec.encode())
        .expect("shared fs writable");
    fs.write_all(&script_path, script.as_bytes())
        .expect("shared fs writable");
    // The chunk store expires images (retention); a record naming an
    // expired image cannot restore the generation it describes and a
    // service commits without end, so drop each record any image of which
    // no node holds a manifest for — any, not the first: a process that
    // checkpointed once and exited never expires its own image, and would
    // keep alive every record it heads. Plain-file images are never
    // deleted, so without the store every record stays usable and stays.
    if ckptstore::enabled(w) {
        for g in generations(w, port) {
            let expired = read(w, port, g)
                .is_ok_and(|r| r.paths().any(|(_, p)| !ckptstore::holds_manifest(w, &p)));
            if expired {
                w.shared_fs.remove(&record_path(port, g)).ok();
            }
        }
    }
}

/// Forget every record ≥ `gen`, before generation `gen` is requested.
pub(crate) fn discard_from(w: &mut World, port: u16, gen: u64) {
    for g in generations(w, port).into_iter().filter(|g| *g >= gen) {
        w.shared_fs.remove(&record_path(port, g)).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit::program::Registry;
    use oskit::HwSpec;

    /// Golden restart script for a two-host record, as `commit` writes it:
    /// one `ssh` line per host, its images in record order.
    #[test]
    fn commit_writes_the_restart_script_of_a_two_host_record() {
        let mut w = World::new(HwSpec::cluster(), 2, Registry::new());
        let rec = GenRecord {
            gen: 3,
            images: vec![
                ("node00".into(), "/shared/ckpt".into(), 40),
                ("node00".into(), "/shared/ckpt".into(), 41),
                ("node01".into(), "/local/ckpt".into(), 57),
            ],
        };
        let port = crate::coord::COORD_PORT;
        commit(&mut w, port, &rec);
        let script = w
            .shared_fs
            .read_all(&crate::coord::restart_script_path(port))
            .expect("script written");
        assert_eq!(
            String::from_utf8(script).unwrap(),
            "#!/bin/sh\n\
             # generated by dmtcp_coordinator\n\
             ssh node00 dmtcp_restart /shared/ckpt/ckpt_40_gen3.dmtcp /shared/ckpt/ckpt_41_gen3.dmtcp\n\
             ssh node01 dmtcp_restart /local/ckpt/ckpt_57_gen3.dmtcp\n"
        );
        assert_eq!(read(&w, port, 3), Ok(rec), "the record is the commit");
    }
}
