//! Globally unique connection ids and the world-attached DMTCP side table.
//!
//! The paper refers to sockets by a globally unique ID `(hostid, pid,
//! timestamp, per-process connection number)` so duplicates can be detected
//! at restart (§4.4). We reproduce that as a [`Gsid`] assigned by the
//! wrapper layer the first time it sees a connection, held in a singleton
//! attached to the world — the model of the union of every process's
//! wrapper-recorded state (each process records ids for its own fds at
//! creation; peers learn each other's during the drain handshake).

use oskit::net::ConnId;
use oskit::pty::PtyId;
use oskit::world::World;
use std::collections::BTreeMap;

/// Globally unique connection/pty id, stable across checkpoint and restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Gsid(pub u64);

impl simkit::Snap for Gsid {
    fn save(&self, w: &mut simkit::SnapWriter) {
        w.put_varint(self.0);
    }
    fn load(r: &mut simkit::SnapReader<'_>) -> Result<Self, simkit::SnapError> {
        Ok(Gsid(r.get_varint()?))
    }
}

/// World-attached DMTCP bookkeeping shared by the wrapper layer in every
/// traced process.
#[derive(Debug, Default)]
pub struct DmtcpGlobal {
    /// Wrapper-recorded id per live kernel connection.
    pub conn_gsid: BTreeMap<ConnId, Gsid>,
    /// Wrapper-recorded id per live pty.
    pub pty_gsid: BTreeMap<PtyId, Gsid>,
    /// All virtual pids ever issued in this session (drives the fork
    /// wrapper's conflict detection).
    pub session_vpids: std::collections::BTreeSet<u32>,
    /// Virtual pids captured in a checkpoint image — these may come back
    /// at restart even if their process is currently dead, so the fork
    /// wrapper must avoid re-issuing them.
    pub checkpointed_vpids: std::collections::BTreeSet<u32>,
    /// Connections belonging to the DMTCP infrastructure itself (manager ↔
    /// coordinator). The real DMTCP keeps these on *protected fds* that are
    /// excluded from checkpointing and closed in forked children.
    pub protected_conns: std::collections::BTreeSet<ConnId>,
    /// How many times the fork wrapper had to re-fork due to a pid
    /// conflict (observable in tests).
    pub fork_retries: u64,
    next_gsid: u64,
}

impl DmtcpGlobal {
    /// Allocate a fresh gsid.
    pub fn alloc(&mut self) -> Gsid {
        self.next_gsid += 1;
        Gsid(self.next_gsid)
    }

    /// Gsid for a connection, assigning one on first sight.
    pub fn conn(&mut self, id: ConnId) -> Gsid {
        if let Some(g) = self.conn_gsid.get(&id) {
            return *g;
        }
        let g = self.alloc();
        self.conn_gsid.insert(id, g);
        g
    }

    /// Gsid for a pty, assigning one on first sight.
    pub fn pty(&mut self, id: PtyId) -> Gsid {
        if let Some(g) = self.pty_gsid.get(&id) {
            return *g;
        }
        let g = self.alloc();
        self.pty_gsid.insert(id, g);
        g
    }

    /// Bind a restored kernel connection to its pre-restart gsid.
    pub fn bind_conn(&mut self, id: ConnId, gsid: Gsid) {
        self.conn_gsid.insert(id, gsid);
        self.next_gsid = self.next_gsid.max(gsid.0);
    }

    /// Bind a restored pty to its pre-restart gsid.
    pub fn bind_pty(&mut self, id: PtyId, gsid: Gsid) {
        self.pty_gsid.insert(id, gsid);
        self.next_gsid = self.next_gsid.max(gsid.0);
    }
}

/// Access (creating on first use) the world's DMTCP singleton, kept in the
/// world's extension store so it outlives any single process.
pub fn global(w: &mut World) -> &mut DmtcpGlobal {
    w.ext()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit::program::Registry;
    use oskit::HwSpec;

    #[test]
    fn gsids_are_stable_per_object_and_unique_across_objects() {
        let mut w = World::new(HwSpec::default(), 1, Registry::new());
        let g = global(&mut w);
        let a = g.conn(ConnId(10));
        let b = g.conn(ConnId(11));
        assert_ne!(a, b);
        assert_eq!(global(&mut w).conn(ConnId(10)), a, "stable on re-query");
        let p = global(&mut w).pty(PtyId(0));
        assert_ne!(p, a);
        assert_ne!(p, b);
    }

    #[test]
    fn bind_preserves_restored_ids_and_avoids_collisions() {
        let mut w = World::new(HwSpec::default(), 1, Registry::new());
        global(&mut w).bind_conn(ConnId(5), Gsid(100));
        assert_eq!(global(&mut w).conn(ConnId(5)), Gsid(100));
        // Fresh allocations must not collide with the restored id space.
        let fresh = global(&mut w).conn(ConnId(6));
        assert!(fresh.0 > 100, "fresh gsid {fresh:?} collides");
    }
}
