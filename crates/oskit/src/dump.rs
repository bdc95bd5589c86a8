//! Structured substrate state dumps.
//!
//! `dmtcp replay` (crates/core) seeks a re-executed run to a chosen virtual
//! time — typically a fault-matrix cell's moment of death — and then needs
//! to show *everything the kernel knows*: processes with their address
//! spaces and fd tables, connections with their kernel buffers and
//! in-flight bytes, listeners, ptys, and the open-file table. This module
//! renders that as one JSON document via the hand-rolled writer in `obs`
//! (the workspace has no serde), so the dump can be embedded verbatim in a
//! replay snapshot next to coordinator/relay barrier state.

use crate::fdtable::FdObject;
use crate::mem::RegionKind;
use crate::net::Watch;
use crate::proc::{ProcState, ThreadState};
use crate::world::World;
use obs::json::JsonWriter;
use simkit::Nanos;

fn fd_object_name(obj: &FdObject) -> String {
    match obj {
        FdObject::File(id) => format!("file:{}", id.0),
        FdObject::Sock(cid, end) => format!("sock:{}/{}", cid.0, end),
        FdObject::Listener(id) => format!("listener:{}", id.0),
        FdObject::PtyMaster(id) => format!("pty-master:{}", id.0),
        FdObject::PtySlave(id) => format!("pty-slave:{}", id.0),
    }
}

/// One readiness watcher slot: the watching thread and its token, or `null`.
fn watch_value(j: &mut JsonWriter, w: &Option<Watch>) {
    match w {
        Some(w) => {
            j.obj_begin();
            j.field_u64("pid", w.who.0 .0 as u64);
            j.field_u64("tid", w.who.1 .0 as u64);
            j.field_u64("token", w.token);
            j.obj_end();
        }
        None => {
            j.val_raw("null");
        }
    }
}

/// Render the full kernel object model of `w` at virtual time `now` as one
/// JSON document.
pub fn dump_json(w: &World, now: Nanos) -> String {
    let mut j = JsonWriter::new();
    j.obj_begin();
    j.field_u64("at", now.0);

    j.key("nodes").arr_begin();
    for node in &w.nodes {
        j.obj_begin();
        j.field_u64("id", node.id.0 as u64);
        j.field_str("hostname", &node.hostname);
        j.field_u64(
            "procs",
            w.procs.values().filter(|p| p.node == node.id).count() as u64,
        );
        j.obj_end();
    }
    j.arr_end();

    j.key("procs").arr_begin();
    for p in w.procs.values() {
        j.obj_begin();
        j.field_u64("pid", p.pid.0 as u64);
        j.field_u64("ppid", p.ppid.0 as u64);
        j.field_u64("node", p.node.0 as u64);
        j.field_str("cmd", &p.cmd);
        match p.state {
            ProcState::Running => j.field_str("state", "running"),
            ProcState::Zombie(code) => j.field_str("state", &format!("zombie({code})")),
        };
        j.key("user_suspended");
        j.val_bool(p.user_suspended);
        if let Some(v) = p.virt_pid {
            j.field_u64("virt_pid", v as u64);
        }
        j.key("threads").arr_begin();
        for t in &p.threads {
            j.obj_begin();
            j.field_u64("tid", t.tid.0 as u64);
            j.field_str(
                "state",
                match t.state {
                    ThreadState::Runnable => "runnable",
                    ThreadState::Blocked => "blocked",
                    ThreadState::Exited => "exited",
                },
            );
            j.key("user");
            j.val_bool(t.user);
            j.field_str("program", t.program.tag());
            j.key("ready").arr_begin();
            for token in &t.ready {
                j.val_u64(*token);
            }
            j.arr_end();
            j.obj_end();
        }
        j.arr_end();
        j.key("mem").obj_begin();
        j.field_u64("regions", p.mem.region_count() as u64);
        j.field_u64("bytes", p.mem.total_bytes());
        j.key("maps").arr_begin();
        for (_, r) in p.mem.iter() {
            j.obj_begin();
            j.field_str("addr", &format!("{:012x}", r.start));
            j.field_str("name", &r.name);
            j.field_str(
                "kind",
                match &r.kind {
                    RegionKind::Lib => "lib",
                    RegionKind::Heap => "heap",
                    RegionKind::Anon => "anon",
                    RegionKind::Shm { .. } => "shm",
                },
            );
            if let RegionKind::Shm { backing } = &r.kind {
                j.field_str("backing", backing);
            }
            j.field_u64("prot", r.prot as u64);
            j.field_u64("bytes", r.len());
            j.field_str("digest", &format!("{:016x}", r.content.digest()));
            j.obj_end();
        }
        j.arr_end();
        j.obj_end();
        j.key("fds").arr_begin();
        for (fd, entry) in p.fds.iter() {
            j.obj_begin();
            j.field_u64("fd", fd as u64);
            j.field_str("obj", &fd_object_name(&entry.obj));
            j.key("cloexec");
            j.val_bool(entry.cloexec);
            j.obj_end();
        }
        j.arr_end();
        j.obj_end();
    }
    j.arr_end();

    j.key("conns").arr_begin();
    for c in w.conns.values() {
        j.obj_begin();
        j.field_u64("id", c.id.0);
        j.field_str("kind", &format!("{:?}", c.kind).to_lowercase());
        j.key("nodes").arr_begin();
        j.val_u64(c.node[0].0 as u64).val_u64(c.node[1].0 as u64);
        j.arr_end();
        j.key("dirs").arr_begin();
        for d in &c.dirs {
            j.obj_begin();
            j.field_u64("in_flight", d.in_flight);
            j.field_u64("recv_buf", d.recv_buf.len() as u64);
            j.field_u64("tx_total", d.tx_total);
            j.field_u64("rx_total", d.rx_total);
            j.obj_end();
        }
        j.arr_end();
        j.key("end_refs").arr_begin();
        j.val_u64(c.end_refs[0] as u64)
            .val_u64(c.end_refs[1] as u64);
        j.arr_end();
        j.key("closed").arr_begin();
        j.val_bool(c.closed[0]).val_bool(c.closed[1]);
        j.arr_end();
        j.key("watchers").arr_begin();
        watch_value(&mut j, &c.watchers[0]);
        watch_value(&mut j, &c.watchers[1]);
        j.arr_end();
        j.obj_end();
    }
    j.arr_end();

    j.key("listeners").arr_begin();
    for l in w.listeners.values() {
        j.obj_begin();
        j.field_u64("id", l.id.0);
        j.field_u64("node", l.node.0 as u64);
        j.field_u64("port", l.port as u64);
        j.field_u64("backlog", l.backlog.len() as u64);
        j.field_u64("refs", l.refs as u64);
        j.key("watcher");
        watch_value(&mut j, &l.watcher);
        j.obj_end();
    }
    j.arr_end();

    j.key("ptys").arr_begin();
    for p in w.ptys.values() {
        j.obj_begin();
        j.field_u64("id", p.id.0 as u64);
        j.field_u64("to_slave", p.to_slave.len() as u64);
        j.field_u64("to_master", p.to_master.len() as u64);
        j.field_u64("master_refs", p.master_refs as u64);
        j.field_u64("slave_refs", p.slave_refs as u64);
        if let Some(pid) = p.controlling_pid {
            j.field_u64("controlling_pid", pid.0 as u64);
        }
        j.obj_end();
    }
    j.arr_end();

    j.key("open_files").arr_begin();
    for (id, f) in &w.open_files {
        j.obj_begin();
        j.field_u64("id", id.0);
        j.field_str("path", &f.path);
        j.field_u64("offset", f.offset);
        j.key("writable");
        j.val_bool(f.writable);
        j.field_u64("refs", f.refs as u64);
        j.obj_end();
    }
    j.arr_end();

    j.obj_end();
    j.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Program, Registry, Step};
    use crate::spec::HwSpec;
    use crate::Kernel;

    struct Idle;
    impl Program for Idle {
        fn tag(&self) -> &'static str {
            "idle"
        }
        fn step(&mut self, _k: &mut Kernel<'_>) -> Step {
            Step::Sleep(Nanos::from_secs(1))
        }
        fn save(&self) -> Vec<u8> {
            Vec::new()
        }
    }

    #[test]
    fn dump_is_valid_json_and_names_processes() {
        let mut w = World::new(HwSpec::default(), 1, Registry::new());
        let mut sim = crate::world::OsSim::new();
        let pid = w.spawn(
            &mut sim,
            crate::world::NodeId(0),
            "idle",
            Box::new(Idle),
            crate::world::Pid(1),
            std::collections::BTreeMap::new(),
        );
        let dump = dump_json(&w, sim.now());
        obs::json::validate(&dump).unwrap();
        assert!(dump.contains("\"hostname\":\"node00\""));
        assert!(dump.contains(&format!("\"pid\":{}", pid.0)));
        assert!(dump.contains("\"maps\""));
    }
}
