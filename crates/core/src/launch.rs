//! `dmtcp_checkpoint` — launching programs under DMTCP.
//!
//! The real launcher injects `dmtcphijack.so` via `LD_PRELOAD` and spawns
//! the coordinator on first use; wrappers around `fork`/`exec`/`ssh`
//! propagate the injection to every descendant. Here the injection is a
//! kernel spawn hook: any process created with `DMTCP_COORD_*` in its
//! environment (inherited exactly like `LD_PRELOAD` would be) gets a
//! [`Hijack`] state and a checkpoint-manager thread, plus pid
//! virtualization with the conflict-detecting fork of §4.5.

use crate::coord::{Coordinator, COORD_PORT};
use crate::gsid::global;
use crate::hijack::Hijack;
use crate::manager::{Manager, Mode};
use crate::proto;
use mtcp::WriteMode;
use oskit::program::Program;
use oskit::world::{NodeId, OsSim, Pid, World};
use simkit::Nanos;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Environment keys carrying the injection (the `LD_PRELOAD` analogue).
pub const ENV_COORD_HOST: &str = "DMTCP_COORD_HOST";
/// Coordinator port environment key.
pub const ENV_COORD_PORT: &str = "DMTCP_COORD_PORT";
/// Checkpoint directory environment key.
pub const ENV_CKPT_DIR: &str = "DMTCP_CHECKPOINT_DIR";
/// Compression toggle environment key (`0` disables, as `DMTCP_GZIP=0`).
pub const ENV_GZIP: &str = "DMTCP_GZIP";
/// Forked-checkpointing toggle environment key.
pub const ENV_FORKED: &str = "DMTCP_FORKED_CKPT";
/// Marker telling the spawn hook to leave a process alone because
/// `dmtcp_restart` installs its state manually.
pub const ENV_RESTART_CHILD: &str = "DMTCP_RESTART_CHILD";
/// Root-coordinator port environment key. Only differs from
/// [`ENV_COORD_PORT`] under the hierarchical topology, where the
/// `DMTCP_COORD_*` pair points at the per-node relay; this names the root
/// the relay fronts (and thereby which coordinator's shared state records
/// this process's images).
pub const ENV_ROOT_PORT: &str = "DMTCP_ROOT_PORT";

/// Durability policy for freshly written images (§5.2: results in the
/// paper do not sync; the cost of syncing is reported separately, and an
/// alternative is to sync the *previous* checkpoint instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncMode {
    /// Rely on the kernel's writeback (the paper's timing methodology).
    #[default]
    None,
    /// `sync` after writing, before resuming user threads (+0.79 s mean
    /// for ParGeant4 in the paper).
    AfterCheckpoint,
    /// Sync the *previous* generation's image instead: every checkpoint
    /// except the newest is guaranteed durable without waiting for disk
    /// in the common case.
    Previous,
}

/// Environment key carrying the sync mode.
pub const ENV_SYNC: &str = "DMTCP_SYNC";

/// Coordinator topology: how managers reach the root coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// Every manager registers directly with the root (the paper's star;
    /// protocol work at the root is O(processes) per barrier stage).
    #[default]
    Flat,
    /// A per-node relay ([`crate::relay::Relay`]) aggregates all local
    /// managers and speaks to the root as one client: root work drops to
    /// O(nodes) per stage.
    Hierarchical,
}

/// Launch options (the `dmtcp_checkpoint` command line).
///
/// Construct with [`Options::builder`]; `Options::default()` keeps
/// working for the all-defaults case. The fields stay public so existing
/// readers (and `..Options::default()` update syntax inside this crate)
/// continue to compile, but new call sites should go through the builder —
/// it absorbs future knobs without breaking anyone.
#[derive(Debug, Clone)]
pub struct Options {
    /// Coordinator node.
    pub coord_node: NodeId,
    /// Coordinator port.
    pub coord_port: u16,
    /// Where images are written (`--ckptdir`). May be `/shared/...`.
    pub ckpt_dir: String,
    /// gzip the images (DMTCP's default: on).
    pub compression: bool,
    /// Forked checkpointing (experimental in the paper): each process *may*
    /// fork for a checkpoint, and does whenever the fork stops it for less
    /// time than writing the image in-line would
    /// ([`mtcp::write_checkpoint`]). Carried in the environment, so it holds
    /// after a restart as it did at launch.
    pub forked: bool,
    /// `--interval`: periodic checkpoints.
    pub interval: Option<Nanos>,
    /// Image durability policy.
    pub sync: SyncMode,
    /// Coordinator topology (flat star vs per-node relays).
    pub topology: Topology,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            coord_node: NodeId(0),
            coord_port: COORD_PORT,
            ckpt_dir: "/ckpt".into(),
            compression: true,
            forked: false,
            interval: None,
            sync: SyncMode::None,
            topology: Topology::Flat,
        }
    }
}

impl Options {
    /// A builder starting from [`Options::default`].
    pub fn builder() -> OptionsBuilder {
        OptionsBuilder {
            opts: Options::default(),
        }
    }
}

/// Builder for [`Options`]. Every setter has the default documented on the
/// corresponding field; unset knobs keep it.
#[derive(Debug, Clone)]
pub struct OptionsBuilder {
    opts: Options,
}

impl OptionsBuilder {
    /// Coordinator node (default `NodeId(0)`).
    pub fn coord(mut self, node: NodeId) -> Self {
        self.opts.coord_node = node;
        self
    }

    /// Coordinator port (default [`COORD_PORT`]).
    pub fn coord_port(mut self, port: u16) -> Self {
        self.opts.coord_port = port;
        self
    }

    /// Checkpoint directory (default `/ckpt`).
    pub fn ckpt_dir(mut self, dir: impl Into<String>) -> Self {
        self.opts.ckpt_dir = dir.into();
        self
    }

    /// Image compression (default on).
    pub fn compression(mut self, on: bool) -> Self {
        self.opts.compression = on;
        self
    }

    /// Forked (copy-on-write) checkpointing, wherever forking pays
    /// (default off).
    pub fn forked(mut self, on: bool) -> Self {
        self.opts.forked = on;
        self
    }

    /// Periodic checkpoint interval (default none).
    pub fn interval(mut self, iv: Nanos) -> Self {
        self.opts.interval = Some(iv);
        self
    }

    /// Image durability policy (default [`SyncMode::None`]).
    pub fn sync(mut self, mode: SyncMode) -> Self {
        self.opts.sync = mode;
        self
    }

    /// Coordinator topology (default [`Topology::Flat`]).
    pub fn topology(mut self, t: Topology) -> Self {
        self.opts.topology = t;
        self
    }

    /// Finish, yielding the configured [`Options`].
    pub fn build(self) -> Options {
        self.opts
    }
}

/// Decode the injected `DMTCP_*` environment — what [`launch_under_dmtcp`]
/// encodes — into the per-process state of virtual pid `vpid`. The one
/// decoder: the spawn hook runs it on a new process's environment, restart
/// on the environment saved in the image.
pub(crate) fn hijack_from_env(vpid: u32, env: &BTreeMap<String, String>) -> Hijack {
    let coord_port: u16 = env[ENV_COORD_PORT].parse().expect("valid port in env");
    let compression = env.get(ENV_GZIP).map(|v| v != "0").unwrap_or(true);
    let forked = env.get(ENV_FORKED).map(|v| v == "1").unwrap_or(false);
    Hijack {
        vpid,
        coord_host: env[ENV_COORD_HOST].clone(),
        coord_port,
        root_port: env
            .get(ENV_ROOT_PORT)
            .map_or(coord_port, |v| v.parse().expect("valid root port in env")),
        ckpt_dir: env
            .get(ENV_CKPT_DIR)
            .cloned()
            .unwrap_or_else(|| "/ckpt".to_string()),
        mode: match (compression, forked) {
            (_, true) => WriteMode::ForkedCompressed,
            (true, false) => WriteMode::Compressed,
            (false, false) => WriteMode::Uncompressed,
        },
        sync: match env.get(ENV_SYNC).map(|s| s.as_str()) {
            Some("after") => SyncMode::AfterCheckpoint,
            Some("previous") => SyncMode::Previous,
            _ => SyncMode::None,
        },
        gen: 0,
        restarts: 0,
        aware: Default::default(),
        drained: Vec::new(),
        table: Default::default(),
        restart_partial: None,
    }
}

/// Install the DMTCP spawn hook into a world (idempotent). Every process
/// whose environment carries the coordinator address is hijacked at
/// creation — including children created by `fork`, `exec` and `ssh`,
/// because the environment is inherited through all three.
pub fn install_hook(w: &mut World) {
    if w.spawn_hook.is_some() {
        return;
    }
    install_msg_tagger(w);
    w.spawn_hook = Some(Rc::new(|w: &mut World, sim: &mut OsSim, pid: Pid| {
        hijack_new_process(w, sim, pid)
    }));
}

/// Teach the flight recorder to label protocol payloads: a transmitted
/// chunk that is exactly one framed [`proto::Msg`] journals as its variant
/// name; anything else (drain tokens, application bytes, partial frames)
/// stays unlabeled. `obs` knows nothing about the wire format, so the
/// checkpoint layer installs this decoder.
pub fn install_msg_tagger(w: &mut World) {
    w.obs.journal.set_msg_tagger(|bytes| {
        let mut fb = proto::FrameBuf::new();
        fb.feed(bytes);
        match fb.pop() {
            Ok(Some(msg)) if fb.pending() == 0 => Some(proto::msg_name(&msg).to_string()),
            _ => None,
        }
    });
}

fn hijack_new_process(w: &mut World, sim: &mut OsSim, pid: Pid) -> Pid {
    let Some(p) = w.procs.get(&pid) else {
        return pid;
    };
    if !p.env.contains_key(ENV_COORD_HOST) || p.env.contains_key(ENV_RESTART_CHILD) {
        return pid;
    }
    if p.ext.is_some() {
        // exec re-runs the hook; the state survives exec (DMTCP re-injects
        // and reconnects, but keeps the same vpid).
        return pid;
    }
    // ---- Conflict-detecting fork wrapper (§4.5): if the kernel handed us
    // a pid that collides with a virtual pid that may still come back (a
    // live traced process, or one captured in a checkpoint image), the
    // wrapper terminates the child and forks again. ----
    let mut pid = pid;
    loop {
        let conflict = {
            // Live traced vpids (excluding the fresh process itself).
            let live_conflict = w
                .procs
                .iter()
                .any(|(other, p)| *other != pid && p.alive() && p.virt_pid == Some(pid.0));
            live_conflict || global(w).checkpointed_vpids.contains(&pid.0)
        };
        if !conflict {
            break;
        }
        global(w).fork_retries += 1;
        pid = w.rekey_pid(pid);
    }
    // Close any fork-inherited copies of DMTCP's own protected connections
    // (the parent's manager ↔ coordinator socket): the child gets its own.
    let protected: Vec<oskit::fdtable::Fd> = {
        let g = global(w);
        let prot = g.protected_conns.clone();
        w.procs[&pid]
            .fds
            .iter()
            .filter(|(_, e)| matches!(e.obj, oskit::fdtable::FdObject::Sock(cid, _) if prot.contains(&cid)))
            .map(|(fd, _)| fd)
            .collect()
    };
    for fd in protected {
        if let Some(entry) = w
            .procs
            .get_mut(&pid)
            .expect("process exists")
            .fds
            .remove(fd)
        {
            w.release_obj(sim, entry.obj);
        }
    }

    let vpid = pid.0;
    global(w).session_vpids.insert(vpid);
    let p = w.procs.get_mut(&pid).expect("process exists");
    p.ext = Some(Box::new(hijack_from_env(vpid, &p.env)));
    p.virt_pid = Some(vpid);
    p.pid_map.insert(vpid, pid.0);
    let tid = p.add_thread(Box::new(Manager::new(Mode::Steady)), false);
    w.schedule_dispatch(sim, pid, tid);
    pid
}

/// Spawn the coordinator process on `opts.coord_node` (the first
/// `dmtcp_checkpoint` invocation does this automatically).
pub fn spawn_coordinator(w: &mut World, sim: &mut OsSim, opts: &Options) -> Pid {
    // The coordinator itself must NOT be traced: no DMTCP_* env.
    w.spawn(
        sim,
        opts.coord_node,
        "dmtcp_coordinator",
        Box::new(Coordinator::new(opts.coord_port, opts.interval)),
        Pid(1),
        BTreeMap::new(),
    )
}

/// The relay listening port serving the root coordinator on `root_port`.
/// Always `root_port + 1`, which keeps the historical default pairing
/// (root 7779 → relay 7780) and gives every dmtcpd shard a collision-free
/// relay as long as shard root ports are spaced at least 2 apart.
pub fn relay_port_for(root_port: u16) -> u16 {
    root_port + 1
}

/// World registry of spawned per-node relays, keyed by (node, root port):
/// one relay per node *per shard*, so tenants on different shards sharing
/// a node each get an aggregation point for their own root.
#[derive(Default)]
struct RelayPids(BTreeMap<(NodeId, u16), Pid>);

/// Ensure a relay for `opts.coord_port`'s root is running on `node`,
/// spawning one if needed. Like the coordinator, relays are control plane:
/// spawned with an empty environment so they are never traced, and they
/// survive `Session::kill_computation`.
pub fn ensure_relay(w: &mut World, sim: &mut OsSim, node: NodeId, opts: &Options) -> Pid {
    let key = (node, opts.coord_port);
    if let Some(pid) = w.ext::<RelayPids>().0.get(&key).copied() {
        if w.procs.get(&pid).map(|p| p.alive()).unwrap_or(false) {
            return pid;
        }
    }
    let root_host = w.node(opts.coord_node).hostname.clone();
    let pid = w.spawn(
        sim,
        node,
        "dmtcp_relay",
        Box::new(crate::relay::Relay::new(
            relay_port_for(opts.coord_port),
            root_host,
            opts.coord_port,
        )),
        Pid(1),
        BTreeMap::new(),
    );
    faultkit::note_relay(w, pid, node);
    w.ext::<RelayPids>().0.insert(key, pid);
    pid
}

/// `dmtcp_checkpoint <program>`: start `prog` on `node` under DMTCP.
///
/// Installs the spawn hook, ensures the checkpoint directory exists, and
/// spawns the process with the injection environment. The coordinator must
/// already be running (see [`spawn_coordinator`] / [`crate::Session`]).
/// Under [`Topology::Hierarchical`] the process is pointed at its node's
/// relay (spawned on demand) instead of the root coordinator.
pub fn launch_under_dmtcp(
    w: &mut World,
    sim: &mut OsSim,
    node: NodeId,
    cmd: &str,
    prog: Box<dyn Program>,
    opts: &Options,
) -> Pid {
    install_hook(w);
    let (coord_host, coord_port) = match opts.topology {
        Topology::Flat => (w.node(opts.coord_node).hostname.clone(), opts.coord_port),
        Topology::Hierarchical => {
            ensure_relay(w, sim, node, opts);
            (
                w.node(node).hostname.clone(),
                relay_port_for(opts.coord_port),
            )
        }
    };
    let mut env = BTreeMap::new();
    env.insert(ENV_COORD_HOST.to_string(), coord_host);
    env.insert(ENV_COORD_PORT.to_string(), coord_port.to_string());
    env.insert(ENV_ROOT_PORT.to_string(), opts.coord_port.to_string());
    env.insert(ENV_CKPT_DIR.to_string(), opts.ckpt_dir.clone());
    env.insert(
        ENV_GZIP.to_string(),
        if opts.compression { "1" } else { "0" }.to_string(),
    );
    env.insert(
        ENV_FORKED.to_string(),
        if opts.forked { "1" } else { "0" }.to_string(),
    );
    env.insert(
        ENV_SYNC.to_string(),
        match opts.sync {
            SyncMode::None => "none",
            SyncMode::AfterCheckpoint => "after",
            SyncMode::Previous => "previous",
        }
        .to_string(),
    );
    w.spawn(sim, node, cmd, prog, Pid(1), env)
}
