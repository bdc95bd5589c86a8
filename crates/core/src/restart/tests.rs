//! `fixup_pid_map` against its clone-and-scan oracle on a restored tree.

use super::{fixup_pid_map, fixup_pid_map_oracle, restored_real};
use crate::session::run_for;
use crate::{ExpectCkpt, Options, RestartPlan, Session};
use oskit::program::{Program, Registry, Step};
use oskit::world::{NodeId, Pid, World};
use oskit::{HwSpec, Kernel};
use simkit::{Nanos, Sim, Snap};
use std::collections::BTreeMap;

const EV: u64 = 5_000_000;

/// Spawns one child of depth `depth - 1` (none at depth 0), then sleeps:
/// depth 2 is a root → middle → leaf chain, every link a traced
/// parent→child pair.
struct TreeNode {
    depth: u8,
    spawned: bool,
}
simkit::impl_snap!(struct TreeNode { depth, spawned });

impl Program for TreeNode {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.depth > 0 && !self.spawned {
            self.spawned = true;
            let child = TreeNode {
                depth: self.depth - 1,
                spawned: false,
            };
            k.spawn_process("tree-node", Box::new(child));
        }
        k.block_forever();
        Step::Block
    }
    fn tag(&self) -> &'static str {
        "tree-node"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// What the fixup reads and writes for one process.
fn pid_state(w: &World, pid: Pid) -> (BTreeMap<u32, u32>, Pid) {
    let p = &w.procs[&pid];
    (p.pid_map.clone(), p.ppid)
}

#[test]
fn fixup_matches_clone_and_scan_oracle_after_restart() {
    let mut reg = Registry::new();
    reg.register_snap::<TreeNode>("tree-node");
    let mut w = World::new(HwSpec::cluster(), 1, reg);
    let mut sim = Sim::new();
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder().ckpt_dir("/shared/ckpt").build(),
    );
    let root = TreeNode {
        depth: 2,
        spawned: false,
    };
    s.launch(&mut w, &mut sim, NodeId(0), "tree-node", Box::new(root));
    run_for(&mut w, &mut sim, Nanos::from_millis(1));
    let stat = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    assert_eq!(stat.participants, 3);
    s.kill_computation(&mut w, &mut sim);
    // Strangers take the next pids, so no restored process gets its old
    // real pid back and every map entry has to be rewritten.
    for _ in 0..3 {
        let idle = TreeNode {
            depth: 0,
            spawned: true,
        };
        w.spawn(
            &mut sim,
            NodeId(0),
            "stranger",
            Box::new(idle),
            Pid(1),
            BTreeMap::new(),
        );
    }
    RestartPlan::from_generation(&w, s.opts.coord_port, stat.gen)
        .expect("generation committed")
        .execute(&s, &mut w, &mut sim)
        .expect("identity restart");
    Session::wait_restart_done(&mut w, &mut sim, stat.gen, EV);

    let restored: Vec<Pid> = w
        .procs
        .iter()
        .filter(|(_, p)| p.alive() && p.cmd == "tree-node")
        .map(|(pid, _)| *pid)
        .collect();
    assert_eq!(restored.len(), 3);
    let real_of = |w: &World, vpid: u32| {
        restored
            .iter()
            .copied()
            .find(|pid| w.procs[pid].virt_pid == Some(vpid))
    };
    // The manager's fixup already ran: each parent's map names its child's
    // new real pid, and each restored child answers to its restored parent.
    let mut links = 0;
    for &pid in &restored {
        for (vpid, real) in &w.procs[&pid].pid_map {
            if let Some(child) = real_of(&w, *vpid).filter(|c| *c != pid) {
                assert_eq!(*real, child.0, "vpid {vpid} maps to its new real pid");
                assert_eq!(w.procs[&child].ppid, pid, "child of {pid:?} re-parented");
                links += 1;
            }
        }
    }
    assert_eq!(links, 2, "root→middle and middle→leaf both rewired");
    assert!(restored
        .iter()
        .any(|pid| w.procs[pid].virt_pid != Some(pid.0)));

    // Vpids of processes none of the three ever knew join the
    // computation-wide map; they must not leak into any pid_map.
    let strangers: Vec<u32> = (0..64).map(|i| 70_000 + i).collect();
    for &v in &strangers {
        restored_real(&mut w).insert(v, 90_000 + v);
    }
    for &pid in &restored {
        let after_restart = pid_state(&w, pid);
        // Replay the fixup from stale pre-fixup state: every known vpid
        // still maps to an old real pid, the process's own vpid is not in
        // its map yet (only a fixup puts it there), and one vpid is known
        // that the computation no longer has (a child that exited before
        // the checkpoint).
        let mut stale = after_restart.0.clone();
        stale.values_mut().for_each(|real| *real = 1);
        let own = w.procs[&pid].virt_pid.expect("restored process has a vpid");
        assert_eq!(stale.remove(&own), Some(1), "a fixup maps the own vpid");
        stale.insert(60_000, 60_001);
        let reset = |w: &mut World| {
            let p = w.procs.get_mut(&pid).unwrap();
            p.pid_map = stale.clone();
            p.ppid = Pid(1);
        };
        reset(&mut w);
        fixup_pid_map(&mut w, pid);
        let fast = pid_state(&w, pid);
        reset(&mut w);
        fixup_pid_map_oracle(&mut w, pid);
        let oracle = pid_state(&w, pid);
        assert_eq!(fast, oracle, "pid {pid:?}");
        assert!(strangers.iter().all(|v| !fast.0.contains_key(v)));
        assert_eq!(fast.0.get(&60_000), Some(&60_001), "unknown vpid untouched");
        let mut expected = after_restart.0.clone();
        expected.insert(60_000, 60_001);
        assert_eq!(fast.0, expected);
    }
}
