//! `mg-cluster`: NAS/MG under simulated OpenMPI on 8 nodes x 4 ranks (41
//! traced processes with orterun and its daemons), compressed in-line images
//! as plain files on local disk, flat coordinator — the configuration of the
//! paper's Table 1.

use super::{cluster, Computation};
use crate::harness::{Recovered, Sys, Tracer, Workload};
use crate::programs::padded_mg_factory;
use dmtcp::coord::GenStat;
use dmtcp::Options;
use oskit::world::NodeId;
use simkit::Nanos;
use simmpi::launch::{mpirun, Flavor, Launcher, MpiJob};

const NODES: usize = 8;
const WARM_UP: Nanos = Nanos::from_millis(400);
const GAP_BASE: Nanos = Nanos::from_millis(20);
/// One MG iteration is two sweeps of 1.5 ms of compute each, so the job
/// cannot advance faster than this however the protocol changes.
const MIN_ITER: Nanos = Nanos::from_millis(3);
/// Virtual time the ranks may run per operation outside the gap (request to
/// suspend, kill, restart refill to return).
const OP_SLACK: Nanos = Nanos::from_millis(5);

pub struct MgCluster {
    c: Computation,
    iters: u32,
    seed: u64,
}

fn job() -> MpiJob {
    MpiJob {
        flavor: Flavor::OpenMpi,
        nodes: (0..NODES as u32).map(NodeId).collect(),
        procs_per_node: 4,
        base_port: 30_000,
    }
}

impl MgCluster {
    /// `planned_ops` sizes the job: enough iterations that it is still
    /// running when the last operation ends, few enough that the oracle can
    /// afford to let it finish.
    pub fn build(seed: u64, planned_ops: u32, t: &mut Tracer) -> MgCluster {
        let running = WARM_UP.0 + planned_ops as u64 * (GAP_BASE.0 * 7 / 5 + OP_SLACK.0);
        let iters = (running / MIN_ITER.0) as u32 + 1;
        let mut c = Computation::start(cluster(NODES), Options::builder(), t);
        let s = &c.s;
        t.call("mpirun", "simmpi", &mut c.sys, |w, sim| {
            mpirun(
                w,
                sim,
                Launcher::Dmtcp(s),
                &job(),
                padded_mg_factory(seed, iters),
            )
        });
        c.warm_up(t, WARM_UP);
        MgCluster { c, iters, seed }
    }

    /// The answer an uninterrupted run of the same job writes.
    fn reference(&self) -> Option<Vec<u8>> {
        let mut sys = cluster(NODES);
        mpirun(
            &mut sys.w,
            &mut sys.sim,
            Launcher::Raw,
            &job(),
            padded_mg_factory(self.seed, self.iters),
        );
        run_to_result(&mut sys)
    }
}

/// Run until NAS/MG's rank 0 has written its result (bounded: ten virtual
/// minutes past now).
fn run_to_result(sys: &mut Sys) -> Option<Vec<u8>> {
    let path = apps::result_path("nas-MG");
    let mut until = sys.sim.now();
    let deadline = until + Nanos::from_secs(600);
    loop {
        match sys.w.shared_fs.read_all(&path) {
            Ok(bytes) if !bytes.is_empty() => return Some(bytes),
            _ => {}
        }
        if sys.sim.pending() == 0 || until >= deadline {
            return None;
        }
        // Advance by wall-clock slices: `sim.now()` only moves when an event
        // fires, and the next one may be further off than a slice.
        until += Nanos::from_millis(250);
        sys.sim.run_until(&mut sys.w, until);
    }
}

impl Workload for MgCluster {
    fn sys(&mut self) -> &mut Sys {
        &mut self.c.sys
    }
    fn compressed(&self) -> bool {
        true
    }
    fn checkpoint(&mut self, t: &mut Tracer) -> Result<Vec<GenStat>, String> {
        self.c.checkpoint(t)
    }
    fn recover(&mut self, t: &mut Tracer, _cycle: u32) -> Result<Recovered, String> {
        self.c.kill_restart(t)
    }
    fn gap_base(&self) -> Nanos {
        GAP_BASE
    }
    fn oracle(&mut self, t: &mut Tracer) -> (u64, Vec<String>) {
        let mut bad = self.c.verify_last(t);
        if self.c.sys.w.shared_fs.exists(&apps::result_path("nas-MG")) {
            bad.push("NAS/MG finished before the last cycle".to_string());
        }
        let got = run_to_result(&mut self.c.sys);
        if got.is_none() {
            bad.push("NAS/MG never wrote its result".to_string());
        } else if got != self.reference() {
            bad.push("NAS/MG result differs from the uninterrupted run".to_string());
        }
        (3, bad)
    }
}
