//! `scale-relay`: 1024 [`Sleeper`]s round-robin on 64 nodes behind per-node
//! relays (`Topology::Hierarchical`), compression off, plain files. Nothing
//! is compressed, hashed or deduplicated, so what is left is the event queue,
//! the dispatcher, the network model and the coordinator/relay protocol.

use super::{cluster, finish_programs, Computation};
use crate::harness::{Recovered, Sys, Tracer, Workload};
use crate::programs::{self, Sleeper};
use dmtcp::coord::GenStat;
use dmtcp::{Options, Topology};
use oskit::world::NodeId;
use simkit::rng::mix2;
use simkit::Nanos;

const NODES: u32 = 64;
const PROCS: u32 = 1024;

/// 256 KiB of synthetic ballast, plus up to 12 KiB chosen by the seed so
/// image sizes (and virtual write times) are an input, not a constant.
fn ballast(seed: u64, idx: u32) -> u64 {
    (256 << 10) + (mix2(seed ^ 0xba11, idx as u64) % 1536) * 8
}

pub struct ScaleRelay {
    c: Computation,
    seed: u64,
}

impl ScaleRelay {
    pub fn build(seed: u64, t: &mut Tracer) -> ScaleRelay {
        let opts = Options::builder()
            .compression(false)
            .topology(Topology::Hierarchical);
        let mut c = Computation::start(cluster(NODES as usize), opts, t);
        for idx in 0..PROCS {
            let s = &c.s;
            t.call("Session::launch", "core", &mut c.sys, |w, sim| {
                s.launch(
                    w,
                    sim,
                    NodeId(idx % NODES),
                    "sleeper",
                    Box::new(Sleeper::new(idx, seed, ballast(seed, idx))),
                )
            });
        }
        // Let every manager and relay connect and register.
        c.warm_up(t, Nanos::from_millis(200));
        ScaleRelay { c, seed }
    }
}

impl Workload for ScaleRelay {
    fn sys(&mut self) -> &mut Sys {
        &mut self.c.sys
    }
    fn compressed(&self) -> bool {
        false
    }
    fn checkpoint(&mut self, t: &mut Tracer) -> Result<Vec<GenStat>, String> {
        self.c.checkpoint(t)
    }
    fn recover(&mut self, t: &mut Tracer, _cycle: u32) -> Result<Recovered, String> {
        self.c.kill_restart(t)
    }
    fn gap_base(&self) -> Nanos {
        Nanos::from_millis(50)
    }
    fn oracle(&mut self, t: &mut Tracer) -> (u64, Vec<String>) {
        let mut bad = self.c.verify_last(t);
        let seed = self.seed;
        bad.extend(finish_programs(t, &mut self.c.sys, PROCS, |idx, ticks| {
            programs::sleeper_expected(seed, idx, ballast(seed, idx), ticks)
        }));
        (1 + PROCS as u64, bad)
    }
}
