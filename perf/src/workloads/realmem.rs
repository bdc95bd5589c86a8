//! `realmem-churn` and `realmem-idle`: four [`RealHog`] processes with 8 MiB
//! of real memory each, forked + compressed checkpoints through `ckptstore`
//! (default `Config`, one replica).
//!
//! The two differ only in what the program dirties between checkpoints and in
//! the recovery operation: churn rewrites >= 90 % of memory and recovers by
//! kill + restart; idle stamps one 64 KiB region, so generations >= 2 take the
//! incremental alias-extent path, and recovers by live-migrating one process
//! to the cluster's empty node through the replica ring.

use super::{cluster, finish_programs, Computation};
use crate::harness::{Recovered, Sys, Tracer, Workload, EV};
use crate::programs::{self, Pool, RealHog};
use dmtcp::coord::GenStat;
use dmtcp::{Options, RestartPlan};
use oskit::world::NodeId;
use simkit::Nanos;
use std::rc::Rc;

const PROCS: u32 = 4;
/// One node more than processes, so a migration always has an empty target.
const NODES: usize = PROCS as usize + 1;

pub struct RealMem {
    c: Computation,
    pool: Rc<Pool>,
    seed: u64,
    churn: bool,
}

impl RealMem {
    pub fn build(seed: u64, churn: bool, t: &mut Tracer) -> RealMem {
        let pool = Rc::new(Pool::generate(seed));
        programs::install_pool(pool.clone());
        let mut sys = cluster(NODES);
        ckptstore::install(&mut sys.w, ckptstore::Config::default());
        let opts = Options::builder().compression(true).forked(true);
        let mut c = Computation::start(sys, opts, t);
        for idx in 0..PROCS {
            let s = &c.s;
            t.call("Session::launch", "core", &mut c.sys, |w, sim| {
                s.launch(
                    w,
                    sim,
                    NodeId(idx),
                    "realhog",
                    Box::new(RealHog::new(idx, seed, churn)),
                )
            });
        }
        c.warm_up(t, Nanos::from_millis(500));
        RealMem {
            c,
            pool,
            seed,
            churn,
        }
    }

    /// Live-migrate process `cycle % PROCS` to the node nothing runs on.
    fn migrate(&mut self, t: &mut Tracer, cycle: u32) -> Result<Recovered, String> {
        let c = &mut self.c;
        let mover = c.vpids[(cycle % PROCS) as usize];
        let occupied: Vec<NodeId> = c
            .sys
            .w
            .procs
            .values()
            .filter(|p| p.alive() && p.virt_pid.is_some())
            .map(|p| p.node)
            .collect();
        let target = (0..NODES as u32)
            .map(NodeId)
            .find(|n| !occupied.contains(n))
            .ok_or("no empty node to migrate to")?;
        let plan = RestartPlan::builder()
            .only_pids([mover])
            .topology([target])
            .build();
        let s = &c.s;
        let report = t
            .call("RestartPlan::migrate", "core", &mut c.sys, |w, sim| {
                plan.migrate(s, w, sim, EV)
            })
            .map_err(|e| e.to_string())?;
        if report.placement != [(target, vec![mover])] {
            return Err(format!(
                "migration of {mover} to {target:?} placed {:?}",
                report.placement
            ));
        }
        c.last_gen = report.gen;
        Ok(Recovered {
            virt: report.pause,
            restored: 1,
            gens: 1,
            written: c.vpids.len() as u32,
            plan_ms: 0.0,
        })
    }
}

impl Workload for RealMem {
    fn sys(&mut self) -> &mut Sys {
        &mut self.c.sys
    }
    fn compressed(&self) -> bool {
        true
    }
    fn checkpoint(&mut self, t: &mut Tracer) -> Result<Vec<GenStat>, String> {
        self.c.checkpoint(t)
    }
    fn recover(&mut self, t: &mut Tracer, cycle: u32) -> Result<Recovered, String> {
        if self.churn {
            self.c.kill_restart(t)
        } else {
            self.migrate(t, cycle)
        }
    }
    fn gap_base(&self) -> Nanos {
        // One program period, so every gap sees at least one rewrite.
        Nanos::from_millis(200)
    }
    fn oracle(&mut self, t: &mut Tracer) -> (u64, Vec<String>) {
        let mut bad = self.c.verify_last(t);
        let (pool, seed, churn) = (self.pool.clone(), self.seed, self.churn);
        bad.extend(finish_programs(t, &mut self.c.sys, PROCS, |idx, ticks| {
            programs::hog_expected(&pool, seed, idx, churn, ticks)
        }));
        (1 + PROCS as u64, bad)
    }
}
