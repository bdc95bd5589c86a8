//! The five workloads and the operations they share.
//!
//! [`build`] is one *set-up*: seeded inputs, world, launch, warm-up to steady
//! state, then generation 1 and one recovery — the cold path that arms dirty
//! tracking and fills caches — so the measured phase sees only steady-state
//! operations.

mod mg;
mod realmem;
mod scale;
mod tenants;

use crate::harness::{Recovered, Sys, Tracer, Workload, EV};
use crate::programs;
use dmtcp::coord::GenStat;
use dmtcp::{RestartPlan, Session};
use oskit::world::{NodeId, World};
use oskit::HwSpec;
use simkit::Sim;
use std::time::Instant;

/// What the cold path of a set-up cost: the first generation (dirty tracking
/// unarmed, nothing to alias, the launch-time topology) and the first
/// recovery. Shown beside the steady-state medians, never gated.
pub struct Cold {
    pub gen_host_ms: f64,
    pub gen_virt_s: f64,
    pub gen_pause_s: f64,
    pub gen_root_msgs: u64,
    pub recover_host_ms: f64,
    pub recover_virt_s: f64,
}

/// Build and warm up workload `name` from `seed`. `planned_ops` is how many
/// operations the instance will be asked for after set-up.
pub fn build(name: &str, seed: u64, planned_ops: u32, t: &mut Tracer) -> (Box<dyn Workload>, Cold) {
    let mut wl: Box<dyn Workload> = match name {
        "mg-cluster" => Box::new(mg::MgCluster::build(seed, planned_ops + 2, t)),
        "realmem-churn" => Box::new(realmem::RealMem::build(seed, true, t)),
        "realmem-idle" => Box::new(realmem::RealMem::build(seed, false, t)),
        "scale-relay" => Box::new(scale::ScaleRelay::build(seed, t)),
        "tenants-svc" => Box::new(tenants::TenantsSvc::build(seed, t)),
        other => unreachable!("workload {other:?} passed argument validation"),
    };
    // The cold path, each operation followed by a gap like any other: a
    // request that arrives the instant a restart's refill barrier releases
    // finds managers still waiting for that release.
    let gap = wl.gap_base();
    let t0 = Instant::now();
    let gens = wl.checkpoint(t).expect("set-up generation");
    let gen_host_ms = t0.elapsed().as_secs_f64() * 1e3;
    t.run_for(wl.sys(), gap);
    let t0 = Instant::now();
    let rec = wl.recover(t, 0).expect("set-up recovery");
    let recover_host_ms = t0.elapsed().as_secs_f64() * 1e3;
    t.run_for(wl.sys(), gap);
    let g = gens.last().expect("a checkpoint commits a generation");
    let secs = |d: Option<simkit::Nanos>| d.map_or(0.0, |d| d.as_secs_f64());
    let cold = Cold {
        gen_host_ms,
        gen_virt_s: secs(g.written_time().or(g.checkpoint_time())),
        gen_pause_s: secs(g.total_pause()),
        gen_root_msgs: wl.sys().w.obs.metrics.counter("coord.root_msgs", g.gen),
        recover_host_ms,
        recover_virt_s: rec.virt.as_secs_f64(),
    };
    (wl, cold)
}

/// A cluster of `nodes` nodes that can run every app plus the benchmark's
/// own programs.
fn cluster(nodes: usize) -> Sys {
    let mut reg = apps::registry::full_registry();
    programs::register(&mut reg);
    Sys {
        w: World::new(HwSpec::cluster(), nodes, reg),
        sim: Sim::new(),
    }
}

/// Where the single-session workloads keep their images.
const CKPT_DIR: &str = "/ckpt";

/// One computation under one [`Session`] — what `mg-cluster`, `realmem-*` and
/// `scale-relay` share: the session, the virtual pids a checkpoint must cover
/// and a restart must put back, and the last committed generation.
struct Computation {
    sys: Sys,
    s: Session,
    vpids: Vec<u32>,
    last_gen: u64,
}

impl Computation {
    /// Start a coordinator in `sys`; `opts` chooses everything but the
    /// checkpoint directory.
    fn start(mut sys: Sys, opts: dmtcp::OptionsBuilder, t: &mut Tracer) -> Computation {
        let opts = opts.ckpt_dir(CKPT_DIR).build();
        let s = t.call("Session::start", "core", &mut sys, |w, sim| {
            Session::start(w, sim, opts)
        });
        Computation {
            sys,
            s,
            vpids: Vec::new(),
            last_gen: 0,
        }
    }

    /// Run the freshly launched computation for `dur`, then take stock of
    /// its traced processes.
    fn warm_up(&mut self, t: &mut Tracer, dur: simkit::Nanos) {
        t.run_for(&mut self.sys, dur);
        self.vpids = self
            .sys
            .w
            .procs
            .values()
            .filter(|p| p.alive())
            .filter_map(|p| p.virt_pid)
            .collect();
        self.vpids.sort_unstable();
    }

    /// One generation: request, wait for the barriers, then for the images
    /// to be durable (a no-op wait unless forked).
    fn checkpoint(&mut self, t: &mut Tracer) -> Result<Vec<GenStat>, String> {
        let s = &self.s;
        let g = t
            .call(
                "Session::checkpoint_and_wait",
                "core",
                &mut self.sys,
                |w, sim| s.checkpoint_and_wait(w, sim, EV),
            )
            .map_err(|e| e.to_string())?;
        let g = t
            .call(
                "Session::wait_ckpt_written",
                "core",
                &mut self.sys,
                |w, sim| Session::wait_ckpt_written(w, sim, g.gen, EV),
            )
            .ok_or_else(|| format!("generation {} aborted while draining", g.gen))?;
        if g.participants as usize != self.vpids.len() {
            return Err(format!(
                "generation {}: {} participants, {} launched",
                g.gen,
                g.participants,
                self.vpids.len()
            ));
        }
        self.last_gen = g.gen;
        Ok(vec![g])
    }

    /// Kill the computation and restart the last generation in place.
    fn kill_restart(&mut self, t: &mut Tracer) -> Result<Recovered, String> {
        let start = self.sys.sim.now();
        let s = &self.s;
        t.call(
            "Session::kill_computation",
            "core",
            &mut self.sys,
            |w, sim| s.kill_computation(w, sim),
        );
        restart(
            t,
            &mut self.sys,
            s,
            start,
            self.last_gen,
            &self.vpids,
            |w, sim, gen| Session::wait_restart_done(w, sim, gen, EV),
        )
    }

    /// Oracle check on the last generation's images.
    fn verify_last(&mut self, t: &mut Tracer) -> Vec<String> {
        verify_generation(t, &mut self.sys, CKPT_DIR, self.last_gen, &self.vpids)
            .err()
            .into_iter()
            .collect()
    }
}

/// Plan, execute and wait out a restart of `gen`, checking the placement
/// puts back exactly `vpids`. The computation was killed at virtual time
/// `killed_at`; `wait` blocks until the restart-refill barrier of the
/// session's coordinator releases.
fn restart(
    t: &mut Tracer,
    sys: &mut Sys,
    s: &Session,
    killed_at: simkit::Nanos,
    gen: u64,
    vpids: &[u32],
    wait: impl FnOnce(&mut World, &mut oskit::world::OsSim, u64),
) -> Result<Recovered, String> {
    let t0 = Instant::now();
    let plan = t
        .call("RestartPlan::from_generation", "core", sys, |w, _| {
            RestartPlan::from_generation(w, s.opts.coord_port, gen)
        })
        .map_err(|e| e.to_string())?;
    let plan_ms = t0.elapsed().as_secs_f64() * 1e3;
    let out = t
        .call("RestartPlan::execute", "core", sys, |w, sim| {
            plan.execute(s, w, sim)
        })
        .map_err(|e| e.to_string())?;
    t.call("wait_restart_done", "core", sys, |w, sim| {
        wait(w, sim, out.gen)
    });
    let mut placed: Vec<u32> = out
        .placement
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .collect();
    placed.sort_unstable();
    if placed != vpids {
        return Err(format!(
            "restart of generation {gen} placed {} processes, expected {}",
            placed.len(),
            vpids.len()
        ));
    }
    Ok(Recovered {
        virt: sys.sim.now() - killed_at,
        restored: placed.len() as u32,
        gens: 0,
        written: 0,
        plan_ms,
    })
}

/// Logical image paths of generation `gen` written under `dir` by the
/// processes in `vpids`, each with a node that can read it.
fn images_of(w: &World, dir: &str, gen: u64, vpids: &[u32]) -> Vec<(NodeId, String)> {
    let wanted = |p: &str| {
        p.starts_with(dir)
            && ckptstore::manifest::parse_vpid(p).is_some_and(|v| vpids.binary_search(&v).is_ok())
    };
    if ckptstore::enabled(w) {
        // The store resolves a path from any node (local first, then peers).
        return ckptstore::images_for_gen(w, gen as u32)
            .into_values()
            .filter(|p| wanted(p))
            .map(|p| (NodeId(0), p))
            .collect();
    }
    let mut out = Vec::new();
    for node in &w.nodes {
        for p in node.fs.list_prefix(dir) {
            if dmtcp::restart::parse_gen(p) == Some(gen) && wanted(p) {
                out.push((node.id, p.to_string()));
            }
        }
    }
    out
}

/// Oracle check: every image of `gen` passes `mtcp::verify_image` and there
/// is one per process.
fn verify_generation(
    t: &mut Tracer,
    sys: &mut Sys,
    dir: &str,
    gen: u64,
    vpids: &[u32],
) -> Result<(), String> {
    let images = images_of(&sys.w, dir, gen, vpids);
    if images.len() != vpids.len() {
        return Err(format!(
            "generation {gen}: {} images on storage, {} processes",
            images.len(),
            vpids.len()
        ));
    }
    for (node, path) in images {
        t.call("mtcp::verify_image", "mtcp", sys, |w, _| {
            mtcp::verify_image(w, node, &path).map(|_| ())
        })
        .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// Tell the benchmark's own programs to finish, run until all `n` result
/// files exist, and compare each with `expected(idx, ticks)`.
fn finish_programs(
    t: &mut Tracer,
    sys: &mut Sys,
    n: u32,
    expected: impl Fn(u32, u64) -> (u64, u64),
) -> Vec<String> {
    sys.w
        .shared_fs
        .write_all(programs::STOP_PATH, b"stop")
        .expect("shared filesystem is writable");
    // Every program polls once per period; two seconds covers the slowest.
    t.run_for(sys, simkit::Nanos::from_secs(2));
    let mut bad = Vec::new();
    for idx in 0..n {
        match programs::read_result(&sys.w, idx) {
            None => bad.push(format!("process {idx} wrote no result")),
            Some((0, ..)) => bad.push(format!("process {idx} never ticked")),
            Some((ticks, ck, mem)) => {
                if (ck, mem) != expected(idx, ticks) {
                    bad.push(format!("process {idx}: checksum mismatch at tick {ticks}"));
                }
            }
        }
    }
    bad
}
