//! `tenants-svc`: a `dmtcpd` with 4 shards on a 1 + 16-node cluster serving 16
//! long-lived sessions of 4 [`Sleeper`]s (16 KiB ballast) for 2 tenants that
//! carry a quota.
//!
//! One checkpoint operation is a *wave*: a churn session goes open → launch →
//! commit → close, then one session per shard requests a checkpoint at the
//! same virtual instant, so four generations are in flight at once. A shard's
//! coordinator checkpoints every process registered with it, so each of those
//! generations covers the shard's four sessions. Recovery kills one shard's
//! computations and restarts them through `Client::as_session` while the other
//! three shards commit a generation.

use super::{cluster, finish_programs, restart, verify_generation};
use crate::harness::{Recovered, Sys, Tracer, Workload, EV};
use crate::programs::{self, Sleeper};
use dmtcp::coord::{stage, GenStat};
use dmtcp::session::run_for;
use oskit::proc::sig;
use oskit::world::{NodeId, OsSim, World};
use simkit::rng::mix2;
use simkit::Nanos;
use std::time::Instant;
use svc::{Client, DaemonConfig, Dmtcpd};

/// Node 0 hosts the daemon and its shard coordinators; the 64 long-lived
/// processes fill the other sixteen four-core nodes exactly, so concurrent
/// generations never queue for a core (which shard would lose such a race
/// turns on microsecond timing, i.e. on the seed).
const NODES: u32 = 17;
const SHARDS: usize = 4;
const SESSIONS: u32 = 16;
const PROCS_PER_SESSION: u32 = 4;
const CHURN_PROCS: u32 = 2;
/// 16 KiB of synthetic ballast plus up to 248 bytes chosen by the seed.
fn ballast(seed: u64, idx: u32) -> u64 {
    (16 << 10) + (mix2(seed ^ 0xba11, idx as u64) % 32) * 8
}
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
const TENANT_DIR: &str = "/ckpt/tenants/";
/// High enough that no request of a run is refused, finite so the admission
/// path does its ledger arithmetic.
const QUOTA_BYTES: u64 = 1 << 30;

pub struct TenantsSvc {
    sys: Sys,
    d: Dmtcpd,
    /// One long-lived client per shard, used to address that shard.
    reps: Vec<Client>,
    seed: u64,
    /// Long-lived virtual pids per shard, sorted.
    vpids: Vec<Vec<u32>>,
    last_gen: [u64; SHARDS],
    churned: u32,
    /// Host microseconds of each open + close pair, and virtual milliseconds
    /// of each admission.
    pub open_close_us: Vec<f64>,
    pub admit_virt_ms: Vec<f64>,
}

fn shard_of(c: &Client) -> usize {
    (c.sid % SHARDS as u64) as usize
}

/// Whether a client's shard settled a generation newer than `before`.
fn settled(c: &Client, w: &mut World, before: u64) -> Option<GenStat> {
    let g = c.last_gen_stat(w)?;
    let done = g.aborted
        || (g.releases.contains_key(&stage::REFILLED)
            && g.releases.contains_key(&stage::CKPT_WRITTEN));
    (g.gen > before && done).then_some(g)
}

/// Step the simulation until `done` holds, checking every 64 events.
fn run_until(w: &mut World, sim: &mut OsSim, mut done: impl FnMut(&mut World) -> bool) {
    let start = sim.events_fired();
    while !done(w) {
        sim.run_budgeted(w, 64);
        assert!(
            sim.events_fired() - start < EV && sim.pending() > 0,
            "service operation did not settle"
        );
    }
}

impl TenantsSvc {
    pub fn build(seed: u64, t: &mut Tracer) -> TenantsSvc {
        let mut sys = cluster(NODES as usize);
        ckptstore::install(&mut sys.w, ckptstore::Config::default());
        let cfg = DaemonConfig {
            shards: SHARDS as u16,
            default_quota_bytes: QUOTA_BYTES,
            ..DaemonConfig::default()
        };
        let d = t.call("Dmtcpd::start", "svc", &mut sys, |w, sim| {
            Dmtcpd::start(w, sim, cfg)
        });
        let mut reps: Vec<Option<Client>> = vec![None; SHARDS];
        let mut vpids = vec![Vec::new(); SHARDS];
        for s in 0..SESSIONS {
            let tenant = TENANTS[(s % 2) as usize];
            let c = t
                .call("Dmtcpd::open", "svc", &mut sys, |w, sim| {
                    d.open(w, sim, tenant, PROCS_PER_SESSION)
                })
                .expect("long-lived sessions fit the admission limits");
            for p in 0..PROCS_PER_SESSION {
                let idx = s * PROCS_PER_SESSION + p;
                let node = NodeId(1 + idx % (NODES - 1));
                let pid = t.call("Client::launch", "svc", &mut sys, |w, sim| {
                    c.launch(
                        w,
                        sim,
                        node,
                        "sleeper",
                        Box::new(Sleeper::new(idx, seed, ballast(seed, idx))),
                    )
                });
                vpids[shard_of(&c)].push(pid.0);
            }
            let shard = shard_of(&c);
            reps[shard].get_or_insert(c);
        }
        for v in &mut vpids {
            v.sort_unstable();
        }
        t.run_for(&mut sys, Nanos::from_millis(200));
        TenantsSvc {
            sys,
            d,
            reps: reps
                .into_iter()
                .map(|c| c.expect("sixteen sessions cover four shards"))
                .collect(),
            seed,
            vpids,
            last_gen: [0; SHARDS],
            churned: 0,
            open_close_us: Vec::with_capacity(4096),
            admit_virt_ms: Vec::with_capacity(4096),
        }
    }

    fn note(&mut self, g: &GenStat, shard: usize, extra: u32) -> Result<(), String> {
        let want = self.vpids[shard].len() as u32 + extra;
        if g.aborted || g.participants != want {
            return Err(format!(
                "shard {shard} generation {}: aborted={} participants={} expected={want}",
                g.gen, g.aborted, g.participants
            ));
        }
        self.last_gen[shard] = g.gen;
        Ok(())
    }

    /// One short-lived session: open, launch, commit, kill, close.
    fn churn(&mut self, t: &mut Tracer) -> Result<GenStat, String> {
        let n = self.churned;
        self.churned += 1;
        let tenant = TENANTS[(n % 2) as usize];
        let d = &self.d;
        let (t0, v0) = (Instant::now(), self.sys.sim.now());
        let c = t
            .call("Dmtcpd::open", "svc", &mut self.sys, |w, sim| {
                d.open(w, sim, tenant, CHURN_PROCS)
            })
            .map_err(|e| e.to_string())?;
        let mut open_close = t0.elapsed();
        self.admit_virt_ms
            .push((self.sys.sim.now() - v0).as_millis_f64());
        let mut pids = Vec::new();
        for p in 0..CHURN_PROCS {
            let idx = 1_000_000 + n * CHURN_PROCS + p;
            // Round-robin, like the long-lived sessions: where manifests pile
            // up decides what every later commit's sweep costs, so placement
            // must not be left to the seed.
            let node = NodeId(1 + idx % (NODES - 1));
            let seed = self.seed;
            pids.push(t.call("Client::launch", "svc", &mut self.sys, |w, sim| {
                c.launch(
                    w,
                    sim,
                    node,
                    "churn",
                    Box::new(Sleeper::new(idx, seed, ballast(seed, idx))),
                )
            }));
        }
        t.run_for(&mut self.sys, Nanos::from_millis(30));
        let g = t
            .call(
                "Client::checkpoint_and_wait",
                "svc",
                &mut self.sys,
                |w, sim| c.checkpoint_and_wait(w, sim, EV),
            )
            .map_err(|e| e.to_string())?;
        self.note(&g, shard_of(&c), CHURN_PROCS)?;
        // The churn processes end here; give their coordinator a moment to
        // see the EOFs before the shard's next generation.
        t.call("World::signal", "oskit", &mut self.sys, |w, sim| {
            for pid in pids {
                w.signal(sim, pid, sig::SIGKILL);
            }
            run_for(w, sim, Nanos::from_millis(2));
        });
        let t1 = Instant::now();
        t.call("Client::close", "svc", &mut self.sys, |w, sim| {
            c.close(w, sim)
        });
        open_close += t1.elapsed();
        self.open_close_us.push(open_close.as_secs_f64() * 1e6);
        Ok(g)
    }

    /// Request a checkpoint on each of `shards` at this instant.
    fn request(&mut self, t: &mut Tracer, shards: &[usize]) {
        let reps = &self.reps;
        t.call(
            "Client::request_checkpoint",
            "svc",
            &mut self.sys,
            |w, sim| {
                for &k in shards {
                    reps[k].request_checkpoint(w, sim);
                }
            },
        );
    }

    /// Wait until each of `shards` has settled a generation newer than
    /// `before[shard]`; all must have committed.
    fn await_wave(
        &mut self,
        t: &mut Tracer,
        shards: &[usize],
        before: [u64; SHARDS],
    ) -> Result<Vec<GenStat>, String> {
        let reps = &self.reps;
        let gens = t.call("wait_wave", "svc", &mut self.sys, |w, sim| {
            let mut gens: Vec<Option<GenStat>> = vec![None; shards.len()];
            run_until(w, sim, |w| {
                for (slot, &k) in gens.iter_mut().zip(shards) {
                    if slot.is_none() {
                        *slot = settled(&reps[k], w, before[k]);
                    }
                }
                gens.iter().all(Option::is_some)
            });
            gens
        });
        let gens: Vec<GenStat> = gens.into_iter().flatten().collect();
        for (g, &k) in gens.iter().zip(shards) {
            self.note(g, k, 0)?;
        }
        Ok(gens)
    }
}

impl Workload for TenantsSvc {
    fn sys(&mut self) -> &mut Sys {
        &mut self.sys
    }
    fn compressed(&self) -> bool {
        true
    }
    fn checkpoint(&mut self, t: &mut Tracer) -> Result<Vec<GenStat>, String> {
        let mut gens = vec![self.churn(t)?];
        let before = self.last_gen;
        self.request(t, &[0, 1, 2, 3]);
        gens.extend(self.await_wave(t, &[0, 1, 2, 3], before)?);
        Ok(gens)
    }
    fn recover(&mut self, t: &mut Tracer, cycle: u32) -> Result<Recovered, String> {
        let victim = cycle as usize % SHARDS;
        let bystanders: Vec<usize> = (0..SHARDS).filter(|&k| k != victim).collect();
        let rep = self.reps[victim].clone();
        let start = self.sys.sim.now();
        t.call(
            "Client::kill_computation",
            "svc",
            &mut self.sys,
            |w, sim| rep.kill_computation(w, sim),
        );
        let s = t.call("Client::as_session", "svc", &mut self.sys, |w, _| {
            rep.as_session(w)
        });
        // The bystanders' generations are requested before the restart
        // begins; they must commit regardless of it.
        let before = self.last_gen;
        self.request(t, &bystanders);
        let restored = restart(
            t,
            &mut self.sys,
            &s,
            start,
            self.last_gen[victim],
            &self.vpids[victim],
            |w, sim, gen| {
                run_until(w, sim, |w| {
                    rep.last_gen_stat(w).is_some_and(|g| {
                        g.gen == gen && g.releases.contains_key(&stage::RESTART_REFILLED)
                    })
                })
            },
        )?;
        let committed = self.await_wave(t, &bystanders, before)?;
        Ok(Recovered {
            gens: committed.len() as u32,
            written: committed.iter().map(|g| g.participants).sum(),
            ..restored
        })
    }
    fn gap_base(&self) -> Nanos {
        Nanos::from_millis(30)
    }
    fn oracle(&mut self, t: &mut Tracer) -> (u64, Vec<String>) {
        let mut bad = Vec::new();
        for k in 0..SHARDS {
            let (gen, vpids) = (self.last_gen[k], self.vpids[k].clone());
            if let Err(e) = verify_generation(t, &mut self.sys, TENANT_DIR, gen, &vpids) {
                bad.push(format!("shard {k}: {e}"));
            }
        }
        let seed = self.seed;
        let n = SESSIONS * PROCS_PER_SESSION;
        bad.extend(finish_programs(t, &mut self.sys, n, |idx, ticks| {
            programs::sleeper_expected(seed, idx, ballast(seed, idx), ticks)
        }));
        (SHARDS as u64 + n as u64, bad)
    }
    fn svc_samples(&self) -> Option<(&[f64], &[f64])> {
        Some((&self.open_close_us, &self.admit_virt_ms))
    }
}
