//! The benchmark's fixed vocabulary: workload names, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` must list
//! exactly these (a unit test compares the two), so a metric cannot be
//! renamed on one side only.

/// One workload: its name, why it exists, and its measured-phase shape.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Cycles in a 10-second measured phase on the reference box; `--seconds`
    /// scales this count (never `gens_per_cycle`, never a size).
    pub cycles_per_10s: u32,
    /// Checkpoint generations (waves on `tenants-svc`) per cycle, before the
    /// cycle's one recovery op.
    pub gens_per_cycle: u32,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "mg-cluster",
        why: "NAS/MG under OpenMPI on 8x4 ranks, compressed plain files: the paper's Table 1 path, protocol + app stepping + szip sampling",
        cycles_per_10s: 20,
        gens_per_cycle: 3,
    },
    WorkloadSpec {
        name: "realmem-churn",
        why: "4 procs x 8 MiB real memory rewritten every gap, forked+compressed through ckptstore: szip, crc32, chunk hashing and mtcp capture/restore dominate",
        cycles_per_10s: 3,
        gens_per_cycle: 4,
    },
    WorkloadSpec {
        name: "realmem-idle",
        why: "same program and store with one 64 KiB region dirtied per gap: the incremental alias-extent path and live migration, szip barely runs",
        cycles_per_10s: 25,
        gens_per_cycle: 20,
    },
    WorkloadSpec {
        name: "scale-relay",
        why: "1024 sleepers on 64 nodes behind per-node relays, compression off: simkit queue, oskit dispatch/net and coordinator+relay protocol do all the work",
        cycles_per_10s: 3,
        gens_per_cycle: 2,
    },
    WorkloadSpec {
        name: "tenants-svc",
        why: "dmtcpd with 4 shards, 16 sessions, 2 quota tenants, concurrent generations plus session churn: the only path through svc admission and the tenant ledger",
        cycles_per_10s: 60,
        gens_per_cycle: 4,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric. `virt` metrics are on the simulated clock and repeat
/// bit-exactly for a (workload, seed, seconds) triple.
pub struct E2eSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
    pub virt: bool,
}

/// All are lower-is-better. `failed_ops_pct` is deliberately absent: the
/// driver contract forbids a metric that is normally 0, and the result line's
/// `failed`/`attempted` pair carries the same information.
pub const E2E: [E2eSpec; 9] = [
    E2eSpec {
        name: "virt_ckpt_s",
        unit: "s",
        bound: 0.05,
        virt: true,
    },
    E2eSpec {
        name: "virt_pause_s",
        unit: "s",
        bound: 0.05,
        virt: true,
    },
    E2eSpec {
        name: "virt_recover_s",
        unit: "s",
        bound: 0.05,
        virt: true,
    },
    E2eSpec {
        name: "stored_mb_per_gen",
        unit: "MB",
        bound: 0.25,
        virt: true,
    },
    E2eSpec {
        name: "host_ckpt_ms",
        unit: "ms",
        bound: 0.25,
        virt: false,
    },
    E2eSpec {
        name: "host_recover_ms",
        unit: "ms",
        bound: 0.25,
        virt: false,
    },
    E2eSpec {
        name: "host_wall_s",
        unit: "s",
        bound: 0.25,
        virt: false,
    },
    E2eSpec {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.1,
        virt: false,
    },
    E2eSpec {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        virt: false,
    },
];

/// A per-layer metric: `(name, unit, better)`; the layer is the name's prefix.
pub type LayerSpec = (&'static str, &'static str, &'static str);

pub const PER_LAYER: [LayerSpec; 61] = [
    ("szip.compress_mb_s", "MB/s", "higher"),
    ("szip.decompress_mb_s", "MB/s", "higher"),
    ("szip.crc32_mb_s", "MB/s", "higher"),
    ("szip.ratio", "ratio", "lower"),
    ("szip.bytes_in_per_gen", "MB", "lower"),
    ("mtcp.write_full_ms", "ms", "lower"),
    ("mtcp.write_incr_ms", "ms", "lower"),
    ("mtcp.restore_ms", "ms", "lower"),
    ("mtcp.verify_ms", "ms", "lower"),
    ("mtcp.captured_mb_per_gen", "MB", "lower"),
    ("mtcp.image_mb_per_gen", "MB", "lower"),
    ("mtcp.aliased_regions_per_gen", "count", "higher"),
    ("mtcp.restore_mb_per_recover", "MB", "lower"),
    ("ckptstore.commit_mb_s", "MB/s", "higher"),
    ("ckptstore.resolve_ms", "ms", "lower"),
    ("ckptstore.dedup_pct", "%", "higher"),
    ("ckptstore.replication_mb_per_gen", "MB", "lower"),
    ("ckptstore.replica_fetch_mb_per_recover", "MB", "lower"),
    ("ckptstore.gc_reclaimed_mb", "MB", "higher"),
    ("simkit.events_per_gen", "count", "lower"),
    ("simkit.events_per_recover", "count", "lower"),
    ("simkit.events_total", "count", "lower"),
    ("simkit.host_us_per_event", "us", "lower"),
    ("simkit.engine_mevents_s", "M/s", "higher"),
    ("oskit.sched_steps_s", "1/s", "higher"),
    ("oskit.net_msgs_s", "1/s", "higher"),
    ("oskit.spawn_us", "us", "lower"),
    ("oskit.net_tx_mb_per_gen", "MB", "lower"),
    ("oskit.storage_write_mb_per_gen", "MB", "lower"),
    ("oskit.cow_copied_mb_per_gen", "MB", "lower"),
    ("core.proto_encode_mframes_s", "M/s", "higher"),
    ("core.proto_decode_mframes_s", "M/s", "higher"),
    ("core.root_msgs_per_gen", "count", "lower"),
    ("core.barrier_retries", "count", "lower"),
    ("core.stage_suspend_virt_s", "s", "lower"),
    ("core.stage_elect_virt_s", "s", "lower"),
    ("core.stage_drain_virt_s", "s", "lower"),
    ("core.stage_write_virt_s", "s", "lower"),
    ("core.stage_refill_virt_s", "s", "lower"),
    ("core.restart_files_virt_s", "s", "lower"),
    ("core.restart_sockets_virt_s", "s", "lower"),
    ("core.restart_memory_virt_s", "s", "lower"),
    ("core.restart_refill_virt_s", "s", "lower"),
    ("core.max_barrier_gap_virt_s", "s", "lower"),
    ("core.plan_ms", "ms", "lower"),
    ("svc.open_close_us", "us", "lower"),
    ("svc.admit_virt_ms", "ms", "lower"),
    ("svc.ckpts_per_virt_s", "1/s", "higher"),
    ("svc.rejected", "count", "lower"),
    ("obs.journal_mrecords_s", "M/s", "higher"),
    ("obs.recorder_overhead_pct", "%", "lower"),
    ("obs.journal_dropped", "count", "lower"),
    ("obs.spans_dropped", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("calib.spin_ms", "ms", "lower"),
    ("attrib.szip_share", "ratio", "lower"),
    ("attrib.crc_share", "ratio", "lower"),
    ("attrib.mtcp_share", "ratio", "lower"),
    ("attrib.ckptstore_share", "ratio", "lower"),
    ("attrib.proto_share", "ratio", "lower"),
    ("attrib.residual_share", "ratio", "lower"),
];
