//! Differential GC suite: the store's incremental reclamation (per-node
//! chunk refcounts, retention by lineage listing) against the algorithm it
//! replaced — blind removal of generations `1..=gen − retention`, then a
//! full mark-and-sweep of the node — run here, in the test, on cloned
//! filesystems. Random schedules interleave commits of several lineages
//! with damage done to the store behind its back; after every commit every
//! node's store must hold exactly the files the reference leaves, and the
//! reclaimed-bytes counters and tenant ledgers must read what the
//! reference computes. Driven by simkit's deterministic RNG (fixed seeds).

use ckptstore::manifest::{chunks_prefix, manifest_path, manifests_prefix, ChunkRef, Manifest};
use ckptstore::tenant::{self, TenantConfig};
use ckptstore::Config;
use dmtcp::session::transplant_storage;
use mtcp::ImageName;
use oskit::fs::{Blob, Chunk, Fs, STORE_ROOT};
use oskit::program::Registry;
use oskit::world::{NodeId, World};
use oskit::HwSpec;
use simkit::{DetRng, Nanos};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{DefaultHasher, Hasher};

// ---------------------------------------------------------------------
// The reference: what `sink::gc` and the ledger credit loop did before.
// ---------------------------------------------------------------------

/// Every generation number from 1 to `gen − retention`, existing or not.
fn reference_expired(name: Option<&ImageName>, retention: u32) -> Vec<String> {
    let Some(n) = name else {
        return Vec::new();
    };
    (1..=n.gen.saturating_sub(retention as u64))
        .map(|old| manifest_path(&n.with_gen(old).to_string()))
        .collect()
}

/// Retention + mark-and-sweep on one store; returns the bytes reclaimed.
fn reference_gc(fs: &mut Fs, name: Option<&ImageName>, retention: u32) -> u64 {
    for mpath in reference_expired(name, retention) {
        fs.remove(&mpath).ok();
    }
    let mut live: BTreeSet<String> = BTreeSet::new();
    for mf in fs.list_prefix(&manifests_prefix()) {
        if let Some(m) = fs.read_all(mf).ok().and_then(|b| Manifest::decode(&b)) {
            live.extend(m.chunks.into_iter().map(|c| c.id));
        }
    }
    let prefix = chunks_prefix();
    let dead: Vec<String> = fs
        .list_prefix(&prefix)
        .filter(|p| !live.contains(&p[prefix.len()..]))
        .map(str::to_string)
        .collect();
    let mut reclaimed = 0;
    for p in dead {
        reclaimed += fs.size(&p).unwrap_or(0);
        fs.remove(&p).ok();
    }
    reclaimed
}

/// The reference tenant ledger: charge per manifest, credit the blind range.
#[derive(Default)]
struct RefLedger(BTreeMap<String, BTreeMap<String, u64>>);

impl RefLedger {
    fn commit(&mut self, path: &str, name: Option<&ImageName>, retention: u32, stored: u64) {
        let Some(t) = tenant::tenant_of(path) else {
            return;
        };
        let per_manifest = self.0.entry(t.to_string()).or_default();
        *per_manifest.entry(manifest_path(path)).or_insert(0) += stored;
        for mpath in reference_expired(name, retention) {
            per_manifest.remove(&mpath);
        }
    }

    fn usage(&self, t: &str) -> u64 {
        self.0.get(t).map_or(0, |m| m.values().sum())
    }
}

// ---------------------------------------------------------------------
// Observation.
// ---------------------------------------------------------------------

type Listing = Vec<(String, u64, u64)>;

/// Every file of a node's store: path, size, and a hash of its content
/// (real bytes and virtual extents alike).
fn listing(fs: &Fs) -> Listing {
    fs.list_prefix(STORE_ROOT)
        .map(|p| {
            let blob = &fs.get(p).expect("listed").blob;
            let mut h = DefaultHasher::new();
            for c in blob.chunks() {
                match c {
                    Chunk::Real(bytes) => h.write(bytes),
                    Chunk::Virtual { len, meta } => {
                        h.write_u64(*len);
                        h.write(meta);
                    }
                }
            }
            (p.to_string(), blob.len(), h.finish())
        })
        .collect()
}

fn store_paths(fs: &Fs, prefix: &str) -> Vec<String> {
    fs.list_prefix(prefix).map(str::to_string).collect()
}

// ---------------------------------------------------------------------
// The schedule.
// ---------------------------------------------------------------------

const TENANTS: [&str; 2] = ["acme", "bolt"];

/// Images that commit: two vpids of which one's digits start the other's
/// (a lineage listing must not mistake `ckpt_10_` for `ckpt_1_`), inside
/// and outside tenant namespaces, plus one path that is no `ImageName` at
/// all (never expires, overwritten in place every time).
fn lineage_dirs() -> Vec<String> {
    vec![
        "/ckpt".to_string(),
        format!("{}/s1", tenant::tenant_prefix(TENANTS[0])),
        format!("{}/s2", tenant::tenant_prefix(TENANTS[1])),
    ]
}

struct Lineage {
    dir: String,
    vpid: u32,
    home: usize,
    next_gen: u64,
}

struct Harness {
    w: World,
    cfg: Config,
    retention: BTreeMap<&'static str, u32>,
    ledger: RefLedger,
    /// Reference bytes reclaimed per node, since this world began.
    reclaimed: Vec<u64>,
    /// A copy of one node's disk as it once was, waiting to be put back.
    snapshot: Option<(usize, Fs)>,
    now: Nanos,
}

impl Harness {
    fn fresh_world(nodes: usize) -> World {
        World::new(HwSpec::cluster(), nodes, Registry::new())
    }

    fn new(rng: &mut DetRng) -> Harness {
        let nodes = rng.range(3, 6) as usize;
        let mut h = Harness {
            w: Harness::fresh_world(nodes),
            cfg: Config::default(),
            retention: BTreeMap::new(),
            ledger: RefLedger::default(),
            reclaimed: vec![0; nodes],
            snapshot: None,
            now: Nanos(0),
        };
        h.reconfigure(rng);
        h
    }

    /// (Re-)install the store with fresh replica and retention settings.
    fn reconfigure(&mut self, rng: &mut DetRng) {
        self.cfg = Config {
            replicas: rng.below(3) as usize,
            retention: rng.range(1, 6) as u32,
        };
        ckptstore::install(&mut self.w, self.cfg.clone());
        for t in TENANTS {
            let retention = rng.range(1, 6) as u32;
            self.retention.insert(t, retention);
            let policy = TenantConfig {
                quota_bytes: 0,
                retention,
            };
            tenant::register_tenant(&mut self.w, t, policy);
        }
    }

    fn retention_for(&self, path: &str) -> u32 {
        tenant::tenant_of(path).map_or(self.cfg.retention, |t| self.retention[t])
    }

    /// The storage survives, the world does not: a new world gets clones
    /// of every disk. Its ledger, counters and refcount index start empty.
    fn transplant(&mut self, rng: &mut DetRng) {
        let mut w2 = Harness::fresh_world(self.w.nodes.len());
        transplant_storage(&self.w, &mut w2);
        self.w = w2;
        self.ledger = RefLedger::default();
        self.reclaimed.fill(0);
        self.reconfigure(rng);
    }

    /// Commit `blob` as `path` from `node` and hold the outcome against the
    /// reference.
    fn commit(&mut self, node: usize, path: &str, blob: &Blob) {
        let before: Vec<Fs> = self.w.nodes.iter().map(|n| n.fs.clone()).collect();
        self.now += Nanos::from_millis(1);
        let store = mtcp::store::installed(&self.w).expect("store installed");
        let out = store.commit(&mut self.w, self.now, NodeId(node as u32), path, blob);

        let name = ImageName::parse(path);
        let retention = self.retention_for(path);
        let n = self.w.nodes.len();
        let touched: BTreeSet<usize> = (0..=self.cfg.replicas.min(n - 1))
            .map(|k| (node + k) % n)
            .collect();
        for (i, old) in before.into_iter().enumerate() {
            let now = &self.w.nodes[i].fs;
            if !touched.contains(&i) {
                assert_eq!(
                    listing(&old),
                    listing(now),
                    "{path}: node {i} is no replica"
                );
                continue;
            }
            // The store before the sink's GC ran: what was there, overlaid
            // with what is there now (whatever the commit wrote survives it
            // — the new manifest names every chunk the commit put).
            let mut expect = old;
            for p in store_paths(now, STORE_ROOT) {
                expect.create(&p).expect("writable");
                expect.get_mut(&p).expect("created").blob =
                    now.get(&p).expect("listed").blob.clone();
            }
            self.reclaimed[i] += reference_gc(&mut expect, name.as_ref(), retention);
            assert_eq!(
                listing(&expect),
                listing(now),
                "{path}: node {i} after commit"
            );
        }
        for (i, want) in self.reclaimed.iter().enumerate() {
            let got = self
                .w
                .obs
                .metrics
                .counter("ckptstore.gc_reclaimed", i as u64);
            assert_eq!(got, *want, "{path}: bytes reclaimed on node {i}");
        }
        self.ledger
            .commit(path, name.as_ref(), retention, out.stored_bytes);
        for t in TENANTS {
            let got = tenant::usage(&self.w, t);
            assert_eq!(got, Some(self.ledger.usage(t)), "{path}: tenant {t}");
        }
    }

    /// Change one node's store behind the sink's back.
    fn damage(&mut self, rng: &mut DetRng) {
        let ni = rng.below(self.w.nodes.len() as u64) as usize;
        if rng.chance(0.15) {
            // The disk is imaged, and some time later the image restored:
            // the same node, the same seal-bearing `Fs` lineage, other files.
            match self.snapshot.take() {
                Some((node, fs)) => self.w.nodes[node].fs = fs,
                None => self.snapshot = Some((ni, self.w.nodes[ni].fs.clone())),
            }
            return;
        }
        let fs = &mut self.w.nodes[ni].fs;
        let manifests = store_paths(fs, &manifests_prefix());
        let chunks = store_paths(fs, &chunks_prefix());
        let pick = |rng: &mut DetRng, v: &[String]| {
            (!v.is_empty()).then(|| v[rng.below(v.len() as u64) as usize].clone())
        };
        match rng.below(5) {
            0 => {
                for p in store_paths(fs, STORE_ROOT) {
                    fs.remove(&p).expect("listed");
                }
            }
            1 => {
                if let Some(p) = pick(rng, &manifests) {
                    fs.remove(&p).expect("listed");
                }
            }
            2 => {
                if let Some(p) = pick(rng, &chunks) {
                    fs.remove(&p).expect("listed");
                }
            }
            3 => {
                if let Some(p) = pick(rng, &manifests) {
                    let blob = &mut fs.get_mut(&p).expect("listed").blob;
                    blob.truncate(rng.below(blob.len().max(1)));
                }
            }
            _ => {
                // Garbage where a manifest belongs: over a real one, or at
                // the name an old generation's manifest would have.
                let p = match pick(rng, &manifests) {
                    Some(p) if rng.chance(0.5) => p,
                    _ => manifest_path(&format!("/ckpt/ckpt_1_gen{}.dmtcp", rng.range(1, 4))),
                };
                fs.write_all(&p, b"CKPTMAN1 gen=1 len=9 src=/x\nr0-9 nine\n")
                    .expect("writable");
            }
        }
    }
}

/// A few byte runs every lineage draws from, so chunks are shared across
/// images, generations and tenants.
fn shared_run(k: u64) -> Vec<u8> {
    vec![k as u8 ^ 0x5a; 200 + 37 * k as usize]
}

/// Build one image blob: real runs (shared or private) separated by
/// virtual extents (so each run is a chunk of its own), and — when the
/// previous generation's manifest is on the committing node — alias
/// extents into it.
fn build_blob(rng: &mut DetRng, h: &Harness, node: usize, prev_path: Option<&str>) -> Blob {
    // How much of the previous image an alias may name: what its manifest
    // on this node actually covers (a torn one covers less than it says).
    let alias_bound = prev_path
        .and_then(|p| h.w.nodes[node].fs.read_all(&manifest_path(p)).ok())
        .and_then(|b| Manifest::decode(&b))
        .map(|m| {
            let covered: u64 = m.chunks.iter().map(|c| c.len).sum();
            covered.min(m.logical_len)
        })
        .filter(|b| *b > 0);
    let mut blob = Blob::new();
    for piece in 0..rng.range(1, 7) {
        match rng.below(4) {
            0 => blob.append_bytes(&shared_run(rng.below(4))),
            1 => {
                let mut private = vec![0u8; rng.range(1, 400) as usize];
                rng.fill_bytes(&mut private);
                blob.append_bytes(&private);
            }
            2 => match (prev_path, alias_bound) {
                (Some(prev), Some(bound)) => {
                    let off = rng.below(bound);
                    let len = rng.range(1, bound - off + 1);
                    blob.append_virtual(len, mtcp::incr::encode_alias(prev, off, len));
                }
                _ => blob.append_bytes(&shared_run(4)),
            },
            _ => {}
        }
        // A virtual extent (shared recipe) ends the real run.
        blob.append_virtual(1000 + piece, vec![0xee, rng.below(3) as u8]);
    }
    blob
}

fn run_schedule(seed: u64, steps: u32) {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut h = Harness::new(&mut rng);
    let nodes = h.w.nodes.len() as u64;
    let mut lineages: Vec<Lineage> = Vec::new();
    for dir in lineage_dirs() {
        for vpid in [1, 10] {
            lineages.push(Lineage {
                dir: dir.clone(),
                vpid,
                home: rng.below(nodes) as usize,
                next_gen: 1,
            });
        }
    }
    for _ in 0..steps {
        match rng.below(20) {
            0..=2 => h.damage(&mut rng),
            3 => h.transplant(&mut rng),
            4 => h.reconfigure(&mut rng),
            5 => {
                // No `ImageName`: no retention, the manifest overwritten in
                // place by every commit.
                let node = rng.below(nodes) as usize;
                let blob = build_blob(&mut rng, &h, node, None);
                h.commit(node, "/ckpt/scratch.img", &blob);
            }
            _ => {
                let li = rng.below(lineages.len() as u64) as usize;
                let l = &mut lineages[li];
                if rng.chance(0.1) {
                    // The process moved: later generations commit elsewhere.
                    l.home = rng.below(nodes) as usize;
                }
                if l.next_gen > 1 && rng.chance(0.15) {
                    // Rollback: recommit a generation that already exists.
                    l.next_gen = rng.range(1, l.next_gen);
                }
                let name = ImageName {
                    dir: l.dir.clone(),
                    vpid: l.vpid,
                    gen: l.next_gen,
                };
                l.next_gen += 1;
                let node = l.home;
                let prev = (name.gen > 1).then(|| name.with_gen(name.gen - 1).to_string());
                let blob = build_blob(&mut rng, &h, node, prev.as_deref());
                h.commit(node, &name.to_string(), &blob);
            }
        }
    }
}

#[test]
fn incremental_gc_matches_mark_and_sweep_under_damage() {
    for seed in 0..24 {
        run_schedule(0x6cd1_ff00 + seed, 160);
    }
}

/// The two ways a manifest can name nothing — the sink's own (a `src` with
/// a space encodes to a head line `decode` refuses) and a stranger's — are
/// the same to both paths: the chunks only it names go at once, as they
/// did under the full sweep, and nothing is miscounted when it is later
/// overwritten or expired.
#[test]
fn an_undecodable_manifest_names_nothing_on_either_path() {
    let mut w = Harness::fresh_world(2);
    ckptstore::install(
        &mut w,
        Config {
            replicas: 1,
            retention: 1,
        },
    );
    let store = mtcp::store::installed(&w).expect("store installed");
    let mut blob = Blob::new();
    blob.append_bytes(b"only this image holds these bytes");
    for gen in 1..=3 {
        let path = format!("/my ckpts/ckpt_1_gen{gen}.dmtcp");
        store.commit(&mut w, Nanos(gen), NodeId(0), &path, &blob);
        for node in &w.nodes {
            assert_eq!(
                store_paths(&node.fs, &chunks_prefix()),
                [""; 0],
                "gen {gen}"
            );
            assert_eq!(store_paths(&node.fs, &manifests_prefix()).len(), 1);
        }
    }
    // A decodable neighbour keeps the chunk. Garbage written over that
    // neighbour by hand takes node 0's seal off: its next commit answers
    // from the files (the chunk goes), node 1's from its counts (the
    // chunk, still named there, stays).
    let good = "/ckpt/ckpt_1_gen1.dmtcp";
    store.commit(&mut w, Nanos(10), NodeId(0), good, &blob);
    assert_eq!(store_paths(&w.nodes[0].fs, &chunks_prefix()).len(), 1);
    let rebuilds = |w: &World, node| w.obs.metrics.counter("ckptstore.index_rebuilds", node);
    let (r0, r1) = (rebuilds(&w, 0), rebuilds(&w, 1));
    w.nodes[0]
        .fs
        .write_all(&manifest_path(good), b"not a manifest")
        .unwrap();
    let mut other = Blob::new();
    other.append_bytes(b"another image altogether");
    store.commit(
        &mut w,
        Nanos(11),
        NodeId(0),
        "/ckpt/ckpt_2_gen1.dmtcp",
        &other,
    );
    assert_eq!(store_paths(&w.nodes[0].fs, &chunks_prefix()).len(), 1);
    assert_eq!(store_paths(&w.nodes[1].fs, &chunks_prefix()).len(), 2);
    assert_eq!((rebuilds(&w, 0), rebuilds(&w, 1)), (r0 + 1, r1));
}

// ---------------------------------------------------------------------
// Count guard: a commit's GC visits its own delta, not the store.
// ---------------------------------------------------------------------

/// `unrelated` manifests of other images already on every node, then
/// `commits` steady generations of one lineage: what did GC visit, and how
/// many chunks did those commits' manifests name?
fn steady_commits(unrelated: u64, commits: u64) -> (World, u64, u64) {
    let mut w = Harness::fresh_world(3);
    ckptstore::install(
        &mut w,
        Config {
            replicas: 1,
            retention: 2,
        },
    );
    let store = mtcp::store::installed(&w).expect("store installed");
    let image = |w: &mut World, vpid: u32, gen: u64| {
        let mut blob = Blob::new();
        blob.append_bytes(&shared_run(1));
        blob.append_virtual(64, vec![1]);
        blob.append_bytes(format!("private to {vpid} at {gen}").as_bytes());
        let path = ImageName {
            dir: "/ckpt".into(),
            vpid,
            gen,
        };
        store.commit(w, Nanos(gen), NodeId(0), &path.to_string(), &blob);
        3
    };
    for vpid in 0..unrelated {
        image(&mut w, 100 + vpid as u32, 1);
    }
    // Warm the lineage past its first expiry, then measure.
    for gen in 1..=3 {
        image(&mut w, 7, gen);
    }
    let before = w.obs.metrics.counter_total("ckptstore.gc_visited");
    let mut named = 0;
    for gen in 4..4 + commits {
        // The new manifest and the one it expires; nothing is overwritten.
        named += 2 * image(&mut w, 7, gen);
    }
    let visited = w.obs.metrics.counter_total("ckptstore.gc_visited") - before;
    (w, visited, named)
}

#[test]
fn gc_visits_the_commit_delta_not_the_store() {
    const COMMITS: u64 = 16;
    let runs: Vec<(World, u64, u64)> = [8, 64, 512]
        .into_iter()
        .map(|m| steady_commits(m, COMMITS))
        .collect();
    let (_, visited, named) = runs[0];
    assert!(visited > 0, "each commit reads the manifest it expires");
    // Primary and one replica each visit at most the expired manifest and
    // every chunk it named.
    assert!(
        visited <= 2 * named,
        "visited {visited} for {named} chunks named"
    );
    for (w, v, _) in &runs {
        assert_eq!(*v, visited, "visits must not grow with the store");
        let m = &w.obs.metrics;
        assert_eq!(m.counter("ckptstore.index_rebuilds", 0), 1);
        assert_eq!(m.counter("ckptstore.index_rebuilds", 1), 1);
        assert_eq!(m.counter("ckptstore.index_rebuilds", 2), 0, "never touched");
    }
    // A wipe costs the wiped node exactly one more look at its files.
    let (mut w, ..) = runs.into_iter().next().expect("three runs");
    for p in store_paths(&w.nodes[1].fs, STORE_ROOT) {
        w.nodes[1].fs.remove(&p).expect("listed");
    }
    let store = mtcp::store::installed(&w).expect("store installed");
    let mut blob = Blob::new();
    blob.append_bytes(b"after the wipe");
    for gen in 100..103 {
        let path = format!("/ckpt/ckpt_7_gen{gen}.dmtcp");
        store.commit(&mut w, Nanos(gen), NodeId(0), &path, &blob);
    }
    let rebuilds = |w: &World| {
        let m = &w.obs.metrics;
        [0, 1].map(|node| m.counter("ckptstore.index_rebuilds", node))
    };
    assert_eq!(rebuilds(&w), [1, 2]);
    // Uninstalling drops the counts with the rest of the store's state: a
    // store installed again starts from the files on every node.
    ckptstore::uninstall(&mut w);
    ckptstore::install(&mut w, Config::default());
    let store = mtcp::store::installed(&w).expect("store installed");
    store.commit(
        &mut w,
        Nanos(200),
        NodeId(0),
        "/ckpt/ckpt_7_gen103.dmtcp",
        &blob,
    );
    assert_eq!(rebuilds(&w), [2, 3]);
}

// ---------------------------------------------------------------------
// Manifest codec under mutation.
// ---------------------------------------------------------------------

fn rand_manifest(rng: &mut DetRng) -> Manifest {
    let word = |rng: &mut DetRng| -> String {
        (0..rng.range(1, 20))
            .map(|_| char::from(b"abcxyz019-_/.=@"[rng.below(15) as usize]))
            .collect()
    };
    Manifest {
        gen: rng.next_u64() >> rng.below(64),
        logical_len: rng.next_u64() >> rng.below(64),
        src: format!("/{}", word(rng)),
        chunks: (0..rng.below(12))
            .map(|_| ChunkRef {
                id: word(rng),
                len: rng.next_u64() >> rng.below(64),
                off: rng.chance(0.4).then(|| rng.next_u64() >> rng.below(64)),
            })
            .collect(),
    }
}

/// Round trip; then truncate, flip, extend: a damaged manifest decodes to
/// `None` or to the manifest whose encoding is exactly the damaged bytes —
/// never a panic, never a lenient reading of bytes `encode` would not
/// write (a manifest torn at its last newline is not the whole manifest).
#[test]
fn damaged_manifests_decode_to_nothing_or_to_what_the_bytes_spell() {
    let mut rng = DetRng::seed_from_u64(0x3a21_fe57);
    let (mut rejected, mut respelled) = (0u32, 0u32);
    for round in 0..4_000 {
        let man = rand_manifest(&mut rng);
        let good = man.encode();
        assert_eq!(
            Manifest::decode(&good).as_ref(),
            Some(&man),
            "round {round}"
        );
        let mut bad = good.clone();
        match rng.below(3) {
            0 => bad.truncate(rng.below(good.len() as u64) as usize),
            1 => {
                let at = rng.below(good.len() as u64) as usize;
                bad[at] ^= 1 << rng.below(8);
            }
            _ => {
                let extra = b"0 @\n=r";
                bad.extend((0..rng.range(1, 9)).map(|_| extra[rng.below(6) as usize]));
            }
        }
        match Manifest::decode(&bad) {
            None => rejected += 1,
            Some(got) => {
                let spelled = String::from_utf8(got.encode()).expect("text");
                assert_eq!(
                    spelled.as_bytes(),
                    bad,
                    "round {round}: lenient decode of {spelled:?}"
                );
                respelled += 1;
            }
        }
    }
    assert!(
        rejected > 1_000 && respelled > 100,
        "{rejected} / {respelled}"
    );
}

#[test]
fn noncanonical_spellings_are_refused() {
    for bad in [
        "CKPTMAN1 gen=1 len=1 src=/a",       // last line unterminated
        "CKPTMAN1 gen=01 len=1 src=/a\n",    // leading zero
        "CKPTMAN1 gen=+1 len=1 src=/a\n",    // sign
        "CKPTMAN1 len=1 gen=1 src=/a\n",     // fields out of order
        "CKPTMAN1 gen=1 len=1 src=/a b\n",   // space in src
        "CKPTMAN1 gen=1 len=1 src=/a\n\n",   // empty chunk line
        "CKPTMAN1 gen=1 len=1 src=/a\n 1\n", // empty id
        "CKPTMAN1 gen=1 len=1 src=/a\nr0-1 1 @01\n",
        "CKPTMAN1 gen=1 len=1 src=/a\nr0-1 18446744073709551616\n",
    ] {
        assert_eq!(Manifest::decode(bad.as_bytes()), None, "{bad:?}");
    }
}
