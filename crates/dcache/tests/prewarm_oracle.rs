//! `Deployment::prewarm_kv` against its definition: one
//! `serve_kv_read(table, k, SimTime::ZERO)` per key.
//!
//! Per configuration, two deployments load the same rows. One is warmed by
//! `prewarm_kv`, the other by the per-key serve loop, and both reset their
//! metrics at the measurement boundary. The prewarm bills nothing, so from
//! there on they must be indistinguishable: one splitmix64 stream of reads,
//! writes and deletes at advancing times drives both, and after every
//! request the oracle compares the `ServeOutcome`, every app, cache-node,
//! front-end and storage-pod meter, the cache, L0, block-cache and
//! durability counters and the resident cache bytes. Any state the fast
//! path leaves differently (cache order, TinyLFU sketches, L0 residency,
//! block caches, round-robin pointers, leases, the elastic profiler, interned
//! ids) shows up there as soon as the stream touches it.
//!
//! The prewarm covers most loaded keys, a few keys that were never loaded,
//! and leaves some loaded keys cold for the stream, so admission gates see
//! warmed and cold keys compete. It passes its keys in ascending order, as
//! the experiment runners do, so each storage read finds its row at the
//! position hint the read before it left; some cases pass them descending
//! or shuffled, so every hint misses, and some first write a few
//! never-loaded keys with a `REPLACE` that skips the caches, so the prewarm
//! finds them in the engines' tails. Some cases repeat loaded and missing
//! keys, so the prewarm takes the hit paths (version checks included), and
//! some crash cache shard 0 halfway through the prewarm and restart it
//! before the stream, so the prewarm takes the degraded and retry paths.

use costmodel::Pricing;
use dcache::deployment::{fault_counters, kv_catalog, Deployment};
use dcache::{ArchKind, BatchingConfig, DeploymentConfig, L0Config};
use simnet::{SimDuration, SimTime};
use storekit::value::Datum;
use storekit::{DurabilityConfig, FsyncPolicy};
use workloads::tenants::namespaced_key;

/// Keys loaded into storage.
const LOADED: u64 = 400;
/// Loaded keys the prewarm covers; the rest stay cold.
const PREWARMED: u64 = 320;
/// Never-loaded keys the prewarm reads (negative lookups).
const MISSING: u64 = 6;
/// Never-loaded keys that [`Case::inserting`] cases write before the
/// prewarm, after the missing ones.
const INSERTED: u64 = 4;
/// In [`Case::repeating`] cases, every this-many prewarmed key is read a
/// second time, along with the first two missing keys.
const REPEAT_EVERY: usize = 16;
/// Requests in each stream.
const REQUESTS: usize = 2_400;
/// Simulated time between requests: the stream spans 12 s, past the
/// LinkedTtl expiry and through a dozen heartbeats.
const STEP: SimDuration = SimDuration::from_millis(5);
/// Requests between heartbeats (raft tick, lease renewal, elastic check).
const HEARTBEAT: usize = 200;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The order of each prewarm batch's keys.
#[derive(Clone, Copy)]
enum Order {
    Ascending,
    Descending,
    Shuffled,
}

/// One configuration of the matrix.
struct Case {
    label: &'static str,
    cfg: DeploymentConfig,
    /// Keys namespaced over two tenants, prewarmed tenant by tenant.
    tenants: bool,
    /// Whether `prewarm_kv` must take the per-key serve loop.
    serves: bool,
    order: Order,
    /// Whether [`INSERTED`] keys are written through SQL before the
    /// prewarm, which then reads them.
    inserts: bool,
    /// Whether the prewarm reads some keys twice.
    repeats: bool,
    /// Whether cache shard 0 is down for the second half of each prewarm
    /// batch.
    crashes: bool,
    /// The stream request before which shard 0 restarts (0: before the
    /// stream).
    restart_at: usize,
}

impl Case {
    fn new(label: &'static str, arch: ArchKind, tweak: impl FnOnce(&mut DeploymentConfig)) -> Case {
        let mut cfg = DeploymentConfig::test_small(arch);
        tweak(&mut cfg);
        let serves = cfg.fault_tolerance.single_flight || cfg.batching.enabled();
        Case {
            label,
            cfg,
            tenants: false,
            serves,
            order: Order::Ascending,
            inserts: false,
            repeats: false,
            crashes: false,
            restart_at: 0,
        }
    }

    fn repeating(mut self) -> Case {
        self.repeats = true;
        self
    }

    fn crashing(mut self) -> Case {
        self.crashes = true;
        self
    }

    /// Shard 0 stays down for the stream's first `requests` requests, and
    /// a 3 ms deadline cuts retries short: a down shard's reads draw their
    /// retry jitter from the deployment's fault RNG, so a prewarm that
    /// retried a different number of times shows up in their latencies.
    fn down_until(mut self, requests: usize) -> Case {
        self.crashes = true;
        self.restart_at = requests;
        self.cfg.fault_tolerance.request_deadline = SimDuration::from_millis(3);
        self
    }

    fn in_order(mut self, order: Order) -> Case {
        self.order = order;
        self
    }

    fn inserting(mut self) -> Case {
        self.inserts = true;
        self
    }

    /// The storage key of key index `i`.
    fn key(&self, i: u64) -> i64 {
        if self.tenants {
            namespaced_key((i % 2) as usize, i / 2) as i64
        } else {
            i as i64
        }
    }

    /// Never-loaded key indices written before the prewarm.
    fn inserted(&self) -> std::ops::Range<u64> {
        let first = LOADED + MISSING;
        first..first + if self.inserts { INSERTED } else { 0 }
    }

    /// The prewarm's key batches: one, or one per tenant, each in the
    /// case's order.
    fn prewarm_batches(&self) -> Vec<Vec<i64>> {
        let repeated = (0..PREWARMED)
            .step_by(REPEAT_EVERY)
            .chain(LOADED..LOADED + 2)
            .filter(|_| self.repeats);
        let indices = (0..PREWARMED)
            .chain(LOADED..LOADED + MISSING)
            .chain(self.inserted())
            .chain(repeated);
        let mut batches: Vec<Vec<i64>> = if self.tenants {
            (0..2)
                .map(|t| indices.clone().filter(|i| i % 2 == t).map(|i| self.key(i)).collect())
                .collect()
        } else {
            vec![indices.map(|i| self.key(i)).collect()]
        };
        let mut rng = 0x0DE2 ^ self.cfg.arch as u64;
        for batch in &mut batches {
            match self.order {
                Order::Ascending => {}
                Order::Descending => batch.reverse(),
                Order::Shuffled => {
                    for i in (1..batch.len()).rev() {
                        batch.swap(i, (splitmix64(&mut rng) % (i as u64 + 1)) as usize);
                    }
                }
            }
        }
        batches
    }

    /// The loaded deployment, with the inserted keys written through SQL
    /// (which bypasses the caches) and its metrics reset.
    fn deployment(&self) -> Deployment {
        let mut d = Deployment::new(self.cfg.clone(), kv_catalog("kv"));
        d.cluster
            .bulk_load(
                "kv",
                (0..LOADED).map(|i| vec![Datum::Int(self.key(i)), payload(i, 0)]),
            )
            .unwrap();
        for i in self.inserted() {
            let row = [Datum::Int(self.key(i)), payload(i, 1)];
            d.cluster
                .execute("REPLACE INTO kv VALUES (?, ?)", &row, SimTime::ZERO)
                .unwrap();
        }
        let pods = 0..d.cluster.storages.len();
        let tails = pods
            .map(|p| d.cluster.engine(p).layout().tail)
            .sum::<usize>();
        assert_eq!(
            tails > 0,
            self.inserts,
            "{}: keys in the engines' tails",
            self.label
        );
        d.reset_metrics();
        d
    }
}

/// Value sizes vary from 200 B to 2 KB, so evicting caches churn unevenly.
fn payload(i: u64, seed: u64) -> Datum {
    Datum::Payload {
        len: 200 + (i * 37 + seed) % 1_800,
        seed,
    }
}

/// Caches of 64 KB per shard: the prewarm itself evicts.
fn evicting(cfg: &mut DeploymentConfig) {
    cfg.linked_cache_bytes_per_server = 64 << 10;
    cfg.remote_cache_bytes_per_node = 64 << 10;
}

fn small_l0() -> Option<L0Config> {
    Some(L0Config {
        bytes_per_server: 32 << 10,
        ..L0Config::default()
    })
}

fn cases() -> Vec<Case> {
    let mut cases: Vec<Case> = ArchKind::ALL
        .into_iter()
        .map(|arch| Case::new(arch.label(), arch, |_| {}))
        .collect();
    cases.extend([
        Case::new("linked, SLRU, evicting", ArchKind::Linked, |c| {
            evicting(c);
            c.cache_policy = cachekit::PolicyKind::Slru;
        }),
        Case::new("remote, FIFO, evicting", ArchKind::Remote, |c| {
            evicting(c);
            c.cache_policy = cachekit::PolicyKind::Fifo;
        }),
        Case::new("linked, TinyLFU, evicting", ArchKind::Linked, |c| {
            evicting(c);
            c.cache_admission = true;
        }),
        Case::new("remote, TinyLFU, evicting", ArchKind::Remote, |c| {
            evicting(c);
            c.cache_admission = true;
        }),
        Case::new("remote + L0", ArchKind::Remote, |c| c.l0 = small_l0()),
        Case::new("linked + L0, evicting", ArchKind::Linked, |c| {
            evicting(c);
            c.l0 = small_l0();
        }),
        Case::new("remote, elastic", ArchKind::Remote, |c| {
            c.elastic = elastic::ElasticConfig::with_interval(1.0);
        }),
        Case::new("linked, elastic", ArchKind::Linked, |c| {
            c.elastic = elastic::ElasticConfig::with_interval(1.0);
        }),
        Case::new("linked, durable", ArchKind::Linked, |c| {
            c.cluster.durability = DurabilityConfig {
                enabled: true,
                fsync: FsyncPolicy::Group(4),
                snapshot_every_entries: 64,
            };
        }),
        Case::new("remote, single-flight", ArchKind::Remote, |c| {
            c.fault_tolerance.single_flight = true;
        }),
        Case::new("linked, single-flight", ArchKind::Linked, |c| {
            c.fault_tolerance.single_flight = true;
        }),
        Case::new("remote, batching", ArchKind::Remote, |c| {
            c.batching = BatchingConfig {
                batch_window_us: 50.0,
                max_batch: 8,
            };
        }),
    ]);
    for arch in [ArchKind::Remote, ArchKind::LeaseOwned] {
        let mut case = Case::new("tenant keys", arch, |_| {});
        case.tenants = true;
        cases.push(case);
    }
    for arch in ArchKind::ALL {
        cases.extend([
            Case::new("descending", arch, |_| {}).in_order(Order::Descending),
            Case::new("shuffled", arch, |_| {}).in_order(Order::Shuffled),
            Case::new("keys in the tails", arch, |_| {}).inserting(),
        ]);
    }
    cases.extend([
        Case::new("keys in the tails, shuffled", ArchKind::Linked, |_| {})
            .inserting()
            .in_order(Order::Shuffled),
        Case::new("remote + L0, descending", ArchKind::Remote, |c| {
            c.l0 = small_l0()
        })
        .in_order(Order::Descending),
        Case::new(
            "linked, durable, keys in the tails",
            ArchKind::Linked,
            |c| {
                c.cluster.durability = DurabilityConfig {
                    enabled: true,
                    fsync: FsyncPolicy::Group(4),
                    snapshot_every_entries: 64,
                };
            },
        )
        .inserting(),
    ]);
    let mut case = Case::new("tenant keys, shuffled", ArchKind::Remote, |_| {});
    case.tenants = true;
    cases.push(case.in_order(Order::Shuffled));
    for arch in ArchKind::ALL {
        cases.push(Case::new("repeated keys", arch, |_| {}).repeating());
        if arch != ArchKind::Base {
            cases.push(Case::new("shard down", arch, |_| {}).crashing());
        }
    }
    cases.extend([
        Case::new("remote + L0, repeated keys, shuffled", ArchKind::Remote, |c| {
            c.l0 = small_l0()
        })
        .repeating()
        .in_order(Order::Shuffled),
        Case::new("linked, TinyLFU, evicting, repeated keys", ArchKind::Linked, |c| {
            evicting(c);
            c.cache_admission = true;
        })
        .repeating(),
        Case::new("remote + L0, shard down", ArchKind::Remote, |c| c.l0 = small_l0()).crashing(),
        Case::new("remote, shard down into the stream", ArchKind::Remote, |_| {})
            .down_until(REQUESTS / 4),
        Case::new("remote + L0, shard down into the stream", ArchKind::Remote, |c| {
            c.l0 = small_l0()
        })
        .down_until(REQUESTS / 4),
        Case::new("linked, shard down into the stream", ArchKind::Linked, |_| {})
            .down_until(REQUESTS / 4),
        Case::new("linked + L0, shard down, repeated keys", ArchKind::Linked, |c| {
            c.l0 = small_l0()
        })
        .crashing()
        .repeating(),
    ]);
    cases
}

/// Every meter and counter the oracle compares, in one string.
fn snapshot(d: &Deployment) -> String {
    let meter = |m: &simnet::CpuMeter| format!("{:?}", m.breakdown().collect::<Vec<_>>());
    let mut s = String::new();
    for m in d.app_cpu.iter().chain(&d.cache_cpu) {
        s += &meter(m);
    }
    for f in &d.cluster.frontends {
        s += &meter(&f.cpu);
    }
    for p in &d.cluster.storages {
        s += &meter(&p.cpu);
    }
    s += &format!(
        "\nlinked {:?}\nremote {:?}\nl0 {:?}\nblocks {:?}\nresident {}\ndurable {:?}\nelastic {:?} {}",
        d.linked_stats(),
        d.remote_stats(),
        d.l0_stats_total(),
        d.cluster.block_cache_counts(),
        d.cache_resident_bytes(),
        d.cluster.durability_stats(),
        d.elastic.current_plan(),
        d.elastic.profiler().sampled_accesses(),
    );
    s
}

/// Sum of every CPU meter in the deployment.
fn billed(d: &Deployment) -> SimDuration {
    d.app_cpu_total().total()
        + d.cache_cpu_total().total()
        + d.cluster.frontend_cpu_total().total()
        + d.cluster.storage_cpu_total().total()
}

/// One request of the stream, on one deployment.
fn serve(d: &mut Deployment, op: u64, key: i64, value: Datum, now: SimTime) -> String {
    let out = match op % 10 {
        0..=6 => d.serve_kv_read("kv", key, now),
        7..=8 => d.serve_kv_write("kv", key, value, now),
        _ => d.serve_kv_delete("kv", key, now),
    };
    format!("{out:?}")
}

fn heartbeat(d: &mut Deployment, now: SimTime, pricing: &Pricing) {
    d.cluster.tick(now);
    d.sharder.renew_all(now);
    if let Some(plan) = d.elastic.maybe_decide(now.as_secs_f64(), pricing) {
        d.apply_elastic_plan(plan, now);
    }
}

/// Prewarm `keys` on `d`, by serving each or by `prewarm_kv`.
fn prewarm(d: &mut Deployment, serves: bool, keys: &[i64]) {
    if serves {
        for &k in keys {
            d.serve_kv_read("kv", k, SimTime::ZERO).unwrap();
        }
    } else {
        d.prewarm_kv("kv", keys.iter().copied()).unwrap();
    }
}

fn check(case: &Case) {
    let label = format!("{} ({:?})", case.label, case.cfg.arch);
    let mut fast = case.deployment();
    let mut served = case.deployment();
    for keys in case.prewarm_batches() {
        let (head, tail) = keys.split_at(keys.len() / 2);
        for (d, serves) in [(&mut fast, false), (&mut served, true)] {
            prewarm(d, serves, head);
            if case.crashes {
                d.crash_cache_shard(0);
            }
            prewarm(d, serves, tail);
            if case.crashes && case.restart_at == 0 {
                d.restart_cache_shard(0);
            }
        }
    }
    for d in [&fast, &served] {
        let hits = d.linked_stats().hits + d.remote_stats().hits;
        let cached = case.cfg.arch != ArchKind::Base;
        assert_eq!(hits > 0, case.repeats && cached, "{label}: prewarm hits");
        let degraded = d.metrics.counter_value(fault_counters::DEGRADED_READS);
        assert_eq!(degraded > 0, case.crashes, "{label}: degraded prewarm reads");
    }
    // Only the opt-in tiers fall back to serving, and so bill the prewarm.
    assert_eq!(billed(&fast) > SimDuration::ZERO, case.serves, "{label}: prewarm billing");
    fast.reset_metrics();
    served.reset_metrics();
    assert_eq!(snapshot(&fast), snapshot(&served), "{label}: after prewarm");

    let pricing = Pricing::default();
    let mut rng = 0x5eed ^ case.cfg.arch as u64;
    let mut now = SimTime::ZERO;
    for i in 0..REQUESTS {
        now += STEP;
        if i % HEARTBEAT == 0 {
            heartbeat(&mut fast, now, &pricing);
            heartbeat(&mut served, now, &pricing);
        }
        if case.crashes && i == case.restart_at && i > 0 {
            fast.restart_cache_shard(0);
            served.restart_cache_shard(0);
        }
        let key = case.key(splitmix64(&mut rng) % (LOADED + MISSING + 2));
        let op = splitmix64(&mut rng);
        let value = payload(key as u64, splitmix64(&mut rng) % 1_000 + 1);
        let a = serve(&mut fast, op, key, value.clone(), now);
        let b = serve(&mut served, op, key, value, now);
        assert_eq!(a, b, "{label}: outcome of request {i} (key {key})");
        assert_eq!(
            snapshot(&fast),
            snapshot(&served),
            "{label}: state after request {i} (key {key})"
        );
    }
}

#[test]
fn prewarm_kv_leaves_what_serving_each_key_leaves() {
    let cases = cases();
    for case in &cases {
        check(case);
    }
    println!(
        "prewarm oracle: {} cases, {REQUESTS} requests each, after {} prewarmed keys \
         ({} more in the inserting cases, {} repeated in the repeating ones; {} cases \
         with a shard down)",
        cases.len(),
        PREWARMED + MISSING,
        INSERTED,
        PREWARMED as usize / REPEAT_EVERY + 2,
        cases.iter().filter(|c| c.crashes).count(),
    );
}

#[test]
fn prewarm_kv_rejects_an_unknown_table() {
    // An unknown table fails before any key is touched.
    let mut d = Case::new("unknown table", ArchKind::Linked, |_| {}).deployment();
    let before = snapshot(&d);
    assert!(d.prewarm_kv("ghost", [1]).is_err());
    assert_eq!(snapshot(&d), before);
}
