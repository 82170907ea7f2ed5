//! Wall-clock timing of calls into each layer, taken from outside the call.

use std::time::{Duration, Instant};

/// Every timed call site, named `<layer>.<call>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    // The runner loop, replayed through `Deployment`'s public API.
    DeploymentNew,
    BulkLoad,
    Prewarm,
    NextRequest,
    TenantPick,
    ServeRead,
    ServeWrite,
    TtlObserve,
    ExpireSweep,
    TtlDecide,
    StorageTick,
    Teardown,
    // Isolated replays of the same stream on fresh layer instances.
    Intern,
    CacheGet,
    CacheInsert,
    SelectPk,
    VersionSelect,
    Replace,
    MvccGetLatest,
    RowDecode,
}

impl Site {
    pub const ALL: [Site; 20] = [
        Site::DeploymentNew,
        Site::BulkLoad,
        Site::Prewarm,
        Site::NextRequest,
        Site::TenantPick,
        Site::ServeRead,
        Site::ServeWrite,
        Site::TtlObserve,
        Site::ExpireSweep,
        Site::TtlDecide,
        Site::StorageTick,
        Site::Teardown,
        Site::Intern,
        Site::CacheGet,
        Site::CacheInsert,
        Site::SelectPk,
        Site::VersionSelect,
        Site::Replace,
        Site::MvccGetLatest,
        Site::RowDecode,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Site::DeploymentNew => "setup.deployment_new",
            Site::BulkLoad => "setup.bulk_load",
            Site::Prewarm => "setup.prewarm",
            Site::NextRequest => "workloads.next_request",
            Site::TenantPick => "workloads.tenant_pick",
            Site::ServeRead => "dcache.serve_kv_read",
            Site::ServeWrite => "dcache.serve_kv_write",
            Site::TtlObserve => "dcache.ttl_observe",
            Site::ExpireSweep => "dcache.expire_sweep_tick",
            Site::TtlDecide => "dcache.ttl_maybe_decide",
            Site::StorageTick => "storekit.tick",
            Site::Teardown => "setup.teardown",
            Site::Intern => "cachekit.intern",
            Site::CacheGet => "cachekit.cache_get",
            Site::CacheInsert => "cachekit.cache_insert",
            Site::SelectPk => "storekit.select_pk",
            Site::VersionSelect => "storekit.version_select",
            Site::Replace => "storekit.replace",
            Site::MvccGetLatest => "storekit.mvcc_get_latest",
            Site::RowDecode => "storekit.row_decode",
        }
    }

    /// Whether the site is timed inside the runner replay, so its time is
    /// part of the replay's wall time.
    pub fn in_runner(self) -> bool {
        (self as usize) <= Site::Teardown as usize
    }
}

/// Per-call durations of every site, in nanoseconds.
#[derive(Debug, Clone)]
pub struct Ledger {
    durations: Vec<Vec<u64>>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            durations: vec![Vec::new(); Site::ALL.len()],
        }
    }
}

impl Ledger {
    fn record(&mut self, site: Site, d: Duration) {
        self.durations[site as usize].push(d.as_nanos() as u64);
    }

    pub fn calls(&self, site: Site) -> u64 {
        self.durations[site as usize].len() as u64
    }

    /// Summed wall time of the site's calls. No timed call nests inside
    /// another, so this is the site's self time.
    pub fn self_s(&self, site: Site) -> f64 {
        self.durations[site as usize].iter().sum::<u64>() as f64 / 1e9
    }

    /// Summed self time of the runner-replay sites: the part of the
    /// replay's wall time the timed calls explain.
    pub fn runner_s(&self) -> f64 {
        Site::ALL
            .iter()
            .filter(|s| s.in_runner())
            .map(|&s| self.self_s(s))
            .sum()
    }

    /// Nearest-rank quantile of one call's duration (0 without calls).
    pub fn quantile_ns(&self, site: Site, q: f64) -> f64 {
        let mut d = self.durations[site as usize].clone();
        if d.is_empty() {
            return 0.0;
        }
        let rank = ((q * d.len() as f64).ceil() as usize).clamp(1, d.len()) - 1;
        *d.select_nth_unstable(rank).1 as f64
    }
}

/// Run `f`, charging its wall time to `site` when a ledger is present.
#[inline(always)]
pub fn timed<T>(ledger: &mut Option<Ledger>, site: Site, f: impl FnOnce() -> T) -> T {
    match ledger {
        None => f(),
        Some(l) => {
            let start = Instant::now();
            let out = f();
            l.record(site, start.elapsed());
            out
        }
    }
}
