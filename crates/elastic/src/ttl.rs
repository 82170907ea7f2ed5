//! Cost-aware TTL control plane — the dual of capacity planning.
//!
//! The MRC planner (this crate's other half) fixes a byte budget and lets
//! eviction pick what stays. Carra et al. ("Elastic Provisioning of Cloud
//! Caches: a Cost-aware TTL Approach") observe the dual knob: fix the *age*
//! at which entries expire and let memory follow. A TTL of T keeps exactly
//! the entries referenced within the last T seconds, so choosing T trades
//! DRAM $/GB·month against miss-CPU $ the same way choosing a capacity
//! does — but it adapts to working-set *churn* for free (dead keys drain
//! after T regardless of capacity) and gives per-tenant isolation that a
//! shared byte budget can't (one tenant's TTL never displaces another's
//! entries).
//!
//! Three pieces, mirroring profiler/planner/controller:
//!
//! * [`AgeHistogram`] — a streaming estimate of hit-ratio-vs-TTL without
//!   storing evicted keys: hash-sample keys SHARDS-style, record the
//!   inter-reference age of each sampled access into log-spaced buckets
//!   (weighted by the inverse sampling rate), and keep enough byte-weighted
//!   moments to also estimate mean resident bytes at any candidate TTL.
//! * [`plan_ttl`] — sweep candidate TTLs (the histogram's bucket edges),
//!   price each one as `P_cpu·miss-CPU + P_mem·resident-GB`, apply the
//!   planner's hit-ratio-floor and hysteresis guards.
//! * [`TtlController`] — the periodic decision loop a deployment embeds,
//!   one per tenant; hands the adopted TTL back for the caller to push
//!   into live caches via `Cache::set_default_ttl`.
//!
//! Deterministic throughout: no RNG, no wall clock. Disabled by default —
//! `TtlConfig::default().enabled()` is false and a disabled controller is
//! inert, so embedding it perturbs no baseline experiment.

use cachekit::fxhash::FxHashMap;
use costmodel::Pricing;

/// Log-spaced age buckets: bucket `i` holds inter-reference ages in
/// `(MIN_AGE·2^{i-1}, MIN_AGE·2^i]` (bucket 0: `[0, MIN_AGE]`), with
/// MIN_AGE = 1 ms. 48 buckets reach ~4 500 years — effectively "never".
const AGE_BUCKETS: usize = 48;
const MIN_AGE_NANOS: u64 = 1_000_000;

/// SHARDS-style sampling modulus; the threshold starts at `P` (track
/// everything) and halves whenever the tracked map outgrows its budget.
const SAMPLE_MODULUS: u64 = 1 << 24;

fn bucket_of(age_nanos: u64) -> usize {
    let a = age_nanos / MIN_AGE_NANOS;
    if a == 0 {
        0
    } else {
        (64 - a.leading_zeros() as usize).min(AGE_BUCKETS - 1)
    }
}

/// Upper age edge of bucket `i`, in nanoseconds.
fn bucket_edge_nanos(i: usize) -> u64 {
    MIN_AGE_NANOS.saturating_mul(1u64 << i.min(40))
}

/// Histogram knobs; part of [`TtlConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgeHistogramConfig {
    /// Cap on sampled keys tracked for last-seen times; the sampling rate
    /// halves (SHARDS) whenever the map would outgrow this.
    pub max_tracked_keys: usize,
    /// Per-decision multiplier on accumulated history (0..1). Lower values
    /// forget faster, which is what lets the plane chase working-set churn;
    /// 1.0 never forgets.
    pub history_decay: f64,
}

impl Default for AgeHistogramConfig {
    fn default() -> Self {
        AgeHistogramConfig { max_tracked_keys: 16_384, history_decay: 0.5 }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct AgeBucket {
    /// Weighted reference count (weight = inverse sampling rate).
    w: f64,
    /// Weighted bytes: Σ weight·entry_bytes.
    wb: f64,
    /// Weighted byte·seconds: Σ weight·entry_bytes·age_secs (exact within
    /// the bucket — binning only coarsens the ≤T classification).
    wba: f64,
}

#[derive(Debug, Clone, Copy)]
struct Tracked {
    last_seen_nanos: u64,
    bytes: u64,
}

/// Streaming inter-reference age histogram over a hash-sampled key stream.
/// See module docs for what it estimates and how.
#[derive(Debug, Clone)]
pub struct AgeHistogram {
    cfg: AgeHistogramConfig,
    threshold: u64,
    tracked: FxHashMap<u64, Tracked>,
    buckets: [AgeBucket; AGE_BUCKETS],
    /// Weighted first-touch references (cold: no TTL makes these hit).
    cold_w: f64,
    /// Observation span accumulated into the closed buckets, decayed in
    /// lockstep with them so byte·sec / span stays consistent.
    span_nanos: f64,
    span_start_nanos: Option<u64>,
    raw_accesses: u64,
}

impl AgeHistogram {
    pub fn new(cfg: AgeHistogramConfig) -> Self {
        AgeHistogram {
            cfg,
            threshold: SAMPLE_MODULUS,
            tracked: FxHashMap::default(),
            buckets: [AgeBucket::default(); AGE_BUCKETS],
            cold_w: 0.0,
            span_nanos: 0.0,
            span_start_nanos: None,
            raw_accesses: 0,
        }
    }

    /// Current inverse sampling rate (1 = every key tracked).
    pub fn rate_inverse(&self) -> f64 {
        SAMPLE_MODULUS as f64 / self.threshold as f64
    }

    pub fn raw_accesses(&self) -> u64 {
        self.raw_accesses
    }

    pub fn tracked_keys(&self) -> usize {
        self.tracked.len()
    }

    /// Record one access to the key with stable hash `hash`, carrying
    /// `bytes` of cache charge, at virtual time `now_nanos`.
    pub fn observe(&mut self, hash: u64, bytes: u64, now_nanos: u64) {
        self.raw_accesses += 1;
        if self.span_start_nanos.is_none() {
            self.span_start_nanos = Some(now_nanos);
        }
        if hash % SAMPLE_MODULUS >= self.threshold {
            return;
        }
        let weight = self.rate_inverse();
        match self.tracked.get_mut(&hash) {
            Some(t) => {
                let age = now_nanos.saturating_sub(t.last_seen_nanos);
                let b = self.buckets.get_mut(bucket_of(age)).expect("bucket in range");
                b.w += weight;
                b.wb += weight * t.bytes as f64;
                b.wba += weight * t.bytes as f64 * (age as f64 * 1e-9);
                t.last_seen_nanos = now_nanos;
                t.bytes = bytes;
            }
            None => {
                self.cold_w += weight;
                self.tracked.insert(hash, Tracked { last_seen_nanos: now_nanos, bytes });
                if self.tracked.len() > self.cfg.max_tracked_keys {
                    self.halve_rate();
                }
            }
        }
    }

    fn halve_rate(&mut self) {
        self.threshold = (self.threshold / 2).max(1);
        let t = self.threshold;
        self.tracked.retain(|h, _| h % SAMPLE_MODULUS < t);
    }

    /// Fold the elapsed window into the decayed history. Called by the
    /// controller once per decision with the window's span.
    fn roll_window(&mut self, window_nanos: f64) {
        self.span_nanos += window_nanos;
        let d = self.cfg.history_decay.clamp(0.0, 1.0);
        if d < 1.0 {
            for b in &mut self.buckets {
                b.w *= d;
                b.wb *= d;
                b.wba *= d;
            }
            self.cold_w *= d;
            self.span_nanos *= d;
        }
    }

    /// Candidate TTLs worth pricing: the bucket edges, in seconds.
    pub fn candidate_ttls_secs(min_secs: f64, max_secs: f64) -> Vec<f64> {
        (0..AGE_BUCKETS)
            .map(|i| bucket_edge_nanos(i) as f64 * 1e-9)
            .filter(|&t| t >= min_secs && t <= max_secs)
            .collect()
    }

    /// Estimated hit ratio if every entry expired `ttl_secs` after its last
    /// write/reference: the weighted fraction of inter-reference ages ≤ TTL
    /// (first touches can never hit, at any TTL).
    pub fn hit_ratio(&self, ttl_secs: f64) -> f64 {
        let ttl_nanos = (ttl_secs * 1e9) as u64;
        let mut hit = 0.0;
        let mut total = self.cold_w;
        for (i, b) in self.buckets.iter().enumerate() {
            total += b.w;
            if bucket_edge_nanos(i) <= ttl_nanos {
                hit += b.w;
            }
        }
        if total <= 0.0 {
            0.0
        } else {
            hit / total
        }
    }

    /// Estimated mean resident bytes at this TTL: each reference keeps its
    /// entry resident for `min(age-to-next-reference, TTL)`; open intervals
    /// (each tracked key's latest access) contribute a full TTL each. The
    /// byte·seconds are averaged over the observed span.
    pub fn mean_resident_bytes(&self, ttl_secs: f64) -> f64 {
        let ttl_nanos = (ttl_secs * 1e9) as u64;
        let mut byte_secs = 0.0;
        for (i, b) in self.buckets.iter().enumerate() {
            if bucket_edge_nanos(i) <= ttl_nanos {
                byte_secs += b.wba;
            } else {
                byte_secs += ttl_secs * b.wb;
            }
        }
        let open_wb: f64 = {
            let w = self.rate_inverse();
            self.tracked.values().map(|t| w * t.bytes as f64).sum()
        };
        byte_secs += ttl_secs * open_wb;
        let span_secs = self.span_nanos * 1e-9;
        if span_secs <= 0.0 {
            0.0
        } else {
            byte_secs / span_secs
        }
    }
}

/// TTL control-plane configuration; `decision_interval_secs == 0` (the
/// default) disables the whole plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TtlConfig {
    /// Simulated seconds between TTL decisions. 0 = disabled.
    pub decision_interval_secs: f64,
    /// Shortest TTL the planner may adopt (seconds).
    pub min_ttl_secs: f64,
    /// Longest TTL the planner may adopt (seconds).
    pub max_ttl_secs: f64,
    /// Baseline CPU per request (µs) independent of the TTL.
    pub hit_cpu_us: f64,
    /// Marginal CPU per miss (µs): the storage round trip a hit avoids.
    pub miss_cpu_us: f64,
    /// Max allowed hit-ratio shortfall vs the longest candidate TTL —
    /// the same degradation bound the capacity planner enforces.
    pub max_miss_ratio_delta: f64,
    /// Minimum relative saving before the adopted TTL switches.
    pub hysteresis_fraction: f64,
    /// Fleet sizing: provisioned cores = used cores / this.
    pub target_utilization: f64,
    pub histogram: AgeHistogramConfig,
}

impl Default for TtlConfig {
    fn default() -> Self {
        TtlConfig {
            decision_interval_secs: 0.0,
            min_ttl_secs: 0.004,
            max_ttl_secs: 7.0 * 86_400.0,
            hit_cpu_us: 60.0,
            miss_cpu_us: 250.0,
            max_miss_ratio_delta: 0.02,
            hysteresis_fraction: 0.05,
            target_utilization: 0.7,
            histogram: AgeHistogramConfig::default(),
        }
    }
}

impl TtlConfig {
    pub fn enabled(&self) -> bool {
        self.decision_interval_secs > 0.0
    }

    /// An enabled config with the given cadence, other knobs default.
    pub fn with_interval(decision_interval_secs: f64) -> Self {
        TtlConfig { decision_interval_secs, ..TtlConfig::default() }
    }
}

/// One TTL decision: the age entries should live to, and what the
/// histogram predicts that buys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TtlPlan {
    /// The adopted TTL, in seconds.
    pub ttl_secs: f64,
    /// Predicted hit ratio at this TTL, from the age histogram.
    pub predicted_hit_ratio: f64,
    /// Predicted mean resident bytes at this TTL.
    pub predicted_resident_bytes: f64,
    /// Projected monthly dollars (compute + resident memory) at current
    /// load.
    pub monthly_dollars: f64,
}

/// Price one candidate TTL at the given load.
fn price_ttl(hist: &AgeHistogram, rps: f64, ttl_secs: f64, cfg: &TtlConfig, pricing: &Pricing) -> TtlPlan {
    let hit = hist.hit_ratio(ttl_secs);
    let resident = hist.mean_resident_bytes(ttl_secs);
    let cpu_us = cfg.hit_cpu_us + (1.0 - hit) * cfg.miss_cpu_us;
    let provisioned_cores = rps * cpu_us * 1e-6 / cfg.target_utilization.max(1e-6);
    let monthly = provisioned_cores * pricing.cpu_core_month
        + resident / (1u64 << 30) as f64 * pricing.mem_gb_month;
    TtlPlan {
        ttl_secs,
        predicted_hit_ratio: hit,
        predicted_resident_bytes: resident,
        monthly_dollars: monthly,
    }
}

/// Pick the dollar-minimizing TTL subject to the hit-ratio floor, with
/// hysteresis against `prev`. Pure and deterministic — the TTL dual of
/// [`crate::planner::plan`].
pub fn plan_ttl(
    hist: &AgeHistogram,
    rps: f64,
    cfg: &TtlConfig,
    pricing: &Pricing,
    prev: Option<&TtlPlan>,
) -> TtlPlan {
    let mut ttls = AgeHistogram::candidate_ttls_secs(cfg.min_ttl_secs, cfg.max_ttl_secs);
    if ttls.is_empty() {
        ttls.push(cfg.max_ttl_secs.max(cfg.min_ttl_secs));
    }
    let reference = price_ttl(hist, rps, *ttls.last().expect("non-empty"), cfg, pricing);
    let floor = reference.predicted_hit_ratio - cfg.max_miss_ratio_delta;
    let mut best = reference;
    for &t in &ttls {
        let p = price_ttl(hist, rps, t, cfg, pricing);
        if p.predicted_hit_ratio < floor {
            continue;
        }
        // Strict `<` keeps the shorter TTL on ties (grid is ascending).
        if p.monthly_dollars < best.monthly_dollars {
            best = p;
        }
    }
    if let Some(prev) = prev {
        // Re-price the incumbent at current load; keep it unless the
        // challenger clears the hysteresis margin.
        let incumbent = price_ttl(hist, rps, prev.ttl_secs, cfg, pricing);
        let margin = incumbent.monthly_dollars * (1.0 - cfg.hysteresis_fraction);
        if best.ttl_secs != incumbent.ttl_secs && best.monthly_dollars >= margin {
            return incumbent;
        }
    }
    best
}

/// Streaming histogram + periodic TTL planner. One per cache (or per
/// tenant); the deployment feeds it every access and applies the TTLs it
/// returns. Mirrors [`crate::ElasticController`].
#[derive(Debug, Clone)]
pub struct TtlController {
    cfg: TtlConfig,
    hist: AgeHistogram,
    current: Option<TtlPlan>,
    window_start_secs: Option<f64>,
    window_requests: u64,
    decisions: u64,
    ttl_changes: u64,
}

impl TtlController {
    pub fn new(cfg: TtlConfig) -> Self {
        TtlController {
            hist: AgeHistogram::new(cfg.histogram),
            cfg,
            current: None,
            window_start_secs: None,
            window_requests: 0,
            decisions: 0,
            ttl_changes: 0,
        }
    }

    pub fn config(&self) -> &TtlConfig {
        &self.cfg
    }

    pub fn enabled(&self) -> bool {
        self.cfg.enabled()
    }

    pub fn histogram(&self) -> &AgeHistogram {
        &self.hist
    }

    /// The most recent plan, if any decision has fired yet.
    pub fn current_plan(&self) -> Option<&TtlPlan> {
        self.current.as_ref()
    }

    /// The adopted TTL in nanoseconds, for `Cache::set_default_ttl`.
    pub fn current_ttl_nanos(&self) -> Option<u64> {
        self.current.map(|p| (p.ttl_secs * 1e9) as u64)
    }

    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Decisions that changed the adopted TTL.
    pub fn ttl_changes(&self) -> u64 {
        self.ttl_changes
    }

    /// Feed one access by stable key hash. No-op when disabled.
    pub fn observe_hashed(&mut self, hash: u64, bytes: u64, now_nanos: u64) {
        if !self.cfg.enabled() {
            return;
        }
        self.hist.observe(hash, bytes, now_nanos);
        self.window_requests += 1;
    }

    /// Run a decision if a full interval has elapsed since the last one.
    /// Returns the (possibly unchanged) plan when a decision fires.
    pub fn maybe_decide(&mut self, now_secs: f64, pricing: &Pricing) -> Option<TtlPlan> {
        if !self.cfg.enabled() {
            return None;
        }
        let start = match self.window_start_secs {
            None => {
                // First tick opens the measurement window; no decision yet.
                self.window_start_secs = Some(now_secs);
                return None;
            }
            Some(s) => s,
        };
        let elapsed = now_secs - start;
        if elapsed < self.cfg.decision_interval_secs {
            return None;
        }
        let rps = self.window_requests as f64 / elapsed.max(1e-9);
        self.hist.roll_window(elapsed * 1e9);
        let next = plan_ttl(&self.hist, rps, &self.cfg, pricing, self.current.as_ref());
        self.decisions += 1;
        if self.current.map(|p| p.ttl_secs) != Some(next.ttl_secs) {
            self.ttl_changes += 1;
        }
        self.current = Some(next);
        self.window_start_secs = Some(now_secs);
        self.window_requests = 0;
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekit::ring::splitmix64;

    const SEC: u64 = 1_000_000_000;

    fn enabled_cfg() -> TtlConfig {
        TtlConfig::with_interval(10.0)
    }

    /// Feed `keys` keys round-robin so every key is re-referenced every
    /// `gap_secs`, for `rounds` rounds. Returns the final virtual time.
    fn round_robin(h: &mut AgeHistogram, keys: u64, gap_secs: f64, rounds: u64, bytes: u64) -> u64 {
        let gap = (gap_secs * 1e9) as u64;
        let step = gap / keys;
        let mut now = 0u64;
        for r in 0..rounds {
            for k in 0..keys {
                now = r * gap + k * step;
                h.observe(splitmix64(k ^ 0x9e37), bytes, now);
            }
        }
        now
    }

    #[test]
    fn default_config_is_disabled_and_inert() {
        let cfg = TtlConfig::default();
        assert!(!cfg.enabled());
        let mut c = TtlController::new(cfg);
        c.observe_hashed(7, 100, 0);
        assert_eq!(c.histogram().raw_accesses(), 0, "disabled observe is a no-op");
        assert_eq!(c.maybe_decide(1_000.0, &Pricing::default()), None);
        assert_eq!(c.decisions(), 0);
        assert_eq!(c.current_ttl_nanos(), None);
    }

    #[test]
    fn histogram_separates_ages_around_the_ttl() {
        // Keys re-referenced every 1 s: a 2 s TTL catches every
        // re-reference, a 0.25 s TTL catches none.
        let mut h = AgeHistogram::new(AgeHistogramConfig::default());
        round_robin(&mut h, 64, 1.0, 20, 1_000);
        assert!(h.hit_ratio(2.0) > 0.9, "long TTL must hit: {}", h.hit_ratio(2.0));
        assert!(h.hit_ratio(0.25) < 0.05, "short TTL must miss: {}", h.hit_ratio(0.25));
    }

    #[test]
    fn resident_bytes_scale_with_ttl_until_the_reference_gap() {
        let mut h = AgeHistogram::new(AgeHistogramConfig::default());
        h.span_nanos = 0.0;
        let end = round_robin(&mut h, 64, 1.0, 40, 1_000);
        h.roll_window(end as f64);
        // Below the 1 s gap residency grows ~linearly with TTL; past it
        // every key is always resident and the curve flattens near the
        // full working set (64 keys × 1 000 B).
        let r_short = h.mean_resident_bytes(0.125);
        let r_gap = h.mean_resident_bytes(1.1);
        let r_long = h.mean_resident_bytes(600.0);
        assert!(r_short < r_gap, "residency must grow with TTL: {r_short} vs {r_gap}");
        assert!(r_gap > 30_000.0 && r_gap < 130_000.0, "~working set at the gap: {r_gap}");
        // Long TTLs can't exceed span-average bounds by much: still ~WS
        // plus the open-interval tail.
        assert!(r_long >= r_gap, "{r_long} vs {r_gap}");
    }

    #[test]
    fn expensive_memory_adopts_short_ttls_expensive_misses_long_ones() {
        let run = |pricing: &Pricing, miss_cpu_us: f64| {
            let mut cfg = enabled_cfg();
            cfg.miss_cpu_us = miss_cpu_us;
            // Hit floor off so pure economics decide.
            cfg.max_miss_ratio_delta = 1.0;
            let mut h = AgeHistogram::new(cfg.histogram);
            let end = round_robin(&mut h, 64, 1.0, 40, 1_000_000);
            h.roll_window(end as f64);
            plan_ttl(&h, 10_000.0, &cfg, pricing, None)
        };
        // DRAM at 1000× list price, nearly-free misses → expire fast.
        let dear_mem = run(&Pricing::default().with_memory_multiplier(1_000.0), 1e-3);
        // Free-ish DRAM, dear misses → keep entries past the 1 s gap.
        let dear_miss = run(&Pricing { mem_gb_month: 1e-6, ..Pricing::default() }, 500.0);
        assert!(
            dear_mem.ttl_secs < 1.0,
            "dear DRAM must pick a sub-gap TTL: {}",
            dear_mem.ttl_secs
        );
        assert!(
            dear_miss.ttl_secs >= 1.0,
            "dear misses must keep entries across the gap: {}",
            dear_miss.ttl_secs
        );
        assert!(dear_miss.predicted_hit_ratio > 0.9);
    }

    #[test]
    fn decisions_fire_on_the_interval_and_steady_load_does_not_flap() {
        let mut c = TtlController::new(enabled_cfg());
        let pricing = Pricing::default();
        assert_eq!(c.maybe_decide(0.0, &pricing), None, "first tick only opens window");
        let mut ttls = Vec::new();
        for round in 1..=8u64 {
            for i in 0..10_000u64 {
                // ~1 s re-reference gap across 1 000 keys within the round.
                let now = (round - 1) * 10 * SEC + i * SEC / 1_000;
                c.observe_hashed(splitmix64(i % 1_000), 1_024, now);
            }
            assert_eq!(
                c.maybe_decide(round as f64 * 10.0 - 5.0, &pricing),
                None,
                "interval not elapsed"
            );
            let p = c.maybe_decide(round as f64 * 10.0, &pricing).expect("decision fires");
            ttls.push(p.ttl_secs);
        }
        assert_eq!(c.decisions(), 8);
        let tail = &ttls[ttls.len() - 4..];
        assert!(
            tail.windows(2).all(|w| w[0] == w[1]),
            "TTL flapped under steady load: {ttls:?}"
        );
        assert!(c.ttl_changes() <= 3, "{} changes: {ttls:?}", c.ttl_changes());
    }

    #[test]
    fn churn_with_decay_shrinks_residency_estimates() {
        // A working set that rotates: without decay the histogram would
        // keep pricing dead epochs' long tails forever.
        let cfg = AgeHistogramConfig {
            history_decay: 0.3,
            ..Default::default()
        };
        let mut h = AgeHistogram::new(cfg);
        let mut now = 0u64;
        for epoch in 0..6u64 {
            for r in 0..20u64 {
                for k in 0..64u64 {
                    now = epoch * 20 * SEC + r * SEC + k * SEC / 64;
                    h.observe(splitmix64(epoch * 1_000 + k), 1_000, now);
                }
            }
            h.roll_window(20.0 * 1e9);
        }
        let _ = now;
        // At a 2 s TTL only the live epoch is resident: ~64 KB, not 6×.
        let r = h.mean_resident_bytes(2.0);
        assert!(r < 200_000.0, "dead epochs still resident: {r}");
        assert!(h.hit_ratio(2.0) > 0.8, "live epoch must still hit");
    }

    #[test]
    fn sampling_rate_halves_under_key_pressure_and_stays_bounded() {
        let cfg = AgeHistogramConfig {
            max_tracked_keys: 256,
            ..Default::default()
        };
        let mut h = AgeHistogram::new(cfg);
        for i in 0..100_000u64 {
            h.observe(splitmix64(i), 100, i * 1_000);
        }
        assert!(h.tracked_keys() <= 256, "{} tracked", h.tracked_keys());
        assert!(h.rate_inverse() > 1.0, "rate never halved");
    }

    #[test]
    fn controller_is_deterministic() {
        let run = || {
            let mut c = TtlController::new(enabled_cfg());
            let pricing = Pricing::default();
            c.maybe_decide(0.0, &pricing);
            let mut out = Vec::new();
            for round in 1..=4u64 {
                for i in 0..5_000u64 {
                    let now = (round - 1) * 10 * SEC + i * 2 * SEC / 1_000;
                    c.observe_hashed(splitmix64(i % 700), 512, now);
                }
                out.push(c.maybe_decide(round as f64 * 10.0, &pricing));
            }
            format!("{out:?}")
        };
        assert_eq!(run(), run());
    }
}
