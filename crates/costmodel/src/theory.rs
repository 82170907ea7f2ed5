//! The §4 theoretical model.
//!
//! `T(s_A, s_D) = QPS · (MR(s_A)·c_A + MR(s_A + s_D)·c_D) + c_M · (s_A·N_r + s_D)`
//!
//! * `s_A` — linked-cache size per app deployment (GB); replicated `N_r`×.
//! * `s_D` — storage-layer cache size (GB); shared, so billed once.
//! * `MR(x)` — miss ratio of a cache of `x` GB. The model uses the
//!   idealized top-`c` Zipf miss ratio (a cache of `c` entries holds the
//!   `c` hottest keys), computed in O(1) from a popularity prefix sum —
//!   exact under LFU and the standard analytic stand-in for LRU. (`cachekit`
//!   offers Che's LRU approximation for cross-checks at small keyspaces.)
//! * `c_A` — CPU cost of a linked-cache miss, in core-seconds per request
//!   (the app must fetch from storage and deserialize).
//! * `c_D` — additional CPU cost when the storage-layer cache also misses
//!   (disk path).
//! * `c_M` — DRAM price; CPU is priced per steady-state core.
//!
//! Defaults follow the paper's production regime: 40K QPS (§5.2's Unity
//! Catalog rate), ≈23 KB mean entries, a keyspace well beyond DRAM. The
//! paper's takeaways, asserted by tests and regenerated by the `fig2_theory`
//! bench: a unit of linked cache buys more than a unit of storage cache
//! (`|∂T/∂s_A| > |∂T/∂s_D|` in the growth region), the saving grows with
//! skew (Figure 2a), and optimally-sized caches keep saving under heavy
//! replication or 40× memory prices (Figure 2b).

use crate::pricing::Pricing;

const SECONDS_PER_MONTH: f64 = 30.0 * 24.0 * 3600.0;

/// Workload and cost parameters of the model.
#[derive(Debug, Clone)]
pub struct TheoryParams {
    /// Request rate.
    pub qps: f64,
    /// Keyspace size.
    pub keys: u64,
    /// Zipf skew of key popularity.
    pub alpha: f64,
    /// Mean bytes per cached entry (value + overhead).
    pub mean_entry_bytes: f64,
    /// Core·seconds of CPU per linked-cache miss (app + storage read path).
    pub c_a_core_secs: f64,
    /// Additional core·seconds when the storage-layer cache also misses.
    pub c_d_core_secs: f64,
    /// Replicas of the linked cache (`N_r`).
    pub replicas: f64,
    pub pricing: Pricing,
}

impl Default for TheoryParams {
    fn default() -> Self {
        TheoryParams {
            qps: 40_000.0,
            keys: 10_000_000,
            alpha: 1.2,
            mean_entry_bytes: 23_000.0,
            // ~180 µs of combined app+frontend+storage CPU per miss; ~70 µs
            // extra for the disk path — the regime measured in §5.3.
            c_a_core_secs: 180e-6,
            c_d_core_secs: 70e-6,
            replicas: 1.0,
            pricing: Pricing::default(),
        }
    }
}

/// The evaluated model over a precomputed popularity prefix sum.
#[derive(Debug, Clone)]
pub struct TheoryModel {
    pub params: TheoryParams,
    /// `prefix[c]` = total popularity of the `c` hottest keys; `prefix[0]=0`.
    prefix: Vec<f64>,
}

impl TheoryModel {
    pub fn new(params: TheoryParams) -> Self {
        let n = params.keys as usize;
        let mut prefix = Vec::with_capacity(n + 1);
        prefix.push(0.0);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-params.alpha);
            prefix.push(acc);
        }
        let total = acc;
        for p in &mut prefix {
            *p /= total;
        }
        TheoryModel { params, prefix }
    }

    fn entries_for_gb(&self, gb: f64) -> usize {
        ((gb * 1e9) / self.params.mean_entry_bytes).floor().max(0.0) as usize
    }

    /// Miss ratio of a cache of `gb` gigabytes under this workload.
    pub fn miss_ratio(&self, gb: f64) -> f64 {
        if gb <= 0.0 {
            return 1.0;
        }
        let c = self.entries_for_gb(gb).min(self.prefix.len() - 1);
        1.0 - self.prefix[c]
    }

    /// Monthly cost `T(s_A, s_D)` in dollars.
    pub fn total_cost(&self, s_a_gb: f64, s_d_gb: f64) -> f64 {
        let p = &self.params;
        let mr_a = self.miss_ratio(s_a_gb);
        let mr_ad = self.miss_ratio(s_a_gb + s_d_gb);
        // cores = core·seconds per second of traffic
        let compute_cores = p.qps * (mr_a * p.c_a_core_secs + mr_ad * p.c_d_core_secs);
        let compute = compute_cores * p.pricing.cpu_core_month;
        let memory = (s_a_gb * p.replicas + s_d_gb) * p.pricing.mem_gb_month;
        compute + memory
    }

    /// Numerical `∂T/∂s_A` at `(s_a, s_d)` (forward difference, clamped at 0).
    pub fn d_ds_a(&self, s_a_gb: f64, s_d_gb: f64) -> f64 {
        let h = 0.02f64.max(s_a_gb * 0.05);
        (self.total_cost(s_a_gb + h, s_d_gb) - self.total_cost(s_a_gb, s_d_gb)) / h
    }

    /// Numerical `∂T/∂s_D` at `(s_a, s_d)`.
    pub fn d_ds_d(&self, s_a_gb: f64, s_d_gb: f64) -> f64 {
        let h = 0.02f64.max(s_d_gb * 0.05);
        (self.total_cost(s_a_gb, s_d_gb + h) - self.total_cost(s_a_gb, s_d_gb)) / h
    }

    /// The optimal linked-cache size for a fixed `s_D`: grow `s_A` until the
    /// marginal benefit of another unit of cache no longer covers the
    /// marginal cost of DRAM (`∂T/∂s_A = 0`). Geometric grid scan with local
    /// refinement — robust to the step-function MRC.
    pub fn optimal_s_a(&self, s_d_gb: f64, max_gb: f64) -> f64 {
        let mut best = (0.0, self.total_cost(0.0, s_d_gb));
        let mut gb = 0.01;
        while gb <= max_gb {
            let cost = self.total_cost(gb, s_d_gb);
            if cost < best.1 {
                best = (gb, cost);
            }
            gb *= 1.06;
        }
        let center = best.0.max(0.02);
        let step = (center * 0.02).max(0.005);
        let mut x = (center * 0.7).max(0.0);
        while x <= center * 1.4 {
            let cost = self.total_cost(x, s_d_gb);
            if cost < best.1 {
                best = (x, cost);
            }
            x += step;
        }
        best.0
    }

    /// Figure 2's headline metric: `T_base / T_linked`, comparing Base
    /// (`s_A = 0`, in-storage cache only) against Linked.
    pub fn cost_saving_vs_base(
        &self,
        linked_s_a_gb: f64,
        linked_s_d_gb: f64,
        base_s_d_gb: f64,
    ) -> f64 {
        self.total_cost(0.0, base_s_d_gb) / self.total_cost(linked_s_a_gb, linked_s_d_gb)
    }

    /// Steady-state cores implied by the compute term (for reporting).
    pub fn compute_cores(&self, s_a_gb: f64, s_d_gb: f64) -> f64 {
        let p = &self.params;
        p.qps
            * (self.miss_ratio(s_a_gb) * p.c_a_core_secs
                + self.miss_ratio(s_a_gb + s_d_gb) * p.c_d_core_secs)
    }

    /// Requests served per month (for per-request cost reporting).
    pub fn requests_per_month(&self) -> f64 {
        self.params.qps * SECONDS_PER_MONTH
    }

    /// The batch size at which a Remote cache's per-request CPU matches the
    /// budget Linked concedes to it — the Remote-vs-Linked crossover.
    ///
    /// Both architectures pay the same miss-path CPU (the miss terms cancel),
    /// so the comparison reduces to the lookup itself plus the memory bill:
    ///
    /// ```text
    /// T_remote(B) − T_linked = QPS·(rpc(B) − c_local) − c_M·s_A·(N_r − 1)
    /// ```
    ///
    /// Remote holds one copy of the cache where Linked holds `N_r`; that
    /// saved DRAM, converted to core·seconds per request at the prevailing
    /// prices, plus the local-op cost `c_local` it replaces, is the RPC
    /// budget. Solving `rpc(B*) = budget` with the amortized tax from
    /// [`RpcTax::amortized_core_secs`] gives
    ///
    /// ```text
    /// B* = (fixed − per_key) / (budget − per_key)
    /// ```
    ///
    /// Returns `None` when even an infinitely deep batch (`rpc(∞) = per_key`)
    /// stays over budget — Remote never matches Linked on this workload.
    /// A result ≤ 1 means Remote already wins unbatched.
    pub fn remote_crossover_batch(
        &self,
        tax: &RpcTax,
        local_op_core_secs: f64,
        s_a_gb: f64,
    ) -> Option<f64> {
        let p = &self.params;
        let mem_margin_cores = s_a_gb * (p.replicas - 1.0).max(0.0) * p.pricing.mem_gb_month
            / p.pricing.cpu_core_month;
        let budget = local_op_core_secs + mem_margin_cores / p.qps;
        if budget <= tax.per_key_core_secs {
            return None;
        }
        Some(
            ((tax.fixed_core_secs - tax.per_key_core_secs) / (budget - tax.per_key_core_secs))
                .max(1.0),
        )
    }

    /// Mean lookup core·seconds per read when an in-process L0 tier of
    /// `l0_gb` gigabytes per app server fronts the remote cache.
    ///
    /// A fraction `h = 1 − MR(l0_gb)` of reads — the Zipf head the L0
    /// captures — costs one local probe (`l0_hit_core_secs`); the rest pay
    /// the full unbatched RPC tax. The miss-path CPU behind the remote
    /// cache is identical to the batching alternative and cancels out of
    /// the comparison, exactly as in [`Self::remote_crossover_batch`].
    pub fn l0_request_core_secs(
        &self,
        tax: &RpcTax,
        l0_gb: f64,
        l0_hit_core_secs: f64,
    ) -> f64 {
        let h = 1.0 - self.miss_ratio(l0_gb);
        h * l0_hit_core_secs + (1.0 - h) * tax.fixed_core_secs
    }

    /// Monthly dollars an L0 tier saves **relative to batching at `b`** on
    /// a Remote deployment — positive means the few MB of L0 beat the
    /// batch amortization outright.
    ///
    /// ```text
    /// margin = QPS·(rpc(b) − l0_req)·c_CPU − l0_gb·N_app·c_M
    /// ```
    ///
    /// Batching pays [`RpcTax::amortized_core_secs`] on every read but
    /// holds no extra DRAM; the L0 pays a local probe on the head and the
    /// full fixed tax on the tail, plus `l0_gb` of duplicated DRAM in each
    /// of the `app_servers` processes (the replication bill §4 charges
    /// linked caches, shrunk to hot-key scale).
    pub fn l0_vs_batching_margin(
        &self,
        tax: &RpcTax,
        batch: f64,
        l0_gb: f64,
        l0_hit_core_secs: f64,
        app_servers: f64,
    ) -> f64 {
        let p = &self.params;
        let cpu_saved = p.qps
            * (tax.amortized_core_secs(batch) - self.l0_request_core_secs(tax, l0_gb, l0_hit_core_secs))
            * p.pricing.cpu_core_month;
        let dram_spent = l0_gb * app_servers * p.pricing.mem_gb_month;
        cpu_saved - dram_spent
    }

    /// The skew at which the L0 tier starts beating batching on dollars:
    /// the smallest `α` in `[alpha_lo, alpha_hi]` where
    /// [`Self::l0_vs_batching_margin`] turns positive, found by grid scan
    /// over models rebuilt per α (the popularity prefix sum depends on it).
    /// `template.alpha` is ignored. Returns `None` when even `alpha_hi`
    /// leaves the L0 under water — the head is too thin for its DRAM and
    /// tail-miss taxes at this value size.
    #[allow(clippy::too_many_arguments)]
    pub fn l0_crossover_alpha(
        template: &TheoryParams,
        tax: &RpcTax,
        batch: f64,
        l0_gb: f64,
        l0_hit_core_secs: f64,
        app_servers: f64,
        alpha_lo: f64,
        alpha_hi: f64,
    ) -> Option<f64> {
        let steps = 64;
        for i in 0..=steps {
            let alpha = alpha_lo + (alpha_hi - alpha_lo) * (i as f64) / (steps as f64);
            let m = TheoryModel::new(TheoryParams {
                alpha,
                ..template.clone()
            });
            if m.l0_vs_batching_margin(tax, batch, l0_gb, l0_hit_core_secs, app_servers) > 0.0 {
                return Some(alpha);
            }
        }
        None
    }
}

/// The fixed-vs-marginal decomposition of one remote lookup's CPU — the
/// "RPC tax" §4 amortizes over batched frames.
///
/// One unbatched lookup burns the fixed per-RPC cost (syscalls, framing,
/// scheduling) on the request and response side of both the app server and
/// the cache node: four charges of `rpc_fixed_us`. A follower in a batched
/// frame pays the per-key marginal (`rpc_batched_key_us`) at those same four
/// points instead. Byte-proportional costs are per-key either way and are
/// deliberately excluded: batching amortizes the frame overhead, not the
/// payload.
#[derive(Debug, Clone, Copy)]
pub struct RpcTax {
    /// Core·seconds one unbatched lookup spends on frame overhead.
    pub fixed_core_secs: f64,
    /// Core·seconds each additional key in a frame adds.
    pub per_key_core_secs: f64,
}

impl Default for RpcTax {
    /// Calibrated to the simulator's `AppCostConfig` defaults
    /// (`rpc_fixed_us = 35`, `rpc_batched_key_us = 2.5`, four charge points
    /// per lookup), which are themselves grounded against the `netrpc`
    /// loopback measurements.
    fn default() -> Self {
        RpcTax {
            fixed_core_secs: 4.0 * 35e-6,
            per_key_core_secs: 4.0 * 2.5e-6,
        }
    }
}

impl RpcTax {
    /// Mean per-request RPC core·seconds at batch size `b`: the opener pays
    /// the fixed cost, the `b − 1` followers pay the marginal, so
    /// `rpc(b) = per_key + (fixed − per_key) / b` — a hyperbola falling from
    /// `fixed` at `b = 1` toward the `per_key` floor.
    pub fn amortized_core_secs(&self, b: f64) -> f64 {
        let b = b.max(1.0);
        self.per_key_core_secs + (self.fixed_core_secs - self.per_key_core_secs) / b
    }

    /// Fraction of the unbatched tax still paid at batch size `b`.
    pub fn amortization_factor(&self, b: f64) -> f64 {
        self.amortized_core_secs(b) / self.fixed_core_secs
    }
}

/// Closed-form economics of the TTL control plane (the dual of
/// [`TheoryModel::optimal_s_a`]'s capacity optimum).
///
/// Model each key as a Poisson reference process of rate `λ`. Under a TTL
/// of `T` seconds an access hits iff the previous access was within `T`
/// (probability `1 − e^{−λT}`), and by renewal-reward the key's entry is
/// resident the same fraction of the time. One key's monthly cost is
///
/// ```text
/// cost(λ, T) = c_M·(b/GiB)·(1 − e^{−λT})
///            + c_P·λ·(c_hit + e^{−λT}·(c_miss − c_hit)) / U
/// ```
///
/// whose derivative in `T` is `λe^{−λT}·[c_M·b/GiB − c_P·λ·Δc/U]` — its
/// *sign does not depend on `T`*. A single key therefore has a boundary
/// optimum: cache it forever if its rate clears the closed-form threshold
/// [`TtlTheory::keep_rate_threshold_hz`]
///
/// ```text
/// λ† = c_M · (b/GiB) · U / (c_P · (c_miss − c_hit))
/// ```
///
/// and don't cache it at all otherwise. A *population* of keys under one
/// shared TTL (a Zipf mix of rates straddling λ†) is what produces an
/// interior optimum — hot keys want T = ∞, cold keys want T = 0, and the
/// shared knob settles where the marginal DRAM of the cold tail equals
/// the marginal miss CPU of the warm middle. [`TtlTheory::optimal_ttl_secs`]
/// finds it on a geometric grid, for sanity-checking the measured optimum
/// of the `elastic::ttl` histogram plane.
#[derive(Debug, Clone)]
pub struct TtlTheory {
    /// Aggregate request rate over the keyspace.
    pub qps: f64,
    /// Keyspace size.
    pub keys: u64,
    /// Zipf skew of key popularity.
    pub alpha: f64,
    /// Bytes per cached entry (value + overhead).
    pub entry_bytes: f64,
    /// Core·seconds per request when the cache hits.
    pub hit_core_secs: f64,
    /// Core·seconds per request when it misses (storage round trip).
    pub miss_core_secs: f64,
    /// Fleet sizing: provisioned cores = used cores / this.
    pub target_utilization: f64,
    pub pricing: Pricing,
}

impl Default for TtlTheory {
    /// The simulator's small-deployment regime: matches the defaults of
    /// `elastic::ttl::TtlConfig` (60 µs hits, 250 µs misses, 0.7 target
    /// utilization) over the synthetic 100K-key Zipf(1.2) workload.
    fn default() -> Self {
        TtlTheory {
            qps: 2_000.0,
            keys: 100_000,
            alpha: 1.2,
            entry_bytes: 1_088.0,
            hit_core_secs: 60e-6,
            miss_core_secs: 250e-6,
            target_utilization: 0.7,
            pricing: Pricing::default(),
        }
    }
}

impl TtlTheory {
    /// The closed-form keep/drop rate threshold `λ†` (Hz): keys referenced
    /// faster than this are worth caching forever; slower keys are worth
    /// not caching at all. See the type docs for the derivation.
    pub fn keep_rate_threshold_hz(&self) -> f64 {
        let delta_c = (self.miss_core_secs - self.hit_core_secs).max(1e-12);
        self.pricing.mem_gb_month * (self.entry_bytes / (1u64 << 30) as f64)
            * self.target_utilization
            / (self.pricing.cpu_core_month * delta_c)
    }

    /// Monthly cost of one key of rate `rate_hz` under TTL `ttl_secs`.
    pub fn per_key_monthly_cost(&self, rate_hz: f64, ttl_secs: f64) -> f64 {
        let occ = 1.0 - (-rate_hz * ttl_secs).exp();
        let delta_c = self.miss_core_secs - self.hit_core_secs;
        let cores = rate_hz * (self.hit_core_secs + (1.0 - occ) * delta_c)
            / self.target_utilization.max(1e-6);
        self.pricing.mem_gb_month * (self.entry_bytes / (1u64 << 30) as f64) * occ
            + self.pricing.cpu_core_month * cores
    }

    /// Zipf ranks collapsed into geometric buckets of `(count, rate_hz)`,
    /// with Σ count·rate = qps. Exact for the first 1 024 ranks; the tail
    /// uses midpoint rates per ×1.25 bucket — plenty for a smooth mix.
    fn rate_buckets(&self) -> Vec<(f64, f64)> {
        let mut unnorm: Vec<(f64, f64)> = Vec::new();
        let exact = self.keys.min(1_024);
        for r in 1..=exact {
            unnorm.push((1.0, (r as f64).powf(-self.alpha)));
        }
        let mut lo = exact + 1;
        while lo <= self.keys {
            let hi = ((lo as f64 * 1.25) as u64).clamp(lo, self.keys);
            let mid = (lo + hi) as f64 / 2.0;
            unnorm.push(((hi - lo + 1) as f64, mid.powf(-self.alpha)));
            lo = hi + 1;
        }
        let total: f64 = unnorm.iter().map(|&(n, p)| n * p).sum();
        unnorm
            .into_iter()
            .map(|(n, p)| (n, self.qps * p / total))
            .collect()
    }

    /// Hit ratio of the whole mix under a shared TTL: the traffic-weighted
    /// hit probability `Σ pᵢ·(1 − e^{−λᵢT})`.
    pub fn hit_ratio(&self, ttl_secs: f64) -> f64 {
        let mut hit = 0.0;
        for (n, rate) in self.rate_buckets() {
            hit += n * rate * (1.0 - (-rate * ttl_secs).exp());
        }
        hit / self.qps.max(1e-12)
    }

    /// Mean resident bytes under a shared TTL: `Σ b·(1 − e^{−λᵢT})`.
    pub fn mean_resident_bytes(&self, ttl_secs: f64) -> f64 {
        let mut occ = 0.0;
        for (n, rate) in self.rate_buckets() {
            occ += n * (1.0 - (-rate * ttl_secs).exp());
        }
        occ * self.entry_bytes
    }

    /// Monthly dollars of the whole mix under a shared TTL.
    pub fn monthly_cost(&self, ttl_secs: f64) -> f64 {
        let mr = 1.0 - self.hit_ratio(ttl_secs);
        let delta_c = self.miss_core_secs - self.hit_core_secs;
        let cores = self.qps * (self.hit_core_secs + mr * delta_c)
            / self.target_utilization.max(1e-6);
        self.pricing.cpu_core_month * cores
            + self.pricing.mem_gb_month * self.mean_resident_bytes(ttl_secs)
                / (1u64 << 30) as f64
    }

    /// The cost-minimizing shared TTL on `[min_secs, max_secs]`: geometric
    /// grid scan with local refinement, mirroring [`TheoryModel::optimal_s_a`].
    pub fn optimal_ttl_secs(&self, min_secs: f64, max_secs: f64) -> f64 {
        let min = min_secs.max(1e-3);
        let mut best = (min, self.monthly_cost(min));
        let mut t = min;
        while t <= max_secs {
            let cost = self.monthly_cost(t);
            if cost < best.1 {
                best = (t, cost);
            }
            t *= 1.06;
        }
        let center = best.0;
        let step = (center * 0.02).max(1e-3);
        let mut x = center * 0.7;
        while x <= center * 1.4 {
            let cost = self.monthly_cost(x);
            if cost < best.1 {
                best = (x, cost);
            }
            x += step;
        }
        best.0
    }
}

#[cfg(test)]
mod ttl_tests {
    use super::*;

    #[test]
    fn per_key_optimum_is_a_boundary_around_the_threshold() {
        let t = TtlTheory::default();
        let thr = t.keep_rate_threshold_hz();
        assert!(thr > 0.0);
        // A key 10× above λ†: cost must fall monotonically with TTL
        // (cache it forever); 10× below: cost must rise (don't cache).
        let hot = 10.0 * thr;
        let cold = 0.1 * thr;
        let ttls = [1.0, 10.0, 100.0, 1_000.0, 10_000.0];
        for w in ttls.windows(2) {
            assert!(
                t.per_key_monthly_cost(hot, w[1]) < t.per_key_monthly_cost(hot, w[0]),
                "hot key cost must fall with TTL at {} s",
                w[1]
            );
            assert!(
                t.per_key_monthly_cost(cold, w[1]) > t.per_key_monthly_cost(cold, w[0]),
                "cold key cost must rise with TTL at {} s",
                w[1]
            );
        }
    }

    #[test]
    fn threshold_matches_the_closed_form_at_defaults() {
        // λ† = c_M·(b/GiB)·U / (c_P·Δc): 2·(1088/2^30)·0.7 / (17·190e-6).
        let t = TtlTheory::default();
        let expect = 2.0 * (1_088.0 / (1u64 << 30) as f64) * 0.7 / (17.0 * 190e-6);
        assert!((t.keep_rate_threshold_hz() - expect).abs() / expect < 1e-12);
        // ~4.4e-4 Hz: even a once-per-38-minutes key is worth caching —
        // which is why the diurnal day adopts long TTLs and keeps hit
        // parity with the MRC planner.
        assert!(t.keep_rate_threshold_hz() < 1.0 / 600.0);
    }

    #[test]
    fn mix_has_an_interior_optimum_and_monotone_curves() {
        let t = TtlTheory::default();
        // Hit ratio and residency both increase with TTL.
        let mut prev_h = -1.0;
        let mut prev_b = -1.0;
        for ttl in [0.1, 1.0, 10.0, 100.0, 1_000.0] {
            let h = t.hit_ratio(ttl);
            let b = t.mean_resident_bytes(ttl);
            assert!(h >= prev_h && (0.0..=1.0).contains(&h), "hit ratio at {ttl}");
            assert!(b >= prev_b, "residency at {ttl}");
            prev_h = h;
            prev_b = b;
        }
        // With DRAM expensive enough that the cold tail matters, the
        // optimum is interior: better than both extremes.
        let dear = TtlTheory {
            pricing: Pricing::default().with_memory_multiplier(2_000.0),
            ..TtlTheory::default()
        };
        let opt = dear.optimal_ttl_secs(0.01, 1e6);
        assert!(opt > 0.011 && opt < 0.9e6, "optimum not interior: {opt}");
        let at = dear.monthly_cost(opt);
        assert!(at <= dear.monthly_cost(0.01) && at <= dear.monthly_cost(1e6));
    }

    #[test]
    fn dear_memory_shortens_the_optimal_ttl() {
        let base = TtlTheory::default();
        let dear = TtlTheory {
            pricing: Pricing::default().with_memory_multiplier(5_000.0),
            ..TtlTheory::default()
        };
        let t_base = base.optimal_ttl_secs(0.01, 1e7);
        let t_dear = dear.optimal_ttl_secs(0.01, 1e7);
        assert!(
            t_dear < t_base,
            "5000× DRAM must shorten the TTL: {t_dear} vs {t_base}"
        );
    }

    #[test]
    fn theory_is_deterministic() {
        let t = TtlTheory::default();
        assert_eq!(t.monthly_cost(123.0), t.monthly_cost(123.0));
        assert_eq!(t.optimal_ttl_secs(0.1, 1e5), t.optimal_ttl_secs(0.1, 1e5));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced-keyspace model that keeps the paper's *ratios* (cache
    /// covers the same fraction of the keyspace) while staying fast.
    fn model(alpha: f64, replicas: f64) -> TheoryModel {
        TheoryModel::new(TheoryParams {
            alpha,
            replicas,
            keys: 1_000_000,
            qps: 40_000.0,
            mean_entry_bytes: 230_000.0, // 1M × 230KB ≈ same GB↔fraction map
            ..TheoryParams::default()
        })
    }

    #[test]
    fn miss_ratio_decreases_with_cache_size() {
        let m = model(1.2, 1.0);
        let sizes = [0.0, 0.1, 0.5, 1.0, 4.0, 16.0];
        let mrs: Vec<f64> = sizes.iter().map(|&s| m.miss_ratio(s)).collect();
        for w in mrs.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "MR must be non-increasing: {mrs:?}");
        }
        assert_eq!(m.miss_ratio(0.0), 1.0);
        assert!(m.miss_ratio(1e9) < 1e-9);
    }

    #[test]
    fn linked_cache_gradient_dominates_in_growth_region() {
        // §4: in the region where caches are still filling the popularity
        // head, a GB of linked cache reduces cost more than a GB of storage
        // cache (it elides the whole c_A path, not just the disk path).
        let m = model(1.2, 1.0);
        let (s_a, s_d) = (0.2, 1.0);
        let ga = m.d_ds_a(s_a, s_d);
        let gd = m.d_ds_d(s_a, s_d);
        assert!(ga < 0.0, "adding linked cache must reduce cost: {ga}");
        assert!(
            ga < gd,
            "linked gradient {ga} must be more negative than storage gradient {gd}"
        );
    }

    #[test]
    fn skew_amplifies_the_saving() {
        // Figure 2a: higher α → larger saving of Linked(8GB,1GB) over
        // Base(1GB).
        let saving = |alpha: f64| model(alpha, 1.0).cost_saving_vs_base(8.0, 1.0, 1.0);
        let s_low = saving(0.7);
        let s_mid = saving(1.0);
        let s_high = saving(1.3);
        assert!(
            s_high > s_mid && s_mid > s_low,
            "saving must grow with skew: {s_low:.2} {s_mid:.2} {s_high:.2}"
        );
        assert!(s_high > 2.0, "high skew should save substantially: {s_high}");
    }

    #[test]
    fn savings_survive_replication_and_expensive_memory() {
        // Figure 2b: with the linked cache sized optimally, replication up
        // to 10× and 40× memory prices still leave the cache cost-positive.
        for replicas in [1.0, 4.0, 10.0] {
            let m = model(1.2, replicas);
            let s_a = m.optimal_s_a(1.0, 64.0);
            let saving = m.cost_saving_vs_base(s_a, 1.0, 1.0);
            assert!(
                saving > 1.0,
                "N_r={replicas}: saving {saving} at s_A={s_a} fell below 1"
            );
        }
        let expensive = TheoryModel::new(TheoryParams {
            pricing: Pricing::default().with_memory_multiplier(40.0),
            keys: 1_000_000,
            mean_entry_bytes: 230_000.0,
            qps: 40_000.0,
            ..TheoryParams::default()
        });
        let s_a = expensive.optimal_s_a(1.0, 64.0);
        let saving = expensive.cost_saving_vs_base(s_a, 1.0, 1.0);
        assert!(saving > 1.0, "40x memory: saving {saving} at s_A={s_a}");
    }

    #[test]
    fn optimal_allocation_prefers_linked_cache() {
        let m = model(1.2, 1.0);
        let s_a = m.optimal_s_a(1.0, 64.0);
        assert!(s_a > 0.01, "optimum should use linked cache: {s_a}");
        let c = m.total_cost(s_a, 1.0);
        assert!(c <= m.total_cost(s_a * 2.0, 1.0) + 1e-9);
        assert!(c <= m.total_cost(0.0, 1.0) + 1e-9);
        // At the optimum the marginal value of more linked cache is ~zero
        // or negative-valueless (|∂T/∂s_A| ≈ 0 crossing).
        assert!(m.d_ds_a(s_a, 1.0) >= -0.5, "gradient at optimum: {}", m.d_ds_a(s_a, 1.0));
    }

    #[test]
    fn replication_raises_memory_term_linearly() {
        let m1 = model(1.2, 1.0);
        let m4 = model(1.2, 4.0);
        let diff = m4.total_cost(8.0, 1.0) - m1.total_cost(8.0, 1.0);
        // 3 extra replicas of 8 GB at $2/GB
        assert!((diff - 3.0 * 8.0 * 2.0).abs() < 1e-6, "diff {diff}");
    }

    #[test]
    fn cores_scale_with_qps() {
        let mk = |qps: f64| {
            TheoryModel::new(TheoryParams {
                qps,
                keys: 100_000,
                ..TheoryParams::default()
            })
        };
        let lo = mk(1_000.0);
        let hi = mk(10_000.0);
        let ratio = hi.compute_cores(1.0, 1.0) / lo.compute_cores(1.0, 1.0);
        assert!((ratio - 10.0).abs() < 1e-9);
    }

    #[test]
    fn amortized_rpc_tax_falls_hyperbolically_to_the_per_key_floor() {
        let tax = RpcTax::default();
        assert!((tax.amortized_core_secs(1.0) - tax.fixed_core_secs).abs() < 1e-18);
        let sizes = [1.0, 2.0, 4.0, 8.0, 16.0, 64.0];
        let costs: Vec<f64> = sizes.iter().map(|&b| tax.amortized_core_secs(b)).collect();
        for w in costs.windows(2) {
            assert!(w[0] > w[1], "tax must strictly fall with batch size");
        }
        for &c in &costs {
            assert!(c > tax.per_key_core_secs, "floor is the per-key marginal");
        }
        // B=8 recovers > 75% of the unbatched tax with the default calibration.
        assert!(tax.amortization_factor(8.0) < 0.25);
        // Degenerate inputs clamp to the unbatched cost.
        assert!((tax.amortized_core_secs(0.0) - tax.fixed_core_secs).abs() < 1e-18);
    }

    #[test]
    fn remote_crossover_shrinks_with_replication() {
        // The more replicas Linked must hold, the less amortization Remote
        // needs before its RPC tax is paid for by the saved DRAM.
        let tax = RpcTax::default();
        let local = 1.2e-6; // the simulator's local_cache_op_us
        let b4 = model(1.2, 4.0)
            .remote_crossover_batch(&tax, local, 8.0)
            .expect("replicated Linked must be beatable");
        let b10 = model(1.2, 10.0)
            .remote_crossover_batch(&tax, local, 8.0)
            .expect("replicated Linked must be beatable");
        assert!(b10 < b4, "crossover must shrink with replicas: {b10} vs {b4}");
        assert!(b4 > 1.0, "unbatched Remote should not already win here: {b4}");
    }

    #[test]
    fn remote_never_crosses_without_a_budget() {
        // One replica ⇒ no DRAM saving; a local op cheaper than even the
        // amortized per-key marginal leaves Remote strictly worse at any B.
        let tax = RpcTax::default();
        let m = model(1.2, 1.0);
        assert!(m
            .remote_crossover_batch(&tax, tax.per_key_core_secs * 0.5, 8.0)
            .is_none());
        // With a budget above the floor, the closed form inverts exactly:
        // rpc(B*) == budget.
        let budget = 40e-6;
        let b = m.remote_crossover_batch(&tax, budget, 8.0).unwrap();
        assert!((tax.amortized_core_secs(b) - budget).abs() < 1e-12);
    }

    #[test]
    fn miss_ratio_matches_closed_form_head_mass() {
        // For a tiny keyspace, prefix sums must equal direct summation.
        let m = TheoryModel::new(TheoryParams {
            keys: 1_000,
            alpha: 1.2,
            mean_entry_bytes: 1e6, // 1 entry per MB → gb*1000 entries
            ..TheoryParams::default()
        });
        let direct: f64 = (1..=100).map(|i| (i as f64).powf(-1.2)).sum::<f64>()
            / (1..=1000).map(|i| (i as f64).powf(-1.2)).sum::<f64>();
        assert!((m.miss_ratio(0.1) - (1.0 - direct)).abs() < 1e-12);
    }

    /// The workload regime the `ablation_hotkey` bench measures: ~1 KB
    /// values (so a few MB of L0 holds thousands of head keys), one L0
    /// probe ≈ the simulator's `l0_hit_us = 0.15`.
    fn l0_template(mean_entry_bytes: f64) -> TheoryParams {
        TheoryParams {
            keys: 1_000_000,
            mean_entry_bytes,
            qps: 40_000.0,
            ..TheoryParams::default()
        }
    }
    const L0_HIT: f64 = 0.15e-6;
    const L0_GB: f64 = 4.0e-3; // 4 MB per app server
    const APP_SERVERS: f64 = 4.0;
    const B_STAR: f64 = 8.8; // PR 4's Remote-vs-Linked crossover batch

    #[test]
    fn l0_margin_grows_with_skew() {
        let tax = RpcTax::default();
        let margin = |alpha: f64| {
            TheoryModel::new(TheoryParams {
                alpha,
                ..l0_template(1_024.0)
            })
            .l0_vs_batching_margin(&tax, B_STAR, L0_GB, L0_HIT, APP_SERVERS)
        };
        let (lo, mid, hi) = (margin(0.6), (margin(0.9)), margin(1.2));
        assert!(
            hi > mid && mid > lo,
            "margin must grow with skew: {lo:.2} {mid:.2} {hi:.2}"
        );
    }

    #[test]
    fn l0_beats_batching_at_production_skew_and_small_values() {
        // 1 KB values: 4 MB of L0 holds ~4K head keys. At α = 1.2 that head
        // carries most of the traffic, so the local probe undercuts even a
        // well-amortized B* = 8.8 frame — the tentpole claim.
        let tax = RpcTax::default();
        let m = TheoryModel::new(TheoryParams {
            alpha: 1.2,
            ..l0_template(1_024.0)
        });
        let margin = m.l0_vs_batching_margin(&tax, B_STAR, L0_GB, L0_HIT, APP_SERVERS);
        assert!(margin > 0.0, "L0 must beat B*=8.8 here: {margin:.2}");
        // Sanity: the per-read CPU with L0 is below the amortized frame tax.
        assert!(
            m.l0_request_core_secs(&tax, L0_GB, L0_HIT) < tax.amortized_core_secs(B_STAR)
        );
    }

    #[test]
    fn l0_crossover_alpha_rises_with_value_size() {
        // Bigger values → fewer head keys fit in the same 4 MB → the skew
        // needed before L0 pays for itself climbs; at 64 KB entries the 4 MB
        // tier holds ~64 keys and needs a much sharper head.
        let tax = RpcTax::default();
        let cross = |entry_bytes: f64| {
            TheoryModel::l0_crossover_alpha(
                &l0_template(entry_bytes),
                &tax,
                B_STAR,
                L0_GB,
                L0_HIT,
                APP_SERVERS,
                0.5,
                1.6,
            )
        };
        let a_small = cross(1_024.0).expect("1KB values must cross in range");
        let a_big = cross(65_536.0).expect("64KB values must still cross by 1.6");
        assert!(
            a_big > a_small,
            "crossover skew must rise with value size: {a_small:.3} vs {a_big:.3}"
        );
        assert!(a_small < 1.2, "1KB crossover should precede production skew");
    }

    #[test]
    fn l0_never_crosses_when_the_head_is_flat() {
        // With near-uniform popularity the L0 hit ratio stays tiny; every
        // read still pays ~the full fixed tax plus the DRAM bill, so no α in
        // a flat band can beat batching.
        let tax = RpcTax::default();
        assert!(TheoryModel::l0_crossover_alpha(
            &l0_template(1_024.0),
            &tax,
            B_STAR,
            L0_GB,
            L0_HIT,
            APP_SERVERS,
            0.01,
            0.3,
        )
        .is_none());
    }
}
