//! Dollar-minimizing capacity planning from a live miss-ratio curve.
//!
//! Given the profiler's curve, the current request rate and `costmodel`
//! pricing, the planner searches a geometric grid of candidate cache sizes
//! and prices each one the way the paper prices a tier:
//!
//! ```text
//! monthly(s) = P_cpu · (rps · cpu_us(s) · 1e-6) / U_target
//!            + P_mem · s / 1 GiB
//! cpu_us(s)  = hit_cpu_us + MR(s) · miss_cpu_us
//! ```
//!
//! `miss_cpu_us` is the marginal CPU of going to storage (RPC + SQL +
//! assembly, ≈ hundreds of µs per miss per the §5 breakdowns), which is
//! what makes small caches expensive even though DRAM is the line item
//! being trimmed. Two guards keep the optimum usable:
//!
//! * a **hit-ratio floor**: candidates whose predicted miss ratio exceeds
//!   the best candidate's by more than `max_miss_ratio_delta` are
//!   discarded, bounding user-visible degradation (the acceptance bar is
//!   2 points);
//! * **hysteresis**: a new plan replaces the incumbent only if it saves at
//!   least `hysteresis_fraction` of the incumbent's cost at current load —
//!   re-priced each round, so a stale incumbent is still re-evaluated —
//!   absorbing curve noise that would otherwise flap the tier.

use cachekit::MissRatioCurve;
use costmodel::Pricing;

/// Planner knobs. Defaults suit the simulator's small deployments; real
/// deployments would scale `min/max_cache_bytes` and `bytes_per_shard`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// Smallest cache the planner may pick (bytes, total across shards).
    pub min_cache_bytes: u64,
    /// Largest cache the planner may pick; also the reference point for
    /// the hit-ratio floor.
    pub max_cache_bytes: u64,
    /// Candidate sizes on the geometric grid between min and max.
    pub candidate_steps: usize,
    /// Mean entry footprint (value + overhead) converting bytes → entries
    /// for MRC lookups.
    pub mean_entry_bytes: u64,
    /// Baseline CPU per request (µs) independent of cache size.
    pub hit_cpu_us: f64,
    /// Marginal CPU per miss (µs): the storage round trip a hit avoids.
    pub miss_cpu_us: f64,
    /// Max allowed miss-ratio excess over the largest candidate's.
    pub max_miss_ratio_delta: f64,
    /// Minimum relative saving before the plan switches (0.05 = 5%).
    pub hysteresis_fraction: f64,
    /// Preferred bytes per shard; shard count = ceil(size / this).
    pub bytes_per_shard: u64,
    /// Fleet sizing: provisioned cores = used cores / this.
    pub target_utilization: f64,
    /// vCPUs per VM for the reported VM count.
    pub vcpus_per_node: f64,
    /// SSD victim tier the planner may add behind the DRAM cache: entries
    /// that would miss DRAM but fit in DRAM+SSD pay `ssd_hit_cpu_us`
    /// instead of the full storage round trip, billed at
    /// `Pricing::ssd_gb_month`. 0 (the default) disables the spill
    /// dimension and keeps every plan bit-identical to the DRAM-only
    /// planner.
    pub max_ssd_bytes: u64,
    /// CPU per SSD hit (µs): NVMe read + checksum + copy. Matches
    /// `costmodel::ssd::SsdTier::default` (25 µs).
    pub ssd_hit_cpu_us: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            min_cache_bytes: 64 << 10,
            max_cache_bytes: 6 << 30,
            candidate_steps: 24,
            mean_entry_bytes: 1_088, // 1 KiB value + 64 B entry overhead
            hit_cpu_us: 60.0,
            miss_cpu_us: 250.0,
            max_miss_ratio_delta: 0.02,
            hysteresis_fraction: 0.05,
            bytes_per_shard: 2 << 30,
            target_utilization: 0.7,
            vcpus_per_node: 8.0,
            max_ssd_bytes: 0,
            ssd_hit_cpu_us: 25.0,
        }
    }
}

/// One provisioning decision: what the cache tier should look like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Total cache capacity across shards.
    pub cache_bytes: u64,
    /// Shard count at `bytes_per_shard` granularity.
    pub shards: u32,
    /// Capacity per shard (`cache_bytes` rounded up to a shard multiple).
    pub per_shard_bytes: u64,
    /// VMs needed for the projected CPU at target utilization.
    pub vms: u32,
    /// Predicted miss ratio at this size, from the live curve. With an SSD
    /// spill this is the *full* miss ratio past DRAM+SSD.
    pub predicted_miss_ratio: f64,
    /// Projected monthly dollars (compute + cache memory + SSD) at current
    /// load.
    pub monthly_dollars: f64,
    /// SSD spill capacity behind the DRAM tier (0 unless the planner's
    /// `max_ssd_bytes` dimension is enabled and flash pays for itself).
    pub ssd_bytes: u64,
}

/// Price one (DRAM, SSD) candidate at the given load.
fn price(
    curve: &MissRatioCurve,
    rps: f64,
    cache_bytes: u64,
    ssd_bytes: u64,
    cfg: &PlannerConfig,
    pricing: &Pricing,
) -> Plan {
    let entries = cache_bytes / cfg.mean_entry_bytes.max(1);
    let mr_dram = curve.miss_ratio(entries);
    let both_entries = (cache_bytes + ssd_bytes) / cfg.mean_entry_bytes.max(1);
    let mr = curve.miss_ratio(both_entries);
    // Requests that miss DRAM but land in the spill pay the flash path
    // instead of the storage round trip.
    let ssd_hits = (mr_dram - mr).max(0.0);
    let cpu_us = cfg.hit_cpu_us + ssd_hits * cfg.ssd_hit_cpu_us + mr * cfg.miss_cpu_us;
    let used_cores = rps * cpu_us * 1e-6;
    let provisioned_cores = used_cores / cfg.target_utilization.max(1e-6);
    let shards = cache_bytes.div_ceil(cfg.bytes_per_shard.max(1)).max(1) as u32;
    let per_shard_bytes = cache_bytes.div_ceil(shards as u64);
    let vms = (provisioned_cores / cfg.vcpus_per_node.max(1.0)).ceil().max(1.0) as u32;
    let monthly = provisioned_cores * pricing.cpu_core_month
        + (cache_bytes as f64 / (1u64 << 30) as f64) * pricing.mem_gb_month
        + (ssd_bytes as f64 / (1u64 << 30) as f64) * pricing.ssd_gb_month;
    Plan {
        cache_bytes,
        shards,
        per_shard_bytes,
        vms,
        predicted_miss_ratio: mr,
        monthly_dollars: monthly,
        ssd_bytes,
    }
}

/// The geometric candidate grid from min to max, deduplicated ascending.
fn candidates(cfg: &PlannerConfig) -> Vec<u64> {
    let min = cfg.min_cache_bytes.max(1);
    let max = cfg.max_cache_bytes.max(min);
    let steps = cfg.candidate_steps.max(2);
    let ratio = (max as f64 / min as f64).ln() / (steps - 1) as f64;
    let mut sizes: Vec<u64> = (0..steps)
        .map(|i| ((min as f64) * (ratio * i as f64).exp()).round() as u64)
        .collect();
    sizes.push(max);
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

/// SSD spill candidates: just `{0}` when the dimension is off, else 0 plus
/// a coarse geometric grid up to the cap.
fn ssd_candidates(cfg: &PlannerConfig) -> Vec<u64> {
    if cfg.max_ssd_bytes == 0 {
        return vec![0];
    }
    let mut sizes = vec![0u64];
    let mut s = cfg.min_cache_bytes.max(1);
    while s < cfg.max_ssd_bytes {
        sizes.push(s);
        s = s.saturating_mul(4);
    }
    sizes.push(cfg.max_ssd_bytes);
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

/// Pick the dollar-minimizing plan subject to the hit-ratio floor, with
/// hysteresis against `prev`. Pure and deterministic. When `max_ssd_bytes`
/// is set the search runs over the (DRAM, SSD) grid, trading DRAM dollars
/// against SSD dollars against miss CPU three ways.
pub fn plan(
    curve: &MissRatioCurve,
    rps: f64,
    cfg: &PlannerConfig,
    pricing: &Pricing,
    prev: Option<&Plan>,
) -> Plan {
    let sizes = candidates(cfg);
    let spills = ssd_candidates(cfg);
    // The floor reference stays the largest DRAM-only candidate, so adding
    // the SSD dimension never *relaxes* the degradation bound.
    let reference =
        price(curve, rps, *sizes.last().expect("non-empty grid"), 0, cfg, pricing);
    let floor = reference.predicted_miss_ratio + cfg.max_miss_ratio_delta;
    let mut best = reference;
    for &s in &sizes {
        for &f in &spills {
            let p = price(curve, rps, s, f, cfg, pricing);
            if p.predicted_miss_ratio > floor {
                continue;
            }
            // Strict `<` keeps the smaller size on ties (grid is ascending).
            if p.monthly_dollars < best.monthly_dollars {
                best = p;
            }
        }
    }
    if let Some(prev) = prev {
        // Re-price the incumbent at current load and keep it unless the
        // challenger clears the hysteresis margin.
        let incumbent = price(curve, rps, prev.cache_bytes, prev.ssd_bytes, cfg, pricing);
        let margin = incumbent.monthly_dollars * (1.0 - cfg.hysteresis_fraction);
        if (best.cache_bytes, best.ssd_bytes)
            != (incumbent.cache_bytes, incumbent.ssd_bytes)
            && best.monthly_dollars >= margin
        {
            return incumbent;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic curve: miss ratio falls geometrically with entries and
    /// flattens at `floor` beyond `knee` entries.
    fn curve(knee: u64, floor: f64) -> MissRatioCurve {
        let mut points = vec![(0u64, 1.0)];
        let mut e = 1u64;
        while e < knee {
            let frac = e as f64 / knee as f64;
            points.push((e, (1.0 - frac).max(floor)));
            e *= 2;
        }
        points.push((knee, floor));
        MissRatioCurve { points }
    }

    fn cfg() -> PlannerConfig {
        PlannerConfig {
            min_cache_bytes: 1 << 20,
            max_cache_bytes: 1 << 30,
            mean_entry_bytes: 1_024,
            ..PlannerConfig::default()
        }
    }

    #[test]
    fn planner_prefers_the_knee_over_max_capacity() {
        // Beyond the knee extra GBs buy no hits; the planner must not pay
        // for them. Knee at 64Ki entries = 64 MiB of 1 KiB entries.
        let c = curve(64 << 10, 0.05);
        let p = plan(&c, 100_000.0, &cfg(), &Pricing::default(), None);
        assert!(p.cache_bytes < (1 << 30), "picked max: {}", p.cache_bytes);
        assert!(p.cache_bytes >= (32 << 20), "starved: {}", p.cache_bytes);
        assert!(p.predicted_miss_ratio <= 0.05 + 0.02 + 1e-12);
    }

    #[test]
    fn hit_ratio_floor_binds_when_cpu_is_cheap() {
        // With a negligible miss penalty the dollar optimum would be a
        // near-zero cache; the floor must keep misses within delta of the
        // best candidate.
        let c = curve(64 << 10, 0.05);
        let mut k = cfg();
        k.miss_cpu_us = 1e-3;
        let p = plan(&c, 100_000.0, &k, &Pricing::default(), None);
        let reference = c.miss_ratio(k.max_cache_bytes / k.mean_entry_bytes);
        assert!(
            p.predicted_miss_ratio <= reference + k.max_miss_ratio_delta + 1e-12,
            "floor violated: {} vs ref {}",
            p.predicted_miss_ratio,
            reference
        );
    }

    #[test]
    fn hysteresis_keeps_the_incumbent_on_small_savings() {
        let c = curve(64 << 10, 0.05);
        let k = cfg();
        let pricing = Pricing::default();
        let first = plan(&c, 100_000.0, &k, &pricing, None);
        // Tiny load change: the optimum barely moves, so the incumbent
        // must stick even if a neighboring grid point now edges it out.
        let second = plan(&c, 100_500.0, &k, &pricing, Some(&first));
        assert_eq!(second.cache_bytes, first.cache_bytes, "plan flapped");
        // A big demand collapse clears the margin and the plan moves.
        let third = plan(&c, 1_000.0, &k, &pricing, Some(&second));
        assert!(third.monthly_dollars < second.monthly_dollars);
    }

    #[test]
    fn shards_and_vms_follow_the_size_and_load() {
        let c = curve(1 << 20, 0.01);
        let mut k = cfg();
        k.max_cache_bytes = 8 << 30;
        k.bytes_per_shard = 1 << 30;
        let p = plan(&c, 2_000_000.0, &k, &Pricing::default(), None);
        assert_eq!(p.shards as u64, p.cache_bytes.div_ceil(1 << 30));
        assert!(p.per_shard_bytes * p.shards as u64 >= p.cache_bytes);
        // 2M rps at ≥60 µs/req is ≥120 used cores → ≥22 VMs at 0.7×8.
        assert!(p.vms >= 20, "vms={}", p.vms);
    }

    #[test]
    fn plan_is_deterministic() {
        let c = curve(64 << 10, 0.05);
        let k = cfg();
        let a = plan(&c, 123_456.0, &k, &Pricing::default(), None);
        let b = plan(&c, 123_456.0, &k, &Pricing::default(), None);
        assert_eq!(a, b);
    }

    #[test]
    fn lower_load_means_lower_dollars() {
        let c = curve(64 << 10, 0.05);
        let k = cfg();
        let hi = plan(&c, 200_000.0, &k, &Pricing::default(), None);
        let lo = plan(&c, 20_000.0, &k, &Pricing::default(), None);
        assert!(lo.monthly_dollars < hi.monthly_dollars);
    }

    #[test]
    fn ssd_dimension_off_by_default_plans_carry_no_spill() {
        let c = curve(64 << 10, 0.05);
        let k = cfg();
        assert_eq!(k.max_ssd_bytes, 0);
        let p = plan(&c, 100_000.0, &k, &Pricing::default(), None);
        assert_eq!(p.ssd_bytes, 0);
        let again = plan(&c, 100_000.0, &k, &Pricing::default(), Some(&p));
        assert_eq!(again.ssd_bytes, 0);
    }

    #[test]
    fn cheap_ssd_displaces_dram_for_the_tail() {
        // A wide working set (1 GiB of 1 KiB entries to reach the knee) at
        // low load: memory dollars dominate CPU dollars, so serving the
        // tail from $0.08/GB flash at +25 µs/hit beats $2/GB DRAM.
        let c = curve(1 << 20, 0.05);
        let mut k = cfg();
        k.max_ssd_bytes = 4 << 30;
        let pricing = Pricing::default();
        let with_ssd = plan(&c, 1_000.0, &k, &pricing, None);
        let mut dram_only = k;
        dram_only.max_ssd_bytes = 0;
        let baseline = plan(&c, 1_000.0, &dram_only, &pricing, None);
        assert!(with_ssd.ssd_bytes > 0, "spill unused: {with_ssd:?}");
        assert!(
            with_ssd.monthly_dollars < baseline.monthly_dollars,
            "flash did not pay: {} vs {}",
            with_ssd.monthly_dollars,
            baseline.monthly_dollars
        );
        // The degradation bound still references the DRAM-only maximum.
        let reference = c.miss_ratio(k.max_cache_bytes / k.mean_entry_bytes);
        assert!(with_ssd.predicted_miss_ratio <= reference + k.max_miss_ratio_delta + 1e-12);
    }

    #[test]
    fn overpriced_ssd_stays_unused() {
        let c = curve(1 << 20, 0.05);
        let mut k = cfg();
        k.max_ssd_bytes = 4 << 30;
        // Flash priced above DRAM: every nonzero spill strictly loses.
        let pricing = Pricing {
            ssd_gb_month: 10.0,
            ..Pricing::default()
        };
        let p = plan(&c, 1_000.0, &k, &pricing, None);
        let mut dram_only = k;
        dram_only.max_ssd_bytes = 0;
        assert_eq!(p, plan(&c, 1_000.0, &dram_only, &pricing, None));
    }
}
