//! Diurnal load modulation.
//!
//! Datacenter services see strongly periodic demand: Meta's and Twitter's
//! published cache traces both show a daily swing of 2–4x between trough
//! and peak (plus occasional phase shifts when a region fails over or a
//! product launches). Static provisioning must buy the peak; an elastic
//! controller only pays for the integral. This module provides the demand
//! signal for that comparison: a deterministic multiplier over simulated
//! time that the experiment loop applies to its base request rate.
//!
//! Two shapes are supported and composable:
//!
//! * a **sinusoid** — smooth day/night swing between a trough and 1.0
//!   (the peak), with a configurable period and phase, and
//! * an **explicit phase table** — piecewise-constant multipliers keyed by
//!   start time, for step events (failover doubling traffic, a launch
//!   spike) that a sinusoid can't express.
//!
//! Everything is a pure function of `(config, time)` — no RNG is drawn —
//! so a schedule is trivially deterministic and byte-stable across runs
//! and across parallel sweep workers.

/// A deterministic demand schedule: multiplier in `(0, 1]` over sim time.
///
/// The multiplier scales a base (peak) request rate, so 1.0 means "peak
/// demand" and the configured trough is the quietest point of the cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalSchedule {
    /// Cycle length in simulated seconds (86_400 = one day).
    pub period_secs: f64,
    /// Demand at the quietest point, as a fraction of peak (0 < trough ≤ 1).
    pub trough: f64,
    /// Fraction of the period by which the cycle is shifted. 0.0 starts at
    /// peak; 0.5 starts at trough.
    pub phase: f64,
    /// Piecewise-constant extra multipliers: `(start_secs, multiplier)`,
    /// sorted by start time; each applies from its start until the next
    /// entry (the last applies forever). Empty = no phase shifts.
    pub phases: Vec<(f64, f64)>,
}

impl Default for DiurnalSchedule {
    fn default() -> Self {
        DiurnalSchedule {
            period_secs: 86_400.0,
            trough: 0.25,
            phase: 0.0,
            phases: Vec::new(),
        }
    }
}

impl DiurnalSchedule {
    /// A plain day/night sinusoid with the given trough fraction.
    pub fn sinusoid(period_secs: f64, trough: f64) -> Self {
        DiurnalSchedule {
            period_secs,
            trough,
            ..DiurnalSchedule::default()
        }
    }

    /// A schedule driven purely by an explicit phase table (flat sinusoid).
    pub fn phase_table(phases: Vec<(f64, f64)>) -> Self {
        DiurnalSchedule {
            trough: 1.0,
            phases,
            ..DiurnalSchedule::default()
        }
    }

    /// The demand multiplier at `t_secs` of simulated time: the sinusoid
    /// value times the active phase-table multiplier, clamped to stay
    /// strictly positive so a request rate never collapses to zero.
    pub fn multiplier(&self, t_secs: f64) -> f64 {
        let base = if self.period_secs > 0.0 && self.trough < 1.0 {
            let trough = self.trough.clamp(0.0, 1.0);
            // Cosine swing: 1.0 at phase 0, `trough` half a period later.
            let angle = std::f64::consts::TAU * (t_secs / self.period_secs + self.phase);
            let mid = (1.0 + trough) / 2.0;
            let amp = (1.0 - trough) / 2.0;
            mid + amp * angle.cos()
        } else {
            1.0
        };
        let shift = self
            .phases
            .iter()
            .take_while(|&&(start, _)| start <= t_secs)
            .last()
            .map(|&(_, m)| m)
            .unwrap_or(1.0);
        (base * shift).max(1e-6)
    }

    /// Mean multiplier over one full period, by midpoint sampling — the
    /// ratio of elastic to static-peak demand volume. Phase-table shifts
    /// are included over `[0, period_secs)`.
    pub fn mean_multiplier(&self) -> f64 {
        const SAMPLES: usize = 4_096;
        let dt = self.period_secs / SAMPLES as f64;
        (0..SAMPLES)
            .map(|i| self.multiplier((i as f64 + 0.5) * dt))
            .sum::<f64>()
            / SAMPLES as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_and_trough_land_where_configured() {
        let s = DiurnalSchedule::sinusoid(86_400.0, 0.25);
        assert!((s.multiplier(0.0) - 1.0).abs() < 1e-12, "peak at t=0");
        assert!(
            (s.multiplier(43_200.0) - 0.25).abs() < 1e-12,
            "trough half a period in"
        );
        assert!((s.multiplier(86_400.0) - 1.0).abs() < 1e-9, "periodic");
    }

    #[test]
    fn phase_rotates_the_cycle() {
        let mut s = DiurnalSchedule::sinusoid(86_400.0, 0.25);
        s.phase = 0.5;
        assert!((s.multiplier(0.0) - 0.25).abs() < 1e-12, "starts at trough");
        assert!((s.multiplier(43_200.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multiplier_stays_within_trough_and_peak() {
        let s = DiurnalSchedule::sinusoid(3_600.0, 0.4);
        for i in 0..1_000 {
            let m = s.multiplier(i as f64 * 7.3);
            assert!((0.4..=1.0 + 1e-12).contains(&m), "m={m} at i={i}");
        }
    }

    #[test]
    fn phase_table_is_piecewise_constant_with_last_entry_sticky() {
        let s = DiurnalSchedule::phase_table(vec![(100.0, 2.0), (200.0, 0.5)]);
        assert_eq!(s.multiplier(0.0), 1.0, "before the first entry");
        assert_eq!(s.multiplier(100.0), 2.0, "inclusive start");
        assert_eq!(s.multiplier(199.9), 2.0);
        assert_eq!(s.multiplier(200.0), 0.5);
        assert_eq!(s.multiplier(1e9), 0.5, "last entry applies forever");
    }

    #[test]
    fn phase_table_composes_with_the_sinusoid() {
        let mut s = DiurnalSchedule::sinusoid(86_400.0, 0.25);
        s.phases = vec![(43_200.0, 2.0)];
        assert!((s.multiplier(0.0) - 1.0).abs() < 1e-12);
        // At the trough the 2x failover shift applies on top.
        assert!((s.multiplier(43_200.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_multiplier_matches_closed_form_for_pure_sinusoid() {
        // Mean of mid + amp·cos over a period is mid = (1 + trough) / 2.
        let s = DiurnalSchedule::sinusoid(86_400.0, 0.25);
        assert!((s.mean_multiplier() - 0.625).abs() < 1e-3);
    }

    #[test]
    fn schedule_is_a_pure_function_of_time() {
        let s = DiurnalSchedule::default();
        let a: Vec<f64> = (0..100).map(|i| s.multiplier(i as f64 * 911.0)).collect();
        let b: Vec<f64> = (0..100).map(|i| s.multiplier(i as f64 * 911.0)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_configs_stay_positive() {
        let flat = DiurnalSchedule::sinusoid(0.0, 0.25);
        assert_eq!(flat.multiplier(123.0), 1.0, "zero period = flat");
        let zeroed = DiurnalSchedule::phase_table(vec![(0.0, 0.0)]);
        assert!(zeroed.multiplier(10.0) > 0.0, "clamped above zero");
    }
}
