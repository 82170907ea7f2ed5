//! Analytic queueing: Erlang C and M/M/c waiting times.
//!
//! The experiment runner measures *service* latency; real deployments also
//! queue. The paper sidesteps queueing by provisioning to peak utilization
//! (§5.1) — this module quantifies what that provisioning buys: given the
//! measured offered load (steady-state cores) and a provisioned core count,
//! [`mmc_wait_time`] estimates the expected queueing delay a request would
//! see. Reports use it to sanity-check VM sizing.

/// Probability an arriving job waits in an M/M/c queue (Erlang C formula).
///
/// * `servers` — number of cores `c`.
/// * `offered_load` — λ/µ in Erlangs (equivalently: steady-state busy
///   cores). Must be `< servers` for a stable queue.
///
/// Returns a probability in `[0, 1]`; 1.0 when the queue is unstable.
pub fn erlang_c(servers: u32, offered_load: f64) -> f64 {
    let c = servers as f64;
    let a = offered_load;
    if a <= 0.0 {
        return 0.0;
    }
    if a >= c || servers == 0 {
        return 1.0;
    }
    // Numerically stable iterative form of the Erlang B recurrence,
    // converted to Erlang C.
    let mut inv_b = 1.0f64; // 1 / B(0, a) = 1
    for k in 1..=servers {
        inv_b = 1.0 + (k as f64 / a) * inv_b;
    }
    let b = 1.0 / inv_b; // Erlang B blocking probability
    let rho = a / c;
    (b / (1.0 - rho + rho * b)).clamp(0.0, 1.0)
}

/// Expected waiting time (not including service) in an M/M/c queue, in
/// multiples of the mean service time. `f64::INFINITY` when unstable.
pub fn mmc_wait_time(servers: u32, offered_load: f64) -> f64 {
    let c = servers as f64;
    if offered_load >= c {
        return f64::INFINITY;
    }
    let p_wait = erlang_c(servers, offered_load);
    p_wait / (c - offered_load)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erlang_c_matches_tabulated_values() {
        // Classic teletraffic table entries (±0.005).
        // c=1, a=0.5 → P(wait) = 0.5 (M/M/1: P = rho).
        assert!((erlang_c(1, 0.5) - 0.5).abs() < 1e-9);
        // c=2, a=1.0 → 1/3.
        assert!((erlang_c(2, 1.0) - 1.0 / 3.0).abs() < 1e-9);
        // c=10, a=8 → ≈ 0.409.
        assert!((erlang_c(10, 8.0) - 0.409).abs() < 0.005);
        // c=100, a=80 → 0.019646… (exact-arithmetic cross-check; also
        // exercises large-c numerical stability).
        assert!((erlang_c(100, 80.0) - 0.0196464).abs() < 1e-5);
    }

    #[test]
    fn boundary_behaviour() {
        assert_eq!(erlang_c(4, 0.0), 0.0);
        assert_eq!(erlang_c(4, 4.0), 1.0, "saturated queue always waits");
        assert_eq!(erlang_c(0, 1.0), 1.0);
        assert!(mmc_wait_time(4, 4.0).is_infinite());
        assert!(mmc_wait_time(4, 5.0).is_infinite());
    }

    #[test]
    fn mm1_wait_matches_closed_form() {
        // M/M/1: W_q = rho / (1 - rho) service times.
        for rho in [0.1, 0.5, 0.9] {
            let w = mmc_wait_time(1, rho);
            let expect = rho / (1.0 - rho);
            assert!((w - expect).abs() < 1e-9, "rho={rho}: {w} vs {expect}");
        }
    }

    #[test]
    fn wait_decreases_with_more_servers() {
        let load = 6.0;
        let mut prev = f64::INFINITY;
        for servers in 7..20 {
            let w = mmc_wait_time(servers, load);
            assert!(w < prev, "more servers must shorten the queue");
            prev = w;
        }
    }

    #[test]
    fn pooling_beats_partitioning() {
        // A classic queueing fact the cost model benefits from: one pooled
        // 16-core tier waits less than two 8-core tiers at the same total
        // load — relevant to remote (shared) vs linked (partitioned) caches.
        let pooled = mmc_wait_time(16, 12.0);
        let partitioned = mmc_wait_time(8, 6.0);
        assert!(pooled < partitioned);
    }
}
