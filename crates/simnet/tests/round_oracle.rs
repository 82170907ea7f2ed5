//! Differential test: `SimDuration::from_secs_f64` vs the libm oracle
//! `(s * 1e9).round() as u64`.
//!
//! `from_secs_f64` rounds by truncating and comparing the exact fraction
//! with 0.5. It must agree with `f64::round` bit for bit on every finite
//! positive input, saturate at `u64::MAX` from 2^64 ns up, and give 0 for
//! negative, NaN and infinite inputs. The inputs cover:
//!
//! - `k + 0.5` ns ties and their neighbours, reached through the few
//!   seconds values around `(k + 0.5) / 1e9` (the test counts how many land
//!   exactly on a tie, and requires some);
//! - 0.49999999999999994, the largest double below 0.5, as seconds and as
//!   nanoseconds;
//! - the 2^52–2^53 band, where doubles stop having a fraction;
//! - values from 2^64 ns up, which saturate;
//! - negative, NaN and ±inf seconds;
//! - a splitmix64 stream of raw bit patterns (every exponent) and of
//!   mantissas under exponents spanning the nanosecond range.
//!
//! Run with `cargo test -p simnet --test round_oracle -- --nocapture` to
//! see the case counts.

use simnet::SimDuration;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What `from_secs_f64` must return for `s`.
fn oracle(s: f64) -> u64 {
    if !s.is_finite() || s <= 0.0 {
        return 0;
    }
    (s * 1e9).round() as u64
}

/// The double `steps` ulps above (negative: below) a finite positive `x`.
fn ulps_away(x: f64, steps: i64) -> f64 {
    f64::from_bits(x.to_bits().wrapping_add_signed(steps))
}

#[derive(Default)]
struct Tally {
    cases: u64,
    exact_ties: u64,
}

impl Tally {
    fn check(&mut self, s: f64) {
        let got = SimDuration::from_secs_f64(s).as_nanos();
        let want = oracle(s);
        assert_eq!(
            got,
            want,
            "from_secs_f64({s:e}) = {got}, oracle {want} (s * 1e9 = {:e})",
            s * 1e9
        );
        let v = s * 1e9;
        if v.is_finite() && v > 0.0 && v.fract() == 0.5 {
            self.exact_ties += 1;
        }
        self.cases += 1;
    }

    /// Every seconds value within 4 ulps of `ns / 1e9`, so that `s * 1e9`
    /// lands on and around `ns`.
    fn around_nanos(&mut self, ns: f64) {
        let s = ns / 1e9;
        for steps in -4..=4 {
            self.check(ulps_away(s, steps));
        }
    }
}

#[test]
fn from_secs_f64_matches_libm_round() {
    let mut t = Tally::default();

    // Ties k + 0.5 and the doubles beside them, small and large k.
    for k in 0..20_000u64 {
        t.around_nanos(k as f64 + 0.5);
    }
    for shift in 0..52 {
        let k = (1u64 << shift) as f64;
        for delta in [-1.0, 0.0, 1.0] {
            t.around_nanos(k + delta + 0.5);
        }
    }
    assert!(
        t.exact_ties > 1_000,
        "only {} inputs hit an exact k + 0.5 tie",
        t.exact_ties
    );

    // The largest double below one half, as seconds and as nanoseconds.
    let below_half = 0.499_999_999_999_999_94_f64;
    assert_eq!(below_half, ulps_away(0.5, -1));
    t.check(below_half);
    t.around_nanos(below_half);

    // 2^52..2^53 ns, where the fraction vanishes, and its edges.
    let two52 = (1u64 << 52) as f64;
    for i in 0..4_096u64 {
        t.around_nanos(two52 + i as f64 * 1_048_573.0);
        t.around_nanos(two52 * 2.0 - i as f64 * 524_287.0);
    }

    // From 2^64 ns up the result saturates.
    let two64 = 18_446_744_073_709_551_616.0_f64;
    for factor in [1.0, 1.0 + f64::EPSILON, 1.5, 2.0, 1e10, 1e300] {
        t.around_nanos(two64 * factor);
    }
    t.around_nanos(two64 * (1.0 - f64::EPSILON));
    t.check(f64::MAX);
    assert_eq!(SimDuration::from_secs_f64(f64::MAX).as_nanos(), u64::MAX);

    // Bad inputs clamp to zero, +inf included.
    for s in [
        -0.0,
        0.0,
        -1.0,
        -1e-12,
        -f64::MIN_POSITIVE,
        f64::MIN,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        assert_eq!(SimDuration::from_secs_f64(s).as_nanos(), 0, "input {s:e}");
        t.cases += 1;
    }

    // Random bit patterns (every exponent, sign and special value), then
    // random mantissas under exponents that put s * 1e9 between 2^-8 and
    // 2^70.
    let mut rng = 0x5EED_2026_u64;
    for _ in 0..1_000_000 {
        let s = f64::from_bits(splitmix64(&mut rng));
        if s.is_infinite() {
            assert_eq!(SimDuration::from_secs_f64(s).as_nanos(), 0);
            t.cases += 1;
        } else {
            t.check(s);
        }
    }
    for _ in 0..1_000_000 {
        let bits = splitmix64(&mut rng);
        let exponent = 1023 - 38 + (bits >> 52) % 78;
        let s = f64::from_bits(exponent << 52 | bits & ((1 << 52) - 1));
        t.check(s);
    }

    println!(
        "round oracle: {} cases, {} exact k + 0.5 ties",
        t.cases, t.exact_ties
    );
}
