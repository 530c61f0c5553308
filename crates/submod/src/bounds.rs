//! Instance-dependent approximation bounds: Theorems 2 and 3 — plus the
//! martingale concentration inequalities behind the online (OPIM-style)
//! stopping rule of `rm_rrsets::opim`.

/// Theorem 2 (CA-GREEDY):
/// `(1/κ_π) · [1 − ((R − κ_π)/R)^r]`, where `κ_π` is the total curvature of
/// the revenue function and `r`/`R` are the lower/upper ranks of the
/// feasibility independence system.
///
/// The `κ → 0` limit is `r/R` (Eq. 2–3 of the paper show the bound is always
/// at least `1/R`).
pub fn theorem2_bound(kappa: f64, r: usize, big_r: usize) -> f64 {
    assert!((0.0..=1.0).contains(&kappa), "curvature must be in [0,1]");
    assert!(big_r >= 1 && r >= 1 && r <= big_r, "need 1 <= r <= R");
    let rr = big_r as f64;
    if kappa < 1e-12 {
        // lim_{κ→0} (1/κ)(1 − (1 − κ/R)^r) = r/R.
        return r as f64 / rr;
    }
    (1.0 - ((rr - kappa) / rr).powi(r as i32)) / kappa
}

/// Theorem 3 (CS-GREEDY):
/// `1 − R·ρ_max / (R·ρ_max + (1 − max_i κ_{ρ_i}) · ρ_min)`.
///
/// Degenerates to 0 as `max_i κ_{ρ_i} → 1` (the paper notes the guarantee is
/// unbounded for totally saturated payment functions).
pub fn theorem3_bound(big_r: usize, kappa_rho_max: f64, rho_max: f64, rho_min: f64) -> f64 {
    assert!(big_r >= 1);
    assert!((0.0..=1.0).contains(&kappa_rho_max));
    assert!(rho_max >= rho_min && rho_min >= 0.0);
    let denom = big_r as f64 * rho_max + (1.0 - kappa_rho_max) * rho_min;
    if denom <= 0.0 {
        return 0.0;
    }
    1.0 - (big_r as f64 * rho_max) / denom
}

/// Martingale **lower** bound on the mean of a sum of `[0, 1]` increments.
///
/// Let `Λ` be the observed coverage count of a fixed seed set over `θ`
/// independent RR sets (a sum of i.i.d. Bernoulli variables — or, with an
/// adaptively chosen `θ`, a stopped martingale with `[0, 1]` increments).
/// With probability at least `1 − e^{−a}`,
///
/// ```text
/// E[Λ]  ≥  ( √(Λ + 2a/9) − √(a/2) )² − a/18
/// ```
///
/// (Tang et al., SIGMOD 2018, Lemma 4.2 — the bound OPIM-C uses to certify
/// the achieved coverage from its validation stream.) The result is clamped
/// to `[0, Λ]`: the bound equals `Λ` at `a = 0` and degrades toward 0 as the
/// confidence requirement grows, reaching exactly 0 at `Λ = 0` for every
/// `a`.
pub fn martingale_coverage_lower(lambda: f64, a: f64) -> f64 {
    assert!(lambda >= 0.0, "coverage count must be non-negative");
    assert!(a >= 0.0, "confidence exponent must be non-negative");
    let root = (lambda + 2.0 * a / 9.0).sqrt() - (a / 2.0).sqrt();
    (root * root - a / 18.0).clamp(0.0, lambda)
}

/// Martingale **upper** bound companion of [`martingale_coverage_lower`]:
/// with probability at least `1 − e^{−a}`,
///
/// ```text
/// E[Λ]  ≤  ( √(Λ + a/2) + √(a/2) )²
/// ```
///
/// Applied to `Λ` = an *observed upper bound* on the optimum's coverage
/// count (e.g. a submodularity top-`k` bound), this upper-bounds the
/// optimum's expected coverage — the `OPT` side of the stopping rule. The
/// result is always at least `Λ`.
pub fn martingale_coverage_upper(lambda: f64, a: f64) -> f64 {
    assert!(lambda >= 0.0, "coverage count must be non-negative");
    assert!(a >= 0.0, "confidence exponent must be non-negative");
    let root = (lambda + a / 2.0).sqrt() + (a / 2.0).sqrt();
    (root * root).max(lambda)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn figure1_instance_bound_is_one_half() {
        // Paper's tightness instance: κ_π = 1, r = 1, R = 2 ⇒ bound 1/2.
        let b = theorem2_bound(1.0, 1, 2);
        assert!((b - 0.5).abs() < 1e-12);
    }

    #[test]
    fn theorem2_zero_curvature_limit() {
        assert!((theorem2_bound(0.0, 3, 4) - 0.75).abs() < 1e-12);
        // Continuity: tiny κ ≈ limit.
        assert!((theorem2_bound(1e-13, 3, 4) - 0.75).abs() < 1e-6);
    }

    #[test]
    fn theorem3_examples() {
        // Modular payments (κ=0), uniform singleton payments: 1 − R/(R+1).
        let b = theorem3_bound(4, 0.0, 1.0, 1.0);
        assert!((b - 0.2).abs() < 1e-12);
        // Saturated payments degenerate to 0.
        assert_eq!(theorem3_bound(4, 1.0, 1.0, 1.0), 0.0);
    }

    #[test]
    fn martingale_bounds_bracket_the_observation() {
        for &(lambda, a) in &[(0.0, 3.0), (10.0, 1.0), (500.0, 9.2), (1e6, 20.0)] {
            let lo = martingale_coverage_lower(lambda, a);
            let hi = martingale_coverage_upper(lambda, a);
            assert!(lo <= lambda && lambda <= hi, "λ={lambda} a={a}: {lo} {hi}");
        }
        // a = 0 (no confidence requirement) collapses both bounds onto λ.
        assert_eq!(martingale_coverage_lower(42.0, 0.0), 42.0);
        assert_eq!(martingale_coverage_upper(42.0, 0.0), 42.0);
        // λ = 0 keeps the lower bound at exactly 0 for any a.
        assert_eq!(martingale_coverage_lower(0.0, 7.0), 0.0);
    }

    proptest! {
        /// lower ≤ point estimate ≤ upper on arbitrary (λ, a).
        #[test]
        fn martingale_bounds_ordered(lambda in 0.0f64..1e6, a in 0.0f64..50.0) {
            let lo = martingale_coverage_lower(lambda, a);
            let hi = martingale_coverage_upper(lambda, a);
            prop_assert!(lo >= 0.0);
            prop_assert!(lo <= lambda + 1e-9, "lower {lo} above λ {lambda}");
            prop_assert!(hi + 1e-9 >= lambda, "upper {hi} below λ {lambda}");
        }

        /// Doubling the sample (coverage count scales with θ at a fixed
        /// coverage fraction) tightens both *relative* bounds monotonically.
        #[test]
        fn martingale_bounds_tighten_as_samples_double(
            frac in 0.01f64..1.0,
            theta in 16usize..20_000,
            a in 0.1f64..30.0,
        ) {
            let l1 = frac * theta as f64;
            let l2 = frac * (2 * theta) as f64;
            let rel_lo_1 = martingale_coverage_lower(l1, a) / l1;
            let rel_lo_2 = martingale_coverage_lower(l2, a) / l2;
            let rel_hi_1 = martingale_coverage_upper(l1, a) / l1;
            let rel_hi_2 = martingale_coverage_upper(l2, a) / l2;
            prop_assert!(rel_lo_2 + 1e-12 >= rel_lo_1,
                "relative lower loosened: {rel_lo_1} -> {rel_lo_2}");
            prop_assert!(rel_hi_2 <= rel_hi_1 + 1e-12,
                "relative upper loosened: {rel_hi_1} -> {rel_hi_2}");
        }
    }

    proptest! {
        /// Theorem 2's bound is always within (0, 1] and at least 1/R (Eq. 3).
        #[test]
        fn theorem2_range(kappa in 0.0f64..=1.0, r in 1usize..6, extra in 0usize..6) {
            let big_r = r + extra;
            let b = theorem2_bound(kappa, r, big_r);
            prop_assert!(b > 0.0 && b <= 1.0 + 1e-12, "bound {b}");
            prop_assert!(b + 1e-12 >= 1.0 / big_r as f64, "bound {b} below 1/R");
        }

        /// Bound improves as r approaches R.
        #[test]
        fn theorem2_monotone_in_r(kappa in 0.01f64..=1.0, big_r in 2usize..8) {
            let mut prev = 0.0;
            for r in 1..=big_r {
                let b = theorem2_bound(kappa, r, big_r);
                prop_assert!(b + 1e-12 >= prev, "r={r}: {b} < {prev}");
                prev = b;
            }
        }

        /// Theorem 3 improves as ρ_max/ρ_min shrinks (paper's discussion).
        #[test]
        fn theorem3_monotone_in_ratio(big_r in 1usize..6, kappa in 0.0f64..0.99) {
            let tight = theorem3_bound(big_r, kappa, 1.0, 1.0);
            let loose = theorem3_bound(big_r, kappa, 10.0, 1.0);
            prop_assert!(tight >= loose - 1e-12);
        }
    }
}
