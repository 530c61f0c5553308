//! Online stopping-rule sample sizing in the style of OPIM-C (Tang et al.,
//! SIGMOD 2018), adapted to the paper's per-advertiser RR machinery.
//!
//! The TIM-style schedule (Eq. 8 via [`crate::tim`]) sizes every sample for
//! the *worst case*: θ grows with `ln C(n, s)` and divides by a KPT lower
//! bound that can undershoot `OPT_s` badly, so the engine routinely draws
//! far more RR sets than the `(1 − 1/e − ε)` guarantee needs. The online
//! alternative keeps **two independent RR streams** per advertiser:
//!
//! * a **selection** stream — the only one the greedy heap, the marginal
//!   estimates, and every committed pick ever see;
//! * a **validation** stream — consulted exclusively by the stopping rule,
//!   so the coverage counts it produces for a set chosen on the selection
//!   stream are sums of increments that are independent of that choice.
//!
//! At each checkpoint the rule compares
//!
//! * a martingale **lower** bound on the achieved coverage of the selection
//!   stream's greedy extension, counted on the *validation* stream
//!   ([`rm_submod::bounds::martingale_coverage_lower`]), against
//! * a martingale **upper** bound on the best possible size-`s` coverage of
//!   the *selection* stream ([`rm_submod::bounds::martingale_coverage_upper`]
//!   applied to a submodularity top-`k` bound,
//!   [`crate::RrCoverage::top_k`]),
//!
//! and stops doubling the sample as soon as
//! `lower / upper ≥ 1 − 1/e − ε`. Sample sizes double from
//! [`initial_theta`] up to the Eq. 8 worst case, so even an instance where
//! the bound never certifies ends with the fixed-θ guarantee.

use rm_submod::bounds::{martingale_coverage_lower, martingale_coverage_upper};

/// Smallest sample the stopping rule may certify on. Below this the
/// martingale bounds are vacuous anyway; the gate also keeps a freak
/// early-sample coincidence from terminating a stream that has seen almost
/// no evidence.
pub const MIN_PILOT: usize = 256;

/// Doubling steps between [`initial_theta`] and the Eq. 8 cap: the first
/// checkpoint fires at `theta_cap / 2^DOUBLING_STEPS` sets.
pub const DOUBLING_STEPS: u32 = 6;

/// Per-check slice of the failure budget: check `i` (1-based) gets
/// `δ / (i·(i+1))`, which sums to `δ` over arbitrarily many checks — no
/// fixed allowance to outgrow. The slice only enters the confidence
/// exponent logarithmically, so late checks pay a few extra `ln i`.
#[inline]
fn check_slice_penalty(check_index: u64) -> f64 {
    let i = check_index.max(1) as f64;
    (i * (i + 1.0)).ln()
}

/// First sample size of the doubling schedule for a worst-case cap
/// `theta_cap`: `theta_cap / 2^DOUBLING_STEPS`, floored at [`MIN_PILOT`]
/// and never above the cap itself.
pub fn initial_theta(theta_cap: usize) -> usize {
    (theta_cap >> DOUBLING_STEPS)
        .max(MIN_PILOT)
        .min(theta_cap)
        .max(1)
}

/// Next sample size of the doubling schedule: `2θ`, clamped to the cap.
pub fn next_theta(theta: usize, theta_cap: usize) -> usize {
    theta.saturating_mul(2).min(theta_cap)
}

/// One evaluation of the stopping rule.
#[derive(Clone, Copy, Debug)]
pub struct BoundCheck {
    /// Lower confidence bound on the expected coverage gain of the greedy
    /// extension (validation stream).
    pub gain_lower: f64,
    /// Lower confidence bound on the expected coverage of the full extended
    /// seed set (validation stream).
    pub achieved_lower: f64,
    /// Upper confidence bound on the best residual extension's expected
    /// coverage gain (selection stream).
    pub residual_upper: f64,
    /// The certification fired (see [`StoppingRule::check`]).
    pub satisfied: bool,
}

/// The OPIM-style stopping rule: target ratio `1 − 1/e − ε` at confidence
/// matching the TIM machinery's `n^{-ℓ}` failure probability, split across
/// checks (a `δ/(i·(i+1))` slice per check, summing to `δ` over
/// arbitrarily many) and the bound directions.
///
/// The rule certifies the **residual** problem at the current latent size:
/// with committed seeds `S` and `k` more picks allowed, the coverage gain
/// `Λ(T ∪ S) − Λ(S)` is itself monotone submodular in `T`, so a greedy
/// `k`-extension is `(1 − 1/e)`-optimal for it and the same two-stream
/// OPIM argument applies with `S` conditioned on. Certification fires when
/// either
///
/// * the extension's validated gain provably clears `1 − 1/e − ε` times the
///   best possible residual gain, or
/// * the best possible residual gain is provably at most `ε` times the
///   validated achieved coverage — the remaining marginals are inside the
///   `± ε/2 · OPT_s` additive slack Eq. 8 targets, so more precision (and
///   more sets) cannot change the outcome materially.
///
/// Either way, certification additionally requires the achieved-coverage
/// estimate itself to be accurate to `ε/2` *relative* (the martingale
/// half-width at most `ε/2` of the observation). This is the engine-facing
/// half of Eq. 8's contract: the greedy loop charges its internal revenue
/// estimate against advertiser budgets, so a sample whose ratio certifies
/// but whose point estimates are still coarse would exhaust budgets on
/// selection bias instead of real coverage.
#[derive(Clone, Copy, Debug)]
pub struct StoppingRule {
    target: f64,
    epsilon: f64,
    a_base: f64,
    min_pilot: usize,
}

impl StoppingRule {
    /// Rule for a graph with `n` nodes at accuracy ε and confidence
    /// exponent ℓ (the [`crate::TimConfig`] parameters).
    pub fn new(n: usize, epsilon: f64, ell: f64) -> Self {
        // INVARIANT: constructor contract — the stopping-rule bounds are
        // meaningless outside these parameter ranges.
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
        // INVARIANT: constructor contract (see above).
        assert!(ell > 0.0, "ell must be positive");
        let n_f = (n.max(2)) as f64;
        // Base failure budget n^{-ℓ}, split per check by
        // `check_slice_penalty` and over the 3 bounds each check reads:
        // a_i = ln 3 + ℓ·ln n + ln(i·(i+1)).
        let a_base = 3.0f64.ln() + ell * n_f.ln();
        StoppingRule {
            target: 1.0 - (-1.0f64).exp() - epsilon,
            epsilon,
            a_base,
            min_pilot: MIN_PILOT,
        }
    }

    /// The certification target `1 − 1/e − ε` (clamped at 0: for ε close to
    /// `1 − 1/e` any sample certifies immediately, matching the vacuous
    /// guarantee).
    pub fn target(&self) -> f64 {
        self.target.max(0.0)
    }

    /// Confidence exponent `a_i` of check `i` (1-based). Each of a check's
    /// three bounds fails with probability `e^{-a_i} = n^{-ℓ}/(3·i·(i+1))`,
    /// so all bounds of all checks together fail with probability at most
    /// `n^{-ℓ}` — the same total budget [`StoppingRule::new`] states.
    pub fn confidence_exponent(&self, check_index: u64) -> f64 {
        self.a_base + check_slice_penalty(check_index)
    }

    /// Sample size below which [`Self::check`] never certifies.
    pub fn min_pilot(&self) -> usize {
        self.min_pilot
    }

    /// Clamps the certification pilot floor to the doubling cap.
    ///
    /// On tiny graphs Eq. 8's worst case `theta_cap` can sit below
    /// [`MIN_PILOT`]. The schedule then starts *at* the cap
    /// ([`initial_theta`] clamps from above), but [`Self::check`]'s
    /// `theta >= min_pilot` gate could never pass, so the rule silently
    /// degenerated to "run to the cap and report uncertified" — every
    /// check wasted. Certifying at `θ = theta_cap` is sound: the cap
    /// carries Eq. 8's fixed-θ guarantee by construction, so a stream
    /// that has reached it holds at least the worst-case evidence the
    /// pilot gate exists to demand. The floor is therefore lowered to the
    /// cap; in the normal regime (`theta_cap ≥ MIN_PILOT`) this is the
    /// identity.
    #[must_use]
    pub fn with_pilot_floor(mut self, theta_cap: usize) -> Self {
        self.min_pilot = self.min_pilot.min(theta_cap.max(1));
        self
    }

    /// Evaluates the rule on equal-sized streams of `theta` sets each.
    ///
    /// * `check_index` — 1-based per-advertiser check counter, addressing
    ///   this check's `δ/(i·(i+1))` slice of the failure budget;
    /// * `lambda_achieved` — validation-stream coverage count of the full
    ///   extended seed set (committed ∪ greedy extension);
    /// * `lambda_gain` — the extension's share of `lambda_achieved`;
    /// * `lambda_residual_ub` — observed upper bound on the best residual
    ///   extension's coverage gain on the *selection* stream.
    ///
    /// Both streams have the same θ, so counts compare directly without
    /// rescaling to spreads.
    pub fn check(
        &self,
        theta: usize,
        check_index: u64,
        lambda_achieved: f64,
        lambda_gain: f64,
        lambda_residual_ub: f64,
    ) -> BoundCheck {
        let a = self.confidence_exponent(check_index);
        let gain_lower = martingale_coverage_lower(lambda_gain, a);
        let achieved_lower = martingale_coverage_lower(lambda_achieved, a);
        // A residual covering nothing still gets the zero-observation
        // upper bound (2a), never less than one set.
        let residual_upper = martingale_coverage_upper(lambda_residual_ub, a).max(1.0);
        let ratio_ok = gain_lower >= self.target() * residual_upper;
        let negligible = residual_upper <= self.epsilon * achieved_lower;
        // ε/2-relative accuracy of the achieved estimate (trivially true at
        // Λ = 0, where the ratio condition governs instead).
        let accurate = lambda_achieved - achieved_lower <= 0.5 * self.epsilon * lambda_achieved;
        let satisfied = theta >= self.min_pilot && accurate && (ratio_ok || negligible);
        BoundCheck {
            gain_lower,
            achieved_lower,
            residual_upper,
            satisfied,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_reaches_the_cap_in_bounded_steps() {
        for cap in [1usize, 100, 4096, 1_000_000, 20_000_000] {
            let mut theta = initial_theta(cap);
            assert!(theta <= cap.max(MIN_PILOT.min(cap)).max(1));
            assert!(theta >= 1);
            let mut steps = 0;
            while theta < cap {
                theta = next_theta(theta, cap);
                steps += 1;
                assert!(steps <= DOUBLING_STEPS as usize + 1, "cap {cap}");
            }
            assert_eq!(theta, cap.max(initial_theta(cap)));
        }
    }

    #[test]
    fn rule_targets_one_minus_inv_e_minus_eps() {
        let r = StoppingRule::new(10_000, 0.3, 1.0);
        assert!((r.target() - (1.0 - (-1.0f64).exp() - 0.3)).abs() < 1e-12);
        assert!(r.confidence_exponent(1) > (10_000f64).ln());
        // Later checks spend smaller failure slices: a_i grows with i.
        assert!(r.confidence_exponent(100) > r.confidence_exponent(1));
        // ε beyond 1 − 1/e clamps the target to 0 (vacuous guarantee).
        let loose = StoppingRule::new(10_000, 0.9, 1.0);
        assert_eq!(loose.target(), 0.0);
    }

    #[test]
    fn pilot_gate_blocks_early_stops() {
        let r = StoppingRule::new(1000, 0.3, 1.0);
        // Overwhelming (synthetic) evidence, but below the pilot floor:
        // never satisfied. The gate is on θ alone.
        let early = r.check(MIN_PILOT - 1, 1, 50_000.0, 50_000.0, 1.0);
        assert!(!early.satisfied);
        // The same evidence at the pilot floor certifies.
        let at_pilot = r.check(MIN_PILOT, 1, 50_000.0, 50_000.0, 1.0);
        assert!(at_pilot.satisfied);
    }

    #[test]
    fn tiny_cap_clamps_the_pilot_gate() {
        // Eq. 8 cap below MIN_PILOT (tiny graph): the schedule starts at
        // the cap, and without the clamp the θ ≥ MIN_PILOT gate could
        // never pass — the rule degenerated to "run to the cap, never
        // certify". With the clamp, strong evidence at θ = cap certifies.
        let cap = 40;
        assert!(cap < MIN_PILOT);
        assert_eq!(initial_theta(cap), cap);
        let r = StoppingRule::new(16, 0.3, 1.0).with_pilot_floor(cap);
        assert_eq!(r.min_pilot(), cap);
        let bc = r.check(cap, 1, 50_000.0, 50_000.0, 1.0);
        assert!(bc.satisfied, "clamped pilot must allow certification");
        // Below the (clamped) cap the gate still blocks.
        assert!(!r.check(cap - 1, 1, 50_000.0, 50_000.0, 1.0).satisfied);
        // Large caps leave the MIN_PILOT gate untouched.
        let r2 = StoppingRule::new(16, 0.3, 1.0).with_pilot_floor(1_000_000);
        assert_eq!(r2.min_pilot(), MIN_PILOT);
    }

    #[test]
    fn coarse_achieved_estimates_block_certification() {
        // Ratio overwhelmingly satisfied, but the achieved count is so
        // small that its martingale half-width exceeds ε/2 of it: the
        // accuracy condition must keep sampling (the engine charges this
        // estimate against budgets).
        let r = StoppingRule::new(1000, 0.3, 1.0);
        let bc = r.check(100_000, 1, 200.0, 200.0, 1.0);
        assert!(!bc.satisfied, "coarse estimate certified: {bc:?}");
        // Scaling every count up (sample doubled a few times) certifies.
        let fine = r.check(100_000, 1, 20_000.0, 20_000.0, 100.0);
        assert!(fine.satisfied);
    }

    #[test]
    fn check_orders_bounds_around_observations() {
        let r = StoppingRule::new(1000, 0.3, 1.0);
        let bc = r.check(10_000, 1, 5_000.0, 4_000.0, 9_000.0);
        assert!(bc.gain_lower <= 4_000.0);
        assert!(bc.achieved_lower <= 5_000.0);
        assert!(bc.residual_upper >= 9_000.0);
        // Identical, huge counts on both sides certify: the ratio tends to
        // 1 > 1 − 1/e − ε as the concentration slack vanishes.
        let big = r.check(1_000_000, 500, 900_000.0, 900_000.0, 900_000.0);
        assert!(big.satisfied);
    }

    #[test]
    fn negligible_residual_certifies_without_ratio() {
        let r = StoppingRule::new(1000, 0.3, 1.0);
        // Tiny remaining marginals against a large achieved coverage: the
        // ratio test fails (gain 0) but the residual is provably inside the
        // ε slack, so the rule stops anyway.
        let bc = r.check(100_000, 1, 90_000.0, 0.0, 0.0);
        assert!(bc.satisfied, "negligible residual must certify: {bc:?}");
        // Same residual, tiny achieved coverage: must keep sampling.
        let bc2 = r.check(100_000, 1, 20.0, 0.0, 0.0);
        assert!(!bc2.satisfied);
    }
}
