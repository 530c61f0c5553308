//! Topic distributions for ads.
//!
//! The paper's quality experiments (§5) use Flixster's learned topic model
//! with `L = 10` and arrange `h = 10` ads so that "every two ads are in pure
//! competition, i.e., have the same topic distribution, with probability 0.91
//! in one randomly selected latent topic, and 0.01 in all others".
//! [`TopicDistribution::competition_pairs`] reproduces that construction.

use rand::Rng;

/// A distribution `γ_i` over `L` latent topics: `γ^z_i = Pr(Z = z | i)`,
/// `Σ_z γ^z_i = 1`.
#[derive(Clone, Debug, PartialEq)]
pub struct TopicDistribution {
    gamma: Vec<f32>,
}

impl TopicDistribution {
    /// Builds from raw weights, normalizing to sum 1.
    ///
    /// # Panics
    /// Panics if `weights` is empty, has a negative/non-finite entry, or sums
    /// to zero.
    pub fn new(weights: &[f32]) -> Self {
        assert!(!weights.is_empty(), "at least one topic required");
        let s: f32 = weights.iter().copied().sum();
        assert!(
            s.is_finite() && s > 0.0 && weights.iter().all(|&w| w >= 0.0),
            "topic weights must be non-negative and not all zero"
        );
        TopicDistribution {
            gamma: weights.iter().map(|&w| w / s).collect(),
        }
    }

    /// Uniform distribution over `l` topics.
    pub fn uniform(l: usize) -> Self {
        assert!(l > 0);
        TopicDistribution {
            gamma: vec![1.0 / l as f32; l],
        }
    }

    /// Point mass on topic `z`.
    pub fn delta(l: usize, z: usize) -> Self {
        assert!(z < l);
        let mut g = vec![0.0; l];
        g[z] = 1.0;
        TopicDistribution { gamma: g }
    }

    /// Peaked distribution: `dominant` mass on topic `z`, remainder spread
    /// evenly over the other topics. With `l = 10, dominant = 0.91` this is
    /// exactly the paper's ad profile (0.91 on one topic, 0.01 elsewhere).
    pub fn peaked(l: usize, z: usize, dominant: f32) -> Self {
        assert!(z < l);
        assert!((0.0..=1.0).contains(&dominant));
        if l == 1 {
            return TopicDistribution { gamma: vec![1.0] };
        }
        let rest = (1.0 - dominant) / (l - 1) as f32;
        let mut g = vec![rest; l];
        g[z] = dominant;
        TopicDistribution { gamma: g }
    }

    /// The paper's §5 marketplace: `h` ads over `l` topics such that ads
    /// `2k` and `2k+1` share a peaked distribution on a distinct random topic
    /// — every pair is in pure competition with each other and orthogonal to
    /// the rest. Requires `l >= ceil(h / 2)` distinct topics.
    pub fn competition_pairs<R: Rng + ?Sized>(
        h: usize,
        l: usize,
        dominant: f32,
        rng: &mut R,
    ) -> Vec<TopicDistribution> {
        let pairs = h.div_ceil(2);
        assert!(
            l >= pairs,
            "need at least {pairs} topics for {h} ads, got {l}"
        );
        // Random choice of `pairs` distinct topics.
        let mut topics: Vec<usize> = (0..l).collect();
        for i in (1..topics.len()).rev() {
            let j = rng.random_range(0..=i);
            topics.swap(i, j);
        }
        (0..h)
            .map(|i| TopicDistribution::peaked(l, topics[i / 2], dominant))
            .collect()
    }

    /// Random distribution drawn from a symmetric Dirichlet via normalized
    /// exponentials of concentration `alpha` (small `alpha` ⇒ sparse/peaked).
    pub fn random_dirichlet<R: Rng + ?Sized>(l: usize, alpha: f64, rng: &mut R) -> Self {
        assert!(l > 0 && alpha > 0.0);
        // Gamma(alpha) sampling via Marsaglia–Tsang (alpha < 1 boost trick).
        let mut g = vec![0f32; l];
        for x in &mut g {
            *x = sample_gamma(alpha, rng) as f32;
        }
        if g.iter().all(|&x| x <= 0.0) {
            g[rng.random_range(0..l)] = 1.0;
        }
        TopicDistribution::new(&g)
    }

    /// Number of topics `L`.
    #[inline]
    pub fn num_topics(&self) -> usize {
        self.gamma.len()
    }

    /// Mixture weights (normalized).
    #[inline]
    pub fn weights(&self) -> &[f32] {
        &self.gamma
    }

    /// `γ^z`.
    #[inline]
    pub fn weight(&self, z: usize) -> f32 {
        self.gamma[z]
    }
}

/// Marsaglia–Tsang Gamma(k, 1) sampler (with the `k < 1` boosting step).
fn sample_gamma<R: Rng + ?Sized>(k: f64, rng: &mut R) -> f64 {
    if k < 1.0 {
        let u: f64 = rng.random();
        return sample_gamma(k + 1.0, rng) * u.powf(1.0 / k);
    }
    let d = k - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box–Muller.
        let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.random();
        let x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.random();
        if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    fn assert_normalized(t: &TopicDistribution) {
        let s: f32 = t.weights().iter().sum();
        assert!((s - 1.0).abs() < 1e-5, "sum {s}");
    }

    #[test]
    fn normalization() {
        let t = TopicDistribution::new(&[2.0, 6.0]);
        assert_normalized(&t);
        assert!((t.weight(0) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn peaked_matches_paper_profile() {
        let t = TopicDistribution::peaked(10, 3, 0.91);
        assert_normalized(&t);
        assert!((t.weight(3) - 0.91).abs() < 1e-6);
        assert!((t.weight(0) - 0.01).abs() < 1e-6);
    }

    #[test]
    fn competition_pairs_structure() {
        let mut rng = SmallRng::seed_from_u64(9);
        let ads = TopicDistribution::competition_pairs(10, 10, 0.91, &mut rng);
        assert_eq!(ads.len(), 10);
        for k in 0..5 {
            assert_eq!(ads[2 * k], ads[2 * k + 1], "pair {k} not identical");
        }
        // Different pairs are near-orthogonal.
        let dot: f32 = ads[0]
            .weights()
            .iter()
            .zip(ads[2].weights())
            .map(|(a, b)| a * b)
            .sum();
        assert!(dot < 0.1, "pairs 0 and 1 overlap: {dot}");
    }

    #[test]
    fn single_topic_is_trivial() {
        let t = TopicDistribution::peaked(1, 0, 0.91);
        assert_eq!(t.weights(), &[1.0]);
    }

    #[test]
    fn dirichlet_normalized_and_varied() {
        let mut rng = SmallRng::seed_from_u64(10);
        for _ in 0..20 {
            let t = TopicDistribution::random_dirichlet(5, 0.3, &mut rng);
            assert_normalized(&t);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_zero_weights() {
        let _ = TopicDistribution::new(&[0.0, 0.0]);
    }
}
