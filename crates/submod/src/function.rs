//! Abstract monotone set functions and reusable concrete families.

use crate::bitset::BitSet;

/// A non-negative set function over the ground set `{0, .., ground_size-1}`.
///
/// Implementations in this workspace are monotone; submodularity is required
/// by the greedy guarantees but not enforced — `proptest` suites check it on
/// the concrete families.
pub trait SetFunction {
    /// Ground-set size.
    fn ground_size(&self) -> usize;

    /// `f(S)`.
    fn eval(&self, s: &BitSet) -> f64;

    /// Marginal gain `f(x | S) = f(S ∪ {x}) − f(S)`. Override when a faster
    /// incremental form exists.
    fn marginal(&self, x: usize, s: &BitSet) -> f64 {
        if s.contains(x) {
            return 0.0;
        }
        self.eval(&s.with(x)) - self.eval(s)
    }

    /// `f({x})`.
    fn singleton(&self, x: usize) -> f64 {
        self.eval(&BitSet::from_iter(self.ground_size(), [x]))
    }
}

impl<F: SetFunction + ?Sized> SetFunction for Box<F> {
    fn ground_size(&self) -> usize {
        (**self).ground_size()
    }
    fn eval(&self, s: &BitSet) -> f64 {
        (**self).eval(s)
    }
    fn marginal(&self, x: usize, s: &BitSet) -> f64 {
        (**self).marginal(x, s)
    }
    fn singleton(&self, x: usize) -> f64 {
        (**self).singleton(x)
    }
}

/// Modular (additive) function `f(S) = Σ_{x∈S} w_x`. Curvature 0.
#[derive(Clone, Debug)]
pub struct ModularFunction {
    weights: Vec<f64>,
}

impl ModularFunction {
    /// From per-element weights (must be non-negative for monotonicity).
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(
            weights.iter().all(|&w| w >= 0.0),
            "weights must be non-negative"
        );
        ModularFunction { weights }
    }

    /// Element weight.
    pub fn weight(&self, x: usize) -> f64 {
        self.weights[x]
    }
}

impl SetFunction for ModularFunction {
    fn ground_size(&self) -> usize {
        self.weights.len()
    }
    fn eval(&self, s: &BitSet) -> f64 {
        s.iter().map(|x| self.weights[x]).sum()
    }
    fn marginal(&self, x: usize, s: &BitSet) -> f64 {
        if s.contains(x) {
            0.0
        } else {
            self.weights[x]
        }
    }
    fn singleton(&self, x: usize) -> f64 {
        self.weights[x]
    }
}

/// Weighted coverage `f(S) = Σ_{item covered by S} w_item`. The canonical
/// monotone submodular function; with unit weights its curvature is 1 when
/// any two elements overlap completely and 0 when all element sets are
/// disjoint.
#[derive(Clone, Debug)]
pub struct CoverageFunction {
    /// For each ground element, the items it covers.
    covers: Vec<Vec<u32>>,
    /// Item weights.
    item_weights: Vec<f64>,
}

impl CoverageFunction {
    /// `covers[x]` lists the items element `x` covers; `item_weights` gives
    /// each item's value.
    pub fn new(covers: Vec<Vec<u32>>, item_weights: Vec<f64>) -> Self {
        let items = item_weights.len() as u32;
        assert!(
            covers.iter().flatten().all(|&i| i < items),
            "item id out of range"
        );
        assert!(item_weights.iter().all(|&w| w >= 0.0));
        CoverageFunction {
            covers,
            item_weights,
        }
    }

    /// Unit-weight coverage over `num_items` items.
    pub fn unit(covers: Vec<Vec<u32>>, num_items: usize) -> Self {
        Self::new(covers, vec![1.0; num_items])
    }
}

impl SetFunction for CoverageFunction {
    fn ground_size(&self) -> usize {
        self.covers.len()
    }
    fn eval(&self, s: &BitSet) -> f64 {
        let mut hit = vec![false; self.item_weights.len()];
        let mut total = 0.0;
        for x in s.iter() {
            for &i in &self.covers[x] {
                if !hit[i as usize] {
                    hit[i as usize] = true;
                    total += self.item_weights[i as usize];
                }
            }
        }
        total
    }
}

/// `g(S) = scale · f(S)` — e.g. revenue `π_i = cpe(i) · σ_i`.
#[derive(Clone, Debug)]
pub struct ScaledFunction<F> {
    inner: F,
    scale: f64,
}

impl<F: SetFunction> ScaledFunction<F> {
    /// Scales `inner` by a non-negative factor.
    pub fn new(inner: F, scale: f64) -> Self {
        assert!(scale >= 0.0);
        ScaledFunction { inner, scale }
    }
}

impl<F: SetFunction> SetFunction for ScaledFunction<F> {
    fn ground_size(&self) -> usize {
        self.inner.ground_size()
    }
    fn eval(&self, s: &BitSet) -> f64 {
        self.scale * self.inner.eval(s)
    }
    fn marginal(&self, x: usize, s: &BitSet) -> f64 {
        self.scale * self.inner.marginal(x, s)
    }
}

/// Set function given by an explicit table over all `2^n` subsets
/// (index = bitmask). Test oracle for arbitrary functions and the bridge for
/// exact spreads computed by world enumeration.
#[derive(Clone, Debug)]
pub struct TableFunction {
    n: usize,
    values: Vec<f64>,
}

impl TableFunction {
    /// `values[mask]` = `f(mask)`; requires `values.len() == 2^n`, `f(∅) = 0`.
    pub fn new(n: usize, values: Vec<f64>) -> Self {
        assert!(n <= 24, "table function limited to small ground sets");
        assert_eq!(values.len(), 1usize << n);
        assert!(values[0].abs() < 1e-12, "f(∅) must be 0");
        TableFunction { n, values }
    }

    /// Builds the table by evaluating `f` on every subset mask.
    pub fn tabulate(n: usize, f: impl FnMut(u32) -> f64) -> Self {
        let values = (0..1u32 << n).map(f).collect();
        Self::new(n, values)
    }

    fn mask_of(s: &BitSet) -> u32 {
        let mut m = 0u32;
        for x in s.iter() {
            m |= 1 << x;
        }
        m
    }
}

impl SetFunction for TableFunction {
    fn ground_size(&self) -> usize {
        self.n
    }
    fn eval(&self, s: &BitSet) -> f64 {
        self.values[Self::mask_of(s) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn subset_strategy(n: usize) -> impl Strategy<Value = BitSet> {
        prop::collection::vec(prop::bool::ANY, n).prop_map(move |bits| {
            BitSet::from_iter(
                n,
                bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i),
            )
        })
    }

    #[test]
    fn modular_evaluation() {
        let f = ModularFunction::new(vec![1.0, 2.0, 4.0]);
        assert_eq!(f.eval(&BitSet::from_iter(3, [0, 2])), 5.0);
        assert_eq!(f.marginal(1, &BitSet::from_iter(3, [0])), 2.0);
        assert_eq!(f.marginal(0, &BitSet::from_iter(3, [0])), 0.0);
    }

    #[test]
    fn coverage_evaluation() {
        let f = CoverageFunction::unit(vec![vec![0, 1], vec![1, 2], vec![3]], 4);
        assert_eq!(f.eval(&BitSet::from_iter(3, [0, 1])), 3.0);
        assert_eq!(f.singleton(2), 1.0);
        assert_eq!(f.marginal(1, &BitSet::from_iter(3, [0])), 1.0);
    }

    #[test]
    fn sum_and_scale_compose() {
        let pi = ScaledFunction::new(CoverageFunction::unit(vec![vec![0], vec![0, 1]], 2), 2.0);
        let c = ModularFunction::new(vec![0.5, 1.5]);
        // ρ({1}) = π({1}) + c({1}) = 2*2 + 1.5 = 5.5
        let s = BitSet::from_iter(2, [1]);
        assert_eq!(pi.eval(&s) + c.eval(&s), 5.5);
    }

    #[test]
    fn table_function_round_trip() {
        let f = TableFunction::tabulate(3, |m| m.count_ones() as f64);
        assert_eq!(f.eval(&BitSet::from_iter(3, [0, 2])), 2.0);
    }

    proptest! {
        #[test]
        fn coverage_is_monotone(s in subset_strategy(6), x in 0usize..6) {
            let f = CoverageFunction::unit(
                vec![vec![0,1], vec![1,2], vec![2,3], vec![0,3], vec![4], vec![1,4]], 5);
            prop_assert!(f.marginal(x, &s) >= -1e-12);
        }

        #[test]
        fn coverage_is_submodular(sub in subset_strategy(6), extra in subset_strategy(6), x in 0usize..6) {
            let f = CoverageFunction::unit(
                vec![vec![0,1], vec![1,2], vec![2,3], vec![0,3], vec![4], vec![1,4]], 5);
            // S = sub, T = sub ∪ extra ⊇ S; require f(x|T) <= f(x|S).
            let mut t = sub.clone();
            for e in extra.iter() { t.insert(e); }
            if !t.contains(x) {
                prop_assert!(f.marginal(x, &t) <= f.marginal(x, &sub) + 1e-12);
            }
        }

        #[test]
        fn modular_marginal_is_context_free(s in subset_strategy(5), x in 0usize..5) {
            let f = ModularFunction::new(vec![1.0, 0.0, 2.5, 3.0, 0.25]);
            if !s.contains(x) {
                prop_assert!((f.marginal(x, &s) - f.singleton(x)).abs() < 1e-12);
            }
        }
    }
}
