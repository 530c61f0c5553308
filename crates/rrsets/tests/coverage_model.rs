//! Property tests: the arena-backed [`RrCoverage`] is behaviorally identical
//! to a naive `Vec<Vec<NodeId>>` reference model under random interleavings
//! of `add_batch` / `cover_with` / `coverage` / `max_coverage`, and its
//! Table-3 count `compacted_memory_bytes` is exactly what `compact` leaves
//! behind, at every step of seeded ingest / cover scripts, on plain and
//! weighted indexes alike.

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use rm_graph::NodeId;
use rm_rrsets::{RrArena, RrCoverage};

/// Reference implementation: owned nested vecs with one weight per set,
/// masses recomputed by scanning every set on demand. Slow and obviously
/// correct.
#[derive(Debug, Default)]
struct NaiveCoverage {
    n: usize,
    sets: Vec<Vec<NodeId>>,
    weights: Vec<f64>,
    covered: Vec<bool>,
}

impl NaiveCoverage {
    fn new(n: usize) -> Self {
        NaiveCoverage {
            n,
            ..NaiveCoverage::default()
        }
    }

    /// Ingests `batch`, set `i` weighing `weights[i]`.
    fn add_batch(&mut self, batch: &[Vec<NodeId>], weights: &[f64], is_seed: &[bool]) -> usize {
        let mut arrived_covered = 0;
        for (set, &w) in batch.iter().zip(weights) {
            let hit = set.iter().any(|&u| is_seed[u as usize]);
            arrived_covered += usize::from(hit);
            self.sets.push(set.clone());
            self.weights.push(w);
            self.covered.push(hit);
        }
        arrived_covered
    }

    fn coverage(&self, v: NodeId) -> f64 {
        (0..self.sets.len())
            .filter(|&i| !self.covered[i] && self.sets[i].contains(&v))
            .map(|i| self.weights[i])
            .sum()
    }

    fn cover_with(&mut self, v: NodeId) -> u32 {
        let mut newly = 0;
        for (set, cov) in self.sets.iter().zip(self.covered.iter_mut()) {
            if !*cov && set.contains(&v) {
                *cov = true;
                newly += 1;
            }
        }
        newly
    }

    fn covered(&self) -> f64 {
        (0..self.sets.len())
            .filter(|&i| self.covered[i])
            .map(|i| self.weights[i])
            .sum()
    }

    /// Coverage of every node `skip` keeps, largest first.
    fn ranked(&self, skip: impl Fn(NodeId) -> bool) -> Vec<f64> {
        let mut c: Vec<f64> = (0..self.n as NodeId)
            .filter(|&v| !skip(v))
            .map(|v| self.coverage(v))
            .collect();
        c.sort_unstable_by(|a, b| b.total_cmp(a));
        c
    }

    fn max_coverage(&self, skip: impl Fn(NodeId) -> bool) -> f64 {
        self.ranked(skip).first().copied().unwrap_or(0.0)
    }

    fn top_k(&self, k: usize, skip: impl Fn(NodeId) -> bool) -> f64 {
        self.ranked(skip).into_iter().take(k).sum()
    }
}

/// Decodes one op from a raw integer. Layout: low bits select the action,
/// the rest parameterize it deterministically.
fn apply_op(
    op: u64,
    n: usize,
    idx: &mut RrCoverage,
    model: &mut NaiveCoverage,
    is_seed: &mut [bool],
) -> Result<(), TestCaseError> {
    match op % 5 {
        // add_batch of up to 4 sets with pseudo-random small members.
        0 => {
            let mut x = op / 5;
            let batch_len = (x % 4) as usize + 1;
            let mut batch: Vec<Vec<NodeId>> = Vec::new();
            for _ in 0..batch_len {
                let set_len = (x % 3) as usize + 1;
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let mut set = Vec::new();
                for k in 0..set_len {
                    let u = ((x >> (8 * k)) % n as u64) as NodeId;
                    if !set.contains(&u) {
                        set.push(u);
                    }
                }
                batch.push(set);
            }
            let arena: RrArena = batch.iter().collect();
            let a = idx.add_batch(&arena, is_seed);
            let b = model.add_batch(&batch, &vec![1.0; batch.len()], is_seed);
            prop_assert_eq!(a, b, "arrived-covered counts diverge");
        }
        // cover_with a pseudo-random node; it becomes a seed.
        1 => {
            let v = ((op / 5) % n as u64) as NodeId;
            let a = idx.cover_with(v);
            let b = model.cover_with(v);
            prop_assert_eq!(a, b, "cover_with({}) gains diverge", v);
            is_seed[v as usize] = true;
        }
        // Full coverage comparison.
        2 => {
            for v in 0..n as NodeId {
                prop_assert_eq!(idx.coverage(v), model.coverage(v), "coverage({})", v);
            }
        }
        // Terminal-style compaction mid-stream: queries must be untouched
        // and θ must keep counting the dropped sets.
        3 => {
            idx.compact();
            prop_assert_eq!(idx.num_sets(), model.sets.len());
            prop_assert_eq!(idx.covered(), model.covered());
            for v in 0..n as NodeId {
                prop_assert_eq!(
                    idx.coverage(v),
                    model.coverage(v),
                    "post-compact coverage({})",
                    v
                );
            }
        }
        // max_coverage with a pseudo-random skip mask.
        _ => {
            let mask = op / 5;
            let skip = |v: NodeId| (mask >> (v % 61)) & 1 == 1;
            prop_assert_eq!(idx.max_coverage(skip), model.max_coverage(skip));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]
    #[test]
    fn coverage_index_matches_naive_model(
        n in 2usize..10,
        ops in prop::collection::vec(any::<u64>(), 1..40),
    ) {
        let mut idx = RrCoverage::new(n);
        let mut model = NaiveCoverage::new(n);
        let mut is_seed = vec![false; n];
        for &op in &ops {
            apply_op(op, n, &mut idx, &mut model, &mut is_seed)?;
        }
        // Terminal invariants.
        prop_assert_eq!(idx.num_sets(), model.sets.len());
        prop_assert_eq!(idx.covered(), model.covered());
        for v in 0..n as NodeId {
            prop_assert_eq!(idx.coverage(v), model.coverage(v));
        }
    }
}

/// `sets` random sets over `0..n`, each of 1–4 distinct members.
fn random_arena(rng: &mut SmallRng, n: usize, sets: usize) -> RrArena {
    (0..sets)
        .map(|_| {
            let mut set: Vec<NodeId> = Vec::new();
            for _ in 0..rng.random_range(1..5) {
                let u = rng.random_range(0..n as NodeId);
                if !set.contains(&u) {
                    set.push(u);
                }
            }
            set
        })
        .collect()
}

/// `compacted_memory_bytes()` against its oracle: compact a clone and read
/// its capacity-based `memory_bytes()`.
fn check_compacted_bytes(idx: &RrCoverage, step: usize) -> Result<(), TestCaseError> {
    let mut oracle = idx.clone();
    oracle.compact();
    prop_assert_eq!(
        idx.compacted_memory_bytes(),
        oracle.memory_bytes(),
        "step {}: compacted bytes differ from compact()",
        step
    );
    Ok(())
}

/// Every mass query of `idx` equals the naive model's sum exactly. The
/// scripts' weights are multiples of 0.25, so every sum is exact in `f64`.
fn check_masses(
    idx: &RrCoverage,
    model: &NaiveCoverage,
    rng: &mut SmallRng,
    step: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(idx.num_sets(), model.sets.len());
    prop_assert_eq!(idx.covered(), model.covered(), "step {}: covered()", step);
    for v in 0..model.n as NodeId {
        prop_assert_eq!(
            idx.coverage(v),
            model.coverage(v),
            "step {}: coverage({})",
            step,
            v
        );
    }
    let mask: u64 = rng.random();
    let skip = |v: NodeId| (mask >> (v % 61)) & 1 == 1;
    let k = rng.random_range(0..model.n + 2);
    prop_assert_eq!(
        idx.max_coverage(skip),
        model.max_coverage(skip),
        "step {}",
        step
    );
    prop_assert_eq!(
        idx.top_k(k, skip),
        model.top_k(k, skip),
        "step {}: top_k({})",
        step,
        k
    );
    Ok(())
}

/// A unit-weight weighted index reports exactly what the plain one does,
/// bit for bit, on every query and on the greedy extension.
fn check_unit_matches_plain(
    unit: &RrCoverage,
    plain: &RrCoverage,
    n: usize,
    step: usize,
) -> Result<(), TestCaseError> {
    let bits = |x: f64| x.to_bits();
    prop_assert_eq!(unit.num_sets(), plain.num_sets());
    prop_assert_eq!(bits(unit.covered()), bits(plain.covered()), "step {}", step);
    for v in 0..n as NodeId {
        prop_assert_eq!(
            bits(unit.coverage(v)),
            bits(plain.coverage(v)),
            "step {}",
            step
        );
    }
    let skip = |v: NodeId| v % 3 == 1;
    prop_assert_eq!(
        bits(unit.max_coverage(skip)),
        bits(plain.max_coverage(skip))
    );
    prop_assert_eq!(bits(unit.top_k(3, skip)), bits(plain.top_k(3, skip)));
    let (u, p) = (
        unit.greedy_extension(3, 2, skip),
        plain.greedy_extension(3, 2, skip),
    );
    prop_assert_eq!(u.picks, p.picks, "step {}: greedy picks", step);
    prop_assert_eq!(bits(u.covered), bits(p.covered));
    prop_assert_eq!(bits(u.residual_top), bits(p.residual_top));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]
    #[test]
    fn compacted_bytes_match_compact_at_every_step(
        n in 2usize..40,
        seed in any::<u64>(),
        steps in 1usize..60,
    ) {
        // One script drives a plain, a weighted and a unit-weight weighted
        // index side by side. Batches are small (pending tail) or large
        // (folded into a rebuild); ingests pass the committed seeds or an
        // all-false mask.
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plain = RrCoverage::new(n);
        let mut weighted = RrCoverage::new_weighted(n);
        let mut unit = RrCoverage::new_weighted(n);
        let mut model = NaiveCoverage::new(n);
        let mut wmodel = NaiveCoverage::new(n);
        let mut is_seed = vec![false; n];
        let no_seeds = vec![false; n];
        for step in 0..steps {
            if rng.random_range(0..3u32) < 2 {
                let len = if rng.random_bool(0.3) {
                    rng.random_range(40..300)
                } else {
                    rng.random_range(1..6)
                };
                let arena = random_arena(&mut rng, n, len);
                // add_batch, or add_range over a sub-range of the arena.
                let (lo, hi) = if rng.random_bool(0.5) {
                    (0, len)
                } else {
                    let lo = rng.random_range(0..len);
                    (lo, rng.random_range(lo..=len))
                };
                let mask = if rng.random_bool(0.3) { &no_seeds } else { &is_seed };
                let arrived = if lo == 0 && hi == len && rng.random_bool(0.5) {
                    plain.add_batch(&arena, mask)
                } else {
                    plain.add_range(&arena, lo, hi, mask)
                };
                let w: Vec<f32> = (lo..hi).map(|_| rng.random_range(1..8u32) as f32 / 4.0).collect();
                let arrived_w = weighted.add_range_weighted(&arena, lo, hi, mask, &w);
                let arrived_u = unit.add_range_weighted(&arena, lo, hi, mask, &vec![1.0; hi - lo]);
                let batch: Vec<Vec<NodeId>> = (lo..hi).map(|i| arena.get(i).to_vec()).collect();
                let wf: Vec<f64> = w.iter().map(|&x| f64::from(x)).collect();
                prop_assert_eq!(arrived, model.add_batch(&batch, &vec![1.0; batch.len()], mask));
                prop_assert_eq!(arrived, wmodel.add_batch(&batch, &wf, mask));
                prop_assert_eq!(arrived_w, arrived);
                prop_assert_eq!(arrived_u, arrived);
            } else {
                let v = rng.random_range(0..n as NodeId);
                let newly = plain.cover_with(v);
                prop_assert_eq!(newly, model.cover_with(v), "cover_with({})", v);
                prop_assert_eq!(newly, wmodel.cover_with(v));
                prop_assert_eq!(weighted.cover_with(v), newly);
                prop_assert_eq!(unit.cover_with(v), newly);
                is_seed[v as usize] = true;
            }
            for idx in [&plain, &weighted, &unit] {
                check_compacted_bytes(idx, step)?;
            }
            check_masses(&plain, &model, &mut rng, step)?;
            check_masses(&weighted, &wmodel, &mut rng, step)?;
            check_unit_matches_plain(&unit, &plain, n, step)?;
        }
    }
}
