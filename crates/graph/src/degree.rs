//! Degree statistics (used by the dataset-statistics table).

use crate::csr::{CsrGraph, NodeId};

/// Summary statistics of a degree sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    pub min: usize,
    pub max: usize,
    pub mean: f64,
    pub median: f64,
    /// Fraction of total degree held by the top 1% of nodes — a cheap
    /// heavy-tail indicator.
    pub top1_share: f64,
}

fn stats(mut degs: Vec<usize>) -> DegreeStats {
    assert!(!degs.is_empty());
    degs.sort_unstable();
    let n = degs.len();
    let total: usize = degs.iter().sum();
    let mean = total as f64 / n as f64;
    let median = if n % 2 == 1 {
        degs[n / 2] as f64
    } else {
        (degs[n / 2 - 1] + degs[n / 2]) as f64 / 2.0
    };
    let k = (n / 100).max(1);
    let top: usize = degs[n - k..].iter().sum();
    DegreeStats {
        min: degs[0],
        max: degs[n - 1],
        mean,
        median,
        top1_share: if total == 0 {
            0.0
        } else {
            top as f64 / total as f64
        },
    }
}

/// Out-degree statistics.
pub fn out_degree_stats(g: &CsrGraph) -> DegreeStats {
    stats(
        (0..g.num_nodes() as NodeId)
            .map(|u| g.out_degree(u))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn basic_stats() {
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]);
        let s = out_degree_stats(&g);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 3);
        assert!((s.mean - 1.0).abs() < 1e-12);
        assert!((s.median - 0.5).abs() < 1e-12);
    }
}
