//! Weakly connected components (union–find). Used by dataset diagnostics:
//! cascades and RR sets cannot escape a weak component.

use crate::csr::CsrGraph;

/// Weakly connected component id per node (ids are arbitrary but dense from
/// 0), computed with path-halving union–find.
pub fn weakly_connected_components(g: &CsrGraph) -> Vec<u32> {
    let n = g.num_nodes();
    let mut parent: Vec<u32> = (0..n as u32).collect();

    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }

    for (_, u, v) in g.edges() {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            parent[ru.max(rv) as usize] = ru.min(rv);
        }
    }
    // Compact to dense ids.
    let mut id = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut out = vec![0u32; n];
    for v in 0..n as u32 {
        let r = find(&mut parent, v);
        if id[r as usize] == u32::MAX {
            id[r as usize] = next;
            next += 1;
        }
        out[v as usize] = id[r as usize];
    }
    out
}

/// Size of the largest component given a component-id labelling.
pub fn largest_component_size(labels: &[u32]) -> usize {
    if labels.is_empty() {
        return 0;
    }
    let k = labels.iter().copied().max().unwrap_or(0) as usize + 1;
    let mut counts = vec![0usize; k];
    for &l in labels {
        counts[l as usize] += 1;
    }
    counts.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn wcc_ignores_direction() {
        // 0 -> 1, 2 -> 1 are one weak component; 3 isolated.
        let g = graph_from_edges(4, &[(0, 1), (2, 1)]);
        let wcc = weakly_connected_components(&g);
        assert_eq!(wcc[0], wcc[1]);
        assert_eq!(wcc[1], wcc[2]);
        assert_ne!(wcc[0], wcc[3]);
        assert_eq!(largest_component_size(&wcc), 3);
    }
}
