//! Pins the generators' graphs by their snapshot checksum.
//!
//! Every generator builds through [`rm_graph::GraphBuilder`], so these
//! values also pin the builder's cleanup: a build that dropped, invented or
//! reordered an edge, or laid out either CSR view differently, changes the
//! checksum. The checksum is the last 8 bytes of
//! [`rm_graph::snapshot::write_snapshot`], a mix over every CSR section.
//! The values were recorded before the builder moved from one global sort
//! to a counting sort, so they pin that the move changed nothing.

use rand::{rngs::SmallRng, SeedableRng};
use rm_graph::generators::{barabasi_albert, chung_lu_directed, chung_lu_undirected};
use rm_graph::snapshot::write_snapshot;
use rm_graph::{CsrGraph, SyntheticDataset};

fn checksum(g: &CsrGraph) -> u64 {
    let mut bytes = Vec::new();
    write_snapshot(g, None, &mut bytes).unwrap();
    let tail: [u8; 8] = bytes[bytes.len() - 8..].try_into().unwrap();
    u64::from_le_bytes(tail)
}

#[test]
fn generated_graphs_match_their_pinned_checksums() {
    let rng = |seed| SmallRng::seed_from_u64(seed);
    let cases = [
        (
            "chung_lu_directed(20_000, 200_000, 2.3)",
            chung_lu_directed(20_000, 200_000, 2.3, &mut rng(11)),
            0xdce4_02b5_5858_cd0c,
        ),
        (
            "chung_lu_undirected(5_000, 40_000, 2.5)",
            chung_lu_undirected(5_000, 40_000, 2.5, &mut rng(12)),
            0x0ef0_3d28_5db4_0f22,
        ),
        (
            "barabasi_albert(5_000, 3)",
            barabasi_albert(5_000, 3, &mut rng(13)),
            0x2f62_8687_dcf5_5c84,
        ),
        (
            "DblpLike at scale 0.01",
            SyntheticDataset::DblpLike.generate(0.01, 7),
            0xd3f0_c3cf_d56b_c213,
        ),
    ];
    let got: Vec<(&str, u64)> = cases
        .iter()
        .map(|(name, g, _)| (*name, checksum(g)))
        .collect();
    let want: Vec<(&str, u64)> = cases.iter().map(|&(name, _, want)| (name, want)).collect();
    assert_eq!(got, want);
}
