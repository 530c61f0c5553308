//! Property tests for the binary CSR snapshot (proptest shim):
//!
//! 1. **Bit-identity**: `write_snapshot → read_snapshot` reproduces the
//!    source graph exactly — representational equality over every CSR array,
//!    including isolated nodes, which the plain-text edge-list format loses.
//! 2. **Corruption rejection**: any single flipped byte and any truncated
//!    prefix decodes to an `InvalidData` error, never to a different graph.
//! 3. **Structural validation**: sections that break a CSR invariant under
//!    a *valid* checksum are still rejected with `InvalidData`, by
//!    `CsrGraph::from_parts` rather than by the checksum.

use proptest::prelude::*;
use rm_graph::builder::graph_from_edges;
use rm_graph::snapshot::{read_snapshot, write_snapshot, MAGIC, VERSION};
use rm_graph::{CsrGraph, NodeId};

/// Builds a graph from an edge-chooser vector: entry `k` encodes the
/// candidate pair `(k / n, k % n)`; self-loops and duplicates are dropped by
/// the builder. `n` deliberately exceeds what the choosers can address, so
/// most generated graphs carry isolated trailing nodes.
fn graph_from_choices(n: usize, choices: &[usize]) -> CsrGraph {
    let edges: Vec<(NodeId, NodeId)> = choices
        .iter()
        .map(|&k| ((k / n % n) as NodeId, (k % n) as NodeId))
        .filter(|&(u, v)| u != v)
        .collect();
    graph_from_edges(n, &edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Round trip is bit-identical for arbitrary small graphs, with and
    /// without an original-ids section.
    #[test]
    fn snapshot_round_trip_is_bit_identical(
        n in 1usize..24,
        choices in prop::collection::vec(0usize..200, 0..60),
        with_ids in prop::bool::ANY,
    ) {
        let g = graph_from_choices(n, &choices);
        let ids: Vec<u64> = (0..g.num_nodes() as u64).map(|v| v * 7 + 3).collect();
        let ids_arg = if with_ids { Some(&ids[..]) } else { None };
        let mut buf = Vec::new();
        write_snapshot(&g, ids_arg, &mut buf).unwrap();
        let snap = read_snapshot(&buf[..]).unwrap();
        prop_assert_eq!(&snap.graph, &g, "graphs differ after round trip");
        prop_assert_eq!(snap.original_ids.as_deref(), ids_arg);
    }

    /// Every truncated prefix of a valid snapshot is rejected.
    #[test]
    fn truncated_snapshots_rejected(
        n in 1usize..12,
        choices in prop::collection::vec(0usize..100, 0..30),
        frac in 0.0f64..1.0,
    ) {
        let g = graph_from_choices(n, &choices);
        let mut buf = Vec::new();
        write_snapshot(&g, None, &mut buf).unwrap();
        let cut = ((buf.len() as f64) * frac) as usize; // strictly < len
        prop_assert!(
            read_snapshot(&buf[..cut]).is_err(),
            "prefix of {} / {} bytes must not decode",
            cut,
            buf.len()
        );
    }

    /// Flipping any single byte is caught — by the magic/version/flag
    /// checks, the structural validation, or ultimately the checksum.
    #[test]
    fn corrupted_snapshots_rejected(
        n in 1usize..12,
        choices in prop::collection::vec(0usize..100, 0..30),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let g = graph_from_choices(n, &choices);
        let mut buf = Vec::new();
        write_snapshot(&g, None, &mut buf).unwrap();
        let pos = ((buf.len() as f64) * pos_frac) as usize % buf.len();
        buf[pos] ^= flip;
        prop_assert!(
            read_snapshot(&buf[..]).is_err(),
            "flip of byte {} (of {}) must not decode",
            pos,
            buf.len()
        );
    }
}

/// The text format drops isolated nodes; the snapshot keeps them. This is
/// the concrete scenario that makes snapshots the only faithful persistence
/// for generator-built graphs.
#[test]
fn isolated_nodes_survive_snapshot_but_not_text() {
    let g = graph_from_edges(6, &[(0, 2), (2, 4)]); // nodes 1, 3, 5 isolated
    let mut snap_buf = Vec::new();
    write_snapshot(&g, None, &mut snap_buf).unwrap();
    let reloaded = read_snapshot(&snap_buf[..]).unwrap().graph;
    assert_eq!(reloaded, g);
    assert_eq!(reloaded.num_nodes(), 6);

    let mut text_buf = Vec::new();
    rm_graph::io::write_edge_list(&g, &mut text_buf).unwrap();
    let via_text = rm_graph::io::read_edge_list(std::io::BufReader::new(&text_buf[..])).unwrap();
    assert_eq!(
        via_text.num_nodes(),
        3,
        "text round trip loses isolated nodes"
    );
}

/// Encodes raw CSR sections as a version-1 snapshot with no original ids,
/// under a checksum recomputed from the documented word stream (header
/// words, then every section value), so only structural validation can
/// reject them.
fn encode_sections(n: usize, sections: [&[u32]; 5]) -> Vec<u8> {
    let mix = |h: u64, x: u64| (h ^ x).wrapping_mul(0x100_0000_01b3).rotate_left(29);
    let m = sections[1].len() as u64;
    let mut buf = MAGIC.to_vec();
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes());
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    buf.extend_from_slice(&m.to_le_bytes());
    let mut h = [u64::from(VERSION), 0, n as u64, m]
        .into_iter()
        .fold(0x9e37_79b9_7f4a_7c15, mix);
    for &x in sections.iter().copied().flatten() {
        h = mix(h, u64::from(x));
        buf.extend_from_slice(&x.to_le_bytes());
    }
    buf.extend_from_slice(&h.to_le_bytes());
    buf
}

#[test]
fn structurally_invalid_sections_are_rejected_under_a_valid_checksum() {
    let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]);
    let (out_offsets, out_targets, in_offsets, in_sources, in_eids) = g.parts();
    let valid = [out_offsets, out_targets, in_offsets, in_sources, in_eids];
    // The encoder is faithful: untouched sections reload bit-identically.
    let snap = read_snapshot(&encode_sections(4, valid)[..]).unwrap();
    assert_eq!(snap.graph, g);

    let mut dipping = out_offsets.to_vec();
    dipping[1] = dipping[2] + 1; // still spans 0..=m, but falls back
    let mut far = out_targets.to_vec();
    far[0] = 4; // == n
    let mut repeated = in_eids.to_vec();
    repeated[1] = repeated[0];
    for (section, value, rule) in [
        (0, &dipping, "not monotone"),
        (1, &far, "endpoint out of range"),
        (4, &repeated, "not a permutation"),
    ] {
        let mut sections = valid;
        sections[section] = value;
        let err = read_snapshot(&encode_sections(4, sections)[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{rule}");
        assert!(
            err.to_string().contains(rule),
            "want a `{rule}` rejection past the checksum, got: {err}"
        );
    }
}
