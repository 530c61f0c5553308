//! Plain-text edge-list serialization.
//!
//! Format: one `src dst` pair per line, `#`-prefixed comment lines ignored.
//! This matches the SNAP conventions used for the paper's public datasets so
//! real edge lists can be dropped in where licensing permits.

use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, NodeId};

/// A parsed edge list with its dense-id remap.
///
/// SNAP id spaces are gap-heavy (a few hundred thousand nodes can span ids
/// into the tens of millions), so the reader compacts ids to `0..n` where
/// `n` is the number of *distinct endpoint ids* — otherwise every
/// node-indexed array in the pipeline (coverage counts, seed masks, alias
/// tables) is sized by `max id + 1`.
#[derive(Clone, Debug)]
pub struct CompactedEdgeList {
    /// The graph over densely remapped node ids.
    pub graph: CsrGraph,
    /// Original id of each compact node: `original_ids[v]` is the source
    /// file's id for graph node `v`. Sorted ascending, so the remap
    /// preserves the original ids' relative order.
    pub original_ids: Vec<u64>,
}

/// Reads an edge list from a reader. Node ids are compacted via a dense
/// remap (see [`CompactedEdgeList`]); use [`read_edge_list_compacted`] to
/// keep the compact → original mapping. Self-loops are dropped and
/// duplicate edges deduplicated at ingest (they would otherwise corrupt
/// the Weighted-Cascade `1/in-degree` probabilities and the LT
/// water-filling, both of which key on clean in-neighbor lists).
///
/// The edge-list format carries only edge endpoints, so **isolated nodes
/// do not survive a [`write_edge_list`] → `read_edge_list` round trip**
/// (and with compaction, an isolated *interior* id also shifts the ids
/// after it). Round-tripping is id-exact precisely for graphs whose nodes
/// all have at least one edge — any node-indexed side data for other
/// graphs must be re-keyed through [`CompactedEdgeList::original_ids`].
pub fn read_edge_list<R: BufRead>(reader: R) -> io::Result<CsrGraph> {
    Ok(read_edge_list_compacted(reader)?.graph)
}

/// Allocation accounting for one ingest pass, tracked at the points where
/// the working set changes shape. The workspace forbids `unsafe`, which rules
/// out a counting `GlobalAlloc`; instead every buffer the reader owns is
/// capacity-accounted at each checkpoint, which bounds the true heap high-water
/// mark of the ingest path (the only untracked allocations are the short-lived
/// sort scratch inside `sort_unstable`, which is O(1) auxiliary).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Peak tracked bytes live at once across the ingest checkpoints: the
    /// reused line buffer, the raw `(u64, u64)` edge tuples, the endpoint id
    /// tables, the builder's edge list, and the final CSR.
    pub peak_bytes: usize,
    /// Whether a `# nodes N edges M` header was found and used to
    /// preallocate the tuple buffer exactly.
    pub header_preallocated: bool,
}

/// Largest edge count a `# nodes N edges M` header may preallocate (4 GB of
/// tuples). A corrupt header beyond this is ignored rather than trusted with
/// the address space; parsing then proceeds with ordinary doubling growth.
const MAX_HEADER_PREALLOC_EDGES: usize = 1 << 28;

/// Parses the `# nodes N edges M` count header emitted by
/// [`write_edge_list`]. Anything that does not match exactly — wrong words,
/// extra tokens, unparseable counts — yields `None`, so a malformed or absent
/// header silently degrades to the no-preallocation path.
fn parse_count_header(t: &str) -> Option<(usize, usize)> {
    let mut it = t.strip_prefix('#')?.split_whitespace();
    (it.next()? == "nodes").then_some(())?;
    let n = it.next()?.parse().ok()?;
    (it.next()? == "edges").then_some(())?;
    let m = it.next()?.parse().ok()?;
    it.next().is_none().then_some((n, m))
}

/// Reads an edge list, returning both the compacted graph and the
/// dense-id → original-id mapping.
pub fn read_edge_list_compacted<R: BufRead>(reader: R) -> io::Result<CompactedEdgeList> {
    read_edge_list_compacted_with_stats(reader).map(|(out, _)| out)
}

/// [`read_edge_list_compacted`] plus [`IngestStats`] allocation accounting.
///
/// The parse loop reuses one line buffer (`read_line`) instead of allocating
/// a `String` per line, and the dense-id table is derived without ever
/// holding a flat copy of all `2m` endpoints: the tuple buffer is sorted by
/// source to collect the ≤ n distinct sources, re-sorted by destination to
/// collect the ≤ n distinct destinations, and the two small sorted tables are
/// merged. At m = 10⁸ that replaces a 1.6 GB endpoint copy with two ≤ n-sized
/// tables — the tuple buffer itself (16 B/edge) stays the high-water mark.
pub fn read_edge_list_compacted_with_stats<R: BufRead>(
    mut reader: R,
) -> io::Result<(CompactedEdgeList, IngestStats)> {
    let mut stats = IngestStats::default();
    let mut peak = 0usize;
    let mut raw: Vec<(u64, u64)> = Vec::new();
    let mut line = String::new();
    let mut header: Option<(usize, usize)> = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            if header.is_none() && raw.is_empty() {
                if let Some((n, m)) = parse_count_header(t) {
                    header = Some((n, m));
                    if m <= MAX_HEADER_PREALLOC_EDGES {
                        raw.reserve_exact(m);
                        stats.header_preallocated = true;
                    }
                }
            }
            continue;
        }
        let mut parts = t.split_whitespace();
        let (a, b) = match (parts.next(), parts.next()) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed edge line: {t:?}"),
                ))
            }
        };
        let u: u64 = a.parse().map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad node id {a:?}: {e}"),
            )
        })?;
        let v: u64 = b.parse().map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad node id {b:?}: {e}"),
            )
        })?;
        raw.push((u, v));
    }
    let tuple_bytes = raw.capacity() * std::mem::size_of::<(u64, u64)>();
    peak = peak.max(line.capacity() + tuple_bytes);

    // Dense remap: distinct endpoint ids, ascending — derived from two
    // in-place sorts of the tuple buffer rather than a flat 2m endpoint copy.
    raw.sort_unstable_by_key(|&(u, _)| u);
    let mut srcs: Vec<u64> = Vec::new();
    for &(u, _) in &raw {
        if srcs.last() != Some(&u) {
            srcs.push(u);
        }
    }
    raw.sort_unstable_by_key(|&(_, v)| v);
    let mut dsts: Vec<u64> = Vec::new();
    for &(_, v) in &raw {
        if dsts.last() != Some(&v) {
            dsts.push(v);
        }
    }
    peak = peak.max(tuple_bytes + (srcs.capacity() + dsts.capacity()) * 8);

    // Merge the two sorted distinct tables. The header's node count, when it
    // is consistent with what was actually seen, sizes the table exactly;
    // otherwise the sum of the halves is a tight upper bound (≤ 2n).
    let id_cap = header
        .map(|(n, _)| n)
        .filter(|&n| n >= srcs.len().max(dsts.len()) && n <= srcs.len() + dsts.len())
        .unwrap_or(srcs.len() + dsts.len());
    let mut original_ids: Vec<u64> = Vec::with_capacity(id_cap);
    let (mut i, mut j) = (0, 0);
    while i < srcs.len() || j < dsts.len() {
        let next = match (srcs.get(i), dsts.get(j)) {
            (Some(&a), Some(&b)) if a == b => {
                i += 1;
                j += 1;
                a
            }
            (Some(&a), Some(&b)) if a < b => {
                i += 1;
                a
            }
            (_, Some(&b)) => {
                j += 1;
                b
            }
            (Some(&a), None) => {
                i += 1;
                a
            }
            (None, None) => unreachable!("loop condition guarantees a remaining element"),
        };
        original_ids.push(next);
    }
    peak =
        peak.max(tuple_bytes + (srcs.capacity() + dsts.capacity() + original_ids.capacity()) * 8);
    drop(srcs);
    drop(dsts);

    if original_ids.len() > NodeId::MAX as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "edge list has {} distinct ids, over the node-id limit",
                original_ids.len()
            ),
        ));
    }
    let compact = |id: u64| -> NodeId {
        original_ids
            .binary_search(&id)
            .expect("endpoint collected above") as NodeId
    };
    let raw_len = raw.len();
    let mut b = GraphBuilder::with_capacity(original_ids.len(), raw_len);
    // While `extend` drains the tuple buffer, it and the builder's (u32, u32)
    // list are both live — the widest ingest moment after parsing.
    peak = peak.max(tuple_bytes + raw_len * 8 + original_ids.capacity() * 8);
    b.extend(raw.into_iter().map(|(u, v)| (compact(u), compact(v))));
    let graph = b.build();
    peak = peak.max(graph.memory_bytes() + raw_len * 8 + original_ids.capacity() * 8);
    stats.peak_bytes = peak;
    Ok((
        CompactedEdgeList {
            graph,
            original_ids,
        },
        stats,
    ))
}

/// Writes the graph as an edge list.
pub fn write_edge_list<W: Write>(g: &CsrGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# nodes {} edges {}", g.num_nodes(), g.num_edges())?;
    for (_, u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

/// Writes the graph to a file path.
pub fn write_edge_list_file(g: &CsrGraph, path: impl AsRef<Path>) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_edge_list(g, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn round_trip() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (3, 4), (4, 0)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(g.num_nodes(), g2.num_nodes());
        let e1: Vec<_> = g.edges().map(|(_, u, v)| (u, v)).collect();
        let e2: Vec<_> = g2.edges().map(|(_, u, v)| (u, v)).collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\n0 1\n# mid comment\n1 2\n";
        let g = read_edge_list(io::BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn malformed_line_rejected() {
        let text = "0 1\nbogus\n";
        assert!(read_edge_list(io::BufReader::new(text.as_bytes())).is_err());
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list(io::BufReader::new("".as_bytes())).unwrap();
        assert_eq!(g.num_nodes(), 0);
    }

    #[test]
    fn round_trip_with_isolated_interior_node_compacts() {
        // The edge-list format has no representation for isolated nodes,
        // so they vanish on round trip and compaction renumbers the ids
        // after them — documented behavior; side data must be re-keyed via
        // the returned mapping.
        let g = graph_from_edges(3, &[(0, 2)]); // node 1 isolated
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let out = read_edge_list_compacted(io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(out.graph.num_nodes(), 2);
        assert_eq!(out.original_ids, vec![0, 2]);
        let edges: Vec<_> = out.graph.edges().map(|(_, u, v)| (u, v)).collect();
        assert_eq!(edges, vec![(0, 1)]);
        // The compact edge maps back to the original 0 → 2.
        let (u, v) = edges[0];
        assert_eq!(
            (out.original_ids[u as usize], out.original_ids[v as usize]),
            (0, 2)
        );
    }

    #[test]
    fn sparse_ids_are_compacted() {
        // Regression: a gap-heavy SNAP id space must not inflate the node
        // count — `{(5, 1000000)}` is a 2-node graph, not a 1000001-node
        // one.
        let text = "5 1000000\n";
        let out = read_edge_list_compacted(io::BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(out.graph.num_nodes(), 2);
        assert_eq!(out.graph.num_edges(), 1);
        assert_eq!(out.graph.out_neighbors(0), &[1]);
        assert_eq!(out.original_ids, vec![5, 1000000]);
        assert_eq!(out.original_ids[0], 5);
        assert_eq!(
            out.original_ids[out.graph.out_neighbors(0)[0] as usize],
            1000000
        );
    }

    #[test]
    fn remap_preserves_relative_order_and_structure() {
        // Ids 10 < 20 < 70 < 1000 map to 0..4 in the same order, and the
        // edge structure follows the remap.
        let text = "70 10\n20 1000\n10 20\n";
        let out = read_edge_list_compacted(io::BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(out.graph.num_nodes(), 4);
        assert_eq!(out.original_ids, vec![10, 20, 70, 1000]);
        // 70→10 becomes 2→0, 20→1000 becomes 1→3, 10→20 becomes 0→1.
        let edges: Vec<_> = out.graph.edges().map(|(_, u, v)| (u, v)).collect();
        assert_eq!(edges, vec![(0, 1), (1, 3), (2, 0)]);
        // Ids beyond u32 parse fine as long as the *count* stays in range.
        let wide = "5000000000 5\n";
        let out = read_edge_list_compacted(io::BufReader::new(wide.as_bytes())).unwrap();
        assert_eq!(out.graph.num_nodes(), 2);
        assert_eq!(out.original_ids, vec![5, 5_000_000_000]);
    }

    #[test]
    fn count_header_preallocates_exactly() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let (out, stats) =
            read_edge_list_compacted_with_stats(io::BufReader::new(&buf[..])).unwrap();
        assert!(
            stats.header_preallocated,
            "write_edge_list header must be used"
        );
        assert_eq!(out.graph.num_edges(), 4);
    }

    #[test]
    fn headerless_list_still_parses() {
        let text = "0 1\n1 2\n2 0\n";
        let (out, stats) =
            read_edge_list_compacted_with_stats(io::BufReader::new(text.as_bytes())).unwrap();
        assert!(!stats.header_preallocated);
        assert_eq!(out.graph.num_nodes(), 3);
        assert_eq!(out.graph.num_edges(), 3);
    }

    #[test]
    fn malformed_headers_are_silent_noops() {
        // Wrong words, trailing tokens, non-numeric counts, absurd counts:
        // all must parse as plain comments, never as errors.
        for hdr in [
            "# nodes x edges 3",
            "# edges 3 nodes 3",
            "# nodes 3 edges 3 extra",
            "# nodes 3",
            "# nodes 3 edges 999999999999999999999999",
        ] {
            let text = format!("{hdr}\n0 1\n1 2\n");
            let (out, stats) =
                read_edge_list_compacted_with_stats(io::BufReader::new(text.as_bytes())).unwrap();
            assert!(!stats.header_preallocated, "header {hdr:?} must be ignored");
            assert_eq!(out.graph.num_edges(), 2);
        }
        // An oversized-but-parseable edge count is ignored for preallocation
        // rather than trusted with 4+ GB of address space.
        let text = "# nodes 2 edges 999999999\n0 1\n";
        let (out, stats) =
            read_edge_list_compacted_with_stats(io::BufReader::new(text.as_bytes())).unwrap();
        assert!(!stats.header_preallocated);
        assert_eq!(out.graph.num_edges(), 1);
    }

    #[test]
    fn header_only_counts_before_first_edge() {
        // A header-shaped comment in the middle of the file must not trigger
        // a late (useless) preallocation.
        let text = "0 1\n# nodes 100 edges 100\n1 2\n";
        let (out, stats) =
            read_edge_list_compacted_with_stats(io::BufReader::new(text.as_bytes())).unwrap();
        assert!(!stats.header_preallocated);
        assert_eq!(out.graph.num_edges(), 2);
    }

    #[test]
    fn duplicate_edges_and_self_loops_dropped_at_ingest() {
        // SNAP lists routinely repeat edges and carry self-loops; both must
        // vanish at ingest — a duplicate arc would double an in-neighbor's
        // WC probability mass `1/indeg`, and a self-loop would give a node
        // influence over itself in the LT water-filling.
        let text = "#dup+loop\n7 7\n3 9\n3 9\n9 3\n3 3\n";
        let out = read_edge_list_compacted(io::BufReader::new(text.as_bytes())).unwrap();
        // Node 7 only ever appears in its self-loop; it still counts as an
        // endpoint (isolated after cleanup).
        assert_eq!(out.original_ids, vec![3, 7, 9]);
        assert_eq!(out.graph.num_nodes(), 3);
        assert_eq!(out.graph.num_edges(), 2, "only 3→9 and 9→3 survive");
        assert_eq!(out.graph.out_neighbors(0), &[2]);
        assert_eq!(out.graph.out_neighbors(1), &[] as &[NodeId]);
        assert_eq!(out.graph.out_neighbors(2), &[0]);
        // Clean in-neighbor lists: each surviving node has in-degree 1, so
        // WC assigns probability 1 to its single in-edge — no corruption
        // from the dropped duplicate.
        assert_eq!(out.graph.in_neighbors(0), &[2]);
        assert_eq!(out.graph.in_neighbors(2), &[0]);
    }
}
