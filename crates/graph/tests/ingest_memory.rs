//! Regression test for the ingest path's memory high-water mark.
//!
//! The original `read_edge_list_compacted` buffered a flat copy of all `2m`
//! endpoints (on top of the `(u64, u64)` tuple buffer) to derive the dense
//! id remap — ~1.6 GB of avoidable transient at m = 10⁸. The reader now
//! derives the remap from a `u32` rank table no larger than the tuple buffer
//! (dense ids) or from two in-place sorts plus a merge of two ≤ n-sized
//! tables (gap-heavy ids), so peak ingest allocation must stay within a
//! small multiple of the final CSR on both paths. The workspace forbids `unsafe` (no counting
//! allocator), so the bound is asserted on [`IngestStats::peak_bytes`] —
//! capacity accounting of every buffer the reader owns, checkpointed at each
//! working-set transition.

use std::io::Write;

use rm_graph::io::read_edge_list_compacted_with_stats;

/// A multi-MB synthetic list: n = 20 000 nodes, 200 000 generated lines
/// (~2.5 MB of text) over a gap-heavy id space so the sorting remap is
/// exercised, with a deterministic LCG supplying the endpoints.
fn synthetic_edge_list() -> Vec<u8> {
    edge_list(1_000, 7)
}

/// The same endpoints with ids `u * stride + offset`.
fn edge_list(stride: u64, offset: u64) -> Vec<u8> {
    let n: u64 = 20_000;
    let lines: u64 = 200_000;
    let mut text = Vec::with_capacity(3 << 20);
    writeln!(text, "# synthetic ingest-memory fixture").unwrap();
    let mut state: u64 = 0x2545_f491_4f6c_dd1d;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for _ in 0..lines {
        let u = next() % n;
        let v = next() % n;
        writeln!(text, "{} {}", u * stride + offset, v * stride + offset).unwrap();
    }
    text
}

#[test]
fn ingest_peak_stays_within_small_multiple_of_csr() {
    check_peak(&synthetic_edge_list());
}

#[test]
fn dense_ingest_peak_stays_within_small_multiple_of_csr() {
    // Ids 0..20 000 against 200 000 lines: the rank table path.
    check_peak(&edge_list(1, 0));
}

fn check_peak(text: &[u8]) {
    assert!(text.len() > 2 << 20, "fixture must be multi-MB");
    let (out, stats) = read_edge_list_compacted_with_stats(std::io::BufReader::new(text)).unwrap();
    let csr_bytes = out.graph.memory_bytes();
    assert!(
        out.graph.num_edges() > 150_000,
        "dedup should leave most edges"
    );
    assert!(
        stats.peak_bytes <= 4 * csr_bytes,
        "ingest peak {} bytes exceeds 4x the final CSR ({} bytes)",
        stats.peak_bytes,
        csr_bytes
    );
}

#[test]
fn header_prealloc_tightens_the_peak() {
    // Round-tripping through write_edge_list adds the count header; the
    // exact tuple-buffer reservation it enables must never make the peak
    // worse than the headerless doubling-growth path on identical content.
    let text = synthetic_edge_list();
    let (first, _) =
        read_edge_list_compacted_with_stats(std::io::BufReader::new(&text[..])).unwrap();
    let mut with_header = Vec::new();
    rm_graph::io::write_edge_list(&first.graph, &mut with_header).unwrap();
    let (_, headerless) = read_edge_list_compacted_with_stats(std::io::BufReader::new(
        // Strip the header line to get the growth-path baseline.
        &with_header[with_header.iter().position(|&b| b == b'\n').unwrap() + 1..],
    ))
    .unwrap();
    let (second, with_stats) =
        read_edge_list_compacted_with_stats(std::io::BufReader::new(&with_header[..])).unwrap();
    assert!(with_stats.header_preallocated);
    assert!(!headerless.header_preallocated);
    assert_eq!(second.graph.num_edges(), first.graph.num_edges());
    assert!(
        with_stats.peak_bytes <= headerless.peak_bytes,
        "header path peaked at {} bytes, headerless at {}",
        with_stats.peak_bytes,
        headerless.peak_bytes
    );
}
