//! Versioned binary CSR snapshots: build once, reload cheap.
//!
//! The plain-text reader ([`crate::io`]) exists for interchange with SNAP
//! datasets, but parsing ~10⁸ decimal edge lines and re-deriving the dense id
//! remap on every run is pure waste — the paper's Table-3 graphs are static.
//! This module persists the *final* in-memory representation instead: the five
//! CSR sections of [`CsrGraph`] written verbatim as little-endian `u32`
//! streams, so a reload is a handful of large sequential reads into
//! exactly-sized `Vec`s followed by an `O(n + m)` structural validation. No
//! mmap and no transmutes — every crate in the workspace stays
//! `#![forbid(unsafe_code)]`, and byte↔word conversion goes through
//! `to_le_bytes`/`from_le_bytes` over reusable chunk buffers, which the
//! optimizer lowers to straight memory copies.
//!
//! ## On-disk layout (version 1)
//!
//! ```text
//! offset  size        field
//! ------  ----------  -----------------------------------------------
//!      0  8           magic  b"RMCSR\0v1"
//!      8  4           version        (LE u32, = 1)
//!     12  4           flags          (LE u32, bit 0 = original_ids present)
//!     16  8           n              (LE u64, node count)
//!     24  8           m              (LE u64, edge count)
//!     32  4·(n+1)     out_offsets    (LE u32 each)
//!          4·m        out_targets
//!          4·(n+1)    in_offsets
//!          4·m        in_sources
//!          4·m        in_eids
//!         [8·n        original_ids   (LE u64 each, iff flags bit 0)]
//!          8           checksum      (LE u64 over header words + section words)
//! ```
//!
//! The checksum is a multiply-rotate mix folded over the logical word stream
//! (header fields, then every section value in file order). It trails the
//! payload so the writer needs neither a seek-back nor a second pass, and the
//! reader verifies it with zero extra I/O — corruption anywhere in the file
//! flips the trailer comparison.

use std::io::{self, Read, Write};
use std::path::Path;

use crate::csr::CsrGraph;
use crate::io::{read_edge_list_compacted, CompactedEdgeList};

/// File magic: identifies the format and, via the trailing byte, version 1's
/// header layout (the `version` field allows in-family evolution).
pub const MAGIC: [u8; 8] = *b"RMCSR\0v1";

/// Current snapshot format version.
pub const VERSION: u32 = 1;

/// Header flag bit 0: an `original_ids` section (n × LE u64) follows the CSR
/// sections, carrying the dense-id → SNAP-id remap of
/// [`CompactedEdgeList::original_ids`].
pub const FLAG_ORIGINAL_IDS: u32 = 1;

const KNOWN_FLAGS: u32 = FLAG_ORIGINAL_IDS;

/// Chunk size (bytes) for the reusable conversion buffers. Large enough that
/// the underlying reads/writes are a few MB each — sequential-I/O friendly —
/// while transient memory stays trivial next to the sections themselves.
const CHUNK_BYTES: usize = 4 << 20;

const CHECKSUM_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

#[inline]
fn mix_word(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x100_0000_01b3).rotate_left(29)
}

/// A decoded snapshot: the graph plus, when the file carried one, the
/// original-id remap (present for snapshots produced by
/// [`convert_edge_list`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// The reloaded graph, bit-identical to the one that was written.
    pub graph: CsrGraph,
    /// Dense-id → original-id mapping, if the snapshot stored one.
    pub original_ids: Option<Vec<u64>>,
}

/// Summary returned by the streaming text → snapshot converter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvertStats {
    /// Nodes in the compacted graph.
    pub nodes: usize,
    /// Edges after dedup/self-loop cleanup.
    pub edges: usize,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn write_u32_section<W: Write>(
    w: &mut W,
    vals: &[u32],
    h: &mut u64,
    buf: &mut Vec<u8>,
) -> io::Result<()> {
    for chunk in vals.chunks(CHUNK_BYTES / 4) {
        buf.clear();
        for &x in chunk {
            *h = mix_word(*h, u64::from(x));
            buf.extend_from_slice(&x.to_le_bytes());
        }
        w.write_all(buf)?;
    }
    Ok(())
}

fn write_u64_section<W: Write>(
    w: &mut W,
    vals: &[u64],
    h: &mut u64,
    buf: &mut Vec<u8>,
) -> io::Result<()> {
    for chunk in vals.chunks(CHUNK_BYTES / 8) {
        buf.clear();
        for &x in chunk {
            *h = mix_word(*h, x);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        w.write_all(buf)?;
    }
    Ok(())
}

fn read_u32_section<R: Read>(
    r: &mut R,
    len: usize,
    h: &mut u64,
    buf: &mut Vec<u8>,
) -> io::Result<Vec<u32>> {
    // `try_reserve_exact`, not `with_capacity`: a corrupt header can claim
    // dimensions up to u32::MAX, and an unsatisfiable reservation must come
    // back as `InvalidData`, not an allocator abort.
    let mut out: Vec<u32> = Vec::new();
    out.try_reserve_exact(len)
        .map_err(|_| invalid(format!("snapshot section of {len} words unsatisfiable")))?;
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(CHUNK_BYTES / 4);
        buf.resize(take * 4, 0);
        r.read_exact(buf)?;
        for c in buf.chunks_exact(4) {
            let x = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            *h = mix_word(*h, u64::from(x));
            out.push(x);
        }
        remaining -= take;
    }
    Ok(out)
}

fn read_u64_section<R: Read>(
    r: &mut R,
    len: usize,
    h: &mut u64,
    buf: &mut Vec<u8>,
) -> io::Result<Vec<u64>> {
    let mut out: Vec<u64> = Vec::new();
    out.try_reserve_exact(len)
        .map_err(|_| invalid(format!("snapshot section of {len} words unsatisfiable")))?;
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(CHUNK_BYTES / 8);
        buf.resize(take * 8, 0);
        r.read_exact(buf)?;
        for c in buf.chunks_exact(8) {
            let x = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
            *h = mix_word(*h, x);
            out.push(x);
        }
        remaining -= take;
    }
    Ok(out)
}

/// Writes a snapshot of `g` (plus an optional original-id remap, which must
/// have one entry per node) to `writer`. The output reloads bit-identically
/// via [`read_snapshot`].
pub fn write_snapshot<W: Write>(
    g: &CsrGraph,
    original_ids: Option<&[u64]>,
    mut writer: W,
) -> io::Result<()> {
    if let Some(ids) = original_ids {
        if ids.len() != g.num_nodes() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "original_ids has {} entries for a {}-node graph",
                    ids.len(),
                    g.num_nodes()
                ),
            ));
        }
    }
    let n = g.num_nodes() as u64;
    let m = g.num_edges() as u64;
    let flags = if original_ids.is_some() {
        FLAG_ORIGINAL_IDS
    } else {
        0
    };
    writer.write_all(&MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&flags.to_le_bytes())?;
    writer.write_all(&n.to_le_bytes())?;
    writer.write_all(&m.to_le_bytes())?;

    let mut h = CHECKSUM_SEED;
    for word in [u64::from(VERSION), u64::from(flags), n, m] {
        h = mix_word(h, word);
    }
    let mut buf = Vec::with_capacity(CHUNK_BYTES);
    let (out_offsets, out_targets, in_offsets, in_sources, in_eids) = g.parts();
    for section in [out_offsets, out_targets, in_offsets, in_sources, in_eids] {
        write_u32_section(&mut writer, section, &mut h, &mut buf)?;
    }
    if let Some(ids) = original_ids {
        write_u64_section(&mut writer, ids, &mut h, &mut buf)?;
    }
    writer.write_all(&h.to_le_bytes())?;
    writer.flush()
}

/// Reads a snapshot back. Verifies magic, version, checksum, and every CSR
/// structural invariant (via [`CsrGraph::from_parts`]) before returning, so a
/// truncated or corrupted file yields `InvalidData` — never a graph that
/// panics later.
pub fn read_snapshot<R: Read>(mut reader: R) -> io::Result<Snapshot> {
    let mut header = [0u8; 32];
    reader
        .read_exact(&mut header)
        .map_err(|e| invalid(format!("snapshot header unreadable: {e}")))?;
    if header[..8] != MAGIC {
        return Err(invalid("bad snapshot magic"));
    }
    let version = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if version != VERSION {
        return Err(invalid(format!(
            "snapshot version {version}, this reader understands {VERSION}"
        )));
    }
    let flags = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
    if flags & !KNOWN_FLAGS != 0 {
        return Err(invalid(format!("unknown snapshot flags {flags:#x}")));
    }
    let mut word = [0u8; 8];
    word.copy_from_slice(&header[16..24]);
    let n = u64::from_le_bytes(word);
    word.copy_from_slice(&header[24..32]);
    let m = u64::from_le_bytes(word);
    if n > u64::from(u32::MAX) || m > u64::from(u32::MAX) {
        return Err(invalid(format!("snapshot dimensions n={n} m={m} overflow")));
    }
    let (n, m) = (n as usize, m as usize);

    let mut h = CHECKSUM_SEED;
    for w in [u64::from(VERSION), u64::from(flags), n as u64, m as u64] {
        h = mix_word(h, w);
    }
    let mut buf = Vec::with_capacity(CHUNK_BYTES);
    let read32 = |r: &mut R, len, h: &mut u64, buf: &mut Vec<u8>| {
        read_u32_section(r, len, h, buf).map_err(|e| invalid(format!("snapshot truncated: {e}")))
    };
    let out_offsets = read32(&mut reader, n + 1, &mut h, &mut buf)?;
    let out_targets = read32(&mut reader, m, &mut h, &mut buf)?;
    let in_offsets = read32(&mut reader, n + 1, &mut h, &mut buf)?;
    let in_sources = read32(&mut reader, m, &mut h, &mut buf)?;
    let in_eids = read32(&mut reader, m, &mut h, &mut buf)?;
    let original_ids = if flags & FLAG_ORIGINAL_IDS != 0 {
        let ids = read_u64_section(&mut reader, n, &mut h, &mut buf)
            .map_err(|e| invalid(format!("snapshot truncated: {e}")))?;
        if ids.windows(2).any(|w| w[0] >= w[1]) {
            return Err(invalid("original_ids not strictly ascending"));
        }
        Some(ids)
    } else {
        None
    };
    let mut trailer = [0u8; 8];
    reader
        .read_exact(&mut trailer)
        .map_err(|e| invalid(format!("snapshot checksum missing: {e}")))?;
    if u64::from_le_bytes(trailer) != h {
        return Err(invalid("snapshot checksum mismatch"));
    }
    let graph = CsrGraph::from_parts(n, out_offsets, out_targets, in_offsets, in_sources, in_eids)
        .map_err(|e| invalid(format!("snapshot sections inconsistent: {e}")))?;
    Ok(Snapshot {
        graph,
        original_ids,
    })
}

/// Writes a snapshot to a file path.
pub fn write_snapshot_file(
    g: &CsrGraph,
    original_ids: Option<&[u64]>,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    // Sections are written as multi-MB `write_all`s already; the BufWriter
    // only coalesces the small header/trailer writes.
    write_snapshot(g, original_ids, io::BufWriter::new(f))
}

/// Reads a snapshot from a file path.
pub fn read_snapshot_file(path: impl AsRef<Path>) -> io::Result<Snapshot> {
    let f = std::fs::File::open(path)?;
    read_snapshot(io::BufReader::with_capacity(CHUNK_BYTES, f))
}

/// Streaming edge-list → snapshot converter: parse the SNAP text **once**,
/// persist the compacted CSR plus its original-id remap, and from then on
/// every run reloads via [`read_snapshot_file`]. Returns the converted
/// dimensions.
pub fn convert_edge_list<R: io::BufRead, W: Write>(
    reader: R,
    writer: W,
) -> io::Result<ConvertStats> {
    let CompactedEdgeList {
        graph,
        original_ids,
    } = read_edge_list_compacted(reader)?;
    let stats = ConvertStats {
        nodes: graph.num_nodes(),
        edges: graph.num_edges(),
    };
    write_snapshot(&graph, Some(&original_ids), writer)?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn sample_graph() -> CsrGraph {
        // Node 3 isolated: representable here, unlike in the text format.
        graph_from_edges(5, &[(0, 1), (0, 4), (1, 2), (2, 0), (4, 0)])
    }

    #[test]
    fn round_trip_bit_identical() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_snapshot(&g, None, &mut buf).unwrap();
        let snap = read_snapshot(&buf[..]).unwrap();
        assert_eq!(snap.graph, g);
        assert_eq!(snap.original_ids, None);
    }

    #[test]
    fn round_trip_with_original_ids() {
        let g = sample_graph();
        let ids = vec![3, 14, 15, 65, 92];
        let mut buf = Vec::new();
        write_snapshot(&g, Some(&ids), &mut buf).unwrap();
        let snap = read_snapshot(&buf[..]).unwrap();
        assert_eq!(snap.graph, g);
        assert_eq!(snap.original_ids.as_deref(), Some(&ids[..]));
    }

    #[test]
    fn original_ids_length_mismatch_rejected_at_write() {
        let g = sample_graph();
        let mut buf = Vec::new();
        assert!(write_snapshot(&g, Some(&[1, 2]), &mut buf).is_err());
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = graph_from_edges(0, &[]);
        let mut buf = Vec::new();
        write_snapshot(&g, None, &mut buf).unwrap();
        let snap = read_snapshot(&buf[..]).unwrap();
        assert_eq!(snap.graph.num_nodes(), 0);
        assert_eq!(snap.graph.num_edges(), 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_snapshot(&g, None, &mut buf).unwrap();
        buf[0] ^= 0xff;
        let err = read_snapshot(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn future_version_rejected() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_snapshot(&g, None, &mut buf).unwrap();
        buf[8] = 2;
        assert!(read_snapshot(&buf[..]).is_err());
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_snapshot(&g, None, &mut buf).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x01;
        let err = read_snapshot(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncation_at_every_prefix_rejected() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_snapshot(&g, None, &mut buf).unwrap();
        for cut in 0..buf.len() {
            assert!(
                read_snapshot(&buf[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn converter_streams_text_to_snapshot() {
        let text = "# nodes 3 edges 3\n10 20\n20 1000\n1000 10\n";
        let mut buf = Vec::new();
        let stats = convert_edge_list(text.as_bytes(), &mut buf).unwrap();
        assert_eq!(stats, ConvertStats { nodes: 3, edges: 3 });
        let snap = read_snapshot(&buf[..]).unwrap();
        assert_eq!(snap.graph.num_nodes(), 3);
        assert_eq!(snap.original_ids, Some(vec![10, 20, 1000]));
    }
}
