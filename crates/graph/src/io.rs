//! Plain-text edge-list serialization.
//!
//! Format: one `src dst` pair per line, `#`-prefixed comment lines ignored.
//! This matches the SNAP conventions used for the paper's public datasets so
//! real edge lists can be dropped in where licensing permits.
//!
//! The reader is one pass over the bytes, then a linear-time remap and
//! build:
//!
//! 1. **Scan.** Lines are parsed straight out of the reader's buffer
//!    (`fill_buf`/`consume`). A line of the exact form `digits SP digits LF`
//!    (at most 19 digits each, so no id overflows) is parsed inline. Every
//!    other line (comments, the `# nodes N edges M` count header, blank
//!    lines, tabs, CRLF, extra tokens, `+5`, overflowing or non-ASCII text,
//!    a last line without a newline) goes through one per-line `str` rule,
//!    which alone defines what is accepted and each error message. A line
//!    split across two buffer fills is carried over in a small buffer. Each
//!    pair lands in a `(u64, u64)` tuple buffer; the largest id is tracked.
//! 2. **Remap.** Ids are compacted to `0..n` in ascending order (see
//!    [`CompactedEdgeList`]). When a `u32` rank table over `0..=max id`
//!    takes no more bytes than the tuple buffer, the ids that occur are
//!    marked in it, a prefix pass turns the marks into ranks, and endpoints
//!    map by lookup. Gap-heavy id spaces instead sort the tuple buffer by
//!    source and then by destination, merge the two distinct-id tables, and
//!    rewrite the buffer in place by binary search.
//! 3. **Build.** The builder's counting sort buckets the pairs by source
//!    straight from the tuple buffer, through the rank table when there is
//!    one, then sorts and deduplicates each row; the tuple buffer and rank
//!    table are freed before the in-view is derived.
//!
//! [`IngestStats::peak_bytes`] accounts, at each of those steps, for the
//! buffers live at once: the carry-over line buffer, the tuple buffer, the
//! rank table or the two distinct-id tables, the `original_ids` table, the
//! out-rows under construction and the final CSR.

use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

use crate::builder::out_rows;
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
    /// carry-over line buffer, the raw `(u64, u64)` edge tuples, the `u32`
    /// rank table (dense ids) or the two distinct-id tables (gap-heavy ids),
    /// the `original_ids` table, the out-rows under construction, and the
    /// final CSR.
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

/// Parses the common line shape `digits SP digits LF` at the start of `b`,
/// with 1 to 19 digits per id (so neither can overflow `u64`). Returns both
/// ids and the line's length, or `None` for any other shape, including a
/// line that runs past the end of `b`.
#[inline]
fn parse_pair(b: &[u8]) -> Option<(u64, u64, usize)> {
    let (u, at) = parse_digits(b, 0, b' ')?;
    let (v, at) = parse_digits(b, at, b'\n')?;
    Some((u, v, at))
}

/// Parses 1 to 19 ASCII digits at `b[at..]` that are followed by `end`.
/// Returns the value and the index just past `end`.
#[inline]
fn parse_digits(b: &[u8], at: usize, end: u8) -> Option<(u64, usize)> {
    let mut x = 0u64;
    for (k, &c) in b.get(at..)?.iter().take(20).enumerate() {
        if c == end && k > 0 {
            return Some((x, at + k + 1));
        }
        let d = c.wrapping_sub(b'0');
        if d > 9 || k == 19 {
            return None;
        }
        x = x * 10 + u64::from(d);
    }
    None
}

/// The scan's state: the tuple buffer and what the lines said about it.
#[derive(Default)]
struct Scan {
    raw: Vec<(u64, u64)>,
    /// Largest id in `raw`; meaningless while `raw` is empty.
    max_id: u64,
    header: Option<(usize, usize)>,
    header_preallocated: bool,
}

impl Scan {
    #[inline]
    fn push(&mut self, u: u64, v: u64) {
        self.max_id = self.max_id.max(u).max(v);
        self.raw.push((u, v));
    }

    /// Parses every complete line at the start of `buf`, returning how many
    /// bytes they span; the rest is an unfinished line.
    fn lines(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut at = 0;
        loop {
            let rest = &buf[at..];
            if let Some((u, v, len)) = parse_pair(rest) {
                self.push(u, v);
                at += len;
                continue;
            }
            match rest.iter().position(|&c| c == b'\n') {
                Some(i) => {
                    self.text_line(&rest[..=i])?;
                    at += i + 1;
                }
                None => return Ok(at),
            }
        }
    }

    /// Parses one whole line: the carried-over one, or the last line of
    /// the input, which may lack its newline.
    fn line(&mut self, line: &[u8]) -> io::Result<()> {
        match parse_pair(line) {
            Some((u, v, _)) => {
                self.push(u, v);
                Ok(())
            }
            None => self.text_line(line),
        }
    }

    /// The one definition of an edge-list line: blank lines and comments are
    /// skipped (the first comment before any edge may be the count header),
    /// anything else must start with two whitespace-separated `u64` ids.
    fn text_line(&mut self, line: &[u8]) -> io::Result<()> {
        let line = std::str::from_utf8(line).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            if self.header.is_none() && self.raw.is_empty() {
                if let Some((n, m)) = parse_count_header(t) {
                    self.header = Some((n, m));
                    if m <= MAX_HEADER_PREALLOC_EDGES {
                        self.raw.reserve_exact(m);
                        self.header_preallocated = true;
                    }
                }
            }
            return Ok(());
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
        let id = |s: &str| {
            s.parse::<u64>().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad node id {s:?}: {e}"),
                )
            })
        };
        let (u, v) = (id(a)?, id(b)?);
        self.push(u, v);
        Ok(())
    }
}

/// Reads an edge list, returning both the compacted graph and the
/// dense-id → original-id mapping.
pub fn read_edge_list_compacted<R: BufRead>(reader: R) -> io::Result<CompactedEdgeList> {
    read_edge_list_compacted_with_stats(reader).map(|(out, _)| out)
}

/// [`read_edge_list_compacted`] plus [`IngestStats`] allocation accounting.
///
/// Scans the bytes once, remaps the ids through a rank table (dense ids) or
/// two sorts of the tuple buffer (gap-heavy ids), and buckets the pairs by
/// source with the builder's counting sort; the module docs give the
/// details. Neither remap holds a flat copy of all `2m` endpoints, so the
/// tuple buffer (16 B/edge) stays the high-water mark.
pub fn read_edge_list_compacted_with_stats<R: BufRead>(
    mut reader: R,
) -> io::Result<(CompactedEdgeList, IngestStats)> {
    let mut scan = Scan::default();
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            break;
        }
        let mut used = 0;
        if !carry.is_empty() {
            // Finish the line the previous fill left open.
            let Some(i) = buf.iter().position(|&c| c == b'\n') else {
                carry.extend_from_slice(buf);
                let len = buf.len();
                reader.consume(len);
                continue;
            };
            carry.extend_from_slice(&buf[..=i]);
            scan.line(&carry)?;
            carry.clear();
            used = i + 1;
        }
        used += scan.lines(&buf[used..])?;
        carry.extend_from_slice(&buf[used..]);
        let len = buf.len();
        reader.consume(len);
    }
    if !carry.is_empty() {
        scan.line(&carry)?;
    }
    let Scan {
        mut raw,
        max_id,
        header,
        header_preallocated,
    } = scan;
    let tuple_bytes = raw.capacity() * std::mem::size_of::<(u64, u64)>();
    let mut peak = carry.capacity() + tuple_bytes;
    drop(carry);

    // A rank table over `0..=max_id` costs 4 B per id; it is used when that
    // is no more than the tuple buffer's 16 B per line.
    let ((offsets, targets), original_ids) = if (max_id as u128) < 4 * raw.len() as u128 {
        let (rank, original_ids) = rank_table(&raw, max_id)?;
        let held = tuple_bytes + rank.capacity() * 4 + original_ids.capacity() * 8;
        peak = peak.max(held + rows_bytes(original_ids.len(), raw.len()));
        let rows = out_rows(
            original_ids.len(),
            raw.iter()
                .map(|&(u, v)| (rank[u as usize], rank[v as usize])),
        );
        (rows, original_ids)
    } else {
        let original_ids = sorted_ids(&mut raw, header, tuple_bytes, &mut peak)?;
        let held = tuple_bytes + original_ids.capacity() * 8;
        peak = peak.max(held + rows_bytes(original_ids.len(), raw.len()));
        let rows = out_rows(
            original_ids.len(),
            raw.iter().map(|&(u, v)| (u as NodeId, v as NodeId)),
        );
        (rows, original_ids)
    };
    drop(raw);
    let graph = CsrGraph::from_out_csr(original_ids.len(), offsets, targets);
    peak = peak.max(graph.memory_bytes() + original_ids.capacity() * 8);
    let stats = IngestStats {
        peak_bytes: peak,
        header_preallocated,
    };
    Ok((
        CompactedEdgeList {
            graph,
            original_ids,
        },
        stats,
    ))
}

/// Bytes of the out-rows the builder fills for `n` nodes and `lines` pairs
/// (an upper bound: self-loops and duplicates are dropped).
fn rows_bytes(n: usize, lines: usize) -> usize {
    4 * (n + 1) + 4 * lines
}

fn check_id_count(distinct: usize) -> io::Result<()> {
    if distinct > NodeId::MAX as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("edge list has {distinct} distinct ids, over the node-id limit"),
        ));
    }
    Ok(())
}

/// Dense remap: marks the ids that occur in a `u32` table over
/// `0..=max_id`, then a prefix pass turns each mark into the id's rank.
/// Returns the table and the distinct ids, ascending.
fn rank_table(raw: &[(u64, u64)], max_id: u64) -> io::Result<(Vec<u32>, Vec<u64>)> {
    let mut rank = vec![0u32; max_id as usize + 1];
    let mut distinct = 0usize;
    for &(u, v) in raw {
        for id in [u, v] {
            let r = &mut rank[id as usize];
            distinct += usize::from(*r == 0);
            *r = 1;
        }
    }
    check_id_count(distinct)?;
    let mut original_ids = Vec::with_capacity(distinct);
    for (id, r) in rank.iter_mut().enumerate() {
        if *r != 0 {
            *r = original_ids.len() as u32;
            original_ids.push(id as u64);
        }
    }
    Ok((rank, original_ids))
}

/// Gap-heavy remap: the distinct ids, ascending, derived from two in-place
/// sorts of the tuple buffer rather than a flat 2m endpoint copy — by source
/// to collect the ≤ n distinct sources, by destination to collect the ≤ n
/// distinct destinations — and a merge of the two small tables. Then every
/// pair in `raw` is rewritten to compact ids by binary search.
fn sorted_ids(
    raw: &mut [(u64, u64)],
    header: Option<(usize, usize)>,
    tuple_bytes: usize,
    peak: &mut usize,
) -> io::Result<Vec<u64>> {
    raw.sort_unstable_by_key(|&(u, _)| u);
    let mut srcs: Vec<u64> = Vec::new();
    for &(u, _) in raw.iter() {
        if srcs.last() != Some(&u) {
            srcs.push(u);
        }
    }
    raw.sort_unstable_by_key(|&(_, v)| v);
    let mut dsts: Vec<u64> = Vec::new();
    for &(_, v) in raw.iter() {
        if dsts.last() != Some(&v) {
            dsts.push(v);
        }
    }
    *peak = (*peak).max(tuple_bytes + (srcs.capacity() + dsts.capacity()) * 8);

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
    *peak = (*peak)
        .max(tuple_bytes + (srcs.capacity() + dsts.capacity() + original_ids.capacity()) * 8);
    drop(srcs);
    drop(dsts);

    check_id_count(original_ids.len())?;
    let compact = |id: u64| -> u64 {
        original_ids
            .binary_search(&id)
            .expect("endpoint collected above") as u64
    };
    for e in raw.iter_mut() {
        *e = (compact(e.0), compact(e.1));
    }
    Ok(original_ids)
}

/// Writes the graph as an edge list: the `# nodes N edges M` count header,
/// then one `u v` line per edge in canonical order.
pub fn write_edge_list<W: Write>(g: &CsrGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::with_capacity(1 << 16, writer);
    writeln!(w, "# nodes {} edges {}", g.num_nodes(), g.num_edges())?;
    let mut line = [0u8; EDGE_LINE_MAX];
    for u in 0..g.num_nodes() as NodeId {
        for &v in g.out_neighbors(u) {
            w.write_all(edge_line(&mut line, u, v))?;
        }
    }
    w.flush()
}

/// Longest `u v\n` line: two 10-digit `u32`s, a space and a newline.
const EDGE_LINE_MAX: usize = 22;

/// Formats `u v\n` at the end of `line`, returning the formatted tail.
fn edge_line(line: &mut [u8; EDGE_LINE_MAX], u: NodeId, v: NodeId) -> &[u8] {
    line[EDGE_LINE_MAX - 1] = b'\n';
    let at = put_decimal(line, EDGE_LINE_MAX - 1, v);
    line[at - 1] = b' ';
    let at = put_decimal(line, at - 1, u);
    &line[at..]
}

/// Writes `x` in decimal so that it ends just before `end`, returning the
/// index where it starts.
fn put_decimal(buf: &mut [u8], mut end: usize, mut x: NodeId) -> usize {
    loop {
        end -= 1;
        buf[end] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            return end;
        }
    }
}

/// Writes the graph to a file path.
pub fn write_edge_list_file(g: &CsrGraph, path: impl AsRef<Path>) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_edge_list(g, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, GraphBuilder};
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// The reader before the byte scanner and the rank table, verbatim: one
    /// `read_line` per line, two sorts of the tuple buffer, a binary search per
    /// endpoint. The new reader must agree with it on every input.
    ///
    /// The parse loop reuses one line buffer (`read_line`) instead of allocating
    /// a `String` per line, and the dense-id table is derived without ever
    /// holding a flat copy of all `2m` endpoints: the tuple buffer is sorted by
    /// source to collect the ≤ n distinct sources, re-sorted by destination to
    /// collect the ≤ n distinct destinations, and the two small sorted tables are
    /// merged. At m = 10⁸ that replaces a 1.6 GB endpoint copy with two ≤ n-sized
    /// tables — the tuple buffer itself (16 B/edge) stays the high-water mark.
    fn oracle_read<R: BufRead>(mut reader: R) -> io::Result<(CompactedEdgeList, IngestStats)> {
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
        peak = peak
            .max(tuple_bytes + (srcs.capacity() + dsts.capacity() + original_ids.capacity()) * 8);
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

    /// An id for a generated line: dense ids stay below 24, so a list of six
    /// lines or more takes the rank-table path; sparse ids sit above
    /// `u32::MAX`, up to 20 digits, and always take the sorting path.
    fn gen_id(rng: &mut SmallRng, sparse: bool) -> u64 {
        if !sparse {
            return rng.random_range(0..24u64);
        }
        match rng.random_range(0..4u32) {
            0 => rng.random_range(0..20u64),
            1 => u64::from(u32::MAX) + rng.random_range(1..20u64),
            2 => 999_999_999_999_999_990 + rng.random_range(0..20u64),
            _ => u64::MAX - rng.random_range(0..5u64),
        }
    }

    /// Malformed edge lines, each rejected by the per-line rule.
    const MALFORMED: [&str; 7] = [
        "0",
        "0 x",
        "-1 2",
        "18446744073709551616 1",
        "x",
        "1 2x",
        "7 99999999999999999999",
    ];

    /// A random edge list in every shape the reader accepts: plain, repeated
    /// and self-loop pairs, blank lines, comments, valid, malformed and
    /// mid-file count headers, tabs, runs of spaces, leading whitespace,
    /// CRLF, trailing tokens, signs and leading zeros; the final newline is
    /// sometimes missing. With `bad`, one malformed line goes in somewhere.
    fn gen_list(rng: &mut SmallRng, sparse: bool, bad: bool) -> Vec<u8> {
        let lines = rng.random_range(0..40);
        let mut text: Vec<String> = Vec::new();
        let mut last = (0, 1);
        for _ in 0..lines {
            let (u, v) = (gen_id(rng, sparse), gen_id(rng, sparse));
            let line = match rng.random_range(0..24) {
                0 => format!("{} {}", last.0, last.1),
                1 => format!("{u} {u}"),
                2 => String::new(),
                3 => "  \t ".to_string(),
                4 => "# a comment".to_string(),
                5 => "#".to_string(),
                6 => format!(
                    "# nodes {} edges {}",
                    rng.random_range(0..50),
                    rng.random_range(0..50)
                ),
                7 => "# nodes x edges 3".to_string(),
                8 => "# nodes 3 edges 3 extra".to_string(),
                9 => format!("{u}\t{v}"),
                10 => format!("{u}   {v}"),
                11 => format!("  {u} {v}"),
                12 => format!("{u} {v}\r"),
                13 => format!("{u} {v} extra"),
                14 => format!("{u} {v} 7"),
                15 => format!("+{u} {v}"),
                16 => format!("00{u} {v}"),
                17 => format!("{u} {v}  "),
                _ => format!("{u} {v}"),
            };
            if !line.is_empty() && !line.starts_with(|c: char| c == '#' || c.is_whitespace()) {
                last = (u, v);
            }
            text.push(line);
        }
        if bad {
            let at = rng.random_range(0..=text.len());
            let line = MALFORMED[rng.random_range(0..MALFORMED.len())];
            text.insert(at, line.to_string());
        }
        let mut bytes = text.join("\n").into_bytes();
        if !text.is_empty() && rng.random_range(0..2) == 0 {
            bytes.push(b'\n');
        }
        bytes
    }

    /// Reads `text` through buffers of 1, 3, 7 and 64 bytes and the default
    /// size, so lines straddle refills, and compares each result with the
    /// oracle's. Errors must agree in kind, and in message unless
    /// `kind_only`.
    fn check_against_oracle(text: &[u8], kind_only: bool) -> Result<(), TestCaseError> {
        let want = oracle_read(io::BufReader::new(text));
        let readers: [Box<dyn BufRead + '_>; 5] = [
            Box::new(io::BufReader::with_capacity(1, text)),
            Box::new(io::BufReader::with_capacity(3, text)),
            Box::new(io::BufReader::with_capacity(7, text)),
            Box::new(io::BufReader::with_capacity(64, text)),
            Box::new(io::BufReader::new(text)),
        ];
        for reader in readers {
            let got = read_edge_list_compacted_with_stats(reader);
            match (&got, &want) {
                (Ok((g, gs)), Ok((w, ws))) => {
                    prop_assert_eq!(&g.graph, &w.graph);
                    prop_assert_eq!(&g.original_ids, &w.original_ids);
                    prop_assert_eq!(gs.header_preallocated, ws.header_preallocated);
                }
                (Err(g), Err(w)) => {
                    prop_assert_eq!(g.kind(), w.kind());
                    if !kind_only {
                        prop_assert_eq!(g.to_string(), w.to_string());
                    }
                }
                _ => {
                    return Err(TestCaseError::fail(format!(
                        "reader gave {:?}, oracle {:?}",
                        got.as_ref().map(|(c, _)| &c.original_ids),
                        want.as_ref().map(|(c, _)| &c.original_ids)
                    )))
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The reader equals the oracle on random lists, dense and sparse,
        /// well-formed and not, at every buffer size.
        #[test]
        fn reader_matches_the_oracle(
            seed in any::<u64>(),
            sparse in prop::bool::ANY,
            bad in 0u32..4,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let text = gen_list(&mut rng, sparse, bad == 0);
            check_against_oracle(&text, false)?;
        }
    }

    #[test]
    fn malformed_lines_fail_like_the_oracle() {
        for line in MALFORMED {
            for text in [
                format!("{line}\n"),
                format!("0 1\n{line}"),
                format!("# c\n{line}\n2 3\n"),
            ] {
                assert!(oracle_read(io::BufReader::new(text.as_bytes())).is_err());
                check_against_oracle(text.as_bytes(), false).unwrap();
            }
        }
        // A 20-digit id that fits u64 is valid; the inline path stops at 19
        // digits, so it goes through the per-line rule.
        for text in ["12345678901234567890 1\n", "18446744073709551615 0\n1 2\n"] {
            assert!(oracle_read(io::BufReader::new(text.as_bytes())).is_ok());
            check_against_oracle(text.as_bytes(), false).unwrap();
        }
    }

    #[test]
    fn invalid_utf8_fails_like_the_oracle() {
        for text in [
            &b"0 1\n1 \xff2\n"[..],
            b"# caf\xe9\n0 1\n",
            b"0 1\n\xfe",
            b"\xc3 1\n",
        ] {
            assert!(oracle_read(io::BufReader::new(text)).is_err());
            check_against_oracle(text, true).unwrap();
        }
    }

    #[test]
    fn written_lines_match_format() {
        let edges = [
            0,
            1,
            9,
            10,
            99,
            100,
            65_535,
            1 << 31,
            u32::MAX - 1,
            u32::MAX,
        ];
        let mut line = [0u8; EDGE_LINE_MAX];
        for &u in &edges {
            for &v in &edges {
                assert_eq!(edge_line(&mut line, u, v), format!("{u} {v}\n").as_bytes());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `write_edge_list` writes what one `writeln!` per edge wrote.
        #[test]
        fn writer_matches_writeln(
            n in 1usize..2000,
            choices in prop::collection::vec(0u64..4_000_000, 0..400),
        ) {
            let edges: Vec<(NodeId, NodeId)> = choices
                .iter()
                .map(|&k| ((k / 2000 % n as u64) as NodeId, (k % n as u64) as NodeId))
                .collect();
            let g = graph_from_edges(n, &edges);
            let mut want = Vec::new();
            writeln!(want, "# nodes {} edges {}", g.num_nodes(), g.num_edges()).unwrap();
            for (_, u, v) in g.edges() {
                writeln!(want, "{u} {v}").unwrap();
            }
            let mut got = Vec::new();
            write_edge_list(&g, &mut got).unwrap();
            prop_assert_eq!(got, want);
        }
    }
}
