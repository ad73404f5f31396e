//! The boundary-driven refinement engine: an explicit boundary vertex set
//! with incrementally-maintained gain caches.
//!
//! KL-type k-way refinement only ever moves *boundary* vertices, so a sweep
//! that scans all `n` vertices and recomputes each one's connectivity from
//! its adjacency list does `O(n + m)` work per pass even when the boundary
//! is a thin sliver of the graph. [`BoundaryEngine`] caches, per vertex, the
//! edge weight to its own part ([`BoundaryEngine::internal`]) and the edge
//! weight to every adjacent part ([`BoundaryEngine::conn_of`]), keeps the
//! boundary as a dense list with a position index (O(1) insert/remove), and
//! tracks per-part vertex counts. Committing a move updates only the moved
//! vertex and its neighborhood, so a refinement pass costs
//! `O(boundary + Σ deg(moved))` instead of `O(n + m)`.
//!
//! Only vertices that have been on the boundary own a connectivity row.
//! [`BoundaryEngine::rebuild`] appends one row per boundary vertex to an
//! arena it resets, and a vertex that first reaches the boundary in
//! [`BoundaryEngine::commit_move`] gets its row appended then. A row holds
//! at most `min(deg(v), nparts - 1)` entries (one per adjacent foreign
//! part), so the arena grows with the boundary, not with the edge count.
//!
//! The rows also carry the partition's quality: the cut is half the summed
//! row weights and the communication volume is the summed row lengths
//! ([`BoundaryEngine::cut_and_volume`]).
//!
//! The cache is an exact mirror of the assignment: [`BoundaryEngine::validate`]
//! recomputes everything from scratch and diffs it, and the refinement
//! drivers run it per pass under `debug_assertions`.

use mcgp_graph::Graph;
use mcgp_runtime::prefetch;

/// Cached connectivity of one vertex to one adjacent part.
///
/// `edges` counts adjacent vertices in `part`; an entry stays alive while
/// `edges > 0` even if `weight` sums to zero, because boundary membership is
/// defined by *having* a neighbor in another part, not by the edge weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartConn {
    /// The adjacent part.
    pub part: u32,
    /// Total edge weight from the vertex into `part`.
    pub weight: i64,
    /// Number of edges from the vertex into `part`.
    pub edges: u32,
}

/// An unused arena slot.
const SPARE: PartConn = PartConn {
    part: 0,
    weight: 0,
    edges: 0,
};

const NOT_IN_BOUNDARY: u32 = u32::MAX;

/// A free entry of the rebuild's part → row-position table.
const NO_SLOT: u32 = u32::MAX;

/// Per-vertex cache record, packed so one cache line serves a whole
/// neighbor update (commit_move touches these at random vertex indices —
/// splitting the fields across parallel arrays costs several misses per
/// neighbor on large graphs).
#[derive(Clone, Copy, Debug)]
struct VtxCache {
    /// Edge weight from the vertex to its own part.
    internal: i64,
    /// Start of the vertex's arena row (0 while it has none).
    off: usize,
    /// Number of edges from the vertex to its own part.
    int_edges: u32,
    /// Live entries in the vertex's arena row.
    conn_len: u32,
    /// Capacity of the vertex's arena row; 0 while it has none.
    cap: u32,
    /// Index in `blist`, or `NOT_IN_BOUNDARY`.
    bpos: u32,
}

/// Boundary set + per-vertex connectivity caches + per-part vertex counts
/// for one (graph, assignment) pair. Build with [`BoundaryEngine::rebuild`],
/// then keep it exact across moves with [`BoundaryEngine::commit_move`].
///
/// The buffers keep their capacity across [`BoundaryEngine::rebuild`]
/// calls, so one engine can be carried through all uncoarsening levels of a
/// partition call (see [`RefineWorkspace`]).
#[derive(Clone, Debug, Default)]
pub struct BoundaryEngine {
    nparts: usize,
    /// Dense list of boundary vertices, in no particular order.
    blist: Vec<u32>,
    /// Per-vertex packed cache (internal weight, row location, boundary
    /// position).
    vtx: Vec<VtxCache>,
    /// Arena of connectivity rows: `v`'s live entries are
    /// `conn[vtx[v].off .. vtx[v].off + vtx[v].conn_len]`, out of
    /// `vtx[v].cap = min(deg(v), nparts - 1)` slots (a vertex can touch
    /// neither more foreign parts than it has edges nor more than there
    /// are). Rows are appended in the order vertices reach the boundary;
    /// one contiguous allocation, no per-vertex `Vec`s to chase.
    conn: Vec<PartConn>,
    /// Number of vertices assigned to each part.
    part_count: Vec<u32>,
    /// `slot[p]`: position of part `p` in the row being built by
    /// [`BoundaryEngine::rebuild`], or `NO_SLOT`. Every entry is `NO_SLOT`
    /// between vertices.
    slot: Vec<u32>,
}

impl BoundaryEngine {
    /// An empty engine; call [`BoundaryEngine::rebuild`] before use.
    pub fn new() -> Self {
        BoundaryEngine::default()
    }

    /// Recomputes every cache from scratch in `O(n + m)`, reusing the
    /// existing buffers. Each vertex record is written once; a row's
    /// entries are in the order their parts first appear in the vertex's
    /// adjacency list.
    pub fn rebuild(&mut self, graph: &Graph, assignment: &[u32], nparts: usize) {
        let n = graph.nvtxs();
        debug_assert_eq!(assignment.len(), n);
        self.nparts = nparts;
        self.blist.clear();
        self.vtx.clear();
        self.vtx.reserve(n);
        self.conn.clear();
        self.part_count.clear();
        self.part_count.resize(nparts, 0);
        self.slot.clear();
        self.slot.resize(nparts, NO_SLOT);
        let max_cap = nparts.saturating_sub(1);
        let (xadj, adjncy, adjwgt) = (graph.xadj(), graph.adjncy(), graph.adjwgt());

        for (v, &a) in assignment.iter().enumerate() {
            self.part_count[a as usize] += 1;
            let off = self.conn.len();
            let (lo, hi) = (xadj[v], xadj[v + 1]);
            let mut internal = 0i64;
            let mut int_edges = 0u32;
            for (&u, &w) in adjncy[lo..hi].iter().zip(&adjwgt[lo..hi]) {
                let pu = assignment[u as usize];
                if pu == a {
                    internal += w;
                    int_edges += 1;
                    continue;
                }
                let s = &mut self.slot[pu as usize];
                if *s == NO_SLOT {
                    *s = (self.conn.len() - off) as u32;
                    self.conn.push(PartConn {
                        part: pu,
                        weight: w,
                        edges: 1,
                    });
                } else {
                    let pc = &mut self.conn[off + *s as usize];
                    pc.weight += w;
                    pc.edges += 1;
                }
            }
            let len = self.conn.len() - off;
            let mut rec = VtxCache {
                internal,
                off: 0,
                int_edges,
                conn_len: len as u32,
                cap: 0,
                bpos: NOT_IN_BOUNDARY,
            };
            if len > 0 {
                for pc in &self.conn[off..] {
                    self.slot[pc.part as usize] = NO_SLOT;
                }
                let cap = (hi - lo).min(max_cap);
                self.conn.resize(off + cap, SPARE);
                rec.off = off;
                rec.cap = cap as u32;
                rec.bpos = self.blist.len() as u32;
                self.blist.push(v as u32);
            }
            self.vtx.push(rec);
        }
    }

    /// The current boundary vertices (unordered).
    #[inline]
    pub fn boundary(&self) -> &[u32] {
        &self.blist
    }

    /// True when `v` has at least one neighbor in another part.
    #[inline]
    pub fn is_boundary(&self, v: usize) -> bool {
        self.vtx[v].bpos != NOT_IN_BOUNDARY
    }

    /// Edge weight from `v` into its own part.
    #[inline]
    pub fn internal(&self, v: usize) -> i64 {
        self.vtx[v].internal
    }

    /// Connectivity of `v` to each adjacent foreign part.
    #[inline]
    pub fn conn_of(&self, v: usize) -> &[PartConn] {
        let m = &self.vtx[v];
        &self.conn[m.off..m.off + m.conn_len as usize]
    }

    /// The cut (each crossing edge counted once) and the communication
    /// volume (adjacent foreign parts summed over the vertices) of the
    /// current assignment, read off the boundary rows in `O(boundary)`.
    /// They equal [`mcgp_graph::metrics::edge_cut_raw`] and
    /// [`mcgp_graph::metrics::comm_volume`].
    pub fn cut_and_volume(&self) -> (i64, usize) {
        let (mut crossing, mut volume) = (0i64, 0usize);
        for &v in &self.blist {
            let row = self.conn_of(v as usize);
            crossing += row.iter().map(|pc| pc.weight).sum::<i64>();
            volume += row.len();
        }
        (crossing / 2, volume)
    }

    /// Hints the CPU to fetch `v`'s cache record, the line that
    /// [`BoundaryEngine::is_boundary`], [`BoundaryEngine::internal`] and
    /// [`BoundaryEngine::conn_of`] read first. No-op when `v` is out of
    /// range; changes no value.
    #[inline]
    pub fn prefetch_record(&self, v: usize) {
        prefetch::read(&self.vtx, v);
    }

    /// Hints the CPU to fetch the start of `v`'s connectivity row. Reads
    /// `v`'s record for the row offset, so call it a few visits after
    /// [`BoundaryEngine::prefetch_record`]. Changes no value.
    #[inline]
    pub fn prefetch_conn(&self, v: usize) {
        if let Some(m) = self.vtx.get(v) {
            prefetch::read(&self.conn, m.off);
        }
    }

    /// Number of vertices currently assigned to part `p`.
    #[inline]
    pub fn part_count(&self, p: usize) -> u32 {
        self.part_count[p]
    }

    /// Moves `v` to part `to`, updating `assignment` and every cache by
    /// touching only `v` and its neighborhood. The part-weight matrix is the
    /// caller's to maintain (via `balance::apply_move`).
    pub fn commit_move(&mut self, graph: &Graph, assignment: &mut [u32], v: usize, to: usize) {
        let from = assignment[v] as usize;
        if from == to {
            return;
        }
        self.part_count[from] -= 1;
        self.part_count[to] += 1;
        assignment[v] = to as u32;

        // v itself: the `to` entry becomes its internal connectivity, and
        // its old internal connectivity becomes a `from` entry.
        let m = self.vtx[v];
        let len = m.conn_len as usize;
        let row = &mut self.conn[m.off..m.off + len];
        let (to_w, to_e) = match row.iter().position(|pc| pc.part as usize == to) {
            Some(i) => {
                let pc = row[i];
                row[i] = row[len - 1];
                self.vtx[v].conn_len -= 1;
                (pc.weight, pc.edges)
            }
            None => (0, 0), // teleport: v has no edge into `to`
        };
        if m.int_edges > 0 {
            self.push_entry(
                graph,
                v,
                PartConn {
                    part: from as u32,
                    weight: m.internal,
                    edges: m.int_edges,
                },
            );
        }
        self.vtx[v].internal = to_w;
        self.vtx[v].int_edges = to_e;
        if self.vtx[v].conn_len == 0 {
            self.bl_remove(v);
        } else {
            self.bl_insert(v);
        }

        // Neighbors: shift one edge's worth of connectivity from `from` to
        // `to` in each neighbor's view of v.
        for (u, w) in graph.edges(v) {
            let u = u as usize;
            let pu = assignment[u] as usize;
            if pu == from {
                self.vtx[u].internal -= w;
                self.vtx[u].int_edges -= 1;
                self.conn_add(graph, u, to as u32, w);
                self.bl_insert(u);
            } else if pu == to {
                self.vtx[u].internal += w;
                self.vtx[u].int_edges += 1;
                self.conn_sub(u, from as u32, w);
                if self.vtx[u].conn_len == 0 {
                    self.bl_remove(u);
                }
            } else {
                // Still boundary afterwards: the `to` entry is alive.
                self.conn_shift(graph, u, from as u32, to as u32, w);
            }
        }
    }

    /// Recomputes everything from scratch and diffs it against the caches.
    /// `O(n + m)` — meant for tests and per-pass `debug_assertions` checks,
    /// not per move.
    pub fn validate(&self, graph: &Graph, assignment: &[u32]) -> Result<(), String> {
        let n = graph.nvtxs();
        let mut fresh = BoundaryEngine::new();
        fresh.rebuild(graph, assignment, self.nparts);
        if self.part_count != fresh.part_count {
            return Err(format!(
                "part_count drifted: cached {:?} vs fresh {:?}",
                self.part_count, fresh.part_count
            ));
        }
        let max_cap = self.nparts.saturating_sub(1);
        let mut rows: Vec<(usize, usize)> = Vec::new();
        for v in 0..n {
            let m = &self.vtx[v];
            if m.internal != fresh.vtx[v].internal || m.int_edges != fresh.vtx[v].int_edges {
                return Err(format!(
                    "internal({v}) drifted: cached ({}, {} edges) vs fresh ({}, {} edges)",
                    m.internal, m.int_edges, fresh.vtx[v].internal, fresh.vtx[v].int_edges
                ));
            }
            if m.cap != 0 {
                if m.cap as usize != graph.degree(v).min(max_cap) {
                    return Err(format!("row({v}) has capacity {}", m.cap));
                }
                rows.push((m.off, m.off + m.cap as usize));
            }
            if m.conn_len > m.cap {
                return Err(format!(
                    "row({v}) holds {} entries in {} slots",
                    m.conn_len, m.cap
                ));
            }
            let mut cached: Vec<PartConn> = self.conn_of(v).to_vec();
            let mut want: Vec<PartConn> = fresh.conn_of(v).to_vec();
            cached.sort_by_key(|pc| pc.part);
            want.sort_by_key(|pc| pc.part);
            if cached != want {
                return Err(format!(
                    "conn({v}) drifted: cached {cached:?} vs fresh {want:?}"
                ));
            }
            if self.is_boundary(v) != fresh.is_boundary(v) {
                return Err(format!(
                    "boundary({v}) drifted: cached {} vs fresh {}",
                    self.is_boundary(v),
                    fresh.is_boundary(v)
                ));
            }
        }
        rows.sort_unstable();
        let overlap = rows.windows(2).any(|w| w[0].1 > w[1].0);
        if overlap || rows.last().is_some_and(|r| r.1 > self.conn.len()) {
            return Err("connectivity rows overlap or leave the arena".to_string());
        }
        let mut cached_b: Vec<u32> = self.blist.clone();
        cached_b.sort_unstable();
        if cached_b.windows(2).any(|w| w[0] == w[1]) {
            return Err("boundary list has duplicates".to_string());
        }
        for (i, &v) in self.blist.iter().enumerate() {
            if self.vtx[v as usize].bpos != i as u32 {
                return Err(format!("bpos({v}) does not point at its blist slot"));
            }
        }
        Ok(())
    }

    /// Appends `pc` to `v`'s row, first giving `v` a row at the end of the
    /// arena if it has none. The slot is guaranteed free: a row holds one
    /// entry per distinct adjacent foreign part, which its capacity bounds.
    fn push_entry(&mut self, graph: &Graph, v: usize, pc: PartConn) {
        let m = &mut self.vtx[v];
        if m.cap == 0 {
            let cap = graph.degree(v).min(self.nparts.saturating_sub(1));
            m.off = self.conn.len();
            m.cap = cap as u32;
            self.conn.resize(m.off + cap, SPARE);
        }
        debug_assert!(m.conn_len < m.cap, "row({v}) is full");
        self.conn[m.off + m.conn_len as usize] = pc;
        m.conn_len += 1;
    }

    /// Adds one edge of weight `w` from `v` into `part` to the cache.
    fn conn_add(&mut self, graph: &Graph, v: usize, part: u32, w: i64) {
        let m = &self.vtx[v];
        match self.conn[m.off..m.off + m.conn_len as usize]
            .iter_mut()
            .find(|pc| pc.part == part)
        {
            Some(pc) => {
                pc.weight += w;
                pc.edges += 1;
            }
            None => self.push_entry(
                graph,
                v,
                PartConn {
                    part,
                    weight: w,
                    edges: 1,
                },
            ),
        }
    }

    /// Removes one edge of weight `w` from `v` into `part` from the cache,
    /// dropping the entry (swap-with-last within the slice) when its edge
    /// count reaches zero.
    fn conn_sub(&mut self, v: usize, part: u32, w: i64) {
        let off = self.vtx[v].off;
        let len = self.vtx[v].conn_len as usize;
        let row = &mut self.conn[off..off + len];
        let i = row
            .iter()
            .position(|pc| pc.part == part)
            .expect("conn_sub: no cached entry for the part an edge crosses into");
        row[i].weight -= w;
        row[i].edges -= 1;
        if row[i].edges == 0 {
            debug_assert_eq!(row[i].weight, 0);
            row[i] = row[len - 1];
            self.vtx[v].conn_len -= 1;
        }
    }

    /// Moves one edge of weight `w` in `v`'s cache from `from` to `to` —
    /// the common "neighbor of a moved vertex, in a third part" case — with
    /// a single scan of the row instead of a `conn_sub` + `conn_add` pair.
    fn conn_shift(&mut self, graph: &Graph, v: usize, from: u32, to: u32, w: i64) {
        let off = self.vtx[v].off;
        let len = self.vtx[v].conn_len as usize;
        let row = &mut self.conn[off..off + len];
        let mut from_i = usize::MAX;
        let mut to_i = usize::MAX;
        for (i, pc) in row.iter().enumerate() {
            if pc.part == from {
                from_i = i;
                if to_i != usize::MAX {
                    break;
                }
            } else if pc.part == to {
                to_i = i;
                if from_i != usize::MAX {
                    break;
                }
            }
        }
        debug_assert_ne!(
            from_i,
            usize::MAX,
            "conn_shift: no cached entry for the part an edge crosses into"
        );
        row[from_i].weight -= w;
        row[from_i].edges -= 1;
        let drop_from = row[from_i].edges == 0;
        if to_i != usize::MAX {
            row[to_i].weight += w;
            row[to_i].edges += 1;
            if drop_from {
                debug_assert_eq!(row[from_i].weight, 0);
                row[from_i] = row[len - 1];
                self.vtx[v].conn_len -= 1;
            }
        } else if drop_from {
            // Reuse the dead `from` slot for the new `to` entry.
            row[from_i] = PartConn {
                part: to,
                weight: w,
                edges: 1,
            };
        } else {
            self.push_entry(
                graph,
                v,
                PartConn {
                    part: to,
                    weight: w,
                    edges: 1,
                },
            );
        }
    }

    fn bl_insert(&mut self, v: usize) {
        if self.vtx[v].bpos == NOT_IN_BOUNDARY {
            self.vtx[v].bpos = self.blist.len() as u32;
            self.blist.push(v as u32);
        }
    }

    fn bl_remove(&mut self, v: usize) {
        let pos = self.vtx[v].bpos;
        if pos == NOT_IN_BOUNDARY {
            return;
        }
        self.blist.swap_remove(pos as usize);
        if let Some(&moved) = self.blist.get(pos as usize) {
            self.vtx[moved as usize].bpos = pos;
        }
        self.vtx[v].bpos = NOT_IN_BOUNDARY;
    }
}

/// Scratch state carried through all uncoarsening levels of one partition
/// call: the boundary engine plus the sweep-order buffer. Allocated once,
/// reused per level ([`BoundaryEngine::rebuild`] keeps the buffers).
#[derive(Debug, Default)]
pub struct RefineWorkspace {
    /// The boundary engine, rebuilt per refinement call.
    pub engine: BoundaryEngine,
    /// Sweep-order scratch (boundary snapshot, shuffled per pass).
    pub order: Vec<u32>,
}

impl RefineWorkspace {
    /// An empty workspace.
    pub fn new() -> Self {
        RefineWorkspace::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_graph::csr::GraphBuilder;
    use mcgp_graph::generators::{grid_2d, mrng_like, rmat_default};
    use mcgp_graph::metrics::{comm_volume, edge_cut_raw};
    use mcgp_graph::{synthetic, Partition};
    use mcgp_runtime::rng::Rng;

    fn striped(n: usize, k: usize) -> Vec<u32> {
        (0..n).map(|v| ((v * k) / n) as u32).collect()
    }

    /// Each vertex's foreign parts in the order they first appear in its
    /// adjacency list, with their edge weights and counts.
    fn naive_rows(g: &Graph, assignment: &[u32]) -> Vec<Vec<PartConn>> {
        (0..g.nvtxs())
            .map(|v| {
                let mut row: Vec<PartConn> = Vec::new();
                for (u, w) in g.edges(v) {
                    let pu = assignment[u as usize];
                    if pu == assignment[v] {
                        continue;
                    }
                    match row.iter_mut().find(|pc| pc.part == pu) {
                        Some(pc) => {
                            pc.weight += w;
                            pc.edges += 1;
                        }
                        None => row.push(PartConn {
                            part: pu,
                            weight: w,
                            edges: 1,
                        }),
                    }
                }
                row
            })
            .collect()
    }

    /// Random moves, mostly of boundary vertices and every seventh a
    /// teleport of an arbitrary vertex to an arbitrary part.
    fn random_moves(
        g: &Graph,
        e: &mut BoundaryEngine,
        a: &mut [u32],
        k: usize,
        steps: usize,
        seed: u64,
    ) {
        let n = g.nvtxs();
        let mut rng = Rng::seed_from_u64(seed);
        for step in 0..steps {
            let v = if step % 7 == 0 || e.boundary().is_empty() {
                rng.gen_range(0..n as u32) as usize
            } else {
                let i = rng.gen_range(0..e.boundary().len() as u32) as usize;
                e.boundary()[i] as usize
            };
            let to = rng.gen_range(0..k as u32) as usize;
            e.commit_move(g, a, v, to);
        }
    }

    #[test]
    fn rebuild_matches_naive_boundary() {
        let g = grid_2d(8, 8);
        let assignment = striped(64, 4);
        let mut e = BoundaryEngine::new();
        e.rebuild(&g, &assignment, 4);
        for v in 0..64 {
            let naive = g
                .edges(v)
                .any(|(u, _)| assignment[u as usize] != assignment[v]);
            assert_eq!(e.is_boundary(v), naive, "vertex {v}");
        }
        assert_eq!(
            e.boundary().len(),
            (0..64).filter(|&v| e.is_boundary(v)).count()
        );
        e.validate(&g, &assignment).unwrap();
    }

    #[test]
    fn rebuilt_rows_list_parts_in_first_appearance_order() {
        for (g, k) in [(grid_2d(12, 12), 5usize), (rmat_default(10, 8, 4), 16)] {
            let assignment: Vec<u32> = (0..g.nvtxs()).map(|v| ((v * 7) % k) as u32).collect();
            let mut e = BoundaryEngine::new();
            e.rebuild(&g, &assignment, k);
            for (v, row) in naive_rows(&g, &assignment).iter().enumerate() {
                assert_eq!(e.conn_of(v), &row[..], "vertex {v}");
            }
        }
    }

    #[test]
    fn only_boundary_vertices_own_rows() {
        let g = grid_2d(16, 16);
        let assignment = striped(256, 4);
        let mut e = BoundaryEngine::new();
        e.rebuild(&g, &assignment, 4);
        let slots: usize = e
            .boundary()
            .iter()
            .map(|&v| e.vtx[v as usize].cap as usize)
            .sum();
        assert_eq!(e.conn.len(), slots);
        assert!(
            e.conn.len() < g.adjacency_len() / 3,
            "arena {}",
            e.conn.len()
        );
        assert!((0..256).all(|v| e.is_boundary(v) == (e.vtx[v].cap > 0)));
    }

    #[test]
    fn part_counts_track_assignment() {
        let g = grid_2d(6, 6);
        let mut assignment = striped(36, 3);
        let mut e = BoundaryEngine::new();
        e.rebuild(&g, &assignment, 3);
        assert_eq!((0..3).map(|p| e.part_count(p)).sum::<u32>(), 36);
        let v = e.boundary()[0] as usize;
        let from = assignment[v] as usize;
        let to = (from + 1) % 3;
        e.commit_move(&g, &mut assignment, v, to);
        assert_eq!(assignment[v] as usize, to);
        assert_eq!(e.part_count(from), 12 - 1);
        assert_eq!(e.part_count(to), 12 + 1);
        e.validate(&g, &assignment).unwrap();
    }

    #[test]
    fn random_moves_stay_exact() {
        for (ncon, seed) in [(1usize, 1u64), (3, 2), (5, 3)] {
            let g = synthetic::type1(&mrng_like(600, seed), ncon, seed);
            let n = g.nvtxs();
            let k = 6;
            let mut assignment = striped(n, k);
            let mut e = BoundaryEngine::new();
            e.rebuild(&g, &assignment, k);
            random_moves(&g, &mut e, &mut assignment, k, 400, seed);
            e.validate(&g, &assignment).unwrap();
        }
    }

    #[test]
    fn random_moves_on_a_skewed_degree_graph_stay_exact() {
        // R-MAT hubs have rows far shorter than their degree, and the
        // graph has isolated vertices.
        let g = rmat_default(12, 8, 5);
        let n = g.nvtxs();
        for k in [2usize, 16, 64] {
            let mut assignment: Vec<u32> = (0..n).map(|v| (v % k) as u32).collect();
            let mut e = BoundaryEngine::new();
            e.rebuild(&g, &assignment, k);
            random_moves(&g, &mut e, &mut assignment, k, 3000, k as u64);
            e.validate(&g, &assignment).unwrap();
            let (cut, volume) = e.cut_and_volume();
            assert_eq!(cut, edge_cut_raw(&g, &assignment));
            let partition = Partition::new(k, assignment).unwrap();
            assert_eq!(volume, comm_volume(&g, &partition));
        }
    }

    #[test]
    fn teleport_gives_a_rowless_interior_vertex_its_row() {
        // Path 0-1-2-3 split {0,1,2} | {3}: 0 and 1 are interior and own no
        // row. Teleporting 0 to the empty part 2 gives 0 a row for part 0
        // and its interior neighbor 1 a row for part 2.
        let mut b = GraphBuilder::new(4);
        b.weighted_edge(0, 1, 3)
            .weighted_edge(1, 2, 2)
            .weighted_edge(2, 3, 1);
        let g = b.build().unwrap();
        let mut assignment = vec![0u32, 0, 0, 1];
        let mut e = BoundaryEngine::new();
        e.rebuild(&g, &assignment, 3);
        assert_eq!((e.vtx[0].cap, e.vtx[1].cap), (0, 0));
        e.commit_move(&g, &mut assignment, 0, 2);
        assert_eq!(
            e.conn_of(0),
            &[PartConn {
                part: 0,
                weight: 3,
                edges: 1
            }]
        );
        assert_eq!(
            e.conn_of(1),
            &[PartConn {
                part: 2,
                weight: 3,
                edges: 1
            }]
        );
        assert_eq!((e.internal(0), e.internal(1)), (0, 2));
        assert!(e.is_boundary(0) && e.is_boundary(1));
        e.validate(&g, &assignment).unwrap();
        // Back home: both rows empty out but stay allocated for reuse.
        let arena = e.conn.len();
        e.commit_move(&g, &mut assignment, 0, 0);
        assert!(!e.is_boundary(0) && !e.is_boundary(1));
        e.commit_move(&g, &mut assignment, 0, 2);
        assert_eq!(e.conn.len(), arena);
        e.validate(&g, &assignment).unwrap();
    }

    #[test]
    fn an_isolated_vertex_never_needs_a_row() {
        let mut b = GraphBuilder::new(4);
        b.edge(0, 1).edge(1, 2);
        let g = b.build().unwrap();
        let mut assignment = vec![0u32, 0, 1, 1];
        let mut e = BoundaryEngine::new();
        e.rebuild(&g, &assignment, 3);
        assert!(!e.is_boundary(3));
        for to in [0usize, 2, 1] {
            e.commit_move(&g, &mut assignment, 3, to);
            assert!(!e.is_boundary(3));
            assert_eq!(e.vtx[3].cap, 0);
            e.validate(&g, &assignment).unwrap();
        }
        assert_eq!(e.part_count(1), 2);
        assert_eq!(e.cut_and_volume(), (1, 2));
    }

    #[test]
    fn a_hub_row_holds_at_most_one_entry_per_foreign_part() {
        // A star: hub 0 with 12 leaves spread over 3 parts, hub in part 0.
        let mut b = GraphBuilder::new(13);
        for leaf in 1..13 {
            b.weighted_edge(0, leaf, leaf as i64);
        }
        let g = b.build().unwrap();
        let mut assignment: Vec<u32> = (0..13).map(|v| (v % 3) as u32).collect();
        assignment[0] = 0;
        let mut e = BoundaryEngine::new();
        e.rebuild(&g, &assignment, 3);
        assert_eq!(e.vtx[0].cap, 2);
        assert_eq!(e.conn_of(0).len(), 2);
        assert_eq!(e.vtx[1].cap, 1);
        // Move the hub through every part, then a leaf into each part.
        for to in [1usize, 2, 0] {
            e.commit_move(&g, &mut assignment, 0, to);
            assert_eq!(e.conn_of(0).len(), 2);
            e.validate(&g, &assignment).unwrap();
        }
        for (leaf, to) in [(3usize, 1usize), (4, 2), (5, 0)] {
            e.commit_move(&g, &mut assignment, leaf, to);
            e.validate(&g, &assignment).unwrap();
        }
        assert_eq!(e.cut_and_volume().0, edge_cut_raw(&g, &assignment));
    }

    #[test]
    fn a_workspace_reused_on_a_smaller_graph_matches_a_fresh_one() {
        use crate::balance::{part_weights, BalanceModel};
        use crate::kway_refine::greedy_kway_refine_ws;
        let big = synthetic::type1(&mrng_like(6000, 3), 2, 3);
        let small = synthetic::type1(&grid_2d(20, 20), 2, 4);
        let k = 6;
        let refine = |g: &Graph, ws: &mut RefineWorkspace| {
            let mut a: Vec<u32> = (0..g.nvtxs()).map(|v| ((v * 5) % k) as u32).collect();
            let model = BalanceModel::new(g, k, 0.05);
            let mut pw = part_weights(g, &a, k);
            let mut rng = Rng::seed_from_u64(8);
            greedy_kway_refine_ws(g, &mut a, &mut pw, &model, 4, &mut rng, ws);
            (a, pw)
        };
        let mut reused = RefineWorkspace::new();
        refine(&big, &mut reused);
        let mut fresh = RefineWorkspace::new();
        let (a, pw) = refine(&small, &mut reused);
        assert_eq!((a.clone(), pw), refine(&small, &mut fresh));
        assert_eq!(reused.engine.boundary(), fresh.engine.boundary());
        for v in 0..small.nvtxs() {
            assert_eq!(
                reused.engine.conn_of(v),
                fresh.engine.conn_of(v),
                "vertex {v}"
            );
        }
        reused.engine.validate(&small, &a).unwrap();
    }

    #[test]
    fn teleport_move_into_unconnected_part() {
        // Path 0-1-2 split {0,1} | {2}; teleporting 0 to a third, empty part
        // exercises the "no conn entry for the destination" branch.
        let mut b = GraphBuilder::new(3);
        b.weighted_edge(0, 1, 4).weighted_edge(1, 2, 1);
        let g = b.build().unwrap();
        let mut assignment = vec![0u32, 0, 1];
        let mut e = BoundaryEngine::new();
        e.rebuild(&g, &assignment, 3);
        assert!(!e.is_boundary(0));
        e.commit_move(&g, &mut assignment, 0, 2);
        assert_eq!(assignment, vec![2, 0, 1]);
        assert!(e.is_boundary(0));
        assert_eq!(e.internal(0), 0);
        assert_eq!(e.part_count(2), 1);
        e.validate(&g, &assignment).unwrap();
    }

    #[test]
    fn zero_weight_edges_keep_boundary_membership() {
        // v's only foreign edge has weight 0: it is still boundary, and the
        // conn entry must survive on its edge count.
        let mut b = GraphBuilder::new(2);
        b.weighted_edge(0, 1, 0);
        let g = b.build().unwrap();
        let mut assignment = vec![0u32, 1];
        let mut e = BoundaryEngine::new();
        e.rebuild(&g, &assignment, 2);
        assert!(e.is_boundary(0) && e.is_boundary(1));
        assert_eq!(
            e.conn_of(0),
            &[PartConn {
                part: 1,
                weight: 0,
                edges: 1
            }]
        );
        e.commit_move(&g, &mut assignment, 1, 0);
        assert!(!e.is_boundary(0) && !e.is_boundary(1));
        e.validate(&g, &assignment).unwrap();
    }

    #[test]
    fn validate_catches_a_seeded_drift() {
        let g = grid_2d(4, 4);
        let assignment = striped(16, 2);
        let mut e = BoundaryEngine::new();
        e.rebuild(&g, &assignment, 2);
        e.vtx[5].internal += 1;
        assert!(e.validate(&g, &assignment).is_err());
    }
}
