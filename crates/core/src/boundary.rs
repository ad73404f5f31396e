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

const NOT_IN_BOUNDARY: u32 = u32::MAX;

/// Per-vertex cache record, packed so one cache line serves a whole
/// neighbor update (commit_move touches these at random vertex indices —
/// splitting the fields across parallel arrays costs several misses per
/// neighbor on large graphs).
#[derive(Clone, Copy, Debug)]
struct VtxCache {
    /// Edge weight from the vertex to its own part.
    internal: i64,
    /// Start of the vertex's arena row (its `xadj` offset).
    off: usize,
    /// Number of edges from the vertex to its own part.
    int_edges: u32,
    /// Live entries in the vertex's arena row.
    conn_len: u32,
    /// Index in `blist`, or `NOT_IN_BOUNDARY`.
    bpos: u32,
}

const EMPTY_VTX: VtxCache = VtxCache {
    internal: 0,
    off: 0,
    int_edges: 0,
    conn_len: 0,
    bpos: NOT_IN_BOUNDARY,
};

/// Boundary set + per-vertex connectivity caches + per-part vertex counts
/// for one (graph, assignment) pair. Build with [`BoundaryEngine::rebuild`],
/// then keep it exact across moves with [`BoundaryEngine::commit_move`].
///
/// The buffers are grow-only and reused across [`BoundaryEngine::rebuild`]
/// calls, so one engine can be carried through all uncoarsening levels of a
/// partition call (see [`RefineWorkspace`]).
#[derive(Clone, Debug, Default)]
pub struct BoundaryEngine {
    nparts: usize,
    /// Dense list of boundary vertices, in no particular order.
    blist: Vec<u32>,
    /// Per-vertex packed cache (internal weight, arena offset, boundary
    /// position).
    vtx: Vec<VtxCache>,
    /// Flat arena of per-vertex adjacent-part entries: `v`'s live entries
    /// are `conn[vtx[v].off .. vtx[v].off + vtx[v].conn_len]`, with capacity
    /// `deg(v)` (a vertex can never touch more foreign parts than it has
    /// edges). One contiguous allocation — no per-vertex `Vec`s to chase.
    conn: Vec<PartConn>,
    /// Number of vertices assigned to each part.
    part_count: Vec<u32>,
}

impl BoundaryEngine {
    /// An empty engine; call [`BoundaryEngine::rebuild`] before use.
    pub fn new() -> Self {
        BoundaryEngine::default()
    }

    /// Recomputes every cache from scratch in `O(n + m)`, reusing the
    /// existing buffers.
    pub fn rebuild(&mut self, graph: &Graph, assignment: &[u32], nparts: usize) {
        let n = graph.nvtxs();
        debug_assert_eq!(assignment.len(), n);
        self.nparts = nparts;
        self.blist.clear();
        self.vtx.clear();
        self.vtx.resize(n, EMPTY_VTX);
        let xadj = graph.xadj();
        let arena = graph.adjacency_len();
        if self.conn.len() < arena {
            self.conn.resize(
                arena,
                PartConn {
                    part: 0,
                    weight: 0,
                    edges: 0,
                },
            );
        }
        self.part_count.clear();
        self.part_count.resize(nparts, 0);

        for v in 0..n {
            let a = assignment[v];
            self.part_count[a as usize] += 1;
            self.vtx[v].off = xadj[v];
            let mut internal = 0i64;
            let mut int_edges = 0u32;
            for (u, w) in graph.edges(v) {
                let pu = assignment[u as usize];
                if pu == a {
                    internal += w;
                    int_edges += 1;
                } else {
                    self.conn_add(v, pu, w);
                }
            }
            self.vtx[v].internal = internal;
            self.vtx[v].int_edges = int_edges;
            if self.vtx[v].conn_len > 0 {
                self.vtx[v].bpos = self.blist.len() as u32;
                self.blist.push(v as u32);
            }
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
        let off = self.vtx[v].off;
        let len = self.vtx[v].conn_len as usize;
        let row = &mut self.conn[off..off + len];
        let (to_w, to_e) = match row.iter().position(|pc| pc.part as usize == to) {
            Some(i) => {
                let pc = row[i];
                row[i] = row[len - 1];
                self.vtx[v].conn_len -= 1;
                (pc.weight, pc.edges)
            }
            None => (0, 0), // teleport: v has no edge into `to`
        };
        if self.vtx[v].int_edges > 0 {
            let end = off + self.vtx[v].conn_len as usize;
            self.conn[end] = PartConn {
                part: from as u32,
                weight: self.vtx[v].internal,
                edges: self.vtx[v].int_edges,
            };
            self.vtx[v].conn_len += 1;
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
                self.conn_add(u, to as u32, w);
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
                self.conn_shift(u, from as u32, to as u32, w);
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
        for v in 0..n {
            if self.vtx[v].internal != fresh.vtx[v].internal
                || self.vtx[v].int_edges != fresh.vtx[v].int_edges
            {
                return Err(format!(
                    "internal({v}) drifted: cached ({}, {} edges) vs fresh ({}, {} edges)",
                    self.vtx[v].internal,
                    self.vtx[v].int_edges,
                    fresh.vtx[v].internal,
                    fresh.vtx[v].int_edges
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

    /// Adds one edge of weight `w` from `v` into `part` to the cache. The
    /// arena slot is guaranteed free: a vertex's live entries never exceed
    /// its edge count, and `deg(v)` slots are reserved per vertex.
    fn conn_add(&mut self, v: usize, part: u32, w: i64) {
        let off = self.vtx[v].off;
        let len = self.vtx[v].conn_len as usize;
        match self.conn[off..off + len]
            .iter_mut()
            .find(|pc| pc.part == part)
        {
            Some(pc) => {
                pc.weight += w;
                pc.edges += 1;
            }
            None => {
                self.conn[off + len] = PartConn {
                    part,
                    weight: w,
                    edges: 1,
                };
                self.vtx[v].conn_len += 1;
            }
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
    fn conn_shift(&mut self, v: usize, from: u32, to: u32, w: i64) {
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
            self.conn[off + len] = PartConn {
                part: to,
                weight: w,
                edges: 1,
            };
            self.vtx[v].conn_len += 1;
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
    use mcgp_graph::generators::{grid_2d, mrng_like};
    use mcgp_graph::synthetic;
    use mcgp_runtime::rng::Rng;

    fn striped(n: usize, k: usize) -> Vec<u32> {
        (0..n).map(|v| ((v * k) / n) as u32).collect()
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
            let mut rng = Rng::seed_from_u64(seed);
            for step in 0..400 {
                // Mostly boundary moves, occasionally a teleport of an
                // arbitrary vertex to an arbitrary part.
                let v = if step % 7 == 0 || e.boundary().is_empty() {
                    rng.gen_range(0..n as u32) as usize
                } else {
                    let i = rng.gen_range(0..e.boundary().len() as u32) as usize;
                    e.boundary()[i] as usize
                };
                let to = rng.gen_range(0..k as u32) as usize;
                e.commit_move(&g, &mut assignment, v, to);
            }
            e.validate(&g, &assignment).unwrap();
        }
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
        assert_eq!(e.conn_of(0), &[PartConn { part: 1, weight: 0, edges: 1 }]);
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
