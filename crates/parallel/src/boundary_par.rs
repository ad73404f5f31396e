//! Per-processor boundary sets for the parallel refinement schemes.
//!
//! Each logical processor keeps the boundary vertices of its own block —
//! vertices with at least one neighbor (local or halo) in another subdomain
//! — as a dense list plus a position index, with a per-vertex count of
//! crossing edges. The sets are built once per level from the published
//! partition and then updated incrementally after every commit round from
//! the round's committed moves ([`ProcBoundary::apply_commits`]), so the
//! per-iteration propose sweep touches `O(boundary)` vertices instead of
//! rescanning the whole block.
//!
//! Remote moves are applied through a reverse-halo index (`halo_src`): the
//! sorted `(remote gid → local vertex)` pairs a block cannot otherwise
//! recover from its forward adjacency.

use crate::dist::LocalGraph;

/// One vertex move of a BSP move round (reservation, slice or balancing),
/// from proposal through commit.
#[derive(Clone, Copy, Debug)]
pub struct Move {
    /// Global id of the moved vertex.
    pub v: u32,
    /// Subdomain the vertex leaves (its part in the previously published
    /// partition).
    pub from: u32,
    /// Subdomain the vertex joins.
    pub to: u32,
    /// The processor that owns the vertex and proposed the move.
    pub proc: u32,
}

const NOT_IN_BOUNDARY: u32 = u32::MAX;

/// The boundary set of one processor's block, kept exact across commit
/// rounds.
#[derive(Clone, Debug)]
pub struct ProcBoundary {
    first: usize,
    /// Local ids of boundary vertices (unordered but deterministic).
    blist: Vec<u32>,
    /// `bpos[lv]` = index of `lv` in `blist`, or `NOT_IN_BOUNDARY`.
    bpos: Vec<u32>,
    /// Per local vertex: number of edges crossing into another subdomain.
    ext: Vec<u32>,
    /// Reverse halo index: `(remote gid, local lv)` for every edge whose
    /// far endpoint is off-block, sorted by gid for range lookup.
    halo_src: Vec<(u32, u32)>,
}

impl ProcBoundary {
    /// Builds the boundary set of `lg` under the published partition
    /// `part` (global). `O(local vertices + local edges)`.
    pub fn build(lg: &LocalGraph, part: &[u32]) -> ProcBoundary {
        let nlocal = lg.nlocal();
        let lo = lg.first;
        let hi = lo + nlocal;
        let mut blist = Vec::new();
        let mut bpos = vec![NOT_IN_BOUNDARY; nlocal];
        let mut ext = vec![0u32; nlocal];
        let mut halo_src: Vec<(u32, u32)> = Vec::new();
        for lv in 0..nlocal {
            let a = part[lg.global(lv)];
            let mut crossing = 0u32;
            for &u in lg.neighbors(lv) {
                let u = u as usize;
                if part[u] != a {
                    crossing += 1;
                }
                if u < lo || u >= hi {
                    halo_src.push((u as u32, lv as u32));
                }
            }
            ext[lv] = crossing;
            if crossing > 0 {
                bpos[lv] = blist.len() as u32;
                blist.push(lv as u32);
            }
        }
        halo_src.sort_unstable();
        ProcBoundary {
            first: lg.first,
            blist,
            bpos,
            ext,
            halo_src,
        }
    }

    /// The current boundary, as local vertex ids.
    #[inline]
    pub fn boundary(&self) -> &[u32] {
        &self.blist
    }

    /// True when local vertex `lv` has a neighbor in another subdomain.
    #[inline]
    pub fn is_boundary(&self, lv: usize) -> bool {
        self.ext[lv] > 0
    }

    /// Brings the set up to date after a commit round. `part` is the global
    /// partition *after* the commits; `moves` are all of the round's
    /// committed moves (every processor's — remote moves can pull local
    /// vertices on or off the boundary). Cost:
    /// `O(Σ deg(moved local) + moved-edge endpoints in this block)`.
    pub fn apply_commits(&mut self, lg: &LocalGraph, part: &[u32], moves: &[Move]) {
        let lo = self.first;
        let hi = lo + lg.nlocal();
        // Sorted moved gids: stage 2 must skip endpoints that moved
        // themselves (their counts are rebuilt exactly in stage 1).
        let mut moved: Vec<u32> = moves.iter().map(|m| m.v).collect();
        moved.sort_unstable();
        let has_moved = |gid: usize| moved.binary_search(&(gid as u32)).is_ok();

        // Stage 1: full recount for moved local vertices — both endpoints
        // of an edge can move in the same round, and a recount from the
        // post-commit partition is exact no matter what its neighbors did.
        for m in moves {
            let v = m.v as usize;
            if v < lo || v >= hi {
                continue;
            }
            let lv = v - lo;
            let a = part[v];
            let crossing = lg
                .neighbors(lv)
                .iter()
                .filter(|&&u| part[u as usize] != a)
                .count() as u32;
            self.set_ext(lv, crossing);
        }

        // Stage 2: per move, adjust the crossing count of every *unmoved*
        // local neighbor by the edge's before/after crossing status.
        for m in moves {
            let v = m.v as usize;
            if v >= lo && v < hi {
                // Moved local vertex: its local neighbors come from its own
                // adjacency row.
                for &u in lg.neighbors(v - lo) {
                    let u = u as usize;
                    if u >= lo && u < hi && !has_moved(u) {
                        self.shift_ext(u - lo, part[u], m.from, m.to);
                    }
                }
            } else {
                // Moved remote vertex: its local neighbors come from the
                // reverse halo index.
                let start = self.halo_src.partition_point(|&(g, _)| g < m.v);
                let end = self.halo_src.partition_point(|&(g, _)| g <= m.v);
                for i in start..end {
                    let ulv = self.halo_src[i].1 as usize;
                    if !has_moved(lo + ulv) {
                        self.shift_ext(ulv, part[lo + ulv], m.from, m.to);
                    }
                }
            }
        }
    }

    /// Recomputes everything from scratch and diffs it. `O(block)` — for
    /// tests and per-iteration `debug_assertions` checks.
    pub fn validate(&self, lg: &LocalGraph, part: &[u32]) -> Result<(), String> {
        let fresh = ProcBoundary::build(lg, part);
        if self.ext != fresh.ext {
            let lv = (0..self.ext.len())
                .find(|&lv| self.ext[lv] != fresh.ext[lv])
                .unwrap();
            return Err(format!(
                "ext({lv}) drifted on proc block at {}: cached {} vs fresh {}",
                self.first, self.ext[lv], fresh.ext[lv]
            ));
        }
        let mut cached: Vec<u32> = self.blist.clone();
        let mut want: Vec<u32> = fresh.blist.clone();
        cached.sort_unstable();
        want.sort_unstable();
        if cached != want {
            return Err(format!(
                "boundary list drifted on proc block at {}: {} cached vs {} fresh",
                self.first,
                cached.len(),
                want.len()
            ));
        }
        for (i, &lv) in self.blist.iter().enumerate() {
            if self.bpos[lv as usize] != i as u32 {
                return Err(format!("bpos({lv}) does not point at its blist slot"));
            }
        }
        Ok(())
    }

    /// One edge of `ulv` switched its far endpoint from `from` to `to`:
    /// update the crossing count given `ulv`'s own (unchanged) part.
    #[inline]
    fn shift_ext(&mut self, ulv: usize, own: u32, from: u32, to: u32) {
        let before = own != from;
        let after = own != to;
        match (before, after) {
            (false, true) => self.set_ext(ulv, self.ext[ulv] + 1),
            (true, false) => self.set_ext(ulv, self.ext[ulv] - 1),
            _ => {}
        }
    }

    fn set_ext(&mut self, lv: usize, crossing: u32) {
        self.ext[lv] = crossing;
        if crossing > 0 {
            if self.bpos[lv] == NOT_IN_BOUNDARY {
                self.bpos[lv] = self.blist.len() as u32;
                self.blist.push(lv as u32);
            }
        } else if self.bpos[lv] != NOT_IN_BOUNDARY {
            let pos = self.bpos[lv];
            self.blist.swap_remove(pos as usize);
            if let Some(&swapped) = self.blist.get(pos as usize) {
                self.bpos[swapped as usize] = pos;
            }
            self.bpos[lv] = NOT_IN_BOUNDARY;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DistGraph;
    use mcgp_graph::generators::{grid_2d, mrng_like};
    use mcgp_runtime::rng::Rng;

    #[test]
    fn build_matches_naive_scan() {
        let g = grid_2d(10, 10);
        let d = DistGraph::distribute(&g, 4);
        let part: Vec<u32> = (0..100).map(|v| ((v * 4) / 100) as u32).collect();
        for q in 0..4 {
            let lg = d.local(q);
            let pb = ProcBoundary::build(lg, &part);
            for lv in 0..lg.nlocal() {
                let naive = lg
                    .neighbors(lv)
                    .iter()
                    .any(|&u| part[u as usize] != part[lg.global(lv)]);
                assert_eq!(pb.is_boundary(lv), naive, "proc {q} lv {lv}");
            }
            pb.validate(lg, &part).unwrap();
        }
    }

    #[test]
    fn random_commit_rounds_stay_exact() {
        let g = mrng_like(800, 3);
        let n = g.nvtxs();
        let p = 4;
        let k = 5u32;
        let d = DistGraph::distribute(&g, p);
        let mut part: Vec<u32> = (0..n).map(|v| (v as u32) % k).collect();
        let mut pbs: Vec<ProcBoundary> =
            (0..p).map(|q| ProcBoundary::build(d.local(q), &part)).collect();
        let mut rng = Rng::seed_from_u64(7);
        for _round in 0..30 {
            // A commit round: several distinct vertices change parts at
            // once, including pairs that may be adjacent.
            let mut moves: Vec<Move> = Vec::new();
            let mut taken = vec![false; n];
            for _ in 0..12 {
                let v = rng.gen_range(0..n as u32) as usize;
                if taken[v] {
                    continue;
                }
                taken[v] = true;
                let from = part[v];
                let to = (from + 1 + rng.gen_range(0..k - 1)) % k;
                moves.push(Move {
                    v: v as u32,
                    from,
                    to,
                    proc: d.owner(v) as u32,
                });
            }
            for m in &moves {
                part[m.v as usize] = m.to;
            }
            for (q, pb) in pbs.iter_mut().enumerate() {
                pb.apply_commits(d.local(q), &part, &moves);
                pb.validate(d.local(q), &part).unwrap();
            }
        }
    }

    #[test]
    fn adjacent_pair_moving_together_is_exact() {
        // A 1-D path split in the middle; both cut endpoints swap parts in
        // the same round (the both-endpoints-moved case stage 1 exists for).
        let g = grid_2d(8, 1);
        let d = DistGraph::distribute(&g, 2);
        let mut part = vec![0u32, 0, 0, 0, 1, 1, 1, 1];
        let mut pbs: Vec<ProcBoundary> =
            (0..2).map(|q| ProcBoundary::build(d.local(q), &part)).collect();
        let moves = vec![
            Move {
                v: 3,
                from: 0,
                to: 1,
                proc: 0,
            },
            Move {
                v: 4,
                from: 1,
                to: 0,
                proc: 1,
            },
        ];
        for m in &moves {
            part[m.v as usize] = m.to;
        }
        for (q, pb) in pbs.iter_mut().enumerate() {
            pb.apply_commits(d.local(q), &part, &moves);
            pb.validate(d.local(q), &part).unwrap();
        }
    }
}
