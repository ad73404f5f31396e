//! Differential test of `Graph::validate`: one defect is injected into the
//! CSR arrays of a valid graph, and `Graph::from_csr` must report exactly
//! the error a naive reference reports.

use mcgp_graph::generators::{grid_2d, mrng_like};
use mcgp_graph::{Graph, Vertex};
use mcgp_runtime::rng::Rng;

struct Csr {
    xadj: Vec<usize>,
    adjncy: Vec<Vertex>,
    adjwgt: Vec<i64>,
    vwgt: Vec<i64>,
}

/// The symmetry rules of `Graph::validate`, checked the slow way: rows in
/// ascending order, each row's (u, w) pairs sorted, the reverse entry found
/// by a linear search of row u.
fn reference(g: &Csr) -> Result<(), String> {
    let n = g.xadj.len() - 1;
    let row = |v: usize| (g.xadj[v]..g.xadj[v + 1]).map(|i| (g.adjncy[i], g.adjwgt[i]));
    let sorted = |v: usize| {
        let mut r: Vec<(Vertex, i64)> = row(v).collect();
        r.sort();
        r
    };
    for v in 0..n {
        if row(v).any(|(u, _)| u as usize == v) {
            return Err(format!("graph is not undirected: self-loop at vertex {v}"));
        }
    }
    for v in 0..n {
        if let Some(p) = sorted(v).windows(2).find(|p| p[0].0 == p[1].0) {
            return Err(format!("malformed graph: duplicate edge ({v}, {})", p[0].0));
        }
    }
    for v in 0..n {
        for (u, w) in sorted(v) {
            match row(u as usize).find(|&(x, _)| x as usize == v) {
                None => {
                    return Err(format!(
                        "graph is not undirected: edge ({v},{u}) has no reverse edge"
                    ))
                }
                Some((_, back)) if back != w => {
                    return Err(format!(
                    "graph is not undirected: edge ({v},{u}) weight {w} != reverse weight {back}"
                ))
                }
                Some(_) => {}
            }
        }
    }
    Ok(())
}

/// `g` with symmetric non-unit edge weights and every row rotated, so rows
/// are neither sorted nor uniformly weighted.
fn scrambled(g: &Graph, seed: u64) -> Csr {
    let mut adjncy = Vec::new();
    let mut adjwgt = Vec::new();
    for v in 0..g.nvtxs() {
        let nbrs = g.neighbors(v);
        let shift = if nbrs.is_empty() { 0 } else { v % nbrs.len() };
        for &u in nbrs[shift..].iter().chain(&nbrs[..shift]) {
            let (a, b) = (v.min(u as usize) as u64, v.max(u as usize) as u64);
            adjncy.push(u);
            adjwgt.push(((a * 31 + b * 17 + seed) % 5 + 1) as i64);
        }
    }
    Csr {
        xadj: g.xadj().to_vec(),
        adjncy,
        adjwgt,
        vwgt: g.vwgt_flat().to_vec(),
    }
}

fn insert_entry(g: &mut Csr, v: usize, at: usize, u: Vertex, w: i64) {
    g.adjncy.insert(at, u);
    g.adjwgt.insert(at, w);
    for x in &mut g.xadj[v + 1..] {
        *x += 1;
    }
}

/// Injects one defect of kind `kind` at a random entry.
fn inject(g: &mut Csr, kind: usize, rng: &mut Rng) {
    let i = rng.gen_range(0..g.adjncy.len());
    let v = g.xadj.partition_point(|&x| x <= i) - 1;
    match kind {
        // A duplicate entry, anywhere in the row.
        0 => {
            let at = rng.gen_range(g.xadj[v]..g.xadj[v + 1] + 1);
            insert_entry(g, v, at, g.adjncy[i], g.adjwgt[i]);
        }
        // One direction dropped.
        1 => {
            g.adjncy.remove(i);
            g.adjwgt.remove(i);
            for x in &mut g.xadj[v + 1..] {
                *x -= 1;
            }
        }
        // One direction's weight changed.
        2 => g.adjwgt[i] += rng.gen_range(1..4),
        // A self-loop added to the row.
        _ => {
            let at = rng.gen_range(g.xadj[v]..g.xadj[v + 1] + 1);
            insert_entry(g, v, at, v as Vertex, 1);
        }
    }
}

fn from_csr(g: Csr) -> Result<(), String> {
    Graph::from_csr(1, g.xadj, g.adjncy, g.adjwgt, g.vwgt)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

#[test]
fn validate_matches_the_naive_reference_on_one_defect() {
    let graphs = [("mrng", mrng_like(2_000, 3)), ("grid", grid_2d(40, 30))];
    let mut rng = Rng::seed_from_u64(0x5EED_CAFE);
    for (name, g) in &graphs {
        let clean = scrambled(g, 1);
        assert_eq!(reference(&clean), Ok(()));
        assert_eq!(from_csr(scrambled(g, 1)), Ok(()), "{name}: clean graph");
        for trial in 0..200 {
            let kind = trial % 4;
            let mut bad = scrambled(g, trial as u64);
            inject(&mut bad, kind, &mut rng);
            let expect = reference(&bad);
            assert!(
                expect.is_err(),
                "{name} trial {trial}: defect {kind} not a defect"
            );
            assert_eq!(from_csr(bad), expect, "{name} trial {trial}: defect {kind}");
        }
    }
}
