//! Deterministic structure-aware fuzzing of the input layer.
//!
//! Rather than flipping random bytes, the fuzzer *knows the grammars*: it
//! writes a well-formed METIS graph (or partition) file, then applies one of
//! a fixed catalogue of grammar-level corruptions — truncate a vertex line,
//! break edge symmetry, drop a weight token, inflate a neighbour id past
//! `nvtxs`, scramble the header — and asserts the reader either returns a
//! typed [`McgpError`] or (for corruptions the format genuinely tolerates,
//! like deleting a trailing comment) a valid graph. The JSON-CSR decoder the
//! daemon accepts gets the same treatment with corruptions of its own:
//! adjacency entries dropped or duplicated, unequal reverse weights,
//! out-of-range ids, non-monotone `xadj`, negative weights, truncated text,
//! fields of the wrong type, `ncon > 1` without `vwgt`. What a decoder must
//! **never** do is panic: every case runs under `catch_unwind`.
//!
//! Everything is keyed off a single `u64` seed, so a failing case prints a
//! reproduction seed and `mcgp fuzz --seed N --cases 1` replays it exactly
//! (the seed's parity picks the METIS or the JSON grammar).

use std::panic::{self, AssertUnwindSafe};

use mcgp_graph::generators::mrng_like;
use mcgp_graph::io::{graph_from_json, read_metis, read_partition_bounded, write_metis};
use mcgp_graph::{synthetic, Graph, Result};
use mcgp_runtime::rng::Rng;

/// The grammar-level corruptions the fuzzer draws from.
const MUTATIONS: &[&str] = &[
    "control(no corruption)",
    "truncate file mid-line",
    "delete one line",
    "duplicate one line",
    "drop one token",
    "duplicate one token",
    "replace token with junk",
    "negate one token",
    "inflate neighbour id",
    "zero one token",
    "scramble header",
    "append garbage line",
    "insert blank vertex line",
    "flip fmt digit",
];

/// Outcome of one fuzz case.
#[derive(Clone, Debug)]
pub struct FuzzCase {
    pub seed: u64,
    pub mutation: &'static str,
    /// `Ok`: reader accepted the (possibly still-valid) input.
    /// `Err`: reader returned a typed error. Both are fine.
    pub accepted: bool,
    /// A panic escaped the reader — always a bug.
    pub panicked: bool,
    pub detail: String,
}

/// Summary of a fuzz run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    pub cases: usize,
    pub accepted: usize,
    pub rejected: usize,
    pub panics: Vec<FuzzCase>,
}

mcgp_runtime::impl_to_json!(FuzzReport {
    cases,
    accepted,
    rejected
});

impl FuzzReport {
    /// True when no case escaped as a panic.
    pub fn clean(&self) -> bool {
        self.panics.is_empty()
    }
}

/// A small mesh with 1-3 constraints, the base of every graph case.
fn random_graph(rng: &mut Rng) -> Graph {
    let nvtxs = rng.gen_range(8usize..48);
    let base = mrng_like(nvtxs, rng.next_u64());
    let ncon = *rng.choose(&[1usize, 2, 3]).unwrap();
    if ncon == 1 {
        base
    } else {
        synthetic::type1(&base, ncon, rng.next_u64())
    }
}

fn render_graph(rng: &mut Rng) -> String {
    let graph = random_graph(rng);
    let mut out = Vec::new();
    write_metis(&graph, &mut out).expect("in-memory write");
    String::from_utf8(out).expect("METIS text is ASCII")
}

/// Applies the mutation at `idx` (an index into [`MUTATIONS`]) to `text`.
fn mutate(text: &str, idx: usize, rng: &mut Rng) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let pick_line = |rng: &mut Rng| rng.gen_range(0usize..lines.len().max(1));
    match MUTATIONS[idx] {
        "control(no corruption)" => text.to_string(),
        "truncate file mid-line" => {
            let cut = rng.gen_range(0usize..text.len().max(1));
            text[..cut].to_string()
        }
        "delete one line" => {
            let victim = pick_line(rng);
            lines
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != victim)
                .map(|(_, l)| *l)
                .collect::<Vec<_>>()
                .join("\n")
        }
        "duplicate one line" => {
            let victim = pick_line(rng);
            let mut out: Vec<&str> = lines.clone();
            if let Some(&l) = lines.get(victim) {
                out.insert(victim, l);
            }
            out.join("\n")
        }
        "append garbage line" => format!("{text}\n%%%\n$!? 12 bogus\n"),
        "insert blank vertex line" => {
            let mut out: Vec<&str> = lines.clone();
            let at = rng.gen_range(1usize..out.len().max(2).min(out.len() + 1));
            out.insert(at.min(out.len()), "");
            out.join("\n")
        }
        "scramble header" => {
            let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            if let Some(h) = out.first_mut() {
                let mut toks: Vec<&str> = h.split_whitespace().collect();
                rng.shuffle(&mut toks);
                *h = toks.join(" ");
            }
            out.join("\n")
        }
        "flip fmt digit" => {
            let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            if let Some(h) = out.first_mut() {
                let mut toks: Vec<String> =
                    h.split_whitespace().map(|t| t.to_string()).collect();
                if toks.len() >= 3 {
                    let digit = rng.gen_range(0usize..3);
                    let mut fmt: Vec<u8> = format!("{:0>3}", toks[2]).into_bytes();
                    fmt[digit] = if fmt[digit] == b'0' { b'1' } else { b'0' };
                    toks[2] = String::from_utf8(fmt).unwrap();
                } else {
                    toks.push("101".to_string());
                }
                *h = toks.join(" ");
            }
            out.join("\n")
        }
        token_mutation => {
            // Token-level corruptions: pick a non-comment line, then a token.
            let victim = pick_line(rng);
            let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            if let Some(line) = out.get_mut(victim) {
                let mut toks: Vec<String> =
                    line.split_whitespace().map(|t| t.to_string()).collect();
                if toks.is_empty() {
                    toks.push("7".to_string());
                }
                let t = rng.gen_range(0usize..toks.len());
                match token_mutation {
                    "drop one token" => {
                        toks.remove(t);
                    }
                    "duplicate one token" => {
                        let tok = toks[t].clone();
                        toks.insert(t, tok);
                    }
                    "replace token with junk" => {
                        toks[t] = (*rng
                            .choose(&["x", "1e9", "0x10", "∞", "--3", "+ 4"])
                            .unwrap())
                        .to_string();
                    }
                    "negate one token" => toks[t] = format!("-{}", toks[t]),
                    "inflate neighbour id" => {
                        toks[t] = format!("{}", 1_000_000_007u64 + rng.gen_range(0u64..1000));
                    }
                    "zero one token" => toks[t] = "0".to_string(),
                    other => unreachable!("unknown mutation {other}"),
                }
                *line = toks.join(" ");
            }
            out.join("\n")
        }
    }
}

/// Runs one decoder call under `catch_unwind` and records its outcome.
fn run_case<T>(seed: u64, mutation: &'static str, decode: impl FnOnce() -> Result<T>) -> FuzzCase {
    let (accepted, panicked, detail) = match panic::catch_unwind(AssertUnwindSafe(decode)) {
        Ok(Ok(_)) => (true, false, String::new()),
        Ok(Err(e)) => (false, false, e.to_string()),
        Err(payload) => (false, true, panic_message(payload)),
    };
    FuzzCase {
        seed,
        mutation,
        accepted,
        panicked,
        detail,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One deterministic fuzz case against `read_metis`. The same seed always
/// produces the same base graph, mutation, and corrupted text.
pub fn fuzz_graph_case(seed: u64) -> FuzzCase {
    let mut rng = Rng::seed_from_u64(seed ^ 0x6755_22D1_F00D_CAFE);
    let text = render_graph(&mut rng);
    let idx = rng.gen_range(0usize..MUTATIONS.len());
    let mutated = mutate(&text, idx, &mut rng);
    let case = run_case(seed, MUTATIONS[idx], || read_metis(mutated.as_bytes()));
    if MUTATIONS[idx] == "control(no corruption)" {
        // The uncorrupted render must round-trip.
        debug_assert!(case.accepted || case.panicked, "control case rejected: {}", case.detail);
    }
    case
}

/// One deterministic fuzz case against `read_partition_bounded`.
pub fn fuzz_partition_case(seed: u64) -> FuzzCase {
    let mut rng = Rng::seed_from_u64(seed ^ 0x9A27_11FE_BEEF_5EED);
    let n = rng.gen_range(1usize..40);
    let k = rng.gen_range(1usize..9);
    let text: String = (0..n)
        .map(|_| format!("{}\n", rng.gen_range(0usize..k)))
        .collect();
    let idx = rng.gen_range(0usize..MUTATIONS.len());
    let mutation = MUTATIONS[idx];
    let mutated = mutate(&text, idx, &mut rng);
    run_case(seed, mutation, || read_partition_bounded(mutated.as_bytes(), k))
}

/// The JSON-CSR corruptions the fuzzer draws from.
const JSON_MUTATIONS: &[&str] = &[
    "json: control(no corruption)",
    "json: drop one adjncy entry",
    "json: duplicate one adjncy entry",
    "json: unequal reverse weight",
    "json: out-of-range neighbour id",
    "json: non-monotone xadj",
    "json: negative weight",
    "json: truncate text",
    "json: wrong field type",
    "json: ncon > 1 without vwgt",
];

/// A JSON-CSR body as arrays, so corruptions can keep `xadj` consistent
/// with the adjacency they edit and reach the symmetry check.
struct JsonCsr {
    ncon: usize,
    xadj: Vec<i64>,
    adjncy: Vec<i64>,
    adjwgt: Option<Vec<i64>>,
    vwgt: Option<Vec<i64>>,
}

impl JsonCsr {
    fn from_graph(g: &Graph, rng: &mut Rng) -> Self {
        JsonCsr {
            ncon: g.ncon(),
            xadj: g.xadj().iter().map(|&x| x as i64).collect(),
            adjncy: g.adjncy().iter().map(|&u| u as i64).collect(),
            adjwgt: rng.gen_bool(0.5).then(|| g.adjwgt().to_vec()),
            // Unit default weights are one constraint only.
            vwgt: (g.ncon() > 1 || rng.gen_bool(0.5)).then(|| g.vwgt_flat().to_vec()),
        }
    }

    /// `(key, value text)` per present field.
    fn fields(&self) -> Vec<(&'static str, String)> {
        let arr = |xs: &[i64]| format!("{xs:?}");
        let mut out = vec![
            ("ncon", self.ncon.to_string()),
            ("xadj", arr(&self.xadj)),
            ("adjncy", arr(&self.adjncy)),
        ];
        if let Some(w) = &self.adjwgt {
            out.push(("adjwgt", arr(w)));
        }
        if let Some(w) = &self.vwgt {
            out.push(("vwgt", arr(w)));
        }
        out
    }

    fn render(fields: &[(&str, String)]) -> String {
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The vertex whose row holds adjacency entry `i`.
    fn row_of(&self, i: usize) -> usize {
        self.xadj.partition_point(|&x| x <= i as i64) - 1
    }

    /// Inserts (`delta = 1`) or removes (`-1`) entry `i`, shifting `xadj`.
    fn resize_row(&mut self, i: usize, delta: i64) {
        let v = self.row_of(i);
        if delta > 0 {
            self.adjncy.insert(i, self.adjncy[i]);
            if let Some(w) = &mut self.adjwgt {
                w.insert(i, w[i]);
            }
        } else {
            self.adjncy.remove(i);
            if let Some(w) = &mut self.adjwgt {
                w.remove(i);
            }
        }
        for x in &mut self.xadj[v + 1..] {
            *x += delta;
        }
    }
}

/// Applies the JSON mutation at `idx` and renders the body.
fn mutate_json(mut csr: JsonCsr, idx: usize, rng: &mut Rng) -> String {
    let nvtxs = csr.xadj.len() as i64 - 1;
    let entry = (!csr.adjncy.is_empty()).then(|| rng.gen_range(0usize..csr.adjncy.len()));
    match (JSON_MUTATIONS[idx], entry) {
        ("json: drop one adjncy entry", Some(i)) => csr.resize_row(i, -1),
        ("json: duplicate one adjncy entry", Some(i)) => csr.resize_row(i, 1),
        ("json: unequal reverse weight", Some(i)) => {
            let w = csr.adjwgt.get_or_insert_with(|| vec![1; csr.adjncy.len()]);
            w[i] += rng.gen_range(1i64..4);
        }
        ("json: out-of-range neighbour id", Some(i)) => {
            csr.adjncy[i] = *rng
                .choose(&[nvtxs, nvtxs + 7, -1, u32::MAX as i64 + 1, i64::MAX])
                .unwrap();
        }
        ("json: non-monotone xadj", _) if nvtxs >= 2 => {
            let v = rng.gen_range(1usize..nvtxs as usize);
            csr.xadj[v] = csr.xadj[v + 1] + 1;
        }
        ("json: negative weight", _) => {
            let target = match (&mut csr.adjwgt, &mut csr.vwgt) {
                (Some(w), _) if rng.gen_bool(0.5) && !w.is_empty() => w,
                (_, Some(w)) if !w.is_empty() => w,
                _ => return JsonCsr::render(&csr.fields()),
            };
            let at = rng.gen_range(0usize..target.len());
            target[at] = -rng.gen_range(1i64..5);
        }
        ("json: truncate text", _) => {
            let text = JsonCsr::render(&csr.fields());
            let cut = rng.gen_range(0usize..text.len());
            return text[..cut].to_string();
        }
        ("json: wrong field type", _) => {
            let mut fields = csr.fields();
            let at = rng.gen_range(0usize..fields.len());
            fields[at].1 = rng
                .choose(&["\"7\"", "1.5", "{}", "null", "true", "[[1]]", "[1, \"x\"]"])
                .unwrap()
                .to_string();
            return JsonCsr::render(&fields);
        }
        ("json: ncon > 1 without vwgt", _) => {
            csr.ncon = rng.gen_range(2usize..256);
            csr.vwgt = None;
        }
        _ => {} // control, or a mutation the graph is too small for
    }
    JsonCsr::render(&csr.fields())
}

/// One deterministic fuzz case against `graph_from_json`.
pub fn fuzz_json_case(seed: u64) -> FuzzCase {
    let mut rng = Rng::seed_from_u64(seed ^ 0x1501_C5A0_D15C_0DE5);
    let graph = random_graph(&mut rng);
    let csr = JsonCsr::from_graph(&graph, &mut rng);
    let idx = rng.gen_range(0usize..JSON_MUTATIONS.len());
    let text = mutate_json(csr, idx, &mut rng);
    let case = run_case(seed, JSON_MUTATIONS[idx], || graph_from_json(&text));
    if idx == 0 {
        debug_assert!(case.accepted || case.panicked, "control case rejected: {}", case.detail);
    }
    case
}

/// Runs `cases` graph cases and `cases` partition-reader cases derived
/// from `seed`, collecting any escaped panics. A graph case seed's parity
/// picks its grammar: even seeds fuzz the METIS reader, odd seeds the
/// JSON-CSR decoder.
pub fn fuzz_run(seed: u64, cases: usize) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..cases {
        let case_seed = seed.wrapping_add(i as u64);
        let graph_case = if case_seed.is_multiple_of(2) {
            fuzz_graph_case(case_seed)
        } else {
            fuzz_json_case(case_seed)
        };
        for case in [graph_case, fuzz_partition_case(case_seed)] {
            report.cases += 1;
            if case.panicked {
                report.panics.push(case);
            } else if case.accepted {
                report.accepted += 1;
            } else {
                report.rejected += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_is_deterministic() {
        let a = fuzz_graph_case(42);
        let b = fuzz_graph_case(42);
        assert_eq!(a.mutation, b.mutation);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.detail, b.detail);
    }

    #[test]
    fn json_mutations_reach_every_rejection() {
        // Over a modest budget every JSON corruption except the control
        // must occur and be rejected at least once, and the control must
        // always be accepted.
        let mut rejected = vec![0usize; JSON_MUTATIONS.len()];
        for seed in 0..400u64 {
            let case = fuzz_json_case(seed);
            assert!(!case.panicked, "seed {seed}: {}", case.detail);
            let idx = JSON_MUTATIONS.iter().position(|&m| m == case.mutation).unwrap();
            if idx == 0 {
                assert!(case.accepted, "seed {seed}: control rejected: {}", case.detail);
            } else if !case.accepted {
                rejected[idx] += 1;
            }
        }
        for (m, n) in JSON_MUTATIONS.iter().zip(&rejected).skip(1) {
            assert!(*n > 0, "`{m}` never rejected");
        }
    }

    #[test]
    fn readers_never_panic_over_seed_budget() {
        let report = fuzz_run(0xF0CC, 300);
        assert!(
            report.clean(),
            "reader panicked on {} case(s); first: seed={} mutation={} -- {}",
            report.panics.len(),
            report.panics[0].seed,
            report.panics[0].mutation,
            report.panics[0].detail,
        );
        assert_eq!(report.cases, 600);
        // The corruption catalogue must actually bite: a healthy run
        // rejects a substantial share of inputs.
        assert!(report.rejected > report.cases / 10, "corpus too tame: {report:?}");
    }
}
