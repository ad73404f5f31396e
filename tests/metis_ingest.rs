//! METIS ingest pins: the exact outcome `read_metis` gives on ~50 edge-case
//! inputs, so a rewrite of the reader is checked against the behaviour it
//! replaces, error messages included.
//!
//! Each case records either `Ok(digest)` or `Err(message)`. The digest is
//! FNV-1a 64 over the parsed graph's `ncon`, `xadj`, `adjncy`, `adjwgt` and
//! `vwgt` (each array prefixed by its length, every value as eight
//! little-endian bytes), so adjacency order counts. The message is the
//! error's `Display` string. When a change is meant to alter what the
//! reader accepts or reports, re-derive the expectations and say so in the
//! change description.

use mcgp::graph::generators::mrng_like;
use mcgp::graph::io::{read_metis, write_metis};
use mcgp::graph::synthetic;
use mcgp::graph::Graph;

enum Expect {
    Ok(u64),
    Err(&'static str),
}

fn fnv1a64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn digest(g: &Graph) -> u64 {
    let mut words = vec![g.ncon() as u64];
    words.push(g.xadj().len() as u64);
    words.extend(g.xadj().iter().map(|&x| x as u64));
    words.push(g.adjncy().len() as u64);
    words.extend(g.adjncy().iter().map(|&u| u as u64));
    words.push(g.adjwgt().len() as u64);
    words.extend(g.adjwgt().iter().map(|&w| w as u64));
    words.push(g.vwgt_flat().len() as u64);
    words.extend(g.vwgt_flat().iter().map(|&w| w as u64));
    fnv1a64(words)
}

fn outcome(input: &[u8]) -> Result<u64, String> {
    read_metis(input)
        .map(|g| digest(&g))
        .map_err(|e| e.to_string())
}

/// A multi-constraint mesh as `write_metis` renders it.
fn rendered_mesh() -> Vec<u8> {
    let g = synthetic::type1(&mrng_like(300, 5), 3, 5);
    let mut out = Vec::new();
    write_metis(&g, &mut out).unwrap();
    out
}

fn cases() -> Vec<(&'static str, Vec<u8>, Expect)> {
    use Expect::{Err, Ok};
    let b = |s: &str| s.as_bytes().to_vec();
    vec![
        ("plain", b("4 5\n2 3 4\n1 3\n1 2 4\n1 3\n"), Ok(0x53d6_ce5c_194a_9d23)),
        ("crlf", b("4 5\r\n2 3 4\r\n1 3\r\n1 2 4\r\n1 3\r\n"), Ok(0x53d6_ce5c_194a_9d23)),
        ("tabs", b("4\t5\n\t2\t3 4\n1\t\t3\n1 2\t4\t\n1 3\n"), Ok(0x53d6_ce5c_194a_9d23)),
        ("vt and ff", b("4\x0b5\n2\x0c3\x0b4\n\x0c1 3\n1 2 4\x0b\n1\x0c3\n"), Ok(0x53d6_ce5c_194a_9d23)),
        ("lone cr is not a line break", b("2 1\r2\r1\r"), Err("parse error at line 1, token 3: invalid fmt field `2` (want 1-3 binary digits, e.g. 011)")),
        ("nbsp between tokens", b("3 2\n2\u{a0}3\n1\n1\n"), Ok(0x205b_a041_b61d_85c4)),
        ("ideographic space between tokens", b("3 2 001\n2\u{3000}4 3 6\n1\u{3000}4\n1 6\n"), Ok(0x104c_ee50_50c2_b004)),
        ("nel between tokens", b("2 1\n2\u{85}\n1\n"), Ok(0xe482_fd48_d8df_0967)),
        ("nbsp before header comment", b("\u{a0}% about\n2 1\n2\n1\n"), Ok(0xe482_fd48_d8df_0967)),
        ("ideographic space before body comment", b("2 1\n2\n\u{3000}% between\n1\n"), Ok(0xe482_fd48_d8df_0967)),
        ("non-ascii token", b("2 1\n2\u{e9}\n1\n"), Err("parse error at line 2, token 1: invalid neighbor id `2é`")),
        ("leading plus", b("+2 +1 +011\n+5 +2 +9\n+7 +1 +9\n"), Err("parse error at line 1, token 3: invalid fmt field `+011` (want 1-3 binary digits, e.g. 011)")),
        ("leading plus counts and ids", b("+2 +1 011\n+5 +2 +9\n+7 +1 +9\n"), Ok(0xb09a_e359_214c_0da5)),
        ("leading zeros", b("002 001 011\n05 002 09\n07 01 09\n"), Ok(0xb09a_e359_214c_0da5)),
        ("bare plus", b("2 1\n+\n1\n"), Err("parse error at line 2, token 1: invalid neighbor id `+`")),
        ("plus minus", b("2 1 010\n+-5 2\n7 1\n"), Err("parse error at line 2, token 1: invalid weight `+-5`")),
        ("minus zero weight", b("2 1 010\n-0 2\n7 1\n"), Ok(0x3baa_dac8_9479_d0a0)),
        ("minus zero neighbour", b("2 1\n-0\n1\n"), Err("parse error at line 2, token 1: invalid neighbor id `-0`")),
        ("u64 overflow nvtxs", b("18446744073709551616 1\n"), Err("parse error at line 1, token 1: invalid integer `18446744073709551616`")),
        ("u64 max nedges", b("2 18446744073709551615\n2\n1\n"), Err("overflow: edge count = 18446744073709551615 exceeds limit 9223372036854775807")),
        ("u64 overflow neighbour", b("2 1\n18446744073709551618\n1\n"), Err("parse error at line 2, token 1: invalid neighbor id `18446744073709551618`")),
        ("i64 overflow vertex weight", b("2 1 010\n9223372036854775808 2\n7 1\n"), Err("parse error at line 2, token 1: invalid weight `9223372036854775808`")),
        ("i64 min edge weight", b("2 1 001\n2 -9223372036854775808\n1 -9223372036854775808\n"), Err("malformed graph: negative edge weight")),
        ("i64 overflow edge weight", b("2 1 001\n2 -9223372036854775809\n1 5\n"), Err("parse error at line 2, token 2: invalid edge weight `-9223372036854775809`")),
        ("nvtxs beyond u32", b("4294967296 0\n"), Err("overflow: vertex count = 4294967296 exceeds limit 4294967295")),
        (
            "bad utf-8 after an earlier error",
            [&b"2 1\nx\n"[..], b"\xff\xfe\n1\n"].concat(),
            Err("parse error at line 2, token 1: invalid neighbor id `x`"),
        ),
        (
            "bad utf-8 before a later error",
            [&b"2 1\n2 \xff\n"[..], b"x\n"].concat(),
            Err("i/o error: stream did not contain valid UTF-8"),
        ),
        ("bad utf-8 in trailing comment", [&b"2 1\n2\n1\n% \xc3"[..], b"(\n"].concat(), Err("i/o error: stream did not contain valid UTF-8")),
        ("bad utf-8 in header", b"2 \xff1\n2\n1\n".to_vec(), Err("i/o error: stream did not contain valid UTF-8")),
        ("comments before header", b("% one\n%two\n\n  \n2 1\n2\n1\n"), Ok(0xe482_fd48_d8df_0967)),
        ("comment mid-body", b("3 2\n2\n% mid\n1 3\n2\n"), Ok(0xd746_58b5_077e_43e6)),
        ("indented comment", b("3 2\n2\n\t  % mid\n1 3\n2\n"), Ok(0xd746_58b5_077e_43e6)),
        ("percent mid-line", b("2 1\n2 % note\n1\n"), Err("parse error at line 2, token 2: invalid neighbor id `%`")),
        ("blank vertex lines", b("4 1\n\n3\n2\n\n"), Ok(0x429d_6a46_bd5a_5fc7)),
        ("whitespace-only vertex line", b("3 1\n2\n1\n \x0b\t\n"), Ok(0x9530_e597_de64_3882)),
        ("trailing blank lines", b("2 1\n2\n1\n\n\n  \n\t\n"), Ok(0xe482_fd48_d8df_0967)),
        ("trailing comment after last vertex", b("2 1\n2\n1\n% done\n"), Ok(0xe482_fd48_d8df_0967)),
        ("no final newline", b("2 1\n2\n1"), Ok(0xe482_fd48_d8df_0967)),
        ("empty input", b(""), Err("parse error at line 0: empty file")),
        ("comments only", b("% a\n\n% b\n"), Err("parse error at line 0: empty file")),
        ("header with 1 field", b("4\n"), Err("parse error at line 1: header must have 2-4 fields, got 1")),
        ("header with 5 fields", b("4 3 011 2 9\n"), Err("parse error at line 1: header must have 2-4 fields, got 5")),
        ("fmt 1", b("2 1 1\n2 5\n1 5\n"), Ok(0x7f75_a5b9_996d_a0e7)),
        ("fmt 01", b("2 1 01\n2 5\n1 5\n"), Ok(0x7f75_a5b9_996d_a0e7)),
        ("fmt 10", b("2 1 10\n4 2\n6 1\n"), Ok(0x1683_82f9_aa8f_0ac5)),
        ("fmt 0110", b("2 1 0110\n5 2\n7 1\n"), Err("parse error at line 1, token 3: invalid fmt field `0110` (want 1-3 binary digits, e.g. 011)")),
        ("fmt 100", b("1 0 100\n3\n"), Err("parse error at line 1, token 3: vertex sizes (fmt=1xx) are not supported")),
        ("ncon 0", b("2 1 011 0\n5 2 9\n7 1 9\n"), Err("parse error at line 1, token 4: ncon must be >= 1")),
        ("ncon 256", b("2 1 011 256\n5 2 9\n7 1 9\n"), Err("overflow: constraint count = 256 exceeds limit 255")),
        ("ncon 2 without vertex weights", b("2 1 001 2\n2 9\n1 9\n"), Err("parse error at line 1, token 4: ncon 2 > 1 requires vertex weights (fmt tens digit = 1)")),
        ("ncon 1 without vertex weights", b("2 1 001 1\n2 9\n1 9\n"), Ok(0xae9d_ac67_57c1_da67)),
        ("missing vertex weight", b("2 1 011 2\n5\n7 8 1 9\n"), Err("parse error at line 2, token 2: vertex 1: missing weight 2 of 2")),
        ("missing edge weight", b("2 1 001\n2\n1 4\n"), Err("parse error at line 2, token 1: neighbor 2: missing edge weight")),
        ("negative vertex weight", b("2 1 010\n-5 2\n7 1\n"), Err("parse error at line 2, token 1: negative vertex weight -5")),
        ("negative edge weight", b("2 1 001\n2 -4\n1 -4\n"), Err("malformed graph: negative edge weight")),
        ("duplicate edge", b("3 2\n2 2\n1 1\n\n"), Err("malformed graph: duplicate edge (0, 1)")),
        ("duplicate beats earlier asymmetry", b("4 3\n2\n\n4 4 1\n3 3\n"), Err("malformed graph: duplicate edge (2, 3)")),
        ("unequal reverse weights", b("2 1 001\n2 5\n1 7\n"), Err("graph is not undirected: edge (0,1) weight 5 != reverse weight 7")),
        ("missing reverse edge", b("3 2\n2 3\n1 3\n\n"), Err("graph is not undirected: edge (0,2) has no reverse edge")),
        ("self-loop", b("2 2\n1 2\n1 2\n"), Err("graph is not undirected: self-loop at vertex 0")),
        ("neighbour id 0", b("2 1\n0\n1\n"), Err("parse error at line 2, token 1: neighbor id 0 out of range 1..=2")),
        ("neighbour id n+1", b("2 1\n3\n1\n"), Err("parse error at line 2, token 1: neighbor id 3 out of range 1..=2")),
        ("too many vertex lines", b("2 1\n2\n1\n1\n"), Err("parse error at line 4: more than 2 vertex lines")),
        ("too few vertex lines", b("3 2\n2\n1 3\n"), Err("parse error at line 1: expected 3 vertex lines, found 2")),
        ("edge-count mismatch", b("3 5\n2\n1 3\n2\n"), Err("parse error at line 1: header declares 5 edges but adjacency lists contain 4 entries (expected 10)")),
        ("empty graph", b("0 0\n\n"), Ok(0xf63f_f289_3b83_f8c5)),
        ("rendered mesh", rendered_mesh(), Ok(0xf4e8_9e26_abd2_fb64)),
        (
            "rendered mesh with crlf",
            String::from_utf8(rendered_mesh()).unwrap().replace('\n', "\r\n").into_bytes(),
            Ok(0xf4e8_9e26_abd2_fb64),
        ),
    ]
}

#[test]
fn metis_reader_outcomes_are_pinned() {
    let mut mismatches = Vec::new();
    let all = cases();
    for (name, input, expect) in &all {
        let got = outcome(input);
        let same = match (expect, &got) {
            (Expect::Ok(d), Ok(g)) => d == g,
            (Expect::Err(m), Err(g)) => m == g,
            _ => false,
        };
        if !same {
            let got = match got {
                Ok(d) => format!("Ok({d:#018x})"),
                Err(m) => format!("Err({m:?})"),
            };
            mismatches.push(format!("{name}: got {got}"));
        }
    }
    assert!(all.len() >= 40);
    assert!(
        mismatches.is_empty(),
        "{} mismatch(es):\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
