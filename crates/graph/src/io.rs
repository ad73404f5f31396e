//! METIS/Chaco graph-file format I/O, including the multi-constraint
//! extension (`fmt`/`ncon` header fields), so workloads can be exchanged
//! with METIS, ParMETIS, Scotch, and KaHIP.
//!
//! Format recap — header line `nvtxs nedges [fmt [ncon]]` where `fmt` is a
//! three-digit flag string: hundreds = vertex sizes (unsupported here,
//! rejected), tens = vertex weights present, ones = edge weights present.
//! Each subsequent non-comment line lists one vertex: its `ncon` weights (if
//! any) followed by `neighbor [edge-weight]` pairs with **1-based** vertex
//! ids. `%`-prefixed lines are comments.
//!
//! [`parse_metis`] parses a byte slice in place; [`read_metis`] reads its
//! whole input into memory and then calls it.
//!
//! The reader is hardened against untrusted input: every malformed construct
//! produces a typed [`McgpError::Parse`] with line (and token) context,
//! quantities that would not fit the `u32` adjacency index width produce
//! [`McgpError::Overflow`], and declared sizes never drive unbounded
//! allocations.

use crate::csr::{Graph, Vertex};
use crate::{McgpError, Result};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Upper bound on the number of balance constraints a file may declare.
/// METIS itself is compiled with a small fixed cap; the paper never exceeds
/// 5. This guards the `nvtxs * ncon` weight-array allocation.
pub const MAX_NCON: usize = 255;

/// Cap on speculative `Vec::with_capacity` reservations driven by header
/// fields, so a malicious header cannot trigger a huge up-front allocation;
/// the vectors still grow on demand while parsing real data.
const MAX_PREALLOC: usize = 1 << 22;

/// Reads a METIS-format graph from any reader: the whole input is read into
/// memory, then parsed by [`parse_metis`].
pub fn read_metis<R: Read>(mut reader: R) -> Result<Graph> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    parse_metis(&bytes)
}

/// Parses a METIS-format graph from its bytes, in one pass and without a
/// per-line allocation.
///
/// Lines end at `\n`; tokens are separated by the whitespace set of
/// [`str::split_whitespace`], so `\r`, tabs, `\x0B`, `\x0C` and Unicode
/// spaces such as U+00A0 all separate tokens. ASCII lines are split and
/// their integers parsed straight from the bytes; other lines are split
/// through `str`. Integers follow [`str::parse`]: an optional leading `+`
/// (or `-` for weights), leading zeros allowed, overflow rejected. A line
/// that is not UTF-8 fails when it is reached, after any error in the lines
/// before it.
pub fn parse_metis(bytes: &[u8]) -> Result<Graph> {
    // Parse the longest prefix of whole UTF-8 lines; if that is not the
    // whole input, reaching its end is the error.
    let (text, truncated) = match std::str::from_utf8(bytes) {
        Ok(text) => (text, false),
        Err(e) => {
            let valid = &bytes[..e.valid_up_to()];
            let end = valid.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            (utf8(&bytes[..end])?, true)
        }
    };
    let at_end = || {
        if truncated {
            Err(invalid_utf8())
        } else {
            Ok(())
        }
    };
    let mut lines = text
        .strip_suffix('\n')
        .unwrap_or(text)
        .split('\n')
        .enumerate()
        .map(|(i, line)| (i + 1, line));

    // Header.
    let (header_line_no, header) = loop {
        match lines.next() {
            Some((no, line)) => {
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('%') {
                    continue;
                }
                break (no, trimmed);
            }
            None => {
                at_end()?;
                return Err(McgpError::parse(0, "empty file"));
            }
        }
    };
    let h = Header::parse(header_line_no, header)?;
    let (xadj, adjncy, adjwgt, vwgt) = read_vertices(&h, lines)?;
    at_end()?;
    // Both mismatches are violations of what the header (not any one body
    // line) declared, so point the diagnostic there.
    let (nvtxs, nedges, declared_adj) = (h.nvtxs, h.nedges, h.declared_adj);
    let vertex = xadj.len() - 1;
    if vertex != nvtxs {
        return Err(McgpError::parse(
            h.line,
            format!("expected {nvtxs} vertex lines, found {vertex}"),
        ));
    }
    if adjncy.len() != declared_adj {
        return Err(McgpError::parse(
            h.line,
            format!(
                "header declares {nedges} edges but adjacency lists contain {} entries (expected {declared_adj})",
                adjncy.len(),
            ),
        ));
    }
    Graph::from_csr(h.ncon, xadj, adjncy, adjwgt, vwgt)
}

/// What a METIS header declares.
struct Header {
    line: usize,
    nvtxs: usize,
    nedges: usize,
    /// `2 * nedges`: the adjacency entries the vertex lines must hold.
    declared_adj: usize,
    ncon: usize,
    /// `nvtxs * ncon`.
    vwgt_len: usize,
    has_vwgt: bool,
    has_ewgt: bool,
}

impl Header {
    /// Parses the header fields found on line `header_line_no`.
    fn parse(header_line_no: usize, header: &str) -> Result<Header> {
        let fields: Vec<&str> = header.split_whitespace().collect();
        if fields.len() < 2 || fields.len() > 4 {
            return Err(McgpError::parse(
                header_line_no,
                format!("header must have 2-4 fields, got {}", fields.len()),
            ));
        }
        let field = |s: &str, line: usize, col: usize| -> Result<usize> {
            s.parse().map_err(|_| McgpError::Parse {
                line,
                col,
                msg: format!("invalid integer `{s}`"),
            })
        };
        let nvtxs = field(fields[0], header_line_no, 1)?;
        let nedges = field(fields[1], header_line_no, 2)?;
        // Adjacency indices are u32: a vertex count beyond that width cannot be
        // represented, and `2 * nedges` must not overflow usize either.
        if nvtxs > Vertex::MAX as usize {
            return Err(McgpError::Overflow {
                what: "vertex count",
                value: nvtxs as u128,
                limit: Vertex::MAX as u128,
            });
        }
        let declared_adj = nedges.checked_mul(2).ok_or(McgpError::Overflow {
            what: "edge count",
            value: nedges as u128,
            limit: (usize::MAX / 2) as u128,
        })?;
        // The `fmt` flag string: 1-3 binary digits (hundreds = vertex sizes,
        // tens = vertex weights, ones = edge weights). Anything else — including
        // digits other than 0/1, which older readers silently coerced — is a
        // parse error, never a silent "no weights" default.
        let fmt = if fields.len() >= 3 { fields[2] } else { "000" };
        if fmt.is_empty() || fmt.len() > 3 || fmt.chars().any(|c| c != '0' && c != '1') {
            return Err(McgpError::Parse {
                line: header_line_no,
                col: 3,
                msg: format!("invalid fmt field `{fmt}` (want 1-3 binary digits, e.g. 011)"),
            });
        }
        let padded = format!("{fmt:0>3}");
        let mut flags = padded.bytes().map(|b| b == b'1');
        let (has_vsize, has_vwgt, has_ewgt) = (
            flags.next().unwrap(),
            flags.next().unwrap(),
            flags.next().unwrap(),
        );
        if has_vsize {
            return Err(McgpError::Parse {
                line: header_line_no,
                col: 3,
                msg: "vertex sizes (fmt=1xx) are not supported".into(),
            });
        }
        let ncon = if fields.len() == 4 {
            let n = field(fields[3], header_line_no, 4)?;
            if n == 0 {
                return Err(McgpError::Parse {
                    line: header_line_no,
                    col: 4,
                    msg: "ncon must be >= 1".into(),
                });
            }
            if n > MAX_NCON {
                return Err(McgpError::Overflow {
                    what: "constraint count",
                    value: n as u128,
                    limit: MAX_NCON as u128,
                });
            }
            if !has_vwgt && n > 1 {
                return Err(McgpError::Parse {
                    line: header_line_no,
                    col: 4,
                    msg: format!("ncon {n} > 1 requires vertex weights (fmt tens digit = 1)"),
                });
            }
            n
        } else {
            1 // with or without vertex weights: a single constraint
        };
        // nvtxs <= u32::MAX and ncon <= 255, so this cannot overflow usize, but
        // keep the checked form as the single place the product is formed.
        let vwgt_len = nvtxs.checked_mul(ncon).ok_or(McgpError::Overflow {
            what: "nvtxs * ncon",
            value: nvtxs as u128 * ncon as u128,
            limit: usize::MAX as u128,
        })?;
        Ok(Header {
            line: header_line_no,
            nvtxs,
            nedges,
            declared_adj,
            ncon,
            vwgt_len,
            has_vwgt,
            has_ewgt,
        })
    }
}

/// CSR arrays as [`Graph::from_csr`] takes them: `(xadj, adjncy, adjwgt, vwgt)`.
type CsrArrays = (Vec<usize>, Vec<Vertex>, Vec<i64>, Vec<i64>);

/// Reads the vertex lines into CSR arrays. A loop of its own: inlined into
/// [`parse_metis`], it ran markedly slower.
#[inline(never)]
fn read_vertices<'a>(
    h: &Header,
    lines: impl Iterator<Item = (usize, &'a str)>,
) -> Result<CsrArrays> {
    let Header {
        nvtxs,
        declared_adj,
        ncon,
        vwgt_len,
        has_vwgt,
        has_ewgt,
        ..
    } = *h;
    let mut xadj = Vec::with_capacity((nvtxs + 1).min(MAX_PREALLOC));
    xadj.push(0usize);
    let mut adjncy: Vec<Vertex> = Vec::with_capacity(declared_adj.min(MAX_PREALLOC));
    let mut adjwgt: Vec<i64> = Vec::with_capacity(declared_adj.min(MAX_PREALLOC));
    let mut vwgt: Vec<i64> = Vec::with_capacity(vwgt_len.min(MAX_PREALLOC));

    let mut vertex = 0usize;
    for (no, line) in lines {
        let tokens = Tokens::new(line);
        if tokens.peek() == Some(b'%') {
            continue;
        }
        if vertex >= nvtxs {
            if tokens.peek().is_none() {
                continue;
            }
            return Err(McgpError::parse(
                no,
                format!("more than {nvtxs} vertex lines"),
            ));
        }
        let mut tokens = tokens.enumerate();
        if has_vwgt {
            for c in 0..ncon {
                // A missing weight points at the token that should be there.
                let Some((col, tok)) = tokens.next() else {
                    let msg = format!("vertex {}: missing weight {} of {ncon}", vertex + 1, c + 1);
                    return Err(token_error(no, c, msg));
                };
                let Some(w) = tok.as_i64() else {
                    let msg = format!("invalid weight `{}`", tok.show());
                    return Err(token_error(no, col, msg));
                };
                if w < 0 {
                    return Err(token_error(no, col, format!("negative vertex weight {w}")));
                }
                vwgt.push(w);
            }
        } else {
            vwgt.extend(std::iter::repeat_n(1, ncon));
        }
        while let Some((col, tok)) = tokens.next() {
            let Some(u) = tok.as_usize() else {
                let msg = format!("invalid neighbor id `{}`", tok.show());
                return Err(token_error(no, col, msg));
            };
            if u == 0 || u > nvtxs {
                let msg = format!("neighbor id {u} out of range 1..={nvtxs}");
                return Err(token_error(no, col, msg));
            }
            let w = if has_ewgt {
                let Some((wcol, tok)) = tokens.next() else {
                    let msg = format!("neighbor {u}: missing edge weight");
                    return Err(token_error(no, col, msg));
                };
                let Some(w) = tok.as_i64() else {
                    let msg = format!("invalid edge weight `{}`", tok.show());
                    return Err(token_error(no, wcol, msg));
                };
                w
            } else {
                1i64
            };
            // u <= nvtxs <= u32::MAX, so the narrowing below is exact.
            adjncy.push((u - 1) as Vertex);
            adjwgt.push(w);
        }
        xadj.push(adjncy.len());
        vertex += 1;
    }
    Ok((xadj, adjncy, adjwgt, vwgt))
}

/// A parse error at the token with 0-based index `index` on line `line`.
#[cold]
fn token_error(line: usize, index: usize, msg: String) -> McgpError {
    McgpError::Parse {
        line,
        col: index + 1,
        msg,
    }
}

/// The error [`BufRead::lines`] gives for a line that is not UTF-8.
fn invalid_utf8() -> McgpError {
    McgpError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    ))
}

fn utf8(bytes: &[u8]) -> Result<&str> {
    std::str::from_utf8(bytes).map_err(|_| invalid_utf8())
}

/// The whitespace class of [`char::is_whitespace`] restricted to ASCII:
/// space, `\t`, `\n`, `\x0B`, `\x0C` and `\r` (unlike
/// [`u8::is_ascii_whitespace`], which leaves out `\x0B`).
#[inline]
fn is_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

#[inline]
fn skip_space(bytes: &[u8]) -> &[u8] {
    let start = bytes
        .iter()
        .position(|&b| !is_space(b))
        .unwrap_or(bytes.len());
    &bytes[start..]
}

/// The tokens of one line, split as [`str::split_whitespace`] splits.
/// The remainder always starts at a token or is empty.
enum Tokens<'a> {
    Ascii(&'a [u8]),
    Text(&'a str),
}

impl<'a> Tokens<'a> {
    #[inline]
    fn new(line: &'a str) -> Self {
        if line.is_ascii() {
            Tokens::Ascii(skip_space(line.as_bytes()))
        } else {
            Tokens::Text(line.trim_start())
        }
    }

    /// First byte of the next token, if any.
    fn peek(&self) -> Option<u8> {
        match self {
            Tokens::Ascii(rest) => rest.first().copied(),
            Tokens::Text(rest) => rest.as_bytes().first().copied(),
        }
    }
}

/// One token. ASCII lines scan each token once: a plain run of at most 18
/// digits, which fits every integer type the reader uses, comes with its
/// value.
struct Token<'a> {
    bytes: &'a [u8],
    digits: Option<u64>,
}

impl Token<'_> {
    #[inline]
    fn as_usize(&self) -> Option<usize> {
        match self.digits {
            Some(v) => usize::try_from(v).ok(),
            None => parse_usize(self.bytes),
        }
    }

    #[inline]
    fn as_i64(&self) -> Option<i64> {
        match self.digits {
            Some(v) => Some(v as i64),
            None => parse_i64(self.bytes),
        }
    }

    /// The token for an error message (tokens come from `str`).
    fn show(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(self.bytes)
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = Token<'a>;

    #[inline]
    fn next(&mut self) -> Option<Token<'a>> {
        match self {
            Tokens::Ascii(rest) => {
                if rest.is_empty() {
                    return None;
                }
                let (mut end, mut value, mut plain) = (0, 0u64, true);
                while end < rest.len() && !is_space(rest[end]) {
                    let d = rest[end].wrapping_sub(b'0');
                    plain &= d <= 9;
                    value = value.wrapping_mul(10).wrapping_add(d as u64);
                    end += 1;
                }
                let (bytes, tail) = rest.split_at(end);
                *rest = skip_space(tail);
                let digits = (plain && end <= 18).then_some(value);
                Some(Token { bytes, digits })
            }
            Tokens::Text(rest) => next_text_token(rest),
        }
    }
}

/// The non-ASCII case of [`Tokens::next`], kept out of the ASCII loop.
#[inline(never)]
fn next_text_token<'a>(rest: &mut &'a str) -> Option<Token<'a>> {
    if rest.is_empty() {
        return None;
    }
    let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
    let (tok, tail) = rest.split_at(end);
    *rest = tail.trim_start();
    Some(Token {
        bytes: tok.as_bytes(),
        digits: None,
    })
}

/// Parses decimal digits the way `str::parse::<usize>` does.
fn parse_usize(tok: &[u8]) -> Option<usize> {
    let digits = tok.strip_prefix(b"+").unwrap_or(tok);
    if digits.is_empty() {
        return None;
    }
    let mut v: usize = 0;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(d as usize)?;
    }
    Some(v)
}

/// Parses a signed decimal the way `str::parse::<i64>` does.
fn parse_i64(tok: &[u8]) -> Option<i64> {
    let (negative, digits) = match tok.split_first() {
        Some((b'-', digits)) => (true, digits),
        Some((b'+', digits)) => (false, digits),
        _ => (false, tok),
    };
    if digits.is_empty() {
        return None;
    }
    let mut v: i64 = 0;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v.checked_mul(10)?;
        v = if negative {
            v.checked_sub(d as i64)?
        } else {
            v.checked_add(d as i64)?
        };
    }
    Some(v)
}

/// Reads a METIS-format graph from a file.
pub fn read_metis_file<P: AsRef<Path>>(path: P) -> Result<Graph> {
    read_metis(std::fs::File::open(path)?)
}

/// Writes a graph in METIS format. Vertex and edge weights are always
/// emitted (`fmt = 011`), with `ncon` in the header when it exceeds 1.
pub fn write_metis<W: Write>(graph: &Graph, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    if graph.ncon() > 1 {
        writeln!(
            w,
            "{} {} 011 {}",
            graph.nvtxs(),
            graph.nedges(),
            graph.ncon()
        )?;
    } else {
        writeln!(w, "{} {} 011", graph.nvtxs(), graph.nedges())?;
    }
    let mut line = String::new();
    for v in 0..graph.nvtxs() {
        line.clear();
        for &wt in graph.vwgt(v) {
            line.push_str(&wt.to_string());
            line.push(' ');
        }
        for (u, ew) in graph.edges(v) {
            line.push_str(&(u + 1).to_string());
            line.push(' ');
            line.push_str(&ew.to_string());
            line.push(' ');
        }
        writeln!(w, "{}", line.trim_end())?;
    }
    w.flush()?;
    Ok(())
}

/// Writes a graph to a METIS-format file.
pub fn write_metis_file<P: AsRef<Path>>(graph: &Graph, path: P) -> Result<()> {
    write_metis(graph, std::fs::File::create(path)?)
}

/// Writes a partition vector in METIS `.part` format (one part id per line).
pub fn write_partition<W: Write>(assignment: &[u32], writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    for &p in assignment {
        writeln!(w, "{p}")?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a METIS `.part` file with no expectation about the number of
/// subdomains. Prefer [`read_partition_bounded`] when `nparts` is known: it
/// rejects out-of-range part ids with the offending line instead of handing
/// an invalid assignment to downstream metrics.
pub fn read_partition<R: Read>(reader: R) -> Result<Vec<u32>> {
    read_partition_impl(reader, None)
}

/// Reads a METIS `.part` file, rejecting any part id `>= nparts` with a
/// typed error naming the offending line.
pub fn read_partition_bounded<R: Read>(reader: R, nparts: usize) -> Result<Vec<u32>> {
    read_partition_impl(reader, Some(nparts))
}

fn read_partition_impl<R: Read>(reader: R, nparts: Option<usize>) -> Result<Vec<u32>> {
    let reader = BufReader::new(reader);
    let mut out = Vec::new();
    for (no, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let p: u32 = t.parse().map_err(|_| McgpError::Parse {
            line: no + 1,
            col: 1,
            msg: format!("invalid part id `{t}`"),
        })?;
        if let Some(k) = nparts {
            if p as usize >= k {
                return Err(McgpError::Parse {
                    line: no + 1,
                    col: 1,
                    msg: format!("part id {p} out of range 0..{k}"),
                });
            }
        }
        out.push(p);
    }
    Ok(out)
}

/// Reads a graph from the JSON-CSR object format the serving layer accepts
/// alongside METIS text:
///
/// ```json
/// {
///   "ncon": 1,
///   "xadj": [0, 2, 4, 6],
///   "adjncy": [1, 2, 0, 2, 0, 1],
///   "adjwgt": [1, 1, 1, 1, 1, 1],
///   "vwgt": [1, 1, 1]
/// }
/// ```
///
/// `adjwgt` and `vwgt` are optional (default: unit weights), except that
/// `ncon > 1` requires `vwgt`; `ncon` defaults to 1 and is capped at
/// [`MAX_NCON`]. The arrays go through the
/// full [`Graph::from_csr`] validation, so malformed structure (asymmetry,
/// self-loops, range errors, negative weights) surfaces as the same typed
/// [`McgpError`]s the METIS reader produces — never a panic.
pub fn graph_from_json(text: &str) -> Result<Graph> {
    use mcgp_runtime::Json;

    let root = Json::parse(text).map_err(|e| McgpError::parse(0, format!("invalid JSON: {e}")))?;
    if root.get("xadj").is_none() {
        return Err(McgpError::parse(
            0,
            "JSON graph must be an object with an `xadj` array",
        ));
    }

    fn int_array(root: &Json, key: &str) -> Result<Option<Vec<i64>>> {
        let Some(v) = root.get(key) else {
            return Ok(None);
        };
        let arr = v.as_arr().ok_or_else(|| {
            McgpError::parse(0, format!("JSON graph field `{key}` must be an array"))
        })?;
        arr.iter()
            .enumerate()
            .map(|(i, x)| {
                x.as_i64().ok_or_else(|| {
                    McgpError::parse(
                        0,
                        format!("JSON graph field `{key}`[{i}] must be an integer"),
                    )
                })
            })
            .collect::<Result<Vec<i64>>>()
            .map(Some)
    }

    let ncon = match root.get("ncon") {
        None => 1usize,
        Some(v) => {
            let n = v.as_i64().filter(|&n| n >= 1).ok_or_else(|| {
                McgpError::parse(0, "JSON graph field `ncon` must be a positive integer")
            })? as usize;
            if n > MAX_NCON {
                return Err(McgpError::Overflow {
                    what: "ncon",
                    value: n as u128,
                    limit: MAX_NCON as u128,
                });
            }
            n
        }
    };
    // The METIS reader's rule: default unit weights are one constraint, so
    // a multi-constraint graph must carry its weights. It also keeps a tiny
    // body from asking for `nvtxs * ncon` default weights.
    if ncon > 1 && root.get("vwgt").is_none() {
        return Err(McgpError::parse(
            0,
            format!("JSON graph `ncon` {ncon} > 1 requires a `vwgt` array"),
        ));
    }

    let xadj_raw = int_array(&root, "xadj")?.expect("presence checked above");
    let mut xadj = Vec::with_capacity(xadj_raw.len().min(MAX_PREALLOC));
    for (i, v) in xadj_raw.into_iter().enumerate() {
        if v < 0 {
            return Err(McgpError::parse(
                0,
                format!("JSON graph field `xadj`[{i}] is negative"),
            ));
        }
        xadj.push(v as usize);
    }
    if xadj.is_empty() {
        return Err(McgpError::parse(0, "JSON graph `xadj` must not be empty"));
    }
    let nvtxs = xadj.len() - 1;
    if nvtxs as u128 > u32::MAX as u128 {
        return Err(McgpError::Overflow {
            what: "nvtxs",
            value: nvtxs as u128,
            limit: u32::MAX as u128,
        });
    }

    let adjncy_raw = int_array(&root, "adjncy")?.unwrap_or_default();
    let mut adjncy: Vec<Vertex> = Vec::with_capacity(adjncy_raw.len().min(MAX_PREALLOC));
    for (i, v) in adjncy_raw.into_iter().enumerate() {
        if v < 0 || v as u128 > u32::MAX as u128 {
            return Err(McgpError::parse(
                0,
                format!("JSON graph field `adjncy`[{i}] out of vertex-id range"),
            ));
        }
        adjncy.push(v as Vertex);
    }

    let adjwgt = int_array(&root, "adjwgt")?.unwrap_or_else(|| vec![1; adjncy.len()]);
    let vwgt = int_array(&root, "vwgt")?.unwrap_or_else(|| vec![1; nvtxs * ncon]);

    Graph::from_csr(ncon, xadj, adjncy, adjwgt, vwgt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;
    use crate::generators::grid_2d;
    use crate::synthetic;

    fn roundtrip(g: &Graph) -> Graph {
        let mut buf = Vec::new();
        write_metis(g, &mut buf).unwrap();
        read_metis(buf.as_slice()).unwrap()
    }

    #[test]
    fn roundtrip_unit_graph() {
        let g = grid_2d(5, 4);
        assert_eq!(roundtrip(&g), g);
    }

    #[test]
    fn roundtrip_multiconstraint_weighted() {
        let g = synthetic::type2(&grid_2d(8, 8), 3, 7);
        assert_eq!(roundtrip(&g), g);
    }

    #[test]
    fn parses_plain_unweighted_format() {
        // Classic 4-clique minus one edge, no weights.
        let text = "% a comment\n4 5\n2 3 4\n1 3\n1 2 4\n1 3\n";
        let g = read_metis(text.as_bytes()).unwrap();
        assert_eq!(g.nvtxs(), 4);
        assert_eq!(g.nedges(), 5);
        assert_eq!(g.vwgt(0), &[1]);
        assert_eq!(g.edge_weights(0), &[1, 1, 1]);
    }

    #[test]
    fn parses_vertex_weights_without_ncon_field() {
        let text = "2 1 010\n5 2\n7 1\n";
        let g = read_metis(text.as_bytes()).unwrap();
        assert_eq!(g.ncon(), 1);
        assert_eq!(g.vwgt(0), &[5]);
        assert_eq!(g.vwgt(1), &[7]);
    }

    #[test]
    fn parses_multi_constraint_header() {
        let text = "2 1 011 2\n5 6 2 9\n7 8 1 9\n";
        let g = read_metis(text.as_bytes()).unwrap();
        assert_eq!(g.ncon(), 2);
        assert_eq!(g.vwgt(0), &[5, 6]);
        assert_eq!(g.vwgt(1), &[7, 8]);
        assert_eq!(g.edge_weights(0), &[9]);
    }

    #[test]
    fn rejects_wrong_edge_count() {
        let text = "3 5\n2\n1 3\n2\n";
        assert!(matches!(
            read_metis(text.as_bytes()),
            Err(McgpError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_neighbor() {
        let text = "2 1\n2\n3\n";
        assert!(read_metis(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_asymmetric_adjacency() {
        let text = "2 1\n2\n\n";
        // Vertex 2's line is empty, so edge (1,2) has no reverse.
        assert!(read_metis(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_vertex_sizes_fmt() {
        let text = "1 0 100\n3\n";
        assert!(read_metis(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_malformed_fmt_instead_of_defaulting_unweighted() {
        // Regression: `fmt` fields that are not 1-3 binary digits used to be
        // silently coerced to 0 ("no weights"). They must be parse errors
        // carrying the header line number.
        for fmt in ["abc", "019", "2", "0110", "01x"] {
            let text = format!("2 1 {fmt}\n5 2\n7 1\n");
            match read_metis(text.as_bytes()) {
                Err(McgpError::Parse { line, msg, .. }) => {
                    assert_eq!(line, 1, "fmt `{fmt}`");
                    assert!(msg.contains("fmt") || msg.contains("vertex sizes"), "{msg}");
                }
                other => panic!("fmt `{fmt}`: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_ncon_without_vertex_weights() {
        let text = "2 1 001 3\n2 9\n1 9\n";
        assert!(read_metis(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_huge_header_quantities_with_overflow() {
        // Vertex count beyond the u32 index width.
        let text = format!("{} 0\n", (u32::MAX as u64) + 1);
        assert!(matches!(
            read_metis(text.as_bytes()),
            Err(McgpError::Overflow { .. })
        ));
        // Constraint count beyond the sane cap.
        let text = format!("2 1 011 {}\n", MAX_NCON + 1);
        assert!(matches!(
            read_metis(text.as_bytes()),
            Err(McgpError::Overflow { .. })
        ));
    }

    #[test]
    fn parse_errors_carry_token_context() {
        // Third token of vertex 1's line (neighbor id) is garbage.
        let text = "2 1 010\n5 zzz\n7 1\n";
        match read_metis(text.as_bytes()) {
            Err(McgpError::Parse { line, col, .. }) => {
                assert_eq!(line, 2);
                assert_eq!(col, 2);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_empty_file() {
        assert!(read_metis("".as_bytes()).is_err());
        assert!(read_metis("% only comments\n".as_bytes()).is_err());
    }

    #[test]
    fn partition_roundtrip() {
        let part = vec![0u32, 3, 1, 2, 2];
        let mut buf = Vec::new();
        write_partition(&part, &mut buf).unwrap();
        assert_eq!(read_partition(buf.as_slice()).unwrap(), part);
    }

    #[test]
    fn bounded_partition_reader_rejects_out_of_range_ids() {
        let text = "0\n1\n7\n";
        assert_eq!(
            read_partition_bounded(text.as_bytes(), 8).unwrap(),
            vec![0, 1, 7]
        );
        match read_partition_bounded(text.as_bytes(), 4) {
            Err(McgpError::Parse { line, msg, .. }) => {
                assert_eq!(line, 3);
                assert!(msg.contains("out of range"), "{msg}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // Negative ids are invalid integers for u32 and name their line.
        match read_partition("0\n-1\n".as_bytes()) {
            Err(McgpError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn builder_and_io_agree_on_weighted_edges() {
        let mut b = GraphBuilder::new(3);
        b.weighted_edge(0, 1, 4).weighted_edge(1, 2, 2);
        b.vwgt(2, vec![1, 2, 3, 4, 5, 6]);
        let g = b.build().unwrap();
        assert_eq!(roundtrip(&g), g);
    }

    #[test]
    fn json_ingest_parses_full_and_minimal_objects() {
        // Triangle with explicit weights.
        let g = graph_from_json(
            r#"{"ncon": 2,
                "xadj": [0, 2, 4, 6],
                "adjncy": [1, 2, 0, 2, 0, 1],
                "adjwgt": [5, 1, 5, 2, 1, 2],
                "vwgt": [1, 10, 2, 20, 3, 30]}"#,
        )
        .unwrap();
        assert_eq!(g.nvtxs(), 3);
        assert_eq!(g.ncon(), 2);
        assert_eq!(g.nedges(), 3);
        assert_eq!(g.vwgt(1), &[2, 20]);
        // Minimal: unit weights, ncon defaults to 1.
        let g = graph_from_json(r#"{"xadj": [0, 1, 2], "adjncy": [1, 0]}"#).unwrap();
        assert_eq!(g.nvtxs(), 2);
        assert_eq!(g.ncon(), 1);
        assert_eq!(g.vwgt(0), &[1]);
        assert_eq!(g.edge_weights(0), &[1]);
    }

    #[test]
    fn json_ingest_rejects_malformed_input_with_typed_errors() {
        // Syntax, shape, and range errors are Parse; structural invalidity
        // (asymmetry here) is the same error from_csr produces.
        for bad in [
            "not json at all",
            "[1, 2, 3]",
            r#"{"xadj": "nope"}"#,
            r#"{"xadj": [0, 1], "adjncy": [1.5]}"#,
            r#"{"xadj": [0, -1], "adjncy": []}"#,
            r#"{"xadj": [], "adjncy": []}"#,
            r#"{"xadj": [0, 1], "adjncy": [-3]}"#,
            r#"{"xadj": [0, 1, 1], "adjncy": [1]}"#, // asymmetric
            r#"{"xadj": [0, 1], "adjncy": [0]}"#,    // self-loop
            r#"{"ncon": 0, "xadj": [0], "adjncy": []}"#,
        ] {
            assert!(graph_from_json(bad).is_err(), "accepted: {bad}");
        }
        // ncon above the cap is an Overflow, matching the METIS reader.
        match graph_from_json(r#"{"ncon": 1000, "xadj": [0], "adjncy": []}"#) {
            Err(McgpError::Overflow { what: "ncon", .. }) => {}
            other => panic!("expected ncon overflow, got {other:?}"),
        }
    }

    #[test]
    fn json_ingest_requires_vertex_weights_for_multiple_constraints() {
        // 400 KB of `xadj` at ncon 255 used to ask for 51M default weights.
        let zeros = vec!["0"; 200_000].join(",");
        let body = format!(r#"{{"ncon":255,"xadj":[{zeros}]}}"#);
        match graph_from_json(&body) {
            Err(McgpError::Parse { msg, .. }) => assert!(msg.contains("vwgt"), "{msg}"),
            other => panic!("expected a parse error, got {other:?}"),
        }
        let g = graph_from_json(r#"{"ncon": 2, "xadj": [0, 0], "vwgt": [4, 5]}"#).unwrap();
        assert_eq!(g.vwgt(0), &[4, 5]);
    }

    #[test]
    fn parse_metis_and_read_metis_agree() {
        let g = synthetic::type2(&crate::generators::mrng_like(500, 2), 3, 2);
        let mut text = Vec::new();
        write_metis(&g, &mut text).unwrap();
        assert_eq!(parse_metis(&text).unwrap(), g);
        assert_eq!(read_metis(text.as_slice()).unwrap(), g);
        let crlf = String::from_utf8(text).unwrap().replace('\n', "\r\n");
        assert_eq!(parse_metis(crlf.as_bytes()).unwrap(), g);
    }

    #[test]
    fn integer_tokens_parse_like_str_parse() {
        for tok in [
            "0",
            "7",
            "+7",
            "007",
            "-0",
            "-7",
            "+",
            "-",
            "",
            "+-1",
            "1a",
            "12 ",
            "18446744073709551615",
            "18446744073709551616",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
        ] {
            assert_eq!(
                parse_usize(tok.as_bytes()),
                tok.parse().ok(),
                "usize `{tok}`"
            );
            assert_eq!(parse_i64(tok.as_bytes()), tok.parse().ok(), "i64 `{tok}`");
        }
    }

    #[test]
    fn tokens_split_like_split_whitespace() {
        for line in [
            "",
            "  ",
            "1 2",
            " \t1\x0b2\x0c3\r",
            "a\u{a0}b\u{3000}c\u{85}d",
            "\u{2028}x ",
        ] {
            let got: Vec<&[u8]> = Tokens::new(line).map(|t| t.bytes).collect();
            let want: Vec<&[u8]> = line.split_whitespace().map(str::as_bytes).collect();
            assert_eq!(got, want, "{line:?}");
        }
    }

    #[test]
    fn json_ingest_agrees_with_metis_reader() {
        // The same graph through both ingest paths must be identical.
        let g = crate::generators::mrng_like(300, 5);
        let mut metis = Vec::new();
        write_metis(&g, &mut metis).unwrap();
        let via_metis = read_metis(metis.as_slice()).unwrap();
        let json = format!(
            r#"{{"ncon": {}, "xadj": {:?}, "adjncy": {:?}, "adjwgt": {:?}, "vwgt": {:?}}}"#,
            g.ncon(),
            g.xadj(),
            g.adjncy(),
            g.adjwgt(),
            g.vwgt_flat(),
        );
        let via_json = graph_from_json(&json).unwrap();
        assert_eq!(via_json, via_metis);
    }
}
