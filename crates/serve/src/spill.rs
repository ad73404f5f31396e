//! Persistent hierarchy spill: the disk format behind `--cache-dir`.
//!
//! Evicted, admission-rejected, and shutdown-resident cache entries are
//! serialized to `<cache-dir>/<fingerprint>.snap` so a restarted daemon
//! serves warm (`X-Mcgp-Cache: disk`) instead of recoarsening. The format
//! is a fixed little-endian binary codec — no serde under the hermetic
//! build policy:
//!
//! ```text
//! magic    8 bytes  "MCGPSNAP"
//! version  u32      3; bumped on any layout change; mismatch = clean miss
//! fp       u64      cache fingerprint (must match the filename's key)
//! cost_us  u64      measured build cost, microseconds (feeds admission)
//! len      u64      payload byte count
//! checksum u64      the body hash kernel over the payload
//! payload           seed, finest graph, levels, RNG states
//! ```
//!
//! Loading is strictly validating: magic/version/fingerprint/length/
//! checksum are checked before decoding, every graph goes through
//! [`Graph::from_csr`] (the validating constructor), and
//! [`HierarchySnapshot::from_parts`] re-checks the structural invariants.
//! A corrupt or truncated file is deleted and reported as a miss — never
//! a panic, never a wrong answer. Writes go through a same-directory
//! temp file + rename, so a crash mid-write cannot leave a half spill
//! under the final name.

use mcgp_core::coarsen::CoarseLevel;
use mcgp_core::HierarchySnapshot;
use mcgp_graph::Graph;
use mcgp_runtime::rng::Rng;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::cache::{lane_hash, CachedEntry};

const MAGIC: &[u8; 8] = b"MCGPSNAP";
const VERSION: u32 = 3;
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8;

/// Spill file path for a fingerprint.
pub fn spill_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.snap"))
}

// ---- primitive writers/readers ------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.data.len() - self.pos < n {
            return Err("truncated payload".into());
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A u64 that must fit a usize and stay under a sanity cap (so a
    /// corrupt length cannot trigger a huge allocation before the
    /// checksum has had a chance to catch it).
    fn len(&mut self, what: &str) -> Result<usize, String> {
        let v = self.u64()?;
        let remaining = (self.data.len() - self.pos) as u64;
        // Every array element below is at least 4 bytes on the wire.
        if v > remaining {
            return Err(format!("{what} count {v} exceeds payload size"));
        }
        Ok(v as usize)
    }

    fn u64s(&mut self, n: usize) -> Result<Vec<u64>, String> {
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn u32s(&mut self, n: usize) -> Result<Vec<u32>, String> {
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn i64s(&mut self, n: usize) -> Result<Vec<i64>, String> {
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

// ---- graph / snapshot codec ---------------------------------------------

fn encode_graph(out: &mut Vec<u8>, g: &Graph) {
    put_u64(out, g.ncon() as u64);
    put_u64(out, g.nvtxs() as u64);
    for &x in g.xadj() {
        put_u64(out, x as u64);
    }
    put_u64(out, g.adjacency_len() as u64);
    for &v in g.adjncy() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for &w in g.adjwgt() {
        out.extend_from_slice(&w.to_le_bytes());
    }
    for &w in g.vwgt_flat() {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

fn decode_graph(r: &mut Reader<'_>) -> Result<Graph, String> {
    let ncon = r.len("ncon")?;
    let nvtxs = r.len("nvtxs")?;
    let xadj: Vec<usize> = r.u64s(nvtxs + 1)?.into_iter().map(|x| x as usize).collect();
    let adj_len = r.len("adjacency")?;
    let adjncy = r.u32s(adj_len)?;
    let adjwgt = r.i64s(adj_len)?;
    let vwgt = r.i64s(nvtxs.checked_mul(ncon).ok_or("vwgt size overflow")?)?;
    Graph::from_csr(ncon, xadj, adjncy, adjwgt, vwgt)
        .map_err(|e| format!("embedded graph rejected: {e}"))
}

fn encode_rng(out: &mut Vec<u8>, rng: &Rng) {
    for w in rng.state() {
        put_u64(out, w);
    }
}

fn decode_rng(r: &mut Reader<'_>) -> Result<Rng, String> {
    let s = r.u64s(4)?;
    Ok(Rng::from_state([s[0], s[1], s[2], s[3]]))
}

fn encode_payload(entry: &CachedEntry) -> Vec<u8> {
    let snap = &entry.snapshot;
    let mut out = Vec::with_capacity(entry.bytes() + 1024);
    put_u64(&mut out, snap.seed());
    put_u64(&mut out, snap.finest_nvtxs() as u64);
    encode_graph(&mut out, &entry.graph);
    put_u64(&mut out, snap.levels().len() as u64);
    for level in snap.levels() {
        encode_graph(&mut out, &level.graph);
        put_u64(&mut out, level.cmap.len() as u64);
        for &c in &level.cmap {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }
    put_u64(&mut out, snap.rng_boundary_states().len() as u64);
    for rng in snap.rng_boundary_states() {
        encode_rng(&mut out, rng);
    }
    encode_rng(&mut out, snap.rng_final());
    out
}

fn decode_payload(payload: &[u8], cost_s: f64) -> Result<CachedEntry, String> {
    let mut r = Reader {
        data: payload,
        pos: 0,
    };
    let seed = r.u64()?;
    let finest_nvtxs = r.len("finest_nvtxs")?;
    let graph = decode_graph(&mut r)?;
    if graph.nvtxs() != finest_nvtxs {
        return Err("finest graph size disagrees with header".into());
    }
    let nlevels = r.len("levels")?;
    let mut levels = Vec::with_capacity(nlevels);
    for _ in 0..nlevels {
        let g = decode_graph(&mut r)?;
        let cmap_len = r.len("cmap")?;
        let cmap = r.u32s(cmap_len)?;
        levels.push(CoarseLevel { graph: g, cmap });
    }
    let nrng = r.len("rng_at")?;
    let mut rng_at = Vec::with_capacity(nrng);
    for _ in 0..nrng {
        rng_at.push(decode_rng(&mut r)?);
    }
    let rng_final = decode_rng(&mut r)?;
    if r.pos != payload.len() {
        return Err("trailing bytes after snapshot payload".into());
    }
    let snapshot = HierarchySnapshot::from_parts(levels, rng_at, rng_final, finest_nvtxs, seed, 1)?;
    Ok(CachedEntry::new(graph, snapshot, cost_s))
}

// ---- file I/O ------------------------------------------------------------

/// Serializes `entry` to `<dir>/<key>.snap` (temp file + rename). An
/// existing file for the key is left untouched — same key means same
/// content. Returns whether a file was written.
pub fn write(dir: &Path, key: u64, entry: &CachedEntry) -> Result<bool, String> {
    let path = spill_path(dir, key);
    if path.exists() {
        return Ok(false);
    }
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let payload = encode_payload(entry);
    let mut file = Vec::with_capacity(HEADER_LEN + payload.len());
    file.extend_from_slice(MAGIC);
    file.extend_from_slice(&VERSION.to_le_bytes());
    put_u64(&mut file, key);
    put_u64(&mut file, (entry.build_cost_s() * 1e6).round() as u64);
    put_u64(&mut file, payload.len() as u64);
    put_u64(&mut file, lane_hash(&payload, &[]));
    file.extend_from_slice(&payload);
    let tmp = dir.join(format!("{key:016x}.tmp"));
    {
        let mut f = fs::File::create(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
        f.write_all(&file)
            .and_then(|_| f.sync_all())
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    }
    fs::rename(&tmp, &path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        format!("rename {}: {e}", path.display())
    })?;
    Ok(true)
}

/// Loads and validates the spill file for `key`. `Ok(None)` means no file
/// exists; a file that exists but fails any validation step is deleted
/// and reported as `Err` (the cache counts it and treats the lookup as a
/// plain miss).
pub fn load(dir: &Path, key: u64) -> Result<Option<Arc<CachedEntry>>, String> {
    let path = spill_path(dir, key);
    let raw = match fs::read(&path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    match validate_and_decode(&raw, key) {
        Ok(entry) => Ok(Some(Arc::new(entry))),
        Err(e) => {
            // Quarantine by deletion: a bad file must not fail every
            // future lookup of this key.
            let _ = fs::remove_file(&path);
            Err(format!("{}: {e}", path.display()))
        }
    }
}

fn validate_and_decode(raw: &[u8], key: u64) -> Result<CachedEntry, String> {
    if raw.len() < HEADER_LEN {
        return Err("file shorter than header".into());
    }
    if &raw[..8] != MAGIC {
        return Err("bad magic".into());
    }
    let version = u32::from_le_bytes(raw[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(format!("version {version}, expected {VERSION}"));
    }
    let fp = u64::from_le_bytes(raw[12..20].try_into().unwrap());
    if fp != key {
        return Err(format!(
            "fingerprint {fp:016x} does not match key {key:016x}"
        ));
    }
    let cost_us = u64::from_le_bytes(raw[20..28].try_into().unwrap());
    let len = u64::from_le_bytes(raw[28..36].try_into().unwrap());
    let checksum = u64::from_le_bytes(raw[36..44].try_into().unwrap());
    let payload = &raw[HEADER_LEN..];
    if payload.len() as u64 != len {
        return Err(format!(
            "payload length {} does not match header {len}",
            payload.len()
        ));
    }
    if lane_hash(payload, &[]) != checksum {
        return Err("checksum mismatch".into());
    }
    decode_payload(payload, cost_us as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_core::PartitionConfig;
    use mcgp_graph::generators::mrng_like;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mcgp-spill-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(nvtxs: usize, seed: u64) -> CachedEntry {
        let g = mrng_like(nvtxs, seed);
        let cfg = PartitionConfig {
            seed: 1,
            ..PartitionConfig::default()
        };
        let snap = HierarchySnapshot::build(&g, &cfg);
        CachedEntry::new(g, snap, 0.25)
    }

    #[test]
    fn round_trip_is_byte_identical_in_behavior() {
        let dir = tempdir("roundtrip");
        let e = entry(2000, 3);
        let cfg = PartitionConfig {
            seed: 1,
            ..PartitionConfig::default()
        };
        assert!(write(&dir, 42, &e).unwrap());
        // Second write for the same key is a no-op.
        assert!(!write(&dir, 42, &e).unwrap());
        let loaded = load(&dir, 42).unwrap().expect("file exists");
        assert!((loaded.build_cost_s() - 0.25).abs() < 1e-6);
        assert_eq!(loaded.bytes(), e.bytes());
        for nparts in [2usize, 8] {
            let a = e.snapshot.partition(&e.graph, nparts, &cfg);
            let b = loaded.snapshot.partition(&loaded.graph, nparts, &cfg);
            assert_eq!(
                a.partition.assignment(),
                b.partition.assignment(),
                "nparts={nparts}: spilled snapshot must replay identically"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_a_clean_none() {
        let dir = tempdir("missing");
        assert!(load(&dir, 7).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_and_truncated_files_are_errors_and_quarantined() {
        let dir = tempdir("corrupt");
        let e = entry(1000, 5);
        write(&dir, 9, &e).unwrap();
        let path = spill_path(&dir, 9);
        let good = fs::read(&path).unwrap();

        // Flip one payload byte: checksum must catch it.
        let mut bad = good.clone();
        let mid = HEADER_LEN + (bad.len() - HEADER_LEN) / 2;
        bad[mid] ^= 0xff;
        fs::write(&path, &bad).unwrap();
        assert!(load(&dir, 9).unwrap_err().contains("checksum"));
        assert!(!path.exists(), "bad file must be quarantined");

        // Truncation.
        fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(load(&dir, 9).is_err());
        assert!(!path.exists());

        // Wrong version, including a version-1 file from before the
        // checksum moved to the lane kernel and a version-2 file that
        // still carries the thread count: all are clean misses.
        for version in [0xfeu32, 1, 2] {
            let mut wrong_ver = good.clone();
            wrong_ver[8..12].copy_from_slice(&version.to_le_bytes());
            fs::write(&path, &wrong_ver).unwrap();
            let err = load(&dir, 9).unwrap_err();
            assert!(
                err.contains(&format!("version {version}, expected 3")),
                "{err}"
            );
            assert!(!path.exists());
        }

        // Wrong key in an otherwise valid file.
        fs::write(&path, &good).unwrap();
        let renamed = spill_path(&dir, 10);
        fs::rename(&path, &renamed).unwrap();
        assert!(load(&dir, 10).unwrap_err().contains("fingerprint"));

        // Garbage shorter than the header.
        fs::write(spill_path(&dir, 11), b"nope").unwrap();
        assert!(load(&dir, 11).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksum_valid_but_structurally_broken_payload_is_rejected() {
        // Corrupt the payload *and* refresh the checksum: the validating
        // decoders (Graph::from_csr, from_parts) are the last line.
        let dir = tempdir("struct");
        let e = entry(800, 7);
        write(&dir, 3, &e).unwrap();
        let path = spill_path(&dir, 3);
        let mut raw = fs::read(&path).unwrap();
        // Zero out a chunk in the middle of the payload (clobbers CSR).
        let start = HEADER_LEN + 64;
        for b in &mut raw[start..start + 256] {
            *b = 0;
        }
        let payload = &raw[HEADER_LEN..];
        let sum = lane_hash(payload, &[]);
        raw[36..44].copy_from_slice(&sum.to_le_bytes());
        fs::write(&path, &raw).unwrap();
        assert!(load(&dir, 3).is_err(), "structural validation must reject");
        assert!(!path.exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
