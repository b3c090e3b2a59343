//! Cache persistence: serialize the prepared-sampler cache to a
//! versioned binary file so a restarted server warms instantly.
//!
//! # Format (version 4, little-endian throughout)
//!
//! The file, in order:
//!
//! ```text
//! magic     8 bytes  b"CCTSNAP1"
//! version   u32      4
//! entries   u32      entry count
//! entry*    —        `entries` times, see below
//! checksum  u64      FNV-1a over every preceding byte
//! ```
//!
//! Each entry, in order:
//!
//! ```text
//! algorithm  u8       index into `Algorithm::ALL`
//! spec_len   u32      byte length of the graph spec
//! spec       bytes    the graph spec string (UTF-8)
//! config_fp  u64      FNV-1a of the serving SamplerConfig's Debug text
//! p          matrix   the transition matrix, in its resolved representation
//! phase1     u8       0: no phase-1 doubling table, the entry ends here
//!                     1: the table's ledger and levels follow
//! ledger     —        per cost category: rounds u64, words u64;
//!                     then saturated u8
//! levels     u32      level count, then per level a u8 flag —
//!                     0 absent, 1 present and followed by a matrix
//! ```
//!
//! The algorithm and spec are the entry's [`CacheKey`]; version 3 also
//! stored a matrix-backend byte after the algorithm, so its files are
//! rejected whole. The ledger is the table's exact round charge. Only
//! **materialized** levels are present: absent levels rebuild lazily on
//! demand, which is the point of the deferred table, and level 0 is
//! always absent because it is `p`. No level above the table's settled
//! level is ever materialized, so none is written; restore re-runs the
//! settle rule on the levels it installs and drops any above the
//! settled one (files written before the rule existed carry them). A matrix is a tag byte (0 dense,
//! 1 CSR), `rows u32` and `cols u32`, then either `rows × cols`
//! row-major `f64`s or, per row, `nnz u32` followed by `nnz` pairs of
//! `column u32, value f64`.
//!
//! # Trust model: verify, then inject
//!
//! A snapshot is an *accelerator*, never an authority. Restore
//! re-prepares each entry's skeleton from scratch (cheap — the table
//! is deferred), verifies the snapshot's transition matrix and ledger
//! bit-for-bit against the fresh preparation, and only then injects
//! the snapshotted table levels ([`cct_core::PreparedSampler::restore`]).
//! A corrupted file fails the checksum and is rejected whole; an entry
//! written under a different config, code version, or spec meaning
//! fails its comparison and is skipped — the server rebuilds that key
//! cold instead of serving untrusted bits. Draws after a restore are
//! therefore byte-identical to cold runs *unconditionally*.

use crate::cache::{CacheKey, PreparedCache};
use crate::request::{fnv64, Algorithm};
use crate::service::{build_spec_graph, ServeOptions};
use cct_core::{PreparedSampler, SamplerConfig};
use cct_linalg::{CsrMatrix, Matrix, PMatrix};
use cct_sim::{CostCategory, RoundLedger};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// The 8-byte magic prefix of a snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"CCTSNAP1";

/// The format version this build writes and accepts; files of any other
/// version are rejected whole and rebuild cold.
pub const SNAPSHOT_VERSION: u32 = 4;

/// What a restore attempt accomplished: `restored` entries were
/// verified and installed, `skipped` entries failed verification
/// (stale config, changed code, unbuildable spec) and will rebuild
/// cold on first use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RestoreSummary {
    /// Entries verified and installed into the cache.
    pub restored: usize,
    /// Entries rejected by verification and left to rebuild cold.
    pub skipped: usize,
}

/// A config's identity for snapshot compatibility: the FNV hash of its
/// `Debug` rendering. Any knob change (walk length, engine, precision,
/// threads, …) changes the fingerprint, so a snapshot written under a
/// different serving config is rejected entry-by-entry before the more
/// expensive matrix comparison runs.
pub(crate) fn config_fingerprint(config: &SamplerConfig) -> u64 {
    fnv64(format!("{config:?}").as_bytes())
}

// ---- encoding ----------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn algorithm_tag(algorithm: Algorithm) -> u8 {
    Algorithm::ALL
        .iter()
        .position(|&a| a == algorithm)
        .expect("ALL is exhaustive") as u8
}

fn algorithm_from_tag(tag: u8) -> Result<Algorithm, String> {
    Algorithm::ALL
        .get(usize::from(tag))
        .copied()
        .ok_or_else(|| format!("unknown algorithm tag {tag}"))
}

fn encode_pmatrix(buf: &mut Vec<u8>, m: &PMatrix) {
    match m {
        PMatrix::Dense(d) => {
            buf.push(0);
            put_u32(buf, d.rows() as u32);
            put_u32(buf, d.cols() as u32);
            for &v in d.as_slice() {
                put_f64(buf, v);
            }
        }
        PMatrix::Sparse(s) => {
            buf.push(1);
            put_u32(buf, s.rows() as u32);
            put_u32(buf, s.cols() as u32);
            for i in 0..s.rows() {
                let (cols, vals) = s.row(i);
                put_u32(buf, cols.len() as u32);
                for (&c, &v) in cols.iter().zip(vals) {
                    put_u32(buf, c);
                    put_f64(buf, v);
                }
            }
        }
    }
}

fn encode_ledger(buf: &mut Vec<u8>, ledger: &RoundLedger) {
    for cat in CostCategory::ALL {
        put_u64(buf, ledger.rounds(cat));
        put_u64(buf, ledger.words(cat));
    }
    buf.push(u8::from(ledger.saturated()));
}

fn encode_entry(buf: &mut Vec<u8>, key: &CacheKey, config_fp: u64, prepared: &PreparedSampler) {
    buf.push(algorithm_tag(key.algorithm));
    put_u32(buf, key.graph_spec.len() as u32);
    buf.extend_from_slice(key.graph_spec.as_bytes());
    put_u64(buf, config_fp);
    let state = prepared.snapshot_state();
    encode_pmatrix(buf, state.p);
    match state.phase1 {
        None => buf.push(0),
        Some(phase1) => {
            buf.push(1);
            encode_ledger(buf, phase1.ledger);
            put_u32(buf, phase1.levels.len() as u32);
            for (k, level) in phase1.levels.iter().enumerate() {
                // Level 0 is the transition matrix (already encoded
                // above); restore rebuilds it fresh, so persisting it
                // again would only double the file.
                match level {
                    Some(m) if k > 0 => {
                        buf.push(1);
                        encode_pmatrix(buf, m);
                    }
                    _ => buf.push(0),
                }
            }
        }
    }
}

// ---- decoding ----------------------------------------------------------

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or("truncated snapshot")?;
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

fn decode_pmatrix(r: &mut Reader) -> Result<PMatrix, String> {
    let tag = r.u8()?;
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    // An adversarial or corrupt header must not drive a giant
    // allocation before the checksum has a chance to matter: bound the
    // claimed dense size by the bytes actually present.
    match tag {
        0 => {
            let n = rows
                .checked_mul(cols)
                .ok_or("dense matrix dimensions overflow")?;
            if n.saturating_mul(8) > r.data.len() - r.pos {
                return Err("dense matrix larger than the remaining file".into());
            }
            let mut m = Matrix::zeros(rows, cols);
            for v in m.as_mut_slice() {
                *v = r.f64()?;
            }
            Ok(PMatrix::Dense(m))
        }
        1 => {
            let mut builder = CsrMatrix::builder(rows, cols);
            for _ in 0..rows {
                let nnz = r.u32()? as usize;
                for _ in 0..nnz {
                    let c = r.u32()? as usize;
                    let v = r.f64()?;
                    if c >= cols {
                        return Err(format!("CSR column {c} out of range"));
                    }
                    builder.push(c, v);
                }
                builder.finish_row();
            }
            Ok(PMatrix::Sparse(builder.build()))
        }
        other => Err(format!("unknown matrix tag {other}")),
    }
}

fn decode_ledger(r: &mut Reader) -> Result<(RoundLedger, bool), String> {
    let mut ledger = RoundLedger::new();
    for cat in CostCategory::ALL {
        let rounds = r.u64()?;
        let words = r.u64()?;
        ledger.charge(cat, rounds);
        ledger.add_words(cat, words);
    }
    let saturated = r.u8()? != 0;
    Ok((ledger, saturated))
}

struct DecodedEntry {
    key: CacheKey,
    config_fp: u64,
    p: PMatrix,
    phase1: Option<(RoundLedger, bool, Vec<Option<PMatrix>>)>,
}

fn decode_entry(r: &mut Reader) -> Result<DecodedEntry, String> {
    let algorithm = algorithm_from_tag(r.u8()?)?;
    let spec_len = r.u32()? as usize;
    if spec_len > crate::request::MAX_SPEC_LEN {
        return Err(format!("spec length {spec_len} exceeds the wire limit"));
    }
    let graph_spec = std::str::from_utf8(r.take(spec_len)?)
        .map_err(|_| "spec is not UTF-8".to_string())?
        .to_string();
    let config_fp = r.u64()?;
    let p = decode_pmatrix(r)?;
    let phase1 = match r.u8()? {
        0 => None,
        1 => {
            let (ledger, saturated) = decode_ledger(r)?;
            let level_count = r.u32()? as usize;
            if level_count > 64 {
                return Err(format!("{level_count} table levels is implausible"));
            }
            let mut levels = Vec::with_capacity(level_count);
            for _ in 0..level_count {
                levels.push(match r.u8()? {
                    0 => None,
                    1 => Some(decode_pmatrix(r)?),
                    other => return Err(format!("bad level flag {other}")),
                });
            }
            Some((ledger, saturated, levels))
        }
        other => return Err(format!("bad phase-1 flag {other}")),
    };
    Ok(DecodedEntry {
        key: CacheKey {
            algorithm,
            graph_spec,
        },
        config_fp,
        p,
        phase1,
    })
}

// ---- public API --------------------------------------------------------

/// Serializes `entries` (as returned by
/// [`PreparedCache::ready_entries`]) to `path`, atomically: the bytes
/// land in a sibling temp file first and are renamed into place, so a
/// crash mid-write never leaves a torn snapshot where a good one was.
/// Returns the number of entries written.
///
/// # Errors
///
/// A description of the I/O failure.
pub fn write_snapshot(
    path: &Path,
    entries: &[(CacheKey, Arc<PreparedSampler>)],
    options: &ServeOptions,
) -> Result<usize, String> {
    let mut buf = Vec::new();
    buf.extend_from_slice(SNAPSHOT_MAGIC);
    put_u32(&mut buf, SNAPSHOT_VERSION);
    let writable: Vec<_> = entries
        .iter()
        .filter(|(k, _)| k.algorithm != Algorithm::Mst)
        .collect();
    put_u32(&mut buf, writable.len() as u32);
    for (key, prepared) in &writable {
        let config_fp = config_fingerprint(options.config_for(key.algorithm));
        encode_entry(&mut buf, key, config_fp, prepared);
    }
    let checksum = fnv64(&buf);
    put_u64(&mut buf, checksum);
    let tmp = path.with_extension("tmp");
    let io = |e: std::io::Error| format!("write snapshot {}: {e}", path.display());
    let mut file = std::fs::File::create(&tmp).map_err(io)?;
    file.write_all(&buf).map_err(io)?;
    file.sync_all().map_err(io)?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(io)?;
    Ok(writable.len())
}

/// Loads a snapshot and installs every entry that survives
/// verification into `cache` (see the module docs for the trust
/// model). A missing file is not an error — it returns an empty
/// summary, the cold-start case.
///
/// # Errors
///
/// Whole-file problems: unreadable file, bad magic, unsupported
/// version, checksum mismatch, truncation. Per-entry mismatches are
/// *not* errors; they are counted in [`RestoreSummary::skipped`].
pub fn load_snapshot(
    path: &Path,
    options: &ServeOptions,
    cache: &PreparedCache,
) -> Result<RestoreSummary, String> {
    let data = match std::fs::read(path) {
        Ok(data) => data,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(RestoreSummary::default()),
        Err(e) => return Err(format!("read snapshot {}: {e}", path.display())),
    };
    if data.len() < SNAPSHOT_MAGIC.len() + 4 + 4 + 8 {
        return Err("snapshot file is too short".into());
    }
    let (body, tail) = data.split_at(data.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    if fnv64(body) != stored {
        return Err("snapshot checksum mismatch (corrupted file)".into());
    }
    let mut r = Reader { data: body, pos: 0 };
    if r.take(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
        return Err("not a cct snapshot file (bad magic)".into());
    }
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(format!(
            "snapshot version {version} unsupported (this build reads {SNAPSHOT_VERSION})"
        ));
    }
    let count = r.u32()? as usize;
    let mut summary = RestoreSummary::default();
    for _ in 0..count {
        let entry = decode_entry(&mut r)?;
        match restore_entry(&entry, options) {
            Ok(prepared) => {
                cache.insert_ready(entry.key, Arc::new(prepared));
                summary.restored += 1;
            }
            Err(_) => summary.skipped += 1,
        }
    }
    if r.pos != body.len() {
        return Err("trailing bytes after the last entry".into());
    }
    Ok(summary)
}

/// Verifies one decoded entry against a fresh preparation and returns
/// the restored sampler (see [`PreparedSampler::restore`]).
fn restore_entry(entry: &DecodedEntry, options: &ServeOptions) -> Result<PreparedSampler, String> {
    if entry.key.algorithm == Algorithm::Mst {
        return Err("MST entries are never cached".into());
    }
    let config = options.config_for(entry.key.algorithm);
    if config_fingerprint(config) != entry.config_fp {
        return Err("serving config changed since the snapshot was written".into());
    }
    let graph = build_spec_graph(&entry.key.graph_spec, entry.key.algorithm)?;
    let (levels, ledger) = match &entry.phase1 {
        Some((ledger, saturated, levels)) => {
            if *saturated != ledger.saturated() {
                return Err("ledger saturation flag does not match its totals".into());
            }
            (levels.clone(), Some(ledger))
        }
        None => (Vec::new(), None),
    };
    PreparedSampler::restore(config.clone(), &graph, &entry.p, levels, ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cct_core::{CliqueTreeSampler, EngineChoice, WalkLength};
    use rand::SeedableRng;

    fn quick_options() -> ServeOptions {
        let config = SamplerConfig::new()
            .walk_length(WalkLength::ScaledCubic { factor: 4.0 })
            .engine(EngineChoice::UnitCost);
        ServeOptions::new()
            .workers(1)
            .config(Algorithm::Thm1, config.clone())
            .config(Algorithm::Exact, config)
    }

    fn prepared_for(spec: &str, options: &ServeOptions) -> Arc<PreparedSampler> {
        let graph = build_spec_graph(spec, Algorithm::Thm1).unwrap();
        CliqueTreeSampler::new(options.config_for(Algorithm::Thm1).clone())
            .prepare(&graph)
            .unwrap()
            .into_shared()
    }

    fn key(spec: &str) -> CacheKey {
        CacheKey {
            algorithm: Algorithm::Thm1,
            graph_spec: spec.into(),
        }
    }

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cct-snap-{tag}-{}.bin", std::process::id()))
    }

    #[test]
    fn round_trips_entries_through_the_file() {
        let options = quick_options();
        let entries = vec![
            (key("cycle:64"), prepared_for("cycle:64", &options)),
            (key("petersen"), prepared_for("petersen", &options)),
        ];
        // Force a level to materialize so the snapshot carries one.
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        entries[0].1.sample(&mut rng).unwrap();
        let path = tmp_path("roundtrip");
        assert_eq!(write_snapshot(&path, &entries, &options).unwrap(), 2);
        let cache = PreparedCache::new(8);
        let summary = load_snapshot(&path, &options, &cache).unwrap();
        assert_eq!(
            summary,
            RestoreSummary {
                restored: 2,
                skipped: 0
            }
        );
        // Restored entries serve identical draws without re-preparing.
        for (k, original) in &entries {
            let (restored, info) = cache.get_or_prepare(k, || panic!("must hit"));
            let restored = restored.unwrap();
            assert!(info.hit);
            let mut a = rand::rngs::StdRng::seed_from_u64(7);
            let mut b = rand::rngs::StdRng::seed_from_u64(7);
            let ra = original.sample(&mut a).unwrap();
            let rb = restored.sample(&mut b).unwrap();
            assert_eq!(ra.tree.edges(), rb.tree.edges());
            assert_eq!(ra.rounds, rb.rounds);
        }
        assert_eq!(cache.stats().total_prepares(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_files_are_rejected_whole() {
        let options = quick_options();
        let entries = vec![(key("petersen"), prepared_for("petersen", &options))];
        let path = tmp_path("corrupt");
        write_snapshot(&path, &entries, &options).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let cache = PreparedCache::new(8);
        let err = load_snapshot(&path, &options, &cache).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        assert_eq!(cache.stats().len, 0, "nothing installed from a bad file");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn config_mismatch_skips_the_entry_not_the_file() {
        let options = quick_options();
        let entries = vec![(key("petersen"), prepared_for("petersen", &options))];
        let path = tmp_path("config-mismatch");
        write_snapshot(&path, &entries, &options).unwrap();
        // Same file, different serving config: the entry is skipped and
        // left to rebuild cold.
        let other = quick_options().config(
            Algorithm::Thm1,
            SamplerConfig::new()
                .walk_length(WalkLength::ScaledCubic { factor: 8.0 })
                .engine(EngineChoice::UnitCost),
        );
        let cache = PreparedCache::new(8);
        let summary = load_snapshot(&path, &other, &cache).unwrap();
        assert_eq!(
            summary,
            RestoreSummary {
                restored: 0,
                skipped: 1
            }
        );
        assert_eq!(cache.stats().len, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_a_cold_start_not_an_error() {
        let cache = PreparedCache::new(8);
        let summary = load_snapshot(
            Path::new("/nonexistent/cct-snapshot.bin"),
            &quick_options(),
            &cache,
        )
        .unwrap();
        assert_eq!(summary, RestoreSummary::default());
    }

    #[test]
    fn truncated_and_misversioned_files_are_rejected() {
        let options = quick_options();
        let entries = vec![(key("petersen"), prepared_for("petersen", &options))];
        let path = tmp_path("truncated");
        write_snapshot(&path, &entries, &options).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        let cache = PreparedCache::new(8);
        assert!(load_snapshot(&path, &options, &cache).is_err());
        // A tampered version field fails the checksum first — still
        // rejected whole, which is what matters.
        let mut v = bytes.clone();
        v[8] = 99;
        std::fs::write(&path, &v).unwrap();
        assert!(load_snapshot(&path, &options, &cache).is_err());
        // A sealed file of another version — here version 3, which also
        // stored a backend byte per entry — is rejected whole by its
        // version field.
        let mut old = bytes[..bytes.len() - 8].to_vec();
        old[8..12].copy_from_slice(&3u32.to_le_bytes());
        let checksum = fnv64(&old);
        old.extend_from_slice(&checksum.to_le_bytes());
        std::fs::write(&path, &old).unwrap();
        let err = load_snapshot(&path, &options, &cache).unwrap_err();
        assert!(err.contains("version 3 unsupported"), "{err}");
        assert_eq!(cache.stats().len, 0);
        std::fs::remove_file(&path).unwrap();
    }
}
