//! Cache persistence: record which keys the prepared-sampler cache
//! holds in a versioned binary file, so a restarted server comes up
//! with those keys prepared and warm.
//!
//! # Format (version 5, little-endian throughout)
//!
//! The file, in order:
//!
//! ```text
//! magic     8 bytes  b"CCTSNAP1"
//! version   u32      5
//! entries   u32      entry count
//! entry*    —        `entries` times, see below
//! checksum  u64      FNV-1a over every preceding byte
//! ```
//!
//! Each entry is one [`CacheKey`], in the cache's LRU order:
//!
//! ```text
//! algorithm  u8       index into `Algorithm::ALL`
//! spec_len   u32      byte length of the graph spec
//! spec       bytes    the graph spec string (UTF-8)
//! ```
//!
//! Versions up to 4 also stored each entry's transition matrix, ledger
//! and materialized phase-1 table levels; their files are rejected
//! whole. Since a phase-1 table stops squaring at its settled level,
//! rebuilding it costs only a few ms per key more than loading it did,
//! so the file holds keys only.
//!
//! # Restore
//!
//! [`load_snapshot`] prepares each key as a cache miss would, under the
//! *current* serving config, and warms it
//! ([`cct_core::PreparedSampler::warm`]): the restored entry
//! holds what a live entry holds after its first draw, and its draws
//! are those of a cold run by construction, because nothing but the
//! key comes from the file. A corrupted, truncated or other-version
//! file is rejected whole and the server starts cold; a key that no
//! longer prepares (a spec this build refuses) is skipped.

use crate::cache::{CacheKey, PreparedCache};
use crate::request::{fnv64, Algorithm};
use crate::service::{prepare_key, ServeOptions};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// The 8-byte magic prefix of a snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"CCTSNAP1";

/// The format version this build writes and accepts; files of any other
/// version are rejected whole and the server starts cold.
pub const SNAPSHOT_VERSION: u32 = 5;

/// What a restore attempt accomplished: `restored` keys were prepared,
/// warmed and installed; `skipped` keys no longer prepare (unbuildable
/// spec, invalid graph) and were left out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RestoreSummary {
    /// Keys prepared, warmed and installed into the cache.
    pub restored: usize,
    /// Keys that failed to prepare and were left out.
    pub skipped: usize,
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
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
}

fn decode_key(r: &mut Reader) -> Result<CacheKey, String> {
    let algorithm = algorithm_from_tag(r.u8()?)?;
    let spec_len = r.u32()? as usize;
    if spec_len > crate::request::MAX_SPEC_LEN {
        return Err(format!("spec length {spec_len} exceeds the wire limit"));
    }
    let graph_spec = std::str::from_utf8(r.take(spec_len)?)
        .map_err(|_| "spec is not UTF-8".to_string())?
        .to_string();
    Ok(CacheKey {
        algorithm,
        graph_spec,
    })
}

/// Writes `keys` (as returned by [`PreparedCache::ready_keys`]) to
/// `path`, atomically: the bytes land in a sibling temp file first and
/// are renamed into place, so a crash mid-write never leaves a torn
/// snapshot where a good one was. Returns the number of keys written.
///
/// # Errors
///
/// A description of the I/O failure.
pub fn write_snapshot(path: &Path, keys: &[CacheKey]) -> Result<usize, String> {
    let mut buf = Vec::new();
    buf.extend_from_slice(SNAPSHOT_MAGIC);
    put_u32(&mut buf, SNAPSHOT_VERSION);
    put_u32(&mut buf, keys.len() as u32);
    for key in keys {
        buf.push(algorithm_tag(key.algorithm));
        put_u32(&mut buf, key.graph_spec.len() as u32);
        buf.extend_from_slice(key.graph_spec.as_bytes());
    }
    let checksum = fnv64(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    let tmp = path.with_extension("tmp");
    let io = |e: std::io::Error| format!("write snapshot {}: {e}", path.display());
    let mut file = std::fs::File::create(&tmp).map_err(io)?;
    file.write_all(&buf).map_err(io)?;
    file.sync_all().map_err(io)?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(io)?;
    Ok(keys.len())
}

/// Loads a snapshot, then prepares, warms and installs every key it
/// names into `cache` (see the module docs). A missing file is not an
/// error — it returns an empty summary, the cold-start case.
///
/// # Errors
///
/// Whole-file problems: unreadable file, bad magic, unsupported
/// version, checksum mismatch, truncation. Nothing is installed then.
/// A key that fails to prepare is *not* an error; it is counted in
/// [`RestoreSummary::skipped`].
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
    let count = r.u32()?;
    let keys = (0..count)
        .map(|_| decode_key(&mut r))
        .collect::<Result<Vec<_>, _>>()?;
    if r.pos != body.len() {
        return Err("trailing bytes after the last entry".into());
    }
    let mut summary = RestoreSummary::default();
    for key in keys {
        // MST requests are never cached, so no live server writes one.
        if key.algorithm == Algorithm::Mst {
            summary.skipped += 1;
            continue;
        }
        match prepare_key(&key, options) {
            Ok(prepared) => {
                prepared.warm();
                cache.insert_ready(key, Arc::new(prepared));
                summary.restored += 1;
            }
            Err(_) => summary.skipped += 1,
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::build_spec_graph;
    use cct_core::{CliqueTreeSampler, EngineChoice, PreparedSampler, SamplerConfig, WalkLength};
    use rand::SeedableRng;

    fn quick_config(factor: f64) -> SamplerConfig {
        SamplerConfig::new()
            .walk_length(WalkLength::ScaledCubic { factor })
            .engine(EngineChoice::UnitCost)
    }

    fn quick_options() -> ServeOptions {
        ServeOptions::new()
            .workers(1)
            .config(Algorithm::Thm1, quick_config(4.0))
            .config(Algorithm::Exact, quick_config(4.0))
    }

    fn prepared_for(spec: &str, options: &ServeOptions) -> Arc<PreparedSampler> {
        Arc::new(prepare_key(&key(spec), options).unwrap())
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
        // Serve a draw from each, so their phase-1 tables materialize.
        for (_, prepared) in &entries {
            prepared
                .sample(&mut rand::rngs::StdRng::seed_from_u64(1))
                .unwrap();
        }
        let keys: Vec<CacheKey> = entries.iter().map(|(k, _)| k.clone()).collect();
        let path = tmp_path("roundtrip");
        assert_eq!(write_snapshot(&path, &keys).unwrap(), 2);
        // Header, two (tag, length, spec) keys, checksum: nothing else.
        let size = 8 + 4 + 4 + (1 + 4 + 8) + (1 + 4 + 8) + 8;
        assert_eq!(std::fs::metadata(&path).unwrap().len(), size);
        let cache = PreparedCache::new(8);
        let summary = load_snapshot(&path, &options, &cache).unwrap();
        assert_eq!(
            summary,
            RestoreSummary {
                restored: 2,
                skipped: 0
            }
        );
        // Restored entries are as warm as the served ones and serve
        // identical draws without re-preparing.
        for (k, original) in &entries {
            let (restored, info) = cache.get_or_prepare(k, || panic!("must hit"));
            let restored = restored.unwrap();
            assert!(info.hit);
            assert_eq!(restored.matrix_bytes(), original.matrix_bytes());
            let mut a = rand::rngs::StdRng::seed_from_u64(7);
            let mut b = rand::rngs::StdRng::seed_from_u64(7);
            let ra = original.sample(&mut a).unwrap();
            let rb = restored.sample(&mut b).unwrap();
            assert_eq!(ra.tree.edges(), rb.tree.edges());
            assert_eq!(ra.rounds, rb.rounds);
        }
        assert_eq!(cache.stats().total_prepares(), 0);
        assert_eq!(cache.ready_keys(), keys, "LRU order kept");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_files_are_rejected_whole() {
        let path = tmp_path("corrupt");
        write_snapshot(&path, &[key("petersen")]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let cache = PreparedCache::new(8);
        let err = load_snapshot(&path, &quick_options(), &cache).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        assert_eq!(cache.stats().len, 0, "nothing installed from a bad file");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn keys_written_under_another_config_reprepare_under_the_current_one() {
        let path = tmp_path("other-config");
        write_snapshot(&path, &[key("petersen")]).unwrap();
        // Same file, different serving config: the key is prepared
        // under the current config and draws as a cold run under it.
        let config = quick_config(8.0);
        let other = quick_options().config(Algorithm::Thm1, config.clone());
        let cache = PreparedCache::new(8);
        let summary = load_snapshot(&path, &other, &cache).unwrap();
        assert_eq!(
            summary,
            RestoreSummary {
                restored: 1,
                skipped: 0
            }
        );
        let (restored, _) = cache.get_or_prepare(&key("petersen"), || panic!("must hit"));
        let restored = restored.unwrap();
        assert_eq!(restored.config(), &config);
        let graph = build_spec_graph("petersen", Algorithm::Thm1).unwrap();
        for seed in 0..3 {
            let mut a = rand::rngs::StdRng::seed_from_u64(seed);
            let mut b = rand::rngs::StdRng::seed_from_u64(seed);
            let cold = CliqueTreeSampler::new(config.clone())
                .sample(&graph, &mut a)
                .unwrap();
            let got = restored.sample(&mut b).unwrap();
            assert_eq!(got.tree, cold.tree, "seed {seed}");
            assert_eq!(got.rounds, cold.rounds, "seed {seed}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn keys_that_no_longer_prepare_are_skipped_not_the_file() {
        let path = tmp_path("unpreparable");
        let mst = CacheKey {
            algorithm: Algorithm::Mst,
            graph_spec: "petersen".into(),
        };
        write_snapshot(&path, &[key("no-such-family:4"), mst, key("petersen")]).unwrap();
        let cache = PreparedCache::new(8);
        let summary = load_snapshot(&path, &quick_options(), &cache).unwrap();
        assert_eq!(
            summary,
            RestoreSummary {
                restored: 1,
                skipped: 2
            }
        );
        assert_eq!(cache.ready_keys(), [key("petersen")]);
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
        let path = tmp_path("truncated");
        write_snapshot(&path, &[key("petersen")]).unwrap();
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
        // A sealed file of another version — here version 4, which also
        // stored each entry's matrices — is rejected whole by its
        // version field.
        let mut old = bytes[..bytes.len() - 8].to_vec();
        old[8..12].copy_from_slice(&4u32.to_le_bytes());
        let checksum = fnv64(&old);
        old.extend_from_slice(&checksum.to_le_bytes());
        std::fs::write(&path, &old).unwrap();
        let err = load_snapshot(&path, &options, &cache).unwrap_err();
        assert!(err.contains("version 4 unsupported"), "{err}");
        assert_eq!(cache.stats().len, 0);
        std::fs::remove_file(&path).unwrap();
    }
}
