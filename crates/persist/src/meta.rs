//! The on-disk layout and per-dataset metadata.
//!
//! ```text
//! <data-dir>/
//!   datasets/
//!     ds-<fnv64(name) hex>/      one directory per dataset
//!       meta.json                name, dimension, shard count, plan
//!       shard-000/               one directory per shard
//!         wal-<first seq hex>.log
//!         snap-<id hex>.snap
//!       shard-001/ ...
//! ```
//!
//! Dataset names are arbitrary strings (the protocol allows `"a/b c"`),
//! so directories are named by the same string hash ([`fnv64`]) the
//! engine seeds shards with; the real name lives in `meta.json` and is verified on
//! recovery. `meta.json` is plain JSON (one atomic rename writes it once,
//! at dataset creation) through the workspace's own codec.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use fc_core::json::{self, Value};
use fc_core::plan::Plan;

use crate::PersistError;

/// A 64-bit FNV-1a-shaped hash over a name: the FNV-1a offset basis and
/// xor-then-multiply loop, but with the multiplier `0x1000_0000_01b3`
/// rather than the FNV prime `0x100_0000_01b3`, so it is *not* FNV-1a
/// and matches no published test vector. It names on-disk dataset
/// directories, and `fc-service` seeds shard RNGs and starts the
/// coordinator's block deal through this same function, so the constant
/// stays: changing it would orphan every existing data directory. (The
/// fleet's rendezvous ranking hashes with its own, true FNV-1a.)
pub fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The directory a dataset persists under.
pub fn dataset_dir(data_dir: &Path, name: &str) -> PathBuf {
    data_dir
        .join("datasets")
        .join(format!("ds-{:016x}", fnv64(name)))
}

/// The directory one shard of a dataset persists under.
pub fn shard_dir(dataset_dir: &Path, shard: usize) -> PathBuf {
    dataset_dir.join(format!("shard-{shard:03}"))
}

/// What `meta.json` records about a dataset: enough to rebuild its
/// engine entry before replaying any shard state.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetMeta {
    /// The dataset's protocol-visible name.
    pub name: String,
    /// Point dimensionality (fixed at the creating ingest).
    pub dim: usize,
    /// Number of shard subdirectories.
    pub shards: usize,
    /// The dataset's *explicit* plan, when the creating ingest carried
    /// one. `None` means the dataset runs the engine default — which is
    /// re-resolved on recovery, so a restarted server's `--k`/`--method`
    /// flags apply to default-plan datasets exactly as they did live.
    pub plan: Option<Plan>,
}

impl DatasetMeta {
    fn to_value(&self) -> Value {
        json::object([
            ("name", Value::from(self.name.as_str())),
            ("dim", Value::from(self.dim)),
            ("shards", Value::from(self.shards)),
            (
                "plan",
                self.plan.as_ref().map_or(Value::Null, Plan::to_value),
            ),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("missing `name`")?
            .to_owned();
        let dim = v
            .get("dim")
            .and_then(Value::as_usize)
            .ok_or("missing `dim`")?;
        let shards = v
            .get("shards")
            .and_then(Value::as_usize)
            .filter(|&s| s >= 1)
            .ok_or("missing `shards`")?;
        let plan = match v.get("plan") {
            None | Some(Value::Null) => None,
            Some(p) => Some(Plan::from_value(p).map_err(|e| format!("plan: {e}"))?),
        };
        Ok(Self {
            name,
            dim,
            shards,
            plan,
        })
    }

    /// Writes `meta.json` under `dataset_dir` (atomically, creating the
    /// directory as needed).
    pub fn store(&self, dataset_dir: &Path) -> Result<(), PersistError> {
        fs::create_dir_all(dataset_dir)?;
        write_atomic(
            &dataset_dir.join("meta.json"),
            self.to_value().to_json().as_bytes(),
        )?;
        Ok(())
    }

    /// Reads `meta.json` from `dataset_dir`.
    pub fn load(dataset_dir: &Path) -> Result<Self, PersistError> {
        let path = dataset_dir.join("meta.json");
        let corrupt = |message: String| PersistError::Corrupt {
            path: path.clone(),
            message,
        };
        let text = fs::read_to_string(&path)?;
        let value = json::parse(&text).map_err(|e| corrupt(e.to_string()))?;
        Self::from_value(&value).map_err(corrupt)
    }
}

/// Every recoverable dataset under `data_dir`, as `(dataset dir, meta)`.
/// Directories without a readable `meta.json` are an error — a dataset
/// that half-exists should fail recovery loudly, not vanish quietly.
pub fn list_datasets(data_dir: &Path) -> Result<Vec<(PathBuf, DatasetMeta)>, PersistError> {
    let root = data_dir.join("datasets");
    let mut out = Vec::new();
    let entries = match fs::read_dir(&root) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let dir = entry?.path();
        if !dir.is_dir() {
            continue;
        }
        let meta = DatasetMeta::load(&dir)?;
        out.push((dir, meta));
    }
    // Deterministic recovery order (read_dir order is filesystem-defined).
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the target, best-effort directory fsync. A crash
/// leaves either the old file or the new one, never a tear.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(dir) = fs::File::open(parent) {
            dir.sync_all().ok();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_core::plan::PlanBuilder;

    #[test]
    fn meta_round_trips_with_and_without_plan() {
        let dir = std::env::temp_dir().join(format!("fc-persist-meta-{}", std::process::id()));
        let plan = PlanBuilder::new(3).m_scalar(10).build().unwrap();
        for plan in [None, Some(plan)] {
            let meta = DatasetMeta {
                name: "spread/με δ".into(),
                dim: 4,
                shards: 2,
                plan,
            };
            let ds = dataset_dir(&dir, &meta.name);
            meta.store(&ds).unwrap();
            assert_eq!(DatasetMeta::load(&ds).unwrap(), meta);
        }
        let found = list_datasets(&dir).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].1.name, "spread/με δ");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn listing_a_missing_data_dir_is_empty_not_an_error() {
        let none = Path::new("/nonexistent/fc-persist-test");
        assert!(list_datasets(none).unwrap().is_empty());
    }

    #[test]
    fn layout_hashes_hostile_names() {
        let dir = Path::new("/data");
        let ds = dataset_dir(dir, "a/../b c\n");
        let name = ds.file_name().unwrap().to_str().unwrap();
        assert!(name.starts_with("ds-") && name.len() == 19, "{name}");
        assert_eq!(shard_dir(&ds, 7).file_name().unwrap(), "shard-007");
    }

    /// Directory names are part of the on-disk format: a change to
    /// [`fnv64`] (even one that makes it true FNV-1a) would leave every
    /// existing dataset directory unfound on recovery.
    #[test]
    fn dataset_dir_names_are_pinned() {
        let dir = Path::new("/data");
        assert_eq!(
            dataset_dir(dir, "a"),
            Path::new("/data/datasets/ds-af74d84c8601ec8c")
        );
        assert_eq!(
            dataset_dir(dir, "a/b c"),
            Path::new("/data/datasets/ds-e525eebc43112c30")
        );
    }
}
