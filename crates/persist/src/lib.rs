//! Snapshot + write-ahead-log durability for the coreset-serving engine.
//!
//! The paper's premise makes persistence almost free: a shard's entire
//! clustering state is a merge-&-reduce stack of weighted points, so a
//! full snapshot is a few kilobytes and the write-ahead log only has to
//! carry raw ingest blocks until the next snapshot. This crate is the
//! mechanism layer — `fc-service` decides *when* to log and snapshot,
//! this crate decides *how* bytes reach disk and come back:
//!
//! - [`record`]: the little-endian record vocabulary and the
//!   length-prefixed, CRC-32-checksummed envelope every on-disk file
//!   uses — and, with a different header, `fc-service`'s binary wire. A
//!   torn tail (partial write at crash) is detected, never mis-parsed.
//! - [`wal`]: a per-shard write-ahead log ([`ShardLog`]) of ingested
//!   blocks with monotonic sequence numbers, segment rotation, an
//!   [`FsyncPolicy`] (`always` / `interval` / `never`), and rollback of
//!   the last append (for batches refused by a full shard queue after
//!   they were logged).
//! - [`snapshot`]: atomic (write-temp, fsync, rename) shard-summary
//!   snapshots — the [`fc_core::streaming::MergeReduce::snapshot`]
//!   coreset plus the dataset's [`fc_core::plan::Plan`] wire form and the
//!   WAL sequence the summary covers. Installing a snapshot prunes every
//!   WAL segment it covers.
//! - [`meta`]: the on-disk layout (`datasets/ds-<fnv64>/shard-NNN/`) and
//!   the per-dataset `meta.json` (name, dimension, shard count, plan).
//!
//! Recovery ([`ShardLog::open`]) = load the newest valid snapshot, replay
//! the WAL records past it, and *truncate* torn tails rather than fail:
//! after a `kill -9`, everything the log acknowledged durable is
//! reconstructed and the half-written suffix is discarded.
//!
//! Like the rest of the workspace this crate is std-only — no external
//! dependencies beyond the sibling `fc-*` crates.

pub mod meta;
pub mod record;
pub mod snapshot;
pub mod wal;

pub use meta::{dataset_dir, fnv64, list_datasets, shard_dir, DatasetMeta};
pub use record::crc32;
pub use snapshot::Snapshot;
pub use wal::{FsyncPolicy, LogOptions, RecordMeta, Recovered, ShardLog, WalRecord};

use std::path::PathBuf;

/// A durability-layer failure.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// A file decoded to something structurally impossible. Torn *tails*
    /// are not errors (recovery truncates them); this is for damage the
    /// checksum caught in the middle of a file or an undecodable payload.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What failed to decode.
        message: String,
    },
    /// A caller-side contract violation (e.g. rolling back a sequence
    /// number that was not the last append).
    Invalid(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persist io error: {e}"),
            PersistError::Corrupt { path, message } => {
                write!(f, "corrupt persist file {}: {message}", path.display())
            }
            PersistError::Invalid(msg) => write!(f, "invalid persist operation: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}
