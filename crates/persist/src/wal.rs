//! The per-shard write-ahead log.
//!
//! A [`ShardLog`] owns one shard directory. Appends carry monotonically
//! increasing sequence numbers and go to the current segment file
//! (`wal-<first seq hex>.log`); a segment that outgrows
//! [`LogOptions::segment_bytes`] is rotated. [`FsyncPolicy`] decides when
//! appended bytes become durable: `Always` fsyncs every append (an
//! acknowledged batch survives `kill -9`), `Interval` fsyncs when the
//! configured age has passed, `Never` leaves flushing to the OS.
//!
//! [`ShardLog::open`] *is* recovery: it picks the newest snapshot file
//! that decodes cleanly, scans every segment in order, truncates any torn
//! tail in place, and returns the snapshot plus the records past it.
//! [`ShardLog::install_snapshot`] makes the reverse transition: persist
//! the current summary atomically, then prune every segment the snapshot
//! covers.

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fc_geom::Dataset;

use crate::record::{self, Cursor, Envelope, ReadOutcome};
use crate::snapshot::Snapshot;
use crate::PersistError;

/// When appended WAL bytes are fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync on every append: an acknowledged ingest batch is durable
    /// against power loss and `kill -9`. The default.
    Always,
    /// Fsync an append when at least this long has passed since the last
    /// fsync: bounds the data-loss window without paying a sync per
    /// batch.
    Interval(Duration),
    /// Never fsync from the log (segment rotation and snapshots still
    /// sync); a crash may lose everything the OS had not flushed.
    Never,
}

impl FsyncPolicy {
    /// The canonical flag spelling (`always` / `interval` / `never`).
    pub fn name(&self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Interval(_) => "interval",
            FsyncPolicy::Never => "never",
        }
    }
}

/// Tuning for one shard's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogOptions {
    /// Fsync policy for appends.
    pub fsync: FsyncPolicy,
    /// Rotate the current segment once it holds at least this many bytes.
    pub segment_bytes: u64,
}

impl Default for LogOptions {
    /// Durable-by-default: fsync every append, rotate at 8 MiB.
    fn default() -> Self {
        Self {
            fsync: FsyncPolicy::Always,
            segment_bytes: 8 << 20,
        }
    }
}

/// Optional per-record provenance carried alongside a WAL append. Both
/// fields are trailing extensions of the record payload: meta-less
/// records are byte-identical to the pre-extension format, and records
/// written before the extension existed decode with an empty meta.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordMeta {
    /// Exactly-once ingest identity: the client id and its monotonic
    /// per-dataset sequence number for this batch. Replay rebuilds the
    /// engine's dedup table from these, so a retry after `kill -9`
    /// cannot double-count a batch that was already durable.
    pub client: Option<(String, u64)>,
    /// The request trace id that caused this append, when the request
    /// carried one — correlates durability stalls in the WAL with
    /// request latency in the trace log.
    pub trace: Option<String>,
}

impl RecordMeta {
    /// Whether there is anything to persist.
    pub fn is_empty(&self) -> bool {
        self.client.is_none() && self.trace.is_none()
    }
}

const META_FLAG_CLIENT: u8 = 0x01;
const META_FLAG_TRACE: u8 = 0x02;

/// One recovered (or replayable) log entry: the batch a shard applied.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The entry's sequence number (strictly increasing per shard).
    pub seq: u64,
    /// The ingested block.
    pub block: Dataset,
    /// Provenance the append carried (empty for most records).
    pub meta: RecordMeta,
}

/// What [`ShardLog::open`] reconstructed from disk.
#[derive(Debug)]
pub struct Recovered {
    /// The newest snapshot that decoded cleanly, if any.
    pub snapshot: Option<Snapshot>,
    /// Every durable record past the snapshot, in apply order.
    pub tail: Vec<WalRecord>,
}

impl Recovered {
    /// The highest durable sequence number on disk — what a replaying
    /// shard must reach before it has caught up with its own past.
    pub fn durable_seq(&self) -> u64 {
        self.tail
            .last()
            .map(|r| r.seq)
            .or(self.snapshot.as_ref().map(|s| s.seq))
            .unwrap_or(0)
    }
}

/// A shard's write-ahead log and snapshot directory. Not internally
/// synchronized: the serving engine wraps each shard's log in a mutex
/// shared by the ingest path and the shard worker.
pub struct ShardLog {
    dir: PathBuf,
    options: LogOptions,
    /// Current segment, positioned at its end.
    file: File,
    segment_path: PathBuf,
    segment_len: u64,
    /// Whether the current segment holds any records (rotation never
    /// leaves two consecutive empty segments).
    segment_records: bool,
    next_seq: u64,
    last_sync: Instant,
    dirty: bool,
    /// `(offset before the append, seq)` of the most recent append, for
    /// [`Self::rollback`].
    last_append: Option<(u64, u64)>,
    bytes_since_snapshot: u64,
    last_snapshot_id: u64,
    last_snapshot_seq: u64,
}

fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:016x}.log")
}

/// Parses `prefix-<16 hex>.<ext>` file names back to their number.
fn parse_numbered(name: &str, prefix: &str, ext: &str) -> Option<u64> {
    let hex = name.strip_prefix(prefix)?.strip_suffix(ext)?;
    (hex.len() == 16).then(|| u64::from_str_radix(hex, 16).ok())?
}

impl ShardLog {
    /// Opens (creating as needed) a shard directory and recovers its
    /// durable state: newest valid snapshot + WAL tail, with torn tails
    /// truncated in place. The returned log appends after the highest
    /// durable sequence number.
    pub fn open(dir: &Path, options: LogOptions) -> Result<(ShardLog, Recovered), PersistError> {
        fs::create_dir_all(dir)?;
        let snapshot = Self::newest_valid_snapshot(dir)?;
        let snap_seq = snapshot.as_ref().map_or(0, |s| s.seq);

        let mut tail = Vec::new();
        let mut max_seq = snap_seq;
        let segments = Self::list_segments(dir)?;
        for (first_seq, path) in &segments {
            max_seq = max_seq.max(first_seq.saturating_sub(1));
            let buf = fs::read(path)?;
            let mut pos = 0;
            loop {
                let record_start = pos;
                match record::read_framed(&buf, &mut pos) {
                    ReadOutcome::Record(payload) => match decode_wal_payload(payload) {
                        Some(rec) => {
                            max_seq = max_seq.max(rec.seq);
                            if rec.seq > snap_seq {
                                tail.push(rec);
                            }
                        }
                        // A checksummed record whose payload does not
                        // decode is treated like a tear: cut here.
                        None => {
                            truncate_segment(path, record_start as u64)?;
                            break;
                        }
                    },
                    ReadOutcome::Eof => break,
                    ReadOutcome::Torn => {
                        truncate_segment(path, record_start as u64)?;
                        break;
                    }
                }
            }
        }
        // Records land in scan order; segments are scanned in first-seq
        // order, so the tail is already ordered — but a crash between
        // "rotate" and "prune" can leave duplicates across a boundary.
        tail.sort_by_key(|r| r.seq);
        tail.dedup_by_key(|r| r.seq);

        let next_seq = max_seq + 1;
        let (segment_path, segment_len, segment_records) = match segments.last() {
            Some((_, path)) => {
                let len = fs::metadata(path)?.len();
                (path.clone(), len, len > 0)
            }
            None => (dir.join(segment_name(next_seq)), 0, false),
        };
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&segment_path)?;
        file.seek(SeekFrom::End(0))?;

        let log = ShardLog {
            dir: dir.to_owned(),
            options,
            file,
            segment_path,
            segment_len,
            segment_records,
            next_seq,
            last_sync: Instant::now(),
            dirty: false,
            last_append: None,
            // Everything currently in segments is replay debt; counting
            // it pushes a restarted shard toward a fresh snapshot.
            bytes_since_snapshot: segments
                .iter()
                .map(|(_, p)| fs::metadata(p).map(|m| m.len()).unwrap_or(0))
                .sum(),
            last_snapshot_id: snapshot.as_ref().map_or(0, |s| s.id),
            last_snapshot_seq: snap_seq,
        };
        Ok((log, Recovered { snapshot, tail }))
    }

    fn newest_valid_snapshot(dir: &Path) -> Result<Option<Snapshot>, PersistError> {
        let mut ids: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(id) = parse_numbered(name, "snap-", ".snap") {
                ids.push((id, path));
            }
        }
        ids.sort_by_key(|&(id, _)| std::cmp::Reverse(id));
        for (_, path) in ids {
            match Snapshot::load(&path) {
                Ok(snap) => return Ok(Some(snap)),
                // A torn newest snapshot (crash mid-install before the
                // rename... cannot happen, but a corrupt file can) falls
                // back to the previous one.
                Err(PersistError::Corrupt { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, PersistError> {
        let mut segments: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(first_seq) = parse_numbered(name, "wal-", ".log") {
                segments.push((first_seq, path));
            }
        }
        segments.sort_by_key(|(first_seq, _)| *first_seq);
        Ok(segments)
    }

    /// Appends one ingest block, assigning and returning its sequence
    /// number. Durability follows the fsync policy; rotation happens
    /// before the append so a record never straddles segments.
    pub fn append(&mut self, block: &Dataset) -> Result<u64, PersistError> {
        self.append_with(block, &RecordMeta::default())
    }

    /// [`Self::append`] with per-record provenance: the exactly-once
    /// client ident and/or the request trace id ride inside the record,
    /// so both survive exactly as long as the data they describe.
    pub fn append_with(&mut self, block: &Dataset, meta: &RecordMeta) -> Result<u64, PersistError> {
        if self.segment_records && self.segment_len >= self.options.segment_bytes {
            self.rotate()?;
        }
        let seq = self.next_seq;
        let mut framed = Vec::new();
        let at = Envelope::Record.open(&mut framed);
        record::put_u64(&mut framed, seq);
        record::put_dataset(&mut framed, block);
        if !meta.is_empty() {
            let mut flags = 0u8;
            if meta.client.is_some() {
                flags |= META_FLAG_CLIENT;
            }
            if meta.trace.is_some() {
                flags |= META_FLAG_TRACE;
            }
            framed.push(flags);
            if let Some((client, client_seq)) = &meta.client {
                record::put_str(&mut framed, client);
                record::put_u64(&mut framed, *client_seq);
            }
            if let Some(trace) = &meta.trace {
                record::put_str(&mut framed, trace);
            }
        }
        Envelope::Record.seal(&mut framed, at);
        let offset = self.segment_len;
        self.file.write_all(&framed)?;
        self.segment_len += framed.len() as u64;
        self.segment_records = true;
        self.next_seq += 1;
        self.dirty = true;
        self.bytes_since_snapshot += framed.len() as u64;
        self.last_append = Some((offset, seq));
        match self.options.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::Interval(age) => {
                if self.last_sync.elapsed() >= age {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(seq)
    }

    /// Undoes the most recent [`Self::append`] — for a batch that was
    /// logged but then refused by a full shard queue, so replay cannot
    /// resurrect a batch the client was told to retry. Only the latest
    /// append can be rolled back, and only once.
    pub fn rollback(&mut self, seq: u64) -> Result<(), PersistError> {
        match self.last_append.take() {
            Some((offset, last_seq)) if last_seq == seq => {
                self.file.set_len(offset)?;
                self.file.seek(SeekFrom::End(0))?;
                self.bytes_since_snapshot -= self.segment_len - offset;
                self.segment_len = offset;
                self.next_seq = seq;
                if self.options.fsync == FsyncPolicy::Always {
                    self.sync()?;
                }
                Ok(())
            }
            _ => Err(PersistError::Invalid(format!(
                "rollback of seq {seq} which is not the last append"
            ))),
        }
    }

    /// Fsyncs any unflushed appends now, regardless of policy.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        if self.dirty {
            self.file.sync_data()?;
            self.dirty = false;
        }
        self.last_sync = Instant::now();
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), PersistError> {
        // Seal the outgoing segment: its records must be durable before
        // anything newer lands in a later file.
        self.file.sync_data()?;
        self.dirty = false;
        let path = self.dir.join(segment_name(self.next_seq));
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.segment_path = path;
        self.segment_len = 0;
        self.segment_records = false;
        self.last_append = None;
        Ok(())
    }

    /// Persists `snap` atomically, then prunes: older snapshot files are
    /// removed, the current segment is rotated (if it holds records) and
    /// every segment whose records are all covered by `snap.seq` is
    /// deleted. After this, recovery replays only what the snapshot
    /// misses.
    pub fn install_snapshot(&mut self, snap: &Snapshot) -> Result<(), PersistError> {
        snap.store(&self.dir)?;
        self.last_snapshot_id = snap.id;
        self.last_snapshot_seq = snap.seq;
        // Remove superseded snapshots (best effort — an undeletable old
        // snapshot only costs disk, never correctness).
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(id) = parse_numbered(name, "snap-", ".snap") {
                if id != snap.id {
                    fs::remove_file(&path).ok();
                }
            }
        }
        if self.segment_records {
            self.rotate()?;
        }
        let segments = Self::list_segments(&self.dir)?;
        // A segment's records span [first_seq, next segment's first_seq);
        // it is fully covered when that upper bound is ≤ snap.seq + 1.
        for pair in segments.windows(2) {
            let (_, ref path) = pair[0];
            let (next_first, _) = pair[1];
            if next_first <= snap.seq + 1 {
                fs::remove_file(path)?;
            }
        }
        self.bytes_since_snapshot = self.segment_len;
        Ok(())
    }

    /// The sequence number the next append will take.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// WAL bytes written since the last installed snapshot (replay debt);
    /// the engine's snapshot-trigger byte threshold watches this.
    pub fn bytes_since_snapshot(&self) -> u64 {
        self.bytes_since_snapshot
    }

    /// The id of the most recently installed (or recovered) snapshot;
    /// `0` before the first.
    pub fn last_snapshot_id(&self) -> u64 {
        self.last_snapshot_id
    }

    /// The WAL sequence covered by the last snapshot.
    pub fn last_snapshot_seq(&self) -> u64 {
        self.last_snapshot_seq
    }

    /// The id the next snapshot should use.
    pub fn next_snapshot_id(&self) -> u64 {
        self.last_snapshot_id + 1
    }
}

fn truncate_segment(path: &Path, len: u64) -> Result<(), PersistError> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_data()?;
    Ok(())
}

fn decode_wal_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut cur = Cursor::new(payload);
    let seq = cur.u64()?;
    let block = record::get_dataset(&mut cur)?;
    let mut meta = RecordMeta::default();
    if !cur.is_done() {
        let flags = cur.u8()?;
        if flags & !(META_FLAG_CLIENT | META_FLAG_TRACE) != 0 {
            return None;
        }
        if flags & META_FLAG_CLIENT != 0 {
            let client = cur.str()?;
            let client_seq = cur.u64()?;
            meta.client = Some((client, client_seq));
        }
        if flags & META_FLAG_TRACE != 0 {
            meta.trace = Some(cur.str()?);
        }
    }
    cur.is_done().then_some(WalRecord { seq, block, meta })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_geom::Points;

    fn block(tag: f64, n: usize) -> Dataset {
        let flat: Vec<f64> = (0..n * 2).map(|i| tag + i as f64).collect();
        Dataset::weighted(
            Points::from_flat(flat, 2).unwrap(),
            (0..n).map(|i| 1.0 + i as f64).collect(),
        )
        .unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fc-persist-wal-{name}-{}", std::process::id()))
    }

    #[test]
    fn appends_recover_in_order_across_reopen() {
        let dir = tmp("basic");
        fs::remove_dir_all(&dir).ok();
        let blocks: Vec<Dataset> = (0..5).map(|i| block(i as f64 * 100.0, 3 + i)).collect();
        {
            let (mut log, recovered) = ShardLog::open(&dir, LogOptions::default()).unwrap();
            assert!(recovered.snapshot.is_none() && recovered.tail.is_empty());
            for (i, b) in blocks.iter().enumerate() {
                assert_eq!(log.append(b).unwrap(), i as u64 + 1);
            }
        }
        let (log, recovered) = ShardLog::open(&dir, LogOptions::default()).unwrap();
        assert_eq!(recovered.tail.len(), 5);
        assert_eq!(recovered.durable_seq(), 5);
        for (i, rec) in recovered.tail.iter().enumerate() {
            assert_eq!(rec.seq, i as u64 + 1);
            assert_eq!(&rec.block, &blocks[i]);
        }
        assert_eq!(log.next_seq(), 6);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_spreads_records_across_segments() {
        let dir = tmp("rotate");
        fs::remove_dir_all(&dir).ok();
        let options = LogOptions {
            segment_bytes: 1, // rotate after every record
            ..LogOptions::default()
        };
        {
            let (mut log, _) = ShardLog::open(&dir, options).unwrap();
            for i in 0..4 {
                log.append(&block(i as f64, 2)).unwrap();
            }
        }
        let segments = ShardLog::list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 4, "one record per segment");
        let (_, recovered) = ShardLog::open(&dir, options).unwrap();
        assert_eq!(recovered.tail.len(), 4);
        assert_eq!(recovered.durable_seq(), 4);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rollback_unwrites_the_last_append() {
        let dir = tmp("rollback");
        fs::remove_dir_all(&dir).ok();
        let (mut log, _) = ShardLog::open(&dir, LogOptions::default()).unwrap();
        log.append(&block(0.0, 2)).unwrap();
        let seq = log.append(&block(1.0, 2)).unwrap();
        log.rollback(seq).unwrap();
        // Rolling back twice (or a stale seq) is a contract error.
        assert!(log.rollback(seq).is_err());
        // The freed sequence number is reused by the next append.
        assert_eq!(log.append(&block(2.0, 2)).unwrap(), seq);
        drop(log);
        let (_, recovered) = ShardLog::open(&dir, LogOptions::default()).unwrap();
        assert_eq!(recovered.tail.len(), 2);
        assert_eq!(recovered.tail[1].block, block(2.0, 2));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn install_snapshot_prunes_covered_segments() {
        let dir = tmp("snapshot");
        fs::remove_dir_all(&dir).ok();
        let options = LogOptions {
            segment_bytes: 1,
            ..LogOptions::default()
        };
        let (mut log, _) = ShardLog::open(&dir, options).unwrap();
        for i in 0..6 {
            log.append(&block(i as f64, 2)).unwrap();
        }
        let snap = Snapshot {
            id: log.next_snapshot_id(),
            seq: 4, // covers records 1..=4; 5 and 6 must survive
            level: 1,
            blocks: 4,
            points: 8,
            weight: 8.0,
            plan_json: r#"{"k":2}"#.into(),
            summary: Some(block(0.0, 3)),
            clients: vec![("producer-a".into(), 4)],
        };
        log.install_snapshot(&snap).unwrap();
        assert_eq!(log.last_snapshot_id(), snap.id);
        let (log2, recovered) = ShardLog::open(&dir, options).unwrap();
        assert_eq!(recovered.snapshot.as_ref().unwrap(), &snap);
        let seqs: Vec<u64> = recovered.tail.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![5, 6]);
        assert_eq!(log2.next_seq(), 7);
        assert_eq!(log2.last_snapshot_seq(), 4);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = tmp("torn");
        fs::remove_dir_all(&dir).ok();
        {
            let (mut log, _) = ShardLog::open(&dir, LogOptions::default()).unwrap();
            for i in 0..3 {
                log.append(&block(i as f64, 2)).unwrap();
            }
        }
        let segments = ShardLog::list_segments(&dir).unwrap();
        let path = &segments[0].1;
        let full = fs::read(path).unwrap();
        // Cut the file mid-way through the last record.
        fs::write(path, &full[..full.len() - 5]).unwrap();
        let (mut log, recovered) = ShardLog::open(&dir, LogOptions::default()).unwrap();
        assert_eq!(recovered.tail.len(), 2, "intact prefix survives");
        assert_eq!(recovered.durable_seq(), 2);
        // The tear is gone from disk and the log keeps appending cleanly.
        assert_eq!(log.append(&block(9.0, 2)).unwrap(), 3);
        drop(log);
        let (_, again) = ShardLog::open(&dir, LogOptions::default()).unwrap();
        assert_eq!(
            again.tail.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_meta_survives_reopen_and_plain_records_stay_empty() {
        let dir = tmp("meta");
        fs::remove_dir_all(&dir).ok();
        let idented = RecordMeta {
            client: Some(("producer-a".to_owned(), 42)),
            trace: Some("r-00000007".to_owned()),
        };
        let trace_only = RecordMeta {
            client: None,
            trace: Some("r-00000008".to_owned()),
        };
        {
            let (mut log, _) = ShardLog::open(&dir, LogOptions::default()).unwrap();
            log.append(&block(0.0, 2)).unwrap();
            log.append_with(&block(1.0, 2), &idented).unwrap();
            log.append_with(&block(2.0, 2), &trace_only).unwrap();
        }
        let (_, recovered) = ShardLog::open(&dir, LogOptions::default()).unwrap();
        assert_eq!(recovered.tail.len(), 3);
        assert!(recovered.tail[0].meta.is_empty());
        assert_eq!(recovered.tail[1].meta, idented);
        assert_eq!(recovered.tail[2].meta, trace_only);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interval_and_never_policies_append_without_syncing() {
        for fsync in [
            FsyncPolicy::Interval(Duration::from_secs(3600)),
            FsyncPolicy::Never,
        ] {
            let dir = tmp(fsync.name());
            fs::remove_dir_all(&dir).ok();
            let options = LogOptions {
                fsync,
                ..LogOptions::default()
            };
            let (mut log, _) = ShardLog::open(&dir, options).unwrap();
            log.append(&block(0.0, 2)).unwrap();
            log.sync().unwrap(); // explicit flush still works
            drop(log);
            let (_, recovered) = ShardLog::open(&dir, options).unwrap();
            assert_eq!(recovered.tail.len(), 1);
            fs::remove_dir_all(&dir).ok();
        }
    }
}
