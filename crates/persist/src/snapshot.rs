//! Shard-summary snapshots.
//!
//! A snapshot is one checksummed record in its own `snap-<id hex>.snap`
//! file, written atomically (temp + fsync + rename). It carries the
//! shard's [`fc_core::streaming::MergeReduce::snapshot`] summary — a
//! valid coreset of everything the shard has applied — plus the level to
//! reinstall it at, the WAL sequence number it covers, the shard's
//! lifetime counters, and the dataset's effective
//! [`fc_core::plan::Plan`] wire form (making every snapshot file
//! self-describing). Recovery loads the newest snapshot that decodes
//! cleanly and replays only WAL records past its sequence.

use std::fs;
use std::path::Path;

use fc_geom::Dataset;

use crate::meta::write_atomic;
use crate::record::{self, Cursor, Envelope, ReadOutcome};
use crate::PersistError;

/// Payload layout version.
const VERSION: u8 = 1;

/// One shard's persisted summary state.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Snapshot ordinal, strictly increasing per shard. Also names the
    /// file (`snap-<id hex>.snap`).
    pub id: u64,
    /// The last WAL sequence number whose effect this summary includes.
    /// Replay applies only records with larger sequence numbers.
    pub seq: u64,
    /// Merge-&-reduce level to reinstall the summary at, so a recovered
    /// stream keeps compacting on the same schedule.
    pub level: u32,
    /// Lifetime ingest blocks this shard had applied.
    pub blocks: u64,
    /// Lifetime ingest points this shard had applied.
    pub points: u64,
    /// Lifetime ingest weight this shard had applied.
    pub weight: f64,
    /// The dataset's effective plan at snapshot time, in its stable JSON
    /// wire form.
    pub plan_json: String,
    /// The summary coreset data; `None` for a shard that had applied no
    /// blocks yet.
    pub summary: Option<Dataset>,
    /// Exactly-once dedup state: for each ingest client whose batches
    /// this shard applied, the highest per-dataset sequence number whose
    /// effect the summary includes, sorted by client id. A trailing
    /// extension — snapshots written before it decode with an empty
    /// table, and an empty table adds no bytes.
    pub clients: Vec<(String, u64)>,
}

impl Snapshot {
    /// The snapshot as one sealed on-disk record.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let at = Envelope::Record.open(&mut out);
        out.push(VERSION);
        record::put_u64(&mut out, self.id);
        record::put_u64(&mut out, self.seq);
        record::put_u32(&mut out, self.level);
        record::put_u64(&mut out, self.blocks);
        record::put_u64(&mut out, self.points);
        record::put_f64(&mut out, self.weight);
        record::put_str(&mut out, &self.plan_json);
        match &self.summary {
            None => out.push(0),
            Some(data) => {
                out.push(1);
                record::put_dataset(&mut out, data);
            }
        }
        if !self.clients.is_empty() {
            record::put_u32(&mut out, self.clients.len() as u32);
            for (client, seq) in &self.clients {
                record::put_str(&mut out, client);
                record::put_u64(&mut out, *seq);
            }
        }
        Envelope::Record.seal(&mut out, at);
        out
    }

    fn decode(payload: &[u8]) -> Option<Snapshot> {
        let mut cur = Cursor::new(payload);
        if cur.u8()? != VERSION {
            return None;
        }
        let id = cur.u64()?;
        let seq = cur.u64()?;
        let level = cur.u32()?;
        let blocks = cur.u64()?;
        let points = cur.u64()?;
        let weight = cur.f64()?;
        let plan_json = cur.str()?;
        let summary = match cur.u8()? {
            0 => None,
            1 => Some(record::get_dataset(&mut cur)?),
            _ => return None,
        };
        let mut clients = Vec::new();
        if !cur.is_done() {
            let n = cur.u32()? as usize;
            if n == 0 {
                return None;
            }
            for _ in 0..n {
                let client = cur.str()?;
                let seq = cur.u64()?;
                clients.push((client, seq));
            }
        }
        cur.is_done().then_some(Snapshot {
            id,
            seq,
            level,
            blocks,
            points,
            weight,
            plan_json,
            summary,
            clients,
        })
    }

    /// The file name a snapshot with this id lives under.
    pub(crate) fn file_name(id: u64) -> String {
        format!("snap-{id:016x}.snap")
    }

    /// Writes the snapshot file atomically under `dir`.
    pub fn store(&self, dir: &Path) -> Result<(), PersistError> {
        write_atomic(&dir.join(Self::file_name(self.id)), &self.encode())?;
        Ok(())
    }

    /// Loads and verifies one snapshot file. Torn or corrupt files are
    /// [`PersistError::Corrupt`] — the caller falls back to an older
    /// snapshot.
    pub fn load(path: &Path) -> Result<Snapshot, PersistError> {
        let corrupt = |message: &str| PersistError::Corrupt {
            path: path.to_owned(),
            message: message.to_owned(),
        };
        let buf = fs::read(path)?;
        let mut pos = 0;
        let payload = match record::read_framed(&buf, &mut pos) {
            ReadOutcome::Record(payload) => payload,
            ReadOutcome::Eof => return Err(corrupt("empty snapshot file")),
            ReadOutcome::Torn => return Err(corrupt("torn snapshot record")),
        };
        if pos != buf.len() {
            return Err(corrupt("trailing bytes after snapshot record"));
        }
        Snapshot::decode(payload).ok_or_else(|| corrupt("undecodable snapshot payload"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_geom::Points;

    fn sample() -> Snapshot {
        let points = Points::from_flat(vec![0.0, 1.0, 2.5, -3.5], 2).unwrap();
        let data = Dataset::weighted(points, vec![1.5, 4.0]).unwrap();
        Snapshot {
            id: 7,
            seq: 1234,
            level: 3,
            blocks: 41,
            points: 90_000,
            weight: 90_000.5,
            plan_json:
                r#"{"k":4,"kind":"kmeans","m":160,"method":"fast-coreset","solver":"lloyd"}"#.into(),
            summary: Some(data),
            clients: vec![("producer-a".into(), 42), ("producer-b".into(), 7)],
        }
    }

    #[test]
    fn snapshot_survives_store_and_load() {
        let dir = std::env::temp_dir().join(format!("fc-persist-snap-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let snap = sample();
        snap.store(&dir).unwrap();
        let loaded = Snapshot::load(&dir.join(Snapshot::file_name(7))).unwrap();
        assert_eq!(loaded, snap);
        // Empty-shard snapshots (no summary, no clients) round-trip too.
        let empty = Snapshot {
            summary: None,
            clients: Vec::new(),
            id: 8,
            ..snap
        };
        empty.store(&dir).unwrap();
        assert_eq!(
            Snapshot::load(&dir.join(Snapshot::file_name(8))).unwrap(),
            empty
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_snapshots_are_corrupt_not_panics() {
        let dir = std::env::temp_dir().join(format!("fc-persist-snapbad-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let snap = sample();
        snap.store(&dir).unwrap();
        let path = dir.join(Snapshot::file_name(7));
        let full = fs::read(&path).unwrap();
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            assert!(
                matches!(Snapshot::load(&path), Err(PersistError::Corrupt { .. })),
                "cut at {cut} must be corrupt"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }
}
