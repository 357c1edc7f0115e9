//! One shard of a dataset, as state: everything the shard knows and every
//! rule it folds by, with no channel, thread, file handle or clock in it.
//!
//! A [`ShardState`] is one merge-and-reduce stream ([`MergeReduce`]) plus
//! what the engine keeps beside it: the stream's RNG and compaction
//! budget, the lifetime totals and the `(client, seq)` table a checkpoint
//! carries, and the coalescing buffer. Acknowledged batches enter through
//! [`ShardState::push`], which folds at once or parks the rows until
//! enough are pending or the oldest has waited long enough — time enters
//! as an argument, and [`ShardState::deadline`] says when to come back.
//! A checkpoint is the [`Snapshot`] body of what has been folded; recovery
//! is [`ShardState::restore`] from the newest checkpoint, then
//! [`ShardState::replay`] of each record after it, each as its own block.
//!
//! The engine's shard thread is the driver: it feeds the state the
//! commands from its queue, wakes at the deadline, writes checkpoints to
//! the shard's log and publishes gauges.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fc_core::plan::Plan;
use fc_core::streaming::{MergeReduce, StreamingCompressor};
use fc_core::{Compressor, Coreset};
use fc_geom::{Dataset, Points};
use fc_persist::{Snapshot, WalRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// When a shard folds and when it checkpoints: the engine's batching
/// knobs and its snapshot cadence.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Rules {
    /// Fold once this many rows are pending; zero disables the trigger.
    pub(crate) batch_points: usize,
    /// Fold once the oldest pending row has waited this long; zero
    /// disables the trigger. With both triggers off every batch folds as
    /// it arrives.
    pub(crate) batch_delay: Duration,
    /// A checkpoint is due after this many compactions since the last...
    pub(crate) snapshot_compactions: u32,
    /// ...or once the log holds this many bytes past it.
    pub(crate) snapshot_bytes: u64,
}

/// Runs a shard's compactions. The engine times and counts each one into
/// its registry; `()` just runs them.
pub(crate) trait Compactions: Send {
    /// Runs `compact`, one compaction of the shard's stream.
    fn run(&mut self, compact: &mut dyn FnMut());
}

impl Compactions for () {
    fn run(&mut self, compact: &mut dyn FnMut()) {
        compact()
    }
}

/// What a dataset's disk says it has taken in, summed over its shards: the
/// lifetime totals and the `(client, seq)` watermark of each shard's
/// checkpoint and of every record after it. The dataset's ledger starts
/// from these before replay has folded a single record.
#[derive(Debug, Default)]
pub(crate) struct Restored {
    /// Lifetime points.
    pub(crate) points: u64,
    /// Lifetime weight.
    pub(crate) weight: f64,
    /// Highest `seq` per client.
    pub(crate) clients: HashMap<String, u64>,
}

/// Acknowledged rows not folded yet, and what they carry.
#[derive(Default)]
struct Pending {
    /// Row-major coordinates.
    rows: Vec<f64>,
    weights: Vec<f64>,
    /// Sequence number of the newest batch.
    seq: u64,
    clients: Vec<(String, u64)>,
    /// When the oldest arrived.
    since: Option<Instant>,
}

/// One shard: its stream and everything stamped into its checkpoints.
pub(crate) struct ShardState {
    stream: MergeReduce<'static>,
    /// The stream's own deterministic RNG; request-level reproducibility
    /// comes from the query path, which seeds per request.
    rng: StdRng,
    budget: usize,
    dim: usize,
    rules: Rules,
    /// The dataset's effective plan in wire form, stamped into
    /// checkpoints.
    plan_json: String,
    pending: Pending,
    /// Lifetime totals of what has been folded.
    blocks: u64,
    points: u64,
    weight: f64,
    /// Highest `seq` folded per client: the durable half of the dedup
    /// table.
    clients: HashMap<String, u64>,
    /// Sequence number of the newest batch folded (0 without a log).
    applied_seq: u64,
    /// Sequence number the last checkpoint covers.
    checkpoint_seq: u64,
    compactions_since_checkpoint: u32,
    compactions: Box<dyn Compactions>,
}

impl ShardState {
    /// An empty shard of a `dim`-dimensional dataset under `plan`.
    pub(crate) fn new(
        compressor: Arc<dyn Compressor>,
        plan: &Plan,
        dim: usize,
        seed: u64,
        rules: Rules,
        compactions: Box<dyn Compactions>,
    ) -> Self {
        Self {
            stream: MergeReduce::new(compressor, plan.params()),
            rng: StdRng::seed_from_u64(seed),
            budget: plan.effective_budget(),
            dim,
            rules,
            plan_json: plan.to_json(),
            pending: Pending::default(),
            blocks: 0,
            points: 0,
            weight: 0.0,
            clients: HashMap::new(),
            applied_seq: 0,
            checkpoint_seq: 0,
            compactions_since_checkpoint: 0,
            compactions,
        }
    }

    /// Takes one acknowledged batch, logged as `seq` and ingested under
    /// `client`'s identity if any. Folds it at once when batching is off;
    /// otherwise parks it, and folds everything pending as one block once
    /// `batch_points` rows are pending or the oldest has waited
    /// `batch_delay` at `now`. Returns whether it folded.
    pub(crate) fn push(
        &mut self,
        block: &Dataset,
        seq: u64,
        client: Option<&(String, u64)>,
        now: Instant,
    ) -> bool {
        if self.rules.batch_points == 0 && self.rules.batch_delay.is_zero() {
            self.fold(block, seq, client);
            return true;
        }
        let pending = &mut self.pending;
        pending.rows.extend_from_slice(block.points().as_flat());
        pending.weights.extend_from_slice(block.weights());
        pending.seq = seq;
        pending.clients.extend(client.cloned());
        pending.since.get_or_insert(now);
        let full = self.rules.batch_points > 0 && pending.weights.len() >= self.rules.batch_points;
        if full || self.deadline().is_some_and(|at| now >= at) {
            self.flush()
        } else {
            false
        }
    }

    /// When the pending rows must fold by, if the deadline trigger is on
    /// and any are pending.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        let delay = self.rules.batch_delay;
        self.pending
            .since
            .filter(|_| !delay.is_zero())?
            .checked_add(delay)
    }

    /// Folds every pending row as one block. Returns whether there were
    /// any.
    pub(crate) fn flush(&mut self) -> bool {
        if self.pending.weights.is_empty() {
            return false;
        }
        let pending = std::mem::take(&mut self.pending);
        let points = Points::from_flat(pending.rows, self.dim)
            .expect("pending rows are copies of validated ingest batches");
        let block = Dataset::weighted(points, pending.weights)
            .expect("pending weights are copies of validated ingest batches");
        self.fold(&block, pending.seq, &pending.clients);
        true
    }

    /// A coreset of everything folded: the union of the stream's
    /// summaries. `None` before the first fold.
    pub(crate) fn snapshot(&self) -> Option<Coreset> {
        self.stream.snapshot()
    }

    /// Whether a checkpoint is due, with the shard's log `wal_debt` bytes
    /// past the last one: the stream has compacted often enough since, or
    /// replay has that much to do.
    pub(crate) fn checkpoint_due(&self, wal_debt: u64) -> bool {
        self.compactions_since_checkpoint >= self.rules.snapshot_compactions
            || wal_debt >= self.rules.snapshot_bytes
    }

    /// The checkpoint `id` of everything folded, or `None` when the last
    /// one already covers it. Pending rows are not in it: their records
    /// lie past its sequence number, so replay folds them.
    pub(crate) fn checkpoint(&self, id: u64) -> Option<Snapshot> {
        if self.applied_seq <= self.checkpoint_seq {
            return None;
        }
        let mut clients: Vec<(String, u64)> =
            self.clients.iter().map(|(c, &s)| (c.clone(), s)).collect();
        clients.sort();
        Some(Snapshot {
            id,
            seq: self.applied_seq,
            level: self.stream.levels().first().copied().unwrap_or(0),
            blocks: self.blocks,
            points: self.points,
            weight: self.weight,
            plan_json: self.plan_json.clone(),
            summary: self.stream.snapshot().map(|c| c.dataset().clone()),
            clients,
        })
    }

    /// Records that `snapshot`, from [`Self::checkpoint`], is durable.
    pub(crate) fn checkpointed(&mut self, snapshot: &Snapshot) {
        self.checkpoint_seq = snapshot.seq;
        self.compactions_since_checkpoint = 0;
    }

    /// Reinstalls a fresh shard from what its disk holds — its newest
    /// checkpoint and the records after it, which stay for
    /// [`Self::replay`] — and adds their totals and watermark to
    /// `restored`. A summary or record of another dimension can pass its
    /// checksum (a shard directory copied from another dataset) and would
    /// panic the first fold: its dimension is the error.
    pub(crate) fn restore(
        &mut self,
        snapshot: Option<Snapshot>,
        tail: &[WalRecord],
        restored: &mut Restored,
    ) -> Result<(), usize> {
        let summary_dims = snapshot
            .iter()
            .filter_map(|snap| snap.summary.as_ref().map(Dataset::dim));
        let tail_dims = tail.iter().map(|rec| rec.block.dim());
        if let Some(got) = summary_dims.chain(tail_dims).find(|&d| d != self.dim) {
            return Err(got);
        }
        if let Some(snap) = snapshot {
            restored.points += snap.points;
            restored.weight += snap.weight;
            for (client, seq) in &snap.clients {
                raise(&mut restored.clients, client, *seq);
            }
            (self.blocks, self.points, self.weight) = (snap.blocks, snap.points, snap.weight);
            (self.applied_seq, self.checkpoint_seq) = (snap.seq, snap.seq);
            self.clients = snap.clients.into_iter().collect();
            if let Some(summary) = snap.summary {
                self.stream
                    .install(snap.level, Coreset::new(summary))
                    .expect("a fresh stream accepts its own checkpoint");
            }
        }
        for rec in tail {
            restored.points += rec.block.len() as u64;
            restored.weight += rec.block.total_weight();
            if let Some((client, seq)) = &rec.meta.client {
                raise(&mut restored.clients, client, *seq);
            }
        }
        Ok(())
    }

    /// Folds one logged record as its own block.
    pub(crate) fn replay(&mut self, record: &WalRecord) {
        self.fold(&record.block, record.seq, &record.meta.client);
    }

    /// Stream summaries held.
    pub(crate) fn summaries(&self) -> usize {
        self.stream.summary_count()
    }

    /// Points stored across the stream's summaries.
    pub(crate) fn stored_points(&self) -> usize {
        self.stream.stored_points()
    }

    /// Sequence number of the newest batch folded.
    pub(crate) fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Folds `block` into the stream, compacting the level stack into one
    /// summary when stored points exceed the budget.
    fn fold<'c>(
        &mut self,
        block: &Dataset,
        seq: u64,
        clients: impl IntoIterator<Item = &'c (String, u64)>,
    ) {
        self.stream.insert_block(&mut self.rng, block);
        if self.stream.stored_points() > self.budget {
            let (stream, rng) = (&mut self.stream, &mut self.rng);
            self.compactions.run(&mut || stream.compact(rng));
            self.compactions_since_checkpoint += 1;
        }
        self.blocks += 1;
        self.points += block.len() as u64;
        self.weight += block.total_weight();
        for (client, seq) in clients {
            raise(&mut self.clients, client, *seq);
        }
        self.applied_seq = seq;
    }
}

/// Raises `client`'s watermark in `table` to at least `seq`.
fn raise(table: &mut HashMap<String, u64>, client: &str, seq: u64) {
    match table.get_mut(client) {
        Some(have) => *have = (*have).max(seq),
        None => {
            table.insert(client.to_owned(), seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_core::methods::Uniform;
    use fc_core::plan::{Method, PlanBuilder};
    use fc_persist::RecordMeta;
    use rand::Rng;

    const DIM: usize = 3;

    /// Ends the schedule with `Err(message)`.
    macro_rules! ensure {
        ($cond:expr, $($msg:tt)+) => {
            if !$cond {
                return Err(format!($($msg)+));
            }
        };
    }

    fn shard(plan: &Plan, rules: Rules) -> ShardState {
        ShardState::new(Arc::new(Uniform), plan, DIM, 0x5eed, rules, Box::new(()))
    }

    fn batch(rng: &mut StdRng) -> Dataset {
        let n = rng.gen_range(1..40usize);
        let rows = (0..n * DIM).map(|_| rng.gen_range(-50.0..50.0)).collect();
        let weights = (0..n).map(|_| rng.gen_range(0.25..4.0)).collect();
        Dataset::weighted(Points::from_flat(rows, DIM).unwrap(), weights).unwrap()
    }

    fn within_budget(states: [&ShardState; 2], step: usize) -> Result<(), String> {
        for state in states {
            ensure!(
                state.stored_points() <= state.budget,
                "step {step}: {} stored points over a budget of {}",
                state.stored_points(),
                state.budget
            );
        }
        Ok(())
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
    }

    fn bits(coreset: Option<Coreset>) -> Option<(Vec<u64>, Vec<u64>)> {
        coreset.map(|c| {
            let data = c.dataset();
            let rows = data.points().as_flat().iter().map(|v| v.to_bits());
            (
                rows.collect(),
                data.weights().iter().map(|w| w.to_bits()).collect(),
            )
        })
    }

    /// One seeded schedule: random batches, some under an identity, fed to
    /// a shard that checkpoints and crashes — rebuilt each time from its
    /// last checkpoint plus the records logged after it — and to a twin
    /// that runs uninterrupted. Batching is off, a size trigger or a
    /// deadline trigger on synthetic clock readings, by `case % 3`.
    /// Counts what the schedule reached: deadline folds, crashes restored
    /// from a checkpoint, and bit-for-bit comparisons.
    fn schedule(case: u64) -> Result<[usize; 3], String> {
        let mut rng = StdRng::seed_from_u64(0x5a4d_0000 + case);
        let plan = PlanBuilder::new(2)
            .m_scalar(10)
            .method(Method::Uniform)
            .compaction_budget(rng.gen_range(20..120))
            .build()
            .unwrap();
        let batching = case % 3;
        let rules = Rules {
            batch_points: if batching == 1 {
                rng.gen_range(30..200)
            } else {
                0
            },
            batch_delay: Duration::from_millis(if batching == 2 {
                rng.gen_range(1..20)
            } else {
                0
            }),
            snapshot_compactions: rng.gen_range(1..4),
            snapshot_bytes: rng.gen_range(50..400),
        };
        let (mut live, mut whole) = (shard(&plan, rules), shard(&plan, rules));
        let mut log: Vec<WalRecord> = Vec::new();
        let mut checkpoint: Option<Snapshot> = None;
        let mut restored_a_checkpoint = false;
        let mut reached = [0; 3];
        // Half the schedules never checkpoint: their crashes replay the
        // whole log.
        let checkpoints = (case / 3).is_multiple_of(2);
        let mut now = Instant::now();
        for step in 0..rng.gen_range(10..80) {
            now += Duration::from_millis(rng.gen_range(0..6));
            // The driver wakes at the deadline, unless it was busy.
            if rng.gen_bool(0.7) {
                for state in [&mut live, &mut whole] {
                    if state.deadline().is_some_and(|at| at <= now) && state.flush() {
                        reached[0] += 1;
                    }
                }
                within_budget([&live, &whole], step)?;
            }
            match rng.gen_range(0..10) {
                0..=6 => {
                    let block = batch(&mut rng);
                    let client = rng.gen_bool(0.5).then(|| {
                        (
                            ["a", "b", "c"][rng.gen_range(0..3)].to_owned(),
                            rng.gen_range(1..500),
                        )
                    });
                    let seq = log.len() as u64 + 1;
                    for state in [&mut live, &mut whole] {
                        state.push(&block, seq, client.as_ref(), now);
                    }
                    let meta = RecordMeta {
                        client,
                        trace: None,
                    };
                    log.push(WalRecord { seq, block, meta });
                }
                7 => {
                    live.flush();
                    whole.flush();
                }
                8 if checkpoints => {
                    let covered = checkpoint.as_ref().map_or(0, |snap| snap.seq);
                    let debt = log
                        .iter()
                        .filter(|r| r.seq > covered)
                        .map(|r| r.block.len() as u64);
                    if rng.gen_bool(0.5) || live.checkpoint_due(debt.sum()) {
                        if let Some(snap) = live.checkpoint(step as u64) {
                            live.checkpointed(&snap);
                            checkpoint = Some(snap);
                        }
                    }
                }
                8 => {}
                _ => {
                    let covered = checkpoint.as_ref().map_or(0, |snap| snap.seq);
                    let tail: Vec<WalRecord> =
                        log.iter().filter(|r| r.seq > covered).cloned().collect();
                    let mut restored = Restored::default();
                    live = shard(&plan, rules);
                    live.restore(checkpoint.clone(), &tail, &mut restored)
                        .map_err(|got| format!("step {step}: restore refused {got}-d rows"))?;
                    let logged: f64 = log.iter().map(|r| r.block.total_weight()).sum();
                    ensure!(
                        restored.points == log.iter().map(|r| r.block.len() as u64).sum::<u64>()
                            && close(restored.weight, logged),
                        "step {step}: restored totals ({}, {}) are not what was logged",
                        restored.points,
                        restored.weight
                    );
                    ensure!(
                        restored.clients == whole_table(&log),
                        "step {step}: restored watermark"
                    );
                    for record in &tail {
                        live.replay(record);
                        within_budget([&live, &whole], step)?;
                    }
                    restored_a_checkpoint |= checkpoint.is_some();
                    reached[1] += usize::from(checkpoint.is_some());
                }
            }
            within_budget([&live, &whole], step)?;
        }
        live.flush();
        whole.flush();
        ensure!(
            live.applied_seq == log.len() as u64,
            "applied {} of {} records",
            live.applied_seq,
            log.len()
        );
        ensure!(
            live.points == whole.points,
            "points: {} vs {} uninterrupted",
            live.points,
            whole.points
        );
        ensure!(
            close(live.weight, whole.weight),
            "weight: {} vs {}",
            live.weight,
            whole.weight
        );
        ensure!(live.clients == whole.clients, "(client, seq) tables differ");
        ensure!(
            live.clients == whole_table(&log),
            "(client, seq) table is not what was logged"
        );
        for (name, state) in [("recovered", &live), ("uninterrupted", &whole)] {
            let served = state.snapshot().map_or(0.0, |c| c.total_weight());
            ensure!(
                close(served, state.weight),
                "{name}: summary weight {served} vs applied {}",
                state.weight
            );
        }
        if batching == 0 && !restored_a_checkpoint {
            ensure!(
                bits(live.snapshot()) == bits(whole.snapshot()),
                "summaries differ in their bits"
            );
            reached[2] += 1;
        }
        Ok(reached)
    }

    /// Every identity in `log`, max-merged.
    fn whole_table(log: &[WalRecord]) -> HashMap<String, u64> {
        let mut table = HashMap::new();
        for (client, seq) in log.iter().filter_map(|r| r.meta.client.as_ref()) {
            raise(&mut table, client, *seq);
        }
        table
    }

    /// Any schedule of pushes, deadline wakes, queries, checkpoints and
    /// crashes ends where uninterrupted application does. A failing
    /// schedule prints one line: rerun it alone with `schedule(case)`.
    #[test]
    fn checkpoints_and_crashes_end_where_uninterrupted_application_does() {
        let (mut failed, mut reached) = (0, [0; 3]);
        for case in 0..240 {
            match schedule(case) {
                Ok(counts) => reached.iter_mut().zip(counts).for_each(|(r, c)| *r += c),
                Err(e) => {
                    eprintln!("schedule({case}): {e}");
                    failed += 1;
                }
            }
        }
        assert_eq!(failed, 0, "{failed} of 240 schedules failed");
        // [deadline folds, crashes restored from a checkpoint, schedules
        // compared bit for bit]
        assert!(reached.iter().all(|&n| n >= 20), "{reached:?}");
    }
}
