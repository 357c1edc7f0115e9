//! The coordinator's fleet as one record: the versioned placement map
//! and, in the same roster order, each member's node handle beside the
//! histogram its requests observe, so the three are aligned by
//! construction. It sends nothing and takes no lock or clock of its
//! own: the coordinator holds one `FleetState` behind one lock and
//! carries out what it decides through `NodeHandle::request`.
//!
//! The fleet decisions live here: which replicas a re-sent batch
//! repairs, the health fingerprint cached answers are keyed by, how
//! per-node stats fold, and what a membership change re-homes
//! ([`Rehome`]) and from which copy.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use fc_fleet::{FleetError, FleetMap};
use fc_service::protocol::{DatasetStats, IngestIdent};
use fc_telemetry::{labeled, Histogram, Registry};

use crate::node::{NodeHandle, NodeTimeouts};

/// One roster entry.
#[derive(Clone)]
pub(crate) struct Member {
    pub(crate) node: Arc<NodeHandle>,
    /// `fc_node_request_seconds{node=…}`: wall time of each request to
    /// this node (its retries and timeouts included), whatever the op.
    pub(crate) seconds: Histogram,
}

impl Member {
    fn new(node: NodeHandle, registry: &Registry) -> Self {
        let name = labeled("fc_node_request_seconds", &[("node", node.addr())]);
        Self {
            seconds: registry.histogram(&name),
            node: Arc::new(node),
        }
    }
}

/// The placement map and the members it indexes. The roster only grows
/// (a drained member is marked in the map, never removed), so an index
/// handed out at one epoch names the same node at the next.
pub(crate) struct FleetState {
    map: FleetMap,
    members: Vec<Member>,
    /// Per `(dataset, member)` whose copy a membership change shipped as
    /// a coreset, the coordinator's per-client watermarks as the change
    /// began (`None` until the copy is in place): the copy holds those
    /// batches under a gate that never saw them, so their re-sends must
    /// not repair it.
    shipped: BTreeMap<(String, usize), Option<HashMap<String, u64>>>,
    /// Per dataset, copies the map no longer reads that a change kept: a
    /// fill or a drop failed, or no reader held every write. The next
    /// change retries them.
    strays: BTreeMap<String, Vec<usize>>,
    /// `(dataset, member)` copies known to lack an acknowledged write: a
    /// replica write to them failed while another replica took it, or
    /// they were filled from such a copy, or not filled at all.
    missed: BTreeSet<(String, usize)>,
}

/// What one membership change asks of one dataset, as roster indices.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct Rehome {
    /// Members the new map reads that must first receive a copy.
    pub(crate) targets: Vec<usize>,
    /// Targets an earlier change kept as strays: one that still holds a
    /// copy is never filled on top of it.
    pub(crate) rejoin: Vec<usize>,
    /// Members holding a copy a target may be filled from, in the order
    /// to try them: the `complete` ones first, leavers (which take no
    /// later writes) before those that stay.
    pub(crate) sources: Vec<usize>,
    /// Old holders not known to have missed a write: a target filled from
    /// one of them holds the whole dataset.
    pub(crate) complete: Vec<usize>,
    /// Members holding a copy the new map does not read: each drops the
    /// dataset once every target is filled and some member the new map
    /// reads holds the whole dataset.
    pub(crate) retire: Vec<usize>,
}

impl FleetState {
    /// A fleet over `map`'s roster, every node dialed under `timeouts`
    /// and offered the binary upgrade when `binary_wire`.
    pub(crate) fn new(
        map: FleetMap,
        timeouts: NodeTimeouts,
        binary_wire: bool,
        registry: &Registry,
    ) -> Self {
        let node = |m: &fc_fleet::Member| NodeHandle::new(m.addr(), timeouts, binary_wire);
        let members = map.members().iter().map(|m| Member::new(node(m), registry));
        Self {
            members: members.collect(),
            map,
            shipped: BTreeMap::new(),
            strays: BTreeMap::new(),
            missed: BTreeSet::new(),
        }
    }

    pub(crate) fn map(&self) -> &FleetMap {
        &self.map
    }

    /// Every member, indexed by roster position.
    pub(crate) fn members(&self) -> &[Member] {
        &self.members
    }

    /// Every member's node, indexed by roster position.
    pub(crate) fn nodes(&self) -> Vec<Arc<NodeHandle>> {
        self.members.iter().map(|m| Arc::clone(&m.node)).collect()
    }

    /// Whether datasets live on replica sets (R ≥ 2) rather than in
    /// shares spread over every member.
    pub(crate) fn replicated(&self) -> bool {
        self.map.replication() >= 2
    }

    /// Where a re-sent batch of `name` goes as repair: its replicas
    /// (none under spread placement), less those whose shipped copy
    /// already holds it.
    pub(crate) fn repairers(&self, name: &str, ident: &IngestIdent) -> Vec<usize> {
        let mut replicas = match self.replicated() {
            true => self.map.replicas(name),
            false => Vec::new(),
        };
        replicas.retain(|&idx| match self.shipped.get(&(name.to_owned(), idx)) {
            None => true,
            Some(marks) => marks.as_ref().is_some_and(|marks| {
                (marks.get(&ident.client)).is_none_or(|&mark| ident.seq > mark)
            }),
        });
        replicas
    }

    /// Records that `members`' copies of `name` missed an acknowledged
    /// write.
    pub(crate) fn missed(&mut self, name: &str, members: &[usize]) {
        (self.missed).extend(members.iter().map(|&idx| (name.to_owned(), idx)));
    }

    /// Forgets what was shipped, kept or missed of a dropped dataset.
    pub(crate) fn forget(&mut self, name: &str) {
        self.shipped.retain(|(dataset, _), _| dataset != name);
        self.strays.remove(name);
        self.missed.retain(|(dataset, _)| dataset != name);
    }

    /// A fingerprint of the roster's current health states, folded in
    /// roster order — the [`fc_service::QueryState::health`] of every
    /// answer. Health flips change *which nodes answer a fan-out*, so the
    /// first query that observes one — a node marked down, degraded, or
    /// recovering, or healed back — mints a fresh keyspace and old
    /// answers just stop matching.
    pub(crate) fn health_fingerprint(&self) -> u64 {
        self.members.iter().fold(0xcbf2_9ce4_8422_2325, |acc, m| {
            let tag = m.node.health().0 as u64 + 1;
            (acc ^ tag).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Moves the map to its next epoch by `step`, admits each member it
    /// added (driven like the first), and plans the re-homing of `names`.
    /// Repair stays off every target until `settle`.
    pub(crate) fn bump(
        &mut self,
        names: &[&str],
        registry: &Registry,
        step: impl FnOnce(&mut FleetMap) -> Result<u64, FleetError>,
    ) -> Result<(u64, Vec<Rehome>), FleetError> {
        let before = self.map.clone();
        let epoch = step(&mut self.map)?;
        for member in &self.map.members()[self.members.len()..] {
            let node = self.members[0].node.sibling(member.addr());
            self.members.push(Member::new(node, registry));
        }
        let mut plans = Vec::with_capacity(names.len());
        for &name in names {
            let strays = self.strays.remove(name).unwrap_or_default();
            let missed = |idx| self.missed.contains(&(name.to_owned(), idx));
            let plan = rehome(&before, &self.map, name, strays, missed);
            for &idx in &plan.targets {
                self.shipped.insert((name.to_owned(), idx), None);
            }
            plans.push(plan);
        }
        Ok((epoch, plans))
    }

    /// Records how `plan` went for `name`: the targets `filled` (and
    /// whether each holds the whole dataset), the copies `kept`, and the
    /// `marks` filled targets hold batches up to. An unfilled target
    /// stays off repair: it may have taken the coreset without answering.
    pub(crate) fn settle(
        &mut self,
        name: &str,
        plan: &Rehome,
        filled: &[(usize, bool)],
        kept: Vec<usize>,
        marks: HashMap<String, u64>,
    ) {
        for &target in &plan.targets {
            let key = (name.to_owned(), target);
            let whole = filled.iter().find(|f| f.0 == target).map(|f| f.1);
            if whole.is_some() {
                self.shipped.insert(key.clone(), Some(marks.clone()));
            }
            match whole {
                Some(true) => self.missed.remove(&key),
                _ => self.missed.insert(key),
            };
        }
        for &idx in plan.retire.iter().filter(|i| !kept.contains(i)) {
            self.shipped.remove(&(name.to_owned(), idx));
            self.missed.remove(&(name.to_owned(), idx));
        }
        if !kept.is_empty() {
            self.strays.insert(name.to_owned(), kept);
        }
    }
}

/// The re-homing of `name` from `before` to `after`, with the `strays`
/// earlier changes kept and the copies known to have `missed` a write.
/// Replicated, a dataset's holders are its replica set: new members are
/// filled from a copy, and every copy the new map does not read is
/// dropped; a stray the new map reads again is a target that may still
/// hold its copy. Spread, every active member holds a disjoint share, so
/// only a leaver's share moves — onto the new map's pick, from the leaver
/// itself — and an add moves nothing.
fn rehome(
    before: &FleetMap,
    after: &FleetMap,
    name: &str,
    strays: Vec<usize>,
    missed: impl Fn(usize) -> bool,
) -> Rehome {
    let spread = after.replication() == 1;
    let holders = |map: &FleetMap| match spread {
        true => (0..map.members().len())
            .filter(|&i| map.members()[i].is_active())
            .collect(),
        false => map.replicas(name),
    };
    let (old, new): (Vec<usize>, Vec<usize>) = (holders(before), holders(after));
    let mut retire: Vec<usize> = old.iter().copied().filter(|i| !new.contains(i)).collect();
    let targets: Vec<usize> = match spread {
        true if retire.is_empty() => Vec::new(),
        true => after.replicas(name),
        false => new.iter().copied().filter(|i| !old.contains(i)).collect(),
    };
    let rejoin = strays.iter().copied().filter(|i| new.contains(i)).collect();
    let mut complete: Vec<usize> = old.iter().copied().filter(|&i| !missed(i)).collect();
    // A spread share lives only on the member that holds it; every copy
    // of a replicated dataset holds all of it, a stray all but the
    // writes since it left.
    let mut sources = match spread {
        true => retire.clone(),
        false => old.iter().chain(&strays).copied().collect(),
    };
    sources.sort_by_key(|i| (!complete.contains(i), !retire.contains(i)));
    retire.extend(strays.into_iter().filter(|i| !new.contains(i)));
    if targets.is_empty() && retire.is_empty() {
        sources.clear();
        complete.clear();
    }
    Rehome {
        targets,
        rejoin,
        sources,
        complete,
        retire,
    }
}

/// Folds one node's report of a dataset into the fleet aggregate.
///
/// Spread placement **sums**: nodes hold disjoint shares, so the totals
/// add up and the `(snapshot, record)` state epoch inherits each node's
/// monotonicity. The sums saturate — counts at `u64::MAX`, weight at
/// `f64::MAX` — so a buggy or hostile node degrades the aggregate instead
/// of panicking the coordinator (debug builds), wrapping the epoch
/// backward (release builds) or reporting an infinity no dialect can
/// carry. Replicated placement takes the **max**: replicas hold the
/// *same* data, and mid-migration a freshly seeded replica reports a small
/// epoch — summing would both R-count and jump backward as replica sets
/// change, while the max is the most-advanced copy and stays monotone
/// through membership churn. Either way any replaying node makes the
/// dataset `recovering`, and the per-shard lists concatenate.
pub(crate) fn fold_stats(into: &mut DatasetStats, from: &DatasetStats, replicated: bool) {
    let count = |a: u64, b: u64| match replicated {
        true => a.max(b),
        false => a.saturating_add(b),
    };
    let size =
        |a: usize, b: usize| usize::try_from(count(a as u64, b as u64)).unwrap_or(usize::MAX);
    into.shards = size(into.shards, from.shards);
    into.ingested_points = count(into.ingested_points, from.ingested_points);
    into.ingested_weight = match replicated {
        true => into.ingested_weight.max(from.ingested_weight),
        false => (into.ingested_weight + from.ingested_weight).min(f64::MAX),
    };
    into.stored_points = size(into.stored_points, from.stored_points);
    into.state_epoch = (
        count(into.state_epoch.0, from.state_epoch.0),
        count(into.state_epoch.1, from.state_epoch.1),
    );
    into.recovering |= from.recovering;
    into.summaries_per_shard
        .extend_from_slice(&from.summaries_per_shard);
    into.queue_depth_per_shard
        .extend_from_slice(&from.queue_depth_per_shard);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_core::plan::PlanBuilder;

    fn map(members: usize, replication: usize) -> FleetMap {
        FleetMap::bootstrap(
            (0..members).map(|i| (format!("10.0.0.{i}:4801"), 1.0)),
            replication,
        )
        .unwrap()
    }

    fn names() -> Vec<String> {
        (0..64).map(|i| format!("dataset-{i}")).collect()
    }

    /// `name`'s plan from `before` to `after` with no strays and no copy
    /// known to have missed a write.
    fn fresh(before: &FleetMap, after: &FleetMap, name: &str) -> Rehome {
        rehome(before, after, name, Vec::new(), |_| false)
    }

    fn sorted(mut members: Vec<usize>) -> Vec<usize> {
        members.sort_unstable();
        members
    }

    #[test]
    fn a_replicated_add_fills_the_newcomer_and_retires_the_displaced_replica() {
        let before = map(3, 2);
        let mut after = before.clone();
        after.add_member("10.0.0.9:4801", 1.0).unwrap();
        let mut changed = 0;
        for name in names() {
            let (old, new) = (before.replicas(&name), after.replicas(&name));
            let plan = fresh(&before, &after, &name);
            if old == new {
                assert_eq!(plan, Rehome::default(), "{name}");
                continue;
            }
            changed += 1;
            assert_eq!(plan.targets, [3], "{name}");
            assert_eq!(plan.retire.len(), 1, "{name}");
            assert!(!new.contains(&plan.retire[0]), "{name}");
            // Either old copy may fill the newcomer: the displaced one
            // first, as it takes no later writes.
            assert_eq!(sorted(plan.sources.clone()), sorted(old), "{name}");
            assert_eq!(plan.sources[0], plan.retire[0], "{name}");
        }
        assert!(changed > 0);
    }

    /// A copy known to have missed a write fills a newcomer only when no
    /// other copy can, and does not count as complete.
    #[test]
    fn a_fill_prefers_a_copy_that_missed_no_write() {
        let before = map(3, 2);
        let mut after = before.clone();
        after.add_member("10.0.0.9:4801", 1.0).unwrap();
        for name in names() {
            let [displaced] = fresh(&before, &after, &name).retire[..] else {
                continue;
            };
            let old = before.replicas(&name);
            let stays = old.into_iter().find(|&i| i != displaced).unwrap();
            for (missed, first) in [(displaced, stays), (stays, displaced)] {
                let plan = rehome(&before, &after, &name, Vec::new(), |i| i == missed);
                assert_eq!(plan.sources, [first, missed], "{name}");
                assert_eq!(plan.complete, [first], "{name}");
            }
        }
    }

    /// A copy a change kept is dropped by the next one, unless the new
    /// map reads it again: then it rejoins as a target.
    #[test]
    fn the_next_change_retries_a_kept_copy() {
        let before = map(3, 2);
        let mut added = before.clone();
        added.add_member("10.0.0.9:4801", 1.0).unwrap();
        let mut restored = added.clone();
        restored.drain_member("10.0.0.9:4801").unwrap();
        let mut changed = 0;
        for name in names() {
            let [displaced] = fresh(&before, &added, &name).retire[..] else {
                continue;
            };
            changed += 1;
            let retry = rehome(&added, &added, &name, vec![displaced], |_| false);
            assert_eq!(retry.targets, Vec::<usize>::new(), "{name}");
            assert_eq!(retry.rejoin, Vec::<usize>::new(), "{name}");
            assert!(retry.sources.contains(&displaced), "{name}");
            assert_eq!(retry.retire, [displaced], "{name}");
            // Draining the newcomer puts the displaced member back.
            let back = rehome(&added, &restored, &name, vec![displaced], |_| false);
            assert!(restored.replicas(&name).contains(&displaced), "{name}");
            assert_eq!(back.targets, [displaced], "{name}");
            assert_eq!(back.rejoin, [displaced], "{name}");
            assert_eq!(back.retire, [3], "{name}");
        }
        assert!(changed > 0);
    }

    #[test]
    fn a_drain_retires_the_drained_member() {
        for replication in [1, 2] {
            let before = map(4, replication);
            let mut after = before.clone();
            after.drain_member("10.0.0.1:4801").unwrap();
            for name in names() {
                let plan = fresh(&before, &after, &name);
                let held = replication == 1 || before.replicas(&name).contains(&1);
                if !held {
                    assert_eq!(plan, Rehome::default(), "R = {replication}, {name}");
                    continue;
                }
                assert_eq!(plan.retire, [1], "R = {replication}, {name}");
                assert!(plan.sources.contains(&1), "R = {replication}, {name}");
                let new = after.replicas(&name);
                assert!(!plan.targets.is_empty() && plan.targets.iter().all(|t| new.contains(t)));
                if replication == 1 {
                    // A spread share moves only from the drained member,
                    // onto the new map's pick.
                    assert_eq!((plan.targets, plan.sources), (new, vec![1]), "{name}");
                }
            }
        }
    }

    #[test]
    fn a_spread_add_moves_nothing() {
        let before = map(3, 1);
        let mut after = before.clone();
        after.add_member("10.0.0.9:4801", 2.0).unwrap();
        for name in names() {
            assert_eq!(fresh(&before, &after, &name), Rehome::default(), "{name}");
        }
    }

    /// One node's report of `d`: `shards` shards of ten stored points
    /// each, one summary and an empty queue per shard.
    fn report(shards: usize, points: u64, weight: f64, state_epoch: (u64, u64)) -> DatasetStats {
        DatasetStats {
            dataset: "d".into(),
            dim: 2,
            plan: PlanBuilder::new(4).build().unwrap(),
            shards,
            ingested_points: points,
            ingested_weight: weight,
            stored_points: 10 * shards,
            summaries_per_shard: vec![1; shards],
            queue_depth_per_shard: vec![0; shards],
            state_epoch,
            recovering: false,
            nodes: Vec::new(),
        }
    }

    /// `reports` folded in order into an empty aggregate; the scalars.
    fn folded(reports: &[DatasetStats], replicated: bool) -> (usize, u64, f64, usize, (u64, u64)) {
        let mut into = report(0, 0, 0.0, (0, 0));
        for from in reports {
            fold_stats(&mut into, from, replicated);
        }
        (
            into.shards,
            into.ingested_points,
            into.ingested_weight,
            into.stored_points,
            into.state_epoch,
        )
    }

    /// Two replicas mid-migration report epochs `(5, 7)` and `(3, 9)`: the
    /// fold must take the component-wise max `(5, 9)`, not the sum
    /// `(8, 16)` the spread path (correctly) produces for disjoint shares.
    /// Summing replicas would R-count *and* jump backward when a freshly
    /// seeded replica (tiny epoch) joins the report.
    #[test]
    fn replicated_stats_merge_takes_max_not_sum() {
        let a = report(3, 12, 2.5, (5, 7));
        let b = report(4, 7, 4.0, (3, 9));
        let (ab, ba) = ([a.clone(), b.clone()], [b, a]);
        assert_eq!(folded(&ab, true), (4, 12, 4.0, 40, (5, 9)));
        assert_eq!(folded(&ab, false), (7, 19, 6.5, 70, (8, 16)));
        // Max and sum both keep the aggregate independent of the order
        // reports arrive in.
        for replicated in [true, false] {
            assert_eq!(folded(&ab, replicated), folded(&ba, replicated));
        }
        // The spread sum saturates instead of wrapping.
        let near_max = [
            report(1, u64::MAX, 1.0, (u64::MAX, 0)),
            report(1, 1, 1.0, (1, 1)),
        ];
        assert_eq!(
            folded(&near_max, false),
            (2, u64::MAX, 2.0, 20, (u64::MAX, 1))
        );
        // And so does weight: two nodes each holding 1e308 of a dataset
        // sum to `f64::MAX`, not to an infinity JSON would write as null.
        let heavy = [report(1, 1, 1e308, (0, 0)), report(1, 1, 1e308, (0, 0))];
        assert_eq!(folded(&heavy, false).2, f64::MAX);
        assert_eq!(folded(&heavy, true).2, 1e308);
        // One replaying node makes the dataset recovering; the per-shard
        // lists concatenate in report order.
        let mut into = report(2, 1, 1.0, (0, 0));
        let mut replaying = report(1, 1, 1.0, (0, 0));
        replaying.recovering = true;
        replaying.queue_depth_per_shard = vec![5];
        fold_stats(&mut into, &replaying, true);
        fold_stats(&mut into, &report(1, 1, 1.0, (0, 0)), true);
        assert!(into.recovering);
        assert_eq!(into.queue_depth_per_shard, [0, 0, 5, 0]);
        assert_eq!(into.summaries_per_shard, [1; 4]);
    }
}
