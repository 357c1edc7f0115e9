//! Membership and placement control plane for the coordinator fleet.
//!
//! The coordinator used to hold an ad-hoc node list and route each block
//! to exactly one node. `fc-fleet` replaces that with a versioned
//! [`FleetMap`]: an epoch-numbered membership roster plus a deterministic
//! dataset→replica-set assignment. Placement is weighted rendezvous
//! (highest random weight) hashing, so membership changes move the
//! minimum number of datasets: adding a member only pulls in datasets that
//! now rank it in their top `R`, and draining a member only re-homes the
//! datasets it actually held — every other replica set is byte-identical
//! before and after. At `R = 1` a dataset's blocks are instead dealt
//! round-robin over the members ([`FleetMap::spread`]). Either way a
//! member's capacity is its share: the only input to placement besides
//! the names, and zero takes nothing.
//!
//! The map itself is plain data (no I/O, no locking); the coordinator
//! owns one behind its own lock and bumps the epoch on every membership
//! change. Requests may carry the epoch they were routed under, letting
//! the serving side answer a structured `wrong_epoch` when the map moved
//! underneath them.
//!
//! What makes R-way placement *cheap* here is the paper's composability
//! result: the union of coresets is a coreset, so replicating a dataset
//! is just ingesting the same blocks R times, and migrating one is
//! shipping a serving coreset — no raw-data rebuild, no resharding.

use std::fmt;

/// Lifecycle state of a fleet member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// In the placement ranking: accepts new replicas.
    Active,
    /// Leaving the fleet: excluded from placement, still addressable so
    /// in-flight work and migration reads can complete.
    Draining,
}

/// One node in the fleet roster.
#[derive(Debug, Clone, PartialEq)]
pub struct Member {
    addr: String,
    capacity: f64,
    state: MemberState,
}

impl Member {
    /// The member's identity: the address the coordinator dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Placement weight: the member's share of replica sets and of spread
    /// blocks, relative to its peers (any non-negative scale; zero takes
    /// no data while a positive-capacity member can).
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Current lifecycle state.
    pub fn state(&self) -> MemberState {
        self.state
    }

    /// Whether the member participates in placement.
    pub fn is_active(&self) -> bool {
        self.state == MemberState::Active
    }
}

/// Errors from fleet membership operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// `replication` was zero.
    InvalidReplication,
    /// `add_member` for an address already in the roster.
    DuplicateMember(String),
    /// `drain_member` for an address not in the roster.
    UnknownMember(String),
    /// Draining would leave fewer active members than the replication
    /// factor, so the displaced replicas would have nowhere to go.
    NotEnoughMembers { active: usize, replication: usize },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::InvalidReplication => write!(f, "replication factor must be at least 1"),
            FleetError::DuplicateMember(addr) => {
                write!(f, "member `{addr}` is already in the fleet")
            }
            FleetError::UnknownMember(addr) => write!(f, "member `{addr}` is not in the fleet"),
            FleetError::NotEnoughMembers {
                active,
                replication,
            } => write!(
                f,
                "draining would leave {active} active member(s), fewer than replication factor {replication}"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

/// Epoch-numbered dataset→replica-set assignment over a member roster.
///
/// Member indices are stable for the life of the map: members are only
/// ever appended (join order is tenure order), and draining marks a
/// member rather than removing it, so an index handed out at one epoch
/// still names the same node at the next. The epoch increments on every
/// membership change and never goes backward.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMap {
    epoch: u64,
    replication: usize,
    members: Vec<Member>,
}

impl FleetMap {
    /// An empty map at epoch 1. `replication` must be at least 1.
    pub fn new(replication: usize) -> Result<Self, FleetError> {
        if replication == 0 {
            return Err(FleetError::InvalidReplication);
        }
        Ok(Self {
            epoch: 1,
            replication,
            members: Vec::new(),
        })
    }

    /// A map seeded with an initial roster, still at epoch 1 — the
    /// starting lineup is version one, not |members| successive joins.
    pub fn bootstrap<I, A>(members: I, replication: usize) -> Result<Self, FleetError>
    where
        I: IntoIterator<Item = (A, f64)>,
        A: Into<String>,
    {
        let mut map = Self::new(replication)?;
        for (addr, capacity) in members {
            let addr = addr.into();
            if map.index_of(&addr).is_some() {
                return Err(FleetError::DuplicateMember(addr));
            }
            map.members.push(Member {
                addr,
                capacity,
                state: MemberState::Active,
            });
        }
        Ok(map)
    }

    /// The current map version. Bumped by every membership change.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The replication factor R this map places at.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The full roster, draining members included, in join order.
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// How many members currently participate in placement.
    pub fn active_len(&self) -> usize {
        self.members.iter().filter(|m| m.is_active()).count()
    }

    /// The roster index of `addr`, if present (active or draining).
    pub fn index_of(&self, addr: &str) -> Option<usize> {
        self.members.iter().position(|m| m.addr == addr)
    }

    /// Appends a new active member and bumps the epoch. Returns the new
    /// epoch. Re-adding a present address (even a draining one) is an
    /// error — addresses are identities, not slots.
    pub fn add_member(
        &mut self,
        addr: impl Into<String>,
        capacity: f64,
    ) -> Result<u64, FleetError> {
        let addr = addr.into();
        if self.index_of(&addr).is_some() {
            return Err(FleetError::DuplicateMember(addr));
        }
        self.members.push(Member {
            addr,
            capacity,
            state: MemberState::Active,
        });
        self.epoch += 1;
        Ok(self.epoch)
    }

    /// Marks `addr` draining (out of placement, still addressable) and
    /// bumps the epoch. Returns the new epoch. Refuses when the drain
    /// would leave fewer active members than the replication factor.
    pub fn drain_member(&mut self, addr: &str) -> Result<u64, FleetError> {
        let idx = self
            .index_of(addr)
            .ok_or_else(|| FleetError::UnknownMember(addr.to_owned()))?;
        if self.members[idx].state == MemberState::Draining {
            return Err(FleetError::UnknownMember(addr.to_owned()));
        }
        let remaining = self.active_len() - 1;
        if remaining < self.replication {
            return Err(FleetError::NotEnoughMembers {
                active: remaining,
                replication: self.replication,
            });
        }
        self.members[idx].state = MemberState::Draining;
        self.epoch += 1;
        Ok(self.epoch)
    }

    /// The replica set for `dataset` at the current epoch: the top-R
    /// active members by weighted rendezvous score `c / −ln u` (capacity
    /// `c`, `u` uniform in (0, 1) from the member's hash), returned in
    /// roster (tenure) order — callers prefer earlier indices for reads,
    /// which keeps the longest-lived copy first. A member ranks first
    /// with probability proportional to its capacity; zero capacity
    /// ranks below every positive one. Fewer than R active members means
    /// every active member is a replica. Deterministic for a given
    /// roster, and at equal capacities the plain ranking by hash.
    pub fn replicas(&self, dataset: &str) -> Vec<usize> {
        let dataset_h = fnv64(dataset.as_bytes());
        let mut ranked: Vec<(f64, u64, usize)> = self
            .members
            .iter()
            .enumerate()
            .filter(|(_, m)| m.is_active())
            .map(|(i, m)| {
                let hash = rendezvous_weight(dataset_h, fnv64(m.addr.as_bytes()));
                // The top 52 bits, centred in their cell: exact, and
                // strictly inside (0, 1), so the logarithm is negative.
                let u = ((hash >> 12) as f64 + 0.5) / (1u64 << 52) as f64;
                (m.capacity / -u.ln(), hash, i)
            })
            .collect();
        // Highest score wins. The score is monotone in the hash at equal
        // capacities, so breaking its ties on the hash keeps that ranking
        // exact; the index breaks (astronomically unlikely) hash ties.
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
        ranked.truncate(self.replication);
        let mut set: Vec<usize> = ranked.into_iter().map(|(.., i)| i).collect();
        set.sort_unstable();
        set
    }

    /// Where the block at position `j` of a deal goes when the fleet
    /// spreads blocks instead of replicating them: the pick first, then
    /// the following active members in roster order (wrapping) to fail
    /// over to. Zero-capacity members are never listed; empty means no
    /// active member has capacity. A caller deals a dataset's blocks at
    /// consecutive positions from a start of its own (the coordinator
    /// staggers datasets by name hash).
    ///
    /// The pick deals positions round-robin over the `n` active members
    /// and spreads each member's turn over a window of the capacity line
    /// so that shares follow capacity: member `i` owns
    /// `w_i = round(c_i / c_max · 2³²)` of a line of length `W = Σ w`,
    /// position `j` lands at
    /// `T = (j mod n) · ⌊W/n⌋ + frac(⌊j/n⌋ · φ) · ⌊W/n⌋` (φ the 64-bit
    /// golden-ratio step), and the owner of `T` takes the block. At equal
    /// capacities every window is one member, so the pick is the
    /// `(j mod n)`-th active member exactly. No RNG and no state: a
    /// position always lands in the same place.
    pub fn spread(&self, j: u64) -> Vec<usize> {
        let actives: Vec<(usize, f64)> = self
            .members
            .iter()
            .enumerate()
            .filter(|(_, m)| m.is_active())
            .map(|(i, m)| (i, m.capacity))
            .collect();
        let top = actives.iter().fold(0.0, |top: f64, &(_, c)| top.max(c));
        if top <= 0.0 {
            return Vec::new();
        }
        let shares: Vec<u64> = actives
            .iter()
            .map(|&(_, c)| (c / top * (1u64 << 32) as f64).round() as u64)
            .collect();
        let n = actives.len() as u64;
        let width = shares.iter().sum::<u64>() / n;
        let step = (j / n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let t = (j % n) * width + ((u128::from(step) * u128::from(width)) >> 64) as u64;
        let mut line = 0;
        let pick = shares
            .iter()
            .position(|&share| {
                line += share;
                t < line
            })
            .expect("T < n·⌊W/n⌋ ≤ W");
        (0..actives.len())
            .map(|k| actives[(pick + k) % actives.len()])
            .filter(|&(_, c)| c > 0.0)
            .map(|(i, _)| i)
            .collect()
    }
}

/// True 64-bit FNV-1a (the FNV prime `0x100_0000_01b3`), private to
/// placement. It is not `fc_persist::fnv64`, which multiplies by
/// `0x1000_0000_01b3`; each constant is pinned by what it already placed
/// (replica sets here, data directories there), so neither changes.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer over the (dataset, member) pair: a well-mixed
/// 64-bit weight so the top-R ranking is uniform and independent per
/// dataset.
fn rendezvous_weight(dataset_h: u64, addr_h: u64) -> u64 {
    let mut z = dataset_h ^ addr_h.rotate_left(31);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize, r: usize) -> FleetMap {
        FleetMap::bootstrap((0..n).map(|i| (format!("10.0.0.{i}:9000"), 1.0)), r)
            .expect("bootstrap fleet")
    }

    /// The unweighted rendezvous ranking: top-R active members by
    /// [`rendezvous_weight`], index breaking ties, returned in roster order.
    /// Kept as the reference that equal capacities must reproduce.
    fn unweighted_replicas(map: &FleetMap, dataset: &str) -> Vec<usize> {
        let dataset_h = fnv64(dataset.as_bytes());
        let mut ranked: Vec<(u64, usize)> = map
            .members()
            .iter()
            .enumerate()
            .filter(|(_, m)| m.is_active())
            .map(|(i, m)| (rendezvous_weight(dataset_h, fnv64(m.addr().as_bytes())), i))
            .collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        ranked.truncate(map.replication());
        let mut set: Vec<usize> = ranked.into_iter().map(|(_, i)| i).collect();
        set.sort_unstable();
        set
    }

    #[test]
    fn equal_capacities_place_by_the_unweighted_ranking() {
        for (n, r) in [(1, 1), (3, 1), (5, 2), (7, 3), (4, 4)] {
            for capacity in [1.0, 2.5, 1e-9] {
                let mut map =
                    FleetMap::bootstrap((0..n).map(|i| (format!("10.0.0.{i}:9000"), capacity)), r)
                        .expect("bootstrap fleet");
                map.add_member("10.0.1.1:9000", capacity).expect("add");
                if n > r {
                    map.drain_member("10.0.0.0:9000").expect("drain");
                }
                for d in 0..500 {
                    let name = format!("dataset-{d}");
                    assert_eq!(
                        map.replicas(&name),
                        unweighted_replicas(&map, &name),
                        "n = {n}, R = {r}, capacity {capacity}, {name}"
                    );
                }
            }
        }
    }

    #[test]
    fn bootstrap_starts_at_epoch_one() {
        let map = fleet(3, 2);
        assert_eq!(map.epoch(), 1);
        assert_eq!(map.members().len(), 3);
        assert_eq!(map.active_len(), 3);
    }

    #[test]
    fn zero_replication_is_rejected() {
        assert_eq!(FleetMap::new(0), Err(FleetError::InvalidReplication));
    }

    #[test]
    fn add_and_drain_bump_the_epoch_monotonically() {
        let mut map = fleet(3, 2);
        assert_eq!(map.add_member("10.0.0.9:9000", 1.0), Ok(2));
        assert_eq!(map.drain_member("10.0.0.0:9000"), Ok(3));
        assert_eq!(map.epoch(), 3);
        assert_eq!(map.active_len(), 3);
        assert_eq!(map.members().len(), 4);
    }

    #[test]
    fn duplicate_add_and_unknown_drain_are_errors() {
        let mut map = fleet(2, 1);
        assert!(matches!(
            map.add_member("10.0.0.0:9000", 1.0),
            Err(FleetError::DuplicateMember(_))
        ));
        assert!(matches!(
            map.drain_member("10.9.9.9:9000"),
            Err(FleetError::UnknownMember(_))
        ));
        // Draining an already-draining member is likewise unknown.
        map.drain_member("10.0.0.0:9000").expect("first drain");
        assert!(matches!(
            map.drain_member("10.0.0.0:9000"),
            Err(FleetError::UnknownMember(_))
        ));
        assert_eq!(map.epoch(), 2);
    }

    #[test]
    fn drain_refuses_to_underfill_the_replica_set() {
        let mut map = fleet(2, 2);
        assert_eq!(
            map.drain_member("10.0.0.1:9000"),
            Err(FleetError::NotEnoughMembers {
                active: 1,
                replication: 2
            })
        );
        assert_eq!(map.epoch(), 1);
    }

    #[test]
    fn replica_sets_are_deterministic_and_r_sized() {
        let map = fleet(5, 2);
        for d in 0..40 {
            let name = format!("dataset-{d}");
            let set = map.replicas(&name);
            assert_eq!(set.len(), 2, "dataset {name}");
            assert!(set.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(set, map.replicas(&name));
        }
    }

    #[test]
    fn small_fleets_replicate_everywhere() {
        let map = fleet(2, 3);
        assert_eq!(map.replicas("anything"), vec![0, 1]);
    }

    #[test]
    fn placement_spreads_across_members() {
        let map = fleet(5, 2);
        let mut hits = vec![0usize; 5];
        for d in 0..200 {
            for idx in map.replicas(&format!("dataset-{d}")) {
                hits[idx] += 1;
            }
        }
        // 400 replica slots over 5 members: every member carries some.
        assert!(hits.iter().all(|&h| h > 20), "lopsided placement: {hits:?}");
    }

    #[test]
    fn drain_only_moves_datasets_the_drained_member_held() {
        let mut map = fleet(5, 2);
        let names: Vec<String> = (0..120).map(|d| format!("dataset-{d}")).collect();
        let before: Vec<Vec<usize>> = names.iter().map(|n| map.replicas(n)).collect();
        let drained = map.index_of("10.0.0.2:9000").expect("roster index");
        map.drain_member("10.0.0.2:9000").expect("drain");
        let mut moved = 0;
        for (name, old) in names.iter().zip(&before) {
            let new = map.replicas(name);
            if old.contains(&drained) {
                moved += 1;
                assert!(!new.contains(&drained), "{name} still on drained member");
                // The surviving replica stays put; exactly one newcomer.
                let kept: Vec<_> = old.iter().filter(|i| **i != drained).collect();
                assert!(
                    kept.iter().all(|i| new.contains(i)),
                    "{name} lost a survivor"
                );
                assert_eq!(new.len(), 2);
            } else {
                assert_eq!(&new, old, "{name} moved without cause");
            }
        }
        assert!(moved > 0, "drain test never exercised a move");
    }

    /// A fleet of `capacities.len()` members at those capacities.
    fn weighted(capacities: &[f64], r: usize) -> FleetMap {
        FleetMap::bootstrap(
            capacities
                .iter()
                .enumerate()
                .map(|(i, &c)| (format!("10.0.0.{i}:9000"), c)),
            r,
        )
        .expect("bootstrap fleet")
    }

    #[test]
    fn zero_capacity_members_hold_no_replicas() {
        for (capacities, r) in [
            (&[1.0, 0.0, 1.0][..], 1),
            (&[1.0, 0.0, 1.0][..], 2),
            (&[0.0, 2.0, 1.0, 0.0, 5.0][..], 3),
        ] {
            let map = weighted(capacities, r);
            for d in 0..1_000 {
                let set = map.replicas(&format!("dataset-{d}"));
                assert_eq!(set.len(), r);
                assert!(
                    set.iter().all(|&i| capacities[i] > 0.0),
                    "{capacities:?} R = {r}: {set:?}"
                );
            }
        }
        // Short of R positive members, zero capacity still fills the set.
        assert_eq!(weighted(&[1.0, 0.0], 2).replicas("d"), vec![0, 1]);
    }

    #[test]
    fn capacities_weight_single_replica_placement() {
        let map = weighted(&[1.0, 3.0], 1);
        let mut hits = [0usize; 2];
        for d in 0..4_000 {
            hits[map.replicas(&format!("dataset-{d}"))[0]] += 1;
        }
        // 1 000 expected on the first member; ±3 standard deviations.
        assert!((920..=1_080).contains(&hits[0]), "1:3 placed {hits:?}");
    }

    #[test]
    fn equal_capacities_spread_round_robin() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for n in 1..=7 {
            let map = weighted(&vec![2.0; n], 1);
            for k in 0..200_000u64 {
                // Sequential positions, then random 64-bit ones.
                let j = if k < 100_000 {
                    fnv64(b"dataset").wrapping_add(k)
                } else {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let order = map.spread(j);
                let first = (j % n as u64) as usize;
                let expected: Vec<usize> = (0..n).map(|i| (first + i) % n).collect();
                assert_eq!(order, expected, "n = {n}, j = {j}");
            }
        }
    }

    #[test]
    fn spread_shares_follow_capacity_and_skip_zero() {
        let map = weighted(&[1.0, 3.0], 1);
        let mut hits = [0usize; 2];
        for j in 0..4_000 {
            hits[map.spread(j)[0]] += 1;
        }
        assert!((990..=1_010).contains(&hits[0]), "1:3 spread {hits:?}");

        let mut map = weighted(&[2.0, 0.0, 1.0, 1.0], 1);
        let mut hits = [0usize; 5];
        for j in u64::MAX - 1_999..=u64::MAX {
            let order = map.spread(j);
            assert_eq!(order.len(), 3, "every positive member, once");
            assert!(!order.contains(&1), "zero capacity listed: {order:?}");
            hits[order[0]] += 1;
        }
        assert!((990..=1_010).contains(&hits[0]), "2:0:1:1 spread {hits:?}");
        // A drained member leaves the deal; all-zero actives list nobody.
        map.add_member("10.0.0.9:9000", 0.0).expect("add");
        map.drain_member("10.0.0.0:9000").expect("drain");
        assert!((0..100).all(|j| !map.spread(j).contains(&0)));
        map.drain_member("10.0.0.2:9000").expect("drain");
        map.drain_member("10.0.0.3:9000").expect("drain");
        assert!(map.spread(0).is_empty());
    }

    #[test]
    fn add_disturbs_at_most_one_replica_per_dataset() {
        let mut map = fleet(4, 2);
        let names: Vec<String> = (0..120).map(|d| format!("dataset-{d}")).collect();
        let before: Vec<Vec<usize>> = names.iter().map(|n| map.replicas(n)).collect();
        map.add_member("10.0.0.9:9000", 1.0).expect("add");
        let newcomer = map.index_of("10.0.0.9:9000").expect("roster index");
        let mut pulled = 0;
        for (name, old) in names.iter().zip(&before) {
            let new = map.replicas(name);
            let overlap = new.iter().filter(|i| old.contains(i)).count();
            if new.contains(&newcomer) {
                pulled += 1;
                assert_eq!(overlap, 1, "{name} displaced more than one replica");
            } else {
                assert_eq!(&new, old, "{name} reshuffled without the newcomer");
            }
        }
        assert!(pulled > 0, "add test never exercised a pull");
    }
}
