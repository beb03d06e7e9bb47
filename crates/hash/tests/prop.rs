//! Property-based tests for the consistent-hashing layer.

use elga_hash::{EdgeLocator, HashKind, LocatorConfig, OwnerCache, Ring};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

fn arb_kind() -> impl Strategy<Value = HashKind> {
    prop_oneof![
        Just(HashKind::Wang),
        Just(HashKind::Mult),
        Just(HashKind::Abseil),
        Just(HashKind::Crc64),
    ]
}

proptest! {
    /// Adding an agent moves keys only to the new agent.
    #[test]
    fn join_moves_keys_only_to_new_agent(
        kind in arb_kind(),
        n in 1u64..24,
        vper in 1u32..64,
        new_agent in 1000u64..2000,
        keys in prop::collection::vec(any::<u64>(), 1..200),
    ) {
        let before = Ring::from_agents(kind, vper, 0..n);
        let mut after = before.clone();
        after.add_agent(new_agent);
        for key in keys {
            let b = before.owner(key).unwrap();
            let a = after.owner(key).unwrap();
            prop_assert!(a == b || a == new_agent);
        }
    }

    /// Removing an agent moves only that agent's keys.
    #[test]
    fn leave_moves_only_departed_keys(
        kind in arb_kind(),
        n in 2u64..24,
        vper in 1u32..64,
        victim_idx in any::<u64>(),
        keys in prop::collection::vec(any::<u64>(), 1..200),
    ) {
        let before = Ring::from_agents(kind, vper, 0..n);
        let victim = victim_idx % n;
        let mut after = before.clone();
        after.remove_agent(victim);
        for key in keys {
            let b = before.owner(key).unwrap();
            let a = after.owner(key).unwrap();
            if b != victim {
                prop_assert_eq!(a, b);
            } else {
                prop_assert_ne!(a, victim);
            }
        }
    }

    /// The replica set is always distinct agents drawn from the ring,
    /// with the primary first.
    #[test]
    fn replica_sets_are_distinct_members(
        n in 1u64..32,
        k in 1usize..8,
        key in any::<u64>(),
    ) {
        let ring = Ring::from_agents(HashKind::Wang, 16, 0..n);
        let owners = ring.owners(key, k);
        prop_assert_eq!(owners.len(), k.min(n as usize));
        let set: std::collections::HashSet<_> = owners.iter().copied().collect();
        prop_assert_eq!(set.len(), owners.len());
        for a in &owners {
            prop_assert!(ring.contains(*a));
        }
        prop_assert_eq!(owners[0], ring.owner(key).unwrap());
    }

    /// The edge owner is always a member of the source's replica set.
    #[test]
    fn edge_owner_in_replica_set(
        n in 1u64..32,
        u in any::<u64>(),
        v in any::<u64>(),
        deg in 0u64..10_000,
    ) {
        let loc = EdgeLocator::new(
            Ring::from_agents(HashKind::Wang, 20, 0..n),
            LocatorConfig { replication_threshold: 100, max_replicas: 8 },
        );
        let owner = loc.owner_of_edge(u, v, deg).unwrap();
        let replicas = loc.replicas_of_vertex(u, deg);
        prop_assert!(replicas.contains(&owner));
    }

    /// Ownership is a pure function of (ring membership, key) — the
    /// insertion order of agents never matters.
    #[test]
    fn ownership_independent_of_join_order(
        mut agents in prop::collection::hash_set(0u64..10_000, 1..16),
        keys in prop::collection::vec(any::<u64>(), 1..64),
    ) {
        let list: Vec<u64> = agents.drain().collect();
        let forward = Ring::from_agents(HashKind::Wang, 10, list.iter().copied());
        let backward = Ring::from_agents(HashKind::Wang, 10, list.iter().rev().copied());
        for key in keys {
            prop_assert_eq!(forward.owner(key), backward.owner(key));
        }
    }

    /// An owner memo carried through any sequence of view epochs —
    /// joins, leaves, hubs crossing the replication threshold and
    /// falling back — serves exactly what the locator resolves under
    /// the current ring and estimates. A split entry is never served
    /// across an epoch (its estimate is asked for again); an unsplit
    /// one kept across epochs that cannot split costs no estimate.
    #[test]
    fn memo_serves_the_current_placement_across_epochs(
        // Per epoch: the agent that joins or leaves, what happens to
        // the hubs (0–2: nothing, 3: all fall back, else one vertex
        // crosses), whether the view's bound is loose, the lookups.
        epochs in prop::collection::vec(
            (0u64..10, 0u64..8, any::<bool>(), prop::collection::vec(0u64..24, 1..48)),
            1..14,
        ),
    ) {
        let config = LocatorConfig { replication_threshold: 100, max_replicas: 4 };
        let mut members: BTreeSet<u64> = [0, 1].into();
        let mut hubs: BTreeSet<u64> = BTreeSet::new();
        let mut cache = OwnerCache::new();
        // What the memo holds, as a model: vertex → (epoch checked, k).
        let mut held: HashMap<u64, (u64, u32)> = HashMap::new();
        for (i, (agent, hub, loose, lookups)) in epochs.into_iter().enumerate() {
            let epoch = i as u64 + 1;
            if !members.remove(&agent) || members.is_empty() {
                members.insert(agent);
            }
            match hub {
                0..=2 => {}
                3 => hubs.clear(),
                h => {
                    hubs.insert(h);
                }
            }
            let loc = EdgeLocator::new(
                Ring::from_agents(HashKind::Wang, 16, members.iter().copied()),
                config,
            );
            let degree = |u: u64| if hubs.contains(&u) { 350 } else { 7 };
            let bound = if hubs.is_empty() && !loose { 7 } else { 350 };
            let may_split = config.replication_factor(bound, members.len()) > 1;
            cache.adopt_epoch(epoch, may_split);
            if may_split {
                held.clear();
            }
            for u in lookups {
                let mut asked = false;
                let got = cache
                    .placement(&loc, u, || {
                        asked = true;
                        degree(u)
                    })
                    .clone();
                let want = loc.placement(u, degree(u));
                prop_assert_eq!(&got, &want, "epoch {epoch} vertex {u}");
                match held.insert(u, (epoch, want.k)) {
                    Some((seen, k)) if seen != epoch => prop_assert_eq!(asked, k > 1),
                    Some(_) => prop_assert!(!asked, "a hit needs no estimate"),
                    None => prop_assert!(asked),
                }
            }
        }
    }
}
