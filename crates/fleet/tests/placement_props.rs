//! Property-based tests of the consistent-hash placement ring: key→node
//! balance within tolerance, the minimal-movement property under membership
//! changes, determinism, and replica-set laws — across randomized fleets.

use exa_fleet::PlacementMap;
use proptest::prelude::*;
use std::collections::HashMap;

fn node_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("node-{i:02}")).collect()
}

fn keys(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("model/key-{i}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) Across 1k keys, every node's share stays within tolerance of the
    /// fair share. With 64 vnodes the ring is not perfectly smooth, so the
    /// bound is max ≤ 1.6× fair and min ≥ 0.4× fair — loose enough to be
    /// stable across seeds, tight enough to catch a broken ring (a single
    /// hash point per node routinely exceeds 2.5× fair).
    #[test]
    fn thousand_keys_balance_within_tolerance(nodes in 2usize..9) {
        let map = PlacementMap::new(node_names(nodes)).with_vnodes(128);
        let mut counts: HashMap<usize, usize> = HashMap::new();
        let keys = keys(1000);
        for k in &keys {
            let owner = map.primary(k).unwrap();
            *counts.entry(owner).or_insert(0) += 1;
        }
        prop_assert_eq!(counts.len(), nodes, "some node owns no keys");
        let fair = keys.len() as f64 / nodes as f64;
        for (&node, &c) in &counts {
            let share = c as f64 / fair;
            prop_assert!(
                (0.4..=1.6).contains(&share),
                "node {} owns {} of {} keys ({:.2}x fair share)",
                node, c, keys.len(), share
            );
        }
    }

    /// (b) Adding one node moves only ~1/(N+1) of the keys: everything that
    /// moves must move *to* the new node, and the moved fraction stays near
    /// the consistent-hashing ideal.
    #[test]
    fn adding_a_node_moves_about_one_nth(nodes in 2usize..9) {
        let mut map = PlacementMap::new(node_names(nodes)).with_vnodes(128);
        let keys = keys(1000);
        let before: Vec<usize> = keys.iter().map(|k| map.primary(k).unwrap()).collect();
        let new_id = map.add_node("node-new");
        let mut moved = 0usize;
        for (k, &old) in keys.iter().zip(&before) {
            let now = map.primary(k).unwrap();
            if now != old {
                moved += 1;
                prop_assert_eq!(now, new_id, "key {} moved between old nodes", k);
            }
        }
        let ideal = keys.len() as f64 / (nodes + 1) as f64;
        prop_assert!(
            (moved as f64) < 2.0 * ideal,
            "{} keys moved, ideal ~{:.0} (nodes {} -> {})",
            moved, ideal, nodes, nodes + 1
        );
        prop_assert!(moved > 0, "a new node should attract some keys");
    }

    /// (b') Removing one node only reassigns that node's keys; everyone
    /// else's assignment is untouched.
    #[test]
    fn removing_a_node_strands_only_its_keys(nodes in 3usize..9, victim in 0usize..9) {
        let victim = victim % nodes;
        let mut map = PlacementMap::new(node_names(nodes)).with_vnodes(128);
        let keys = keys(1000);
        let before: Vec<usize> = keys.iter().map(|k| map.primary(k).unwrap()).collect();
        map.remove_node(victim);
        for (k, &old) in keys.iter().zip(&before) {
            let now = map.primary(k).unwrap();
            if old != victim {
                prop_assert_eq!(now, old, "key {} moved although its owner survived", k);
            } else {
                prop_assert!(now != victim, "key {} still on the removed node", k);
            }
        }
    }

    /// Replica sets are duplicate-free, correctly sized, led by the primary,
    /// and stable across identically-built maps.
    #[test]
    fn replica_set_laws(nodes in 1usize..9, replication in 1usize..5, key_idx in 0usize..500) {
        let map = PlacementMap::new(node_names(nodes)).with_replication(replication);
        let twin = PlacementMap::new(node_names(nodes)).with_replication(replication);
        let key = format!("model/key-{key_idx}");
        let r = map.replicas(&key);
        prop_assert_eq!(r.len(), replication.min(nodes));
        let mut dedup = r.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), r.len(), "duplicate replicas in {:?}", r);
        prop_assert_eq!(r.first().copied(), map.primary(&key));
        prop_assert_eq!(&r, &twin.replicas(&key));
    }

    /// Lookups are unchanged by building the map again, and the epoch
    /// advances on topology changes (the router's rebalance counter keys on
    /// it) while lookups of keys the new node does not take stay put.
    #[test]
    fn ring_policy_tracks_its_map(nodes in 2usize..7, key_idx in 0usize..200) {
        let key = format!("model/key-{key_idx}");
        let mut map = PlacementMap::new(node_names(nodes));
        let expect = map.replicas(&key);
        prop_assert_eq!(&PlacementMap::new(node_names(nodes)).replicas(&key), &expect);
        let e0 = map.epoch();
        let late = map.add_node("late-join");
        prop_assert!(map.epoch() > e0);
        let now = map.replicas(&key);
        prop_assert!(now == expect || now == vec![late], "{:?} -> {:?}", expect, now);
    }
}
