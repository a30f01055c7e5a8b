//! Property-based tests of the consistent-hash placement ring: key→node
//! balance within tolerance, determinism, replica-set laws, and pins —
//! across randomized fleets.

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

    /// Lookups are unchanged by building the map again; a pin overrides
    /// the ring and advances the epoch (the router's rebalance counter keys
    /// on it), and unpinning restores the ring's answer.
    #[test]
    fn ring_policy_tracks_its_map(nodes in 2usize..7, key_idx in 0usize..200, pin in 0usize..7) {
        let key = format!("model/key-{key_idx}");
        let mut map = PlacementMap::new(node_names(nodes));
        let expect = map.replicas(&key);
        prop_assert_eq!(&PlacementMap::new(node_names(nodes)).replicas(&key), &expect);
        let e0 = map.epoch();
        let pinned = pin % nodes;
        map.pin(key.clone(), vec![pinned]);
        prop_assert!(map.epoch() > e0);
        prop_assert_eq!(map.replicas(&key), vec![pinned]);
        let e1 = map.epoch();
        map.unpin(&key);
        prop_assert!(map.epoch() > e1);
        prop_assert_eq!(map.replicas(&key), expect);
    }
}
