//! Model placement for a sharded serving fleet.
//!
//! A fleet of `exa-wire` nodes serves many fitted models; something has to
//! decide which node(s) own which model. [`PlacementMap`] is that decision,
//! and the router applies it to every predict and observe: a model's
//! replica set is its pin if it has one, else the first `replication`
//! distinct nodes clockwise from the model's point on a consistent-hash
//! ring with virtual nodes for balance.
//!
//! Lookup is a pure function of (model name, map epoch): any router with
//! the same map resolves the same owners, with no coordination, and a
//! replica set changes only when the epoch does (pins, replication) —
//! never with traffic, so every replica of a model sees every observe
//! routed while its set stands. Ring membership is fixed at construction:
//! the router never adds or removes nodes, it only skips a suspect node per
//! request.

use std::collections::HashMap;

/// Index of a node in the fleet's node list (the order given to
/// [`PlacementMap::new`]).
pub type NodeId = usize;

/// FNV-1a 64-bit with a Murmur3 avalanche finalizer. Plain FNV is not
/// enough here: ring placement orders keys by their *high* bits, and FNV
/// barely propagates a trailing-byte change upward — sequential names like
/// `model-000..model-047` would all land on one arc and map to one node.
/// The finalizer mixes every input bit into every output bit.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Default virtual nodes per physical node. 64 points keeps the max/mean key
/// imbalance under ~1.35 for small fleets (see the placement proptests) while
/// the ring stays a few KiB.
pub const DEFAULT_VNODES: usize = 64;

/// Consistent-hash ring over fleet nodes with pins and replication.
///
/// ```
/// use exa_fleet::PlacementMap;
/// let mut map = PlacementMap::new(vec!["node-a", "node-b", "node-c"]);
/// let owner = map.primary("exp/germany").unwrap();
/// // Pin a model somewhere specific; pins win over the ring.
/// map.pin("exp/germany", vec![2]);
/// assert_eq!(map.replicas("exp/germany"), vec![2]);
/// let _ = owner;
/// ```
#[derive(Clone, Debug)]
pub struct PlacementMap {
    /// Node names by id.
    nodes: Vec<String>,
    vnodes: usize,
    replication: usize,
    /// Sorted `(hash point, node)` pairs.
    ring: Vec<(u64, NodeId)>,
    /// Explicit overrides: model name → replica list (pins win over the ring).
    overrides: HashMap<String, Vec<NodeId>>,
    /// Bumped on every ring, replication or override change.
    epoch: u64,
}

impl PlacementMap {
    /// Builds a map over the given nodes with [`DEFAULT_VNODES`] virtual
    /// nodes and a replication factor of 1.
    pub fn new<S: Into<String>>(nodes: Vec<S>) -> Self {
        let mut map = PlacementMap {
            nodes: nodes.into_iter().map(Into::into).collect(),
            vnodes: DEFAULT_VNODES,
            replication: 1,
            ring: Vec::new(),
            overrides: HashMap::new(),
            epoch: 0,
        };
        map.rebuild();
        map
    }

    /// Sets the number of virtual nodes per physical node (builder style).
    pub fn with_vnodes(mut self, vnodes: usize) -> Self {
        assert!(vnodes > 0, "vnodes must be positive");
        self.vnodes = vnodes;
        self.rebuild();
        self
    }

    /// Sets the default replication factor (builder style). Clamped to the
    /// node count at lookup time.
    pub fn with_replication(mut self, replication: usize) -> Self {
        assert!(replication > 0, "replication must be positive");
        self.replication = replication;
        self.epoch += 1;
        self
    }

    fn rebuild(&mut self) {
        self.ring.clear();
        for (id, name) in self.nodes.iter().enumerate() {
            for v in 0..self.vnodes {
                let label = format!("{name}#{v}");
                self.ring.push((fnv1a(label.as_bytes()), id));
            }
        }
        self.ring.sort_unstable();
        self.epoch += 1;
    }

    /// Pins a model to an explicit replica list, overriding the ring.
    pub fn pin<S: Into<String>>(&mut self, model: S, replicas: Vec<NodeId>) {
        for &r in &replicas {
            assert!(r < self.nodes.len(), "unknown node id {r}");
        }
        self.overrides.insert(model.into(), replicas);
        self.epoch += 1;
    }

    /// Removes a pin; the model falls back to the ring.
    pub fn unpin(&mut self, model: &str) {
        if self.overrides.remove(model).is_some() {
            self.epoch += 1;
        }
    }

    /// Current ring epoch; bumped on every ring, replication or override
    /// change.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Default replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Replica set for `model` at the default replication factor, preference
    /// order. Pins win over the ring; an empty pin falls back to it.
    pub fn replicas(&self, model: &str) -> Vec<NodeId> {
        self.replicas_n(model, self.replication)
    }

    /// Replica set of an explicit size `n` (clamped to the node count).
    /// The first entry is the primary owner: the first node clockwise from
    /// the model's hash point.
    fn replicas_n(&self, model: &str, n: usize) -> Vec<NodeId> {
        if let Some(pinned) = self.overrides.get(model).filter(|p| !p.is_empty()) {
            return pinned.clone();
        }
        let want = n.min(self.nodes.len()).max(1);
        let mut out = Vec::with_capacity(want);
        if self.ring.is_empty() {
            return out;
        }
        let h = fnv1a(model.as_bytes());
        let start = self.ring.partition_point(|&(p, _)| p < h);
        for i in 0..self.ring.len() {
            let (_, id) = self.ring[(start + i) % self.ring.len()];
            if !out.contains(&id) {
                out.push(id);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }

    /// Primary owner of `model`, if the map has any node.
    pub fn primary(&self, model: &str) -> Option<NodeId> {
        self.replicas_n(model, 1).first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three() -> PlacementMap {
        PlacementMap::new(vec!["a", "b", "c"])
    }

    #[test]
    fn lookup_is_deterministic() {
        let m1 = three();
        let m2 = three();
        for i in 0..100 {
            let key = format!("model-{i}");
            assert_eq!(m1.replicas(&key), m2.replicas(&key));
        }
    }

    #[test]
    fn replicas_are_distinct_and_sized() {
        let m = three().with_replication(2);
        for i in 0..50 {
            let r = m.replicas(&format!("m{i}"));
            assert_eq!(r.len(), 2);
            assert_ne!(r[0], r[1]);
        }
    }

    #[test]
    fn replication_clamps_to_live_nodes() {
        let m = PlacementMap::new(vec!["solo"]).with_replication(3);
        assert_eq!(m.replicas("x"), vec![0]);
    }

    #[test]
    fn pins_win_over_ring_and_fall_back_when_dead() {
        let mut m = three();
        let ring = m.replicas("hot");
        let pinned = (ring[0] + 1) % 3;
        m.pin("hot", vec![pinned]);
        assert_eq!(m.replicas("hot"), vec![pinned]);
        m.unpin("hot");
        assert_eq!(m.replicas("hot"), ring, "unpinning falls back to the ring");
    }

    #[test]
    fn epoch_bumps_on_changes() {
        let mut m = three();
        let e0 = m.epoch();
        m.pin("x", vec![0]);
        let e1 = m.epoch();
        assert!(e1 > e0);
        m.unpin("x");
        assert!(m.epoch() > e1);
        let e2 = m.epoch();
        m.unpin("x");
        assert_eq!(m.epoch(), e2, "removing no pin changes nothing");
    }
}
