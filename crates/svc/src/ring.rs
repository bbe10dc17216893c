//! Consistent-hash ring for routing canonical keys to cluster nodes.
//!
//! Each node contributes `vnodes` points on a 64-bit ring (hash of
//! `"<addr>#<i>"`); a key is owned by the node whose point is the first at or
//! after the key's hash, wrapping around. Virtual nodes keep the load spread
//! close to uniform, and adding or removing one node only remaps the keys
//! that fell on its points — about `1/N` of the keyspace — while every other
//! key keeps its owner. Clients use [`HashRing::route`] to get the owner plus
//! an ordered failover sequence covering every other node.

use crate::cache::fnv1a;

/// Finalizer applied on top of FNV-1a for ring placement. FNV alone barely
/// diffuses a trailing-byte change into the high bits, so the vnode labels
/// `addr#0..addr#63` would cluster on one arc; this murmur3-style mix
/// spreads them. Only ring placement uses it — digest sharding stays raw
/// FNV, which is the wire-pinned format.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// Virtual nodes per physical node. 64 points keeps per-node load within a
/// few percent of uniform for small clusters without making ring rebuilds
/// noticeable.
pub const DEFAULT_VNODES: usize = 64;

/// A consistent-hash ring over node addresses.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted, deduplicated node addresses.
    nodes: Vec<String>,
    /// `(point hash, index into nodes)` sorted by hash.
    points: Vec<(u64, usize)>,
    vnodes: usize,
}

impl HashRing {
    /// Builds a ring with [`DEFAULT_VNODES`] virtual nodes per node.
    pub fn new<S: AsRef<str>>(nodes: &[S]) -> HashRing {
        HashRing::with_vnodes(nodes, DEFAULT_VNODES)
    }

    /// Builds a ring with an explicit virtual-node count (`vnodes >= 1`).
    pub fn with_vnodes<S: AsRef<str>>(nodes: &[S], vnodes: usize) -> HashRing {
        let mut ring = HashRing {
            nodes: nodes.iter().map(|n| n.as_ref().to_string()).collect(),
            points: Vec::new(),
            vnodes: vnodes.max(1),
        };
        ring.nodes.sort();
        ring.nodes.dedup();
        ring.rebuild();
        ring
    }

    fn rebuild(&mut self) {
        self.points.clear();
        for (index, node) in self.nodes.iter().enumerate() {
            for vnode in 0..self.vnodes {
                let point = mix64(fnv1a(format!("{node}#{vnode}").as_bytes()));
                self.points.push((point, index));
            }
        }
        self.points.sort_unstable();
    }

    /// The member addresses, sorted.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a node; a no-op if it is already a member.
    pub fn add(&mut self, node: &str) {
        if self.nodes.iter().any(|n| n == node) {
            return;
        }
        self.nodes.push(node.to_string());
        self.nodes.sort();
        self.rebuild();
    }

    /// Removes a node; a no-op if it is not a member.
    pub fn remove(&mut self, node: &str) {
        let before = self.nodes.len();
        self.nodes.retain(|n| n != node);
        if self.nodes.len() != before {
            self.rebuild();
        }
    }

    /// Index into `points` of the first point at or after the key's hash.
    fn start_index(&self, key: &str) -> usize {
        let hash = mix64(fnv1a(key.as_bytes()));
        match self.points.binary_search(&(hash, usize::MAX)) {
            Ok(i) => i,
            Err(i) if i == self.points.len() => 0,
            Err(i) => i,
        }
    }

    /// The node that owns `key`, or `None` on an empty ring.
    pub fn owner(&self, key: &str) -> Option<&str> {
        if self.points.is_empty() {
            return None;
        }
        let (_, index) = self.points[self.start_index(key)];
        Some(&self.nodes[index])
    }

    /// Every node in failover order for `key`: the owner first, then each
    /// remaining node in the order its first point appears walking the ring
    /// clockwise from the key. Deterministic for a given membership.
    pub fn route(&self, key: &str) -> Vec<&str> {
        if self.points.is_empty() {
            return Vec::new();
        }
        let start = self.start_index(key);
        let mut seen = vec![false; self.nodes.len()];
        let mut order = Vec::with_capacity(self.nodes.len());
        for offset in 0..self.points.len() {
            let (_, index) = self.points[(start + offset) % self.points.len()];
            if !seen[index] {
                seen[index] = true;
                order.push(self.nodes[index].as_str());
                if order.len() == self.nodes.len() {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:7070")).collect()
    }

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("scheme:key-{i}")).collect()
    }

    #[test]
    fn owner_is_stable_and_route_covers_all_nodes() {
        let ring = HashRing::new(&addrs(5));
        for key in keys(50) {
            let route = ring.route(&key);
            assert_eq!(route.len(), 5);
            assert_eq!(Some(route[0]), ring.owner(&key));
            let mut sorted: Vec<&str> = route.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 5, "route must visit every node once");
        }
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = HashRing::new(&Vec::<String>::new());
        assert!(ring.is_empty());
        assert_eq!(ring.owner("k"), None);
        assert!(ring.route("k").is_empty());
    }

    #[test]
    fn duplicate_nodes_collapse() {
        let ring = HashRing::new(&["a:1", "a:1", "b:1"]);
        assert_eq!(ring.len(), 2);
    }

    proptest! {
        /// Satellite: key distribution over N nodes stays within tolerance of
        /// uniform. With 64 vnodes the max/min spread over a 4000-key sample
        /// comfortably stays under 2.5x for up to 8 nodes.
        #[test]
        fn distribution_is_balanced(n in 2usize..8) {
            let ring = HashRing::new(&addrs(n));
            let sample = keys(4000);
            let mut counts = std::collections::HashMap::new();
            for key in &sample {
                *counts.entry(ring.owner(key).unwrap().to_string()).or_insert(0usize) += 1;
            }
            prop_assert_eq!(counts.len(), n, "every node owns some keys");
            let max = *counts.values().max().unwrap() as f64;
            let min = *counts.values().min().unwrap() as f64;
            prop_assert!(min > 0.0);
            prop_assert!(
                max / min < 2.5,
                "spread too wide: max {} min {} over {} nodes", max, min, n
            );
        }

        /// Satellite: removing one node remaps only roughly 1/N of a pinned
        /// key sample — every key it did not own keeps its owner.
        #[test]
        fn removal_remaps_about_one_nth(n in 3usize..8, victim_index in 0usize..8) {
            let nodes = addrs(n);
            let victim = nodes[victim_index % n].clone();
            let ring = HashRing::new(&nodes);
            let mut smaller = ring.clone();
            smaller.remove(&victim);

            let sample = keys(3000);
            let mut moved = 0usize;
            for key in &sample {
                let before = ring.owner(key).unwrap();
                let after = smaller.owner(key).unwrap();
                if before == victim {
                    moved += 1;
                } else {
                    prop_assert_eq!(before, after, "non-victim keys must not remap");
                }
                prop_assert_ne!(after, victim.as_str());
            }
            // The victim owned ~1/N of the sample; allow generous slack for
            // vnode placement variance.
            let expected = sample.len() as f64 / n as f64;
            prop_assert!(
                (moved as f64) < expected * 2.5,
                "remapped {} of {} keys with {} nodes (expected ~{})",
                moved, sample.len(), n, expected
            );
        }
    }
}
