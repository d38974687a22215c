//! Deterministic, label-derived random number streams.
//!
//! The simulator must be exactly reproducible from a single `u64` seed, and —
//! just as important — *stable under refactoring*: adding a probe or
//! reordering ISP construction must not shift the random draws of unrelated
//! components. We achieve this by deriving an independent ChaCha stream for
//! every component from `(root_seed, label)` with a small keyed hash, rather
//! than sharing one global RNG.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// A factory for independent, reproducible RNG streams.
#[derive(Debug, Clone, Copy)]
pub struct SeedTree {
    root: u64,
}

impl SeedTree {
    /// Creates a seed tree from a root seed.
    pub fn new(root: u64) -> SeedTree {
        SeedTree { root }
    }

    /// The root seed.
    pub fn root(self) -> u64 {
        self.root
    }

    /// Derives a child seed tree, e.g. one per ISP, labelled by a string.
    pub fn child(self, label: &str) -> SeedTree {
        SeedTree {
            root: mix(self.root, label.as_bytes()),
        }
    }

    /// Derives a child seed tree from a numeric id (e.g. probe id).
    pub fn child_id(self, label: &str, id: u64) -> SeedTree {
        let mut bytes = Vec::with_capacity(label.len() + 8);
        bytes.extend_from_slice(label.as_bytes());
        bytes.extend_from_slice(&id.to_le_bytes());
        SeedTree {
            root: mix(self.root, &bytes),
        }
    }

    /// Materializes an RNG stream for this node.
    pub fn rng(self) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(self.root)
    }

    /// Shorthand: RNG for a labelled child.
    pub fn rng_for(self, label: &str) -> ChaCha12Rng {
        self.child(label).rng()
    }

    /// Shorthand: RNG for a labelled, numbered child.
    pub fn rng_for_id(self, label: &str, id: u64) -> ChaCha12Rng {
        self.child_id(label, id).rng()
    }
}

/// FNV-1a–style mixing of a seed with a byte label, finished with a
/// SplitMix64 avalanche so nearby labels yield unrelated seeds.
fn mix(seed: u64, label: &[u8]) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for &b in label {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    splitmix64(h)
}

/// One round of the SplitMix64 output function: a stateless 64-bit mixer
/// with full avalanche, so nearby inputs give unrelated outputs.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_label_same_stream() {
        let t = SeedTree::new(42);
        let a: Vec<u32> = (0..8)
            .map(|_| 0)
            .scan(t.rng_for("x"), |r, _| Some(r.gen()))
            .collect();
        let b: Vec<u32> = (0..8)
            .map(|_| 0)
            .scan(t.rng_for("x"), |r, _| Some(r.gen()))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_different_streams() {
        let t = SeedTree::new(42);
        let a: u64 = t.rng_for("isp/orange").gen();
        let b: u64 = t.rng_for("isp/dtag").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_roots_different_streams() {
        let a: u64 = SeedTree::new(1).rng_for("x").gen();
        let b: u64 = SeedTree::new(2).rng_for("x").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn id_children_are_distinct_and_stable() {
        let t = SeedTree::new(7).child("probes");
        let a: u64 = t.rng_for_id("probe", 1).gen();
        let b: u64 = t.rng_for_id("probe", 2).gen();
        let a2: u64 = t.rng_for_id("probe", 1).gen();
        assert_ne!(a, b);
        assert_eq!(a, a2);
    }

    #[test]
    fn nested_children_compose() {
        let t = SeedTree::new(99);
        let via_child = t.child("a").child("b").root();
        let direct = t.child("a").child("b").root();
        assert_eq!(via_child, direct);
        assert_ne!(
            t.child("ab").root(),
            via_child,
            "path structure must matter"
        );
    }

    #[test]
    fn label_concatenation_does_not_collide() {
        // ("ab","c") vs ("a","bc") as id-less labels must differ because
        // mixing is applied per level.
        let t = SeedTree::new(5);
        assert_ne!(
            t.child("ab").child("c").root(),
            t.child("a").child("bc").root()
        );
    }
}
