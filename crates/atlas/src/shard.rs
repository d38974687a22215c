//! Partitioning the world into independently simulable shards.
//!
//! Probes only interact through their `(ISP, access-share)` network: every
//! event handler touches one probe and one net. The two couplings that span
//! nets are (a) administrative renumbering, which rebuilds *all* share-nets
//! of one ASN and reconnects all of its probes, and (b) mover probes, which
//! hold a reference to a target net in another ISP. Building connected
//! components over nets with "same ASN" edges for the ASN an
//! administrative renumbering targets, and "mover origin→target" edges,
//! therefore yields groups with no shared mutable state at all — each can
//! run its own event queue on its own thread.
//!
//! The component ids produced here are *dense and in first-seen order by net
//! index*, so assigning component `c` to shard `c % k` distributes nets
//! deterministically for any forced shard count `k`.

/// Union-find (disjoint-set) over `0..n` with path halving.
pub struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets containing `a` and `b`.
    pub fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: the smaller root wins. No rank heuristic — path
            // halving alone keeps the forest shallow at our sizes.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }

    /// Labels every element with a dense component id, ids assigned in
    /// first-seen order by element index. Returns `(component_of, count)`.
    pub fn dense_components(&mut self) -> (Vec<usize>, usize) {
        let n = self.parent.len();
        let mut id_of_root = vec![usize::MAX; n];
        let mut comp_of = vec![0usize; n];
        let mut count = 0usize;
        for (x, comp) in comp_of.iter_mut().enumerate() {
            let r = self.find(x);
            if id_of_root[r] == usize::MAX {
                id_of_root[r] = count;
                count += 1;
            }
            *comp = id_of_root[r];
        }
        (comp_of, count)
    }
}

/// How many shards to build for `n_comps` components under an optional
/// forced cap. Defaults to one shard per component; a cap folds components
/// together (`comp % cap`) without ever producing empty shards.
pub fn shard_count(n_comps: usize, cap: Option<usize>) -> usize {
    match cap {
        Some(k) => k.clamp(1, n_comps.max(1)),
        None => n_comps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_are_their_own_components() {
        let mut uf = UnionFind::new(4);
        let (comp, n) = uf.dense_components();
        assert_eq!(comp, vec![0, 1, 2, 3]);
        assert_eq!(n, 4);
    }

    #[test]
    fn unions_merge_transitively() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 2);
        uf.union(2, 4);
        uf.union(1, 5);
        let (comp, n) = uf.dense_components();
        assert_eq!(n, 3);
        assert_eq!(comp[0], comp[2]);
        assert_eq!(comp[2], comp[4]);
        assert_eq!(comp[1], comp[5]);
        assert_ne!(comp[0], comp[1]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[1], comp[3]);
    }

    #[test]
    fn component_ids_are_dense_and_first_seen_ordered() {
        let mut uf = UnionFind::new(5);
        uf.union(3, 4); // later elements share a set…
        uf.union(0, 1); // …but 0 is seen first, so its set gets id 0
        let (comp, n) = uf.dense_components();
        assert_eq!(n, 3);
        assert_eq!(comp, vec![0, 0, 1, 2, 2]);
    }

    #[test]
    fn union_order_does_not_change_labels() {
        let edges = [(0, 3), (3, 5), (1, 2)];
        let mut fwd = UnionFind::new(6);
        for &(a, b) in &edges {
            fwd.union(a, b);
        }
        let mut rev = UnionFind::new(6);
        for &(a, b) in edges.iter().rev() {
            rev.union(b, a);
        }
        assert_eq!(fwd.dense_components(), rev.dense_components());
    }

    #[test]
    fn shard_count_clamps_cap() {
        assert_eq!(shard_count(7, None), 7);
        assert_eq!(shard_count(7, Some(3)), 3);
        assert_eq!(shard_count(7, Some(100)), 7);
        assert_eq!(shard_count(7, Some(0)), 1);
        assert_eq!(shard_count(0, None), 0);
        assert_eq!(shard_count(0, Some(4)), 1);
    }
}
