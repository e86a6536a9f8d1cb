//! The 8-ary Bonsai Merkle Tree over counter blocks.
//!
//! The tree is stored sparsely: a subtree that has never been touched
//! hashes to a precomputed per-level *default hash* (the hash of an
//! all-default subtree), so a 32 GB address space costs memory only for
//! the parts the workload actually wrote.

use thoth_crypto::SipHash24;

use thoth_sim_engine::FastMap;

/// Identifies a tree node by level and index.
///
/// Level 0 is the leaves (one per counter block); the root is the single
/// node at the top level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    /// 0 = leaves, `levels - 1` = root.
    pub level: u32,
    /// Index within the level.
    pub index: u64,
}

/// Static shape of a Merkle tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MerkleConfig {
    /// Fan-out (8 in the paper: a 64 B node holds eight 8 B hashes).
    pub arity: u64,
    /// Number of leaves (counter blocks covered).
    pub num_leaves: u64,
}

impl MerkleConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `arity < 2` or `num_leaves == 0`.
    #[must_use]
    pub fn new(arity: u64, num_leaves: u64) -> Self {
        assert!(arity >= 2, "tree arity must be at least 2");
        assert!(num_leaves > 0, "tree must cover at least one leaf");
        MerkleConfig { arity, num_leaves }
    }

    /// Number of levels including leaves and root.
    ///
    /// A tree over one leaf has a single level (the leaf is the root).
    #[must_use]
    pub fn levels(&self) -> u32 {
        let mut n = self.num_leaves;
        let mut levels = 1;
        while n > 1 {
            n = n.div_ceil(self.arity);
            levels += 1;
        }
        levels
    }

    /// Number of nodes at `level`.
    #[must_use]
    pub fn nodes_at(&self, level: u32) -> u64 {
        let mut n = self.num_leaves;
        for _ in 0..level {
            n = n.div_ceil(self.arity);
        }
        n
    }
}

/// A sparse, always-consistent Bonsai Merkle Tree.
///
/// `update_leaf` recomputes the path to the root immediately — this models
/// the *logical* tree state whose root the processor holds. The lazy
/// write-back of node images to NVM is a separate (timing/accounting)
/// concern handled by the memory-controller layer; this structure is the
/// ground truth those write-backs copy from.
///
/// # Example
///
/// ```
/// use thoth_merkle::{BonsaiTree, MerkleConfig};
///
/// let mut t = BonsaiTree::new(MerkleConfig::new(8, 1000), 0xfeed);
/// let r0 = t.root();
/// t.update_leaf(17, 0xdead_beef);
/// assert_ne!(t.root(), r0);
///
/// // Rebuilding from the same leaves yields the same root:
/// let mut t2 = BonsaiTree::new(MerkleConfig::new(8, 1000), 0xfeed);
/// t2.update_leaf(17, 0xdead_beef);
/// assert_eq!(t.root(), t2.root());
/// ```
#[derive(Debug, Clone)]
pub struct BonsaiTree {
    config: MerkleConfig,
    levels: u32,
    hasher: SipHash24,
    /// Sparse leaf hashes; missing entries take the leaf default.
    leaves: FastMap<u64, u64>,
    /// `children[L - 1]` maps a level-`L` node's index to its children's
    /// hash array — one map probe yields the whole sibling set, where a
    /// per-node map costs `arity + 1` probes per path level. Slots past a
    /// ragged edge's child count stay at the child-level default.
    children: Vec<FastMap<u64, [u64; MAX_ARITY]>>,
    /// Current root hash, maintained by every update.
    root_hash: u64,
    /// `default[level]` = hash of a node whose entire subtree is default.
    default: Vec<u64>,
    /// Invocations of the multi-lane batched hash kernel (telemetry).
    batch_runs: u64,
    /// Rows hashed by the vector (AVX2) batch kernel (telemetry).
    simd_rows: u64,
    /// Leaf updates queued by [`Self::update_leaf_deferred`] and not yet
    /// folded into the tree. Observers require an empty queue (callers
    /// [`Self::flush`] first); final state is order-identical because
    /// [`Self::update_leaves`] applies last-write-wins per leaf.
    pending: Vec<(u64, u64)>,
}

/// The default (all-zero-subtree) leaf hash input.
const DEFAULT_LEAF: u64 = 0;

/// Largest arity the inline children arrays support (the paper's trees
/// are 8-ary; a 64 B node holds eight 8 B hashes).
const MAX_ARITY: usize = 8;

/// Queued deferred updates auto-flush at this size to bound memory; the
/// limit is large enough that hot counter-block leaves dedup well.
const PENDING_FLUSH_LIMIT: usize = 1 << 16;

impl BonsaiTree {
    /// Creates a tree over `config.num_leaves` default leaves, keyed by
    /// `key` (the on-chip hash key).
    ///
    /// # Panics
    ///
    /// Panics if the arity exceeds 8, the capacity of a node's inline
    /// children array.
    #[must_use]
    pub fn new(config: MerkleConfig, key: u64) -> Self {
        assert!(
            config.arity as usize <= MAX_ARITY,
            "arity {} exceeds the inline children-array capacity {MAX_ARITY}",
            config.arity
        );
        let hasher = SipHash24::new(key, key.rotate_left(32) ^ 0xb0b0_cafe_f00d_d00d);
        let levels = config.levels();
        let mut default = Vec::with_capacity(levels as usize);
        default.push(DEFAULT_LEAF);
        for level in 1..levels {
            let child = default[(level - 1) as usize];
            let children = vec![child; config.arity as usize];
            default.push(Self::node_hash(&hasher, level, u64::MAX, &children));
        }
        BonsaiTree {
            config,
            levels,
            hasher,
            leaves: FastMap::default(),
            children: (1..levels).map(|_| FastMap::default()).collect(),
            root_hash: default[(levels - 1) as usize],
            default,
            batch_runs: 0,
            simd_rows: 0,
            pending: Vec::new(),
        }
    }

    /// Hashes one interior node from its children.
    ///
    /// Default nodes use `index = u64::MAX` so that precomputed defaults
    /// are position-independent; materialized nodes bind their index,
    /// which defeats node-relocation attacks.
    fn node_hash(hasher: &SipHash24, level: u32, index: u64, children: &[u64]) -> u64 {
        let mut s = hasher.words();
        for &c in children {
            s.push(c);
        }
        s.push(u64::from(level));
        s.push(index);
        s.finish()
    }

    /// The tree configuration.
    #[must_use]
    pub fn config(&self) -> MerkleConfig {
        self.config
    }

    /// Total levels including leaves and root.
    #[must_use]
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// The current root hash (up to date once deferred updates are
    /// flushed).
    #[must_use]
    pub fn root(&self) -> u64 {
        debug_assert!(self.pending.is_empty(), "root read with deferred updates");
        self.root_hash
    }

    /// The current hash of any node (default if untouched).
    ///
    /// A non-root node's hash lives in its parent's children array; the
    /// root keeps a dedicated field.
    #[must_use]
    pub fn hash_of(&self, id: NodeId) -> u64 {
        debug_assert!(self.pending.is_empty(), "node read with deferred updates");
        assert!(id.level < self.levels, "level {} out of range", id.level);
        if id.level == self.levels - 1 {
            return if id.index == 0 {
                self.root_hash
            } else {
                self.default[id.level as usize]
            };
        }
        if id.level == 0 {
            return self
                .leaves
                .get(&id.index)
                .copied()
                .unwrap_or(self.default[0]);
        }
        self.children[id.level as usize]
            .get(&(id.index / self.config.arity))
            .map_or(self.default[id.level as usize], |entry| {
                entry[(id.index % self.config.arity) as usize]
            })
    }

    /// Sets leaf `index` to `leaf_hash` and recomputes the path to the
    /// root. Returns the updated path (leaf first, root last) — the timing
    /// model charges one hash per returned interior node, and the lazy NVM
    /// tree marks these nodes dirty in the MT cache.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn update_leaf(&mut self, index: u64, leaf_hash: u64) -> Vec<NodeId> {
        assert!(
            index < self.config.num_leaves,
            "leaf {index} out of range ({} leaves)",
            self.config.num_leaves
        );
        let mut path = Vec::with_capacity(self.levels as usize);
        self.leaves.insert(index, leaf_hash);
        path.push(NodeId { level: 0, index });
        let mut child_index = index;
        let mut child_hash = leaf_hash;
        for level in 1..self.levels {
            let parent = child_index / self.config.arity;
            let slot = (child_index % self.config.arity) as usize;
            // One map probe replaces the old per-child lookups: the
            // parent's whole sibling set is materialized (defaults
            // filled) on first touch and updated in place after.
            let child_default = self.default[(level - 1) as usize];
            let entry = self.children[(level - 1) as usize]
                .entry(parent)
                .or_insert_with(|| [child_default; MAX_ARITY]);
            entry[slot] = child_hash;
            let first_child = parent * self.config.arity;
            let child_count = self
                .config
                .nodes_at(level - 1)
                .min(first_child + self.config.arity)
                - first_child;
            // Same message as `node_hash`, streamed from the array.
            let mut s = self.hasher.words();
            for &c in &entry[..child_count as usize] {
                s.push(c);
            }
            s.push(u64::from(level));
            s.push(parent);
            child_hash = s.finish();
            path.push(NodeId { level, index: parent });
            child_index = parent;
        }
        self.root_hash = child_hash;
        path
    }

    /// Queues a leaf update without recomputing the path. The store path
    /// is hash-latency bound when every update rehashes its path eagerly;
    /// deferring lets [`Self::flush`] fold a whole burst through
    /// [`Self::update_leaves`], which dedups shared parents and feeds
    /// full-arity rows to the multi-lane kernel. Callers that observe the
    /// tree (root, node hashes, verification) must flush first.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range (same check as
    /// [`Self::update_leaf`], so mis-addressed stores still fail at the
    /// store, not at some later flush).
    pub fn update_leaf_deferred(&mut self, index: u64, leaf_hash: u64) {
        assert!(
            index < self.config.num_leaves,
            "leaf {index} out of range ({} leaves)",
            self.config.num_leaves
        );
        self.pending.push((index, leaf_hash));
        if self.pending.len() >= PENDING_FLUSH_LIMIT {
            self.flush();
        }
    }

    /// Folds all queued [`Self::update_leaf_deferred`] updates into the
    /// tree. No-op when the queue is empty.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        self.update_leaves(pending);
    }

    /// Whether deferred leaf updates are still queued.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Batched [`Self::update_leaf`]: applies every `(leaf_index, hash)`
    /// pair, then recomputes each dirtied level in one pass — shared
    /// parents hash once instead of once per child, and full-arity rows
    /// go through the multi-lane hash kernel. Final state is identical to
    /// applying the updates one at a time (last write per leaf wins).
    ///
    /// # Panics
    ///
    /// Panics if any leaf index is out of range.
    pub fn update_leaves(&mut self, updates: impl IntoIterator<Item = (u64, u64)>) {
        let arity = self.config.arity;
        let mut dirty: Vec<u64> = Vec::new();
        let child_default = self.default[0];
        for (index, leaf_hash) in updates {
            assert!(
                index < self.config.num_leaves,
                "leaf {index} out of range ({} leaves)",
                self.config.num_leaves
            );
            self.leaves.insert(index, leaf_hash);
            if self.levels == 1 {
                self.root_hash = leaf_hash;
                continue;
            }
            let entry = self.children[0]
                .entry(index / arity)
                .or_insert_with(|| [child_default; MAX_ARITY]);
            entry[(index % arity) as usize] = leaf_hash;
            dirty.push(index / arity);
        }
        dirty.sort_unstable();
        dirty.dedup();
        for level in 1..self.levels {
            if dirty.is_empty() {
                return;
            }
            let hashes = self.hash_dirty_level(level, &dirty);
            if level == self.levels - 1 {
                self.root_hash = hashes[0];
                return;
            }
            let child_default = self.default[level as usize];
            let mut next: Vec<u64> = Vec::with_capacity(dirty.len());
            for (&p, &h) in dirty.iter().zip(&hashes) {
                let entry = self.children[level as usize]
                    .entry(p / arity)
                    .or_insert_with(|| [child_default; MAX_ARITY]);
                entry[(p % arity) as usize] = h;
                if next.last() != Some(&(p / arity)) {
                    next.push(p / arity);
                }
            }
            dirty = next;
        }
    }

    /// Hashes every dirty node of one level from its children array.
    /// Full-arity 8-ary rows (all but at most the ragged last parent,
    /// which sorts to the end of `dirty`) run through the batched kernel.
    fn hash_dirty_level(&mut self, level: u32, dirty: &[u64]) -> Vec<u64> {
        let arity = self.config.arity;
        let nodes_below = self.config.nodes_at(level - 1);
        let level_map = &self.children[(level - 1) as usize];
        let scalar = |p: u64| {
            let entry = &level_map[&p];
            let first_child = p * arity;
            let child_count = nodes_below.min(first_child + arity) - first_child;
            let mut s = self.hasher.words();
            for &c in &entry[..child_count as usize] {
                s.push(c);
            }
            s.push(u64::from(level));
            s.push(p);
            s.finish()
        };
        if arity as usize != MAX_ARITY {
            return dirty.iter().map(|&p| scalar(p)).collect();
        }
        let split = dirty.partition_point(|&p| (p + 1) * arity <= nodes_below);
        let rows: Vec<[u64; MAX_ARITY + 2]> = dirty[..split]
            .iter()
            .map(|&p| {
                let mut row = [0u64; MAX_ARITY + 2];
                row[..MAX_ARITY].copy_from_slice(&level_map[&p]);
                row[MAX_ARITY] = u64::from(level);
                row[MAX_ARITY + 1] = p;
                row
            })
            .collect();
        let mut hashes = vec![0; rows.len()];
        self.hasher.hash_words_batch(&rows, &mut hashes);
        hashes.extend(dirty[split..].iter().map(|&p| scalar(p)));
        self.batch_runs += 1;
        self.simd_rows += self.hasher.simd_rows_of(rows.len());
        hashes
    }

    /// Batched-kernel invocations so far (telemetry).
    #[must_use]
    pub fn batch_runs(&self) -> u64 {
        self.batch_runs
    }

    /// Rows hashed by the vector batch kernel so far (telemetry); 0 on
    /// the scalar backend.
    #[must_use]
    pub fn simd_rows(&self) -> u64 {
        self.simd_rows
    }

    /// The leaf hash for a counter-block image (binds the block address).
    #[must_use]
    pub fn leaf_hash_of(&self, counter_block_addr: u64, image: &[u8]) -> u64 {
        self.hasher
            .hash_parts(&[image, &counter_block_addr.to_le_bytes()])
    }

    /// Verifies that leaf `index` currently holds `leaf_hash` *and* that
    /// the stored path up to the root is internally consistent.
    ///
    /// A point check of one leaf against the tree as it stands. Recovery
    /// does not use it: it rebuilds the tree from the persisted counter
    /// blocks ([`Self::from_leaves`]) and compares that root with the
    /// processor's persistent root.
    #[must_use]
    pub fn verify_leaf(&self, index: u64, leaf_hash: u64) -> bool {
        debug_assert!(self.pending.is_empty(), "verify with deferred updates");
        if index >= self.config.num_leaves || self.hash_of(NodeId { level: 0, index }) != leaf_hash
        {
            return false;
        }
        let mut child_index = index;
        for level in 1..self.levels {
            let idx = child_index / self.config.arity;
            let first_child = idx * self.config.arity;
            let child_count = self
                .config
                .nodes_at(level - 1)
                .min(first_child + self.config.arity)
                - first_child;
            // Node (level, idx) is materialized iff its children array
            // exists — exactly when some update path passed through it.
            match self.children[(level - 1) as usize].get(&idx) {
                Some(_) => {
                    let stored = self.hash_of(NodeId { level, index: idx });
                    let mut s = self.hasher.words();
                    for i in 0..child_count {
                        s.push(self.hash_of(NodeId {
                            level: level - 1,
                            index: first_child + i,
                        }));
                    }
                    s.push(u64::from(level));
                    s.push(idx);
                    let expect = s.finish();
                    if stored != expect {
                        return false;
                    }
                }
                None => {
                    // An unmaterialized node attests that its whole subtree
                    // is default; any materialized child contradicts that.
                    let child_default = self.default[(level - 1) as usize];
                    let any_materialized = (0..child_count).any(|i| {
                        self.hash_of(NodeId {
                            level: level - 1,
                            index: first_child + i,
                        }) != child_default
                    });
                    if any_materialized {
                        return false;
                    }
                }
            }
            child_index = idx;
        }
        true
    }

    /// Builds a tree from an explicit set of `(leaf_index, leaf_hash)`
    /// pairs — the recovery path ("reconstruct the then-to-be-verified
    /// tree", Section IV-D).
    #[must_use]
    pub fn from_leaves(
        config: MerkleConfig,
        key: u64,
        leaves: impl IntoIterator<Item = (u64, u64)>,
    ) -> Self {
        let mut t = BonsaiTree::new(config, key);
        t.update_leaves(leaves);
        t
    }

    /// Number of materialized entries: touched leaves plus interior
    /// nodes with a children array (one array covers a whole sibling
    /// set, so this stays proportional to the touched paths).
    #[must_use]
    pub fn materialized_nodes(&self) -> usize {
        self.leaves.len() + self.children.iter().map(FastMap::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(leaves: u64) -> BonsaiTree {
        BonsaiTree::new(MerkleConfig::new(8, leaves), 42)
    }

    #[test]
    fn level_math() {
        assert_eq!(MerkleConfig::new(8, 1).levels(), 1);
        assert_eq!(MerkleConfig::new(8, 8).levels(), 2);
        assert_eq!(MerkleConfig::new(8, 9).levels(), 3);
        assert_eq!(MerkleConfig::new(8, 64).levels(), 3);
        // Paper: 10-level tree covers up to 8^9 = 134M counter blocks.
        assert_eq!(MerkleConfig::new(8, 8u64.pow(9)).levels(), 10);
        let c = MerkleConfig::new(8, 100);
        assert_eq!(c.nodes_at(0), 100);
        assert_eq!(c.nodes_at(1), 13);
        assert_eq!(c.nodes_at(2), 2);
        assert_eq!(c.nodes_at(3), 1);
    }

    #[test]
    fn root_changes_on_update_and_is_deterministic() {
        let mut a = tree(1000);
        let mut b = tree(1000);
        assert_eq!(a.root(), b.root());
        let r0 = a.root();
        a.update_leaf(5, 123);
        assert_ne!(a.root(), r0);
        b.update_leaf(5, 123);
        assert_eq!(a.root(), b.root());
    }

    #[test]
    fn update_order_does_not_matter() {
        let mut a = tree(100);
        let mut b = tree(100);
        a.update_leaf(1, 10);
        a.update_leaf(99, 20);
        a.update_leaf(50, 30);
        b.update_leaf(50, 30);
        b.update_leaf(1, 10);
        b.update_leaf(99, 20);
        assert_eq!(a.root(), b.root());
    }

    #[test]
    fn different_leaves_different_roots() {
        let mut a = tree(100);
        let mut b = tree(100);
        a.update_leaf(1, 10);
        b.update_leaf(2, 10); // same value, different position
        assert_ne!(a.root(), b.root());
        let mut c = tree(100);
        c.update_leaf(1, 11); // same position, different value
        assert_ne!(a.root(), c.root());
    }

    #[test]
    fn update_path_has_one_node_per_level() {
        let mut t = tree(1000); // 4 levels: 1000 -> 125 -> 16 -> 2 -> 1... recompute
        let levels = t.levels();
        let path = t.update_leaf(999, 7);
        assert_eq!(path.len(), levels as usize);
        assert_eq!(path[0], NodeId { level: 0, index: 999 });
        assert_eq!(
            path.last().copied(),
            Some(NodeId {
                level: levels - 1,
                index: 0
            })
        );
        // Indices shrink by the arity each level.
        for w in path.windows(2) {
            assert_eq!(w[1].index, w[0].index / 8);
        }
    }

    #[test]
    fn verify_leaf_accepts_consistent_and_rejects_wrong() {
        let mut t = tree(500);
        t.update_leaf(123, 0xabc);
        assert!(t.verify_leaf(123, 0xabc));
        assert!(!t.verify_leaf(123, 0xabd));
        assert!(!t.verify_leaf(124, 0xabc));
        assert!(!t.verify_leaf(10_000, 0xabc), "out of range leaf");
        // Untouched leaves verify with the default hash.
        assert!(t.verify_leaf(5, 0));
    }

    #[test]
    fn verify_detects_internal_node_tamper() {
        let mut t = tree(500);
        t.update_leaf(123, 0xabc);
        // Corrupt the stored hash of interior node (1, 15): it lives in
        // its parent's children array, level-2 entry 15/8, slot 15%8.
        let parent = 123 / 8;
        t.children[1].get_mut(&(parent / 8)).expect("path materialized")
            [(parent % 8) as usize] = 0xdead;
        assert!(!t.verify_leaf(123, 0xabc));
    }

    #[test]
    fn batched_updates_match_incremental_exactly() {
        let updates: Vec<(u64, u64)> = (0..60u64)
            .map(|i| (i * 7 % 90, i.wrapping_mul(0x9e37_79b9) + 1))
            .collect();
        let mut inc = tree(90);
        for &(i, h) in &updates {
            inc.update_leaf(i, h);
        }
        let mut bat = tree(90);
        bat.update_leaves(updates.iter().copied());
        assert!(bat.batch_runs() > 0, "full-arity rows must batch");
        assert_eq!(inc.root(), bat.root());
        // Not just the root: every node hash agrees, so a later
        // incremental update lands on identical state.
        for level in 0..inc.levels() {
            for index in 0..inc.config().nodes_at(level) {
                let id = NodeId { level, index };
                assert_eq!(inc.hash_of(id), bat.hash_of(id), "{id:?}");
            }
        }
        assert_eq!(inc.materialized_nodes(), bat.materialized_nodes());
    }

    #[test]
    fn deferred_updates_match_eager_after_flush() {
        let updates: Vec<(u64, u64)> = (0..200u64)
            .map(|i| (i * 13 % 90, i.wrapping_mul(0x9e37_79b9) ^ 5))
            .collect();
        let mut eager = tree(90);
        for &(i, h) in &updates {
            eager.update_leaf(i, h);
        }
        let mut def = tree(90);
        for &(i, h) in &updates {
            def.update_leaf_deferred(i, h);
        }
        assert!(def.has_pending());
        def.flush();
        assert!(!def.has_pending());
        assert_eq!(eager.root(), def.root());
        for level in 0..eager.levels() {
            for index in 0..eager.config().nodes_at(level) {
                let id = NodeId { level, index };
                assert_eq!(eager.hash_of(id), def.hash_of(id), "{id:?}");
            }
        }
    }

    #[test]
    fn deferred_auto_flushes_at_limit() {
        let mut eager = tree(100);
        let mut def = tree(100);
        for i in 0..(1u64 << 16) {
            eager.update_leaf(i % 100, i + 1);
            def.update_leaf_deferred(i % 100, i + 1);
        }
        assert!(!def.has_pending(), "queue auto-flushes at the limit");
        assert_eq!(eager.root(), def.root());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn deferred_out_of_range_panics_at_enqueue() {
        tree(10).update_leaf_deferred(10, 0);
    }

    #[test]
    fn from_leaves_matches_incremental() {
        let leaves: Vec<(u64, u64)> = (0..50).map(|i| (i * 3 % 100, i * 7 + 1)).collect();
        let mut inc = tree(100);
        for &(i, h) in &leaves {
            inc.update_leaf(i, h);
        }
        let rebuilt = BonsaiTree::from_leaves(MerkleConfig::new(8, 100), 42, leaves);
        assert_eq!(inc.root(), rebuilt.root());
    }

    #[test]
    fn leaf_hash_binds_address_and_content() {
        let t = tree(10);
        let img = vec![1u8; 64];
        let h = t.leaf_hash_of(0x100, &img);
        assert_eq!(h, t.leaf_hash_of(0x100, &img));
        assert_ne!(h, t.leaf_hash_of(0x140, &img));
        let mut img2 = img.clone();
        img2[0] ^= 1;
        assert_ne!(h, t.leaf_hash_of(0x100, &img2));
    }

    #[test]
    fn sparse_memory_stays_small() {
        let mut t = tree(8u64.pow(9)); // 10 levels, 134M leaves
        assert_eq!(t.levels(), 10);
        t.update_leaf(0, 1);
        t.update_leaf(8u64.pow(9) - 1, 2);
        assert!(t.materialized_nodes() <= 20, "only two paths materialized");
    }

    #[test]
    fn single_leaf_tree() {
        let mut t = tree(1);
        assert_eq!(t.levels(), 1);
        let r0 = t.root();
        t.update_leaf(0, 99);
        assert_eq!(t.root(), 99, "single-leaf root is the leaf itself");
        assert_ne!(t.root(), r0);
    }

    #[test]
    fn different_keys_different_roots() {
        let mut a = BonsaiTree::new(MerkleConfig::new(8, 64), 1);
        let mut b = BonsaiTree::new(MerkleConfig::new(8, 64), 2);
        a.update_leaf(0, 5);
        b.update_leaf(0, 5);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_out_of_range_panics() {
        tree(10).update_leaf(10, 0);
    }
}
