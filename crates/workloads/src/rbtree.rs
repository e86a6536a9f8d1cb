//! A persistent red-black tree (WHISPER's `rbtree` workload).
//!
//! Classic CLRS red-black insertion with parent pointers, operating
//! directly on heap memory. Rebalancing produces the workload's signature
//! behaviour: many small scattered 8-byte pointer/color stores per
//! transaction (each undo-logged), in contrast to the B-tree's whole-node
//! rewrites.
//!
//! Node layout (48 bytes):
//!
//! ```text
//! 0   key      (u64)
//! 8   value    (blob pointer)
//! 16  left     (node pointer, 0 = nil)
//! 24  right
//! 32  parent
//! 40  color    (0 = black, 1 = red)
//! ```

use crate::runtime::TxRuntime;

const NODE_BYTES: u64 = 48;
const NIL: u64 = 0;

const OFF_KEY: u64 = 0;
const OFF_VAL: u64 = 8;
const OFF_LEFT: u64 = 16;
const OFF_RIGHT: u64 = 24;
const OFF_PARENT: u64 = 32;
const OFF_COLOR: u64 = 40;

const BLACK: u64 = 0;
const RED: u64 = 1;

/// A persistent red-black tree.
#[derive(Debug)]
pub struct RbTree {
    root: u64,
    len: usize,
    value_size: usize,
}

impl RbTree {
    /// Creates an empty tree; values are blobs of `value_size` bytes.
    #[must_use]
    pub fn create(value_size: usize) -> Self {
        RbTree {
            root: NIL,
            len: 0,
            value_size,
        }
    }

    /// Number of keys stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the tree holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    // Field helpers. Reads are traced; writes are undo-logged 8 B stores.
    fn get(rt: &mut TxRuntime, node: u64, off: u64) -> u64 {
        rt.read_u64(node + off)
    }
    fn set(rt: &mut TxRuntime, node: u64, off: u64, v: u64) {
        rt.write_u64(node + off, v);
    }

    fn left(rt: &mut TxRuntime, n: u64) -> u64 {
        Self::get(rt, n, OFF_LEFT)
    }
    fn right(rt: &mut TxRuntime, n: u64) -> u64 {
        Self::get(rt, n, OFF_RIGHT)
    }
    fn parent(rt: &mut TxRuntime, n: u64) -> u64 {
        Self::get(rt, n, OFF_PARENT)
    }
    fn color(rt: &mut TxRuntime, n: u64) -> u64 {
        if n == NIL {
            BLACK
        } else {
            Self::get(rt, n, OFF_COLOR)
        }
    }

    fn rotate_left(&mut self, rt: &mut TxRuntime, x: u64) {
        let y = Self::right(rt, x);
        let y_left = Self::left(rt, y);
        Self::set(rt, x, OFF_RIGHT, y_left);
        if y_left != NIL {
            Self::set(rt, y_left, OFF_PARENT, x);
        }
        let xp = Self::parent(rt, x);
        Self::set(rt, y, OFF_PARENT, xp);
        if xp == NIL {
            self.root = y;
        } else if Self::left(rt, xp) == x {
            Self::set(rt, xp, OFF_LEFT, y);
        } else {
            Self::set(rt, xp, OFF_RIGHT, y);
        }
        Self::set(rt, y, OFF_LEFT, x);
        Self::set(rt, x, OFF_PARENT, y);
    }

    fn rotate_right(&mut self, rt: &mut TxRuntime, x: u64) {
        let y = Self::left(rt, x);
        let y_right = Self::right(rt, y);
        Self::set(rt, x, OFF_LEFT, y_right);
        if y_right != NIL {
            Self::set(rt, y_right, OFF_PARENT, x);
        }
        let xp = Self::parent(rt, x);
        Self::set(rt, y, OFF_PARENT, xp);
        if xp == NIL {
            self.root = y;
        } else if Self::right(rt, xp) == x {
            Self::set(rt, xp, OFF_RIGHT, y);
        } else {
            Self::set(rt, xp, OFF_LEFT, y);
        }
        Self::set(rt, y, OFF_RIGHT, x);
        Self::set(rt, x, OFF_PARENT, y);
    }

    /// Inserts `key` with a fresh value blob (copy-on-write update if the
    /// key exists). Must run inside a transaction.
    pub fn insert(&mut self, rt: &mut TxRuntime, key: u64, fill: u64) {
        // BST descent.
        let mut parent = NIL;
        let mut cur = self.root;
        while cur != NIL {
            let k = Self::get(rt, cur, OFF_KEY);
            if k == key {
                if Self::get(rt, cur, OFF_VAL) == 0 {
                    self.len += 1; // reviving a tombstone
                }
                let blob = rt.write_value(self.value_size, fill);
                Self::set(rt, cur, OFF_VAL, blob);
                return;
            }
            parent = cur;
            cur = if key < k {
                Self::left(rt, cur)
            } else {
                Self::right(rt, cur)
            };
        }

        // Attach the new red node (fresh memory: single write_new).
        let node = rt.alloc(NODE_BYTES);
        let blob = rt.write_value(self.value_size, fill);
        let mut img = [0u8; 48];
        img[0..8].copy_from_slice(&key.to_le_bytes());
        img[8..16].copy_from_slice(&blob.to_le_bytes());
        img[32..40].copy_from_slice(&parent.to_le_bytes());
        img[40..48].copy_from_slice(&RED.to_le_bytes());
        rt.write_new(node, &img);

        if parent == NIL {
            self.root = node;
        } else if key < Self::get(rt, parent, OFF_KEY) {
            Self::set(rt, parent, OFF_LEFT, node);
        } else {
            Self::set(rt, parent, OFF_RIGHT, node);
        }
        self.len += 1;
        self.fixup(rt, node);
    }

    fn fixup(&mut self, rt: &mut TxRuntime, mut z: u64) {
        loop {
            let z_parent = Self::parent(rt, z);
            if Self::color(rt, z_parent) != RED {
                break;
            }
            let zp = Self::parent(rt, z);
            let zpp = Self::parent(rt, zp);
            if zp == Self::left(rt, zpp) {
                let uncle = Self::right(rt, zpp);
                if Self::color(rt, uncle) == RED {
                    Self::set(rt, zp, OFF_COLOR, BLACK);
                    Self::set(rt, uncle, OFF_COLOR, BLACK);
                    Self::set(rt, zpp, OFF_COLOR, RED);
                    z = zpp;
                } else {
                    if z == Self::right(rt, zp) {
                        z = zp;
                        self.rotate_left(rt, z);
                    }
                    let zp = Self::parent(rt, z);
                    let zpp = Self::parent(rt, zp);
                    Self::set(rt, zp, OFF_COLOR, BLACK);
                    Self::set(rt, zpp, OFF_COLOR, RED);
                    self.rotate_right(rt, zpp);
                }
            } else {
                let uncle = Self::left(rt, zpp);
                if Self::color(rt, uncle) == RED {
                    Self::set(rt, zp, OFF_COLOR, BLACK);
                    Self::set(rt, uncle, OFF_COLOR, BLACK);
                    Self::set(rt, zpp, OFF_COLOR, RED);
                    z = zpp;
                } else {
                    if z == Self::left(rt, zp) {
                        z = zp;
                        self.rotate_right(rt, z);
                    }
                    let zp = Self::parent(rt, z);
                    let zpp = Self::parent(rt, zp);
                    Self::set(rt, zp, OFF_COLOR, BLACK);
                    Self::set(rt, zpp, OFF_COLOR, RED);
                    self.rotate_left(rt, zpp);
                }
            }
        }
        if Self::color(rt, self.root) == RED {
            Self::set(rt, self.root, OFF_COLOR, BLACK);
        }
    }

    /// Looks up `key`, returning its value-blob address (tombstoned keys
    /// report absent).
    pub fn lookup(&self, rt: &mut TxRuntime, key: u64) -> Option<u64> {
        let mut cur = self.root;
        while cur != NIL {
            let k = Self::get(rt, cur, OFF_KEY);
            if k == key {
                let v = Self::get(rt, cur, OFF_VAL);
                return (v != 0).then_some(v);
            }
            cur = if key < k {
                Self::left(rt, cur)
            } else {
                Self::right(rt, cur)
            };
        }
        None
    }

    /// Tombstone deletion: clears the value pointer (one logged 8 B
    /// store), leaving the node in place to keep the red-black shape —
    /// the standard trick for persistent trees where structural deletes
    /// would multiply the persist set. Returns `true` if `key` was live.
    /// Must run inside a transaction.
    pub fn delete(&mut self, rt: &mut TxRuntime, key: u64) -> bool {
        let mut cur = self.root;
        while cur != NIL {
            let k = Self::get(rt, cur, OFF_KEY);
            if k == key {
                if Self::get(rt, cur, OFF_VAL) == 0 {
                    return false;
                }
                Self::set(rt, cur, OFF_VAL, 0);
                self.len -= 1;
                return true;
            }
            cur = if key < k {
                Self::left(rt, cur)
            } else {
                Self::right(rt, cur)
            };
        }
        false
    }

    /// In-order keys (verification helper).
    pub fn keys_in_order(&self, rt: &mut TxRuntime) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = Vec::new();
        let mut cur = self.root;
        while cur != NIL || !stack.is_empty() {
            while cur != NIL {
                stack.push(cur);
                cur = Self::left(rt, cur);
            }
            cur = stack.pop().expect("non-empty");
            out.push(Self::get(rt, cur, OFF_KEY));
            cur = Self::right(rt, cur);
        }
        out
    }

    /// Checks the red-black invariants; returns the black height.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated (test helper).
    pub fn check_invariants(&self, rt: &mut TxRuntime) -> usize {
        assert_eq!(Self::color(rt, self.root), BLACK, "root must be black");
        self.check_node(rt, self.root)
    }

    fn check_node(&self, rt: &mut TxRuntime, n: u64) -> usize {
        if n == NIL {
            return 1;
        }
        let l = Self::left(rt, n);
        let r = Self::right(rt, n);
        if Self::color(rt, n) == RED {
            assert_eq!(Self::color(rt, l), BLACK, "red node with red left child");
            assert_eq!(Self::color(rt, r), BLACK, "red node with red right child");
        }
        let lh = self.check_node(rt, l);
        let rh = self.check_node(rt, r);
        assert_eq!(lh, rh, "black heights differ");
        lh + usize::from(Self::color(rt, n) == BLACK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{kv_config, run_kv, WorkloadKind};
    use thoth_sim_engine::DetRng;

    fn rt() -> TxRuntime {
        TxRuntime::new(0x200_0000)
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut rt = rt();
        let mut t = RbTree::create(16);
        rt.begin();
        for k in [50u64, 20, 80, 10, 30, 70, 90] {
            t.insert(&mut rt, k, k);
        }
        rt.commit();
        for k in [50u64, 20, 80, 10, 30, 70, 90] {
            assert!(t.lookup(&mut rt, k).is_some());
        }
        assert!(t.lookup(&mut rt, 55).is_none());
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn invariants_hold_under_random_inserts() {
        let mut rt = rt();
        let mut rng = DetRng::seed_from(7);
        let mut t = RbTree::create(16);
        rt.begin();
        for _ in 0..500 {
            t.insert(&mut rt, rng.gen_range(10_000), 0);
        }
        rt.commit();
        t.check_invariants(&mut rt);
        let keys = t.keys_in_order(&mut rt);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
        assert_eq!(keys.len(), t.len());
    }

    #[test]
    fn invariants_hold_under_sequential_inserts() {
        // Ascending inserts force the maximum number of rotations.
        let mut rt = rt();
        let mut t = RbTree::create(16);
        rt.begin();
        for k in 0..200 {
            t.insert(&mut rt, k, k);
        }
        rt.commit();
        t.check_invariants(&mut rt);
        assert_eq!(t.keys_in_order(&mut rt), (0..200).collect::<Vec<_>>());
        // A balanced tree of 200 nodes: black height far below 200.
        assert!(t.check_invariants(&mut rt) <= 10);
    }

    #[test]
    fn update_is_copy_on_write() {
        let mut rt = rt();
        let mut t = RbTree::create(16);
        rt.begin();
        t.insert(&mut rt, 5, 1);
        rt.commit();
        let v1 = t.lookup(&mut rt, 5).unwrap();
        rt.begin();
        t.insert(&mut rt, 5, 2);
        rt.commit();
        let v2 = t.lookup(&mut rt, 5).unwrap();
        assert_ne!(v1, v2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn tombstone_delete_and_revival() {
        let mut rt = rt();
        let mut t = RbTree::create(16);
        rt.begin();
        for k in 0..50u64 {
            t.insert(&mut rt, k, k);
        }
        assert!(t.delete(&mut rt, 25));
        assert!(!t.delete(&mut rt, 25));
        rt.commit();
        assert!(t.lookup(&mut rt, 25).is_none());
        assert_eq!(t.len(), 49);
        t.check_invariants(&mut rt); // shape untouched
        rt.begin();
        t.insert(&mut rt, 25, 1);
        rt.commit();
        assert!(t.lookup(&mut rt, 25).is_some());
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn rotations_emit_small_stores() {
        let mut rt = rt();
        let mut t = RbTree::create(16);
        rt.begin();
        for k in 0..50 {
            t.insert(&mut rt, k, k);
        }
        rt.commit();
        // The trace must contain plenty of 8-byte pointer stores (the
        // rotation/recolor signature of this workload).
        let trace = rt.into_trace();
        let small_stores = trace
            .iter()
            .filter(|op| matches!(op, crate::runtime::TraceOp::Store { len: 8, .. }))
            .count();
        assert!(small_stores > 50, "got {small_stores}");
    }

    #[test]
    fn run_commits_all_transactions() {
        let mut rt = rt();
        let mut rng = DetRng::seed_from(3);
        let cfg = kv_config(WorkloadKind::Rbtree, 10, 40, 64, 500);
        run_kv(&mut rt, &mut rng, &cfg, |_| RbTree::create(64));
        assert_eq!(rt.stats().txs, 40);
    }
}
