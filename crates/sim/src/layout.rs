//! Physical address-space layout: where data, counters, MACs, tree nodes,
//! the PUB and the shadow region live, and how a data block maps to its
//! metadata.
//!
//! The data region occupies the low half of the 32 GB device; the
//! metadata regions are carved from the top, mirroring how real secure
//! memory controllers reserve metadata ranges:
//!
//! ```text
//! 0          .. 16 GB   data (ciphertext)
//! 16 GB      .. +2 GB   counter blocks
//! 18 GB      .. +4 GB   MAC blocks (12.5% of data at 8:1 MACs)
//! 22 GB      .. +4 GB   Merkle-tree nodes
//! 26 GB      .. +1 GB   PUB region (8 MB used by default)
//! 27 GB      .. +1 GB   Anubis shadow region
//! ```

use thoth_crypto::counter::CounterBlock;
use thoth_crypto::MacEngine;
use thoth_workloads::DATA_REGION_BYTES;

/// Levels in [`MemoryLayout`]'s tree-node address table: the 64 B
/// geometry's tree has 9; levels past the root keep one node each.
const TREE_LEVELS: usize = 16;

/// Address-space map and data→metadata translation. The region bounds
/// are the same for every block size (associated constants); the
/// data→metadata arithmetic depends on the block size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryLayout {
    /// Access granularity in bytes.
    pub block_bytes: usize,
    /// Split-counter packing geometry.
    pub ctr_geometry: CounterBlock,
    /// First-level MACs per MAC block.
    pub macs_per_block: usize,
    /// First node address of each Merkle-tree level, built once by
    /// [`Self::new`] for [`Self::tree_node_addr`].
    tree_level_base: [u64; TREE_LEVELS],
}

impl MemoryLayout {
    /// Base of the counter-block region (right above the data region,
    /// which spans [`DATA_REGION_BYTES`] from address 0).
    pub const CTR_BASE: u64 = DATA_REGION_BYTES;
    /// Base of the MAC-block region.
    pub const MAC_BASE: u64 = 18 << 30;
    /// Base of the Merkle-tree node region.
    pub const TREE_BASE: u64 = 22 << 30;
    /// Base of the PUB region.
    pub const PUB_BASE: u64 = 26 << 30;
    /// Base of the Anubis shadow region.
    pub const SHADOW_BASE: u64 = 27 << 30;

    /// Builds the standard layout for a block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a supported power of two.
    #[must_use]
    pub fn new(block_bytes: usize) -> Self {
        assert!(block_bytes.is_power_of_two() && block_bytes >= 64);
        let ctr_geometry = CounterBlock::geometry(block_bytes, 4096);
        let mac_len = MacEngine::first_level_len(block_bytes);
        let mut layout = MemoryLayout {
            block_bytes,
            ctr_geometry,
            macs_per_block: block_bytes / mac_len,
            tree_level_base: [0; TREE_LEVELS],
        };
        // Levels are laid out consecutively; each node is one 64 B unit
        // rounded up to the block size for write accounting.
        let mut base = Self::TREE_BASE;
        let mut level_nodes = layout.tree_leaves();
        for level_base in &mut layout.tree_level_base {
            *level_base = base;
            base += level_nodes * block_bytes as u64;
            level_nodes = level_nodes.div_ceil(8);
        }
        layout
    }

    /// The data block index of a data address.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the data region.
    #[must_use]
    pub fn block_index(&self, addr: u64) -> u64 {
        assert!(
            addr < DATA_REGION_BYTES,
            "address {addr:#x} not in data region"
        );
        addr / self.block_bytes as u64
    }

    /// The data block address of a block index (inverse of
    /// [`Self::block_index`]).
    #[must_use]
    pub fn block_addr(&self, index: u64) -> u64 {
        index * self.block_bytes as u64
    }

    /// The counter block holding the counter of data block `index`, plus
    /// the group and slot within that block.
    ///
    /// Returns `(ctr_block_addr, group_idx, slot_in_group)`.
    #[must_use]
    pub fn ctr_location(&self, index: u64) -> (u64, usize, usize) {
        let per_block = self.ctr_geometry.data_blocks_per_counter_block() as u64;
        let block_no = index / per_block;
        let within = (index % per_block) as usize;
        let group = within / self.ctr_geometry.blocks_per_page;
        let slot = within % self.ctr_geometry.blocks_per_page;
        (
            Self::CTR_BASE + block_no * self.block_bytes as u64,
            group,
            slot,
        )
    }

    /// The subblock index of data block `index` within its counter block —
    /// the unit of WTBC's fine-grained dirty tracking.
    #[must_use]
    pub fn ctr_subblock(&self, index: u64) -> usize {
        let per_block = self.ctr_geometry.data_blocks_per_counter_block() as u64;
        (index % per_block) as usize
    }

    /// The MAC block holding the first-level MAC of data block `index`.
    ///
    /// Returns `(mac_block_addr, slot)` where `slot` is the MAC's position.
    #[must_use]
    pub fn mac_location(&self, index: u64) -> (u64, usize) {
        let per_block = self.macs_per_block as u64;
        (
            Self::MAC_BASE + (index / per_block) * self.block_bytes as u64,
            (index % per_block) as usize,
        )
    }

    /// Byte length of one first-level MAC.
    #[must_use]
    pub fn mac_len(&self) -> usize {
        self.block_bytes / self.macs_per_block
    }

    /// The byte range of MAC slot `mslot` within its MAC block.
    #[must_use]
    pub fn mac_slot(&self, mslot: usize) -> std::ops::Range<usize> {
        mslot * self.mac_len()..(mslot + 1) * self.mac_len()
    }

    /// The Merkle-tree leaf index of a counter block address.
    ///
    /// # Panics
    ///
    /// Panics if `ctr_block_addr` is not in the counter region.
    #[must_use]
    pub fn tree_leaf(&self, ctr_block_addr: u64) -> u64 {
        assert!(
            (Self::CTR_BASE..Self::MAC_BASE).contains(&ctr_block_addr),
            "{ctr_block_addr:#x} not a counter block"
        );
        (ctr_block_addr - Self::CTR_BASE) / self.block_bytes as u64
    }

    /// Number of counter blocks the tree must cover.
    #[must_use]
    pub fn tree_leaves(&self) -> u64 {
        let data_blocks = DATA_REGION_BYTES / self.block_bytes as u64;
        data_blocks.div_ceil(self.ctr_geometry.data_blocks_per_counter_block() as u64)
    }

    /// Address of tree node `(level, index)` in the tree region (for
    /// lazy write-back accounting).
    ///
    /// # Panics
    ///
    /// Panics if `level` is 16 or more (every supported tree has fewer).
    #[must_use]
    pub fn tree_node_addr(&self, level: u32, index: u64) -> u64 {
        self.tree_level_base[level as usize] + index * self.block_bytes as u64
    }

    /// Shadow-region block address for packed tracking entry `n`.
    #[must_use]
    pub fn shadow_addr(&self, n: u64) -> u64 {
        let per_block = (self.block_bytes / 8) as u64;
        Self::SHADOW_BASE + (n / per_block) * self.block_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_128() {
        let l = MemoryLayout::new(128);
        assert_eq!(l.macs_per_block, 8); // 16 B MACs in a 128 B block
        assert_eq!(l.mac_len(), 16);
        assert_eq!(l.ctr_geometry.data_blocks_per_counter_block(), 96);
    }

    #[test]
    fn geometry_256() {
        let l = MemoryLayout::new(256);
        assert_eq!(l.macs_per_block, 8); // 32 B MACs in a 256 B block
        assert_eq!(l.mac_len(), 32);
        assert_eq!(l.ctr_geometry.data_blocks_per_counter_block(), 176);
    }

    #[test]
    fn block_index_roundtrip() {
        let l = MemoryLayout::new(128);
        for addr in [0u64, 128, 4096, 12345 & !127] {
            assert_eq!(l.block_addr(l.block_index(addr)), addr);
        }
    }

    #[test]
    fn ctr_location_maps_consecutive_blocks_together() {
        let l = MemoryLayout::new(128);
        let (c0, g0, s0) = l.ctr_location(0);
        let (c1, g1, s1) = l.ctr_location(1);
        assert_eq!(c0, c1, "same counter block");
        assert_eq!(c0, MemoryLayout::CTR_BASE);
        assert_eq!((g0, s0), (0, 0));
        assert_eq!((g1, s1), (0, 1));
        // Block 32 starts the second page -> second group.
        let (_, g32, s32) = l.ctr_location(32);
        assert_eq!((g32, s32), (1, 0));
        // Block 96 rolls into the next counter block.
        let (c96, g96, s96) = l.ctr_location(96);
        assert_eq!(c96, MemoryLayout::CTR_BASE + 128);
        assert_eq!((g96, s96), (0, 0));
    }

    #[test]
    fn ctr_subblock_is_dense_within_block() {
        let l = MemoryLayout::new(128);
        assert_eq!(l.ctr_subblock(0), 0);
        assert_eq!(l.ctr_subblock(95), 95);
        assert_eq!(l.ctr_subblock(96), 0);
    }

    #[test]
    fn mac_location_packs_eight_per_block() {
        let l = MemoryLayout::new(128);
        assert_eq!(l.mac_location(0), (MemoryLayout::MAC_BASE, 0));
        assert_eq!(l.mac_location(7), (MemoryLayout::MAC_BASE, 7));
        assert_eq!(l.mac_location(8), (MemoryLayout::MAC_BASE + 128, 0));
    }

    #[test]
    fn regions_do_not_overlap() {
        let l = MemoryLayout::new(128);
        // Highest counter block used by the data region:
        let last_data_block = DATA_REGION_BYTES / 128 - 1;
        let (last_ctr, _, _) = l.ctr_location(last_data_block);
        assert!(last_ctr < MemoryLayout::MAC_BASE);
        let (last_mac, _) = l.mac_location(last_data_block);
        assert!(last_mac < MemoryLayout::TREE_BASE);
        // Tree: 10 levels of nodes fit before the PUB region.
        let leaves = l.tree_leaves();
        let root_addr = l.tree_node_addr(9, 0);
        assert!(root_addr < MemoryLayout::PUB_BASE, "{root_addr:#x}");
        assert!(leaves > 1_000_000, "32 GB of data needs many counter blocks");
    }

    #[test]
    fn tree_leaf_roundtrip() {
        let l = MemoryLayout::new(128);
        let (cb, _, _) = l.ctr_location(12345);
        let leaf = l.tree_leaf(cb);
        assert_eq!(cb, MemoryLayout::CTR_BASE + leaf * 128);
    }

    #[test]
    fn tree_levels_have_disjoint_node_addresses() {
        let l = MemoryLayout::new(128);
        let l0_last = l.tree_node_addr(0, l.tree_leaves() - 1);
        let l1_first = l.tree_node_addr(1, 0);
        assert!(l1_first > l0_last);
    }

    #[test]
    fn tree_level_table_matches_the_level_walk() {
        for block in [64usize, 128, 256] {
            let l = MemoryLayout::new(block);
            let (mut base, mut nodes) = (MemoryLayout::TREE_BASE, l.tree_leaves());
            for level in 0..16 {
                assert_eq!(l.tree_node_addr(level, 3), base + 3 * block as u64);
                base += nodes * block as u64;
                nodes = nodes.div_ceil(8);
            }
        }
    }

    #[test]
    fn shadow_packs_addresses() {
        let l = MemoryLayout::new(128);
        assert_eq!(l.shadow_addr(0), MemoryLayout::SHADOW_BASE);
        assert_eq!(l.shadow_addr(15), MemoryLayout::SHADOW_BASE);
        assert_eq!(l.shadow_addr(16), MemoryLayout::SHADOW_BASE + 128);
    }

    #[test]
    #[should_panic(expected = "not in data region")]
    fn out_of_region_index_panics() {
        let l = MemoryLayout::new(128);
        let _ = l.block_index(20 << 30);
    }
}
