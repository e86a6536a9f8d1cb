//! Property tests for the crypto substrate: round-trips, uniqueness and
//! packing invariants under random inputs (deterministic thoth-testkit
//! cases; a failure names the replayable case index).

use thoth_crypto::counter::{CounterBlock, CounterGroup, IncrementOutcome};
use thoth_crypto::MINOR_COUNTER_MAX;
use thoth_crypto::{Aes128, CtrMode, MacEngine, MacKey};
use thoth_testkit::check;

#[test]
fn aes_is_a_permutation() {
    check(256, |g| {
        let key: [u8; 16] = g.bytes();
        let a: [u8; 16] = g.bytes();
        let b: [u8; 16] = g.bytes();
        if a == b {
            return;
        }
        let aes = Aes128::new(&key);
        assert_ne!(aes.encrypt_block(&a), aes.encrypt_block(&b));
    });
}

#[test]
fn ctr_mode_ciphertexts_are_position_unique() {
    let ctr = CtrMode::new(b"prop-key-0123456");
    check(128, |g| {
        let data = g.byte_vec(64);
        let addr1 = g.below(1 << 40) & !63;
        let addr2 = g.below(1 << 40) & !63;
        if addr1 == addr2 {
            return;
        }
        let (mut a, mut b) = (data.clone(), data);
        ctr.encrypt(addr1, 0, 0, &mut a);
        ctr.encrypt(addr2, 0, 0, &mut b);
        assert_ne!(a, b);
    });
}

#[test]
fn counter_groups_pack_into_blocks_losslessly() {
    check(128, |g| {
        // Three groups of 32 minors = the 128 B-block geometry.
        let geo = CounterBlock::geometry(128, 4096);
        let mut groups: Vec<CounterGroup> =
            (0..geo.groups_per_block).map(|_| CounterGroup::new(32)).collect();
        for _ in 0..g.range(0, 500) {
            let grp = g.range_usize(0, 3);
            let slot = g.range_usize(0, 32);
            groups[grp].increment(slot);
        }
        assert_eq!(geo.unpack(&geo.pack(&groups)), groups);
    });
}

/// The in-place counter-image operations are `CounterGroup` plus
/// pack/unpack on packed bytes: random increment / overflow / set-minor
/// sequences keep the image byte-identical to packing the oracle's
/// groups, padding bits included, and read back the oracle's values.
#[test]
fn counter_image_ops_match_the_group_oracle() {
    for block_bytes in [64usize, 128, 256] {
        let geo = CounterBlock::geometry(block_bytes, 4096);
        check(64, |g| {
            let mut groups: Vec<CounterGroup> = (0..geo.groups_per_block)
                .map(|_| CounterGroup::new(geo.blocks_per_page))
                .collect();
            let mut image = geo.pack(&groups);
            let mut overflows = 0;
            for _ in 0..g.range(1, 400) {
                let grp = g.range_usize(0, geo.groups_per_block);
                let slot = g.range_usize(0, geo.blocks_per_page);
                match g.below(8) {
                    0 => {
                        let minor = g.below(u64::from(MINOR_COUNTER_MAX) + 1) as u8;
                        groups[grp].set_minor(slot, minor);
                        geo.set_minor(&mut image, grp, slot, minor);
                    }
                    op => {
                        if op == 1 {
                            // Drive this counter to the brink of overflow.
                            groups[grp].set_minor(slot, MINOR_COUNTER_MAX);
                            geo.set_minor(&mut image, grp, slot, MINOR_COUNTER_MAX);
                        }
                        let outcome = geo.increment(&mut image, grp, slot);
                        assert_eq!(outcome, groups[grp].increment(slot));
                        overflows += u32::from(outcome == IncrementOutcome::MajorOverflow);
                    }
                }
                assert_eq!(geo.value_of(&image, grp, slot), groups[grp].value_of(slot));
            }
            assert_eq!(image, geo.pack(&groups), "{block_bytes} B, {overflows} overflows");
            for (grp, group) in groups.iter().enumerate() {
                for slot in 0..geo.blocks_per_page {
                    assert_eq!(geo.value_of(&image, grp, slot), group.value_of(slot));
                }
            }
            assert_eq!(geo.unpack(&image), groups);
        });
    }
}

/// On arbitrary bytes, `normalize` is exactly `pack(unpack(·))`, reads
/// see through the padding it clears, and `set_minor` changes no bit
/// outside its own 7-bit field.
#[test]
fn counter_image_normalize_matches_repacking() {
    for block_bytes in [64usize, 128, 256] {
        let geo = CounterBlock::geometry(block_bytes, 4096);
        check(64, |g| {
            let mut image = g.byte_vec(block_bytes);
            let repacked = geo.pack(&geo.unpack(&image));
            for grp in 0..geo.groups_per_block {
                for slot in 0..geo.blocks_per_page {
                    assert_eq!(geo.value_of(&image, grp, slot), geo.value_of(&repacked, grp, slot));
                }
            }
            let (grp, slot) = (
                g.range_usize(0, geo.groups_per_block),
                g.range_usize(0, geo.blocks_per_page),
            );
            let minor = g.below(u64::from(MINOR_COUNTER_MAX) + 1) as u8;
            let before = image.clone();
            geo.set_minor(&mut image, grp, slot, minor);
            let mut oracle = geo.unpack(&before);
            oracle[grp].set_minor(slot, minor);
            let group_bytes = (64 + geo.blocks_per_page * 7).div_ceil(8);
            let field = (grp * group_bytes + 8) * 8 + slot * 7;
            for bit in 0..block_bytes * 8 {
                let flipped = (image[bit / 8] ^ before[bit / 8]) >> (bit % 8) & 1 == 1;
                assert!(!flipped || (field..field + 7).contains(&bit), "bit {bit} changed");
            }
            geo.normalize(&mut image);
            assert_eq!(image, geo.pack(&oracle));
            geo.normalize(&mut image);
            assert_eq!(image, geo.pack(&oracle), "normalize is idempotent");
        });
    }
}

#[test]
fn second_level_mac_distinguishes_minors() {
    let eng = MacEngine::new(MacKey([1u8; 16]));
    check(128, |g| {
        let data = g.byte_vec(128);
        let minor_a = g.below(128) as u8;
        let minor_b = g.below(128) as u8;
        if minor_a == minor_b {
            return;
        }
        let mut first = [0u8; 16];
        let a = eng.both_levels(0x40, 9, minor_a, &data, &mut first);
        let b = eng.both_levels(0x40, 9, minor_b, &data, &mut first);
        assert_ne!(a, b);
    });
}
