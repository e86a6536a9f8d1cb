//! Property tests for the crypto substrate: round-trips, uniqueness and
//! packing invariants under random inputs (deterministic thoth-testkit
//! cases; a failure names the replayable case index).

use thoth_crypto::counter::{CounterBlock, CounterGroup};
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
        assert_ne!(
            ctr.encrypt(addr1, 0, 0, &data),
            ctr.encrypt(addr2, 0, 0, &data)
        );
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
        let (_, a) = eng.both_levels(0x40, 9, minor_a, &data);
        let (_, b) = eng.both_levels(0x40, 9, minor_b, &data);
        assert_ne!(a, b);
    });
}
