//! Property-based security tests spanning the crypto, core and merkle
//! crates: the invariants that make Thoth's crash consistency *secure*,
//! exercised with the deterministic thoth-testkit harness.

use thoth_repro::core::{PartialUpdate, PubBlockCodec};
use thoth_repro::crypto::counter::CounterGroup;
use thoth_repro::crypto::{CtrMode, MacEngine, MacKey};
use thoth_repro::merkle::{BonsaiTree, MerkleConfig};
use thoth_testkit::{check, Gen};

fn arb_update(g: &mut Gen) -> PartialUpdate {
    PartialUpdate {
        block_index: g.u64() as u32,
        minor: g.below(128) as u8,
        mac2: g.u64(),
        ctr_status: g.bool(),
        mac_status: g.bool(),
    }
}

#[test]
fn pub_codec_roundtrips_any_entries() {
    check(64, |g| {
        let updates = g.vec_of(1, 10, arb_update);
        let codec = PubBlockCodec::new(128);
        let mut decoded = Vec::new();
        codec.decode_into(&codec.encode(&updates), &mut decoded);
        // Crash padding collapses *adjacent duplicates*; reinflate for
        // comparison by deduping the input the same way.
        let mut expect = updates.clone();
        expect.dedup();
        decoded.truncate(expect.len());
        assert_eq!(decoded, expect);
    });
}

#[test]
fn ctr_mode_roundtrips_and_is_counter_sensitive() {
    let ctr = CtrMode::new(b"prop-test-key..!");
    check(64, |g| {
        let addr = g.below(1 << 40);
        let major = g.u64();
        let minor = g.below(128) as u8;
        let data = g.byte_vec(128);
        let mut ct = data.clone();
        ctr.encrypt(addr, major, minor, &mut ct);
        let mut back = ct.clone();
        ctr.decrypt(addr, major, minor, &mut back);
        assert_eq!(back, data);
        let mut wrong = ct.clone();
        ctr.decrypt(addr, major, minor ^ 1, &mut wrong);
        assert_ne!(wrong, data);
    });
}

#[test]
fn macs_bind_every_input() {
    let eng = MacEngine::new(MacKey([7u8; 16]));
    check(64, |g| {
        let addr = g.below(1 << 40);
        let major = g.u64();
        let minor = g.below(128) as u8;
        let data = g.byte_vec(128);
        let flip = g.range_usize(0, 128);
        let (mut first, mut first2) = ([0u8; 16], [0u8; 16]);
        let second = eng.both_levels(addr, major, minor, &data, &mut first);
        let mut tampered = data.clone();
        tampered[flip] ^= 0x10;
        let second2 = eng.both_levels(addr, major, minor, &tampered, &mut first2);
        assert_ne!(first, first2);
        assert_ne!(second, second2);
    });
}

#[test]
fn counter_groups_roundtrip_after_any_increments() {
    check(64, |g| {
        let increments = g.vec_of(0, 300, |g| g.range_usize(0, 32));
        let mut grp = CounterGroup::new(32);
        for i in increments {
            grp.increment(i);
        }
        let back = CounterGroup::from_bytes(&grp.to_bytes(), 32);
        assert_eq!(back, grp);
    });
}

#[test]
fn merkle_root_depends_on_every_leaf() {
    check(64, |g| {
        let leaves = g.vec_of(1, 40, |g| (g.below(512), g.u64()));
        let tweak_idx = g.range_usize(0, 40);
        // Duplicate indices overwrite (last wins), so tweak the *final*
        // state of one leaf, not an intermediate update.
        let final_state: std::collections::BTreeMap<u64, u64> =
            leaves.iter().copied().collect();
        let cfg = MerkleConfig::new(8, 512);
        let a = BonsaiTree::from_leaves(cfg, 99, final_state.clone());
        let mut tweaked = final_state.clone();
        let key = *tweaked.keys().nth(tweak_idx % tweaked.len()).unwrap();
        tweaked.insert(key, final_state[&key].wrapping_add(1));
        let b = BonsaiTree::from_leaves(cfg, 99, tweaked);
        assert_ne!(a.root(), b.root());
    });
}

#[test]
fn merkle_verification_rejects_wrong_hashes() {
    check(64, |g| {
        let index = g.below(512);
        let value = g.range(1, u64::MAX);
        let mut t = BonsaiTree::new(MerkleConfig::new(8, 512), 5);
        t.update_leaf(index, value);
        assert!(t.verify_leaf(index, value));
        assert!(!t.verify_leaf(index, value.wrapping_add(1)));
    });
}

#[test]
fn second_level_mac_gate_rejects_forged_partial_updates() {
    // The recovery-merge rule: an entry merges only if its second-level
    // MAC matches the one recomputed from the persisted ciphertext. A
    // forged minor in a PUB entry must not pass.
    let eng = MacEngine::new(MacKey([9u8; 16]));
    let ctr = CtrMode::new(b"prop-test-key..!");
    let addr = 0x4000u64;
    let data = vec![0x5Au8; 128];
    let mut ct = data.clone();
    ctr.encrypt(addr, 3, 7, &mut ct);
    let mut first = [0u8; 16];
    let genuine = eng.both_levels(addr, 3, 7, &ct, &mut first);

    // Attacker claims the counter was 8 instead of 7.
    let mut first_forged = [0u8; 16];
    eng.first_level(addr, 3, 8, &ct, &mut first_forged);
    let second_forged = eng.second_level(addr, &first_forged);
    assert_ne!(genuine, second_forged, "forged counter must not verify");
}
