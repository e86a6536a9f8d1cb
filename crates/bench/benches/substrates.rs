//! Microbenchmarks of the substrates (ablation-style): AES, SipHash,
//! two-level MACs, split-counter packing, Merkle-tree updates, the
//! set-associative cache, the PUB block codec, and the Figure 3
//! hypothetical-FIFO replay.

use std::hint::black_box;
use std::time::Duration;
use thoth_bench::group;

use thoth_cache::{CacheConfig, SetAssocCache};
use thoth_core::analysis::{MetaUpdate, PubAnalysis};
use thoth_core::{EvictionPolicy, PartialUpdate, PubBlockCodec};
use thoth_crypto::counter::CounterBlock;
use thoth_crypto::{Aes128, CtrMode, MacEngine, MacKey, SipHash24};
use thoth_merkle::{BonsaiTree, MerkleConfig};

fn main() {
    let substrates = group(
        "substrates",
        20,
        Duration::from_millis(300),
        Duration::from_secs(2),
    );

    let aes = Aes128::new(b"0123456789abcdef");
    substrates.bench("aes128-encrypt-block", |b| {
        b.iter(|| black_box(aes.encrypt_block(black_box(&[7u8; 16]))));
    });

    // The T-table software path, the fallback on machines without AES-NI.
    substrates.bench("aes-ttable-block", |b| {
        b.iter(|| black_box(aes.encrypt_block_ttable(black_box(&[7u8; 16]))));
    });

    // Dispatched backend (AES-NI where the CPU has it) vs the T-table
    // software path, on the 8-block batch shape the CTR engine issues.
    substrates.bench("aes_hw_vs_ttable/dispatched-batch8", |b| {
        b.iter(|| {
            let mut blocks = [[7u8; 16]; 8];
            aes.encrypt_blocks(black_box(&mut blocks));
            black_box(blocks)
        });
    });
    substrates.bench("aes_hw_vs_ttable/ttable-batch8", |b| {
        b.iter(|| {
            let mut blocks = [[7u8; 16]; 8];
            for blk in &mut blocks {
                *blk = aes.encrypt_block_ttable(black_box(blk));
            }
            black_box(blocks)
        });
    });

    let sip = SipHash24::new(1, 2);
    substrates.bench("siphash24-64B", |b| {
        b.iter(|| black_box(sip.hash(black_box(&[5u8; 64]))));
    });

    // Head-to-head on the merkle/MAC row shape: the dispatched multi-lane
    // batch kernel (AVX2 where the CPU has it) vs the forced-soft
    // scalar-interleaved path, over a 64-row batch of 9-word rows (one
    // dirty-parent set of an arity-8 tree level).
    let rows: Vec<[u64; 9]> = (0..64u64)
        .map(|i| std::array::from_fn(|j| i * 31 + j as u64))
        .collect();
    let mut tags = vec![0u64; rows.len()];
    substrates.bench("siphash_simd_vs_scalar/dispatched-batch64", |b| {
        b.iter(|| {
            sip.hash_words_batch(black_box(&rows), &mut tags);
            black_box(&tags);
        });
    });
    let sip_soft = SipHash24::new_soft(1, 2);
    substrates.bench("siphash_simd_vs_scalar/soft-batch64", |b| {
        b.iter(|| {
            sip_soft.hash_words_batch(black_box(&rows), &mut tags);
            black_box(&tags);
        });
    });
    substrates.bench("siphash_simd_vs_scalar/serial-batch64", |b| {
        b.iter(|| {
            let out: Vec<u64> = rows.iter().map(|r| sip.hash_words(black_box(r))).collect();
            black_box(out)
        });
    });

    let ctr = CtrMode::new(b"0123456789abcdef");
    substrates.bench("ctr-encrypt-128B-block", |b| {
        let mut block = [9u8; 128];
        b.iter(|| {
            ctr.encrypt(0x1000, 3, 4, black_box(&mut block));
            black_box(&block);
        });
    });

    let mac = MacEngine::new(MacKey([3u8; 16]));
    substrates.bench("two-level-mac-128B", |b| {
        let mut first = [0u8; MacEngine::first_level_len(128)];
        b.iter(|| black_box(mac.both_levels(0x1000, 3, 4, black_box(&[9u8; 128]), &mut first)));
    });

    substrates.bench("counter-image-increment-in-place", |b| {
        let geometry = CounterBlock::geometry(128, 4096);
        let mut image = vec![0u8; 128];
        let mut slot = 0;
        b.iter(|| {
            slot = (slot + 7) % geometry.blocks_per_page;
            black_box(geometry.increment(black_box(&mut image), 1, slot))
        });
    });

    substrates.bench("merkle-update-leaf-10-level", |b| {
        let mut t = BonsaiTree::new(MerkleConfig::new(8, 8u64.pow(9)), 42);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 12345) % 8u64.pow(9);
            black_box(t.update_leaf(i, i))
        });
    });

    substrates.bench("cache-lookup-insert", |b| {
        let mut cache: SetAssocCache<u64> =
            SetAssocCache::new(CacheConfig::new(64 << 10, 4, 64));
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9e37);
            let addr = (i % 100_000) * 64;
            if cache.lookup(addr).is_none() {
                cache.insert(addr, i);
            }
            black_box(cache.len())
        });
    });

    let codec = PubBlockCodec::new(128);
    let updates: Vec<PartialUpdate> = (0..9)
        .map(|i| PartialUpdate {
            block_index: i * 1000,
            minor: (i % 128) as u8,
            mac2: u64::from(i) * 31,
            ctr_status: true,
            mac_status: false,
        })
        .collect();
    substrates.bench("pub-codec-encode-decode-128B", |b| {
        let mut decoded = Vec::new();
        b.iter(|| {
            let img = codec.encode(black_box(&updates));
            codec.decode_into(&img, &mut decoded);
            black_box(&decoded);
        });
    });

    // The Figure 3 engine: the hypothetical-FIFO replay over a seeded
    // synthetic counter-update stream. Three of every four updates land
    // in a 256-block hot set that fits the 64 KiB metadata cache, the
    // rest in 4096 blocks that do not. Every FIFO size sees all four
    // eviction outcomes, and the written-back share falls from 90% at 50
    // entries to 0.2% at 20 000 — the figure's shape.
    let mut state = 0x5EED_u64;
    let stream: Vec<MetaUpdate> = (0..40_000u64)
        .map(|value| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut r = state;
            r = (r ^ (r >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            r = (r ^ (r >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            r ^= r >> 31;
            let blocks = if r & 3 == 0 { 4096 } else { 256 };
            MetaUpdate {
                meta_block: (r >> 8) % blocks * 128,
                subblock: ((r >> 40) % 32) as usize,
                value,
            }
        })
        .collect();
    let pub_analysis = group(
        "pub-analysis",
        10,
        Duration::from_millis(500),
        Duration::from_secs(2),
    );
    for fifo in [50usize, 2_000, 20_000] {
        pub_analysis.bench(format!("replay-fifo{fifo}"), |b| {
            b.iter(|| {
                let mut a = PubAnalysis::new(
                    CacheConfig::new(64 << 10, 4, 128),
                    fifo,
                    EvictionPolicy::Wtbc,
                );
                for u in &stream {
                    a.record(*u);
                }
                black_box(a.breakdown())
            });
        });
    }
}
