//! Stream pins for the machine's instrumentation tap.
//!
//! Every mode in [`Mode::ALL`] replays one small trace per paper
//! workload three ways, and field-wise FNV digests of what the observers
//! saw are pinned:
//!
//! * the [`SecureNvm::run_psan`] persist-event stream (sequence number,
//!   `(core, op)` context and every field of every event kind, PUB
//!   images included) and its length;
//! * the [`SecureNvm::run_to_crash`] op log and fired flag at one fixed
//!   crash plan, in [`FunctionalMode::Full`];
//! * the [`SecureNvm::enumerate_crash_sites`] per-kind counts.
//!
//! The sanitizer, the crash oracle and the crash sweep consume exactly
//! these streams, so any change to how the machine feeds its observers —
//! event order included — shows up here before it reaches a harness.
//! On a mismatch the test prints the whole recomputed table.

use thoth_sim::{
    CrashPlan, CrashSiteKind, Fnv1a, FunctionalMode, LoggedOp, Mode, PersistEventKind, SecureNvm,
    SimConfig,
};
use thoth_workloads::{spec, MultiCoreTrace, WorkloadConfig, WorkloadKind};

/// The crash point every `run_to_crash` pin replays to.
const PLAN: CrashPlan = CrashPlan {
    site: CrashSiteKind::Persist,
    nth: 60,
};

/// One pinned row: workload, mode, psan stream digest and length, op-log
/// digest, fired flag, and the crash-site counts in
/// [`CrashSiteKind::ALL`] order.
type Row = (&'static str, &'static str, u64, usize, u64, bool, [u64; 4]);

#[rustfmt::skip]
const PINS: &[Row] = &[
    ("btree", "baseline", 0xca94c1312b4304cc, 3372, 0x0eafa22649fab5c2, true, [501, 287, 0, 0]),
    ("btree", "thoth-wtsc", 0xabee9cab0bc4cd81, 2122, 0x02bae48e679a8e46, true, [501, 287, 22, 78]),
    ("btree", "thoth-wtbc", 0x1b5377ec74d3e650, 2005, 0x02bae48e679a8e46, true, [501, 287, 23, 65]),
    ("btree", "anubis-ecc", 0x41ae310ef85fdbf8, 1703, 0xb35faff262b12b08, true, [501, 287, 0, 0]),
    ("btree", "eadr", 0xe44804b3b03d1e08, 1684, 0xb35faff262b12b08, true, [501, 287, 0, 0]),
    ("btree", "phoenix", 0xf21abcc9e4eb78f0, 2491, 0x0f6e17e2bf00eeed, true, [501, 287, 0, 0]),
    ("btree", "freij-strict", 0x7c996d3a598547ca, 8535, 0x3b8ef9ff5f54e965, true, [501, 287, 0, 0]),
    ("btree", "freij-lazy", 0x48649a283ee954c2, 3369, 0x9161ff0efb55abfa, true, [501, 287, 0, 0]),
    ("rbtree", "baseline", 0xa9cfa1157b9ff4d8, 5160, 0x01c998d7ddf5f6d1, true, [818, 728, 0, 0]),
    ("rbtree", "thoth-wtsc", 0x8a8bc480f1f63621, 3191, 0x01c998d7ddf5f6d1, true, [818, 728, 22, 96]),
    ("rbtree", "thoth-wtbc", 0xae7ba917cb10865c, 3081, 0x01c998d7ddf5f6d1, true, [818, 728, 22, 76]),
    ("rbtree", "anubis-ecc", 0xce28e2274f8c9c8f, 2765, 0x01c998d7ddf5f6d1, true, [818, 728, 0, 0]),
    ("rbtree", "eadr", 0xd755502408de8762, 2732, 0x01c998d7ddf5f6d1, true, [818, 728, 0, 0]),
    ("rbtree", "phoenix", 0xcd5c5bcc3467fc91, 3900, 0x01c998d7ddf5f6d1, true, [818, 728, 0, 0]),
    ("rbtree", "freij-strict", 0xdf44750f53810b11, 13593, 0x99f498b3e4e35378, true, [818, 728, 0, 0]),
    ("rbtree", "freij-lazy", 0x7ff978f63f648807, 5167, 0x01c998d7ddf5f6d1, true, [818, 728, 0, 0]),
    ("hashmap", "baseline", 0x5ee0d59e3b68823b, 2252, 0x706c1cdb41bc5e04, true, [323, 281, 0, 0]),
    ("hashmap", "thoth-wtsc", 0x425e1bd5edea03a9, 1343, 0xe2070612470432ed, true, [323, 281, 9, 0]),
    ("hashmap", "thoth-wtbc", 0x87b8770328f16005, 1311, 0xe2070612470432ed, true, [323, 281, 9, 0]),
    ("hashmap", "anubis-ecc", 0xc0f5b70f79076779, 1171, 0x5fa916e49648b585, true, [323, 281, 0, 0]),
    ("hashmap", "eadr", 0xd66eeaf7422b4ec2, 1158, 0xaa4674e413b7ec7f, true, [323, 281, 0, 0]),
    ("hashmap", "phoenix", 0x6f58ba9d6a11d5d5, 1613, 0x85f45149e6bd3699, true, [323, 281, 0, 0]),
    ("hashmap", "freij-strict", 0x6b6b8359daf87bc1, 5784, 0xfaca77998acfeff2, true, [323, 281, 0, 0]),
    ("hashmap", "freij-lazy", 0x3b6842d46f269484, 2237, 0x706c1cdb41bc5e04, true, [323, 281, 0, 0]),
    ("ctree", "baseline", 0xbf7771538acf42d0, 2675, 0xeaa6cb9badbcad57, true, [383, 322, 0, 0]),
    ("ctree", "thoth-wtsc", 0x774459370f5be305, 1527, 0xf3a219986f053ba6, true, [383, 322, 10, 0]),
    ("ctree", "thoth-wtbc", 0xf91f120da97be46f, 1482, 0xf3a219986f053ba6, true, [383, 322, 10, 0]),
    ("ctree", "anubis-ecc", 0x236b80cf3d57324e, 1342, 0xf3a219986f053ba6, true, [383, 322, 0, 0]),
    ("ctree", "eadr", 0x73cc0488362b650d, 1324, 0xf3a219986f053ba6, true, [383, 322, 0, 0]),
    ("ctree", "phoenix", 0x1e5170cccbbed692, 1905, 0x59f64aa565ecc63e, true, [383, 322, 0, 0]),
    ("ctree", "freij-strict", 0x0f4b539fe3677142, 6844, 0x0483f92571d68502, true, [383, 322, 0, 0]),
    ("ctree", "freij-lazy", 0x6fe7472487e14899, 2671, 0xeaa6cb9badbcad57, true, [383, 322, 0, 0]),
    ("swap", "baseline", 0x15db7ffe5f848f50, 1089, 0x172ad2b6fe874561, true, [180, 180, 0, 0]),
    ("swap", "thoth-wtsc", 0xf603925f8432c5b2, 666, 0x172ad2b6fe874561, true, [180, 180, 0, 0]),
    ("swap", "thoth-wtbc", 0xf603925f8432c5b2, 666, 0x172ad2b6fe874561, true, [180, 180, 0, 0]),
    ("swap", "anubis-ecc", 0xbf04da92b3b8b2f1, 643, 0x172ad2b6fe874561, true, [180, 180, 0, 0]),
    ("swap", "eadr", 0xc8c64fbc43924411, 643, 0x172ad2b6fe874561, true, [180, 180, 0, 0]),
    ("swap", "phoenix", 0xaae45b7b6d5107bf, 850, 0x172ad2b6fe874561, true, [180, 180, 0, 0]),
    ("swap", "freij-strict", 0xf1b3d88c70980302, 2981, 0xfdbe7d2b24a1f767, true, [180, 180, 0, 0]),
    ("swap", "freij-lazy", 0x5d7ed6a00270a886, 1089, 0x172ad2b6fe874561, true, [180, 180, 0, 0]),
];

/// Paper defaults with a 64-block PUB evicting at 20% fill, so the
/// Thoth modes exercise PUB eviction (and its metadata-persist anchors)
/// even in these short traces.
fn config_for(mode: Mode) -> SimConfig {
    let mut c = SimConfig::paper_default(mode, 128);
    c.pub_size_bytes = 8 << 10;
    c.pub_threshold_pct = 20;
    c
}

/// The same small traces as `telemetry_neutrality`: paper defaults
/// scaled down, pre-population shrunk to match.
fn trace_for(kind: WorkloadKind) -> MultiCoreTrace {
    let mut cfg = WorkloadConfig::paper_default(kind).scaled(0.005);
    cfg.footprint = match kind {
        WorkloadKind::Swap => 4,
        WorkloadKind::Queue => 32,
        _ => 2_000,
    };
    cfg.prepopulate = cfg.footprint / 2;
    spec::generate(cfg)
}

fn psan_digest(config: &SimConfig, trace: &MultiCoreTrace) -> (u64, usize) {
    let (_, events) = SecureNvm::new(config.clone()).run_psan(trace);
    let mut h = Fnv1a::default();
    for e in &events {
        h.u64(e.seq);
        h.u64(u64::from(e.core));
        h.u64(u64::from(e.op));
        match &e.kind {
            PersistEventKind::Store { addr, len, relaxed } => {
                h.u64(0);
                h.u64(*addr);
                h.u64(u64::from(*len));
                h.u64(u64::from(*relaxed));
            }
            PersistEventKind::Flush { block, pending } => {
                h.u64(1);
                h.u64(*block);
                h.u64(u64::from(*pending));
            }
            PersistEventKind::Accepted {
                block,
                category,
                coalesced,
            } => {
                h.u64(2);
                h.u64(*block);
                h.bytes(category.tag().as_bytes());
                h.u64(u64::from(*coalesced));
            }
            PersistEventKind::Drained { block, origins } => {
                h.u64(3);
                h.u64(*block);
                h.u64(u64::from(*origins));
            }
            PersistEventKind::MetaCover { block, mech } => {
                h.u64(4);
                h.u64(*block);
                h.bytes(mech.name().as_bytes());
            }
            PersistEventKind::Fence => h.u64(5),
            PersistEventKind::Commit => h.u64(6),
            PersistEventKind::PubAppend { addr, image } => {
                h.u64(7);
                h.u64(*addr);
                h.bytes(image);
            }
            PersistEventKind::PubEvict { addr } => {
                h.u64(8);
                h.u64(*addr);
            }
        }
    }
    (h.finish(), events.len())
}

fn op_log_digest(config: &SimConfig, trace: &MultiCoreTrace) -> (u64, bool) {
    let mut config = config.clone();
    config.functional = FunctionalMode::Full;
    let mut m = SecureNvm::new(config);
    let fired = m.run_to_crash(trace, PLAN);
    let mut h = Fnv1a::default();
    for op in m.take_op_log() {
        match op {
            LoggedOp::Store { core, block } => {
                h.u64(0);
                h.u64(core as u64);
                h.u64(block);
            }
            LoggedOp::Commit { core } => {
                h.u64(1);
                h.u64(core as u64);
            }
        }
    }
    (h.finish(), fired)
}

fn site_counts(config: &SimConfig, trace: &MultiCoreTrace) -> [u64; 4] {
    let counts = SecureNvm::new(config.clone()).enumerate_crash_sites(trace);
    CrashSiteKind::ALL.map(|k| counts.of(k))
}

fn render(row: &Row) -> String {
    let (w, m, psan, len, log, fired, c) = row;
    format!(
        "    (\"{w}\", \"{m}\", {psan:#018x}, {len}, {log:#018x}, {fired}, [{}, {}, {}, {}]),",
        c[0], c[1], c[2], c[3]
    )
}

#[test]
fn instrumentation_streams_match_the_pins() {
    let mut rows: Vec<Row> = Vec::new();
    for kind in WorkloadKind::ALL {
        let trace = trace_for(kind);
        for mode in Mode::ALL {
            let config = config_for(mode);
            let (psan, len) = psan_digest(&config, &trace);
            let (log, fired) = op_log_digest(&config, &trace);
            let counts = site_counts(&config, &trace);
            rows.push((kind.name(), mode.label(), psan, len, log, fired, counts));
        }
    }
    let table: Vec<String> = rows.iter().map(render).collect();
    let first_diff = rows
        .iter()
        .zip(PINS)
        .position(|(got, want)| got != want);
    assert!(
        rows.len() == PINS.len() && first_diff.is_none(),
        "stream pins diverge at row {first_diff:?} (got {} rows, pinned {}):\n{}",
        rows.len(),
        PINS.len(),
        table.join("\n")
    );
}

/// The pinned plan fires exactly where the enumeration counted more
/// `Persist` anchors than its ordinal, and it does fire somewhere — so
/// the op-log pins cover crashed runs, not only completed ones.
#[test]
fn the_pinned_plan_fires_where_enumeration_says() {
    for r in PINS {
        assert_eq!(r.5, r.6[0] > PLAN.nth, "{}/{}", r.0, r.1);
    }
    assert!(PINS.iter().any(|r| r.5), "the plan never fires");
}
