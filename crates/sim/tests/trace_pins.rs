//! Trace-generation pins: the op stream and the `OpClass` stream that
//! `spec::generate_annotated` produces for every workload at quick scale
//! (`WorkloadConfig::at_scale(kind, 0.02)`, seed 0xC0FFEE, 4 cores, the
//! 5 000-key pre-population). The simulator digests cover only the ops
//! a replay reacts to; the class streams feed the persistency sanitizer
//! and the seeded-bug corpus, and nothing else pins them. A change to the
//! generators that is meant to be behaviour-neutral (heap layout, read
//! paths, buffer reuse) must leave both digests of every row unchanged.
//!
//! The open-loop service trace (`generate_service`) is pinned the same
//! way, op stream plus request schedule, for each YCSB mix the `service`
//! experiment serves.

use thoth_sim::Fnv1a;
use thoth_workloads::{
    generate_service, spec, MixKind, OpClass, ReqKind, ServiceSpec, TraceOp, WorkloadConfig,
    WorkloadKind,
};

/// `(workload, ops digest, classes digest, total ops)`.
type Row = (&'static str, u64, u64, usize);

#[rustfmt::skip]
const PINS: &[Row] = &[
    ("btree", 0xab301c227c32a0f4, 0xd4c25d65bb5d102c, 4969),
    ("rbtree", 0x13b3a7a5507ed254, 0x1a6edb4f7fbc7cea, 16078),
    ("hashmap", 0x3517cf5b1c061455, 0xe82151a000ec9be0, 2696),
    ("ctree", 0x17277c94721ee7dc, 0x793fb2f4693deb64, 16986),
    ("swap", 0x12ecc81d4fb3f349, 0x0c1da2c607860a45, 1440),
    ("queue", 0xc9fd824b93870fcd, 0xf5f88e74c6697505, 1684),
    ("service", 0x34bfbfde8d07c69b, 0x4a6d941267650a1e, 1369),
];

fn fold_op(h: &mut Fnv1a, op: &TraceOp) {
    let (tag, addr, len) = match *op {
        TraceOp::Read { addr, len } => (0, addr, len),
        TraceOp::Store { addr, len } => (1, addr, len),
        TraceOp::StoreRelaxed { addr, len } => (2, addr, len),
        TraceOp::Flush { addr, len } => (3, addr, len),
        TraceOp::Fence => (4, 0, 0),
        TraceOp::Commit => (5, 0, 0),
    };
    h.bytes(&[tag]);
    h.u64(addr);
    h.u64(u64::from(len));
}

fn fold_class(h: &mut Fnv1a, class: &OpClass) {
    let (tag, addr, len) = match *class {
        OpClass::Read => (0, 0, 0),
        OpClass::LogAppend {
            guard_addr,
            guard_len,
        } => (1, guard_addr, guard_len),
        OpClass::CommitRecord => (2, 0, 0),
        OpClass::DataInPlace => (3, 0, 0),
        OpClass::DataFresh => (4, 0, 0),
        OpClass::Flush => (5, 0, 0),
        OpClass::Fence => (6, 0, 0),
        OpClass::Commit => (7, 0, 0),
    };
    h.bytes(&[tag]);
    h.u64(addr);
    h.u64(u64::from(len));
}

fn row(kind: WorkloadKind) -> Row {
    let annotated = spec::generate_annotated(WorkloadConfig::at_scale(kind, 0.02));
    let (mut ops, mut classes) = (Fnv1a::default(), Fnv1a::default());
    let mut total = 0;
    for (core_ops, core_classes) in annotated.trace.cores.iter().zip(&annotated.classes) {
        assert_eq!(
            core_ops.len(),
            core_classes.len(),
            "{kind}: streams misaligned"
        );
        ops.u64(core_ops.len() as u64);
        classes.u64(core_classes.len() as u64);
        for op in core_ops.iter() {
            fold_op(&mut ops, op);
        }
        for class in core_classes.iter() {
            fold_class(&mut classes, class);
        }
        total += core_ops.len();
    }
    (kind.name(), ops.finish(), classes.finish(), total)
}

#[test]
fn generated_traces_match_the_pins() {
    let rows: Vec<Row> = WorkloadKind::EXTENDED.into_iter().map(row).collect();
    let table: Vec<String> = rows
        .iter()
        .map(|(w, ops, cls, n)| format!("    (\"{w}\", {ops:#018x}, {cls:#018x}, {n}),"))
        .collect();
    let first_diff = rows.iter().zip(PINS).position(|(got, want)| got != want);
    assert!(
        rows.len() == PINS.len() && first_diff.is_none(),
        "trace pins diverge at row {first_diff:?} (got {} rows, pinned {}):\n{}",
        rows.len(),
        PINS.len(),
        table.join("\n")
    );
}

/// `(mix, ops digest, request-schedule digest, total requests)`.
type ServiceRow = (&'static str, u64, u64, usize);

#[rustfmt::skip]
const SERVICE_PINS: &[ServiceRow] = &[
    ("ycsb-a", 0xd0404b1f01a4da61, 0x89a3f66914e674e7, 192),
    ("ycsb-b", 0x400327d89361e99b, 0xfded72cab1b188c2, 192),
    ("ycsb-f", 0x6a9741fc33901dd1, 0x9807d0157c1fcf53, 192),
];

fn service_row(mix: MixKind) -> ServiceRow {
    let mut spec = ServiceSpec::default_spec().scaled(0.02);
    spec.mix = mix;
    let st = generate_service(&spec);
    let (mut ops, mut requests) = (Fnv1a::default(), Fnv1a::default());
    for (core_ops, metas) in st.trace.cores.iter().zip(&st.requests) {
        ops.u64(core_ops.len() as u64);
        requests.u64(metas.len() as u64);
        for op in core_ops.iter() {
            fold_op(&mut ops, op);
        }
        for m in metas {
            let kind = match m.kind {
                ReqKind::Read => 0,
                ReqKind::Update => 1,
                ReqKind::Rmw => 2,
            };
            requests.u64(m.arrival);
            requests.u64(u64::from(m.ops));
            requests.u64(u64::from(m.tenant));
            requests.bytes(&[kind, u8::from(m.measured)]);
        }
    }
    (
        mix.name(),
        ops.finish(),
        requests.finish(),
        st.total_requests(),
    )
}

#[test]
fn open_loop_service_traces_match_the_pins() {
    let rows: Vec<ServiceRow> = [MixKind::A, MixKind::B, MixKind::F]
        .into_iter()
        .map(service_row)
        .collect();
    let table: Vec<String> = rows
        .iter()
        .map(|(mix, ops, reqs, n)| format!("    (\"{mix}\", {ops:#018x}, {reqs:#018x}, {n}),"))
        .collect();
    let first_diff = rows
        .iter()
        .zip(SERVICE_PINS)
        .position(|(got, want)| got != want);
    assert!(
        rows.len() == SERVICE_PINS.len() && first_diff.is_none(),
        "service trace pins diverge at row {first_diff:?} (got {} rows, pinned {}):\n{}",
        rows.len(),
        SERVICE_PINS.len(),
        table.join("\n")
    );
}
