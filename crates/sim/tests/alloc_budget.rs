//! Allocation budget of the replay path: in steady state a replayed
//! store must not allocate. Block images have one owner each that is
//! reused (NVM chunks, recycled WPQ payloads, cache lines whose buffers
//! pass from victim to fill), so the measured phase of a cold run may
//! allocate only a small per-store remainder (the report, the odd map
//! growth, the PUB prefill pool's ring).
//!
//! A counting global allocator tallies allocations (`alloc`,
//! `alloc_zeroed` and `realloc`) made on the test's own thread, so the
//! harness's other threads never leak into a measurement. The
//! measured-phase count of a job is a cold `run_trace` minus
//! `SecureNvm::new` + `warm_boot` of the same trace: both do the same
//! construction and warm-up, so the difference is the measured replay
//! (plus the report).

#![allow(unsafe_code, reason = "a counting GlobalAlloc is an unsafe impl")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use thoth_sim::{run_trace, Mode, SecureNvm, SimConfig};
use thoth_workloads::{spec, MultiCoreTrace, TraceOp, WorkloadConfig, WorkloadKind};

/// Forwards to the system allocator, counting allocations per thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // A const-initialized `Cell` has no destructor, so the access never
    // allocates or fails; `try_with` only guards thread teardown.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Counting` upholds the `GlobalAlloc` contract exactly as `System`
// does. The only extra work is bumping a thread-local counter, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's guarantees for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed
        // through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` was allocated by this allocator (hence by
        // `System`) with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (hence by
        // `System`) with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on the calling thread.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The budget: measured-phase allocations per measured `Store` op.
const MAX_ALLOCS_PER_STORE: f64 = 2.0;

/// The quick headline trace of `kind` (`WorkloadConfig::at_scale` at
/// scale 0.02), as in `mode_parity.rs`.
fn quick_trace(kind: WorkloadKind) -> MultiCoreTrace {
    spec::generate(WorkloadConfig::at_scale(kind, 0.02))
}

/// `Store` ops after each core's warm-up transactions.
fn measured_stores(trace: &MultiCoreTrace) -> u64 {
    let mut stores = 0;
    for ops in &trace.cores {
        let mut commits = 0;
        for op in ops.iter() {
            match op {
                TraceOp::Commit => commits += 1,
                TraceOp::Store { .. } if commits >= trace.warmup_txs_per_core => stores += 1,
                _ => {}
            }
        }
    }
    stores
}

#[test]
fn measured_stores_stay_within_the_allocation_budget() {
    let trace = quick_trace(WorkloadKind::Btree);
    let stores = measured_stores(&trace);
    assert!(stores > 500, "the trace must measure real store traffic ({stores})");
    let mut rows = Vec::new();
    for mode in Mode::ALL {
        for block in [128usize, 256] {
            let cfg = SimConfig::paper_default(mode, block);
            let (cold, cold_report) = allocs_during(|| run_trace(&cfg, &trace));
            let (warm, boot) = allocs_during(|| SecureNvm::new(cfg.clone()).warm_boot(&trace));
            assert_eq!(boot.run(&trace).digest(), cold_report.digest());
            let per_store = cold.saturating_sub(warm) as f64 / stores as f64;
            rows.push((mode.label(), block, cold, warm, per_store));
        }
    }
    let table: String = rows
        .iter()
        .map(|(mode, block, cold, warm, per)| {
            format!("  {mode:<12} {block:>3} B  cold {cold:>7}  new+warm_boot {warm:>7}  per store {per:.2}\n")
        })
        .collect();
    for &(mode, block, _, _, per_store) in &rows {
        assert!(
            per_store <= MAX_ALLOCS_PER_STORE,
            "{mode} at {block} B allocates {per_store:.2} times per measured store \
             (budget {MAX_ALLOCS_PER_STORE}; {stores} stores):\n{table}"
        );
    }
}
