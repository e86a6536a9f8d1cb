//! Bring your own workload: this example writes a persistent FIFO queue
//! (producer/consumer ring buffer) directly against the transaction
//! runtime, generates its store trace, and evaluates it under the
//! baseline and Thoth.
//!
//! Use this as the template for evaluating your own persistent data
//! structure on the simulator.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "prints results")]

use thoth_repro::sim::{run_trace, Mode, SimConfig};
use thoth_repro::sim_engine::DetRng;
use thoth_repro::workloads::{MultiCoreTrace, TxRuntime};

/// A persistent MPSC-style ring buffer: fixed slots, head/tail indices
/// stored persistently, every enqueue/dequeue is a durable transaction.
struct PersistentRing {
    slots: u64,
    slot_size: usize,
    data_base: u64,
    head_cell: u64,
    tail_cell: u64,
}

impl PersistentRing {
    fn create(rt: &mut TxRuntime, slots: u64, slot_size: usize) -> Self {
        let data_base = rt.alloc(slots * slot_size as u64);
        let head_cell = rt.alloc(8);
        let tail_cell = rt.alloc(8);
        rt.begin();
        rt.write_new_u64(head_cell, 0);
        rt.write_new_u64(tail_cell, 0);
        rt.commit();
        PersistentRing {
            slots,
            slot_size,
            data_base,
            head_cell,
            tail_cell,
        }
    }

    fn enqueue(&self, rt: &mut TxRuntime, payload: &[u8]) -> bool {
        rt.begin();
        let head = rt.read_u64(self.head_cell);
        let tail = rt.read_u64(self.tail_cell);
        if head - tail >= self.slots {
            rt.commit();
            return false; // full
        }
        let slot = self.data_base + (head % self.slots) * self.slot_size as u64;
        // Slot contents first, then the head index — the index publish is
        // the linearization point, so a crash never exposes a torn slot.
        rt.write(slot, &payload[..payload.len().min(self.slot_size)]);
        rt.write_u64(self.head_cell, head + 1);
        rt.commit();
        true
    }

    fn dequeue(&self, rt: &mut TxRuntime) -> Option<Vec<u8>> {
        rt.begin();
        let head = rt.read_u64(self.head_cell);
        let tail = rt.read_u64(self.tail_cell);
        if tail == head {
            rt.commit();
            return None; // empty
        }
        let slot = self.data_base + (tail % self.slots) * self.slot_size as u64;
        let v = rt.read(slot, self.slot_size);
        rt.write_u64(self.tail_cell, tail + 1);
        rt.commit();
        Some(v)
    }
}

fn main() {
    // Each simulated core runs its own ring with a bursty 2:1
    // produce/consume mix.
    let cores = 4;
    let txs_per_core = 2_000;
    let mut traces = Vec::new();
    for core in 0..cores {
        let mut rt = TxRuntime::new(0x1000_0000 + core as u64 * ((1 << 30) + 37 * 128));
        let mut rng = DetRng::seed_from(42 + core as u64);
        let ring = PersistentRing::create(&mut rt, 1024, 128);
        let mut produced = 0u64;
        for _ in 0..txs_per_core {
            if rng.gen_bool(2.0 / 3.0) {
                let mut payload = [0u8; 128];
                rng.fill_bytes(&mut payload);
                if ring.enqueue(&mut rt, &payload) {
                    produced += 1;
                }
            } else if ring.dequeue(&mut rt).is_some() {
                produced -= 1;
            }
        }
        println!("core {core}: {produced} items left in the ring");
        traces.push(rt.into_trace());
    }
    let trace = MultiCoreTrace {
        cores: traces,
        warmup_txs_per_core: 200,
    };

    println!(
        "\nring-buffer workload: {} txs, {} stores",
        trace.total_txs(),
        trace.total_stores()
    );
    let base = run_trace(&SimConfig::paper_default(Mode::baseline(), 128), &trace);
    let thoth = run_trace(&SimConfig::paper_default(Mode::thoth_wtsc(), 128), &trace);
    println!(
        "baseline: {} cycles, {} writes",
        base.total_cycles,
        base.writes_total()
    );
    println!(
        "thoth   : {} cycles, {} writes  (speedup {:.3}x, writes x{:.3})",
        thoth.total_cycles,
        thoth.writes_total(),
        thoth.speedup_over(&base),
        thoth.write_ratio_vs(&base)
    );
}
