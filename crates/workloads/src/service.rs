//! Open-loop multi-tenant KV *service* workload — the "heavy traffic from
//! millions of users" scenario (an extension beyond the paper's
//! closed-loop suite).
//!
//! The paper's five workloads are closed-loop: each core issues its next
//! transaction the moment the previous one retires, so queueing delay is
//! invisible. A service front-end is the opposite regime — requests
//! arrive on their own schedule whether or not the memory system keeps
//! up, and the interesting number is the *tail* of the persist-ACK
//! latency measured from the **arrival** timestamp (queueing included).
//!
//! This module provides the trace-side half of that subsystem:
//!
//! * [`PoissonArrivals`] — seeded open-loop arrival schedule with
//!   exponential inter-arrival gaps (mean = 1/λ cycles),
//! * [`Zipfian`] — YCSB-style skewed key popularity (Gray et al.
//!   rejection-free generator),
//! * [`OpMix`] — YCSB A/B/F operation mixes with *exact* ratios over any
//!   window of 1000 requests (stride scheduler, not sampling),
//! * [`ServiceSpec`] / [`generate_service`] — many logical tenants, each
//!   a persistent chained hash table, multiplexed round-robin over the
//!   simulated cores; every request becomes a durable transaction through
//!   the ordinary [`TxRuntime`] discipline and is recorded in a
//!   [`ServiceTrace`] with its arrival cycle and op extent;
//! * [`run_closed`] — the same tenants and requests without an arrival
//!   schedule, the service core of the closed-loop
//!   [`crate::WorkloadKind::Service`] workload.
//!
//! Both generators load their tenants through one untraced loader and
//! serve each request through one transaction function, so the open-loop
//! and closed-loop services differ only in scheduling.
//!
//! The simulator's `run_service` replays the trace gating each request at
//! its arrival timestamp and reports per-request persist-ACK latency
//! histograms; the `service` experiment of `thoth-experiments` sweeps
//! offered load over that to produce the saturation curve.

use crate::hashmap::HashMapPm;
use crate::runtime::{MultiCoreTrace, TxRuntime};
use crate::spec::core_heap_base;
use thoth_sim_engine::DetRng;

// ---------------------------------------------------------------------
// Arrival schedule
// ---------------------------------------------------------------------

/// A seeded Poisson arrival process: exponential inter-arrival gaps with
/// a configurable mean, accumulated into absolute arrival cycles.
///
/// # Example
///
/// ```
/// use thoth_workloads::service::PoissonArrivals;
///
/// let mut a = PoissonArrivals::new(7, 1000.0);
/// let first = a.next_arrival();
/// let second = a.next_arrival();
/// assert!(second >= first);
/// ```
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rng: DetRng,
    mean_cycles: f64,
    clock: f64,
}

impl PoissonArrivals {
    /// Creates a process with the given seed and mean inter-arrival gap
    /// (in cycles; the offered rate is `1/mean` requests per cycle).
    ///
    /// # Panics
    ///
    /// Panics if `mean_cycles` is not strictly positive.
    #[must_use]
    pub fn new(seed: u64, mean_cycles: f64) -> Self {
        assert!(mean_cycles > 0.0, "mean inter-arrival must be positive");
        PoissonArrivals {
            rng: DetRng::seed_from(seed),
            mean_cycles,
            clock: 0.0,
        }
    }

    /// Draws the next exponential inter-arrival gap, in cycles.
    pub fn next_gap(&mut self) -> f64 {
        // u ∈ [0,1) → 1-u ∈ (0,1] → ln is finite, gap ≥ 0.
        let u = self.rng.gen_f64();
        -self.mean_cycles * (1.0 - u).ln()
    }

    /// Advances the schedule and returns the next absolute arrival cycle.
    pub fn next_arrival(&mut self) -> u64 {
        self.clock += self.next_gap();
        self.clock as u64
    }
}

// ---------------------------------------------------------------------
// Key popularity
// ---------------------------------------------------------------------

/// YCSB-style Zipfian rank generator (Gray et al., "Quickly generating
/// billion-record synthetic databases"): rank 0 is the most popular of
/// `n` items; `P(rank r) ∝ 1/(r+1)^theta`.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Builds a generator over `n` ranks with skew `theta` (YCSB default
    /// 0.99; `theta = 0` degenerates to uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in `[0, 1)`.
    #[must_use]
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "Zipfian needs at least one rank");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// The generalized harmonic number `sum_{i=1..n} 1/i^theta`.
    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Number of ranks.
    #[must_use]
    pub fn ranks(&self) -> u64 {
        self.n
    }

    /// Draws the next rank in `[0, n)`, most popular first.
    pub fn next_rank(&mut self, rng: &mut DetRng) -> u64 {
        let u = rng.gen_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// Scatters a popularity rank onto a key in `[0, n)` so hot keys spread
/// across the tenant's hash-table buckets (YCSB's `fnv(rank) % n` idiom,
/// here a Fibonacci scramble).
#[must_use]
pub fn scatter_rank(rank: u64, n: u64) -> u64 {
    rank.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) % n
}

// ---------------------------------------------------------------------
// Operation mix
// ---------------------------------------------------------------------

/// What one service request does to its tenant's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Point lookup (read-only; commits nothing).
    Read,
    /// Blind value update (insert-or-update transaction).
    Update,
    /// Read-modify-write: lookup then update of the same key.
    Rmw,
}

impl ReqKind {
    /// Stable lowercase tag for reports.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            ReqKind::Read => "read",
            ReqKind::Update => "update",
            ReqKind::Rmw => "rmw",
        }
    }
}

/// The YCSB mixes the service models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixKind {
    /// YCSB-A: 50% reads, 50% updates (update heavy).
    A,
    /// YCSB-B: 95% reads, 5% updates (read heavy).
    B,
    /// YCSB-F: 50% reads, 50% read-modify-writes.
    F,
}

impl MixKind {
    /// Per-mille weights `(read, update, rmw)`; always sums to 1000.
    #[must_use]
    pub fn per_mille(self) -> (u32, u32, u32) {
        match self {
            MixKind::A => (500, 500, 0),
            MixKind::B => (950, 50, 0),
            MixKind::F => (500, 0, 500),
        }
    }

    /// Stable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MixKind::A => "ycsb-a",
            MixKind::B => "ycsb-b",
            MixKind::F => "ycsb-f",
        }
    }
}

/// Deterministic op-mix scheduler with **exact** ratios: request `i` maps
/// to the per-mille slot `(phase + i·STRIDE) mod 1000`, and because the
/// stride is coprime with 1000, every window of 1000 consecutive requests
/// hits each slot exactly once — so the mix ratios are exact (not merely
/// expected) over any multiple of 1000 draws. The seeded phase varies the
/// interleaving between cores without perturbing the ratios.
#[derive(Debug, Clone)]
pub struct OpMix {
    read_pm: u32,
    update_pm: u32,
    phase: u32,
    n: u64,
}

/// Slot stride; 567 = 7·3⁴ is coprime with 1000.
const MIX_STRIDE: u64 = 567;

impl OpMix {
    /// Builds the scheduler for `mix` with a seeded phase.
    #[must_use]
    pub fn new(mix: MixKind, phase_seed: u64) -> Self {
        let (read_pm, update_pm, rmw_pm) = mix.per_mille();
        debug_assert_eq!(read_pm + update_pm + rmw_pm, 1000);
        OpMix {
            read_pm,
            update_pm,
            phase: (phase_seed % 1000) as u32,
            n: 0,
        }
    }

    /// The kind of the next request.
    pub fn draw(&mut self) -> ReqKind {
        let slot = ((u64::from(self.phase) + self.n * MIX_STRIDE) % 1000) as u32;
        self.n += 1;
        if slot < self.read_pm {
            ReqKind::Read
        } else if slot < self.read_pm + self.update_pm {
            ReqKind::Update
        } else {
            ReqKind::Rmw
        }
    }
}

// ---------------------------------------------------------------------
// Spec + trace
// ---------------------------------------------------------------------

/// Configuration of one open-loop service trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceSpec {
    /// Simulated cores serving the request streams.
    pub cores: usize,
    /// Logical tenants, multiplexed round-robin over the cores (tenant
    /// `t` is served by core `t % cores`); each tenant owns an
    /// independent persistent hash table and key space.
    pub tenants: usize,
    /// Measured requests per core.
    pub requests_per_core: usize,
    /// Leading warm-up requests per core (replayed but excluded from the
    /// latency histograms).
    pub warmup_requests_per_core: usize,
    /// Mean inter-arrival gap per core in cycles (open-loop offered load;
    /// the offered rate is `cores/mean` requests per cycle).
    pub mean_interarrival_cycles: f64,
    /// Zipfian skew of key popularity within each tenant (`0` = uniform;
    /// YCSB default 0.99 — capped below 1).
    pub zipf_theta: f64,
    /// Operation mix.
    pub mix: MixKind,
    /// Keys per tenant.
    pub keys_per_tenant: u64,
    /// Value-blob size in bytes.
    pub value_bytes: usize,
    /// Untraced pre-population inserts per tenant (the database-loading
    /// phase).
    pub prepopulate_per_tenant: u64,
    /// RNG seed; the whole trace (arrivals, keys, tenants) is a pure
    /// function of the spec.
    pub seed: u64,
}

impl ServiceSpec {
    /// A service-flavoured default: 4 cores, 16 tenants, YCSB-A, 0.99
    /// skew, moderate offered load.
    #[must_use]
    pub fn default_spec() -> Self {
        ServiceSpec {
            cores: 4,
            tenants: 16,
            requests_per_core: 2000,
            warmup_requests_per_core: 400,
            mean_interarrival_cycles: 6000.0,
            zipf_theta: 0.99,
            mix: MixKind::A,
            keys_per_tenant: 4096,
            value_bytes: 128,
            prepopulate_per_tenant: 2048,
            seed: 0xC0FFEE,
        }
    }

    /// Scales the request counts by `f` (quick/CI variants).
    #[must_use]
    pub fn scaled(mut self, f: f64) -> Self {
        self.requests_per_core = ((self.requests_per_core as f64 * f) as usize).max(1);
        self.warmup_requests_per_core =
            ((self.warmup_requests_per_core as f64 * f) as usize).max(1);
        self
    }

    /// Offered load in requests per million cycles, across all cores.
    #[must_use]
    pub fn offered_per_mcycle(&self) -> f64 {
        self.cores as f64 * 1.0e6 / self.mean_interarrival_cycles
    }
}

/// One request's schedule entry: where it lands in the op stream and when
/// it arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestMeta {
    /// Absolute arrival cycle (open-loop schedule, independent of
    /// service progress).
    pub arrival: u64,
    /// Number of consecutive trace ops this request spans.
    pub ops: u32,
    /// Owning tenant.
    pub tenant: u16,
    /// Operation kind.
    pub kind: ReqKind,
    /// `false` for warm-up requests (excluded from latency histograms).
    pub measured: bool,
}

/// An open-loop service trace: the op streams plus, per core, the
/// in-order request schedule partitioning that core's ops.
#[derive(Debug, Clone)]
pub struct ServiceTrace {
    /// The replayable op streams (warm-up boundary is per-request, so
    /// `warmup_txs_per_core` is 0 here).
    pub trace: MultiCoreTrace,
    /// Per-core request schedules; `requests[c]` partitions
    /// `trace.cores[c]` exactly (the op counts sum to the stream length).
    pub requests: Vec<Vec<RequestMeta>>,
}

/// Aggregate request-kind counts of a [`ServiceTrace`] — the "real mix"
/// summary that seeds the persist-trace fuzzer's address-overlap bias
/// (see [`crate::fuzz::FuzzSpec::biased`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MixStats {
    /// Point lookups.
    pub reads: u64,
    /// Blind updates.
    pub updates: u64,
    /// Read-modify-writes.
    pub rmws: u64,
}

impl MixStats {
    /// Mutating requests (updates + RMWs) per thousand requests.
    #[must_use]
    pub fn mutate_per_mille(&self) -> u32 {
        let total = self.reads + self.updates + self.rmws;
        if total == 0 {
            return 0;
        }
        (1000 * (self.updates + self.rmws) / total) as u32
    }
}

impl ServiceTrace {
    /// Total requests across all cores (warm-up included).
    #[must_use]
    pub fn total_requests(&self) -> usize {
        self.requests.iter().map(Vec::len).sum()
    }

    /// Counts request kinds across all cores (warm-up included — the mix
    /// generator draws identically in both phases).
    #[must_use]
    pub fn mix_stats(&self) -> MixStats {
        let mut s = MixStats::default();
        for r in self.requests.iter().flatten() {
            match r.kind {
                ReqKind::Read => s.reads += 1,
                ReqKind::Update => s.updates += 1,
                ReqKind::Rmw => s.rmws += 1,
            }
        }
        s
    }

    /// Measured (non-warm-up) requests across all cores.
    #[must_use]
    pub fn measured_requests(&self) -> usize {
        self.requests
            .iter()
            .flatten()
            .filter(|r| r.measured)
            .count()
    }
}

/// The database-loading phase of both service generators: creates
/// `count` tenant hash tables of `(keys / 2).max(16)` buckets and inserts
/// keys `0..prepopulate.min(keys)` into each, untraced (the tables really
/// exist, but loading them is not part of the replayed stream).
fn load_tenants(
    rt: &mut TxRuntime,
    count: usize,
    keys: u64,
    value_bytes: usize,
    prepopulate: u64,
) -> Vec<HashMapPm> {
    rt.set_tracing(false);
    let tables = (0..count)
        .map(|_| {
            rt.begin();
            let mut map = HashMapPm::create(rt, (keys / 2).max(16), value_bytes);
            rt.commit();
            for k in 0..prepopulate.min(keys) {
                rt.begin();
                map.insert(rt, k, 0);
                rt.commit();
            }
            map
        })
        .collect();
    rt.set_tracing(true);
    tables
}

/// Serves one request as one transaction on `map`: a read is a lookup,
/// an update inserts `fill` under `key`, and an RMW does both.
fn serve(rt: &mut TxRuntime, map: &mut HashMapPm, kind: ReqKind, key: u64, fill: u64) {
    rt.begin();
    if kind != ReqKind::Update {
        let _ = map.lookup(rt, key);
    }
    if kind != ReqKind::Read {
        map.insert(rt, key, fill);
    }
    rt.commit();
}

/// Generates the open-loop service trace for `spec`.
///
/// # Panics
///
/// Panics on a spec with zero cores or zero tenants.
#[must_use]
pub fn generate_service(spec: &ServiceSpec) -> ServiceTrace {
    assert!(spec.cores > 0, "need at least one core");
    assert!(
        spec.tenants >= spec.cores,
        "need at least one tenant per core"
    );
    let mut master = DetRng::seed_from(spec.seed);
    let mut cores = Vec::with_capacity(spec.cores);
    let mut requests = Vec::with_capacity(spec.cores);
    for core in 0..spec.cores {
        let mut rng = master.fork();
        let mut rt = TxRuntime::new(core_heap_base(core));
        let tenant_ids: Vec<u16> = (0..spec.tenants)
            .filter(|t| t % spec.cores == core)
            .map(|t| t as u16)
            .collect();
        let mut tables = load_tenants(
            &mut rt,
            tenant_ids.len(),
            spec.keys_per_tenant,
            spec.value_bytes,
            spec.prepopulate_per_tenant,
        );

        let mut arrivals =
            PoissonArrivals::new(rng.next_u64(), spec.mean_interarrival_cycles);
        let mut zipf = Zipfian::new(spec.keys_per_tenant, spec.zipf_theta);
        let mut mix = OpMix::new(spec.mix, rng.next_u64());
        let total = spec.warmup_requests_per_core + spec.requests_per_core;
        let mut metas = Vec::with_capacity(total);
        for i in 0..total {
            let arrival = arrivals.next_arrival();
            let ti = rng.gen_index(tenant_ids.len());
            let kind = mix.draw();
            let key = scatter_rank(zipf.next_rank(&mut rng), spec.keys_per_tenant);
            let ops_before = rt.trace_len();
            serve(&mut rt, &mut tables[ti], kind, key, i as u64);
            let ops = (rt.trace_len() - ops_before) as u32;
            debug_assert!(ops > 0, "every request emits at least one op");
            metas.push(RequestMeta {
                arrival,
                ops,
                tenant: tenant_ids[ti],
                kind,
                measured: i >= spec.warmup_requests_per_core,
            });
        }
        cores.push(rt.into_trace());
        requests.push(metas);
    }
    ServiceTrace {
        trace: MultiCoreTrace {
            cores,
            warmup_txs_per_core: 0,
        },
        requests,
    }
}

/// Closed-loop service core for the generic [`crate::WorkloadKind`]
/// dispatch (psan clean sweeps and crash audits drive the service through
/// this path — same data structures and op mix, no arrival schedule).
/// `keyspace` is the total keys across the core's tenants.
pub fn run_closed(
    rt: &mut TxRuntime,
    rng: &mut DetRng,
    prepopulate: usize,
    txs: usize,
    value_bytes: usize,
    keyspace: u64,
) {
    const TENANTS_PER_CORE: usize = 4;
    let keys_per_tenant = (keyspace / TENANTS_PER_CORE as u64).max(16);
    let mut tables = load_tenants(
        rt,
        TENANTS_PER_CORE,
        keys_per_tenant,
        value_bytes,
        prepopulate as u64 / TENANTS_PER_CORE as u64,
    );
    let mut zipf = Zipfian::new(keys_per_tenant, 0.99);
    let mut mix = OpMix::new(MixKind::A, rng.next_u64());
    for i in 0..txs {
        let ti = rng.gen_index(TENANTS_PER_CORE);
        let key = scatter_rank(zipf.next_rank(rng), keys_per_tenant);
        serve(rt, &mut tables[ti], mix.draw(), key, i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ServiceSpec {
        let mut s = ServiceSpec::default_spec();
        s.cores = 2;
        s.tenants = 5;
        s.requests_per_core = 60;
        s.warmup_requests_per_core = 10;
        s.keys_per_tenant = 256;
        s.prepopulate_per_tenant = 64;
        s
    }

    // -- statistical generator tests (satellite) ----------------------

    #[test]
    fn poisson_mean_within_one_percent() {
        // Seeded exponential draws: the sample mean over 1e5 gaps must be
        // within 1% of the configured mean (deterministic, fixed seed).
        let mean = 2500.0;
        let mut a = PoissonArrivals::new(42, mean);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| a.next_gap()).sum();
        let sample_mean = total / f64::from(n);
        let rel = (sample_mean - mean).abs() / mean;
        assert!(rel < 0.01, "sample mean {sample_mean} vs {mean} (rel {rel})");
    }

    #[test]
    fn poisson_arrivals_are_nondecreasing_and_deterministic() {
        let mut a = PoissonArrivals::new(9, 100.0);
        let mut b = PoissonArrivals::new(9, 100.0);
        let mut prev = 0;
        for _ in 0..1000 {
            let x = a.next_arrival();
            assert_eq!(x, b.next_arrival());
            assert!(x >= prev);
            prev = x;
        }
    }

    #[test]
    fn zipfian_rank_frequency_slope_matches_theta() {
        // Rank-frequency on a log-log scale must fall with slope ≈ -theta.
        // Fit over the top ranks (they have enough mass to estimate).
        let theta = 0.99;
        let n = 1000;
        let draws = 200_000;
        let mut z = Zipfian::new(n, theta);
        let mut rng = DetRng::seed_from(7);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..draws {
            counts[z.next_rank(&mut rng) as usize] += 1;
        }
        // Least-squares slope of ln(count) vs ln(rank+1) over ranks 0..50.
        let pts: Vec<(f64, f64)> = (0..50)
            .filter(|&r| counts[r] > 0)
            .map(|r| (((r + 1) as f64).ln(), (counts[r] as f64).ln()))
            .collect();
        let m = pts.len() as f64;
        let sx: f64 = pts.iter().map(|p| p.0).sum();
        let sy: f64 = pts.iter().map(|p| p.1).sum();
        let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
        let slope = (m * sxy - sx * sy) / (m * sxx - sx * sx);
        assert!(
            (slope + theta).abs() < 0.1,
            "rank-frequency slope {slope} should be ≈ {}",
            -theta
        );
        // Skew sanity: the most popular rank dominates a uniform share.
        assert!(counts[0] > 10 * draws / n);
    }

    #[test]
    fn zipfian_theta_zero_is_roughly_uniform() {
        let n = 100;
        let mut z = Zipfian::new(n, 0.0);
        let mut rng = DetRng::seed_from(3);
        let mut counts = vec![0u64; n as usize];
        let draws = 100_000;
        for _ in 0..draws {
            counts[z.next_rank(&mut rng) as usize] += 1;
        }
        let expected = f64::from(draws) / n as f64;
        for (r, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < expected * 0.25,
                "rank {r} count {c} vs uniform {expected}"
            );
        }
    }

    #[test]
    fn op_mix_ratios_exact_over_1e5_draws() {
        // 1e5 is a multiple of 1000, so every mix must hit its per-mille
        // weights *exactly* (the stride scheduler visits each slot of the
        // 1000-slot frame exactly once per window).
        for (mix, phase) in [
            (MixKind::A, 0),
            (MixKind::A, 12345),
            (MixKind::B, 17),
            (MixKind::F, 999),
        ] {
            let mut m = OpMix::new(mix, phase);
            let (mut reads, mut updates, mut rmws) = (0u32, 0u32, 0u32);
            for _ in 0..100_000 {
                match m.draw() {
                    ReqKind::Read => reads += 1,
                    ReqKind::Update => updates += 1,
                    ReqKind::Rmw => rmws += 1,
                }
            }
            let (r, u, w) = mix.per_mille();
            assert_eq!(reads, r * 100, "{} reads", mix.name());
            assert_eq!(updates, u * 100, "{} updates", mix.name());
            assert_eq!(rmws, w * 100, "{} rmws", mix.name());
        }
    }

    // -- trace generation ---------------------------------------------

    #[test]
    fn request_ops_partition_the_trace_exactly() {
        let st = generate_service(&tiny_spec());
        assert_eq!(st.trace.cores.len(), 2);
        for (core, metas) in st.trace.cores.iter().zip(&st.requests) {
            let total: u64 = metas.iter().map(|m| u64::from(m.ops)).sum();
            assert_eq!(total, core.len() as u64);
            assert!(metas.iter().all(|m| m.ops > 0));
        }
    }

    #[test]
    fn arrivals_are_monotone_per_core() {
        let st = generate_service(&tiny_spec());
        for metas in &st.requests {
            for w in metas.windows(2) {
                assert!(w[0].arrival <= w[1].arrival);
            }
        }
    }

    #[test]
    fn warmup_requests_lead_and_are_unmeasured() {
        let spec = tiny_spec();
        let st = generate_service(&spec);
        for metas in &st.requests {
            assert_eq!(metas.len(), 70);
            assert!(metas[..10].iter().all(|m| !m.measured));
            assert!(metas[10..].iter().all(|m| m.measured));
        }
        assert_eq!(st.measured_requests(), 120);
        assert_eq!(st.total_requests(), 140);
    }

    #[test]
    fn tenants_are_partitioned_round_robin() {
        let spec = tiny_spec(); // 5 tenants on 2 cores
        let st = generate_service(&spec);
        for (core, metas) in st.requests.iter().enumerate() {
            assert!(metas
                .iter()
                .all(|m| m.tenant as usize % spec.cores == core));
        }
        // Every tenant actually receives traffic.
        let mut seen = vec![false; spec.tenants];
        for m in st.requests.iter().flatten() {
            seen[m.tenant as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all tenants hit: {seen:?}");
    }

    #[test]
    fn deterministic_across_runs_and_seed_sensitive() {
        let spec = tiny_spec();
        let a = generate_service(&spec);
        let b = generate_service(&spec);
        assert_eq!(a.trace.cores, b.trace.cores);
        assert_eq!(a.requests, b.requests);
        let mut other = spec;
        other.seed = 1;
        let c = generate_service(&other);
        assert_ne!(a.trace.cores, c.trace.cores);
    }

    #[test]
    fn higher_load_compresses_arrivals() {
        let spec = tiny_spec();
        let slow = generate_service(&spec);
        let mut fast_spec = spec;
        fast_spec.mean_interarrival_cycles = spec.mean_interarrival_cycles / 10.0;
        let fast = generate_service(&fast_spec);
        let last = |st: &ServiceTrace| {
            st.requests
                .iter()
                .map(|m| m.last().expect("nonempty").arrival)
                .max()
                .expect("cores")
        };
        assert!(last(&fast) < last(&slow));
    }

    #[test]
    fn mix_controls_mutation_share() {
        let mut spec = tiny_spec();
        spec.mix = MixKind::B; // read-heavy → few commits
        let read_heavy = generate_service(&spec);
        spec.mix = MixKind::A;
        let update_heavy = generate_service(&spec);
        assert!(read_heavy.trace.total_txs() < update_heavy.trace.total_txs());
        // F does RMW: more reads than A at the same commit rate.
        spec.mix = MixKind::F;
        let rmw = generate_service(&spec);
        assert_eq!(rmw.trace.total_txs(), update_heavy.trace.total_txs());
    }

    #[test]
    fn offered_load_helper() {
        let mut s = ServiceSpec::default_spec();
        s.cores = 4;
        s.mean_interarrival_cycles = 4000.0;
        assert!((s.offered_per_mcycle() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn run_closed_commits_mutating_requests() {
        let mut rt = TxRuntime::new(0x4000_0000);
        let mut rng = DetRng::seed_from(5);
        run_closed(&mut rt, &mut rng, 64, 1000, 64, 512);
        // YCSB-A over a full 1000-slot frame: exactly half mutate.
        assert_eq!(rt.stats().txs, 500);
        assert!(rt.stats().stores > 0);
    }
}
