//! Shared experiment plumbing: scaled workload traces and simulation runs.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use thoth_sim::{run_trace, Mode, SimConfig, SimReport};
use thoth_workloads::{spec, MultiCoreTrace, WorkloadConfig, WorkloadKind};

/// Global experiment settings.
#[derive(Debug, Clone, Copy)]
pub struct ExpSettings {
    /// Scale factor on the per-core transaction counts (1.0 = the
    /// repository's full configuration: 1000 warm-up + 2000 measured
    /// transactions per core).
    pub scale: f64,
    /// RNG seed for workload generation.
    pub seed: u64,
}

impl Default for ExpSettings {
    fn default() -> Self {
        ExpSettings {
            scale: 0.25,
            seed: 0xC0FFEE,
        }
    }
}

impl ExpSettings {
    /// A quick-smoke-test setting used by unit tests and CI.
    #[must_use]
    pub fn quick() -> Self {
        ExpSettings {
            scale: 0.02,
            seed: 0xC0FFEE,
        }
    }

    /// The workload configuration for `kind` at transaction size `tx_size`.
    #[must_use]
    pub fn workload(&self, kind: WorkloadKind, tx_size: usize) -> WorkloadConfig {
        let mut cfg = WorkloadConfig::at_scale(kind, self.scale);
        cfg.tx_size = tx_size;
        cfg.seed = self.seed;
        cfg
    }
}

/// Caches generated traces by (workload, tx size) — trace generation is
/// deterministic, so every experiment sharing a workload point reuses the
/// same trace.
#[derive(Default)]
pub struct TraceCache {
    settings: ExpSettings,
    traces: HashMap<(WorkloadKind, usize), Arc<MultiCoreTrace>>,
}

impl TraceCache {
    /// Creates a cache for the given settings.
    #[must_use]
    pub fn new(settings: ExpSettings) -> Self {
        TraceCache {
            settings,
            traces: HashMap::new(),
        }
    }

    /// The settings this cache generates under.
    #[must_use]
    pub fn settings(&self) -> ExpSettings {
        self.settings
    }

    /// Returns (generating on first use) the trace for a workload point.
    pub fn get(&mut self, kind: WorkloadKind, tx_size: usize) -> Arc<MultiCoreTrace> {
        let settings = self.settings;
        self.traces
            .entry((kind, tx_size))
            .or_insert_with(|| Arc::new(spec::generate(settings.workload(kind, tx_size))))
            .clone()
    }
}

/// One unit of work for [`run_jobs`]: a keyed simulation.
pub struct Job<K> {
    /// Caller-chosen key identifying the run in the results.
    pub key: K,
    /// Machine configuration.
    pub config: SimConfig,
    /// Shared trace to replay.
    pub trace: Arc<MultiCoreTrace>,
}

/// Relative simulation cost of one job: the op count of its trace scaled
/// by a per-mode weight (in percent of the baseline mode). The weights
/// come from the perf harness's per-mode wall clocks over the headline
/// matrix; precision is irrelevant — the longest-processing-time-first
/// schedule and the progress estimates only need the ranking and a rough
/// magnitude.
#[must_use]
pub fn job_cost<K>(job: &Job<K>) -> u64 {
    let ops: u64 = job.trace.cores.iter().map(|c| c.len() as u64).sum();
    let weight = match job.config.mode {
        Mode::Baseline | Mode::Eadr => 100,
        Mode::AnubisEcc => 105,
        Mode::Phoenix | Mode::FreijLazy => 115,
        Mode::Thoth(_) => 125,
        Mode::FreijStrict => 130,
    };
    ops * weight
}

/// Running wall-seconds-per-cost-unit calibration over a batch's
/// completed jobs, shared by the workers so later jobs get
/// estimated-vs-actual progress lines.
#[derive(Default)]
struct CostClock {
    cost_done: u64,
    secs_done: f64,
}

impl CostClock {
    /// Predicted wall time for a job of `cost` units (`None` until the
    /// first completion calibrates the clock).
    fn estimate(&self, cost: u64) -> Option<std::time::Duration> {
        (self.cost_done > 0).then(|| {
            std::time::Duration::from_secs_f64(
                self.secs_done * cost as f64 / self.cost_done as f64,
            )
        })
    }

    fn absorb(&mut self, cost: u64, elapsed: std::time::Duration) {
        self.cost_done += cost;
        self.secs_done += elapsed.as_secs_f64();
    }
}

/// Runs a batch of simulations across all available cores (std scoped
/// worker pool — no external crates). Results come back in submission
/// order; each simulation is itself deterministic, so the parallel and
/// sequential paths produce identical reports (guarded by the
/// `parallel_and_sequential_runs_agree` test).
///
/// Workers pull jobs longest-first ([`job_cost`] ordering): a greedy
/// upper bound on makespan — the expensive jobs start while every worker
/// still has company, so the schedule's tail is at most one cheap job
/// long. Reordering only changes wall-clock, never results (each
/// simulation is independent and results return in submission order).
///
/// Each completed job logs one progress line (key + estimated and actual
/// wall-clock) to stderr so long sweeps are observable.
#[must_use]
pub fn run_jobs<K: Send + std::fmt::Debug>(jobs: Vec<Job<K>>) -> Vec<(K, SimReport)> {
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(jobs.len().max(1));
    if workers <= 1 {
        return run_jobs_sequential(jobs);
    }
    let n = jobs.len();
    let mut order: Vec<(usize, Job<K>)> = jobs.into_iter().enumerate().collect();
    // Stable sort, descending cost: equal-cost jobs keep submission order.
    order.sort_by_key(|(_, job)| std::cmp::Reverse(job_cost(job)));
    let queue: Mutex<VecDeque<(usize, Job<K>)>> = Mutex::new(order.into());
    let clock: Mutex<CostClock> = Mutex::new(CostClock::default());
    let done = AtomicUsize::new(0);
    let (result_tx, result_rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let result_tx = result_tx.clone();
            let queue = &queue;
            let clock = &clock;
            let done = &done;
            scope.spawn(move || loop {
                let item = queue.lock().expect("queue lock").pop_front();
                let Some((i, job)) = item else { break };
                let cost = job_cost(&job);
                let estimate = clock.lock().expect("clock lock").estimate(cost);
                let started = Instant::now();
                let report = run_trace(&job.config, &job.trace);
                let elapsed = started.elapsed();
                clock.lock().expect("clock lock").absorb(cost, elapsed);
                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!("{}", progress_line(finished, n, &job.key, elapsed, estimate));
                result_tx.send((i, (job.key, report))).expect("results open");
            });
        }
    });
    drop(result_tx);
    let mut out: Vec<Option<(K, SimReport)>> = (0..n).map(|_| None).collect();
    for (i, kv) in result_rx {
        out[i] = Some(kv);
    }
    out.into_iter()
        .map(|o| o.expect("every job completed"))
        .collect()
}

/// Runs the same batch strictly sequentially, on the calling thread, in
/// submission order (total wall-clock is order-independent here, and the
/// determinism test compares this path against [`run_jobs`]). Progress
/// lines carry the same estimated-vs-actual timings as the parallel path.
#[must_use]
pub fn run_jobs_sequential<K: Send + std::fmt::Debug>(jobs: Vec<Job<K>>) -> Vec<(K, SimReport)> {
    let n = jobs.len();
    let mut clock = CostClock::default();
    jobs.into_iter()
        .enumerate()
        .map(|(i, j)| {
            let cost = job_cost(&j);
            let estimate = clock.estimate(cost);
            let started = Instant::now();
            let report = run_trace(&j.config, &j.trace);
            let elapsed = started.elapsed();
            clock.absorb(cost, elapsed);
            eprintln!("{}", progress_line(i + 1, n, &j.key, elapsed, estimate));
            (j.key, report)
        })
        .collect()
}

/// The progress line for job `done` of `total`, printed to stderr once
/// per finished simulation (stdout stays machine-readable tables).
/// `estimate` is the [`CostClock`] prediction for the job (`None` before
/// the batch's first completion calibrates it); printing it next to the
/// actual wall time makes cost-model drift visible in the progress
/// stream itself.
fn progress_line<K: std::fmt::Debug>(
    done: usize,
    total: usize,
    key: &K,
    elapsed: std::time::Duration,
    estimate: Option<std::time::Duration>,
) -> String {
    let est = match estimate {
        Some(e) => format!("est {e:.2?}"),
        None => "est n/a".to_owned(),
    };
    format!("[thoth-experiments] job {done}/{total} {key:?} finished in {elapsed:.2?} ({est})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_cache_reuses() {
        let mut cache = TraceCache::new(ExpSettings::quick());
        let a = cache.get(WorkloadKind::Ctree, 128);
        let b = cache.get(WorkloadKind::Ctree, 128);
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.get(WorkloadKind::Ctree, 512);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn quick_settings_generate_small_traces() {
        let mut cache = TraceCache::new(ExpSettings::quick());
        let t = cache.get(WorkloadKind::Swap, 128);
        assert!(t.total_txs() < 1000);
    }

    #[test]
    fn job_cost_ranks_modes_and_trace_lengths() {
        let mut cache = TraceCache::new(ExpSettings::quick());
        let trace = cache.get(WorkloadKind::Btree, 128);
        let job = |mode: Mode| Job {
            key: mode.label(),
            config: SimConfig::paper_default(mode, 128),
            trace: trace.clone(),
        };
        let base = job_cost(&job(Mode::baseline()));
        let thoth = job_cost(&job(Mode::thoth_wtsc()));
        assert!(thoth > base, "Thoth jobs cost more than baseline");
        // A longer trace dominates any mode weight.
        let long = cache.get(WorkloadKind::Rbtree, 128);
        let long_ops: u64 = long.cores.iter().map(|c| c.len() as u64).sum();
        let short_ops: u64 = trace.cores.iter().map(|c| c.len() as u64).sum();
        assert_ne!(long_ops, short_ops, "distinct traces for the ranking test");
        let longer = Job {
            key: "long",
            config: SimConfig::paper_default(Mode::baseline(), 128),
            trace: if long_ops > short_ops { long } else { trace },
        };
        assert!(job_cost(&longer) >= base);
    }

    #[test]
    fn progress_line_names_the_job_and_its_wall_time() {
        let line = progress_line(
            2,
            10,
            &("btree", 64),
            std::time::Duration::from_millis(1500),
            None,
        );
        assert!(line.starts_with("[thoth-experiments] job 2/10 (\"btree\", 64) finished in "));
        assert!(line.contains("1.50s"));
        assert!(line.contains("(est n/a)"), "uncalibrated jobs say so: {line}");
    }

    #[test]
    fn progress_line_prints_the_estimate_next_to_the_actual() {
        let line = progress_line(
            3,
            10,
            &"swap",
            std::time::Duration::from_millis(250),
            Some(std::time::Duration::from_millis(230)),
        );
        assert!(line.contains("finished in 250"));
        assert!(line.contains("(est 230"), "estimate printed: {line}");
    }

    #[test]
    fn cost_clock_calibrates_from_completions() {
        let mut clock = CostClock::default();
        assert!(clock.estimate(100).is_none(), "uncalibrated clock knows nothing");
        clock.absorb(100, std::time::Duration::from_secs(2));
        let est = clock.estimate(50).expect("calibrated");
        assert_eq!(est, std::time::Duration::from_secs(1));
    }
}
