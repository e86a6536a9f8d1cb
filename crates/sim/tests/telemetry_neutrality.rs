//! Differential test: telemetry must be invisible to the machine.
//!
//! For every paper workload × {baseline, thoth-wtsc}, the simulation runs
//! three times over the same trace — plain, with the full telemetry
//! config (counters + timeline + tracer), and with counters only — and
//! every run must produce a bit-identical [`SimReport`] (same FNV digest,
//! same cycle count, same write totals). Persist-event recording is held
//! to the same bar in every mode. This is the contract that lets the
//! instrumentation hooks live on the hot path: observing a run never
//! perturbs it.

use thoth_sim::{run_trace, Mode, SecureNvm, SimConfig, TelemetryConfig};
use thoth_workloads::{spec, MultiCoreTrace, WorkloadConfig, WorkloadKind};

/// A small-but-real trace: paper defaults scaled down, with the
/// pre-population shrunk the same way the experiment runner's quick mode
/// does so generation stays fast.
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

#[test]
fn telemetry_is_neutral_across_workloads_and_modes() {
    for kind in WorkloadKind::ALL {
        let trace = trace_for(kind);
        for mode in [Mode::baseline(), Mode::thoth_wtsc()] {
            let config = SimConfig::paper_default(mode, 128);
            let plain = run_trace(&config, &trace);

            for tcfg in [TelemetryConfig::full(), TelemetryConfig::counters_only()] {
                let mut machine = SecureNvm::new(config.clone());
                let (instrumented, telem) = machine.run_telemetry(&trace, &tcfg);
                let point = format!("{}/{} trace={}", kind.name(), mode.label(), tcfg.trace);
                assert_eq!(
                    plain.digest(),
                    instrumented.digest(),
                    "telemetry perturbed the report digest at {point}"
                );
                assert_eq!(
                    plain.total_cycles, instrumented.total_cycles,
                    "telemetry perturbed timing at {point}"
                );
                assert_eq!(
                    plain.writes_total(),
                    instrumented.writes_total(),
                    "telemetry perturbed NVM writes at {point}"
                );
                // And the instrumented run actually observed something.
                assert!(
                    telem.registry.counter_value("ops_read").unwrap_or(0) > 0,
                    "no reads recorded at {point}"
                );
            }
        }
    }
}

/// Persist-event recording is one more observer of the same run: the
/// report of a [`SecureNvm::run_psan`] replay must be bit-identical to
/// the plain run's, in every mode.
#[test]
fn psan_recording_is_neutral_in_every_mode() {
    for kind in WorkloadKind::ALL {
        let trace = trace_for(kind);
        for mode in Mode::ALL {
            let config = SimConfig::paper_default(mode, 128);
            let plain = run_trace(&config, &trace);
            let (recorded, events) = SecureNvm::new(config).run_psan(&trace);
            let point = format!("{}/{}", kind.name(), mode.label());
            assert_eq!(
                plain.digest(),
                recorded.digest(),
                "psan recording perturbed the report digest at {point}"
            );
            assert!(!events.is_empty(), "no persist events recorded at {point}");
        }
    }
}

/// The substrate counters (hardware-AES blocks, batched hash-kernel
/// runs, SIMD hash rows) are harvested at session end and must not
/// perturb the run either. A Full-functional Thoth run drives real CTR
/// encryption, so `aes_hw_blocks` is nonzero whenever the machine
/// detected AES-NI, and `hash_batch_runs` fires on any Fast-functional
/// Thoth run of this size.
#[test]
fn substrate_counters_present_and_neutral() {
    let trace = trace_for(WorkloadKind::Queue);
    let mut config = SimConfig::paper_default(Mode::thoth_wtsc(), 128);
    config.functional = thoth_sim::FunctionalMode::Full;
    let plain = run_trace(&config, &trace);
    let mut machine = SecureNvm::new(config);
    let (report, telem) = machine.run_telemetry(&trace, &TelemetryConfig::counters_only());
    assert_eq!(plain.digest(), report.digest(), "counter harvest perturbed the run");
    let count = |name: &str| telem.registry.counter_value(name).unwrap_or_else(|| {
        panic!("{name} counter must be registered")
    });
    if thoth_crypto::Aes128::new(&[0u8; 16]).backend() == thoth_crypto::AesBackend::HwAesNi {
        assert!(count("aes_hw_blocks") > 0, "hardware AES never engaged");
    }

    // Fast functional mode fabricates first-level MACs through the
    // batched hash kernel, so `hash_batch_runs` fires there; on AVX2
    // hosts those batches also drive multi-lane SipHash rows.
    let config = SimConfig::paper_default(Mode::thoth_wtsc(), 128);
    let plain = run_trace(&config, &trace);
    let mut machine = SecureNvm::new(config);
    let (report, telem) = machine.run_telemetry(&trace, &TelemetryConfig::counters_only());
    assert_eq!(plain.digest(), report.digest(), "counter harvest perturbed the run");
    assert!(
        telem.registry.counter_value("hash_batch_runs").unwrap_or(0) > 0,
        "batched hashing never fired"
    );
    let count = |name: &str| {
        telem
            .registry
            .counter_value(name)
            .unwrap_or_else(|| panic!("{name} counter must be registered"))
    };
    if thoth_crypto::SipHash24::new(0, 0).backend() == thoth_crypto::SipBackend::SimdAvx2 {
        assert!(count("sip_simd_rows") > 0, "SIMD hash lanes never engaged");
    }
}
