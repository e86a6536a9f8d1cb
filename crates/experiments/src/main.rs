//! Command-line driver regenerating every table and figure of the paper.
//!
//! ```text
//! thoth-experiments [EXPERIMENT ...] [--scale F] [--quick] [--csv DIR]
//!
//! EXPERIMENT: fig3 | headline | fig8 | fig9 | fig10 | table2 | table3 |
//!             fig11 | fig12 | anubis | recovery | crashtest | psan |
//!             telemetry | service | all (default: all)
//! --scale F   transaction-count scale factor (default 0.25)
//! --seed N    workload RNG seed
//! --quick     tiny smoke-test scale (0.02) unless --scale is given
//! --csv DIR   also write each table as CSV into DIR
//! ```

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "prints tables")]

use thoth_experiments::runner::ExpSettings;
use thoth_experiments::tablefmt::Table;
use thoth_experiments::{
    ablation, cachesweep, crashtest, fig3, fuzz, headline, lifetime, perf, psan, recovery, service,
    telemetry, txsweep, wpqsweep, Outcome,
};

use std::path::PathBuf;

fn main() {
    let mut settings = ExpSettings::default();
    let mut csv_dir: Option<PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut scale_given = false;
    let mut quick = false;
    let mut point: Option<String> = None;
    let mut point_mode = thoth_sim::Mode::thoth_wtsc();
    let mut trace: Option<(u64, u64, thoth_sim::Mode)> = None;
    let mut trajectory: Vec<f64> = Vec::new();
    let mut expect_digest: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                settings.scale = flag_value(&mut args, "--scale", parse_scale);
                scale_given = true;
            }
            "--quick" => quick = true,
            "--point" => {
                point = Some(flag_value(&mut args, "--point", |v| Some(v.to_owned())));
            }
            "--mode" => {
                let v = flag_value(&mut args, "--mode", |v| Some(v.to_owned()));
                point_mode = *thoth_sim::Mode::ALL
                    .iter()
                    .find(|m| m.label() == v)
                    .unwrap_or_else(|| {
                        eprintln!("unknown mode {v:?}; one of:");
                        for m in thoth_sim::Mode::ALL {
                            eprintln!("  {}", m.label());
                        }
                        std::process::exit(2);
                    });
            }
            "--trace" => {
                trace = Some(flag_value(&mut args, "--trace", fuzz::parse_recipe));
            }
            "--trajectory" => {
                trajectory = flag_value(&mut args, "--trajectory", |v| {
                    v.split(',').map(|s| parse_scale(s.trim())).collect()
                });
            }
            "--expect-digest" => {
                expect_digest = Some(flag_value(&mut args, "--expect-digest", |v| {
                    u64::from_str_radix(v.trim_start_matches("0x"), 16).ok()
                }));
            }
            "--seed" => {
                settings.seed = flag_value(&mut args, "--seed", |v| match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).ok(),
                    None => v.parse().ok(),
                });
            }
            "--csv" => {
                csv_dir = Some(flag_value(&mut args, "--csv", |v| Some(PathBuf::from(v))));
            }
            "--help" | "-h" => {
                println!("{HELP}");
                return;
            }
            other => wanted.push(other.to_owned()),
        }
    }
    if quick && !scale_given {
        settings.scale = ExpSettings::quick().scale;
    }
    if wanted.is_empty() {
        wanted.push("all".to_owned());
    }
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("--csv {}: {e}", dir.display());
            std::process::exit(2);
        }
    }

    let emit = |tables: Vec<Table>, slug: &str| {
        for (i, t) in tables.iter().enumerate() {
            println!("{}", t.render());
            if let Some(dir) = &csv_dir {
                let path = dir.join(format!("{slug}-{i}.csv"));
                std::fs::write(&path, t.to_csv()).expect("write csv");
            }
        }
    };
    // A gated experiment prints its tables, then exits 1 on a failed gate.
    let gate = |out: Outcome, slug: &str, failure: &str| {
        emit(out.tables, slug);
        if !out.ok {
            eprintln!("{slug}: FAILED ({failure})");
            std::process::exit(1);
        }
    };
    // perf, crashtest, psan, telemetry and service default to the quick
    // trace scale so their runs replay quickly; --scale overrides.
    let mut quick_default = settings;
    if !scale_given {
        quick_default.scale = ExpSettings::quick().scale;
    }

    for exp in &wanted {
        let all = exp == "all";
        match exp.as_str() {
            "fig3" => {
                let (t, _) = fig3::run(settings, &fig3::PAPER_FIFO_SIZES);
                emit(vec![t], "fig3");
            }
            "headline" | "fig8" | "fig9" | "anubis" => {
                emit(headline::run(settings), "headline");
            }
            "fig10" | "table2" | "table3" | "txsweep" => {
                emit(txsweep::run(settings, &txsweep::TX_SIZES), "txsweep");
            }
            "fig11" => emit(cachesweep::run(settings), "fig11"),
            "fig12" => emit(wpqsweep::run(settings), "fig12"),
            "recovery" => emit(recovery::run(settings), "recovery"),
            "perf" => gate(
                perf::run(quick_default, &trajectory, expect_digest),
                "perf",
                "matrix digest does not match the pin",
            ),
            "crashtest" => {
                let out = match &point {
                    Some(spec) => crashtest::run_point(quick_default, spec, point_mode),
                    None => crashtest::run(quick_default, quick),
                };
                gate(out, "crashtest", "see reproduction recipe above");
            }
            "psan" => gate(
                psan::run(quick_default, quick),
                "psan",
                "missed bug or dirty clean run, see above",
            ),
            "fuzz" => gate(
                fuzz::run(settings, quick || !scale_given, trace),
                "fuzz",
                "observer disagreement or blind selftest, see above",
            ),
            "telemetry" => gate(
                telemetry::run(quick_default),
                "telemetry",
                "non-neutral or invalid artifact, see above",
            ),
            "service" => gate(
                service::run(quick_default, quick),
                "service",
                "unpopulated quantiles or no knee, see above",
            ),
            "ablation" => emit(ablation::run(settings), "ablation"),
            "lifetime" => emit(lifetime::run(settings), "lifetime"),
            "all" => {}
            other => {
                eprintln!("unknown experiment: {other}\n{HELP}");
                std::process::exit(2);
            }
        }
        if all {
            let (t, _) = fig3::run(settings, &fig3::PAPER_FIFO_SIZES);
            emit(vec![t], "fig3");
            emit(headline::run(settings), "headline");
            emit(txsweep::run(settings, &txsweep::TX_SIZES), "txsweep");
            emit(cachesweep::run(settings), "fig11");
            emit(wpqsweep::run(settings), "fig12");
            emit(recovery::run(settings), "recovery");
            emit(ablation::run(settings), "ablation");
            emit(lifetime::run(settings), "lifetime");
        }
    }
}

/// Takes the value of `flag` off `args` and parses it. A missing or
/// malformed value prints the usage and exits 2, as an unknown experiment
/// name does.
fn flag_value<T>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    let value = args.next();
    value.as_deref().and_then(parse).unwrap_or_else(|| {
        match &value {
            Some(v) => eprintln!("{flag}: cannot use {v:?}\n{HELP}"),
            None => eprintln!("{flag} needs a value\n{HELP}"),
        }
        std::process::exit(2);
    })
}

/// A transaction-count scale factor: finite and positive.
fn parse_scale(v: &str) -> Option<f64> {
    v.parse().ok().filter(|s: &f64| s.is_finite() && *s > 0.0)
}

const HELP: &str = "\
thoth-experiments — regenerate the tables and figures of the Thoth paper

USAGE:
  thoth-experiments [EXPERIMENT ...] [--scale F] [--quick] [--csv DIR]

EXPERIMENTS:
  fig3      Figure 3  — PUB eviction breakdown vs FIFO size
  headline  Figures 8 & 9 + Section V-F (also: fig8, fig9, anubis)
  txsweep   Figure 10 + Tables II & III (also: fig10, table2, table3)
  fig11     Figure 11 — metadata cache size sensitivity
  fig12     Figure 12 — WPQ size sensitivity
  recovery  Section IV-D — crash recovery + time model
  perf      perf-trajectory harness: wall-clock + persists/s per mode,
            writes results/BENCH_perf.json (quick scale unless --scale)
  crashtest crash-injection sweep + recovery audit across all workloads,
            writes results/crashtest.json; exits non-zero on any failing
            crash point (quick scale unless --scale)
  psan      persist-ordering sanitizer: clean sweep (no findings allowed)
            + seeded-bug corpus (every planted bug caught at its site),
            writes results/psan.json; exits non-zero on any miss
            (quick scale unless --scale)
  fuzz      persist-trace fuzzer: seeded well-formed traces crash-injected
            through the machine, cross-checked by three observers (psan,
            recovery audit, event-derived shadow heap) plus an injected-
            disagreement selftest; writes results/fuzz.json; exits
            non-zero on any disagreement (200 traces, 400 with --scale)
  telemetry instrumented headline runs: occupancy timelines, counters,
            Chrome trace_event JSON under results/telemetry/, with a
            telemetry-off-vs-on neutrality check; exits non-zero on any
            non-neutral or invalid point (quick scale unless --scale)
  service   open-loop multi-tenant KV saturation sweep: p50/p99/p999
            persist-ACK latency (from arrival) vs offered load per mode,
            writes results/service.json + results/BENCH_service.json;
            exits non-zero if quantiles are unpopulated/non-monotone or
            no saturation knee appears (quick scale unless --scale)
  ablation  PUB/PCB design-space sweeps, PCB arrangement, eADR
  lifetime  NVM write totals + wear concentration per mode
  all       everything above (default)

OPTIONS:
  --scale F  transaction-count scale factor (default 0.25)
  --quick    tiny smoke-test scale, unless --scale is given
  --seed N   workload RNG seed, decimal or 0x-hex (default 0xC0FFEE)
  --csv DIR  also write each table as CSV into DIR
  --point WORKLOAD:SITE:N
             (crashtest only) replay one crash point, e.g.
             btree:persist:117 — the recipe printed on sweep failure
  --mode LABEL
             (crashtest --point only) mechanism to replay the point
             under, e.g. phoenix (default thoth-wtsc)
  --trace SEED:ANCHOR[:MODE]
             (fuzz only) replay one fuzz case verbosely — the recipe
             printed when a disagreement is minimized; the optional
             MODE is a mechanism label such as phoenix (default
             thoth-wtsc)
  --trajectory S1,S2,...
             (perf only) also measure the matrix at each extra scale and
             record every point in the results trajectory array
  --expect-digest HEX
             (perf only) CI gate: run, compare the matrix digest against
             the pin, write nothing, exit non-zero on mismatch";
