//! The CLI rejects a missing or malformed flag value with the usage text
//! and exit status 2, never a panic.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_thoth-experiments"))
        .args(args)
        .output()
        .expect("spawn thoth-experiments")
}

#[test]
fn malformed_flag_values_exit_2_with_usage() {
    for args in [
        &["perf", "--scale", "garbage"][..],
        &["perf", "--expect-digest", "xyz"],
        &["perf", "--trajectory", "0.5,x"],
        &["perf", "--scale", "inf"],
        &["crashtest", "--seed", "12ab"],
        &["fuzz", "--trace", "7:x"],
        &["fuzz", "--trace", "7:0:no-such-mode"],
        &["perf", "--seed"],
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE"), "{args:?} prints the usage: {stderr}");
    }
}

/// A `--csv` directory that cannot be created is an input error too.
#[test]
fn uncreatable_csv_dir_exits_2() {
    let under_a_file = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/csv");
    let out = run(&["fig3", "--quick", "--csv", under_a_file]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("--csv "), "names the flag: {stderr}");
}

/// Crash-sweep repro recipes print the seed as `0x…` hex; the CLI takes
/// it back.
#[test]
fn hex_seeds_parse() {
    let out = run(&["--seed", "0xc0ffee", "--help"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

/// `--quick` picks the quick scale only where no `--scale` was given and
/// keeps every other flag, wherever it stands. A point replay writes no
/// file.
#[test]
fn quick_keeps_an_explicit_seed_in_either_order() {
    for flags in [["--seed", "5", "--quick"], ["--quick", "--seed", "5"]] {
        let out = run(&[&flags[..], &["crashtest", "--point", "swap:persist:3"]].concat());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("(seed 0x5)"), "{flags:?}: {stdout}");
    }
}
