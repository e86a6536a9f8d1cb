#!/usr/bin/env bash
# Tier-1 gate: build, tests, and lint — fully offline (the workspace has
# zero external dependencies; see DESIGN.md §5 and the committed
# Cargo.lock). Run from the repository root. Prints each stage's wall
# time as it ends and a per-stage table at the end.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

# `stage NAME` ends the running stage (printing its seconds) and starts
# NAME; a bare `stage` only ends the running one.
stage_names=()
stage_secs=()
stage_t0=
stage() {
    local now=${EPOCHREALTIME//[!0-9]/}
    if [ -n "$stage_t0" ]; then
        local tenths=$(((now - stage_t0) / 100000))
        stage_secs+=("$((tenths / 10)).$((tenths % 10))")
        echo "   (${stage_secs[-1]} s)"
    fi
    if [ $# -gt 0 ]; then
        stage_names+=("$1")
        echo "== $1 =="
    fi
    stage_t0=$now
}

stage "build (release)"
cargo build --release --locked

stage "tests (every workspace crate: see default-members)"
cargo test -q --locked

stage "clippy (deny warnings)"
cargo clippy --all-targets --locked -- -D warnings

stage "rustdoc (deny warnings: broken and private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --locked

stage "perfbench type-check (the benchmark builds against this tree's API)"
# perfbench is its own workspace; its Cargo.lock and target/ are
# gitignored, so this stage writes no tracked file.
cargo check --offline --manifest-path perfbench/Cargo.toml --all-targets

stage "substrates telemetry-free (telemetry observes the machine only through the tap)"
# Queue occupancy is recorded by thoth-sim's telemetry observer; a probe
# field or record call in a substrate would bring the dependency back.
for crate in thoth-sim-engine thoth-nvm thoth-crypto thoth-cache thoth-merkle \
    thoth-memctrl thoth-core; do
    deps=$(cargo tree --offline --locked -p "$crate" -e normal --prefix none)
    if grep -q '^thoth-telemetry ' <<<"$deps"; then
        echo "$crate depends on thoth-telemetry"
        exit 1
    fi
done

stage "ablation smoke (incl. six-mechanism comparison table)"
cargo run -q --release --locked -p thoth-experiments -- ablation --quick

stage "crashtest smoke (sampled crash points, all workloads)"
cargo run -q --release --locked -p thoth-experiments -- crashtest --quick

stage "psan (sanitizer clean sweep + seeded-bug corpus)"
cargo run -q --release --locked -p thoth-experiments -- psan --quick

stage "fuzz (persist-trace fuzzer, three-observer cross-check)"
cargo run -q --release --locked -p thoth-experiments -- fuzz --quick

stage "telemetry (neutrality + artifact schema, all five paper workloads)"
cargo run -q --release --locked -p thoth-experiments -- telemetry --quick

stage "service smoke (open-loop saturation: finite monotone quantiles + knee)"
cargo run -q --release --locked -p thoth-experiments -- service --quick

stage "examples (every examples/*.rs runs to exit 0; they write no files)"
for path in examples/*.rs; do
    example=$(basename "$path" .rs)
    echo "-- $example"
    cargo run -q --release --locked --example "$example"
done

stage "perf digest gate (quick matrix must match the pinned digest)"
cargo run -q --release --locked -p thoth-experiments -- perf --quick \
    --expect-digest 0xaa9ddf0ced976c32

stage "perf digest gate (scale 0.1 — exercises batch shapes quick mode misses)"
cargo run -q --release --locked -p thoth-experiments -- perf --scale 0.1 \
    --expect-digest 0x7a4d2eee8b41f3a6

stage "crypto with intrinsics disabled (thoth_soft_aes fallback must not rot)"
RUSTFLAGS="--cfg thoth_soft_aes" cargo test -q --locked -p thoth-crypto

stage "crypto with SIMD hashing disabled (thoth_soft_sip fallback must not rot)"
RUSTFLAGS="--cfg thoth_soft_sip" cargo test -q --locked -p thoth-crypto

stage "results/ byte-identity (the --quick stages above reproduce every committed artifact)"
# The ablation, crashtest, psan, fuzz, telemetry and service stages
# rewrite their files under results/; a simulator change that moves any
# of them (Full-mode crypto, instrumented replay, recovery) fails here
# even where no digest pin covers it. Commit regenerated artifacts
# before running ci.sh.
drift=$(git status --porcelain -- results/)
if [ -n "$drift" ]; then
    echo "results/ differs from the committed artifacts:"
    echo "$drift"
    exit 1
fi

stage "line counts per crate (informational; compare two trees for the deltas)"
# Non-test and test .rs lines of each workspace crate and of the root
# package. Test lines are whole files under a tests/ directory plus, in
# any other file, everything from a `#[cfg(test)]` that gates a `mod`
# onward; a `#[cfg(test)]` on a single item stays non-test.
mapfile -t rs_files < <(find src tests examples crates -name '*.rs' | sort)
echo " non-test      test  crate"
awk '
    function crate_of(path, part) {
        split(path, part, "/")
        return part[1] == "crates" ? "crates/" part[2] : "."
    }
    function flush_held(as_test) {
        if (as_test) test[crate] += held; else code[crate] += held
        held = 0
    }
    FILENAME ~ /Cargo\.toml$/ {
        if ($0 ~ /^name = "/ && !(crate_of(FILENAME) in name)) {
            split($0, q, "\"")
            name[crate_of(FILENAME)] = q[2]
        }
        next
    }
    FNR == 1 {
        flush_held(0)
        crate = crate_of(FILENAME)
        seen[crate] = 1
        in_test = FILENAME ~ /(^|\/)tests\//
    }
    in_test { test[crate]++; next }
    held && /^[ \t]*#\[/ { held++; next }
    held && /^[ \t]*(pub(\([a-z]+\))? )?mod / { flush_held(1); in_test = 1; test[crate]++; next }
    held { flush_held(0) }
    /^[ \t]*#\[cfg\(test\)\][ \t]*(pub )?mod / { in_test = 1; test[crate]++; next }
    /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { held = 1; next }
    { code[crate]++ }
    END {
        flush_held(0)
        for (c in seen) printf "%9d %9d  %s\n", code[c], test[c], name[c]
    }
' Cargo.toml crates/*/Cargo.toml "${rs_files[@]}" |
    sort -k3 |
    awk '{ print; code += $1; test += $2 } END { printf "%9d %9d  (total)\n", code, test }'
stage

echo "== wall time per stage =="
for i in "${!stage_names[@]}"; do
    printf '%7s s  %s\n' "${stage_secs[$i]}" "${stage_names[$i]}"
done
echo "ci: all green"
