#!/usr/bin/env bash
# Tier-1 gate: build, tests, and lint — fully offline (the workspace has
# zero external dependencies; see DESIGN.md §5 and the committed
# Cargo.lock). Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "== build (release) =="
cargo build --release --locked

echo "== tests (every workspace crate: see default-members) =="
cargo test -q --locked

echo "== clippy (deny warnings) =="
cargo clippy --all-targets --locked -- -D warnings

echo "== perfbench type-check (the benchmark builds against this tree's API) =="
# perfbench is its own workspace; its Cargo.lock and target/ are
# gitignored, so this stage writes no tracked file.
cargo check --offline --manifest-path perfbench/Cargo.toml --all-targets

echo "== thoth-lint (repo invariants) =="
cargo run -q --release --locked -p thoth-lint

echo "== ablation smoke (incl. six-mechanism comparison table) =="
cargo run -q --release --locked -p thoth-experiments -- ablation --quick

echo "== crashtest smoke (sampled crash points, all workloads) =="
cargo run -q --release --locked -p thoth-experiments -- crashtest --quick

echo "== psan (sanitizer clean sweep + seeded-bug corpus) =="
cargo run -q --release --locked -p thoth-experiments -- psan --quick

echo "== fuzz (persist-trace fuzzer, three-observer cross-check) =="
cargo run -q --release --locked -p thoth-experiments -- fuzz --quick

echo "== telemetry (neutrality + artifact schema, all five paper workloads) =="
cargo run -q --release --locked -p thoth-experiments -- telemetry --quick

echo "== service smoke (open-loop saturation: finite monotone quantiles + knee) =="
cargo run -q --release --locked -p thoth-experiments -- service --quick

echo "== perf digest gate (quick matrix must match the pinned digest) =="
cargo run -q --release --locked -p thoth-experiments -- perf --quick \
    --expect-digest 0xaa9ddf0ced976c32

echo "== perf digest gate (scale 0.1 — exercises batch shapes quick mode misses) =="
cargo run -q --release --locked -p thoth-experiments -- perf --scale 0.1 \
    --expect-digest 0x7a4d2eee8b41f3a6

echo "== crypto with intrinsics disabled (thoth_soft_aes fallback must not rot) =="
RUSTFLAGS="--cfg thoth_soft_aes" cargo test -q --locked -p thoth-crypto

echo "== crypto with SIMD hashing disabled (thoth_soft_sip fallback must not rot) =="
RUSTFLAGS="--cfg thoth_soft_sip" cargo test -q --locked -p thoth-crypto

echo "== results/ byte-identity (the --quick stages above reproduce every committed artifact) =="
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

echo "ci: all green"
