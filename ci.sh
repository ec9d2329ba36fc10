#!/usr/bin/env bash
# Offline CI for the FBS power-flow repo. Five legs:
#
#   1. Tier-1 verify: release build + `cargo test`, which runs the root
#      package and every workspace crate's unit, integration and property
#      suites (the root manifest lists them all as `default-members`).
#   2. E-bin smoke runs: the `*_SMOKE=1` configurations of E9 and
#      E12–E17 as end-to-end sanity passes, under wall-clock ceilings.
#   3. CLI replays: a seeded chaos replay through `fbs fleet` that must
#      exit 0 with one device scripted dead, and a seeded storm soak
#      through `fbs soak` that must exit 0 (exit 8 would mean an
#      undetected corruption reached an answer).
#   4. Racecheck: re-runs every simt and fbs device kernel under the
#      per-cell data-race detector (simt's `racecheck` feature).
#   5. Lint: clippy over every target with warnings promoted to errors.
#
# Everything runs with --offline — the repo has zero external registry
# dependencies (see DESIGN.md, "Dependency policy"), so a warm toolchain
# is all that's needed.

set -euo pipefail
cd "$(dirname "$0")"

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release --offline
cargo test -q --offline

echo "== E-bin smoke runs =="
E9_SMOKE=1 timeout 300 cargo run -q --offline --release -p fbs-bench --bin exp_e9_batch > /dev/null
E12_SMOKE=1 cargo run -q --offline --release -p fbs-bench --bin exp_e12_faults > /dev/null
E13_SMOKE=1 timeout 300 cargo run -q --offline --release -p fbs-bench --bin exp_e13_service > /dev/null
E14_SMOKE=1 timeout 300 cargo run -q --offline --release -p fbs-bench --bin exp_e14_contingency > /dev/null
E15_SMOKE=1 timeout 600 cargo run -q --offline --release -p fbs-bench --bin exp_e15_fleet > /dev/null
E16_SMOKE=1 timeout 600 cargo run -q --offline --release -p fbs-bench --bin exp_e16_soak > /dev/null 2> /dev/null
E17_SMOKE=1 timeout 300 cargo run -q --offline --release -p fbs-bench --bin exp_e17_mesh > /dev/null

echo "== CLI replays: fleet chaos + storm soak =="
cargo run -q --offline --release -p fbs-cli feeders --name ieee37 --out target/ci_fleet.grid 2> /dev/null
timeout 300 cargo run -q --offline --release -p fbs-cli fleet target/ci_fleet.grid \
  --devices 4 --requests 32 --gap 120 --kill-device 1 --batch-every 8 \
  --scenarios 96 --shard-min 16 --seed 7 > /dev/null
timeout 300 cargo run -q --offline --release -p fbs-cli soak target/ci_fleet.grid \
  --requests 24 --tol 1e-12 --seed 7 > /dev/null 2> /dev/null

echo "== racecheck: device kernels under the simt race detector =="
cargo test -q --offline --features racecheck -p simt -p fbs

echo "== lint: cargo clippy -D warnings =="
cargo clippy -q --offline --all-targets -- -D warnings

echo "== ci.sh: all green =="
