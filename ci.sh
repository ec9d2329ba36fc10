#!/usr/bin/env bash
# Offline CI for the FBS power-flow repo. Seven legs:
#
#   1. Tier-1 verify: release build + `cargo test`, which runs the root
#      package and every workspace crate's unit, integration and property
#      suites (the root manifest lists them all as `default-members`).
#   2. Benchmark tests: the `benchmark/` package's unit tests (tiny-size
#      bit-identity of every workload, pinned input fingerprints), so a
#      public-API change that breaks the benchmark build, or answer
#      drift, fails here before any benchmark run.
#   3. E-bin runs: the `*_SMOKE=1` configurations of E9 and E12–E17 as
#      end-to-end sanity passes, under wall-clock ceilings. Smoke runs
#      only print; the leg fails if any of them wrote under `results/`,
#      which holds the full runs' numbers. Then one full run each of
#      E11, E12, E13, E15, E16 and E17 (about 1–4 s apiece; each is fully
#      modeled and deterministic), each from a temporary working
#      directory, where it writes `./results`; the leg fails unless that
#      CSV is byte-identical to the committed one. E11 is the only pin on
#      serial three-phase modeled time (`fleet-open` serves no
#      three-phase request on the CPU); E12 pins what checkpoints and
#      recoveries cost, charged to the answer, on both kinds of routed
#      single solve, the fused sweep (1 023 and 16 383 buses) and the
#      level path with the direct backward sweep (131 071), and on a
#      two-chunk tensor batch; E13, E15 and E16 pin the service's retry
#      and breaker schedule, the fleet's routing, hedging and failover,
#      and the soak's fault and recovery counts under armed plans, none
#      of which the benchmark's `fleet-open` (no plan armed) reaches;
#      E17 pins the DG outer-loop session's rounds and modeled time. E9
#      (about 150 s) and E14 (over 10 min) are not pinned. Each pinned
#      run's stderr (every caught device panic prints a backtrace there)
#      goes to a file in its directory; its tail is printed only when the
#      run fails or its CSV differs.
#   4. Benchmark: one `--seconds 1 --trace 0` run of every
#      BENCHMARK.json workload at the default seed. Each run checks its
#      answers against the serial reference, and the leg fails unless
#      the final JSON line reports `"failed":0`. It also fails unless
#      the printed `modeled_us_per_answer` equals, string for string,
#      the workload's line in `results/modeled_baseline.txt`. Modeled
#      time is deterministic for a seed and does not depend on run
#      length, so a PR that changes modeled time updates that baseline
#      and says so in CHANGES.md. Wall time and memory are not gated.
#      Measured at 34–45 s of wall time for the six runs on a 2-core Xeon
#      with a warm release build in `benchmark/target`; a cold build
#      adds about a minute.
#   5. CLI replays: a seeded chaos replay through `fbs fleet` that must
#      exit 0 with one device scripted dead, a seeded storm soak
#      through `fbs soak` that must exit 0 (exit 8 would mean an
#      undetected corruption reached an answer) and report at least one
#      failover (the storm's kill sits at fixed device-op indices; no
#      failover means a change in op counts disarmed it), and a seeded
#      three-phase fault replay through `fbs solve3` that must exit 0.
#   6. Racecheck: re-runs every simt and fbs device kernel under the
#      per-cell data-race detector (simt's `racecheck` feature).
#   7. Lint: clippy over every target with warnings promoted to errors.
#
# Opt-in, not a leg: the differential oracle at 10⁴ cases (tier-1 runs
# it at its default counts),
#   cargo test --release --offline --test oracle -- --ignored
# measured at about 121 s of test time on a 2-core Xeon with a warm
# release build.
#
# Everything runs with --offline — the repo has zero external registry
# dependencies (see DESIGN.md, "Dependency policy"), so a warm toolchain
# is all that's needed.

set -euo pipefail
cd "$(dirname "$0")"

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release --offline
cargo test -q --offline

echo "== benchmark tests: cargo test --manifest-path benchmark/Cargo.toml =="
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== E-bin smoke runs + E11, E12, E13, E15, E16 and E17 pins =="
results_sum() { find results -type f -print0 | sort -z | xargs -0 sha256sum | sha256sum; }
results_before=$(results_sum)
E9_SMOKE=1 timeout 300 cargo run -q --offline --release -p fbs-bench --bin exp_e9_batch > /dev/null
E12_SMOKE=1 cargo run -q --offline --release -p fbs-bench --bin exp_e12_faults > /dev/null
E13_SMOKE=1 timeout 300 cargo run -q --offline --release -p fbs-bench --bin exp_e13_service > /dev/null
E14_SMOKE=1 timeout 300 cargo run -q --offline --release -p fbs-bench --bin exp_e14_contingency > /dev/null
E15_SMOKE=1 timeout 600 cargo run -q --offline --release -p fbs-bench --bin exp_e15_fleet > /dev/null
E16_SMOKE=1 timeout 600 cargo run -q --offline --release -p fbs-bench --bin exp_e16_soak > /dev/null 2> /dev/null
E17_SMOKE=1 timeout 300 cargo run -q --offline --release -p fbs-bench --bin exp_e17_mesh > /dev/null
if [ "$(results_sum)" != "$results_before" ]; then
  echo "E-bin smoke runs must not write under results/" >&2
  exit 1
fi
for pinned in e11_three_phase e12_faults e13_service e15_fleet e16_soak e17_mesh; do
  cargo build -q --offline --release -p fbs-bench --bin "exp_$pinned"
  pinned_bin="$PWD/target/release/exp_$pinned"
  pinned_dir=$(mktemp -d)
  pinned_err="$pinned_dir/stderr.log"
  if ! (cd "$pinned_dir" && env -u CARGO_MANIFEST_DIR timeout 300 "$pinned_bin" > /dev/null 2> "$pinned_err"); then
    echo "$pinned: the full run failed; the tail of its stderr:" >&2
    tail -n 40 "$pinned_err" >&2
    exit 1
  fi
  if ! cmp -s "$pinned_dir/results/$pinned.csv" "results/$pinned.csv"; then
    echo "$pinned: the full run's CSV differs from results/$pinned.csv; the tail of its stderr:" >&2
    tail -n 40 "$pinned_err" >&2
    exit 1
  fi
  rm -rf "$pinned_dir"
done

echo "== benchmark: every workload, modeled time pinned to results/modeled_baseline.txt =="
workloads=$(grep -o '"name": "[^"]*", "why"' BENCHMARK.json | cut -d'"' -f4)
for workload in $workloads; do
  want=$(awk -v w="$workload" '$1 == w { print $2 }' results/modeled_baseline.txt)
  if [ -z "$want" ]; then
    echo "benchmark $workload: no modeled_us_per_answer in results/modeled_baseline.txt" >&2
    exit 1
  fi
  out=$(cargo run -q --offline --release --manifest-path benchmark/Cargo.toml --bin benchmark -- \
    --workload "$workload" --seconds 1 --trace 0)
  last=$(tail -n 1 <<< "$out")
  case "$last" in
    *'"failed":0,'*) ;;
    *) echo "benchmark $workload: an answer failed its check: $last" >&2; exit 1 ;;
  esac
  got=$(awk -v w="$workload" '$1 == w && $2 == "modeled_us_per_answer" { print $3 }' <<< "$out")
  if [ "$got" != "$want" ]; then
    echo "benchmark $workload: modeled_us_per_answer $got, baseline $want" >&2
    exit 1
  fi
done

echo "== CLI replays: fleet chaos + storm soak + 3φ faults =="
cargo run -q --offline --release -p fbs-cli feeders --name ieee37 --out target/ci_fleet.grid 2> /dev/null
timeout 300 cargo run -q --offline --release -p fbs-cli fleet target/ci_fleet.grid \
  --devices 4 --requests 32 --gap 120 --kill-device 1 --batch-every 8 \
  --scenarios 96 --shard-min 16 --seed 7 > /dev/null
soak_out=$(timeout 300 cargo run -q --offline --release -p fbs-cli soak target/ci_fleet.grid \
  --requests 24 --tol 1e-12 --seed 7 2> /dev/null)
failovers=$(sed -n 's/^served:.*, \([0-9]*\) failovers,.*/\1/p' <<< "$soak_out")
if [ "${failovers:-0}" -lt 1 ]; then
  echo "fbs soak: the storm's kill never landed (no failover): $soak_out" >&2
  exit 1
fi
cargo run -q --offline --release -p fbs-cli feeders3 --name ieee13 --out target/ci_ieee13.grid3 2> /dev/null
timeout 300 cargo run -q --offline --release -p fbs-cli solve3 target/ci_ieee13.grid3 \
  --solver gpu --fault-seed 7 --fault-rate 0.005 > /dev/null

echo "== racecheck: device kernels under the simt race detector =="
cargo test -q --offline --features racecheck -p simt -p fbs

echo "== lint: cargo clippy -D warnings =="
cargo clippy -q --offline --all-targets -- -D warnings

echo "== ci.sh: all green =="
