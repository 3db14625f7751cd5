#!/usr/bin/env bash
# Offline build, the tests, two full runs and a compare between them.
# Run from anywhere; takes about five minutes on 2 cpus. Wiring this into
# .github/workflows is left to a later change.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test --offline

bin="${CARGO_TARGET_DIR:-target}/release/benchmark"
"$bin" spec | diff - ../BENCHMARK.json

"$bin" run --seed 1 --traced --out out/check-a.json
"$bin" run --seed 1 --traced --out out/check-b.json
# same commit, same seed: every metric must agree within its own bound
# and every exact count must repeat
"$bin" compare out/check-a.json out/check-b.json
