#!/usr/bin/env sh
# Tier-1 verification gate, runnable on an air-gapped machine.
#
# The workspace has no external dependencies, so everything below works
# with an empty cargo registry (--offline). Run from the repo root:
#
#   scripts/verify.sh
set -eu

cd "$(dirname "$0")/.."

echo "== format (rustfmt, check only) =="
cargo fmt --check

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== benchmark build (perfbench, release, offline) =="
# perfbench is a package of its own that uses the crates' public API
# only; building it here makes an API change that breaks the benchmark
# fail locally.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== lint (clippy, warnings are errors) =="
cargo clippy --offline --all-targets -- -D warnings

echo "== tests (offline) =="
cargo test --release --offline --workspace -q

echo "== smoke tables (tiny datasets, one measured run each) =="
cargo run --release --offline -p arraymem-bench --bin tables -- --smoke

echo "== checked tier (shadow-memory sanitizer over all workloads) =="
# Exit 1 on any sanitizer finding: uninitialized read of a recycled
# block, use-after-release, map race, or a short-circuit whose concrete
# footprints overlap.
cargo run --release --offline -p arraymem-bench --bin tables -- --smoke --check

echo "== checked fuzz smoke (500 random programs under the sanitizer) =="
cargo test --release --offline -p arraymem-bench --test differential_fuzz -q

echo "== corpus tier (committed fuzz corpus: all modes, 1 and 8 workers) =="
# Every committed seed replays through pure, unoptimized, optimized,
# checked (shared session, silent sanitizer) and a 1/8-worker sweep;
# every committed regression must keep firing the structured rejection
# named in its `note: expects=...` header.
cargo test --release --offline -p arraymem-bench --test differential_fuzz -q corpus_

echo "== merge tier (block merging: workload peaks + on/off toggle fuzz) =="
# Every workload runs merge-off and merge-on (whole-program coloring)
# through one session with bit-identical outputs and a strictly lower
# peak wherever the pass engaged; the differential fuzzer then toggles
# the pass per random program.
cargo test --release --offline -p arraymem-bench --test merge_workloads -q
cargo test --release --offline -p arraymem-bench --test differential_fuzz -q merge_toggle_equivalence

echo "== threads tier (suite at 1 worker and at 8 workers) =="
# ARRAYMEM_THREADS pins the worker pool's default width: the whole test
# suite must pass with parallel dispatch disabled (1) and with maps
# oversubscribed onto 8 workers — proven-parallel maps must be
# bit-identical either way (the par_safety/differential suites assert
# this explicitly, but every other test also runs under both schedules).
ARRAYMEM_THREADS=1 cargo test --release --offline --workspace -q
ARRAYMEM_THREADS=8 cargo test --release --offline --workspace -q

echo "== server tier (multi-tenant concurrency under an 8-wide pool) =="
# Single-flight stampede coalescing, options-toggle key races,
# cross-tenant arena isolation under the sanitizer, admission-control
# queueing/rejection, and four tenants running distinct workloads
# concurrently through one server.
ARRAYMEM_THREADS=8 cargo test --release --offline -p arraymem-bench --test server -q

echo "== per-pass IR snapshots (NW, interleaved IR validation forced on) =="
# ARRAYMEM_VERIFY_IR re-runs the full structural+memory validator after
# every pipeline stage even in this release build; a violation panics
# naming the offending pass.
ARRAYMEM_VERIFY_IR=1 cargo test --release --offline -p arraymem-bench --test pass_snapshots -q

echo "== verify: OK =="
