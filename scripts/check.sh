#!/usr/bin/env bash
# Repo-wide pre-merge checks: formatting, lints, and the full test suite
# (a superset of the tier-1 gate `cargo build --release && cargo test -q`).
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> dependency allow-list (lsopc crates plus vendored rand and proptest)"
# Every package in the resolved graph must be an lsopc crate or one of
# the two vendored stand-ins the code uses; a new dependency needs a
# real user and an entry in DESIGN.md §6 first. Package objects are the
# only metadata entries whose "name" is followed by "version".
pkgs=$(cargo metadata --offline --format-version 1 |
  grep -o '{"name":"[^"]*","version":' | sed 's/^{"name":"\([^"]*\)".*/\1/')
if ! grep -qx lsopc <<< "$pkgs"; then
  echo "error: cargo metadata listed no lsopc package; fix the gate's parsing" >&2
  exit 1
fi
bad=$(grep -vxE 'lsopc|lsopc-.+|rand|proptest' <<< "$pkgs" || true)
if [ -n "$bad" ]; then
  echo "error: packages outside the dependency allow-list (see DESIGN.md §6):" >&2
  echo "$bad" >&2
  exit 1
fi

echo "==> cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (deny warnings: broken or private intra-doc links)"
# Every lsopc crate plus the root package. Not vendor/ (stand-ins for
# external crates), and not lsopc-cli, whose `lsopc` binary would write
# its docs to the root library's output path.
doc_pkgs=(-p lsopc)
for manifest in crates/*/Cargo.toml; do
  name=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)
  if [ "$name" != lsopc-cli ]; then
    doc_pkgs+=(-p "$name")
  fi
done
RUSTDOCFLAGS='-D warnings' cargo doc --no-deps -q "${doc_pkgs[@]}"

echo "==> cargo build --release"
cargo build --release
# The root build covers only the root package; the analyzer gate below
# drives the CLI binary, so build it explicitly.
cargo build --release -p lsopc-cli

echo "==> cargo test (workspace, LSOPC_THREADS=1)"
LSOPC_THREADS=1 cargo test -q --workspace

echo "==> cargo test (workspace, LSOPC_THREADS=4)"
LSOPC_THREADS=4 cargo test -q --workspace

echo "==> cargo test -p lsopc-core --features fault-injection"
LSOPC_THREADS=4 cargo test -q -p lsopc-core --features fault-injection

echo "==> precision suite (f32 tolerances + f64/f32 thread determinism)"
# Both precisions must be deterministic per thread count; run the
# dedicated suite at both pool sizes on top of the workspace runs above.
LSOPC_THREADS=1 cargo test -q --test precision_tolerance
LSOPC_THREADS=4 cargo test -q --test precision_tolerance

echo "==> transform suite (real-input FFT vs dense oracle + golden hashes)"
# The half-spectrum transform every backend runs must match the dense
# complex oracle and stay bit-identical across thread counts, and its
# band-limited forward/inverse (the accelerated backend's full-size
# transforms) must match the full transforms bit for bit. The f64
# pipeline (golden_f64, FftBackend) and the engine's production path
# (golden_engine, AcceleratedBackend at f64 and f32, flat and tiled)
# must keep their pinned golden hashes at both pool sizes.
LSOPC_THREADS=1 cargo test -q -p lsopc-fft --test proptest_rfft
LSOPC_THREADS=4 cargo test -q -p lsopc-fft --test proptest_rfft
LSOPC_THREADS=4 cargo test -q -p lsopc-core --test golden_f64
LSOPC_THREADS=1 cargo test -q --test golden_engine
LSOPC_THREADS=4 cargo test -q --test golden_engine

echo "==> warm-start suite (fingerprint invariance + thread determinism)"
# The coarse-to-fine schedule and the warm-start cache must keep the
# default path bit-identical (golden hashes above) and produce the same
# tiled masks at every pool size; the fingerprint proptests pin the
# translation-invariant keying, and a periodic layout pins the cache's
# engagement (one cold solve, then all-warm runs).
LSOPC_THREADS=1 cargo test -q -p lsopc-core --test warmstart --test parallel_tiles
LSOPC_THREADS=4 cargo test -q -p lsopc-core --test warmstart --test parallel_tiles
LSOPC_THREADS=1 cargo test -q -p lsopc-core schedule
LSOPC_THREADS=4 cargo test -q -p lsopc-core schedule

echo "==> kill/resume suite (checkpoint bit-identity at both pool sizes)"
# A run killed at iteration k and resumed from its checkpoint must
# reproduce the uninterrupted trajectory bit-for-bit, snapshots included:
# at f64 on the plain, guarded, line-search, snapshotting and scheduled
# (coarse & fine) paths, and at f32 on the plain and guarded paths (the
# checkpoint widens to f64 and the resume narrows back). An uninterrupted
# run writing periodic checkpoints stays bit-identical and writes exactly
# the checkpoints its interval asks for. A kill after a guard rollback is
# pinned in the process-fault suite below.
LSOPC_THREADS=1 cargo test -q -p lsopc-core --test resume_identity
LSOPC_THREADS=4 cargo test -q -p lsopc-core --test resume_identity

echo "==> process-fault suite (mid-pipeline cancel, rollback resume, corrupt checkpoints)"
# Cancellation fired from inside an evaluation, and a kill after a
# guard rollback, must checkpoint and resume bitwise at both pool
# sizes; truncated/byte-flipped checkpoints and damaged warm-start
# entries must be typed errors or warned misses, not panics.
LSOPC_THREADS=1 cargo test -q -p lsopc-core --features fault-injection --test process_fault
LSOPC_THREADS=4 cargo test -q -p lsopc-core --features fault-injection --test process_fault

echo "==> engine suite (cache amortization + concurrent sessions)"
# The headless engine must amortize its shared caches across sequential
# jobs and keep concurrent sessions bit-identical with separated scoped
# trace streams, at both pool sizes.
LSOPC_THREADS=1 cargo test -q -p lsopc-engine
LSOPC_THREADS=4 cargo test -q -p lsopc-engine --test engine

echo "==> trace suite (overhead + determinism at both pool sizes)"
# The trace layer must only observe: tracing on leaves the optimizer
# bit-identical, the disabled path costs < 1% of an evaluation, and the
# histogram-registry-enabled path stays under its 10% bound, with every
# recorded span reaching the registry's histogram.
LSOPC_THREADS=1 cargo test -q -p lsopc-core --test trace_determinism --test trace_overhead
LSOPC_THREADS=4 cargo test -q -p lsopc-core --test trace_determinism --test trace_overhead

echo "==> histogram suite (quantile oracle + thread stability)"
# Histogram quantiles must stay within the documented 1/16 error bound
# against an exact oracle, and recorded totals must be bit-stable at 1
# and 4 recording threads.
LSOPC_THREADS=1 cargo test -q -p lsopc-trace
LSOPC_THREADS=4 cargo test -q -p lsopc-trace

echo "==> benchmark smoke (lsopc_bench --quick: every workload, no failures)"
# The benchmark harness builds against the workspace crates; a quick
# run catches an API break against it and any failed operation. The
# last stdout line is the result object, which must report no failures.
bench_out=$(cargo run --release --offline --quiet \
  --manifest-path examples/lsopc_bench/Cargo.toml -- --quick --trace 0 --threads 1)
result=$(tail -n 1 <<< "$bench_out")
if ! grep -q '"failed": 0,' <<< "$result"; then
  echo "error: lsopc_bench --quick reported failures:" >&2
  echo "$result" >&2
  exit 1
fi

echo "==> one speed record (timings come from examples/lsopc_bench only)"
# Every speed claim is measured by the benchmark harness; a second
# record (a crate bench target or a root BENCH_*.json writer output)
# goes stale unseen.
bad=$( (ls -d crates/*/benches 2>/dev/null; ls BENCH_*.json 2>/dev/null;
        grep -ln '^\[\[bench\]\]' Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml) || true)
if [ -n "$bad" ]; then
  echo "error: bench targets or BENCH_*.json outside the benchmark; add" >&2
  echo "timings to examples/lsopc_bench instead:" >&2
  echo "$bad" >&2
  exit 1
fi

echo "==> analyzer golden gate (profile --trace -> lsopc analyze round trip)"
# A traced 3-iteration profile run must analyze back into a report that
# names the expected spans, cache counters, convergence summary and a
# stop-reason line; an unparseable report would fail the greps.
tmp_trace=$(mktemp /tmp/lsopc_check_trace.XXXXXX)
target/release/lsopc profile --pattern wire --grid 128 --kernels 4 --iters 3 \
  --trace "$tmp_trace" > /dev/null
report=$(target/release/lsopc analyze "$tmp_trace")
rm -f "$tmp_trace"
for needle in "events:" "optimize" "litho.cost_and_gradient" "cache." \
              "counters:" "convergence:" "stop reason:"; do
  if ! grep -q "$needle" <<< "$report"; then
    echo "error: analyzer report lacks \"$needle\":" >&2
    echo "$report" >&2
    exit 1
  fi
done

echo "==> bare f64 literal gate (generic precision paths)"
# Code generic over Scalar must route constants through T::from_f64;
# a suffixed f64 literal pins the precision silently. Deliberate
# f64-internal passes (e.g. the EDT) carry an `allow-f64` marker.
bad=$(awk '
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  !in_tests && /[0-9]_?f64/ && !/allow-f64/ { print FILENAME ":" FNR ": " $0 }
' crates/litho/src/backend.rs crates/litho/src/accelerated.rs \
  crates/litho/src/spectra.rs crates/litho/src/resist.rs \
  crates/litho/src/cost.rs crates/levelset/src/*.rs crates/core/src/cg.rs)
if [ -n "$bad" ]; then
  echo "error: bare f64 literal in precision-generic code (use T::from_f64," >&2
  echo "or mark deliberate f64 internals with an allow-f64 comment):" >&2
  echo "$bad" >&2
  exit 1
fi

echo "==> library print gate (report via lsopc-trace, not bare prints)"
# Library crates must report through lsopc_trace::warn (structured, sink-
# routable) rather than bare println!/eprintln!. Exempt: the CLI front
# end (main.rs/commands.rs), the bench report binaries (src/bin/),
# #[cfg(test)] blocks, and deliberate sites carrying an `allow-print`
# marker on the same or the preceding line.
bad=$(find crates/*/src -name '*.rs' \
        ! -path 'crates/cli/src/main.rs' ! -path 'crates/cli/src/commands.rs' \
        ! -path 'crates/bench/src/bin/*' -print0 |
  xargs -0 awk '
    FNR == 1 { in_tests = 0; exempt = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    /allow-print/ { exempt = 2 }
    !in_tests && exempt == 0 && /(^|[^a-zA-Z_"])e?print(ln)?!/ { print FILENAME ":" FNR ": " $0 }
    { if (exempt > 0) exempt-- }
  ')
if [ -n "$bad" ]; then
  echo "error: bare print in library code (use lsopc_trace::warn, or mark" >&2
  echo "a deliberate site with an allow-print comment):" >&2
  echo "$bad" >&2
  exit 1
fi

echo "==> CLI layering gate (front end talks to lsopc-engine only)"
# The CLI reaches simulators, caches and precision variants through the
# engine layer; a direct dependency on lsopc-fft or lsopc-litho would
# bypass the session/cache contract (DESIGN.md §16).
bad=$(grep -nE 'lsopc[-_](fft|litho)' crates/cli/Cargo.toml crates/cli/src/*.rs || true)
if [ -n "$bad" ]; then
  echo "error: crates/cli must not depend on lsopc-fft or lsopc-litho" >&2
  echo "directly (go through lsopc-engine):" >&2
  echo "$bad" >&2
  exit 1
fi

echo "==> CLI unwrap/expect gate"
# No unwrap()/expect( reachable from main on bad input: reject them in
# crates/cli/src non-test code (everything before the first #[cfg(test)]).
bad=$(awk '
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  !in_tests && (/\.unwrap\(\)/ || /\.expect\(/) { print FILENAME ":" FNR ": " $0 }
' crates/cli/src/*.rs)
if [ -n "$bad" ]; then
  echo "error: unwrap()/expect( in CLI non-test code:" >&2
  echo "$bad" >&2
  exit 1
fi

echo "All checks passed."
