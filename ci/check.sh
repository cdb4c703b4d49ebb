#!/usr/bin/env bash
# Full static-analysis + test gate for the repo (see DESIGN.md "Static
# analysis & concurrency contracts" and "Lock hierarchy & deadlock
# detection"). Run from anywhere; operates on the repo root. Every stage
# must pass; the script stops at the first failure.
#
#   ci/check.sh              # everything
#   ci/check.sh lint         # hqlint + hqcheck source analysis
#   ci/check.sh clang-tidy   # curated .clang-tidy over src/ (skips w/o clang)
#   ci/check.sh default      # just the default preset build + tests
#   ci/check.sh asan tsan    # just those sanitizer presets
#   ci/check.sh ubsan        # UBSan with -fno-sanitize-recover=all
#   ci/check.sh bench-smoke  # just the conversion-plan perf gate
#   ci/check.sh chaos-smoke  # chaos differential + fault-layer cost gate
#   ci/check.sh perfbench-smoke  # short traced run of every end-to-end workload
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"
JOBS="$(nproc 2>/dev/null || echo 4)"

STAGES=("$@")
if [ ${#STAGES[@]} -eq 0 ]; then
  STAGES=(lint thread-safety clang-tidy default asan tsan ubsan bench-smoke chaos-smoke
          perfbench-smoke)
fi

# The observability e2e suite dumps the observed lock-order graph here; the
# default stage publishes it as a CI artifact and fails on any cycle.
export HQ_LOCK_GRAPH_OUT="$ROOT/build/lock_order_graph.dot"

run_preset() {
  local preset="$1"
  echo "=== preset: $preset ==="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$JOBS"
  ctest --preset "$preset" -j "$JOBS"
}

check_lock_graph() {
  # Artifact + gate: the e2e run records every rank-pair nesting it saw.
  # A cycle in that graph is a deadlock waiting for the right schedule.
  if [ -f "$HQ_LOCK_GRAPH_OUT" ]; then
    echo "=== lock-order graph ($HQ_LOCK_GRAPH_OUT) ==="
    cat "$HQ_LOCK_GRAPH_OUT"
    if grep -q "CYCLE DETECTED" "$HQ_LOCK_GRAPH_OUT"; then
      echo "lock-order graph contains a cycle; see dump above" >&2
      exit 1
    fi
    # Static-vs-runtime diff: every edge the runtime graph observed must be
    # derivable from the interprocedural may-acquire proof (a gap means the
    # static analysis is blind to a real code path). The annotated edge set
    # is archived next to the hotpath proofs. The default build's own .o
    # objects feed the proof too, so the disassembly side sees exactly the
    # code that ran the e2e suite (inlined acquires included), not just the
    # sources.
    echo "=== interlock static-vs-runtime lock-order diff ==="
    mapfile -t INTERLOCK_OBJECTS < <(find "$ROOT/build/src" -name '*.o' | sort)
    ./build/tools/hqcheck/hqcheck --interlock --root "$ROOT" \
      --manifest tools/hqcheck/lock_ranks.txt \
      --lockgraph "$HQ_LOCK_GRAPH_OUT" \
      --report build/hqcheck_interlock_runtime.txt src \
      ${INTERLOCK_OBJECTS[@]+"${INTERLOCK_OBJECTS[@]}"}
  else
    echo "=== lock-order graph: no dump produced ($HQ_LOCK_GRAPH_OUT missing) ==="
  fi
}

for stage in "${STAGES[@]}"; do
  case "$stage" in
    lint)
      echo "=== hqlint + hqcheck over src/, tests/, tools/ and bench/ ==="
      cmake --preset lint
      cmake --build --preset lint -j "$JOBS"
      ./build-lint/tools/hqlint/hqlint --root "$ROOT" src tests tools bench
      # Semantic pass: guarded fields, lock ranks vs the manifest, nesting
      # order, enum-switch coverage. Any unsuppressed finding fails the
      # stage; the scan output is archived as a CI artifact. The binary-level
      # hotpath proofs run in the default stage, which owns the hq_core
      # objects they disassemble.
      ./build-lint/tools/hqcheck/hqcheck --root "$ROOT" \
        --manifest tools/hqcheck/lock_ranks.txt src tools bench \
        | tee build-lint/hqcheck_report.txt
      # Whole-program passes (v3): the interprocedural may-acquire proof and
      # the untrusted-input taint proof over every wire decoder. Reports are
      # archived next to hqcheck_report.txt; unused trusted-frontier entries
      # and stale allow markers fail the stage like any other finding.
      ./build-lint/tools/hqcheck/hqcheck --interlock --root "$ROOT" \
        --manifest tools/hqcheck/lock_ranks.txt \
        --report build-lint/hqcheck_interlock.txt src
      ./build-lint/tools/hqcheck/hqcheck --taint --root "$ROOT" \
        --surfaces tools/hqcheck/taint_surfaces.txt \
        --report build-lint/hqcheck_taint.txt src
      ctest --preset lint -j "$JOBS"
      ;;
    clang-tidy)
      # Generic bug classes (bugprone-*, performance-*, concurrency-*) via
      # the curated .clang-tidy, against the default preset's exported
      # compile_commands.json. gcc-only boxes skip: the in-tree analyzers
      # above carry the repo-specific contracts either way.
      if command -v clang-tidy >/dev/null 2>&1; then
        echo "=== clang-tidy over src/ (curated .clang-tidy) ==="
        cmake --preset default
        mapfile -t TIDY_SOURCES < <(find src -name '*.cc' | sort)
        clang-tidy -p build --quiet "${TIDY_SOURCES[@]}"
      else
        echo "=== clang-tidy: not installed, skipping (hqlint/hqcheck still gate) ==="
      fi
      ;;
    thread-safety)
      # The HQ_GUARDED_BY / HQ_REQUIRES annotations in common/sync.h are
      # only understood by clang's -Wthread-safety; on a gcc-only box this
      # stage is skipped (the annotations compile away there).
      if command -v clang++ >/dev/null 2>&1; then
        echo "=== clang -Werror=thread-safety build of src/ ==="
        cmake -B build-ts -S . -DCMAKE_CXX_COMPILER=clang++ \
          -DCMAKE_CXX_FLAGS="-Wthread-safety -Werror=thread-safety"
        cmake --build build-ts -j "$JOBS"
      else
        echo "=== thread-safety: clang++ not found, skipping (annotations are inert under gcc) ==="
      fi
      ;;
    default)
      run_preset default
      check_lock_graph
      ;;
    asan|tsan|ubsan)
      run_preset "$stage"
      ;;
    bench-smoke)
      # Perf regression gate: the compiled conversion plan must stay at least
      # as fast as the interpretive reference path (it should be well above;
      # see BENCH_convert.json for the committed trajectory), and the binary
      # direct-pipe staging pipe must never fall behind the CSV pipe.
      echo "=== bench-smoke: compiled conversion plan vs reference ==="
      cmake --preset default
      cmake --build --preset default -j "$JOBS" \
        --target bench_ablation_convert bench_stream bench_csv_scan
      ctest --preset default -R '^bench_smoke$' --output-on-failure
      ctest --preset default -R '^bench_smoke_binary$' --output-on-failure
      # Streaming micro-batch gate: exactly-once correctness across commits,
      # in both staging formats (speed is reported, not gated; see
      # BENCH_stream.json).
      ctest --preset default -R '^bench_stream_smoke$' --output-on-failure
      ctest --preset default -R '^bench_stream_smoke_binary$' --output-on-failure
      # SWAR CSV scan: both scan paths must parse identically (the speedup is
      # gated only on full runs; debug-build timing is noise).
      ctest --preset default -R '^bench_csv_scan_smoke$' --output-on-failure
      # Data-quality gate cost: the fused per-field check ops must stay
      # within 2% of the gate-off kernels (plus the run's own measured A/A
      # noise floor) on clean data, for the text AND columnar families.
      ctest --preset default -R '^bench_quality_smoke$' --output-on-failure
      ;;
    chaos-smoke)
      # Resilience gate (DESIGN.md "Fault injection & resilient load path"):
      # the chaos differential must land a byte-identical table under
      # aggressive injected faults — run under the default preset and again
      # under tsan, where the retry/breaker/injector interleavings get the
      # race detector's scrutiny — and the fault/retry layer must stay under
      # its 1% injection-off cost budget.
      echo "=== chaos-smoke: chaos differential (default + tsan) + fault-layer cost ==="
      cmake --preset default
      cmake --build --preset default -j "$JOBS" --target hyperq_e2e_test bench_fault_overhead
      ctest --preset default -R '^ChaosE2eTest' --output-on-failure
      ctest --preset default -R '^bench_fault_smoke$' --output-on-failure
      cmake --preset tsan
      cmake --build --preset tsan -j "$JOBS" --target hyperq_e2e_test
      ctest --preset tsan -R '^ChaosE2eTest' --output-on-failure
      ;;
    perfbench-smoke)
      # End-to-end benchmark smoke (BENCHMARK.json, perfbench/): a short
      # traced run of every workload, import and stream alike. The harness
      # checks every operation's result and fails on any dropped span, so
      # both job kinds keep their correctness checks and a complete trace.
      echo "=== perfbench-smoke: traced 3 s run of every workload ==="
      for workload in import_csv stream_binary upsert_merge import_errors; do
        report="$(python3 perfbench/run.py --workload "$workload" --seed 7 --seconds 3 --trace 1)"
        echo "$report"
        tail -n 1 <<<"$report" | python3 -c '
import json, sys
dropped = json.load(sys.stdin)["metrics"]["obs.spans_dropped"]["value"]
sys.exit("perfbench-smoke: %d trace spans dropped" % dropped if dropped else 0)'
      done
      ;;
    *)
      echo "unknown stage: $stage (expected lint|thread-safety|clang-tidy|default|asan|tsan|ubsan|bench-smoke|chaos-smoke|perfbench-smoke)" >&2
      exit 2
      ;;
  esac
done

echo "=== all stages passed ==="
