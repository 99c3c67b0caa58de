#!/usr/bin/env bash
# Builds everything, runs the full test suite and every benchmark harness,
# and records the outputs the artifact appendix describes: test_output.txt,
# asan_output.txt, bench_output.txt plus the machine-readable
# bench_output.json (aggregated from each harness's per-figure JSON) and a
# --trace/--metrics smoke run whose artifacts are validated with the
# repo's own json_lint.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prefer Ninja when configuring a tree from scratch, but never force a
# generator onto an already-configured build directory (CMake errors out
# if the generators differ).
GENERATOR_ARGS=()
if command -v ninja >/dev/null 2>&1; then
  GENERATOR_ARGS=(-G Ninja)
fi
configure() {
  local dir="$1"; shift
  if [ -f "$dir/CMakeCache.txt" ]; then
    cmake -B "$dir" "$@"
  else
    cmake -B "$dir" "${GENERATOR_ARGS[@]}" "$@"
  fi
}

configure build
cmake --build build

# Static-analysis lane: clang-tidy over the library sources against the
# compile_commands.json the build exported (.clang-tidy pins the check
# set). Skips gracefully when clang-tidy isn't installed — the tree must
# stay buildable in minimal containers — but where the tool exists the
# lane is ENFORCED against scripts/clang_tidy_baseline.txt: findings are
# normalized (line/column numbers stripped so pure line drift cannot
# churn the file) and any finding not present in the checked-in baseline
# fails the script. Fixing a baselined finding prints a reminder to
# shrink the baseline but does not fail.
TIDY_BASELINE=scripts/clang_tidy_baseline.txt
if command -v clang-tidy >/dev/null 2>&1 && [ -f build/compile_commands.json ]; then
  find src -name '*.cpp' -print0 \
    | xargs -0 clang-tidy -p build --quiet 2>&1 | tee lint_output.txt || true
  # Normalize to "file: severity: message [check]" with repo-relative
  # paths; sort -u collapses findings repeated across translation units.
  grep -E '(warning|error):' lint_output.txt \
    | sed -E "s|^$(pwd)/||; s|^([^:]+):[0-9]+:[0-9]+:|\1:|" \
    | sort -u > lint_findings.txt || true
  grep -vE '^#|^$' "$TIDY_BASELINE" | sort -u > lint_baseline.txt || true
  if new_findings=$(comm -13 lint_baseline.txt lint_findings.txt) \
      && [ -n "$new_findings" ]; then
    echo "clang-tidy lane: NEW findings not in $TIDY_BASELINE:"
    echo "$new_findings"
    exit 1
  fi
  if fixed=$(comm -23 lint_baseline.txt lint_findings.txt) && [ -n "$fixed" ]; then
    echo "clang-tidy lane: baselined findings no longer reported (consider removing from $TIDY_BASELINE):"
    echo "$fixed"
  fi
  rm -f lint_baseline.txt
  echo "clang-tidy lane: clean against baseline"
else
  echo "clang-tidy lane: skipped (clang-tidy or compile_commands.json missing)"
fi

# Fast lane first: the tier1 label excludes the long fuzz / full-scale
# sweeps, so structural breakage surfaces in seconds. (The CFG/liveness
# suite also carries its own "dataflow" label — `ctest -L dataflow` runs
# just that test during analysis work; it is already part of tier1.)
ctest --test-dir build -L tier1 --output-on-failure 2>&1 | tee test_output.txt
# ...then the chaos lane: the deterministic fault-injection sweeps
# (seed x site). The lane only exists when COGENT_CHAOS is ON, so skip
# it when empty rather than letting ctest fail on "no tests found" —
# but never mask a real chaos test failure.
if ctest --test-dir build -L chaos -N | grep -q "Total Tests: [1-9]"; then
  ctest --test-dir build -L chaos --output-on-failure 2>&1 \
    | tee chaos_output.txt
fi
# ...then the full suite (slow tests included) for the record.
ctest --test-dir build 2>&1 | tee -a test_output.txt

# Fuzz smoke test under AddressSanitizer + UBSan: the whole-pipeline fuzz
# harness re-runs in an instrumented tree so memory errors and signed
# overflow surface even when the uninstrumented asserts stay quiet. UBSan
# reports are fatal here (halt_on_error), so undefined behavior fails the
# lane instead of scrolling past in the log.
configure build-asan -DCOGENT_SANITIZE=address
cmake --build build-asan --target test_fuzz_pipeline
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --test-dir build-asan -R test_fuzz_pipeline --output-on-failure \
  2>&1 | tee asan_output.txt

# ThreadSanitizer lane for the concurrent service layer: the worker pool,
# sharded cache, service counters and counter scopes re-run instrumented
# so cross-thread ordering bugs surface as TSan reports instead of flaky
# tests. Skips gracefully when the toolchain cannot link TSan binaries
# (minimal containers ship no libtsan) — probe first, never half-fail.
if echo 'int main(){return 0;}' > /tmp/tsan_probe.cpp \
    && c++ -fsanitize=thread /tmp/tsan_probe.cpp -o /tmp/tsan_probe \
       >/dev/null 2>&1; then
  rm -f /tmp/tsan_probe /tmp/tsan_probe.cpp
  configure build-tsan -DCOGENT_SANITIZE=thread
  cmake --build build-tsan --target test_service test_service_chaos \
    test_telemetry 2>/dev/null \
    || cmake --build build-tsan --target test_service test_telemetry
  ctest --test-dir build-tsan -R 'test_service|test_telemetry' \
    --output-on-failure 2>&1 | tee tsan_output.txt
  echo "tsan lane: service tests clean under ThreadSanitizer"
else
  rm -f /tmp/tsan_probe /tmp/tsan_probe.cpp
  echo "tsan lane: skipped (toolchain cannot link -fsanitize=thread)"
fi

JSON_LINT=build/tools/json_lint

# Observability smoke: one CLI run must produce well-formed trace and
# metrics JSON; json_lint exits non-zero (failing the script) otherwise.
rm -rf smoke_artifacts && mkdir -p smoke_artifacts
build/examples/cogent_cli "ab-ac-cb" 512 --quiet \
  --trace=smoke_artifacts/trace.json --metrics=smoke_artifacts/metrics.json
"$JSON_LINT" smoke_artifacts/trace.json smoke_artifacts/metrics.json

# Barrier smoke: the double-buffered re-emission passes the lint gate and
# its race-prover derivation lists at least one barrier required and none
# redundant.
build/examples/cogent_cli abcd-aebf-dfce 24 --double-buffer --explain-races \
  > /dev/null 2> smoke_artifacts/double_buffer_races.txt
if ! grep -q ': required$' smoke_artifacts/double_buffer_races.txt; then
  echo "barrier smoke: no double-buffered barrier was judged required" >&2
  exit 1
fi
if grep -q ': redundant$' smoke_artifacts/double_buffer_races.txt; then
  echo "barrier smoke: a double-buffered barrier was judged redundant" >&2
  exit 1
fi
echo "barrier smoke: double-buffered barriers all required"

# Telemetry smoke: a batch run must produce a well-formed telemetry
# snapshot (--telemetry-json) — counters, gauges, and the latency
# histograms with their quantile summaries — validated with json_lint
# like every other artifact.
cat > smoke_artifacts/telemetry_batch.txt <<'EOF'
ab-ac-cb 24
abc-abd-dc 12
ab-ac-cb 24
EOF
build/examples/cogent_cli --batch-file smoke_artifacts/telemetry_batch.txt \
  --jobs 2 --quiet --telemetry-json smoke_artifacts/telemetry.json
"$JSON_LINT" smoke_artifacts/telemetry.json
# One name per fact: the service and cache tallies are exported once
# ("service.*", "cache.*"), and nothing under a process-wide "process."
# name.
if grep -q '"process\.' smoke_artifacts/telemetry.json; then
  echo "telemetry smoke: a process-wide name was exported" >&2
  exit 1
fi
echo "telemetry smoke: snapshot validated"

# Each bench harness writes its own <name>.json next to the text output;
# run them from a scratch directory, validate every artifact, then
# aggregate into one bench_output.json keyed by harness name.
rm -rf bench_artifacts && mkdir -p bench_artifacts
: > bench_output.txt
for b in build/bench/*; do
  if [ -f "$b" ] && [ -x "$b" ]; then
    name=$(basename "$b")
    echo "==== $b ====" | tee -a bench_output.txt
    (cd bench_artifacts && "../$b") 2>&1 | tee -a bench_output.txt
    echo | tee -a bench_output.txt
  fi
done

# Bounded chaos CLI sweep: drive the real binary through a deterministic
# all-sites seed sweep. Every run must exit 0 — the plan verifier either
# accepts the ranked plan or the fallback chain rescues the run — and
# must emit well-formed metrics JSON. The per-seed metrics are validated
# with json_lint and folded into bench_artifacts/ so they land in
# bench_output.json under the "chaos_sweep" key.
rm -rf chaos_artifacts && mkdir -p chaos_artifacts
for seed in 1 2 3 4 5 6 7 8; do
  build/examples/cogent_cli "abc-abd-dc" 24 --quiet \
    --chaos-seed "$seed" --chaos-sites all \
    --metrics="chaos_artifacts/seed_${seed}.json"
done
"$JSON_LINT" chaos_artifacts/*.json
{
  printf '{'
  first=1
  for f in chaos_artifacts/seed_*.json; do
    seed=$(basename "$f" .json)
    if [ "$first" -eq 1 ]; then first=0; else printf ','; fi
    printf '"%s":' "$seed"
    cat "$f"
  done
  printf '}'
} > bench_artifacts/chaos_sweep.json
"$JSON_LINT" bench_artifacts/chaos_sweep.json
echo "chaos sweep: 8 seeds, all sites, artifacts validated"

# Service chaos lane: the same storm aimed at the resilient batch path.
# A deterministic seed sweep drives cogent_cli --batch-file (worker pool,
# sharded cache, retries, deadline degradation) with every fault site
# armed. The contract is weaker than the single-shot sweep on purpose:
# exit 0 (every request produced a verified plan) or exit 3 (the batch
# completed with typed per-request errors) are both resilient outcomes;
# anything else — a hang, a crash, exit 1/2 — fails the script.
cat > chaos_artifacts/service_batch.txt <<'EOF'
# service chaos lane workload: small TCCG-shaped mix, one duplicate to
# exercise coalescing/cache sharing under fire.
ab-ac-cb 24
abc-abd-dc 12
ab-ac-cb 24
ij-ik-kj 24
abcd-aebf-dfce 8
EOF
for seed in 1 2 3 4 5 6 7 8; do
  rc=0
  build/examples/cogent_cli --batch-file chaos_artifacts/service_batch.txt \
    --jobs 4 --request-deadline-ms 250 --quiet \
    --chaos-seed "$seed" --chaos-sites all || rc=$?
  if [ "$rc" -ne 0 ] && [ "$rc" -ne 3 ]; then
    echo "service chaos lane: seed $seed exited $rc (expected 0 or 3)"
    exit 1
  fi
done
echo "service chaos lane: 8 seeds, all sites, batch exit codes in {0,3}"

if compgen -G "bench_artifacts/*.json" >/dev/null; then
  "$JSON_LINT" bench_artifacts/*.json
  {
    printf '{'
    first=1
    for f in bench_artifacts/*.json; do
      name=$(basename "$f" .json)
      if [ "$first" -eq 1 ]; then first=0; else printf ','; fi
      printf '"%s":' "$name"
      cat "$f"
    done
    printf '}'
  } > bench_output.json
  "$JSON_LINT" bench_output.json
  echo "aggregated $(ls bench_artifacts/*.json | wc -l) reports into bench_output.json"
fi

# Perf-regression gate: perfbench (perfbench/README.md) runs each
# BENCHMARK.json workload once — seed 1, end-to-end metrics only, for
# BENCHMARK.json's run_seconds — and each result is checked against the
# checked-in BENCH_<workload>.json BEFORE the refresh below overwrites it.
# A result file is {"detail": <detail line>, "result": <result line>}.
# perfbench exits 3 on an invalid run (e.g. the service falling behind
# service_mixed's 400 req/s), which fails the script under set -e. The
# schema check (correct result, provenance, every end-to-end metric with
# its unit) always runs; the comparison, with every bound taken from
# BENCHMARK.json, only runs on machines with enough cores for the figures
# to be stable — shared/small CI boxes would flag phantom regressions.
BENCH_COMPARE=build/tools/bench_compare
read -r perf_seconds perf_workloads < <(python3 -c 'import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))')
cores=$(nproc 2>/dev/null || echo 0)
rm -rf perf_artifacts && mkdir -p perf_artifacts
for workload in $perf_workloads; do
  fresh="perf_artifacts/BENCH_${workload}.json"
  out=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
    --seconds "$perf_seconds" --trace 0)
  printf '{"detail": %s, "result": %s}\n' \
    "$(printf '%s\n' "$out" | sed -n 1p)" \
    "$(printf '%s\n' "$out" | sed -n 2p)" > "$fresh"
  "$JSON_LINT" "$fresh"
  "$BENCH_COMPARE" --benchmark BENCHMARK.json --schema "$fresh"
  "$BENCH_COMPARE" --benchmark BENCHMARK.json --schema "BENCH_${workload}.json"
  if [ "$cores" -ge 8 ]; then
    "$BENCH_COMPARE" --benchmark BENCHMARK.json --fresh "$fresh" \
      --baseline "BENCH_${workload}.json"
  fi
done
if [ "$cores" -ge 8 ]; then
  echo "perf gate: every workload within its BENCHMARK.json bounds"
else
  echo "perf gate: comparison skipped ($cores cores < 8; schema-only)"
fi

# The perfbench results are checked-in artifacts: refresh the repo-root
# copies from this run so each BENCH_<workload>.json reflects the tree it
# sits in.
for workload in $perf_workloads; do
  cp "perf_artifacts/BENCH_${workload}.json" "BENCH_${workload}.json"
done
echo "refreshed BENCH_<workload>.json from this run"

# Coverage lane (non-gating): scripts/coverage_surface.sh rebuilds a
# --coverage tree, drives the production surface and rewrites
# data/coverage_surface.txt, the sorted list of src/ functions no
# production path calls. A change in that file is reviewed like any other
# diff; a failure of the survey itself never fails this script.
if scripts/coverage_surface.sh build-coverage; then
  echo "coverage lane: data/coverage_surface.txt refreshed"
else
  echo "coverage lane: survey failed (non-gating)"
fi
