#!/usr/bin/env bash
# Coverage survey of the production surface: which src/ functions does no
# user-facing path ever call?
#
#   scripts/coverage_surface.sh [BUILD_DIR]    (default: build-coverage)
#
# Builds a separate tree with --coverage at -O0, with perfbench added
# through its own CMAKE_PROJECT_INCLUDE hook, then drives the surface:
# the cogent_cli flows of the verify recipe, the six demo examples,
# tools/golden_selection, and perfbench on every BENCHMARK.json workload
# with --trace 0 and 1. Unit tests and ablation benches are deliberately
# not run: a function only they reach is a deletion candidate.
#
# Writes data/coverage_surface.txt: one "path: function" line per src/
# function with zero calls, sorted and without line numbers, so the file
# is a trajectory that only moves when the surface does. ROADMAP.md item 5
# says why each remaining group stays. Exit codes of the driven runs are
# logged, not judged (several flows are expected to fail); this script
# fails only when the build or the gcov pass fails.
set -euo pipefail
ROOT=$(cd "$(dirname "$0")/.." && pwd)
B=${1:-$ROOT/build-coverage}
mkdir -p "$B" && B=$(cd "$B" && pwd)
OUT=$ROOT/data/coverage_surface.txt
EXAMPLES="quickstart ccsd_triples ml_contractions autotune_compare \
multi_size_kernels triples_pipeline"

cmake -S "$ROOT" -B "$B" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O0" \
  -DCMAKE_PROJECT_INCLUDE="$ROOT/perfbench/cmake/AddPerfbench.cmake" \
  > /dev/null
# shellcheck disable=SC2086
cmake --build "$B" -j "$(nproc 2>/dev/null || echo 2)" --target cogent_cli \
  json_lint golden_selection perfbench $EXAMPLES > /dev/null
find "$B" -name '*.gcda' -delete

RUN=$B/coverage_run
rm -rf "$RUN" && mkdir -p "$RUN"
LOG=$RUN/exit_codes.txt
: > "$LOG"
run() {
  local rc=0
  (cd "$RUN" && "$@") > /dev/null 2>&1 || rc=$?
  echo "$rc $*" >> "$LOG"
}

CLI=$B/examples/cogent_cli
run "$CLI" abcd-aebf-dfce 48
run "$CLI" aab-ab-b 16
run "$CLI" abcd-aebf-dfce 3000000
run "$CLI" abcd-aebf-dfce 48 --max-configs 3
run "$CLI" abcd-aebf-dfce 48 --deadline-ms 1e-6
run "$CLI" abcd-aebf-dfce 48 --max-source-bytes 1 --topk 4
run "$CLI" abcd-aebf-dfce 48 --deadline-ms 1e-6 --explain
run "$CLI" --trace=t.json --metrics=m.json ab-ac-cb 512 --quiet
run "$B/tools/json_lint" t.json m.json
run "$CLI" ab-ac-cb 512 --metrics=/nonexistent/m.json
run "$CLI" abcd-aebf-dfce 24 --explain-dataflow
run "$CLI" abcd-aebf-dfce 24 --explain-races
run "$CLI" abcd-aebf-dfce 24 --double-buffer --explain-races --explain-lint
run "$CLI" abcd-aebf-dfce 24 --opencl
run "$CLI" abcdef-gdab-efgc 16 --device p100 --fp32
run "$CLI" abc-abd-dc 24 --chaos-seed 7 --chaos-sites all
run "$CLI" ab-ac-cb 24 --lint=warn
printf 'ab-ac-cb 24\nabc-abd-dc 12\nab-ac-cb 24\n' > "$RUN/batch.txt"
printf 'ab-ac-cb 24\nbogus!! 24\n' > "$RUN/mixed.txt"
printf 'ab-ac-cb 24 garbage\n' > "$RUN/trail.txt"
run "$CLI" --batch-file batch.txt --jobs 4
run "$CLI" --batch-file mixed.txt
run "$CLI" --batch-file /no/such/file
run "$CLI" --batch-file batch.txt --jobs -1
run "$CLI" --batch-file batch.txt --jobs 0
run "$CLI" --batch-file batch.txt --request-deadline-ms 0.01 --quiet
run "$CLI" --batch-file batch.txt --chaos-seed 3 --chaos-sites all
run "$CLI" --batch-file trail.txt
run "$CLI" --batch-file batch.txt --jobs 4 --quiet --telemetry-json tm.json \
  --stats-interval-ms 200
run "$B/tools/json_lint" tm.json
run "$CLI" ab-ac-cb 24 --telemetry-json tm.json
run "$CLI" --batch-file batch.txt --stats-interval-ms -5
run "$CLI" --batch-file batch.txt --trace=bt.json

for example in $EXAMPLES; do
  run "$B/examples/$example"
done
run "$B/tools/golden_selection"

WORKLOADS=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "$ROOT/BENCHMARK.json")
for workload in $WORKLOADS; do
  for trace in 0 1; do
    run "$B/perfbench" --workload "$workload" --seed 1 --seconds 3 \
      --trace "$trace"
  done
done

# One gcov JSON report per object file, the CLI, tools and perfbench
# included (their objects carry the calls to inline src/ functions); a
# .gcno without a .gcda (an object no binary run above executed) reports
# every function at zero calls.
GCOV=$RUN/gcov
rm -rf "$GCOV" && mkdir -p "$GCOV"
find "$B" -name '*.gcno' | while read -r gcno; do
  (cd "$GCOV" && gcov --json-format --stdout \
    --object-directory "$(dirname "$gcno")" "$gcno" 2> /dev/null) \
    > "$GCOV/$(echo "${gcno#"$B"/}" | tr / _).json"
done

# A function defined in a header is instrumented in every object that
# emits it; sum its calls across objects before calling it unreached.
python3 - "$ROOT" "$GCOV" "$OUT" <<'EOF'
import json, os, sys
root, gcov_dir, out = sys.argv[1:]
calls = {}
for name in os.listdir(gcov_dir):
    for line in open(os.path.join(gcov_dir, name)):
        if not line.strip():
            continue
        for f in json.loads(line).get("files", []):
            path = os.path.relpath(os.path.realpath(
                os.path.join(root, f["file"])), root)
            if not path.startswith("src/"):
                continue
            for fn in f.get("functions", []):
                key = (path, fn.get("demangled_name", fn["name"]))
                calls[key] = calls.get(key, 0) + fn["execution_count"]
unreached = sorted("%s: %s" % key for key, n in calls.items() if n == 0)
with open(out, "w") as o:
    o.write("# src/ functions no production path calls "
            "(scripts/coverage_surface.sh)\n")
    o.writelines(line + "\n" for line in unreached)
print("coverage_surface: %d of %d src/ functions unreached -> %s"
      % (len(unreached), len(calls), os.path.relpath(out, root)))
EOF
