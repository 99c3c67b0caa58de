#!/bin/sh
# Regenerates data/golden_selection.tsv — the checked-in table of what the
# generator selects for every TCCG entry x {P100, V100} x {fp64, fp32} at
# the paper's extents (config, fallback rung, modeled transactions, FNV-1a
# digest of the emitted kernel source, strict lint verdict).
# test_golden_selection diffs a fresh run against it. Run it with build/
# configured, after a change that is *meant* to alter a selection, and
# say in that change why each row in `git diff data/golden_selection.tsv`
# moved.
set -eu

cd "$(dirname "$0")/.."
cmake --build build --target golden_selection
build/tools/golden_selection > data/golden_selection.tsv.tmp
mv data/golden_selection.tsv.tmp data/golden_selection.tsv
echo "regen_golden_selection: wrote data/golden_selection.tsv ($(grep -vc '^#' data/golden_selection.tsv) rows)"
