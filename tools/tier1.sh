#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then the thread-sanitized
# determinism/parallel tests (DRAMSTRESS_SANITIZE=thread instruments the
# whole tree, so it needs its own build directory).
#
# Usage: tools/tier1.sh [--skip-tsan]
set -euo pipefail
cd "$(dirname "$0")/.."

skip_tsan=0
[[ "${1:-}" == "--skip-tsan" ]] && skip_tsan=1

echo "=== tier-1: standard build + full ctest ==="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DDRAMSTRESS_WERROR=ON
cmake --build build -j
ctest --test-dir build --output-on-failure -j"$(nproc)"

echo "=== tier-1: static netlist verification gate ==="
# The shipped column and every defect placeholder must lint clean, with
# warnings fatal (docs/LINT.md): a diagnostic here means the netlist
# builder and the defect taxonomy disagree.  This includes the numeric
# pre-flight (E4xx) under the flow's own SimSettings.  The determinism
# linter runs inside the full ctest above (Detlint.Src / Detlint.Corpus);
# Clang thread-safety analysis and clang-tidy run via tools/lint.sh in
# the CI lint job.
./build/tools/dramstress --verify=strict

echo "=== tier-1: adaptive-engine accuracy gate ==="
# The column engine (adaptive LTE stepping) must reproduce the border
# resistance of the fixed-step reference runner (dram::ColumnReference,
# same detection condition) within the tolerance documented in
# docs/ENGINE.md.  Run the gate by name so an accuracy regression is
# called out as such even when someone filters the main suite.
ctest --test-dir build --output-on-failure -R 'AdaptiveAccuracy'

echo "=== tier-1: observability smoke (manifest emission + schema) ==="
# A real (small) sweep must emit a schema-valid manifest, and the binary's
# own validator is the schema oracle (docs/OBSERVABILITY.md).
manifest_dir=$(mktemp -d)
./build/tools/dramstress planes o3 --r-points 5 --threads 4 \
    --metrics "$manifest_dir/tier1.json" --trace "$manifest_dir/tier1.trace.json"
./build/tools/dramstress check-manifest "$manifest_dir/tier1.json"

echo "=== tier-1: DRAMSTRESS_OBS=OFF build compiles and passes ==="
# The kill switch must keep every instrumented call site compiling (inline
# no-op stubs) and the obs tests passing against the empty snapshots.
cmake -B build-obsoff -S . -DCMAKE_BUILD_TYPE=Release -DDRAMSTRESS_WERROR=ON \
      -DDRAMSTRESS_OBS=OFF
cmake --build build-obsoff -j --target obs_test dramstress_cli
ctest --test-dir build-obsoff --output-on-failure -R 'ObsTest'
./build-obsoff/tools/dramstress planes o3 --r-points 3 \
    --metrics "$manifest_dir/off.json"
./build-obsoff/tools/dramstress check-manifest "$manifest_dir/off.json"
rm -rf "$manifest_dir"

if [[ "$skip_tsan" == 1 ]]; then
  echo "=== tier-1: TSan stage skipped ==="
  exit 0
fi

echo "=== tier-1: TSan build + determinism/parallel tests ==="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DDRAMSTRESS_SANITIZE=thread
cmake --build build-tsan -j --target determinism_test util_test
ctest --test-dir build-tsan --output-on-failure -R 'Determinism|Parallel'

echo "=== tier-1: OK ==="
