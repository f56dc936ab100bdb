#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the
# repository root; every argument is passed on, e.g.
#   bash perfbench/run.sh --workload leafspine_dcqcn --seed 1 --seconds 28 --trace 0
# Build outputs, the Go caches, temporary files and run files stay under
# .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "${out}/gotmp"
export GOCACHE="${out}/gocache" GOMODCACHE="${out}/gomodcache" GOTMPDIR="${out}/gotmp" GOTOOLCHAIN=local
(cd perfbench && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" -dir "${out}/perfbench-run" "$@"
