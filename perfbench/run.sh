#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Every build output, the Go build cache
# and the cached europe-m snapshot stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
work=${CARGO_TARGET_DIR:-.bench_build}
case $work in
/*) ;;
*) work=$root/$work ;;
esac
mkdir -p "$work/tmp" "$work/gocache" "$work/gopath"

export GOCACHE=$work/gocache GOPATH=$work/gopath GOMODCACHE=$work/gopath/pkg/mod
export TMPDIR=$work/tmp GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C "$root/perfbench" build -o "$work/phastbench" . >&2
exec "$work/phastbench" --root "$root" --work "$work" "$@"
