#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is
# run from, then runs it. Run from the repository root:
#
#   bash e2ebench/run.sh --workload offline-b64 --seed 1 --seconds 12 --trace 0
#
# Build products, the Go build cache and span dumps all go under
# .bench_build/ in the current directory (or $CARGO_TARGET_DIR when set),
# so the run reads and writes nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export CGO_ENABLED=0

(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -out "$out/e2ebench-spans" "$@"
