#!/usr/bin/env bash
# Builds the benchmark and the dprofd binary it drives from the source tree
# this script sits in, then runs the benchmark with the arguments given:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build product, the Go build cache and the benchmark's scratch files
# stay under .bench_build in the tree, so the benchmark writes nothing
# outside it. Build output goes to stderr; only the benchmark writes stdout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$root/$out/gocache" GOPATH="$root/$out/gopath"
export GOTMPDIR="$root/$out/tmp" TMPDIR="$root/$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -o "$out/dprofd" ./cmd/dprofd >&2
(cd perfbench && go build -o "../$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" -dprofd "$out/dprofd" -scratch "$out/run" "$@"
