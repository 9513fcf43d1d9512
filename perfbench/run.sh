#!/usr/bin/env bash
# Builds the benchmark, the corrod daemon and the traced daemon from the
# source tree this script sits in, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload serve-longlived --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build and run artefact (Go build
# cache included) stays under .bench_build/ in that root. Build output goes
# to standard error, so the last line of standard output is the result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
state="$root/.bench_build"
mkdir -p "$state/bin"

export GOCACHE="$state/gocache"
export GOPATH="$state/gopath"
export GOMODCACHE="$state/gopath/pkg/mod"
export XDG_CONFIG_HOME="$state/config"
export GOTOOLCHAIN=local
# -trimpath keeps checkout paths out of the binaries, so the build hash in
# each run record depends on the source alone.
export GOFLAGS="-buildvcs=false -trimpath"

(
	cd "$root/perfbench"
	go build -o "$state/bin/perfbench" .
	go build -o "$state/bin/corrod" corroborate/cmd/corrod
	go build -o "$state/bin/tracedcorrod" ./tracedcorrod
) >&2

exec "$state/bin/perfbench" --bin "$state/bin" --state "$state" "$@"
