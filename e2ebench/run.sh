#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the
# given flags. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload mc-scenarios --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind (the Go build cache, the
# go command's own state, the benchmark binary, span files and the fleet
# workload's state) stays under .bench_build/ in the current directory.
set -euo pipefail
bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
(
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
	export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
	export GOWORK=off GOTOOLCHAIN=local GOFLAGS=
	cd "$bench_dir" && go build -o "$out/e2ebench" .
)
exec "$out/e2ebench" --dir "$out" "$@"
