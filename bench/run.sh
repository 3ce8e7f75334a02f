#!/usr/bin/env bash
# Builds droplet-bench and droplet-serve from the checkout this script sits
# in, then runs droplet-bench with the given arguments. Run it from the
# repository root:
#
#   bash bench/run.sh --workload pr-kron-droplet --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache and Go's temp files stay under
# .bench_build/ in the repository root, so nothing is written elsewhere.
# Go telemetry is switched off in that private config dir: left on, every go
# command may fork a detached upload child that outlives this script.
set -euo pipefail

root=$(pwd)
for mod in go.mod bench/go.mod; do
	if [[ ! -f "$root/$mod" ]]; then
		echo "run.sh: run from the repository root ($mod not found)" >&2
		exit 2
	fi
done
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

# Build output goes to stderr: the last stdout line is the result.
go build -o "$out/bin/droplet-serve" ./cmd/droplet-serve >&2
(cd "$root/bench" && go build -o "$out/bin/droplet-bench" ./cmd/droplet-bench) >&2

exec "$out/bin/droplet-bench" -serve-bin "$out/bin/droplet-serve" "$@"
