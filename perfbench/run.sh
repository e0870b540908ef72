#!/usr/bin/env bash
# Builds the nl2cmd daemon and the benchmark program from the working tree,
# then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, Go's
# configuration and telemetry directory, daemon logs and span dumps all go
# to .bench_build/ inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/nl2cmd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the nl2cm repository root (go.mod, cmd/nl2cmd and perfbench/ must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/nl2cmd" ./cmd/nl2cmd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

exec "$out/perfbench" -daemon "$out/nl2cmd" -out "$out" "$@"
