#!/usr/bin/env bash
# Builds shelfbench against the repository it sits in (a release build,
# never -race) and runs it with the given arguments. Run it from the
# repository root:
#
#   bash shelfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binary, stores, traces) goes under
# .shelfbench/ in the current directory.
set -euo pipefail
work="$PWD/.shelfbench"
mkdir -p "$work"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOMODCACHE="$work/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off CGO_ENABLED=0
(cd shelfbench && go build -trimpath -o "$work/shelfbench" .)
exec "$work/shelfbench" --work "$work" "$@"
