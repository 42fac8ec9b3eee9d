#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash campaignbench/run.sh --workload fresh-large --seed 1 --seconds 12 --trace 0
#
# Every build artefact, Go cache and run state stays under .bench_build/
# in the current directory.
set -euo pipefail

root="$(pwd)"
state="$root/.bench_build/campaignbench"
mkdir -p "$state"

export GOTOOLCHAIN=local GOFLAGS=-mod=mod
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOMODCACHE="$GOPATH/pkg/mod"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export HOME="$root/.bench_build/home"

(cd "$root/campaignbench" && go build -o "$state/campaignbench" .)
exec "$state/campaignbench" "$@"
