#!/usr/bin/env bash
# Builds the qsmt benchmark from the source tree it sits in and runs it.
# Usage, from the repository root:
#   bash qsmtbench/run.sh --workload solve_mix --seed 1 --seconds 10 --trace 0
# Every build artefact and trace file stays under .qsmtbench/ in the
# current directory. A failed build exits non-zero without a result line.
set -euo pipefail
root=$(pwd)
out="$root/.qsmtbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go -C "$root/qsmtbench" build -o "$out/qsmtbench" . >&2
exec "$out/qsmtbench" "$@"
