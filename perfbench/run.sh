#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ at the root of the
# checkout, then runs it there with the given arguments.
#
#   bash perfbench/run.sh --workload dashboard --seed 1999 --seconds 20 --trace 0
#   bash perfbench/run.sh -compare old.json new.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Everything the Go tool writes stays in the checkout: the build cache,
# its scratch directory, and the telemetry and env files under the user
# config directory.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
  GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$here" && go build -o "$build/bin/perfbench" .)
cd "$root"
exec "$build/bin/perfbench" "$@"
