#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ inside the checkout
# and runs it. The Go build cache is kept there too, so a run reads and
# writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
