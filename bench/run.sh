#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the repository
# root: bash bench/run.sh [flags]. Everything the build leaves behind goes to
# .bench_build/ at the root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-modcacherw
(cd "$here" && go build -o "$build/xqd-bench" .)
cd "$root"
exec "$build/xqd-bench" "$@"
