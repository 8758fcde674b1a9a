#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark into
# .bench_build/ at the checkout root and runs it from there. Every Go
# cache is pointed inside the checkout, so a run reads and writes nothing
# outside it (the benchmark itself builds cmd/aboramd with the same
# environment).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$out/abbench" .)
cd "$root"
exec "$out/abbench" -scratch "$out" "$@"
