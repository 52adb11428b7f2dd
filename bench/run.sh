#!/usr/bin/env bash
# Builds bench/ into .bench_build/ inside the checkout and runs it from the
# repository root. The Go build cache, module cache, temporary files and the
# toolchain's own configuration directory are kept there too, so a run reads
# and writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$root/bench"
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
		go build -buildvcs=false -o "$build/qsbench" .
)
cd "$root"
exec "$build/qsbench" "$@"
