#!/usr/bin/env bash
# Launcher for the data-plane benchmark. Run from the repository root:
#
#	bash bench/run.sh --workload chain_stateless --seed 7 --seconds 20 --trace 0
#
# It builds the benchmark (its own module under bench/, importing the
# repository's internal packages through a replace directive) into
# .bench_build/ and runs it. Every file the toolchain writes — build cache,
# temp dirs, telemetry — is kept inside .bench_build/ so the benchmark
# reads and writes only inside its checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp" "$out/gocache" "$out/gopath"
(
	cd "$root/bench"
	export HOME="$out/home" XDG_CACHE_HOME="$out/home/.cache" XDG_CONFIG_HOME="$out/home/.config"
	export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" GOCACHE="$out/gocache" GOPATH="$out/gopath"
	export GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0
	go build -o "$out/borealis-bench" . >&2
)
cd "$root"
export TMPDIR="$out/tmp"
exec "$out/borealis-bench" "$@"
