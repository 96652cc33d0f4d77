#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it, from the
# root of the checkout, with the arguments given (the driver's
# --workload/--seed/--seconds/--trace). Everything the Go toolchain and the
# benchmark write (build cache, temporary files, the binary, the serving
# workloads' journals) goes under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home" "$build/journals"
(
	cd "$here"
	export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
	export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
	export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
	go build -o "$build/gae-bench" .
)
cd "$root"
# The journals must stay inside the checkout, and their fsync per group
# commit must not wait for a shared disk (on the disk it was three quarters
# of a write's latency and swung by a half between runs). So a tmpfs is
# mounted over the journal directory in a mount namespace of this process's
# own, which vanishes with it. Where the kernel refuses, the journals go to
# the disk: serve-write then measures the disk, says so (journal_fs: disk,
# durable.journal_tmpfs 0) and is not comparable with a tmpfs run.
if unshare -m true 2>/dev/null; then
	exec unshare -m sh -c 'mount -t tmpfs -o size=1g tmpfs .bench_build/journals 2>/dev/null; exec "$@"' sh "$build/gae-bench" "$@"
fi
exec "$build/gae-bench" "$@"
