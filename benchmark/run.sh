#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build writes
# (binary, Go build cache, temporary files) stays in .bench_build at the
# root of the checkout. Arguments go to the benchmark unchanged.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/nrmi-benchmark" .) >&2

# Driver and server child share one CPU (the child inherits the mask). Left
# to the kernel they sometimes share a core and sometimes do not, and a
# call that crosses cores takes up to 1.4 times as long: the placement,
# not the code, would decide the result (README.md, "Noise"). The CPU is
# the last one this shell may run on; without taskset the run is unpinned
# and the report says so.
export NRMI_BENCH_NPROC="$(nproc)"
cpu="$(taskset -cp $$ 2>/dev/null | sed 's/.*[^0-9]//')"
if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
	NRMI_BENCH_PINNED_CPU="$cpu" exec taskset -c "$cpu" "$build/nrmi-benchmark" "$@"
fi
exec "$build/nrmi-benchmark" "$@"
