#!/usr/bin/env bash
# The parent-vs-change perf gate: bash perf/gate.sh [base, default HEAD^].
# Runs the benchmark on <base> and on this checkout, on this host, and
# compares the two. Allocation counts do not depend on the host, so a WORSE
# on allocs_per_op / alloc_bytes_per_op fails, as does a MISSING workload or
# metric or an incorrect run; timing verdicts are printed beside their
# in-run noise and fail nothing (a slower runner slows both sides).
set -euo pipefail
base="${1:-HEAD^}"
[ -f bench/run.sh ] || { echo "perf/gate.sh: run from the root of a checkout" >&2; exit 2; }
parent=.bench_build/parent
rm -rf "$parent" && mkdir -p "$parent" bench/out
git archive "$base" | tar -x -C "$parent"
# An incorrect run exits 1 and still writes its result; -compare reports it.
(cd "$parent" && bash bench/run.sh -seconds 6) || true
bash bench/run.sh -seconds 6 || true
cp "$parent/bench/out/result.json" bench/out/parent.json
verdicts="$(bash bench/run.sh -compare bench/out/parent.json bench/out/result.json)" || true
echo "$verdicts"
if bad="$(grep -E 'MISSING|incorrect run|no workload is in both| alloc(s|_bytes)_per_op .* WORSE$' <<<"$verdicts")"; then
	printf 'perf gate FAILED against %s:\n%s\n' "$base" "$bad" >&2
	exit 1
fi
echo "perf gate: allocations per op no worse than $base on every workload"
