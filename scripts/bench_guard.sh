#!/usr/bin/env sh
# bench_guard.sh — fail when BenchmarkEnactOverhead regresses against the
# committed baseline, or when the planner's fitness simulator or a whole GP
# run allocates more than its ceiling.
#
# The committed BENCH_<date>[suffix].json artifacts are `go test -json`
# event streams of benchmark runs. This guard extracts the
# BenchmarkEnactOverhead bare and instrumented ns/op samples from the
# newest one, re-runs the benchmark COUNT times, and compares the
# *overhead ratio* — best instrumented sample over best bare sample,
# taken within the same run so ambient machine load cancels out. Absolute
# ns/op is meaningless across machines (the committed baseline and a CI
# runner differ) and even across hours on one box; the ratio is what the
# benchmark exists to bound. A fresh ratio more than THRESHOLD_PCT above
# the baseline's fails the build. The minimum is used on each side because
# scheduler contention only ever inflates a sample. When benchstat is on
# PATH its comparison table is printed for the log; the pass/fail decision
# itself is plain awk, so the guard works without benchstat too.
#
# The other gates are absolute allocation ceilings, which do not depend on
# machine speed or load, so they hold on any runner with the Go line go.mod
# names:
#   - BenchmarkEvaluatePerfectPlan (one fitness evaluation of the Table-1
#     plan with the fitness cache and state memo cleared, so it binds for
#     real) at or under 8 allocs/op, its count when the binding core landed;
#   - BenchmarkGPRunSerial (one Table-1 GP run, seed 1, one evaluation
#     worker) at or under 71600 allocs/op: 71541 landed with go1.24.0, and
#     the map-growth rounding of the per-op average moves it by one or two.
#     Map growth allocates differently across Go's map implementations, so
#     this ceiling belongs to the Go 1.24 line that go.mod names. Cloning every
#     selected tree, listing nodes per mutation or allocating per memo state
#     each add thousands.
#
# Usage: scripts/bench_guard.sh [baseline.json]
#   COUNT=6 THRESHOLD_PCT=5 scripts/bench_guard.sh
set -eu

BENCH='BenchmarkEnactOverhead'
VARIANT='BenchmarkEnactOverhead/instrumented'
BASE_VARIANT='BenchmarkEnactOverhead/bare'
COUNT="${COUNT:-6}"
THRESHOLD_PCT="${THRESHOLD_PCT:-5}"

cd "$(dirname "$0")/.."

baseline="${1:-}"
if [ -z "$baseline" ]; then
    # Newest committed baseline by name (date-ordered: BENCH_YYYYMMDD[a-z].json).
    baseline=$(ls BENCH_*.json 2>/dev/null | sort | tail -1 || true)
fi
if [ -z "$baseline" ] || [ ! -f "$baseline" ]; then
    echo "bench_guard: no BENCH_*.json baseline found" >&2
    exit 1
fi
echo "bench_guard: baseline $baseline, count $COUNT, threshold ${THRESHOLD_PCT}%"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Baseline samples: unwrap the JSON event stream back into benchmark text
# lines ("BenchmarkX/variant  N  12345 ns/op  ..."). One logical line may be
# split across several Output events (the name and the values often arrive
# separately), so concatenate every payload first and only then split on the
# escaped newlines.
grep -o '"Output":"[^"]*"' "$baseline" |
    sed -e 's/^"Output":"//' -e 's/"$//' |
    tr -d '\n' |
    sed -e 's/\\n/\n/g' -e 's/\\t/\t/g' |
    grep "^$BENCH.*ns/op" > "$tmp/old.txt" || true
if ! grep -q "^$VARIANT" "$tmp/old.txt"; then
    echo "bench_guard: $VARIANT not present in $baseline" >&2
    exit 1
fi

echo "bench_guard: running $BENCH x$COUNT ..."
# A failed iteration (the suite has one known flaky enactment precondition)
# only loses that sample; the guard judges the median of the samples that
# did complete and errors only when none did.
go test -run '^$' -bench "^$BENCH\$" -count "$COUNT" . > "$tmp/new.txt" ||
    echo "bench_guard: note — a benchmark iteration failed; judging the remaining samples" >&2
grep "^$BENCH" "$tmp/new.txt" || true
grep -q "^$VARIANT.*ns/op" "$tmp/new.txt" || { echo "bench_guard: benchmark produced no samples" >&2; exit 1; }

if command -v benchstat >/dev/null 2>&1; then
    benchstat "$tmp/old.txt" "$tmp/new.txt" || true
fi

# Best (minimum) ns/op for one variant in one file, then the ratio verdict.
# The variant name may carry a -GOMAXPROCS suffix, hence the [ -] match.
best() {
    grep "^$2[ -]" "$1" | awk '{ for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") print $i }' |
        sort -n | head -1
}
old_instr=$(best "$tmp/old.txt" "$VARIANT")
old_bare=$(best "$tmp/old.txt" "$BASE_VARIANT")
new_instr=$(best "$tmp/new.txt" "$VARIANT")
new_bare=$(best "$tmp/new.txt" "$BASE_VARIANT")
for v in "$old_instr" "$old_bare" "$new_instr" "$new_bare"; do
    [ -n "$v" ] || { echo "bench_guard: missing ns/op samples to compare" >&2; exit 1; }
done
awk -v oi="$old_instr" -v ob="$old_bare" -v ni="$new_instr" -v nb="$new_bare" \
    -v pct="$THRESHOLD_PCT" 'BEGIN {
    old = oi / ob; new = ni / nb
    delta = (new - old) / old * 100
    printf "bench_guard: overhead ratio %.3f (%.0f/%.0f ns/op) -> %.3f (%.0f/%.0f ns/op): %+.1f%%, budget +%s%%\n",
        old, oi, ob, new, ni, nb, delta, pct
    exit (delta > pct + 0) ? 1 : 0
}' || { echo "bench_guard: FAIL — instrumented overhead grew beyond ${THRESHOLD_PCT}%" >&2; exit 1; }
# allocs_gate BENCH CEILING: run BENCH once in ./internal/planner and fail
# when its allocs/op exceed CEILING.
allocs_gate() {
    echo "bench_guard: running $1 (ceiling $2 allocs/op) ..."
    go test -run '^$' -bench "^$1\$" -benchmem -count 1 ./internal/planner > "$tmp/allocs.txt"
    grep "^$1" "$tmp/allocs.txt" || true
    allocs=$(grep "^$1[ -]" "$tmp/allocs.txt" |
        awk '{ for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") print $i }' | head -1)
    [ -n "$allocs" ] || { echo "bench_guard: $1 produced no allocs/op" >&2; exit 1; }
    if [ "$allocs" -gt "$2" ]; then
        echo "bench_guard: FAIL — $1 allocates $allocs/op, ceiling $2" >&2
        exit 1
    fi
    echo "bench_guard: $1 $allocs allocs/op <= $2"
}
allocs_gate BenchmarkEvaluatePerfectPlan 8
allocs_gate BenchmarkGPRunSerial 71600
echo "bench_guard: OK"
