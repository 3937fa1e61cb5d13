#!/bin/sh
# Per-phase pipeline benchmark runner. Runs the Benchmark{Tokenize,Tidy,
# BuildTree,Parse,Subtree,Separator,ExtractE2E} suite over the
# small/medium/large bench pages and emits BENCH_pipeline.json with ns/op,
# B/op and allocs/op per phase plus the machine fingerprint (nproc, go
# version), so successive changes can diff the performance trajectory.
# B/op and allocs/op are deterministic; ns/op only compares runs taken on
# one machine.
#
#   ./scripts/bench.sh                # run, refresh "current" in the JSON
#   ./scripts/bench.sh -rebaseline    # also overwrite the stored baseline
#
# The baseline lives in scripts/bench_baseline.json (committed); the emitted
# BENCH_pipeline.json carries both baseline and current so the delta is
# visible in one file. BENCH_COUNT (default 3) repetitions are taken and the
# fastest run per benchmark is kept; BENCH_TIME (default 1s) sets -benchtime.
set -eu

cd "$(dirname "$0")/.."

REBASELINE=0
[ "${1:-}" = "-rebaseline" ] && REBASELINE=1

COUNT=${BENCH_COUNT:-3}
BENCHTIME=${BENCH_TIME:-1s}
BASELINE=scripts/bench_baseline.json
OUT=BENCH_pipeline.json
SUITE='Tokenize|Tidy|BuildTree|Parse|Subtree|Separator|ExtractE2E'

raw=$(go test -run '^$' \
    -bench "^Benchmark($SUITE)\$" \
    -benchmem -benchtime "$BENCHTIME" -count "$COUNT" .)

printf '%s\n' "$raw" >&2

# Fold repeated runs to the fastest and print one JSON object body.
current=$(printf '%s\n' "$raw" | awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = bop = aop = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns  = $(i-1)
        if ($i == "B/op")      bop = $(i-1)
        if ($i == "allocs/op") aop = $(i-1)
    }
    if (ns == "") next
    if (!(name in best) || ns + 0 < best[name] + 0) {
        best[name] = ns; bmem[name] = bop; ballocs[name] = aop
        if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
    }
}
END {
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s}%s\n", \
            name, best[name], bmem[name], ballocs[name], (i < n ? "," : "")
    }
}')

if [ "$REBASELINE" = 1 ] || [ ! -f "$BASELINE" ]; then
    {
        echo '{'
        printf '%s\n' "$current"
        echo '}'
    } > "$BASELINE"
    echo "==> baseline written to $BASELINE" >&2
fi

# Baseline object body: strip the outer braces of the stored file.
baseline=$(sed '1d;$d' "$BASELINE")

{
    echo '{'
    echo "  \"suite\": \"go test -bench ^Benchmark($SUITE)\$ -benchmem\","
    echo "  \"machine\": {\"nproc\": $(nproc), \"go\": \"$(go env GOVERSION)\"},"
    echo "  \"benchtime\": \"$BENCHTIME\","
    echo "  \"count\": $COUNT,"
    echo '  "baseline": {'
    printf '%s\n' "$baseline" | sed 's/^    /      /'
    echo '  },'
    echo '  "current": {'
    printf '%s\n' "$current" | sed 's/^    /      /'
    echo '  }'
    echo '}'
} > "$OUT"

echo "==> wrote $OUT" >&2
