#!/bin/sh
# bench.sh — run the benchmark suite and record the results as JSON so the
# performance trajectory is tracked across PRs.
#
# Usage:  scripts/bench.sh [output.json]
#
# The default output name is BENCH_<n>.json in the repo root, where <n> is
# taken from the BENCH_SEQ environment variable (default 9, the next
# baseline after BENCH_8 and the first to carry BenchmarkGrizzlyDataset and
# BenchmarkRDP; BENCH_7 was the first baseline stamped with the core count
# and CPU).
# Benchmarks covered: the whole-figure pipeline benchmarks (Fig. 5, the
# replicated headlines, trace generation vs cache hit), the 1490-node
# Grizzly dataset's skeleton and the build of its simulated week's usage
# traces (a raw series and its RDP reduction per job), the
# end-to-end BenchmarkScenario suite (the preset-scale policies at 100x;
# grizzly-scale, its domains twin, and the same-trace 100k, 100k-unsharded
# (default shard count) and 100k-domains rows, plus 100k-borrow (one job
# in seven outgrows its node), separately at 1x — one iteration is a full
# cluster-scale run), the refresh
# micro-benchmark (incremental and elided modes), the per-domain
# refresh benchmark, the copy-on-write fork suite (snapshot cost, zero-alloc
# read path, first-write materialisation) and the what-if branching headline
# (branched vs nine full runs), and the micro-benchmarks for each indexed
# structure (lender ranking, sharded ascend, dynamic placement, engine
# schedule/cancel, trace cursor).
#
# The JSON header records the machine: nproc, GOMAXPROCS (the value the
# benchmarks ran with; unset means nproc) and the CPU model, so a recorded
# number can be read against the core count it was measured on.
set -eu

cd "$(dirname "$0")/.."

out="${1:-BENCH_${BENCH_SEQ:-9}.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

run() {
    # $1 = package, $2 = benchmark regexp, $3 = benchtime, $4 = count
    # (optional, default 1). Multiple counts produce repeated lines; the awk
    # below records the MEDIAN per benchmark, the same statistic benchcheck
    # gates on — a single cold-start shot on a fast benchmark once recorded
    # a 30% phantom delta on BenchmarkScenario/baseline.
    go test -run '^$' -bench "$2" -benchmem -benchtime "$3" -count "${4:-1}" "$1" \
        | grep -E '^Benchmark' >>"$tmp" || true
}

run .                    'BenchmarkFig5$'               5x
run .                    'BenchmarkHeadlines$'          3x
run .                    'BenchmarkTraceGeneration$'    1s 3
run .                    'BenchmarkTraceCacheHit$'      1s 3
run .                    'BenchmarkGrizzlyDataset$'     1x 3
run .                    'BenchmarkGrizzlyWeekBuild$'   1x 3
run .                    'BenchmarkScenario$/^(baseline|static|dynamic)$' 100x 5
# The cluster-scale scenarios record the median of three single-iteration
# runs: one shot of a multi-second benchmark tracks recorder load as much
# as the code, and the cross-PR trajectory check diffs these recorded
# numbers directly.
run .                    'BenchmarkScenario$/^grizzly-scale$' 1x 3
run .                    'BenchmarkScenario$/^grizzly-scale-domains$' 1x 3
run .                    'BenchmarkScenario$/^100k$'    1x 3
run .                    'BenchmarkScenario$/^100k-unsharded$' 1x 3
run .                    'BenchmarkScenario$/^100k-domains$' 1x 3
run .                    'BenchmarkScenario$/^100k-borrow$' 1x 3
run .                    'BenchmarkWhatIf$'             1x 3
run ./internal/core      'BenchmarkRefresh$'            1s 3
run ./internal/core      'BenchmarkRefreshDomains'      1s 3
run ./internal/cluster   'BenchmarkFork$'               1s 3
run ./internal/cluster   'BenchmarkLenderRank'          1s 3
run ./internal/cluster   'BenchmarkShardedAscend'       1s 3
run ./internal/policy    'BenchmarkPlaceDynamic'        1s 3
run ./internal/sim       'BenchmarkEngineScheduleCancel' 1s 3
run ./internal/memtrace  'BenchmarkTraceAtSequential'   1s 3
run ./internal/memtrace  'BenchmarkRDP$'                1s 3

# The commit stamp is the checked-out commit, suffixed -dirty when tracked
# files differ from it: a recording of uncommitted changes names the commit
# they sit on, not a commit that contains them.
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
git diff --quiet HEAD -- 2>/dev/null || commit="$commit-dirty"

awk -v commit="$commit" \
    -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v goversion="$(go version | awk '{print $3}')" \
    -v nproc="$(nproc 2>/dev/null || echo 0)" \
    -v gomaxprocs="${GOMAXPROCS:-$(nproc 2>/dev/null || echo 0)}" \
    -v cpumodel="$(sed -n 's/^model name[[:space:]]*:[[:space:]]*//p' /proc/cpuinfo 2>/dev/null | head -n 1 | tr -d '"\\')" '
# %.15g: exact for every integer ns/B/alloc count we record (< 2^50) without
# the float64 round-trip artifacts %.17g prints (253.30000000000001).
BEGIN { CONVFMT = "%.15g"; OFMT = "%.15g" }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip -GOMAXPROCS suffix
    if (!(name in count)) order[++names] = name
    r = ++count[name]
    iters[name] = $2
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op") ns[name, r] = $i
        if ($(i+1) == "B/op") bytes[name, r] = $i
        if ($(i+1) == "allocs/op") allocs[name, r] = $i
    }
}
# median of the recorded samples for one benchmark (mean of the two middles
# for even n, matching cmd/benchcheck); "null" when the metric never appeared.
function median(arr, name, cnt,    m, i, k, t, tmp) {
    m = 0
    for (i = 1; i <= cnt; i++) if ((name, i) in arr) tmp[++m] = arr[name, i] + 0
    if (m == 0) return "null"
    for (i = 2; i <= m; i++) {
        t = tmp[i]
        for (k = i - 1; k >= 1 && tmp[k] > t; k--) tmp[k+1] = tmp[k]
        tmp[k+1] = t
    }
    if (m % 2 == 1) return tmp[(m+1)/2]
    return (tmp[m/2] + tmp[m/2+1]) / 2
}
END {
    printf "{\n  \"commit\": \"%s\",\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n", commit, date, goversion
    printf "  \"nproc\": %d,\n  \"gomaxprocs\": %d,\n  \"cpu\": \"%s\",\n", nproc, gomaxprocs, cpumodel
    printf "  \"benchmarks\": [\n"
    for (j = 1; j <= names; j++) {
        name = order[j]
        printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
            name, iters[name], median(ns, name, count[name]), \
            median(bytes, name, count[name]), median(allocs, name, count[name]), \
            (j < names ? "," : "")
    }
    printf "  ]\n}\n"
}
' "$tmp" >"$out"

echo "wrote $out:"
cat "$out"
