#!/usr/bin/env bash
# bench.sh — run the campaign-engine benchmarks and emit BENCH_campaigns.json,
# so the perf trajectory (wall clock, bytes and allocations per op) is
# tracked across PRs.
#
#   scripts/bench.sh [output.json]
#   scripts/bench.sh --check [baseline.json]
#   scripts/bench.sh --compare baseline.json fresh.json
#
# With --check, the fresh run is compared against the committed baseline
# (default BENCH_campaigns.json) instead of overwriting it: any benchmark
# whose ns/op regressed by more than BENCH_TOLERANCE percent (default 25)
# or whose allocs/op regressed by more than BENCH_ALLOC_TOLERANCE percent
# (default 10 — allocation counts are deterministic, so the gate is much
# tighter than the timing one) fails the script with a per-benchmark
# report. Only benchmarks present in BOTH sweeps are gated: a benchmark
# missing from either side is reported (NEW / GONE) but never fails the
# check, so adding or retiring a benchmark does not break CI. A baseline
# of 0 allocs/op is a hard pin — any allocation at all fails it (a
# percentage gate is meaningless against zero). A baseline row that
# records its own "benchtime" (a median taken at, say, 2000x) is timed
# at that benchtime in a separate `go test` run, because one timed
# iteration also pays first-call warm-up the recorded median does not;
# the key applies to the row's whole top-level benchmark. Every other
# benchmark runs at BENCH_TIME.
#
# Without --check, the sweep refreshes the output file (default
# BENCH_campaigns.json) with the same per-row grouping, read from that
# file, or from BENCH_campaigns.json while the output does not exist
# yet: a row recorded with a "benchtime" is re-timed at it and keeps
# the key, and a row that also records "count" and "stat" is re-taken
# with -count=<count> and written as the per-column median of those
# runs, keys kept.
#
# With --compare, no benchmarks run: the two named JSON files are
# compared with exactly the --check rules. This is the hook the
# regression test drives the comparator through.
#
# Environment:
#   BENCH_PATTERN          benchmarks to run (default: the campaign +
#                          columnar-kernel + BFS + fact-lake set)
#   BENCH_TIME             -benchtime value (default: 1x — one timed
#                          iteration per benchmark keeps the sweep fast;
#                          raise for stable numbers, e.g. BENCH_TIME=3x);
#                          under --check, baseline rows with their own
#                          "benchtime" keep it
#   BENCH_TOLERANCE        --check ns/op regression threshold in percent
#                          (default 25)
#   BENCH_ALLOC_TOLERANCE  --check allocs/op regression threshold in
#                          percent (default 10)
set -euo pipefail

cd "$(dirname "$0")/.."

tolerance="${BENCH_TOLERANCE:-25}"
alloc_tolerance="${BENCH_ALLOC_TOLERANCE:-10}"

# compare BASELINE FRESH — the --check/--compare comparator. Files are
# told apart by name, not input order, so an empty (or header-only)
# baseline cannot shift the fresh run into the baseline's role.
compare() {
    local baseline="$1" fresh="$2"
    awk -v tol="$tolerance" -v atol="$alloc_tolerance" -v basefile="$baseline" '
    function extract(line, key,   rest) {
        if (index(line, "\"" key "\":") == 0) return ""
        rest = substr(line, index(line, "\"" key "\":") + length(key) + 3)
        gsub(/^[ ]*/, "", rest)
        sub(/[,}].*$/, "", rest)
        gsub(/"/, "", rest)
        return rest
    }
    /"name"/ {
        name = extract($0, "name")
        if (FILENAME == basefile) {
            base_ns[name]     = extract($0, "ns_per_op")
            base_allocs[name] = extract($0, "allocs_per_op")
            in_base[name] = 1
        } else {
            cur_ns[name]     = extract($0, "ns_per_op")
            cur_allocs[name] = extract($0, "allocs_per_op")
            in_cur[name] = 1
        }
    }
    END {
        failed = 0
        gated = 0
        for (name in in_cur) {
            if (!(name in in_base)) {
                printf "  NEW   %s (no baseline, skipped)\n", name
                continue
            }
            gated++
            verdict = "ok"
            detail = ""
            if (base_ns[name] + 0 > 0) {
                pct = (cur_ns[name] - base_ns[name]) * 100.0 / base_ns[name]
                detail = sprintf("ns/op %s -> %s (%+.1f%%)", base_ns[name], cur_ns[name], pct)
                if (pct > tol) verdict = "FAIL"
            }
            if (base_allocs[name] != "" && cur_allocs[name] != "") {
                if (base_allocs[name] + 0 == 0) {
                    # A zero-alloc baseline is a pin, not a percentage:
                    # the first allocation is a regression the ratio
                    # gate cannot see.
                    detail = detail sprintf(", allocs/op %s -> %s", base_allocs[name], cur_allocs[name])
                    if (cur_allocs[name] + 0 > 0) verdict = "FAIL"
                } else {
                    apct = (cur_allocs[name] - base_allocs[name]) * 100.0 / base_allocs[name]
                    detail = detail sprintf(", allocs/op %s -> %s (%+.1f%%)", base_allocs[name], cur_allocs[name], apct)
                    if (apct > atol) verdict = "FAIL"
                }
            }
            printf "  %-5s %s: %s\n", verdict, name, detail
            if (verdict == "FAIL") failed++
        }
        for (name in in_base) {
            if (!(name in in_cur)) printf "  GONE  %s (in baseline, not in this run)\n", name
        }
        if (failed > 0) {
            printf "bench.sh: %d of %d gated benchmark(s) regressed beyond ns %s%% / allocs %s%%\n", failed, gated, tol, atol
            exit 1
        }
        printf "bench.sh: %d gated benchmark(s), no regression beyond ns %s%% / allocs %s%%\n", gated, tol, atol
    }' "$baseline" "$fresh"
}

mode=run
if [[ "${1:-}" == "--check" ]]; then
    mode=check
    shift
elif [[ "${1:-}" == "--compare" ]]; then
    mode=compare
    shift
fi

if [[ "$mode" == compare ]]; then
    if [[ $# -ne 2 ]]; then
        echo "bench.sh --compare: want exactly two JSON files" >&2
        exit 2
    fi
    for f in "$1" "$2"; do
        if [[ ! -f "$f" ]]; then
            echo "bench.sh --compare: $f not found" >&2
            exit 2
        fi
    done
    compare "$1" "$2"
    exit $?
fi

pattern="${BENCH_PATTERN:-TraceCampaignFull|ChaosCampaignFull|TraceCampaignWarm|ChaosCampaignWarm|TraceCampaignMonth|ChaosCampaignMonth|ValleyFreeTree|WorldBuild|ScenarioOverlayDense|ScenarioDenseRebuild|SweepResume|SweepWindowedReplay|DNSQuery|FactBuild|ColdStart|QueryWindow}"
benchtime="${BENCH_TIME:-1x}"

if [[ "$mode" == check ]]; then
    baseline="${1:-BENCH_campaigns.json}"
    if [[ ! -f "$baseline" ]]; then
        echo "bench.sh --check: baseline $baseline not found" >&2
        exit 2
    fi
    out="$(mktemp)"
else
    out="${1:-BENCH_campaigns.json}"
fi

raw="$(mktemp)"
keys="$(mktemp)"
trap 'rm -f "$raw" "$keys"' EXIT

# bench PATTERN BENCHTIME COUNT — one `go test -bench` run, appended to
# $raw.
bench() {
    go test -run='^$' -bench="$1" -benchmem -benchtime="$2" -count="$3" . | tee -a "$raw"
}

# recorded FILE — one "benchmark benchtime count" line per row of FILE
# that records its own benchtime. The benchmark is the row's top-level
# one, because the key applies to all of its sub-benchmarks; count is
# the row's "count", or 1 when it records none.
recorded() {
    awk '/"name"/ && /"benchtime"/ {
        name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name); sub(/\/.*/, "", name)
        bt = $0; sub(/.*"benchtime": *"/, "", bt); sub(/".*/, "", bt)
        count = 1
        if (index($0, "\"count\":") > 0) {
            count = $0; sub(/.*"count": */, "", count); sub(/[,}].*/, "", count)
        }
        print name, bt, count
    }' "$1"
}

# --check re-times each recorded row once at its benchtime and writes
# its rows without keys, as the comparator reads none.
rowkeys="$keys"
if [[ "$mode" == check ]]; then
    recorded "$baseline" | awk '{ print $1, $2, 1 }' > "$keys"
    rowkeys=/dev/null
elif [[ -f "$out" ]]; then
    recorded "$out" > "$keys"
elif [[ -f BENCH_campaigns.json ]]; then
    recorded BENCH_campaigns.json > "$keys"
fi

# Split the benchmarks the pattern selects into one group per recorded
# (benchtime, count) and the rest, which run once at BENCH_TIME.
declare -A own=() groups=()
while read -r name bt count; do
    own[$name]="$bt $count"
done < "$keys"
rest=""
while read -r name; do
    if [[ -n "${own[$name]:-}" ]]; then
        g="${own[$name]}"
        groups[$g]="${groups[$g]:+${groups[$g]}|}$name"
    else
        rest="${rest:+$rest|}$name"
    fi
done < <(go test -run='^$' -list="$pattern" . | grep '^Benchmark')
if [[ -n "$rest" ]]; then
    bench "^($rest)\$" "$benchtime" 1
fi
for g in "${!groups[@]}"; do
    read -r bt count <<< "$g"
    bench "^(${groups[$g]})\$" "$bt" "$count"
done

# Parse `go test -bench` lines:
#   BenchmarkName/sub-8  10  123456 ns/op  789 B/op  12 allocs/op [extra metrics]
# A benchmark run more than once (a recorded count) is written as the
# per-column median of its runs; a row whose top-level benchmark is in
# $rowkeys carries its benchtime, and its count and stat when it has one.
awk -v label="$benchtime" -v keysfile="$rowkeys" '
function median(col, name, k,   i, j, v, t) {
    for (i = 1; i <= k; i++) {
        t = samples[col, name, i] + 0
        for (j = i - 1; j >= 1 && v[j] > t; j--) v[j+1] = v[j]
        v[j+1] = t
    }
    t = (k % 2) ? v[(k+1)/2] : (v[k/2] + v[k/2+1]) / 2
    return (t == int(t)) ? sprintf("%.0f", t) : sprintf("%.1f", t)
}
function value(col, name) {
    if (runs[name] == 1) return samples[col, name, 1]
    return median(col, name, runs[name])
}
BEGIN {
    n = 0
    while ((getline line < keysfile) > 0) {
        split(line, f, " ")
        kbt[f[1]] = f[2]
        kcount[f[1]] = f[3]
    }
}
$1 ~ /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)            # strip -GOMAXPROCS suffix
    ns = ""; bop = ""; allocs = ""
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns = $i
        if ($(i+1) == "B/op")      bop = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    if (!(name in runs)) order[n++] = name
    k = ++runs[name]
    iters[name] = $2
    samples["ns", name, k] = ns
    samples["b", name, k] = bop
    samples["a", name, k] = allocs
}
END {
    print "{"
    printf "  \"benchtime\": \"%s\",\n", label
    print "  \"benchmarks\": ["
    for (i = 0; i < n; i++) {
        name = order[i]
        top = name
        sub(/\/.*/, "", top)
        row = sprintf("    {\"name\": \"%s\"", name)
        if (top in kbt) {
            row = row sprintf(", \"benchtime\": \"%s\"", kbt[top])
            if (kcount[top] > 1) row = row sprintf(", \"count\": %s, \"stat\": \"median\"", kcount[top])
        }
        row = row sprintf(", \"iterations\": %s, \"ns_per_op\": %s", iters[name], value("ns", name))
        if (samples["b", name, 1] != "") row = row sprintf(", \"bytes_per_op\": %s", value("b", name))
        if (samples["a", name, 1] != "") row = row sprintf(", \"allocs_per_op\": %s", value("a", name))
        printf "%s}%s\n", row, (i < n-1 ? "," : "")
    }
    print "  ]"
    print "}"
}' "$raw" > "$out"

echo "wrote $out ($(grep -c '"name"' "$out") benchmarks)"

if [[ "$mode" == run ]]; then
    exit 0
fi

status=0
compare "$baseline" "$out" || status=1
rm -f "$out"
exit "$status"
