#!/usr/bin/env bash
# benchcheck.sh — CI perf-regression gate over the committed benchmark
# baselines (BENCH_predictor.json, BENCH_serving.json; see scripts/bench.sh,
# which writes them with commit/date stamps).
#
# Run every benchmark named in the baselines' go_bench arrays once with
# -benchmem and compare allocs/op:
#
#   * allocs/op regression beyond THRESHOLD% (default 25) + SLACK allocs
#     (default 64, absorbing one-shot lazy-init noise at -benchtime=1x)
#     FAILS the gate — allocation counts are deterministic, so a jump is a
#     real hot-path regression, not machine noise;
#   * ns/op is printed for context but never fails — wall clock on shared
#     CI runners is advisory only;
#   * a baselined benchmark that produced no output (renamed or deleted)
#     FAILS the gate — drop its entry from the baseline on purpose instead.
#
#   THRESHOLD=25 SLACK=64 BENCHTIME=1x scripts/benchcheck.sh
set -euo pipefail
cd "$(dirname "$0")/.."

THRESHOLD="${THRESHOLD:-25}"
SLACK="${SLACK:-64}"
BENCHTIME="${BENCHTIME:-1x}"

# baseline <file>: the go_bench array as "name allocs/op ns/op" lines
# (benchmark names are normalized by stripping the -GOMAXPROCS suffix).
baseline() {
	grep -o '"Benchmark[^"]*"' "$1" | tr -d '"' | awk '
		{
			name = $1; sub(/-[0-9]+$/, "", name)
			ns = ""; allocs = ""
			for (i = 1; i < NF; i++) {
				if ($(i+1) == "ns/op") ns = $i
				if ($(i+1) == "allocs/op") allocs = $i
			}
			if (allocs != "") print name, allocs, ns
		}'
}

FAIL=0
check_pkg() { # check_pkg <baseline.json> <package>
	local base="$1" pkg="$2"
	[ -f "$base" ] || { echo "benchcheck: missing baseline $base" >&2; exit 1; }
	local names pattern raw
	names=$(baseline "$base" | awk '{print $1}')
	[ -n "$names" ] || { echo "benchcheck: no allocs/op baselines in $base (rerun scripts/bench.sh with -benchmem)" >&2; exit 1; }
	pattern=$(printf '%s$\n' $names | paste -sd'|' -)
	echo "benchcheck: $pkg vs $base (threshold ${THRESHOLD}%+${SLACK}, benchtime $BENCHTIME)" >&2
	raw=$(go test -run='^$' -bench="^($pattern)" -benchmem -benchtime="$BENCHTIME" "$pkg" | grep '^Benchmark' || true)
	[ -n "$raw" ] || { echo "benchcheck: no benchmark output from $pkg" >&2; exit 1; }
	# Join current against baseline on the normalized name and compare.
	if ! {
		baseline "$base" | sed 's/^/base /'
		printf '%s\n' "$raw" | tr '\t' ' ' | tr -s ' ' | awk '
			{
				name = $1; sub(/-[0-9]+$/, "", name)
				ns = ""; allocs = ""
				for (i = 1; i < NF; i++) {
					if ($(i+1) == "ns/op") ns = $i
					if ($(i+1) == "allocs/op") allocs = $i
				}
				if (allocs != "") print "cur", name, allocs, ns
			}'
	} | awk -v thr="$THRESHOLD" -v slack="$SLACK" '
		$1 == "base" { ba[$2] = $3; bns[$2] = $4; next }
		$1 == "cur" { seen[$2] = 1 }
		$1 == "cur" && ($2 in ba) {
			limit = ba[$2] * (1 + thr / 100) + slack
			delta = bns[$2] > 0 ? sprintf("%+.0f%%", 100 * ($4 - bns[$2]) / bns[$2]) : "n/a"
			if ($3 > limit) {
				printf "FAIL %s allocs/op %s -> %s (limit %.0f); ns/op %s -> %s [%s, advisory]\n",
					$2, ba[$2], $3, limit, bns[$2], $4, delta
				bad = 1
			} else {
				printf "ok   %s allocs/op %s -> %s; ns/op %s -> %s [%s, advisory]\n",
					$2, ba[$2], $3, bns[$2], $4, delta
			}
		}
		END {
			for (n in ba) if (!(n in seen)) {
				printf "FAIL %s baselined but produced no benchmark output\n", n
				bad = 1
			}
			exit bad
		}
	'; then
		FAIL=1
	fi
}

check_pkg BENCH_predictor.json ./internal/sim/
check_pkg BENCH_serving.json ./internal/serving/

if [ "$FAIL" != 0 ]; then
	echo "benchcheck: allocs/op regressed beyond ${THRESHOLD}%+${SLACK} or a baselined benchmark is missing — if intentional, rerun scripts/bench.sh and commit the new baselines" >&2
	exit 1
fi
echo "benchcheck: all allocation baselines hold" >&2
