#!/usr/bin/env sh
# Regenerates the recorded bench baseline, or checks the current tree
# against it.
#
#   scripts/bench.sh            regenerate the committed artifacts
#   scripts/bench.sh --check    rerun the benchmarks and fail (exit 1)
#                               on a >10% ns/op regression against
#                               scripts/bench_baseline.txt
#
# The regenerate mode writes five artifacts, all committed:
#
#   BENCH_PR3.json            frontier-engine comparison (reference DP
#                             vs packed engine at Workers=1 and
#                             Workers=GOMAXPROCS, pruning disabled)
#                             with ns/op, allocs/op and the
#                             speedup/alloc ratios; produced by
#                             `paperbench -bench` on the fixed-seed
#                             BenchmarkScalingTasks m=4 workload.
#   BENCH_PR5.json            pruned-search comparison (packed engine
#                             with pruning off vs on) on the phased
#                             m=4 and dense workloads, plus the
#                             memory-budget scenario where pruning
#                             restores exactness; produced by
#                             `paperbench -bench5` (EXPERIMENTS.md E17).
#   BENCH_PR6.json            incremental-solve comparison: states
#                             expanded appending the final 10% of a
#                             dense trace to a solved stepped engine vs
#                             re-solving from scratch; produced by
#                             `paperbench -bench6` (EXPERIMENTS.md E18).
#   BENCH_PR8.json            partition-and-conquer comparison:
#                             monolithic pruned exact engine vs the
#                             partitioned solver on cut-free blocked
#                             workloads, plus the memory-budget and
#                             certified-bound scenarios; produced by
#                             `paperbench -bench8` (EXPERIMENTS.md E20).
#   BENCH_PR9.json            durability overhead (fsync modes vs
#                             in-memory) and crash-recovery gates;
#                             produced by `paperbench -bench9`
#                             (EXPERIMENTS.md E21).
#   BENCH_PR10.json           portfolio racing: mixed-workload
#                             head-to-head with learned dispatch,
#                             the incumbent-exchange state-reduction
#                             probe and the direct-dispatch rate;
#                             produced by `paperbench -bench10`
#                             (EXPERIMENTS.md E22).
#
# BENCH_PR7.json (cluster-mode routing, EXPERIMENTS.md E19) is
# regenerated separately by `go run ./cmd/hyperd bench -cluster -json
# BENCH_PR7.json`; --check still requires it to be present.
#
# Every JSON row records pruning_enabled explicitly, so --check and any
# downstream diffing compare like with like.
#   scripts/bench_baseline.txt raw `go test -bench` output of the
#                             frontier/scaling/step-expansion/session
#                             stream benchmarks, the input of
#                             the --check mode and of CI's
#                             informational benchstat step.
set -eu
cd "$(dirname "$0")/.."

# BENCH_PATTERN and BENCH_PKGS must match the regex and packages of CI's
# bench-compare job (.github/workflows/ci.yml).
BENCH_PATTERN='BenchmarkFrontierEngines|BenchmarkScalingTasks|BenchmarkPartitionedSolve|BenchmarkStepExpansion|BenchmarkSessionStream'
BENCH_PKGS='. ./internal/mtswitch'

if [ "${1:-}" = "--check" ]; then
	# Every committed bench artifact must exist: a silently skipped
	# baseline would let a regression land unnoticed.
	for f in BENCH_PR3.json BENCH_PR5.json BENCH_PR6.json BENCH_PR7.json BENCH_PR8.json BENCH_PR9.json BENCH_PR10.json; do
		if [ ! -f "$f" ]; then
			echo "bench.sh --check: committed baseline $f missing; regenerate it (scripts/bench.sh, or hyperd bench -cluster for BENCH_PR7.json)" >&2
			exit 1
		fi
	done
	if [ ! -f scripts/bench_baseline.txt ]; then
		echo "bench.sh --check: scripts/bench_baseline.txt missing; run scripts/bench.sh first" >&2
		exit 1
	fi
	new=$(mktemp /tmp/bench_check.XXXXXX)
	trap 'rm -f "$new"' EXIT
	go test -run '^$' -bench "$BENCH_PATTERN" -benchmem -count 1 $BENCH_PKGS | tee "$new"
	# Join the two runs on benchmark name and compare ns/op (column 3
	# of a `go test -bench` result line). >10% slower fails the check.
	awk '
		FNR == NR {
			if ($2 ~ /^[0-9]+$/ && $4 == "ns/op") base[$1] = $3
			next
		}
		$2 ~ /^[0-9]+$/ && $4 == "ns/op" && ($1 in base) {
			matched++
			ratio = $3 / base[$1]
			printf "%-60s %12.0f -> %12.0f ns/op  (%.2fx)\n", $1, base[$1], $3, ratio
			if (ratio > 1.10) {
				printf "REGRESSION: %s is %.0f%% slower than the baseline\n", $1, (ratio - 1) * 100
				bad++
			}
		}
		END {
			if (matched == 0) {
				print "bench.sh --check: warning: no benchmark names matched the baseline (renamed benchmarks?); nothing compared"
				exit 0
			}
			if (bad > 0) exit 1
		}
	' scripts/bench_baseline.txt "$new"
	echo "bench.sh --check: ok (no >10% ns/op regression)"
	exit 0
fi

go run ./cmd/paperbench -bench -benchout BENCH_PR3.json
go run ./cmd/paperbench -bench5 -bench5out BENCH_PR5.json
go run ./cmd/paperbench -bench6 -bench6out BENCH_PR6.json
go run ./cmd/paperbench -bench8 -bench8out BENCH_PR8.json
go run ./cmd/paperbench -bench9 -bench9out BENCH_PR9.json
go run ./cmd/paperbench -bench10 -bench10out BENCH_PR10.json

go test -run '^$' -bench "$BENCH_PATTERN" \
	-benchmem -count 1 $BENCH_PKGS | tee scripts/bench_baseline.txt
