#!/usr/bin/env sh
# Regenerates the recorded bench baseline, or checks the current tree
# against it.
#
#   scripts/bench.sh            regenerate the committed artifacts
#   scripts/bench.sh --check    rerun the benchmarks and fail (exit 1)
#                               on a >10% ns/op regression against
#                               scripts/bench_baseline.txt
#
# The regenerate mode runs every mode below, then the `go test` capture,
# even when one fails.  It prints each failure and exits 1 if any mode
# failed; a failing mode leaves its committed artifact as it was, since
# paperbench writes a baseline only after its gates pass.  It writes
# three artifacts, all committed:
#
#   BENCH_PR8.json            partition-and-conquer comparison:
#                             monolithic pruned exact engine vs the
#                             partitioned solver on cut-free blocked
#                             workloads, plus the memory-budget and
#                             certified-bound scenarios; produced by
#                             `paperbench -bench8` (EXPERIMENTS.md E20).
#   BENCH_PR10.json           portfolio racing: mixed-workload
#                             head-to-head with learned dispatch,
#                             the incumbent-exchange state-reduction
#                             probe and the direct-dispatch rate;
#                             produced by `paperbench -bench10`
#                             (EXPERIMENTS.md E22).
#
# The frontier-engine (E14), pruned-search (E17), incremental-solve
# (E18) and WAL-overhead (E21) comparisons are `go test` benchmarks
# (BenchmarkFrontierEngines, BenchmarkSessionStream,
# BenchmarkDurableSubmit) whose checks are tier-1 tests beside the code
# they measure.  Cluster mode (E19) and crash recovery (E21) have tests
# only: TestPeerFillTwinAcrossNodes and the TestDurable* suite.
#
#   scripts/bench_baseline.txt raw `go test -bench` output of the
#                             frontier/scaling/step-expansion/session
#                             stream benchmarks and of the hyperd
#                             request path outside the solver
#                             (BenchmarkRequestPath), the input of
#                             the --check mode and of CI's
#                             informational benchstat step.
set -eu
cd "$(dirname "$0")/.."

# BENCH_PATTERN and BENCH_PKGS must match the regex and packages of CI's
# bench-compare job (.github/workflows/ci.yml).
BENCH_PATTERN='BenchmarkFrontierEngines|BenchmarkScalingTasks|BenchmarkPartitionedSolve|BenchmarkStepExpansion|BenchmarkSessionStream|BenchmarkRequestPath|BenchmarkDurableSubmit'
BENCH_PKGS='. ./internal/mtswitch ./internal/service'

if [ "${1:-}" = "--check" ]; then
	# Every committed bench artifact must exist: a silently skipped
	# baseline would let a regression land unnoticed.
	for f in BENCH_PR8.json BENCH_PR10.json; do
		if [ ! -f "$f" ]; then
			echo "bench.sh --check: committed baseline $f missing; regenerate it with scripts/bench.sh" >&2
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
	# `go test` appends -N to a name when GOMAXPROCS is N > 1, so the
	# join strips one trailing -<digits> from both sides: a baseline
	# captured on another core count still compares.  Two names that
	# strip to the same one would be joined wrongly, so they fail.
	awk '
		function key(name) {
			sub(/-[0-9]+$/, "", name)
			return name
		}
		$2 ~ /^[0-9]+$/ && $4 == "ns/op" {
			k = key($1)
			if ((FILENAME, k) in seen) {
				printf "bench.sh --check: %s and %s in %s are the same benchmark without their -N suffix\n", seen[FILENAME, k], $1, FILENAME
				collided = 1
				exit 1
			}
			seen[FILENAME, k] = $1
		}
		FNR == NR {
			if ($2 ~ /^[0-9]+$/ && $4 == "ns/op") base[key($1)] = $3
			next
		}
		$2 ~ /^[0-9]+$/ && $4 == "ns/op" && (key($1) in base) {
			matched++
			ratio = $3 / base[key($1)]
			printf "%-60s %12.0f -> %12.0f ns/op  (%.2fx)\n", $1, base[key($1)], $3, ratio
			if (ratio > 1.10) {
				printf "REGRESSION: %s is %.0f%% slower than the baseline\n", $1, (ratio - 1) * 100
				bad++
			}
		}
		END {
			if (collided) exit 1
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

failed=""
for mode in 8 10; do
	if ! go run ./cmd/paperbench -bench$mode -bench${mode}out BENCH_PR$mode.json; then
		echo "bench.sh: paperbench -bench$mode failed; BENCH_PR$mode.json left as committed" >&2
		failed="$failed -bench$mode"
	fi
done

new=$(mktemp /tmp/bench_baseline.XXXXXX)
trap 'rm -f "$new"' EXIT
if go test -run '^$' -bench "$BENCH_PATTERN" -benchmem -count 1 $BENCH_PKGS >"$new"; then
	cat "$new"
	cp "$new" scripts/bench_baseline.txt
else
	cat "$new"
	echo "bench.sh: go test -bench failed; scripts/bench_baseline.txt left as committed" >&2
	failed="$failed go-test-bench"
fi

if [ -n "$failed" ]; then
	echo "bench.sh: failed:$failed" >&2
	exit 1
fi
