#!/usr/bin/env sh
# Brings up a local hyperd cluster: N nodes in peer-fill mode plus a
# `hyperd route` front door, then waits until every member reports
# healthy.  Ctrl-C (or SIGTERM) tears the whole thing down through the
# daemons' graceful drains.
#
#   scripts/cluster_up.sh               3 nodes on 8081..8083, router on 8078
#   NODES=5 scripts/cluster_up.sh       5 nodes on 8081..8085
#   BASE_PORT=9100 scripts/cluster_up.sh
#
# Once up:
#
#   curl -s http://127.0.0.1:8078/v1/healthz | jq .ring
#   curl -s -X POST -d '{"solver":"aligned","app":"counter"}' \
#        http://127.0.0.1:8078/v1/solve | jq .
#
# Twin check (what CI's cluster-smoke job runs): solve an original
# through the router, then send its structural twin (tasks swapped and
# renamed, columns relabeled) straight to each node.  Every node answers
# "cache_hit":true with the same .result.schedule, and the non-owner
# nodes' hyperd_cluster_peer_fill_hits_total sum to NODES-1:
#
#   ORIG='{"solver":"exact","instance":{"tasks":[{"name":"alpha","local":3,"v":2},{"name":"beta","local":2,"v":1}],"reqs":[["100","10"],["010","11"],["011","01"],["001","00"]]}}'
#   TWIN='{"solver":"exact","instance":{"tasks":[{"name":"south","local":2,"v":1},{"name":"north","local":3,"v":2}],"reqs":[["01","001"],["11","010"],["10","110"],["00","100"]]}}'
#   curl -s -X POST -d "$ORIG" http://127.0.0.1:8078/v1/solve >/dev/null
#   for port in 8081 8082 8083; do
#     curl -s -X POST -d "$TWIN" http://127.0.0.1:$port/v1/solve | jq -c '[.cache_hit, .result.schedule]'
#   done
set -eu
cd "$(dirname "$0")/.."

NODES=${NODES:-3}
BASE_PORT=${BASE_PORT:-8081}
ROUTER_PORT=${ROUTER_PORT:-8078}
BIN=${BIN:-$(mktemp /tmp/hyperd.XXXXXX)}

go build -o "$BIN" ./cmd/hyperd

PEERS=""
i=0
while [ "$i" -lt "$NODES" ]; do
	port=$((BASE_PORT + i))
	PEERS="${PEERS}${PEERS:+,}http://127.0.0.1:${port}"
	i=$((i + 1))
done
echo "cluster_up: members $PEERS" >&2

PIDS=""
cleanup() {
	trap - INT TERM EXIT
	echo "cluster_up: stopping" >&2
	for pid in $PIDS; do
		kill -TERM "$pid" 2>/dev/null || true
	done
	for pid in $PIDS; do
		wait "$pid" 2>/dev/null || true
	done
}
trap cleanup INT TERM EXIT

i=0
while [ "$i" -lt "$NODES" ]; do
	port=$((BASE_PORT + i))
	"$BIN" -addr "127.0.0.1:${port}" \
		-peers "$PEERS" -self "http://127.0.0.1:${port}" &
	PIDS="$PIDS $!"
	i=$((i + 1))
done
"$BIN" route -addr "127.0.0.1:${ROUTER_PORT}" -peers "$PEERS" &
PIDS="$PIDS $!"

# Wait for the router to see every member healthy.
tries=0
until curl -fsS "http://127.0.0.1:${ROUTER_PORT}/v1/healthz" 2>/dev/null \
	| grep -q '"healthy":true' && \
	! curl -fsS "http://127.0.0.1:${ROUTER_PORT}/v1/healthz" 2>/dev/null \
	| grep -q '"healthy":false'; do
	tries=$((tries + 1))
	if [ "$tries" -gt 100 ]; then
		echo "cluster_up: cluster did not converge" >&2
		exit 1
	fi
	sleep 0.2
done
echo "cluster_up: ready — router http://127.0.0.1:${ROUTER_PORT}, PEERS=$PEERS" >&2

wait
