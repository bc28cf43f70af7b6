#!/usr/bin/env bash
# warm-bytes: prove that a warm figuresd, and a long-lived -peers front
# door, serve the same bytes as the CLI. A cache-backed daemon keeps
# each verified table's response body per format in memory and writes
# those bytes on every later hit, and a front door carves each point
# of E2 and E15 once and reuses that carve for every later request, so
# a stored body or a carve that went stale, or was kept for the wrong
# format or point, would show here and nowhere else in CI.
#
#   1. A figuresd over an empty store serves E1, E2, E7, E15, E2?k=3
#      and E15?c=3 in text, json and csv (runs, stores, first reads).
#      Its /stats and /metrics, two renderings of one snapshot, must
#      both read 6 misses (each point's first format), 12 hits (the
#      other two) and 4 exploring runs (E2, E15, E2?k=3, E15?c=3).
#   2. A daemon restarted on the same store serves each of those 18
#      requests twice: the first fills the memory tier and the body of
#      its format, the second is a stored-bytes hit.
#   3. Two workers on that store, behind a storeless `figuresd -peers`
#      front door, serve each request twice through the front door. It
#      fetches E1 and E7 whole and splits every E2 and E15 request into
#      four prefix ranges, two per worker, from the point's one carve.
#
# Every body must cmp equal to `figures -run ID [-param P] -format F`;
# the cold daemon's /stats and /metrics must agree on its counters,
# the restarted daemon's /stats must read 36 hits and 0 misses, and
# the workers' /stats must count exactly four slice lookups
# (slice_hits + slice_misses) per carved front-door request.
# CI runs exactly this via `make warm-bytes`; humans run it the same
# way.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT=8261
# id, then the parameter point ("" for the default point).
points=("E1 " "E2 " "E7 " "E15 " "E2 k=3" "E15 c=3")
formats=(text json csv)

tmp=$(mktemp -d)
cleanup() {
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "warm-bytes: FAILED (exit $status); logs:" >&2
    tail -5 "$tmp"/*.log >&2 2>/dev/null || true
  fi
  kill $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$tmp"
  exit "$status"
}
trap cleanup EXIT

go build -o "$tmp/figuresd" ./cmd/figuresd
go build -o "$tmp/figures" ./cmd/figures

start_daemon() { # $1 = port, $2 = log file, the rest figuresd flags
  port=$1 log=$2
  shift 2
  "$tmp/figuresd" -addr "localhost:$port" "$@" > "$log" 2>&1 &
  for _ in $(seq 1 50); do
    curl -fs "http://localhost:$port/healthz" > /dev/null && break
    sleep 0.2
  done
  curl -fs "http://localhost:$port/healthz" > /dev/null
}

stop_daemon() {
  kill $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true
}

# name of one request's files: E2, E2-k=3, ...
name() { echo "$1${2:+-$2}"; }

# The reference bytes: one cacheless CLI run per point and format.
for point in "${points[@]}"; do
  read -r id param <<< "$point"
  for fmt in "${formats[@]}"; do
    "$tmp/figures" -run "$id" ${param:+-param "$param"} -format "$fmt" \
      -o "$tmp/$(name "$id" "$param").$fmt.want"
  done
done

serve_all() { # $1 = phase label, $2 = port; every request must match its reference
  for point in "${points[@]}"; do
    read -r id param <<< "$point"
    for fmt in "${formats[@]}"; do
      got="$tmp/$(name "$id" "$param").$fmt.$1"
      curl -fs "http://localhost:$2/experiments/$id?format=$fmt${param:+&$param}" -o "$got"
      cmp "$tmp/$(name "$id" "$param").$fmt.want" "$got"
    done
  done
}

# Phase 1: a daemon over the empty store, then its counters on both
# views.
start_daemon "$PORT" "$tmp/cold.log" -cache-dir "$tmp/store"
serve_all cold "$PORT"
curl -fs "http://localhost:$PORT/stats" > "$tmp/cold-stats.json"
curl -fs "http://localhost:$PORT/metrics" > "$tmp/cold-metrics.txt"
read -r misses hits runs < <(jq -r '"\(.cache.misses) \(.cache.hits) \(.exploration.runs)"' "$tmp/cold-stats.json")
echo "warm-bytes: cold daemon: $misses misses, $hits hits, $runs exploring runs"
test "$misses" -eq 6
test "$hits" -eq 12
test "$runs" -eq 4
grep -qx 'repro_cache_misses_total 6' "$tmp/cold-metrics.txt"
grep -qx 'repro_cache_hits_total 12' "$tmp/cold-metrics.txt"
grep -qx 'repro_exploration_runs_total 4' "$tmp/cold-metrics.txt"
stop_daemon

# Phase 2: restarted on the same store, every request twice.
start_daemon "$PORT" "$tmp/warm.log" -cache-dir "$tmp/store"
serve_all fill "$PORT"
serve_all stored "$PORT"
curl -fs "http://localhost:$PORT/stats" > "$tmp/stats.json"
hits=$(jq -r '.cache.hits' "$tmp/stats.json")
misses=$(jq -r '.cache.misses' "$tmp/stats.json")
echo "warm-bytes: restarted daemon: $hits hits, $misses misses"
test "$hits" -eq 36
test "$misses" -eq 0
stop_daemon

# Phase 3: two workers on the same store behind a storeless front
# door, every request twice. The front door carves a point only on its
# first request; every carved request, first or not, must reach the
# workers as exactly four slice lookups (two ranges per worker).
W1=$((PORT + 1)) W2=$((PORT + 2)) FRONT=$((PORT + 3))
start_daemon "$W1" "$tmp/worker1.log" -cache-dir "$tmp/store"
start_daemon "$W2" "$tmp/worker2.log" -cache-dir "$tmp/store"
start_daemon "$FRONT" "$tmp/front.log" -peers "localhost:$W1,localhost:$W2"
serve_all front "$FRONT"
serve_all front-again "$FRONT"
# E2, E15, E2?k=3 and E15?c=3 in three formats, twice: 24 carved
# requests, 96 slice lookups. E1 and E7 are whole fetches.
lookups=0
for port in "$W1" "$W2"; do
  n=$(curl -fs "http://localhost:$port/stats" | jq -r '.cache.slice_hits + .cache.slice_misses')
  lookups=$((lookups + n))
done
echo "warm-bytes: front door: $lookups slice lookups on the workers for 24 carved requests"
test "$lookups" -eq 96
stop_daemon

echo "warm-bytes: OK (18 requests cold, 36 warm, 36 through a front door; every body equals the figures CLI's)"
