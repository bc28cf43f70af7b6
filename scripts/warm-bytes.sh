#!/usr/bin/env bash
# warm-bytes: prove that a warm figuresd serves the same bytes as the
# CLI. A cache-backed daemon keeps each verified table's response body
# per format in memory and writes those bytes on every later hit, so
# a stored body that went stale, or was stored for the wrong format or
# point, would show here and nowhere else in CI.
#
#   1. A figuresd over an empty store serves E1, E2, E7, E15, E2?k=3
#      and E15?c=3 in text, json and csv (runs, stores, first reads).
#   2. A daemon restarted on the same store serves each of those 18
#      requests twice: the first fills the memory tier and the body of
#      its format, the second is a stored-bytes hit.
#
# Every body must cmp equal to `figures -run ID [-param P] -format F`,
# and the restarted daemon's /stats must read 36 hits and 0 misses.
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

start_daemon() { # $1 = log file
  "$tmp/figuresd" -addr "localhost:$PORT" -cache-dir "$tmp/store" > "$1" 2>&1 &
  for _ in $(seq 1 50); do
    curl -fs "http://localhost:$PORT/healthz" > /dev/null && break
    sleep 0.2
  done
  curl -fs "http://localhost:$PORT/healthz" > /dev/null
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

serve_all() { # $1 = phase label; every request must match its reference
  for point in "${points[@]}"; do
    read -r id param <<< "$point"
    for fmt in "${formats[@]}"; do
      got="$tmp/$(name "$id" "$param").$fmt.$1"
      curl -fs "http://localhost:$PORT/experiments/$id?format=$fmt${param:+&$param}" -o "$got"
      cmp "$tmp/$(name "$id" "$param").$fmt.want" "$got"
    done
  done
}

# Phase 1: a daemon over the empty store.
start_daemon "$tmp/cold.log"
serve_all cold
stop_daemon

# Phase 2: restarted on the same store, every request twice.
start_daemon "$tmp/warm.log"
serve_all fill
serve_all stored
curl -fs "http://localhost:$PORT/stats" > "$tmp/stats.json"
hits=$(jq -r '.cache.hits' "$tmp/stats.json")
misses=$(jq -r '.cache.misses' "$tmp/stats.json")
echo "warm-bytes: restarted daemon: $hits hits, $misses misses"
test "$hits" -eq 36 && test "$misses" -eq 0
stop_daemon

echo "warm-bytes: OK (18 requests cold, 36 warm; every body equals the figures CLI's)"
