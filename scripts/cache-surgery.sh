#!/usr/bin/env bash
# cache-surgery: prove that bumping one experiment family's code
# version cold-starts that family alone — the per-family cache
# identity contract. A two-worker figuresd fleet plus a front cache is
# warmed over E1,E2,E7,E15; then the whole fleet is swapped for
# binaries built with
#   -ldflags "-X repro/internal/experiments.spaceVersionBump=E2=v2"
# (the link-time simulation of deploying a surgical E2 edit) and the
# same run must hit the front cache for every family except E2 —
# 3/4 hits, byte-identical output, and the workers' /stats showing E2
# as the only experiment that reached the fleet. A second bumped run
# is 4/4 warm again: the new E2 space is an ordinary cached space.
# Last, an unbumped coordinator with no front store runs over the
# still-bumped fleet: every E2 answer names the other generation
# (Repro-Registry-Version), so E2's ranges are reassigned, its whole
# fetch refused and E2 runs locally, while E1, E7 and E15 come from the
# fleet — bytes still identical.
# CI runs exactly this via `make cache-surgery`; humans run it the
# same way. Knobs (optional): PORT1/PORT2.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT1=${PORT1:-8251}
PORT2=${PORT2:-8252}
IDS="E1,E2,E7,E15"

tmp=$(mktemp -d)
cleanup() {
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "cache-surgery: FAILED (exit $status); logs:" >&2
    tail -5 "$tmp"/worker*.log "$tmp"/*.log >&2 2>/dev/null || true
  fi
  kill $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$tmp"
  exit "$status"
}
trap cleanup EXIT

go build -o "$tmp/figuresd" ./cmd/figuresd
go build -o "$tmp/figures" ./cmd/figures
# The bumped build: identical source, one family's space version moved
# at link time. Front and workers must agree on the space, so both
# binaries carry the bump.
bump="-X repro/internal/experiments.spaceVersionBump=E2=v2"
go build -ldflags "$bump" -o "$tmp/figuresd-bumped" ./cmd/figuresd
go build -ldflags "$bump" -o "$tmp/figures-bumped" ./cmd/figures

start_fleet() {
  "$1" -addr "localhost:$PORT1" -cache-dir "$tmp/worker1" > "$tmp/worker1.log" 2>&1 &
  "$1" -addr "localhost:$PORT2" -cache-dir "$tmp/worker2" > "$tmp/worker2.log" 2>&1 &
  for port in "$PORT1" "$PORT2"; do
    for _ in $(seq 1 50); do
      curl -fs "http://localhost:$port/healthz" > /dev/null && break
      sleep 0.2
    done
    curl -fs "http://localhost:$port/healthz" > /dev/null
  done
}

stop_fleet() {
  kill $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true
}

run_figures() { # $1 = figures binary, $2 = output file, $3 = log file
  "$1" -run "$IDS" -timeout 2m -cache-dir "$tmp/front" \
    -workers "localhost:$PORT1,localhost:$PORT2" \
    -o "$2" 2> "$3"
}

# Phase 1: warm everything with the unbumped build.
start_fleet "$tmp/figuresd"
run_figures "$tmp/figures" "$tmp/cold.txt" "$tmp/cold.log"
grep -F 'figures: cache 0/4 hits' "$tmp/cold.log"
run_figures "$tmp/figures" "$tmp/warm.txt" "$tmp/warm.log"
grep -F 'figures: cache 4/4 hits (100.0%)' "$tmp/warm.log"
cmp "$tmp/cold.txt" "$tmp/warm.txt"
stop_fleet

# Phase 2: deploy the E2-bumped fleet over the same cache
# directories. Every family but E2 must stay warm.
start_fleet "$tmp/figuresd-bumped"
run_figures "$tmp/figures-bumped" "$tmp/bumped.txt" "$tmp/bumped.log"
grep -F 'figures: cache 3/4 hits (75.0%)' "$tmp/bumped.log"
cmp "$tmp/cold.txt" "$tmp/bumped.txt"

# The fleet saw E2 and nothing else: the other families never left
# the front cache.
e2_count=0
for port in "$PORT1" "$PORT2"; do
  curl -fs "http://localhost:$port/stats" > "$tmp/stats$port.json"
  jq -e '.experiments | del(.["E2"]) | length == 0' "$tmp/stats$port.json" > /dev/null
  n=$(jq -r '.experiments["E2"].count // 0' "$tmp/stats$port.json")
  e2_count=$((e2_count + n))
done
echo "cache-surgery: bumped fleet served $e2_count E2 requests, 0 of any other family"
test "$e2_count" -gt 0

# Phase 3: the bumped generation is itself an ordinary cached space.
run_figures "$tmp/figures-bumped" "$tmp/bumped-warm.txt" "$tmp/bumped-warm.log"
grep -F 'figures: cache 4/4 hits (100.0%)' "$tmp/bumped-warm.log"
cmp "$tmp/cold.txt" "$tmp/bumped-warm.txt"

# Phase 4: a mixed generation. The unbumped coordinator, with no front
# store, over the E2-bumped fleet: both workers stay healthy, E1 and E7
# are fetched whole and E15's 4 ranges served, while E2's 4 ranges are
# refused on both workers (8 reassigned), its whole fetch is refused
# too, and it runs locally.
"$tmp/figures" -run "$IDS" -timeout 2m \
  -workers "localhost:$PORT1,localhost:$PORT2" \
  -o "$tmp/mixed.txt" 2> "$tmp/mixed.log"
grep -F 'figures: shard 2/2 workers healthy, 2 remote, 1 local' "$tmp/mixed.log"
grep -F 'figures: shard 2 prefix-sharded (4 ranges remote, 8 reassigned)' "$tmp/mixed.log"
cmp "$tmp/cold.txt" "$tmp/mixed.txt"
stop_fleet

echo "cache-surgery: OK (E2 bump re-ran E2 only; a mixed-generation fleet's E2 answers refused; bytes identical across all runs)"
