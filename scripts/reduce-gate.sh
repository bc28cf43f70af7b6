#!/usr/bin/env bash
# reduce-gate: the oracle gate for the memoized production explorer.
# E2 (the Algorithm 1 sweep) and E15 (the Theorem 1.2 run) explore
# through the serial canonical-state memo in every production path;
# the exhaustive explorers are the oracle. The gate asserts:
#
#   1. exhaustive ≡ production: at every point the E2 and E15 schemas
#      accept, the memoized table encodes byte-identically to the
#      exhaustive one in text, json, and csv, and every range of three
#      carves of the prefix partition gives the exhaustive aggregate
#      and envelope bytes (TestReducedMatchesExhaustiveBytes, run by
#      name without -short);
#   2. each exploring result of cacheless `figures -v` runs — E2 and
#      E15 at their fixed points, and E2 at k=5 — visited strictly
#      fewer states than it accounted executions, pruned at least one
#      subtree, and replayed strictly fewer executions than it
#      accounted (the `figures: explore <id> ...` counter lines);
#   3. the accounted execution counts match the committed
#      BENCH_explore.json baseline exactly: the execution count is part
#      of the experiment's meaning, so a drift here is a correctness
#      regression, not a perf change.
#
# The memo is serial, so every counter is the same on any core count.
#
# It then reruns the explore microbenchmarks and rewrites
# BENCH_explore.json (counters + ns/op + speedup), so the committed
# file tracks exploration throughput the same way BENCH_load.json
# tracks serving latency. CI runs exactly this via `make reduce-gate`;
# humans run it the same way. Knobs (all optional): OUT, TIMEOUT.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${OUT:-BENCH_explore.json}
TIMEOUT=${TIMEOUT:-10m}

# The pinned explorations: BENCH_explore.json key, then the figures
# flags that run it. Each run's stderr holds one counter line.
keys=(E2 E15 'E2?k=5')
declare -A flags=([E2]='-run E2' [E15]='-run E15' ['E2?k=5']='-run E2 -param k=5')

# Baseline execution counts, read before the run overwrites $OUT.
# Bracket indexing, not .E2: jq lexes a bare `E2` as a malformed
# float exponent and rejects the whole filter.
declare -A base_execs
for key in "${keys[@]}"; do
  base_execs[$key]=""
  if [ -f "$OUT" ]; then
    base_execs[$key]=$(jq -r --arg key "$key" '.experiments[$key].executions // empty' "$OUT" 2>/dev/null || true)
  fi
done

tmp=$(mktemp -d)
cleanup() {
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "reduce-gate: FAILED (exit $status)" >&2
    tail -5 "$tmp"/reduce-*.log >&2 2>/dev/null || true
  fi
  rm -rf "$tmp"
  exit "$status"
}
trap cleanup EXIT

go test -count=1 -timeout "$TIMEOUT" \
  -run '^TestReducedMatchesExhaustiveBytes$' \
  ./internal/experiments

go build -o "$tmp/figures" ./cmd/figures

# One counter line per exploring result:
#   figures: explore E2 visited=242 pruned=126 replays=146 executions=22080
counter() { # counter <log> <field>
  awk -v field="$2=" \
    '$1 == "figures:" && $2 == "explore" {
       for (i = 4; i <= NF; i++) if (index($i, field) == 1) {
         sub(field, "", $i); print $i; exit
       }
     }' "$1"
}

declare -A visited pruned replays execs
experiments='{}'
for i in "${!keys[@]}"; do
  key=${keys[$i]}
  log="$tmp/reduce-explore-$i.log"
  # shellcheck disable=SC2086 # flags are deliberately word-split
  "$tmp/figures" ${flags[$key]} -timeout "$TIMEOUT" -v -o "$tmp/figures-$i.txt" 2> "$log"
  visited[$key]=$(counter "$log" visited)
  pruned[$key]=$(counter "$log" pruned)
  replays[$key]=$(counter "$log" replays)
  execs[$key]=$(counter "$log" executions)
  if [ -z "${visited[$key]}" ] || [ -z "${pruned[$key]}" ] ||
     [ -z "${replays[$key]}" ] || [ -z "${execs[$key]}" ]; then
    echo "reduce-gate: missing explore counters for $key in figures -v stderr" >&2
    exit 1
  fi
  if [ "${visited[$key]}" -ge "${execs[$key]}" ]; then
    echo "reduce-gate: $key visited ${visited[$key]} states, not below ${execs[$key]} executions" >&2
    exit 1
  fi
  if [ "${pruned[$key]}" -eq 0 ]; then
    echo "reduce-gate: $key pruned no subtrees" >&2
    exit 1
  fi
  if [ "${replays[$key]}" -ge "${execs[$key]}" ]; then
    echo "reduce-gate: $key replayed ${replays[$key]}, memoization saved nothing over ${execs[$key]}" >&2
    exit 1
  fi
  echo "reduce-gate: $key ${execs[$key]} executions accounted from ${replays[$key]} replays" \
    "(${visited[$key]} states visited, ${pruned[$key]} pruned)"

  # Execution counts are pinned to the committed baseline: they encode
  # what the experiment enumerates, so only a deliberate registry
  # change may move them (update $OUT in the same commit).
  if [ -z "${base_execs[$key]}" ]; then
    echo "reduce-gate: no committed baseline for $key, skipping its execution-count pin"
  elif [ "${execs[$key]}" -ne "${base_execs[$key]}" ]; then
    echo "reduce-gate: $key accounted ${execs[$key]} executions, baseline says ${base_execs[$key]}" >&2
    exit 1
  fi

  experiments=$(jq -c --arg key "$key" \
    --argjson execs "${execs[$key]}" --argjson replays "${replays[$key]}" \
    --argjson visited "${visited[$key]}" --argjson pruned "${pruned[$key]}" \
    '. + {($key): {executions: $execs, replays: $replays,
                   states_visited: $visited, states_pruned: $pruned}}' <<< "$experiments")
done

# The throughput half: serial exhaustive vs memoized on the same E2
# space. workers=1 is the apples-to-apples serial reference.
go test -run='^$' -bench='^BenchmarkExplore(Parallel|Memoized)$' \
  -benchtime=1x . | tee "$tmp/bench.txt"
exhaustive_ns=$(awk '$1 ~ /^BenchmarkExploreParallel\/workers=1/ { print $3; exit }' "$tmp/bench.txt")
memoized_ns=$(awk '$1 ~ /^BenchmarkExploreMemoized/ { print $3; exit }' "$tmp/bench.txt")
if [ -z "$exhaustive_ns" ] || [ -z "$memoized_ns" ]; then
  echo "reduce-gate: could not parse explore benchmark output" >&2
  exit 1
fi

jq -n --argjson experiments "$experiments" \
  --argjson exhaustive_ns "$exhaustive_ns" --argjson memoized_ns "$memoized_ns" \
  '{
    experiments: $experiments,
    bench: {
      exhaustive_serial_ns_per_op: $exhaustive_ns,
      memoized_ns_per_op: $memoized_ns,
      speedup: (($exhaustive_ns / $memoized_ns * 10 | round) / 10)
    }
  }' > "$OUT"

echo "reduce-gate: OK (E2 ${replays[E2]}/${execs[E2]} replays," \
  "E15 ${replays[E15]}/${execs[E15]} replays," \
  "E2?k=5 ${replays['E2?k=5']}/${execs['E2?k=5']} replays," \
  "$(jq -r '.bench.speedup' "$OUT")x serial speedup) -> $OUT"
