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
#   3. all four counters of each run (executions, replays,
#      states_visited, states_pruned) equal the committed
#      BENCH_explore.json baseline exactly. The memo is serial, so
#      every counter is the same on any core count: the execution
#      count is part of the experiment's meaning, and a moved replay
#      or state count is a change to the explorer, made deliberately
#      together with the baseline in one commit. A key missing from
#      the baseline fails the gate.
#
# The gate only reads the baseline; it writes nothing in the tree. CI
# runs exactly this via `make reduce-gate`; humans run it the same way.
# Knob (optional): TIMEOUT.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=BENCH_explore.json
TIMEOUT=${TIMEOUT:-10m}

# The pinned explorations: BENCH_explore.json key, then the figures
# flags that run it. Each run's stderr holds one counter line.
keys=(E2 E15 'E2?k=5')
declare -A flags=([E2]='-run E2' [E15]='-run E15' ['E2?k=5']='-run E2 -param k=5')
fields=(executions replays states_visited states_pruned)

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

declare -A got
for i in "${!keys[@]}"; do
  key=${keys[$i]}
  log="$tmp/reduce-explore-$i.log"
  # shellcheck disable=SC2086 # flags are deliberately word-split
  "$tmp/figures" ${flags[$key]} -timeout "$TIMEOUT" -v -o "$tmp/figures-$i.txt" 2> "$log"
  got=(
    [executions]=$(counter "$log" executions)
    [replays]=$(counter "$log" replays)
    [states_visited]=$(counter "$log" visited)
    [states_pruned]=$(counter "$log" pruned)
  )
  for field in "${fields[@]}"; do
    if [ -z "${got[$field]}" ]; then
      echo "reduce-gate: missing $field counter for $key in figures -v stderr" >&2
      exit 1
    fi
  done
  execs=${got[executions]}
  if [ "${got[states_visited]}" -ge "$execs" ]; then
    echo "reduce-gate: $key visited ${got[states_visited]} states, not below $execs executions" >&2
    exit 1
  fi
  if [ "${got[states_pruned]}" -eq 0 ]; then
    echo "reduce-gate: $key pruned no subtrees" >&2
    exit 1
  fi
  if [ "${got[replays]}" -ge "$execs" ]; then
    echo "reduce-gate: $key replayed ${got[replays]}, memoization saved nothing over $execs" >&2
    exit 1
  fi

  # Bracket indexing, not .E2: jq lexes a bare `E2` as a malformed
  # float exponent and rejects the whole filter.
  for field in "${fields[@]}"; do
    want=$(jq -r --arg key "$key" --arg field "$field" \
      '.experiments[$key][$field] // empty' "$BASELINE")
    if [ -z "$want" ]; then
      echo "reduce-gate: $BASELINE has no $field for $key" >&2
      exit 1
    fi
    if [ "${got[$field]}" -ne "$want" ]; then
      echo "reduce-gate: $key $field = ${got[$field]}, $BASELINE says $want" >&2
      exit 1
    fi
  done
  echo "reduce-gate: $key $execs executions accounted from ${got[replays]} replays" \
    "(${got[states_visited]} states visited, ${got[states_pruned]} pruned), matching $BASELINE"
done

echo "reduce-gate: OK (${keys[*]} match $BASELINE)"
