#!/usr/bin/env bash
# reduce-gate: the oracle gate for the memoized production explorer.
# E2 (the k=4 Algorithm 1 sweep), E15 (the Theorem 1.2 run), and the
# heavy E16 (the k=5 sweep) explore through the canonical-state memo in
# every production path; the exhaustive explorers are the oracle. The
# gate asserts:
#
#   1. exhaustive ≡ production: at every point the E2 and E15 schemas
#      accept, the memoized table encodes byte-identically to the
#      exhaustive one in text, json, and csv, and every range of three
#      carves of the prefix partition gives the exhaustive aggregate
#      and envelope bytes (TestReducedMatchesExhaustiveBytes, run by
#      name without -short);
#   2. the parallel memo at four workers accounts the serial execution
#      count, shares memo entries across its prefix ranges (shared >
#      0), and renders identical bytes in every format, E16 included
#      (TestReducedParallelMatchesSerial);
#   3. each exploring result of a cacheless `figures -v` run visited
#      strictly fewer states than it accounted executions, pruned at
#      least one subtree, and replayed strictly fewer executions than
#      it accounted (the `figures: explore <id> ...` counter lines);
#   4. the accounted execution counts match the committed
#      BENCH_explore.json baseline exactly: the execution count is part
#      of the experiment's meaning, so a drift here is a correctness
#      regression, not a perf change.
#
# E2 and E15 explore serially, so their counters are the same on any
# core count. E16 fans out over GOMAXPROCS workers, and its replay and
# state counts move with the fan-out; `GOMAXPROCS=1 make reduce-gate`
# records the serial counts the committed baseline holds.
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

# Baseline execution counts, read before the run overwrites $OUT.
# Bracket indexing, not .E2: jq lexes a bare `E2` as a malformed
# float exponent and rejects the whole filter.
base_e2_execs=""
base_e15_execs=""
base_e16_execs=""
if [ -f "$OUT" ]; then
  base_e2_execs=$(jq -r '.experiments["E2"].executions // empty' "$OUT" 2>/dev/null || true)
  base_e15_execs=$(jq -r '.experiments["E15"].executions // empty' "$OUT" 2>/dev/null || true)
  base_e16_execs=$(jq -r '.experiments["E16"].executions // empty' "$OUT" 2>/dev/null || true)
fi

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
  -run '^(TestReducedMatchesExhaustiveBytes|TestReducedParallelMatchesSerial)$' \
  ./internal/experiments

go build -o "$tmp/figures" ./cmd/figures
"$tmp/figures" -run E2,E15,E16 -timeout "$TIMEOUT" -v -o "$tmp/figures.txt" \
  2> "$tmp/reduce-explore.log"

# One counter line per exploring result:
#   figures: explore E2 visited=242 pruned=126 replays=146 executions=22080 workers=1 shared=0
counter() { # counter <id> <field>
  awk -v id="$1" -v field="$2=" \
    '$1 == "figures:" && $2 == "explore" && $3 == id {
       for (i = 4; i <= NF; i++) if (index($i, field) == 1) {
         sub(field, "", $i); print $i; exit
       }
     }' "$tmp/reduce-explore.log"
}

declare -A visited pruned replays execs
for id in E2 E15 E16; do
  visited[$id]=$(counter "$id" visited)
  pruned[$id]=$(counter "$id" pruned)
  replays[$id]=$(counter "$id" replays)
  execs[$id]=$(counter "$id" executions)
  if [ -z "${visited[$id]}" ] || [ -z "${pruned[$id]}" ] ||
     [ -z "${replays[$id]}" ] || [ -z "${execs[$id]}" ]; then
    echo "reduce-gate: missing explore counters for $id in figures -v stderr" >&2
    exit 1
  fi
  if [ "${visited[$id]}" -ge "${execs[$id]}" ]; then
    echo "reduce-gate: $id visited ${visited[$id]} states, not below ${execs[$id]} executions" >&2
    exit 1
  fi
  if [ "${pruned[$id]}" -eq 0 ]; then
    echo "reduce-gate: $id pruned no subtrees" >&2
    exit 1
  fi
  if [ "${replays[$id]}" -ge "${execs[$id]}" ]; then
    echo "reduce-gate: $id replayed ${replays[$id]}, memoization saved nothing over ${execs[$id]}" >&2
    exit 1
  fi
  echo "reduce-gate: $id ${execs[$id]} executions accounted from ${replays[$id]} replays" \
    "(${visited[$id]} states visited, ${pruned[$id]} pruned)"
done

# Execution counts are pinned to the committed baseline: they encode
# what the experiment enumerates, so only a deliberate registry change
# may move them (update $OUT in the same commit).
if [ -n "$base_e2_execs" ] && [ "${execs[E2]}" -ne "$base_e2_execs" ]; then
  echo "reduce-gate: E2 accounted ${execs[E2]} executions, baseline says $base_e2_execs" >&2
  exit 1
fi
if [ -n "$base_e15_execs" ] && [ "${execs[E15]}" -ne "$base_e15_execs" ]; then
  echo "reduce-gate: E15 accounted ${execs[E15]} executions, baseline says $base_e15_execs" >&2
  exit 1
fi
if [ -n "$base_e16_execs" ] && [ "${execs[E16]}" -ne "$base_e16_execs" ]; then
  echo "reduce-gate: E16 accounted ${execs[E16]} executions, baseline says $base_e16_execs" >&2
  exit 1
fi
if [ -z "$base_e2_execs" ]; then
  echo "reduce-gate: no committed baseline, skipping execution-count pin"
fi

# The throughput half: serial exhaustive vs memoized vs parallel memo
# on the same E2 space. workers=1 is the apples-to-apples serial
# reference; the parallel line reads workers=8. On a single-core host
# the parallel speedup hovers around (or below) 1x — the byte-identity
# and shared-entry gates above carry the correctness claim either way.
go test -run='^$' -bench='^BenchmarkExplore(Parallel|Memoized|MemoParallel)$' \
  -benchtime=1x . | tee "$tmp/bench.txt"
exhaustive_ns=$(awk '$1 ~ /^BenchmarkExploreParallel\/workers=1/ { print $3; exit }' "$tmp/bench.txt")
memoized_ns=$(awk '$1 ~ /^BenchmarkExploreMemoized/ { print $3; exit }' "$tmp/bench.txt")
parallel_ns=$(awk '$1 ~ /^BenchmarkExploreMemoParallel\/workers=8/ { print $3; exit }' "$tmp/bench.txt")
parallel_shared=$(awk '$1 ~ /^BenchmarkExploreMemoParallel\/workers=8/ {
  for (i = 4; i <= NF; i++) if ($i == "states_shared") { print $(i-1); exit }
}' "$tmp/bench.txt")
if [ -z "$exhaustive_ns" ] || [ -z "$memoized_ns" ] ||
   [ -z "$parallel_ns" ] || [ -z "$parallel_shared" ]; then
  echo "reduce-gate: could not parse explore benchmark output" >&2
  exit 1
fi

jq -n \
  --argjson e2_visited "${visited[E2]}" --argjson e2_pruned "${pruned[E2]}" \
  --argjson e2_replays "${replays[E2]}" --argjson e2_execs "${execs[E2]}" \
  --argjson e15_visited "${visited[E15]}" --argjson e15_pruned "${pruned[E15]}" \
  --argjson e15_replays "${replays[E15]}" --argjson e15_execs "${execs[E15]}" \
  --argjson e16_visited "${visited[E16]}" --argjson e16_pruned "${pruned[E16]}" \
  --argjson e16_replays "${replays[E16]}" --argjson e16_execs "${execs[E16]}" \
  --argjson exhaustive_ns "$exhaustive_ns" --argjson memoized_ns "$memoized_ns" \
  --argjson parallel_ns "$parallel_ns" --argjson parallel_shared "$parallel_shared" \
  '{
    experiments: {
      E2:  {executions: $e2_execs,  replays: $e2_replays,
            states_visited: $e2_visited,  states_pruned: $e2_pruned},
      E15: {executions: $e15_execs, replays: $e15_replays,
            states_visited: $e15_visited, states_pruned: $e15_pruned},
      E16: {executions: $e16_execs, replays: $e16_replays,
            states_visited: $e16_visited, states_pruned: $e16_pruned}
    },
    bench: {
      exhaustive_serial_ns_per_op: $exhaustive_ns,
      memoized_ns_per_op: $memoized_ns,
      parallel_ns_per_op: $parallel_ns,
      workers: 8,
      states_shared: $parallel_shared,
      speedup: (($exhaustive_ns / $memoized_ns * 10 | round) / 10),
      parallel_speedup: (($memoized_ns / $parallel_ns * 10 | round) / 10)
    }
  }' > "$OUT"

echo "reduce-gate: OK (E2 ${replays[E2]}/${execs[E2]} replays," \
  "E15 ${replays[E15]}/${execs[E15]} replays," \
  "E16 ${replays[E16]}/${execs[E16]} replays," \
  "$(jq -r '.bench.speedup' "$OUT")x serial speedup," \
  "$(jq -r '.bench.parallel_speedup' "$OUT")x parallel-over-memo at 8 workers) -> $OUT"
