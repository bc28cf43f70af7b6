# Makefile — the commands CI runs are exactly the commands humans run.
GO ?= go

.PHONY: build test test-short race-sched bench bench-json lint figures cover fuzz-smoke load-smoke reduce-gate cache-surgery

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-short is the CI gate: skips the exhaustive explorations
# (internal/task, internal/impossibility, internal/snapshot) and runs
# everything else under the race detector.
test-short:
	$(GO) test -short -race ./...

# race-sched runs the step runner's tests ten times under the race
# detector. The step, and the runner state with it, passes from process
# goroutine to process goroutine, so every way a step changes hands
# (grant, crash, halt, deadlock, budget, scheduler error, panic) and the
# pooled runners of the parallel explorers are exercised repeatedly.
race-sched:
	$(GO) test -race -count=10 -run '^(TestRun|TestStepWhen|TestSolo|TestCrashAt|TestDecisionTrace|TestProgramOrder|TestRoundRobin|TestRandom|TestReplay|TestExplorePrefixesPooledFrontier|TestExploreParallel)' ./internal/sched

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-json emits the same sweep as test2json events (one JSON object
# per line), the machine-readable form tooling can track over time.
bench-json:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -json ./...

# lint also vets the benchmark module (bench/, its own go.mod): its
# layer ladder builds against this module's packages, so a refactor
# that breaks the ladder fails here, not only in the benchmark.
lint:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) -C bench vet ./...

# cover reports internal/sched + internal/shard + internal/cache +
# internal/hist + internal/trace coverage — the packages the
# prefix-sharding protocol, the artifact-cache hierarchy, and the
# latency/tracing observability layer live in. CI enforces a floor on
# the combined total.
cover:
	$(GO) test -short -cover -coverprofile=cover.out ./internal/sched ./internal/shard ./internal/cache ./internal/hist ./internal/trace
	$(GO) tool cover -func=cover.out | tail -1

# load-smoke boots a two-worker figuresd fleet and drives a short
# mixed whole/slice load through `figures load`, writing
# BENCH_load.json and asserting zero errors and per-endpoint
# p50/p95/p99 on /stats — the latency-trajectory gate CI runs on
# every push.
load-smoke:
	./scripts/load-smoke.sh

# cache-surgery proves per-family cache identity on a live fleet: warm
# a two-worker fleet plus front cache over E1,E2,E7,E15, swap in
# binaries built with an E2-only space-version bump (ldflags), and the
# same run must re-execute E2 alone — 3/4 front-cache hits, the other
# families never reaching the fleet, bytes identical throughout.
cache-surgery:
	./scripts/cache-surgery.sh

# reduce-gate is the oracle gate of the memoized production explorer:
# the exhaustive explorers must render E2 and E15 byte-identically to
# production in every format at every served point and carved range
# (TestReducedMatchesExhaustiveBytes, not -short), and the `figures -v`
# counter lines of cacheless E2, E15 and E2 k=5 runs must show real
# pruning. Execution counts are pinned to the committed
# BENCH_explore.json baseline (which the gate rewrites with fresh
# counters and ns/op).
reduce-gate:
	./scripts/reduce-gate.sh

# fuzz-smoke runs each fuzz target briefly: arbitrary bytes must never
# panic the results decoder, the cache read path, the canonical-state
# fingerprint, or the prefixes-to-memoized-exploration pipeline, and
# random (system, carve) points must keep the memo's aggregate and
# execution count equal to the exhaustive explorer's.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeJSON$$' -fuzztime=10s ./internal/experiments
	$(GO) test -run='^$$' -fuzz='^FuzzCacheGet$$' -fuzztime=10s ./internal/cache
	$(GO) test -run='^$$' -fuzz='^FuzzCanonicalState$$' -fuzztime=10s ./internal/memory
	$(GO) test -run='^$$' -fuzz='^FuzzPrefixesMemoExplore$$' -fuzztime=10s ./internal/experiments
	$(GO) test -run='^$$' -fuzz='^FuzzMemoMatchesExhaustive$$' -fuzztime=10s ./internal/sched

figures:
	$(GO) run ./cmd/figures
