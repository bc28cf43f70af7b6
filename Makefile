# Makefile — the commands CI runs are exactly the commands humans run.
GO ?= go

.PHONY: build test test-short race-sched race-cache bench lint figures cover fuzz-smoke reduce-gate cache-surgery warm-bytes

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
# (grant, crash, halt, deadlock, budget, scheduler error, panic) is
# exercised repeatedly, and so are the kept runners of serial
# explorations running side by side (TestExplorePrefixesPooledFrontier,
# TestExploreParallel*). It also runs Algorithm 1's memo tests
# (internal/agreement, TestAlg1Memo*, about 35 s): a memo exploration
# resets one system's memory between replays while the kept runner's
# goroutines are still returning from the last one.
race-sched:
	$(GO) test -race -count=10 -run '^(TestRun|TestStepWhen|TestSolo|TestCrashAt|TestDecisionTrace|TestProgramOrder|TestRoundRobin|TestRandom|TestReplay|TestExplorePrefixesPooledFrontier|TestExploreParallel)' ./internal/sched
	$(GO) test -race -count=10 -run '^TestAlg1Memo' ./internal/agreement

# race-cache runs the artifact store's concurrency tests ten times
# under the race detector: readers filling the memory tier, and the
# first request of each format filling a table's stored body, race the
# writes that drop its keys (internal/cache), and the server's mixed
# traffic and rejected-slice overwrite go through the same tier
# (internal/server).
race-cache:
	$(GO) test -race -count=10 -run '^(TestConcurrent|TestParamEmptyDelegatesToFixed|TestSliceStoreRejectedAggregateRecomputed)' ./internal/cache ./internal/server

# bench runs every go test benchmark once, so a benchmark that breaks
# fails CI. It is a smoke run, not a measurement: speed is measured by
# the benchmark of record in bench/ (sh bench/run.sh).
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

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

# cache-surgery proves per-family cache identity on a live fleet: warm
# a two-worker fleet plus front cache over E1,E2,E7,E15, swap in
# binaries built with an E2-only space-version bump (ldflags), and the
# same run must re-execute E2 alone — 3/4 front-cache hits, the other
# families never reaching the fleet, bytes identical throughout.
cache-surgery:
	./scripts/cache-surgery.sh

# warm-bytes proves a warm daemon and a long-lived front door serve
# the CLI's bytes: a cache-backed figuresd serves E1, E2, E7, E15,
# E2?k=3 and E15?c=3 in every format, a daemon restarted on the same
# store serves each twice (the tier and the format's stored body fill,
# then a stored-bytes hit), and a storeless figuresd -peers front door
# over two workers on that store serves each twice more (every E2 and
# E15 point carved once, its later requests reusing the carve). Every
# body must equal `figures` output, the restarted daemon's /stats must
# read 36 hits and 0 misses, and the workers' /stats four slice lookups
# per carved front-door request.
warm-bytes:
	./scripts/warm-bytes.sh

# reduce-gate is the oracle gate of the memoized production explorer:
# the exhaustive explorers must render E2 and E15 byte-identically to
# production in every format at every served point and carved range
# (TestReducedMatchesExhaustiveBytes, not -short), and the `figures -v`
# counter lines of cacheless E2, E15 and E2 k=5 runs must show real
# pruning. All four counters of each run (executions, replays, states
# visited and pruned) are pinned to the committed BENCH_explore.json,
# which the gate only reads.
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
