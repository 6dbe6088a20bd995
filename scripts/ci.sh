#!/usr/bin/env bash
# Tier-1 gate: build everything, vet, and run the full test suite with
# the race detector enabled. The race run is mandatory — internal/fabric
# and internal/parsched mutate one shared link state from many
# goroutines, and their tests (plus the linkstate misuse tests) only
# prove their guarantees under -race.
set -euo pipefail
cd "$(dirname "$0")/.."

go build ./...
go vet ./...

# Formatting gate: fail on any file gofmt would rewrite.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -l flagged:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go test -race ./...

# Concurrency-focused pass: re-run the parallel engine, the fabric
# manager (including the fault revoke/re-admit chaos tests and the
# gray-failure flap-damping chaos test), the fault-injection package,
# and the federation router (whose plane-kill chaos test proves zero
# lost connections, plus the breaker/health gray tests) under -race
# with a doubled count, shaking out interleavings a single full-suite
# run can miss.
go test -race -count=2 ./internal/parsched ./internal/fabric ./internal/faults ./internal/federation

# Shard-engine stress: the high-worker-count shard tests (16 workers on
# deliberately small trees, steal on and off) force maximal queue
# contention and whole-shard steals; -count=2 under -race shakes out
# claim/steal interleavings a single run can miss.
go test -race -count=2 -run 'HighWorker' ./internal/parsched

# Bench smoke: compile and run every benchmark for exactly one iteration
# so bit-rot in the bench harnesses (including the parallel-engine and
# zero-allocation benches) fails CI without costing bench-grade runtime.
go test -run '^$' -bench . -benchtime 1x ./...

# Hot-path smoke: the cursor-advance and fabric-release benches exercise
# the table-driven topology kernel and the lock-free release ring end to
# end (including the /arith oracle variants); run them explicitly so a
# rename never silently drops them from the net above.
go test -run '^$' -bench 'BenchmarkRouteCursor' -benchtime 1x ./internal/topology
go test -run '^$' -bench 'BenchmarkFabricRelease' -benchtime 1x ./internal/fabric
go test -run '^$' -bench 'BenchmarkFederationThroughput' -benchtime 1x ./internal/federation

# Scaling-study smoke: one shard-engine point of the multi-core sweep
# (BENCH_scaling.json), so the -cpu matrix harness keeps compiling and
# the shard fast path keeps running end to end.
go test -run '^$' -bench 'BenchmarkScalingEngines/FT3x8x8/batch4096/local/shard$' -benchtime 1x -cpu 2 .

# Config round-trip smoke: the generator's output must load through the
# server's own -config path (stdin form), end to end through both CLIs.
go run ./cmd/fttopo gen -planes 4 -levels 3 -children 4 -parents 4 -policy least-loaded \
	| go run ./cmd/ftserve -config - -validate

# Allocation-regression guard: the scheduling hot path must stay at zero
# allocations per request — including the incremental delta path, which
# the same test pins; -count=2 re-runs it against warm scratch state,
# which is where a regression would hide.
go test -run 'TestScheduleIntoZeroAllocs' -count=2 ./internal/core

# Incremental-vs-batch golden smoke: over an arrivals-only workload the
# delta path must stay bit-identical to batch replay, at both the core
# layer and through the registry spec the fabric uses.
go test -run 'TestIncrementalArrivalsOnlyGolden' ./internal/core
go test -run 'TestIncrementalSpecGolden' ./internal/sched

# Churn-workload smoke: one small seeded run of the batch-replay vs
# incremental comparison (EXPERIMENTS.md E20), so the -churn harness
# keeps running end to end without bench-grade runtime.
go run ./cmd/ftbench -churn -churn-rate 8 -churn-life 4 -churn-epochs 20 -churn-reuse 2 -seed 1

# Gray-failure smoke: one short flaky-link point plus the degraded-plane
# federation point (EXPERIMENTS.md E21). The harness itself enforces the
# invariants — zero unaccounted connections and repair attempts within
# the retry-budget bound — so a regression fails the run, not just the
# numbers.
go run ./cmd/ftbench -gray -fabric-levels 2 -fabric-children 4 -fabric-parents 4 \
	-fabric-clients 8 -fabric-open 2 -fabric-duration 300ms -gray-rates 0,0.2 -seed 1

# Admission-pipeline smoke: one short -admit sweep point per epoch size
# (EXPERIMENTS.md E22), so the closed-loop latency harness keeps running
# end to end without bench-grade runtime.
go run ./cmd/ftbench -admit -fabric-duration 200ms -admit-epochs 1,8 \
	-admit-clients 4 -seed 1

# Connect-enqueue allocation guard: the admission enqueue path (slot
# acquire + pooled ticket + queue append) must stay at zero allocations
# per request; -count=2 re-runs it against a warm ticket pool, which is
# where a pool regression would hide.
go test -run 'TestConnectEnqueueZeroAllocs' -count=2 ./internal/fabric

# Admission-pipeline race pass: verdict delivery, the release ring, and
# the cancellation-vs-pooled-ticket chaos test all prove exactly-once
# delivery and retirement only under -race; -count=2 shakes out
# hand-off interleavings a single run can miss.
go test -race -count=2 -run 'TestDeliveryPipelineModes|TestCancelRacesPooledTickets|TestDrainRefusedCounter|TestReleaseRing' ./internal/fabric

# Spec-grammar fuzz smoke: a few seconds of fresh inputs on top of the
# checked-in corpus (which plain go test already replays): sched.Parse
# must never panic, and an accepted spec must parse again to an engine
# of the same name.
go test -run '^$' -fuzz FuzzParseSpec -fuzztime 5s ./internal/sched

# Config-loader fuzz smoke: a few seconds of fresh inputs on top of the
# checked-in corpus (an fttopo gen output, a width whose link tables
# would take gigabytes, the removed racy mode, a removed per-plane key,
# a bad duration, a negative weight): Load must never panic, an
# accepted config must Build, and Write→Load must round-trip it.
go test -run '^$' -fuzz FuzzLoadConfig -fuzztime 5s ./internal/federation

# Histogram fuzz smoke: a few seconds of fresh inputs on top of the
# checked-in corpus (NaN, ±Inf, zero, negative, subnormal and huge
# samples): Record must never panic, N must count every finite sample,
# and quantiles must be monotone in p and inside [Min, Max].
go test -run '^$' -fuzz FuzzHist -fuzztime 5s ./internal/stats
