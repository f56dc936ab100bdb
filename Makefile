# Verification entry points. `make verify` is what CI (and the roadmap's
# tier-1 gate) should run: the plain suite plus the race-detector leg over
# the short-mode suite, which covers the parallel sweep executor (stress
# test with thousands of tiny jobs) and the short parallel≡serial
# equivalence tests.

GO ?= go

.PHONY: build test test-serial race verify lint golden perfbench-check bench bench-sweep bench-smoke bench-json bench-diff serve-smoke profile

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# The short suite pinned to one scheduler thread: the epoch-barrier LP
# engine must stay correct (and free of spin-deadlocks) when its workers
# can only run cooperatively, the worst case for the phase barrier.
test-serial:
	GOMAXPROCS=1 $(GO) test -short ./...

# The race leg runs the short-mode suite: every test that spins up the
# executor (including TestRunAllStress and the short equivalence tests)
# under -race. It also arms the packet pool's mutate-after-release poison
# guard (build tag `race`). Long macro sweeps are excluded by testing.Short.
race:
	$(GO) test -race -short ./...

verify: test test-serial race

# gofmt (fail on any unformatted file) + go vet. CI runs staticcheck on
# top, advisory, since the repo vendors no tools.
lint:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

# The full golden corpus: every family's result digest (classic engine and
# LPWorkers 4) and every capture scenario's trace digest must match
# dshsim/testdata/golden. Without -short this includes the five heavy
# families (about 4 min on 2 vCPU).
golden:
	$(GO) test -count=1 -timeout 30m -run TestGolden -v ./dshsim/

# perfbench is its own module, so `go build ./...` never compiles it; this
# catches a dshsim API change that would break the benchmark.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

bench:
	$(GO) test -bench=. -benchmem

# Serial vs parallel executor scaling on this machine.
bench-sweep:
	$(GO) test -bench=SweepWorkers -benchtime=3x

# One iteration of every benchmark: a crash/assert smoke test, not a
# measurement.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -short -benchmem ./...

# Stable numbers for the perf trajectory: runs the kernel suite in
# dshsim/benchkit and writes the schema-stable JSON report. Writing also
# validates against the checked-in budgets (allocs/op, events/op, heap
# high-water), so this target fails on an allocation, event-count, or
# heap-growth regression.
bench-json:
	$(GO) run ./cmd/dshbench -bench-json BENCH_PR20.json

# The CI perf gate: record a fresh report (bench-report.json) on this host
# and diff it against the committed baseline BENCH_PR20.json. -strict makes
# the fresh report's alloc/event/heap budgets and any missing baseline kernel
# a hard failure; ns/op stays advisory (tolerance 1000) because the baseline
# was recorded on another host.
bench-diff:
	$(GO) run ./cmd/dshbench -bench-json bench-report.json
	$(GO) run ./cmd/dshbench -bench-diff -strict -bench-tolerance 1000 BENCH_PR20.json bench-report.json

# End-to-end smoke of the sweep service: build dshserve and dshbench,
# start the server on a random port, run a fig11 job, assert the identical
# resubmitted spec is a cache hit (response flag + /metrics counters) and
# that the server result is byte-identical to `dshbench -json`, then
# SIGTERM and assert a clean drain with the queue checkpoint written.
# Artifacts (server log, metrics scrape, result bodies) land in serve-smoke/.
serve-smoke:
	./scripts/serve_smoke.sh

# CPU + heap profiles of a representative sweep; see README "Profiling a
# sweep". Override PROFILE_EXP to profile a different experiment.
PROFILE_EXP ?= fig11
profile:
	$(GO) run ./cmd/dshbench -quiet -workers 1 \
		-cpuprofile cpu.pprof -memprofile mem.pprof $(PROFILE_EXP)
	@echo "wrote cpu.pprof and mem.pprof; inspect with: go tool pprof -top cpu.pprof"
