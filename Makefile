# Local targets mirror the CI pipeline (.github/workflows/ci.yml) step for
# step, so `make ci` reproduces exactly what a pull request is checked
# against.

GO ?= go

# Coverage ratchet: `make cover` fails if total statement coverage drops
# below this. Raise it when coverage grows; never lower it.
COVER_MIN ?= 84.0

.PHONY: build test race allocs bench bench-module perf fmt vet lint fuzz cover smoke ci

# Repo-specific static analysis (cmd/mglint): machine-checks the
# determinism and concurrency invariants — seeded randomness, no wall clock
# in simulation code, no order-sensitive metric-map iteration, no mixed
# atomic/plain field access, no float equality. Runs standalone here; the
# same binary also works as `go vet -vettool=`.
lint:
	$(GO) run ./cmd/mglint ./...

# Performance-trajectory harness: measures evaluation throughput, the
# chip-trace aggregation and grid-solve costs and the memo counters, and
# writes the
# BENCH_<n>.json report (schema in ROADMAP.md). Pass PERF_ARGS for knobs,
# e.g. `make perf PERF_ARGS="-out BENCH_6.json -baseline bench_base.json"`.
PERF_ARGS ?=
perf:
	$(GO) run ./cmd/mgperf $(PERF_ARGS)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The allocation pins (testing.AllocsPerRun) skip under the race detector,
# where sync.Pool drops items at random, so they get a non-race run here.
allocs:
	$(GO) test -count=1 -run 'Allocs' ./internal/...

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./...

# The repo benchmark (benchmark/) is a module of its own that imports this
# module's internal packages, so the root build, vet and test never see it.
# This vets and tests it against the current tree; its smoke test asserts
# that a traced run replays with zero mismatches.
bench-module:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:"; \
		echo "$$out"; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

# Short fuzz smoke runs of every fuzz target (one -fuzz per invocation; the
# powersim package has several targets, so their patterns are anchored).
fuzz:
	$(GO) test -fuzz=FuzzEmit -fuzztime=10s -run='^$$' ./internal/program
	$(GO) test -fuzz=FuzzParse -fuzztime=10s -run='^$$' ./internal/config
	$(GO) test -fuzz=FuzzCanonicalKey -fuzztime=10s -run='^$$' ./internal/knobs
	$(GO) test -fuzz='^FuzzSumTraces$$' -fuzztime=10s -run='^$$' ./internal/powersim
	$(GO) test -fuzz='^FuzzSumTracesOneClockOracle$$' -fuzztime=10s -run='^$$' ./internal/powersim
	$(GO) test -fuzz='^FuzzGridLumpedOracle$$' -fuzztime=10s -run='^$$' ./internal/powersim
	$(GO) test -fuzz='^FuzzSupplyReplayStop$$' -fuzztime=10s -run='^$$' ./internal/powersim
	$(GO) test -fuzz='^FuzzWorstDroopsLanes$$' -fuzztime=10s -run='^$$' ./internal/powersim
	$(GO) test -fuzz=FuzzDiskEntry -fuzztime=10s -run='^$$' ./internal/evalcache
	$(GO) test -fuzz=FuzzJobRequest -fuzztime=10s -run='^$$' ./internal/serve

cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total="$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
	echo "total coverage: $$total% (minimum $(COVER_MIN)%)"; \
	ok="$$(awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN { print (t+0 >= m+0) ? 1 : 0 }')"; \
	if [ "$$ok" != "1" ]; then \
		echo "coverage $$total% fell below the $(COVER_MIN)% ratchet"; \
		exit 1; \
	fi

smoke:
	./scripts/smoke.sh

ci: fmt vet lint build race allocs bench bench-module fuzz cover smoke
