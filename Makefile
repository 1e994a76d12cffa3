# Every CI step (.github/workflows/ci.yml) is one `make <target>`, in the
# order of the ci target's prerequisites (TestCIStepsAreMakeCI pins both), so
# `make ci` reproduces exactly what a pull request is checked against.

GO ?= go

# Coverage ratchet: `make cover` fails if total statement coverage drops
# below this. Raise it when coverage grows; never lower it.
COVER_MIN ?= 86.0

.PHONY: build test race allocs determinism bench bench-module fmt vet lint fuzz cover smoke ci

# Repo-specific static analysis (cmd/mglint): machine-checks the
# determinism and concurrency invariants — seeded randomness, no wall clock
# in simulation code, no order-sensitive metric-map iteration, no mixed
# atomic/plain field access, no float equality, over the non-test files of
# every package.
lint:
	$(GO) run ./cmd/mglint ./...

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

# The race step already runs every co-run test once; this re-asserts only
# the parallel≡serial determinism pins with -count=1, so a cached pass can
# never mask a scheduling-dependent regression. Every such pin is named
# *MatchesSerial or *BitIdenticalToSerial (plus the CMA-ES and halving tuner
# determinism tests, and mgserve's warm-platform-pool job against a serial
# standalone run); check the pattern with `go test -list` when adding
# one. The mgbench runs close the loop at the CLI: the heterogeneous
# 2.0+1.2 GHz dvfs chip, the homogeneous corun chip, the 2x2 spatial-grid
# chip, the equal-budget tuner comparison and a gd 4-core corun kind (its
# final configuration puts cores 0 and 3 at one phase offset, so they share
# a simulation) must print the same at -parallel 1 and 4.
determinism:
	$(GO) test -race -count=1 -run 'MatchesSerial|BitIdenticalToSerial|TestParallel(CMAES|Halving)Determinism' ./internal/multicore ./internal/stress ./internal/experiments ./internal/tuner ./internal/serve
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir" ./cmd/mgbench || exit 1; \
	for args in \
		"-experiment dvfs -quick -core small -cores 2 -freqs 2.0,1.2 -instructions 3000" \
		"-experiment corun -quick -core small -cores 2 -instructions 3000" \
		"-experiment spatial -quick -core small -cores 4 -grid 2x2 -instructions 3000" \
		"-kind tunercmp -quick -core small -cores 4 -grid 2x2 -instructions 3000 -tuner cmaes,halving-cmaes" \
		"-kind corun-noise-virus -quick -core small -cores 4 -instructions 3000"; do \
		echo "mgbench $$args: -parallel 1 vs 4"; \
		"$$dir/mgbench" $$args -parallel 1 | grep -v 'completed in' > "$$dir/serial.txt" || exit 1; \
		"$$dir/mgbench" $$args -parallel 4 | grep -v 'completed in' > "$$dir/parallel.txt" || exit 1; \
		diff "$$dir/serial.txt" "$$dir/parallel.txt" || exit 1; \
	done

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
# TestEveryFuzzTargetRunsInMakeFuzz fails when a target has no line here.
fuzz:
	$(GO) test -fuzz=FuzzEmit -fuzztime=10s -run='^$$' ./internal/program
	$(GO) test -fuzz=FuzzParse -fuzztime=10s -run='^$$' ./internal/config
	$(GO) test -fuzz=FuzzCanonicalKey -fuzztime=10s -run='^$$' ./internal/knobs
	$(GO) test -fuzz='^FuzzSumTraces$$' -fuzztime=10s -run='^$$' ./internal/powersim
	$(GO) test -fuzz='^FuzzSumTracesOneClockOracle$$' -fuzztime=10s -run='^$$' ./internal/powersim
	$(GO) test -fuzz='^FuzzGridLumpedOracle$$' -fuzztime=10s -run='^$$' ./internal/powersim
	$(GO) test -fuzz='^FuzzGridScratchReuse$$' -fuzztime=10s -run='^$$' ./internal/powersim
	$(GO) test -fuzz='^FuzzSupplyReplayStop$$' -fuzztime=10s -run='^$$' ./internal/powersim
	$(GO) test -fuzz='^FuzzWorstDroopsLanes$$' -fuzztime=10s -run='^$$' ./internal/powersim
	$(GO) test -fuzz='^FuzzGridSolvesInRegisters$$' -fuzztime=10s -run='^$$' ./internal/powersim
	$(GO) test -fuzz=FuzzDiskEntry -fuzztime=10s -run='^$$' ./internal/evalcache
	$(GO) test -fuzz=FuzzSimPlatformReuse -fuzztime=10s -run='^$$' ./internal/platform
	$(GO) test -fuzz=FuzzLRUInclusion -fuzztime=10s -run='^$$' ./internal/memsim
	$(GO) test -fuzz=FuzzWindowedRunMatchesTotals -fuzztime=10s -run='^$$' ./internal/cpusim
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

ci: fmt vet lint build race allocs determinism bench bench-module fuzz cover smoke
