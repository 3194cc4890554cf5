# Developer entry points. Everything here is plain `go` tooling; no
# extra dependencies are required.

GO         ?= go
BENCH      ?= BenchmarkScenarioDedup|BenchmarkAlgorithm1|BenchmarkHolistic|BenchmarkWorstFinishKernel|BenchmarkIslandDSE|BenchmarkSPEA2Select|BenchmarkDaemonWarmVsCold|BenchmarkDistributedTransport
# BENCHPKGS lists the packages searched for guarded benchmarks: the
# root integration benchmarks.
BENCHPKGS  ?= .
BENCHCOUNT ?= 3
BENCHOUT   ?= BENCH_core.json
FUZZTIME   ?= 20s

PROFDIR    ?= profiles

.PHONY: build test test-race perfbench lint wire-schema fuzz bench benchguard profile clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# perfbench vets and smoke-tests the end-to-end benchmark. It is its own
# module (perfbench/go.mod replaces mcmap with this tree), so
# `go build ./...` never compiles it: an API change it depends on would
# otherwise only surface when the benchmark runs.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# lint is the static-analysis gate: gofmt, go vet (its copylocks check
# rejects copied sync types), and the repo's own invariant linter
# (cmd/mcmaplint) — map-range ordering, pool-bounded goroutine
# spawning and deadline/cancellation guards per package, plus the
# call-graph rules over the whole module: determinism (direct and
# transitive), pinned wire schema, no mutex taken while another is held
# (DESIGN.md §8). CI additionally runs golangci-lint (.golangci.yml);
# locally this target needs nothing beyond the Go toolchain.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/mcmaplint ./...

# wire-schema regenerates the pinned wire/persistence fingerprint after
# an INTENTIONAL protocol change (DESIGN.md §10.5); review the diff as
# a protocol diff. CI fails when the committed golden is stale.
wire-schema:
	$(GO) run ./cmd/mcmaplint -wire-schema > internal/lint/testdata/wire_schema.golden
	@git diff --stat -- internal/lint/testdata/wire_schema.golden

# fuzz smoke-tests the spec input path, the static validator, the
# distributed frame layer, the analysis (production Reports against
# the reference backend's), whole-generation evaluation (evaluateAll
# against per-candidate Evaluate), the gene-level reliability check
# (against Decode plus reliability.Assess) and the gene-level compile
# and power model (against Decode plus platform.Compile and
# power.Expected) for $(FUZZTIME) each (the same budget the CI job
# uses). Native Go fuzzing: one target per invocation.
fuzz:
	$(GO) test ./internal/model -run '^$$' -fuzz FuzzReadSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/validate -run '^$$' -fuzz FuzzCheckSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dse -run '^$$' -fuzz FuzzTransportFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzReferenceReportParity -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dse -run '^$$' -fuzz FuzzEvaluateAllMatchesEvaluate -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dse -run '^$$' -fuzz FuzzGeneReliabilityMatchesAssess -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dse -run '^$$' -fuzz FuzzGeneCompileMatchesCompile -fuzztime $(FUZZTIME)

# bench runs the performance-critical micro-benchmarks and writes the
# machine-readable results (a test2json stream, one JSON object per
# line) to $(BENCHOUT) for tracking across commits, while the usual
# human-readable benchmark lines land on stdout. $(BENCHCOUNT)
# repetitions are recorded per benchmark; consumers (cmd/benchguard)
# take the minimum ns/op, which is the least noise-contaminated
# estimate on a shared machine.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -count $(BENCHCOUNT) $(BENCHPKGS) | tee bench.txt
	$(GO) tool test2json < bench.txt > $(BENCHOUT)
	@rm -f bench.txt
	@echo "wrote $(BENCHOUT)"

# benchguard re-measures the guarded benchmarks and fails when the hot
# kernels regressed >15% against the committed $(BENCHOUT) baseline, or
# when the parallel variants stop scaling: the -ratio assertions are
# evaluated WITHIN the fresh run (machine speed cancels out). The
# island gate compares islands=4 against running the same four
# trajectories sequentially — within 30%. The transport gate bounds
# persistent-TCP distributed runs against the fork/exec pipe mode.
# Same gates CI runs; see .github/workflows/ci.yml.
benchguard:
	$(GO) test -run '^$$' -bench 'BenchmarkAlgorithm1Scaling|BenchmarkHolisticBackend|BenchmarkScenarioDedup|BenchmarkIslandDSE|BenchmarkSPEA2Select|BenchmarkDaemonWarmVsCold|BenchmarkDistributedTransport' -benchmem -count 3 -json $(BENCHPKGS) > bench_current.json
	$(GO) run ./cmd/benchguard -baseline $(BENCHOUT) -current bench_current.json \
		-threshold 15 -require 'BenchmarkAlgorithm1Scaling|BenchmarkHolisticBackend|BenchmarkIslandDSE/islands=1|BenchmarkSPEA2Select' \
		-ratio 'BenchmarkIslandDSE/islands=4<=1.30*BenchmarkIslandDSE/islands=1,BenchmarkDaemonWarmVsCold:warm_over_cold<=0.20,BenchmarkDistributedTransport/transport=tcp<=1.10*BenchmarkDistributedTransport/transport=pipe'
	@rm -f bench_current.json

# profile captures cpu, mutex and block profiles of Algorithm 1 on
# growing systems and of the island-model GA, for hot-spot and
# contention hunting: the mutex and block profiles show where island
# workers serialize (the worker pool's semaphore and the sync.Pool
# caches of analysis scratch and evaluation workspaces), the cpu
# profile where the cycles go. Inspect with
#   go tool pprof $(PROFDIR)/bench.test $(PROFDIR)/analyze_cpu.out
profile:
	@mkdir -p $(PROFDIR)
	$(GO) test -run '^$$' -bench 'BenchmarkAlgorithm1Scaling' -o $(PROFDIR)/bench.test \
		-cpuprofile $(PROFDIR)/analyze_cpu.out -mutexprofile $(PROFDIR)/analyze_mutex.out \
		-blockprofile $(PROFDIR)/analyze_block.out .
	$(GO) test -run '^$$' -bench 'BenchmarkIslandDSE' -o $(PROFDIR)/bench.test \
		-cpuprofile $(PROFDIR)/island_cpu.out -mutexprofile $(PROFDIR)/island_mutex.out \
		-blockprofile $(PROFDIR)/island_block.out .
	@echo "profiles written to $(PROFDIR)/"

clean:
	rm -f $(BENCHOUT) bench.txt bench_current.json cpu.out mem.out
	rm -rf $(PROFDIR)
