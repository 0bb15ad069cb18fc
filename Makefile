# Developer targets. The tier-1 gate is `make check`; `make bench-json`
# regenerates BENCH_core.json (minutes of wall time).

GO ?= go

.PHONY: check fmt vet lint test race fuzz-lp fuzz-lefdef bench-harness bench-smoke bench-objective bench-json bench-core bench-route

check: fmt vet lint test race bench-harness bench-smoke

# Fails when gofmt would reformat any tracked Go file (the nested bench/
# module and analyzer testdata included), listing the offenders.
fmt:
	@files=$$(git ls-files '*.go') && [ -n "$$files" ] || { echo "fmt: no tracked Go files"; exit 1; }; \
	out=$$(gofmt -l $$files) || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# vm1lint is the static-invariant suite (internal/analysis): maporder,
# panicguard, ctxflow, wrapcheck and clockrand. It subsumes the old
# grep-based panic-guard with compiler-grade checks over the typed AST;
# see DESIGN.md "Static invariants" for what each analyzer enforces and
# the `// <tag>-ok: reason` suppression convention.
lint:
	$(GO) run ./cmd/vm1lint ./...

test:
	$(GO) build ./... && $(GO) test ./...

# The race gate covers the packages that own goroutines (parallel window
# solves sharing an objective tracker and per-worker LP arenas: core, lp,
# milp, objective) and the flow and expt layers, whose tests run whole
# flows over those solves and cancel them. Flow points run one after
# another and the router is sequential; its package is in the list so a
# goroutine added there is raced from the start.
race:
	$(GO) test -race -timeout 30m ./internal/core/... ./internal/lp/... ./internal/milp/... ./internal/route/... ./internal/flow/... ./internal/expt/... ./internal/objective/...

# Thirty seconds of coverage-guided fuzzing of the LP kernel against the
# dense-inverse reference (FuzzLPKernelAgreement: cold solves, then warm
# branch-and-bound sequences through Forrest–Tomlin updates and restored
# bases), on top of the seed corpus that go test runs every time.
fuzz-lp:
	$(GO) test -run '^$$' -fuzz FuzzLPKernelAgreement -fuzztime 30s ./internal/lp

# Fifteen seconds of coverage-guided fuzzing for each LEF/DEF parser:
# neither may panic, and every placement ParseDEF accepts must be legal and
# survive WriteDEF → ParseDEF unchanged. Minimizing a new coverage input
# may take at most 1 s (the default is 60 s), so one slow minimization
# cannot use up the whole budget.
fuzz-lefdef:
	$(GO) test -run '^$$' -fuzz FuzzParseDEF -fuzztime 15s -fuzzminimizetime 1s ./internal/lefdef
	$(GO) test -run '^$$' -fuzz FuzzParseLEF -fuzztime 15s -fuzzminimizetime 1s ./internal/lefdef

# The vm1bench harness's own tests (TestBenchmarkJSONMatchesHarness among
# them). bench/ is a nested module, so `go test ./...` never reaches it.
bench-harness:
	cd bench && $(GO) test .

# One iteration of each substrate microbenchmark — a fast sanity pass that
# the benchmarks still build and run, not a measurement of time. The
# router's BenchmarkRouteAll (internal/route) also prints its per-pass A*
# searches and pops, which do not depend on the host. BenchmarkFactorize
# (internal/lp) factors every basis of its committed corpus once before it
# times one.
bench-smoke: bench-objective
	$(GO) test -run '^$$' -bench 'DistOptPass|LPSolve|CalculateObj|RouteAll|Factorize' -benchtime 1x -timeout 20m . ./internal/route ./internal/lp

# One rescan per registered geometry objective (BenchmarkObjectiveEval
# sub-benches). The measured series lands in BENCH_core.json's
# ObjectiveEval/<name> entries via bench-json; this target is the fast
# standalone pass.
bench-objective:
	$(GO) test -run '^$$' -bench 'ObjectiveEval' -benchtime 1x -timeout 10m .

bench-json:
	BENCH_JSON=1 $(GO) test -run TestEmitBenchCoreJSON -timeout 30m -v .

# Regenerates BENCH_core.json (alias of bench-json, named for symmetry with
# bench-route): DistOptPass, LPSolve and the other core microbenchmarks,
# including the simplex-kernel counters (pivots/solve, refactors/solve).
bench-core: bench-json

# Regenerates BENCH_route.json: RouteAllSeq (a full routing of a
# 2000-instance ClosedM1 design), with GOMAXPROCS recorded.
bench-route:
	BENCH_JSON=1 $(GO) test -run TestEmitBenchRouteJSON -timeout 30m -v .
