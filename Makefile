# Developer targets. The tier-1 gate is `make check`; `make bench-json`
# regenerates BENCH_core.json (minutes of wall time).

GO ?= go

.PHONY: check vet lint test race fuzz-lp bench-harness bench-smoke bench-objective bench-json bench-core bench-route

check: vet lint test race bench-harness bench-smoke

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

# The race gate covers the packages that own goroutines: parallel window
# solves sharing an objective tracker and per-worker LP arenas, the
# batched parallel router sharing live usage arrays, and the pipeline /
# parallel-sweep layers (flow, expt) that fan work out over them.
race:
	$(GO) test -race -timeout 30m ./internal/core/... ./internal/lp/... ./internal/milp/... ./internal/route/... ./internal/flow/... ./internal/expt/... ./internal/objective/...

# Thirty seconds of coverage-guided fuzzing of the LP kernel against the
# dense-inverse reference (FuzzLPKernelAgreement: cold solves, then warm
# branch-and-bound sequences through Forrest–Tomlin updates and restored
# bases), on top of the seed corpus that go test runs every time.
fuzz-lp:
	$(GO) test -run '^$$' -fuzz FuzzLPKernelAgreement -fuzztime 30s ./internal/lp

# The vm1bench harness's own tests (TestBenchmarkJSONMatchesHarness among
# them). bench/ is a nested module, so `go test ./...` never reaches it.
bench-harness:
	cd bench && $(GO) test .

# One iteration of each substrate microbenchmark — a fast sanity pass that
# the benchmarks still build and run, not a measurement.
bench-smoke: bench-objective
	$(GO) test -run '^$$' -bench 'DistOptPass|LPSolve|CalculateObj|RouteAll' -benchtime 1x -timeout 20m .

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

# Regenerates BENCH_route.json: the sequential/parallel RouteAll pair plus
# the speedup over the seed router, with a Metrics-equality check.
bench-route:
	BENCH_JSON=1 $(GO) test -run TestEmitBenchRouteJSON -timeout 30m -v .
