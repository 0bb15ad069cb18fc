# Developer targets. The tier-1 gate is `make check`; `make bench-json`
# regenerates BENCH_core.json (minutes of wall time).

GO ?= go

.PHONY: check vet lint test race bench-smoke bench-proxy bench-objective bench-json bench-core bench-route bench-scale bench-scale-smoke

check: vet lint test race bench-smoke

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

# One iteration of each substrate microbenchmark — a fast sanity pass that
# the benchmarks still build and run, not a measurement.
bench-smoke: bench-proxy bench-objective bench-scale-smoke
	$(GO) test -run '^$$' -bench 'DistOptPass|LPSolve|CalculateObj' -benchtime 1x -timeout 20m .

# One rescan per registered geometry objective (BenchmarkObjectiveEval
# sub-benches). The measured series lands in BENCH_core.json's
# ObjectiveEval/<name> entries via bench-json; this target is the fast
# standalone pass.
bench-objective:
	$(GO) test -run '^$$' -bench 'ObjectiveEval' -benchtime 1x -timeout 10m .

# CI-sized scale sweep: one tiny design through the full flow, checking
# the sweep harness completes, routes and samples a peak heap
# (TestScaleSweepSmoke, ~5 s).
bench-scale-smoke:
	$(GO) test -run TestScaleSweepSmoke -timeout 10m ./internal/expt/

# The congestion-proxy evaluation hot path (incremental update + full
# window-grid scoring). Measured, not smoked: the guided selection design
# budget is <= ~50 us per family evaluation with a zero-alloc steady state
# (TestSteadyStateZeroAlloc in internal/proxy pins the alloc half).
bench-proxy:
	$(GO) test -run '^$$' -bench 'ProxyEval' -benchtime 100x -timeout 10m .

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

# Regenerates BENCH_scale.json: Workers 1/2/4 bitwise-invariance gate,
# then full flows at jpeg scales 0.1/0.5/2.0 recording wall, peak heap
# and routed QoR. The 2.0 points run a 109k-instance flow each;
# expect the better part of an hour on one core.
bench-scale:
	BENCH_JSON=1 $(GO) test -run TestEmitBenchScaleJSON -timeout 180m -v .
