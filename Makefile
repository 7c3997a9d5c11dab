GO ?= go

.PHONY: ci vet build test race route-gate fuzz-smoke bench perfbench-smoke bench-smoke trace-smoke serve-smoke metrics-smoke router-smoke chaos-soak cache-gate fleet-trace-smoke membership-soak slo-smoke

# ci is the full verification gate: static analysis, build, the whole test
# suite, a race-detector pass over the concurrency-bearing packages (the
# portfolio racer, the parallel clause-sharing SAT core, the telemetry
# recorder, metrics registry and flight recorder, the decision service and
# the fleet router), a one-shot benchmark smoke run that keeps the bench
# harness compiling and solving, a telemetry smoke run that validates the
# trace and JSON-stats artifacts against their documented schemas, a
# process-level smoke of the sufserved daemon lifecycle, a metrics smoke that
# scrapes /metrics and SIGQUIT-dumps the flight recorder from a live server,
# a process-level smoke of the sufrouter fleet tier (kill a backend, assert
# failover and a strict /metrics parse), the chaos soak (crash/restart +
# latency/blackhole chaos under verifying load, gated on zero mismatches,
# 99%+ availability and zero leaked goroutines), and the cache gate (cached
# repeats 10x faster than cold with a no-cache control agreeing, the
# incremental BMC session 1.5x faster than per-depth, and a race-instrumented
# cache-mix soak with zero verdict mismatches), plus the fleet-trace smoke
# (real router + backends, a kill mid-run, and the merged cross-tier trace
# strict-validated by tracecheck -fleet), and the membership soak (every
# backend of a live fleet rolled through drain -> SIGKILL -> restart -> rejoin
# plus a cold join mid-load, gated on zero mismatches, 99%+ availability, the
# predicted epoch, ~1/N key movement per step and zero leaked goroutines),
# and the SLO smoke (flood a 1-worker sufserved until the latency objective
# burns, assert the state transition in /metrics + the flight recorder and
# exactly one rate-limited profile capture validated by tracecheck -profiles),
# and the route gate (default Hybrid decides every suite formula and invalid
# variant within a 3 s deadline, with the known verdict), and the fuzz smoke
# (a short fixed-time run of the CNF encoder's fuzz target), and the perfbench
# smoke (the benchmark module's vet and tests, which `./...` does not reach,
# plus a short run of every workload).
ci: vet build test race route-gate fuzz-smoke bench-smoke trace-smoke serve-smoke metrics-smoke router-smoke chaos-soak cache-gate fleet-trace-smoke membership-soak slo-smoke perfbench-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# route-gate: default Hybrid routing must decide the whole suite plus the
# invalid variants, each within a 3 s deadline, with checked verdicts and
# models.
route-gate:
	$(GO) test -count=1 -run '^TestHybridDecidesSuite$$' .

# fuzz-smoke: fuzz the CNF encoder for a short fixed time. Every fuzzed DAG
# must encode to a CNF that agrees with enumeration on satisfiability and on
# every assignment of its variables.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzAssertTrue$$' -fuzztime 10s ./internal/boolexpr

race:
	$(GO) test -race -short ./internal/core ./internal/sat ./internal/obs \
		./internal/obs/history ./internal/obs/slo \
		./internal/server ./internal/server/client ./internal/router \
		./internal/tsys

PERFBENCH_WORKLOADS = suite-hybrid suite-sd serve-mix

# perfbench-run runs every perfbench workload for $(1) seconds, untraced, and
# prints each one's result line; the full output goes to .bench_build/.
define perfbench-run
	mkdir -p .bench_build
	for w in $(PERFBENCH_WORKLOADS); do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds $(1) --trace 0 \
			>.bench_build/run-$$w.out || { tail -n 5 .bench_build/run-$$w.out; exit 1; }; \
		echo "$$w: $$(tail -n 1 .bench_build/run-$$w.out)"; \
	done
endef

# bench runs the repository's benchmark, perfbench (see perfbench/README.md
# and BENCHMARK.json): each workload for 30 s with seed 1.
bench:
	$(call perfbench-run,30)

# perfbench-smoke vets and tests the perfbench module (a nested module, so
# the root `./...` never compiles it) and runs each workload for 3 s, so a
# change to a package perfbench imports cannot silently break the benchmark.
perfbench-smoke:
	cd perfbench && GOTOOLCHAIN=local GOPROXY=off $(GO) vet ./... && GOTOOLCHAIN=local GOPROXY=off $(GO) test ./...
	$(call perfbench-run,3)

bench-smoke:
	$(GO) test -run=NONE -bench=BenchmarkSolve -benchtime=1x ./internal/sat

# trace-smoke drives sufdecide with every telemetry sink on an example and
# validates the artifacts: the Chrome trace must contain the hybrid pipeline
# phases in order and the JSON snapshot must match the schema in
# docs/FORMATS.md (strict decode, no unknown fields).
trace-smoke:
	$(GO) run ./cmd/sufdecide -method hybrid -j 2 \
		-trace /tmp/sufsat-trace-smoke.json \
		-stats=json -stats-out /tmp/sufsat-stats-smoke.json \
		examples/formulas/congruence.suf
	$(GO) run ./cmd/tracecheck \
		-trace /tmp/sufsat-trace-smoke.json \
		-stats /tmp/sufsat-stats-smoke.json \
		-want-spans funcelim,analyze,encode,trans,cnf,sat

# serve-smoke builds cmd/sufserved and exercises the daemon end to end:
# ephemeral port, valid/invalid/malformed requests through the retrying
# client, SIGTERM drain with exit 0 and the final counter audit line.
serve-smoke:
	$(GO) test -run TestServedProcessSmoke ./internal/server

# metrics-smoke is the process-level observability gate: serve with metrics
# on, drive correlated requests, scrape /metrics to a file and validate it
# with tracecheck, then SIGQUIT under live load and validate the flight dump
# (strict parse, in-flight requests present).
metrics-smoke:
	$(GO) test -run TestServedMetricsSmoke ./internal/server

# router-smoke is the process-level fleet gate: a real sufrouter over two
# real sufserved processes, one backend SIGKILLed mid-run. Every verdict must
# keep arriving via failover, the dead backend's breaker must open, and the
# router's /metrics exposition must strict-parse with the sufrouter_*
# families present.
router-smoke:
	$(GO) test -run TestRouterProcessSmoke ./internal/bench

# chaos-soak is the fleet chaos gate, run with -race so the in-process
# router is instrumented: 10 verifying clients through a hedging router over
# three sufserved processes while one backend is SIGKILLed and restarted on a
# schedule and another sits behind a proxy cycling latency and blackhole
# windows. Zero verdict mismatches, 99%+ availability (definitive answer or
# clean 503) and zero leaked goroutines, or the gate fails.
chaos-soak:
	$(GO) test -race -run TestChaosSoak ./internal/bench

# cache-gate is the caching/incrementality verification gate. The timing
# halves run uninstrumented (a 10x and a 1.5x wall-clock ratio are meaningless
# under the race detector's slowdown); the correctness half — concurrent
# cache-mix soak where every cached verdict is checked against ground truth —
# runs with -race so cache and single-flight internals are instrumented while
# being hammered.
cache-gate:
	$(GO) test -run 'TestCacheColdWarmSpeedup|TestBatchDecide' ./internal/server
	$(GO) test -run TestBMCStreamSpeedup ./internal/bench
	$(GO) test -race -run TestSoakCacheMix ./internal/server

# fleet-trace-smoke is the distributed-tracing gate: real sufrouter and
# sufserved processes end to end. Phase 1 kills a request's home backend and
# requires the failover to surface in ONE merged cross-tier Chrome trace that
# the strict `tracecheck -fleet` validator accepts. Phase 2 is the full
# acceptance scenario — primary blackholed at the wire, hedge target dead,
# failover target cache-warm — so a single request is simultaneously hedged,
# failed over and cache-served, with the whole disposition in the merged
# trace and the router's /debug/slowlog.
fleet-trace-smoke:
	$(GO) test -run TestFleetTraceSmoke ./internal/bench

# membership-soak is the rolling-upgrade chaos gate, run with -race so the
# in-process router is instrumented: every backend of a live 3-node fleet is
# rolled through drain -> SIGKILL -> restart -> rejoin via the admin API while
# verifying clients hammer the router, then a cold backend joins mid-load via
# the declarative PUT. Zero verdict mismatches, 99%+ availability, the epoch
# exactly where the choreography predicts, ~1/N key movement per step, warm
# survivors still serving cache hits after the join, and zero leaked
# goroutines — or the gate fails. The companion process test pins SIGHUP and
# PUT to the same Reconfigure path on a real sufrouter.
membership-soak:
	$(GO) test -race -run 'TestMembershipSoak|TestRouterMembershipProcess' ./internal/bench

# slo-smoke is the SLO/profiling gate: a real sufserved with second-scale
# SLO windows and a 10ms latency threshold is flooded with slow requests
# until the latency-p95 objective burns. The burning gauge, transition
# counter, /statusz SLO block, /debug/history window, flight-recorder
# slo-burn event and exactly one rate-limited cpu+heap profile capture
# (strict-validated by tracecheck -profiles) are all asserted.
slo-smoke:
	$(GO) test -run TestSLOSmoke ./internal/server
