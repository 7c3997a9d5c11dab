GO ?= go

.PHONY: ci vet build test race route-gate bench bench-smoke trace-smoke serve-smoke metrics-smoke soak router-smoke chaos-soak chaos-bench cache-gate fleet-trace-smoke affinity-bench membership-soak membership-bench slo-smoke slo-bench

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
# variant within a 3 s deadline, with the known verdict).
ci: vet build test race route-gate bench-smoke trace-smoke serve-smoke metrics-smoke router-smoke chaos-soak cache-gate fleet-trace-smoke membership-soak slo-smoke

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

race:
	$(GO) test -race -short ./internal/core ./internal/sat ./internal/obs \
		./internal/obs/history ./internal/obs/slo \
		./internal/server ./internal/server/client ./internal/router \
		./internal/tsys

# bench regenerates the current perf artifact at the repo root
# (BENCH_PR7.json): repeat-decide against a cache-enabled server (gate: warm
# p50 10x faster than cold, verdict identical to a no-cache control), a
# concurrent soak with 40% alpha-renamed spellings (gates: zero mismatches,
# hit rate above half the mix), and the BMC-stream sweep of one incremental
# solver session vs per-depth pipelines (gate: 1.5x). Schema documented in
# EXPERIMENTS.md.
bench:
	$(GO) run ./cmd/sufbench -cache -clients 8 -requests 96 -out BENCH_PR7.json

# perf-bench regenerates the solver perf-trajectory report: Sample16 encoded
# once per benchmark, then solved sequentially vs with the parallel
# clause-sharing portfolio, each entry embedding its telemetry snapshot.
# Schema documented in EXPERIMENTS.md.
perf-bench:
	$(GO) run ./cmd/sufbench -out BENCH_PR3.json

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

# soak hammers an in-process sufserved with concurrent retrying clients over
# Sample16 (verdicts verified against ground truth), runs a metrics-off
# baseline then a metrics-on pass with a /metrics scrape folded into the
# report, and gates telemetry overhead at <=2% of the server-side p50.
# Schema documented in EXPERIMENTS.md.
soak:
	$(GO) run ./cmd/sufbench -soak -out BENCH_PR5.json

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

# affinity-bench regenerates the cross-node cache-observability artifact at
# the repo root (BENCH_PR8.json): a kill/restart chaos soak under a hedging
# router with a cache-heavy mix, scraping every backend's sufsat_cache_*
# families into a warm-node affinity report, plus the tracing+slowlog
# instrumentation microbench gated at <=2% of the soak p50. Schema documented
# in EXPERIMENTS.md.
affinity-bench:
	$(GO) run ./cmd/sufbench -affinity -clients 10 -requests 200 -soak-timeout 6s \
		-out BENCH_PR8.json

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

# membership-bench regenerates the dynamic-membership artifact at the repo
# root (BENCH_PR9.json): the rolling-upgrade membership soak with its
# per-step key-movement record and the survivor cache-warmth comparison
# around the cold join. Schema documented in EXPERIMENTS.md.
membership-bench:
	$(GO) run ./cmd/sufbench -membership -clients 10 -requests 250 -soak-timeout 8s \
		-out BENCH_PR9.json

# slo-smoke is the SLO/profiling gate: a real sufserved with second-scale
# SLO windows and a 10ms latency threshold is flooded with slow requests
# until the latency-p95 objective burns. The burning gauge, transition
# counter, /statusz SLO block, /debug/history window, flight-recorder
# slo-burn event and exactly one rate-limited cpu+heap profile capture
# (strict-validated by tracecheck -profiles) are all asserted.
slo-smoke:
	$(GO) test -run TestSLOSmoke ./internal/server

# slo-bench regenerates the SLO/observability-overhead artifact at the repo
# root (BENCH_PR10.json): the history+SLO+trigger pipeline's per-request
# overhead measured against the PR 5 instrumentation-cost gate (<=2% of the
# soak p50), plus the time-to-detect for an injected latency regression.
# Schema documented in EXPERIMENTS.md.
slo-bench:
	$(GO) run ./cmd/sufbench -slo -out BENCH_PR10.json

# chaos-bench regenerates the fleet tail-latency artifact at the repo root:
# the same scripted chaos soaked twice, hedging on then off, gated on the
# hedged p99 being no worse than the unhedged p99. Schema documented in
# EXPERIMENTS.md.
chaos-bench:
	$(GO) run ./cmd/sufbench -chaos -clients 10 -requests 200 -soak-timeout 6s \
		-out BENCH_PR6.json
