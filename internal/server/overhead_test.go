package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sufsat/internal/bench"
	"sufsat/internal/obs"
	"sufsat/internal/obs/history"
	"sufsat/internal/obs/slo"
	"sufsat/internal/server"
)

// TestObservabilityOverhead holds the whole observability stack to at most
// 2% of the server-side request p50. The cost side adds three isolated
// measurements: the per-request metrics and flight-recorder path, the
// per-request tracing and slowlog path, and one history-snapshot-plus-SLO
// cycle amortized at a 1 s cadence over the measured request rate. The p50
// is read off /metrics after an in-process, metrics-on pass over Sample16.
// Each part is pure CPU (no network, no scheduler), so the gate compares
// costs rather than two noisy wall-clock throughputs.
func TestObservabilityOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead gate skipped in -short mode")
	}
	const (
		limit       = 0.02
		sloInterval = time.Second
	)
	s := server.New(server.Config{
		NoCache: true,
		Metrics: obs.NewRegistry(),
		Flight:  obs.NewFlightRecorder(obs.DefaultFlightSize),
	})
	defer s.Shutdown(context.Background()) //nolint:errcheck
	h := s.Handler()
	bms := bench.Sample16()
	start := time.Now()
	for _, bm := range bms {
		f, _ := bm.Build()
		body, err := json.Marshal(server.Request{Formula: f.String(), TimeoutMS: 30000})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/decide", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", bm.Name, w.Code, w.Body)
		}
	}
	rps := float64(len(bms)) / time.Since(start).Seconds()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	scrape, err := obs.ParsePrometheus(w.Body)
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	var buckets []obs.PromSample
	for _, smp := range scrape.Family("sufsat_request_duration_seconds").Samples {
		if smp.Name == "sufsat_request_duration_seconds_bucket" {
			buckets = append(buckets, smp)
		}
	}
	p50US := obs.HistQuantile(0.50, buckets) * 1e6
	if p50US <= 0 {
		t.Fatal("empty request-duration histogram after the Sample16 pass")
	}

	metricsUS := measureMetricsPath()
	traceUS := measureTracePath()
	cycleUS := measureHistorySLOCycle()
	amortizedUS := cycleUS / (sloInterval.Seconds() * rps)
	total := metricsUS + traceUS + amortizedUS
	t.Logf("per request: metrics %.2fµs + tracing %.2fµs + history/SLO %.2fµs (%.0fµs per cycle at %.1f rps) = %.2fµs = %.4f%% of p50 %.0fµs",
		metricsUS, traceUS, amortizedUS, cycleUS, rps, total, 100*total/p50US, p50US)
	if frac := total / p50US; frac > limit {
		t.Errorf("observability costs %.3f%% of the request p50, limit %.0f%%", 100*frac, 100*limit)
	}
}

// overheadSnapshot is the telemetry snapshot of a mid-size hybrid decision:
// its span set, solver counters and per-worker breakdown.
func overheadSnapshot() *obs.Snapshot {
	return &obs.Snapshot{
		Method: "HYBRID",
		Status: "valid",
		Pipeline: obs.PipelineStats{
			Classes: 12, SDClasses: 8, EIJClasses: 4, DemotedClasses: 1,
			CNFClauses: 40000,
		},
		SAT: obs.SolverStats{
			Decisions: 12000, Propagations: 400000, Conflicts: 3000, Restarts: 11,
		},
		Parallel: &obs.ParallelSnap{
			Workers: 4,
			PerWorker: []obs.WorkerSnap{
				{ID: 0, SolverStats: obs.SolverStats{Conflicts: 900}},
				{ID: 1, SolverStats: obs.SolverStats{Conflicts: 700}},
				{ID: 2, SolverStats: obs.SolverStats{Conflicts: 800}},
				{ID: 3, SolverStats: obs.SolverStats{Conflicts: 600}},
			},
		},
		Spans: []obs.SpanRecord{
			{Name: "request", DurMS: 25},
			{Name: "parse", DurMS: 0.4},
			{Name: "funcelim", DurMS: 1.1},
			{Name: "analyze", DurMS: 0.6},
			{Name: "encode", DurMS: 6.0, Attrs: map[string]any{"sd_ms": 3.5, "eij_ms": 2.1}},
			{Name: "F_trans", DurMS: 2.2},
			{Name: "cnf", DurMS: 1.8},
			{Name: "sat", DurMS: 12.0},
		},
		Samples: make([]obs.Sample, 8),
	}
}

// measureMetricsPath times one request's worth of metrics and flight
// recorder work — histogram observations, label lookups, the snapshot walk
// and two flight events — and returns the mean microseconds per request.
func measureMetricsPath() float64 {
	flight := obs.NewFlightRecorder(obs.DefaultFlightSize)
	m := obs.NewServiceMetrics(obs.NewRegistry(), &obs.ServiceProbe{}, flight)
	snap := overheadSnapshot()
	// Warm the label children so the steady state is measured, not the
	// first-request map fills.
	m.ObserveRequest("valid", "HYBRID", 0.001, 0.02, 0.025)
	m.ObserveSnapshot(snap)

	const iters = 20000
	start := time.Now()
	for i := 0; i < iters; i++ {
		flight.Record(obs.FlightStart, "0123456789abcdef", "HYBRID", 100, 3)
		m.ObserveSnapshot(snap)
		m.ObserveRequest("valid", "HYBRID", 0.001, 0.02, 0.025)
		flight.Record(obs.FlightDone, "0123456789abcdef", "valid", 25000, 200)
	}
	return float64(time.Since(start).Microseconds()) / iters
}

// measureTracePath times one request's worth of tracing and slowlog work —
// trace-ID and span-ID minting, traceparent parse and format at router
// ingress and for two attempts, and the slowlog admission check — and
// returns the mean microseconds per request.
func measureTracePath() float64 {
	slow := obs.NewSlowLog(obs.DefaultSlowLogSize)
	// A full slowlog with a high threshold measures the steady-state
	// admission check (one atomic load), not the warm-up insertions.
	for i := 0; i < obs.DefaultSlowLogSize; i++ {
		slow.Observe(obs.SlowEntry{Status: "valid", TotalMS: 1e6})
	}

	const iters = 20000
	start := time.Now()
	for i := 0; i < iters; i++ {
		hdr := obs.FormatTraceparent(obs.NewTraceID(), obs.NewSpanID())
		traceID, parent, _ := obs.ParseTraceparent(hdr)
		rec := obs.NewRecorder()
		rec.SetTraceContext(traceID, parent)
		route := rec.StartSpan("route")
		for a := 0; a < 2; a++ {
			sp := rec.StartSpan("attempt")
			_ = obs.FormatTraceparent(traceID, sp.SpanID())
			sp.End()
		}
		route.End()
		_ = rec.SpanRecords()
		slow.Candidate(25.0)
	}
	return float64(time.Since(start).Microseconds()) / iters
}

// measureHistorySLOCycle times one history snapshot plus SLO evaluation
// against a registry shaped like a loaded sufserved (the full service and
// cache families, warm label children, a warm ring) and returns the mean
// microseconds per cycle.
func measureHistorySLOCycle() float64 {
	reg := obs.NewRegistry()
	flight := obs.NewFlightRecorder(obs.DefaultFlightSize)
	m := obs.NewServiceMetrics(reg, &obs.ServiceProbe{}, flight)
	m.RegisterCache(func() obs.CacheCounters {
		return obs.CacheCounters{Hits: 500, Misses: 120, Evictions: 3,
			SingleflightJoins: 40, Entries: 64, Bytes: 1 << 20}
	})
	m.ObserveSnapshot(overheadSnapshot())
	for i := 0; i < 64; i++ {
		m.ObserveRequest("valid", "HYBRID", 0.001, 0.02, 0.025)
	}
	hist := history.New(reg, history.Config{Slots: history.DefaultSlots})
	eng := slo.New(reg, hist, flight, "sufsat", slo.ServerObjectives(0, 0, true), slo.Config{})
	// Fill the ring so the loop measures the steady state of a long-running
	// server: every window walks a full ring.
	for i := 0; i < history.DefaultSlots; i++ {
		hist.Snap()
		eng.Evaluate()
	}

	const iters = 500
	start := time.Now()
	for i := 0; i < iters; i++ {
		hist.Snap()
		eng.Evaluate()
	}
	return float64(time.Since(start).Microseconds()) / iters
}
