package bench_test

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"sufsat/internal/bench"
	"sufsat/internal/faultinject"
	"sufsat/internal/obs"
	"sufsat/internal/server"
	"sufsat/internal/server/client"
)

// TestChaosSoak is the chaos gate (make chaos-soak): a hedging router over
// three real sufserved processes, with one backend SIGKILLed and restarted on
// a schedule and another behind a proxy cycling latency and blackhole
// windows, under 10 verifying clients. The fleet contract: every verdict
// matches ground truth, availability (definitive answer or clean 503) stays
// at 99%+ through the chaos, and the router tears down without leaking a
// goroutine. Run with -race in CI.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	served, err := bench.BuildBinary(t.TempDir(), "sufsat/cmd/sufserved")
	if err != nil {
		t.Fatal(err)
	}

	var rep *bench.ChaosReport
	lerr := faultinject.LeakCheck(func() {
		var err error
		rep, err = bench.RunChaos(context.Background(), bench.ChaosConfig{
			ServedBin:    served,
			Backends:     3,
			Clients:      10,
			Requests:     250,
			TimeoutMS:    8000,
			KillInterval: 400 * time.Millisecond,
			FaultWindow:  300 * time.Millisecond,
			Log:          testLogWriter{t},
		})
		if err != nil {
			t.Fatalf("chaos: %v", err)
		}
	}, 10*time.Second)
	if lerr != nil {
		t.Errorf("goroutine leak after chaos soak: %v", lerr)
	}

	if rep.Completed != int64(rep.Requests) {
		t.Errorf("completed %d of %d requests", rep.Completed, rep.Requests)
	}
	if rep.Mismatches != 0 {
		t.Errorf("%d verdicts contradicted ground truth under chaos", rep.Mismatches)
	}
	if rep.Panics != 0 {
		t.Errorf("%d structured 500s under chaos", rep.Panics)
	}
	if rep.Availability < 0.99 {
		t.Errorf("availability %.4f < 0.99 (transport=%d panics=%d router-timeouts=%d)",
			rep.Availability, rep.TransportErrors, rep.Panics, rep.RouterTimeouts)
	}
	if rep.Kills == 0 {
		t.Error("no backend was ever killed: crash path not exercised")
	}
	if rep.Restarts == 0 {
		t.Error("no backend was ever restarted: recovery path not exercised")
	}
}

// testLogWriter forwards harness progress lines to the test log.
type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// TestRouterProcessSmoke is the router smoke gate (make router-smoke): a real
// sufrouter process over two real sufserved processes. It routes a spread of
// formulas across the ring, SIGKILLs one backend, and asserts that every
// verdict keeps arriving (failover), that the router's probes open the dead
// backend's breaker, and that the /metrics exposition strict-parses with the
// sufrouter_* families present.
func TestRouterProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process smoke test skipped in -short mode")
	}
	dir := t.TempDir()
	served, err := bench.BuildBinary(dir, "sufsat/cmd/sufserved")
	if err != nil {
		t.Fatal(err)
	}
	routerBin, err := bench.BuildBinary(dir, "sufsat/cmd/sufrouter")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	b0, err := bench.StartBackend(ctx, served, "-quiet")
	if err != nil {
		t.Fatal(err)
	}
	defer b0.Stop(5 * time.Second)
	b1, err := bench.StartBackend(ctx, served, "-quiet")
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Stop(5 * time.Second)

	rp, err := bench.StartBackend(ctx, routerBin,
		"-backends", b0.URL()+","+b1.URL(),
		"-health-interval", "100ms",
		"-probe-timeout", "500ms",
		"-hedge-delay", "20ms",
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Stop(5 * time.Second)

	// A spread of structurally distinct (all valid, by congruence) formulas
	// so both backends own some fingerprints on the ring. Distinct variable
	// spellings are NOT enough: the canonical fingerprint is invariant under
	// alpha-renaming, so 16 renamed copies of one formula would share a
	// single fingerprint — and whichever backend the ring homes it on would
	// own the whole workload, making the failover assertion a coin flip.
	formulas := make([]string, 16)
	for i := range formulas {
		formulas[i] = chainFormula(i + 1)
	}
	decideAll := func(phase string) {
		c := client.New(rp.URL())
		for _, f := range formulas {
			resp, err := c.Decide(ctx, &server.Request{Formula: f, TimeoutMS: 8000})
			if err != nil {
				t.Fatalf("%s: decide %q: %v", phase, f, err)
			}
			if resp.Status != "valid" {
				t.Fatalf("%s: %q: got status %q, want valid", phase, f, resp.Status)
			}
		}
	}

	decideAll("healthy fleet")

	// Crash one backend. Every formula must still get its verdict, via
	// failover for the fingerprints the dead backend owned.
	if err := b1.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	decideAll("one backend down")

	// The router's probes must open the dead backend's breaker.
	deadline := time.Now().Add(5 * time.Second)
	for {
		scrape := scrapeStrict(t, rp.URL()+"/metrics")
		if v, ok := scrape.Value("sufrouter_backend_state", "backend", b1.URL()); ok && v == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead backend's breaker never opened")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Strict exposition contract: the families the fleet dashboards read.
	scrape := scrapeStrict(t, rp.URL()+"/metrics")
	if n := scrape.Sum("sufrouter_requests_total"); n < float64(2*len(formulas)) {
		t.Errorf("sufrouter_requests_total = %v, want >= %d", n, 2*len(formulas))
	}
	if scrape.Sum("sufrouter_failovers_total") == 0 {
		t.Error("sufrouter_failovers_total = 0 after killing a backend")
	}
	for _, fam := range []string{"sufrouter_backend_state", "sufrouter_backend_requests_total", "sufrouter_request_duration_seconds"} {
		if f := scrape.Family(fam); f == nil || len(f.Samples) == 0 {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}
}

// scrapeStrict fetches url and strict-parses the Prometheus exposition.
func scrapeStrict(t *testing.T, url string) *obs.PromScrape {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s: HTTP %d", url, resp.StatusCode)
	}
	s, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	return s
}
