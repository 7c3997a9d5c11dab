package bench

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sufsat/internal/faultinject"
	"sufsat/internal/obs"
	"sufsat/internal/router"
)

// ChaosConfig parameterizes RunChaos: a fleet soak through an in-process
// hedging sufrouter (race-instrumented when the caller is) over real
// sufserved OS processes, with scripted chaos — backend 1 SIGKILLed and
// restarted on a schedule, the last backend behind a fault-injecting TCP
// proxy cycling latency → clean → blackhole → clean windows. The soak
// clients and verdict verification are RunSoak's.
type ChaosConfig struct {
	// ServedBin is the path to a built sufserved binary (BuildBinary).
	ServedBin string
	// Backends is the pool size (0 = 3).
	Backends int
	// Clients / Requests / TimeoutMS as in SoakConfig (0 = 10 / 300 / 8000).
	Clients   int
	Requests  int
	TimeoutMS int64
	// KillInterval is the crash cadence (0 = 1500ms kill, restart after 700ms).
	KillInterval time.Duration
	// FaultWindow is each proxy-fault window's length (0 = 800ms).
	FaultWindow time.Duration
	// Log receives progress lines.
	Log io.Writer
}

// ChaosReport is the outcome of one chaos soak.
type ChaosReport struct {
	*SoakReport
	Kills       int
	Restarts    int
	FaultCycles int

	// RouterTimeouts counts router-synthesized 504s: requests that reached
	// their deadline with no backend answer. These count against
	// availability — a definitive verdict or a clean 503 does not.
	RouterTimeouts int64
	// Availability = 1 − (transport errors + panics + router timeouts) /
	// completed: the fraction of requests that got a definitive answer or a
	// clean, retryable 503.
	Availability float64

	// Router-side counters scraped from the router's /metrics after the load.
	RouterFailovers float64
	RouterHedges    float64
	RouterHedgeWins float64
	RouterSheds     float64
}

// RunChaos runs one chaos soak and returns its report. The router runs
// in-process (so -race instruments it); the backends are real processes (so
// SIGKILL is a real crash). On return every process is stopped and every
// router goroutine joined.
func RunChaos(ctx context.Context, cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.ServedBin == "" {
		return nil, fmt.Errorf("bench: ChaosConfig.ServedBin is required")
	}
	if cfg.Backends <= 0 {
		cfg.Backends = 3
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 10
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 300
	}
	if cfg.TimeoutMS <= 0 {
		cfg.TimeoutMS = 8000
	}
	if cfg.KillInterval <= 0 {
		cfg.KillInterval = 1500 * time.Millisecond
	}
	if cfg.FaultWindow <= 0 {
		cfg.FaultWindow = 800 * time.Millisecond
	}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}

	// Fleet: real sufserved processes.
	procs := make([]*BackendProc, 0, cfg.Backends)
	defer func() {
		for _, p := range procs {
			p.Stop(5 * time.Second)
		}
	}()
	urls := make([]string, 0, cfg.Backends)
	for i := 0; i < cfg.Backends; i++ {
		p, err := StartBackend(ctx, cfg.ServedBin, "-queue", "64", "-quiet")
		if err != nil {
			return nil, err
		}
		procs = append(procs, p)
		urls = append(urls, p.URL())
	}
	logf("chaos: %d backends up", len(procs))

	// The network-fault proxy in front of the last backend: the router
	// dials the proxy, so latency/blackhole windows hit the wire the router
	// sees, not the backend process.
	proxy, err := faultinject.NewProxy(strings.TrimPrefix(urls[len(urls)-1], "http://"))
	if err != nil {
		return nil, err
	}
	defer proxy.Close()
	urls[len(urls)-1] = "http://" + proxy.Addr()
	proxy.SetLatency(250 * time.Millisecond)

	// The router: in-process, hedging on its p95-derived delay, fast probe
	// cadence and short breaker cooldowns so recovery happens within the
	// soak, generous budgets so the scripted faults — not budget exhaustion —
	// dominate the measurement.
	reg := obs.NewRegistry()
	rt, err := router.New(router.Config{
		Backends:       urls,
		Registry:       reg,
		HealthInterval: 100 * time.Millisecond,
		ProbeTimeout:   500 * time.Millisecond,
		MaxInFlight:    1024,
		HedgeRatio:     0.5,
		HedgeBurst:     32,
		FailoverRatio:  0.5,
		FailoverBurst:  32,
		DefaultTimeout: time.Duration(cfg.TimeoutMS) * time.Millisecond,
		Breaker: router.BreakerConfig{
			BaseCooldown: 200 * time.Millisecond,
			MaxCooldown:  2 * time.Second,
		},
	})
	if err != nil {
		return nil, err
	}
	front := httptest.NewServer(rt.Handler())
	routerUp := true
	defer func() {
		if routerUp {
			front.Close()
			sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			rt.Shutdown(sctx) //nolint:errcheck
			cancel()
		}
	}()

	// Chaos drivers.
	chaosCtx, stopChaos := context.WithCancel(ctx)
	defer stopChaos()
	var chaosWG sync.WaitGroup
	var kills, restarts, cycles atomic.Int64
	if len(procs) >= 2 {
		victim := procs[1]
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			for {
				if sleepDone(chaosCtx, cfg.KillInterval) {
					return
				}
				victim.Kill() //nolint:errcheck
				kills.Add(1)
				logf("chaos: killed %s", victim.URL())
				if sleepDone(chaosCtx, cfg.KillInterval/2) {
					// Soak over mid-outage: restart so the deferred Stop has
					// a live process and the fleet ends whole.
					if err := victim.Restart(context.Background()); err == nil {
						restarts.Add(1)
					}
					return
				}
				if err := victim.Restart(chaosCtx); err != nil {
					if chaosCtx.Err() == nil {
						logf("chaos: restart failed: %v", err)
					} else if err := victim.Restart(context.Background()); err == nil {
						restarts.Add(1)
					}
					return
				}
				restarts.Add(1)
				logf("chaos: restarted %s", victim.URL())
			}
		}()
	}
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		modes := []faultinject.NetFault{
			faultinject.FaultLatency, faultinject.FaultNone,
			faultinject.FaultBlackhole, faultinject.FaultNone,
		}
		for i := 0; ; i++ {
			if sleepDone(chaosCtx, cfg.FaultWindow) {
				proxy.SetMode(faultinject.FaultNone)
				return
			}
			m := modes[i%len(modes)]
			proxy.SetMode(m)
			if m == faultinject.FaultNone {
				cycles.Add(1)
			}
			logf("chaos: proxy mode %s", m)
		}
	}()

	// The load itself: RunSoak's verifying clients pointed at the router.
	rep, err := RunSoak(ctx, SoakConfig{
		URL:       front.URL,
		Clients:   cfg.Clients,
		Requests:  cfg.Requests,
		TimeoutMS: cfg.TimeoutMS,
		Log:       cfg.Log,
	})
	stopChaos()
	chaosWG.Wait()
	if err != nil {
		return nil, err
	}

	crep := &ChaosReport{
		SoakReport:  rep,
		Kills:       int(kills.Load()),
		Restarts:    int(restarts.Load()),
		FaultCycles: int(cycles.Load()),
	}
	crep.RouterTimeouts = rep.Statuses["timeout"]
	if rep.Completed > 0 {
		crep.Availability = 1 - float64(rep.TransportErrors+rep.Panics+crep.RouterTimeouts)/float64(rep.Completed)
	}

	// Scrape the router before tearing it down.
	if scrape, err := scrapeProm(front.URL + "/metrics"); err == nil {
		crep.RouterFailovers = scrape.Sum("sufrouter_failovers_total")
		crep.RouterHedges = scrape.Sum("sufrouter_hedges_total")
		crep.RouterHedgeWins = scrape.Sum("sufrouter_hedge_wins_total")
		crep.RouterSheds = scrape.Sum("sufrouter_sheds_total")
	}
	// Orderly teardown inside the run (not the deferred fallback) so leak
	// checks around RunChaos see every router goroutine joined.
	front.Close()
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.Shutdown(sctx); err != nil {
		return nil, err
	}
	routerUp = false
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	logf("chaos: done — availability=%.4f kills=%d restarts=%d hedges=%.0f failovers=%.0f",
		crep.Availability, crep.Kills, crep.Restarts, crep.RouterHedges, crep.RouterFailovers)
	return crep, nil
}

// sleepDone sleeps d or until ctx is done; it reports whether ctx ended the
// sleep.
func sleepDone(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return true
	case <-t.C:
		return false
	}
}

// scrapeProm fetches and strict-parses one Prometheus exposition.
func scrapeProm(url string) (*obs.PromScrape, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return nil, fmt.Errorf("bench: scrape %s: HTTP %d", url, resp.StatusCode)
	}
	return obs.ParsePrometheus(resp.Body)
}
