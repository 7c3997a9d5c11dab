package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"sufsat/internal/obs"
	"sufsat/internal/router"
)

// Rolling-upgrade membership chaos: the soak every dynamic-membership
// change must survive. Phase one rolls every backend of a live fleet through
// the production upgrade choreography — drain via the admin API, SIGKILL the
// process (a real crash, not a courtesy), restart it on the same port, rejoin
// it — while verifying soak clients hammer the router. Phase two cold-joins a
// brand-new backend via the declarative PUT and keeps the load running, so
// the report can compare the survivors' verdict-cache warmth before and after
// the ring reshuffles around the joiner.

// moveSlack is each step's allowance over its 1/N fair share in the
// moved-keys gate: the tight bound lives in the ring property test, this
// gate catches full-reshuffle regressions.
const moveSlack = 0.2

// MembershipConfig parameterizes RunMembershipChaos.
type MembershipConfig struct {
	// ServedBin is a built sufserved binary (BuildBinary).
	ServedBin string
	// Backends is the initial pool size (0 = 3); one more backend cold-joins
	// in phase two.
	Backends int
	// Clients / Requests / TimeoutMS parameterize each phase's soak
	// (0 = 10 / 300 / 8000).
	Clients   int
	Requests  int
	TimeoutMS int64
	// CacheMix is the alpha-renamed repeat fraction (0 = 0.5): the soak must
	// exercise the verdict caches for the survivor cache-hit comparison to
	// measure anything.
	CacheMix float64
	// StepPause is the settle time between roll actions (0 = 300ms).
	StepPause time.Duration
	// Log receives progress lines.
	Log io.Writer
}

// MembershipStep records one membership action during the soak.
type MembershipStep struct {
	// Action: drain | kill | restart | rejoin | cold-join.
	Action  string
	Backend string
	// Epoch is the router's membership epoch after the action (0 for
	// kill/restart, which are process events, not membership changes).
	Epoch uint64
	// MovedRatio is the sampled keyspace fraction the action moved;
	// MoveBound is the 1/N-fair-share gate it must stay under (0 = ungated).
	MovedRatio float64
	MoveBound  float64
}

// MembershipReport is the outcome of one rolling-upgrade membership soak.
type MembershipReport struct {
	// Roll is phase one (every backend rolled); Join is phase two (a cold
	// backend added mid-load).
	Roll *SoakReport
	Join *SoakReport

	Steps []MembershipStep

	// FinalEpoch must equal ExpectedEpoch: 1 (construction) + 2 per rolled
	// backend (drain + rejoin) + 1 (cold join). Kills and restarts are
	// process events and must NOT move the epoch.
	FinalEpoch    uint64
	ExpectedEpoch uint64

	// MoveBoundViolations counts steps whose MovedRatio exceeded MoveBound.
	MoveBoundViolations int

	// Aggregates over both phases.
	Completed       int64
	Mismatches      int64
	TransportErrors int64
	Panics          int64
	RouterTimeouts  int64
	Availability    float64

	// SurvivorHitsBeforeJoin / SurvivorHitsAfterJoin sum the original pool's
	// sufsat_cache_hits_total around phase two: warm survivors must keep
	// serving cache hits after the ring reshuffles around the joiner.
	SurvivorHitsBeforeJoin float64
	SurvivorHitsAfterJoin  float64
}

// adminChange posts one membership verb to the router's admin endpoint and
// decodes the change summary.
func adminChange(frontURL, verb, backend string) (*router.MembershipChange, error) {
	body, _ := json.Marshal(map[string]string{"verb": verb, "backend": backend})
	req, err := http.NewRequest(http.MethodPost, frontURL+"/admin/backends", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return doAdminChange(req)
}

// adminPut declares the desired backend set via the admin endpoint.
func adminPut(frontURL string, desired []string) (*router.MembershipChange, error) {
	body, _ := json.Marshal(map[string][]string{"backends": desired})
	req, err := http.NewRequest(http.MethodPut, frontURL+"/admin/backends", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return doAdminChange(req)
}

func doAdminChange(req *http.Request) (*router.MembershipChange, error) {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: admin %s %s: HTTP %d: %s", req.Method, req.URL.Path, resp.StatusCode, data)
	}
	var ch router.MembershipChange
	if err := json.Unmarshal(data, &ch); err != nil {
		return nil, fmt.Errorf("bench: admin decode: %w", err)
	}
	return &ch, nil
}

// survivorCacheHits sums sufsat_cache_hits_total over the given processes.
func survivorCacheHits(procs []*BackendProc) float64 {
	var hits float64
	for _, p := range procs {
		if scrape, err := scrapeProm(p.URL() + "/metrics"); err == nil {
			h, _ := scrape.Value("sufsat_cache_hits_total")
			hits += h
		}
	}
	return hits
}

// RunMembershipChaos runs the rolling-upgrade membership soak and returns its
// report. The router runs in-process (race-instrumented when the caller is);
// the backends are real sufserved processes so the mid-roll SIGKILL is a real
// crash. On return every process is stopped and every router goroutine
// joined — callers wrap the whole run in faultinject.LeakCheck.
func RunMembershipChaos(ctx context.Context, cfg MembershipConfig) (*MembershipReport, error) {
	if cfg.ServedBin == "" {
		return nil, fmt.Errorf("bench: MembershipConfig.ServedBin is required")
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
	if cfg.CacheMix <= 0 {
		cfg.CacheMix = 0.5
	}
	if cfg.StepPause <= 0 {
		cfg.StepPause = 300 * time.Millisecond
	}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}

	// The initial fleet, plus the phase-two joiner started later.
	procs := make([]*BackendProc, 0, cfg.Backends+1)
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
	logf("membership: %d backends up", len(procs))

	reg := obs.NewRegistry()
	rt, err := router.New(router.Config{
		Backends:       urls,
		Registry:       reg,
		HealthInterval: 100 * time.Millisecond,
		ProbeTimeout:   500 * time.Millisecond,
		MaxInFlight:    1024,
		HedgeDelay:     0, // auto: p95-derived
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

	rep := &MembershipReport{ExpectedEpoch: uint64(1 + 2*cfg.Backends + 1)}
	var stepMu sync.Mutex
	record := func(action, backend string, ch *router.MembershipChange, fair float64) {
		st := MembershipStep{Action: action, Backend: backend}
		if ch != nil {
			st.Epoch = ch.Epoch
			st.MovedRatio = ch.KeysMovedRatio
			if fair > 0 {
				st.MoveBound = fair + moveSlack
				if st.MovedRatio > st.MoveBound {
					rep.MoveBoundViolations++
				}
			}
		}
		stepMu.Lock()
		rep.Steps = append(rep.Steps, st)
		stepMu.Unlock()
		logf("membership: %-9s %s epoch=%d moved=%.3f", action, backend, st.Epoch, st.MovedRatio)
	}

	// Phase one: roll every backend through drain → SIGKILL → restart →
	// rejoin while the soak runs. The roller is independent of the load so a
	// fast soak never truncates the roll; availability is measured over
	// whatever load overlapped each step.
	rollCtx, stopRoll := context.WithCancel(ctx)
	defer stopRoll()
	rollDone := make(chan error, 1)
	go func() {
		n := float64(cfg.Backends)
		for i, p := range procs[:cfg.Backends] {
			u := p.URL()
			ch, err := adminChange(front.URL, "drain", u)
			if err != nil {
				rollDone <- fmt.Errorf("drain %s: %w", u, err)
				return
			}
			// A drained member's keys scatter over the other N−1: fair share
			// moved is its own 1/N slice.
			record("drain", u, ch, 1/n)
			if sleepDone(rollCtx, cfg.StepPause) {
				rollDone <- rollCtx.Err()
				return
			}
			if err := p.Kill(); err != nil {
				rollDone <- fmt.Errorf("kill %s: %w", u, err)
				return
			}
			record("kill", u, nil, 0)
			if err := p.Restart(rollCtx); err != nil {
				rollDone <- fmt.Errorf("restart %s: %w", u, err)
				return
			}
			record("restart", u, nil, 0)
			ch, err = adminChange(front.URL, "add", u)
			if err != nil {
				rollDone <- fmt.Errorf("rejoin %s: %w", u, err)
				return
			}
			record("rejoin", u, ch, 1/n)
			if sleepDone(rollCtx, cfg.StepPause) {
				rollDone <- rollCtx.Err()
				return
			}
			logf("membership: rolled %d/%d", i+1, cfg.Backends)
		}
		rollDone <- nil
	}()

	rollRep, err := RunSoak(ctx, SoakConfig{
		URL:       front.URL,
		Clients:   cfg.Clients,
		Requests:  cfg.Requests,
		TimeoutMS: cfg.TimeoutMS,
		CacheMix:  cfg.CacheMix,
		Log:       cfg.Log,
	})
	if err != nil {
		return nil, err
	}
	if err := <-rollDone; err != nil {
		return nil, fmt.Errorf("bench: roll phase: %w", err)
	}
	rep.Roll = rollRep

	// Phase two: cold-join a brand-new backend via the declarative PUT and
	// soak again. Survivor cache warmth is sampled on both sides of the join.
	rep.SurvivorHitsBeforeJoin = survivorCacheHits(procs[:cfg.Backends])
	joiner, err := StartBackend(ctx, cfg.ServedBin, "-queue", "64", "-quiet")
	if err != nil {
		return nil, err
	}
	procs = append(procs, joiner)
	desired := append(append([]string{}, urls...), joiner.URL())
	ch, err := adminPut(front.URL, desired)
	if err != nil {
		return nil, fmt.Errorf("bench: cold join: %w", err)
	}
	// The joiner's fair share of an N+1 pool.
	record("cold-join", joiner.URL(), ch, 1/float64(cfg.Backends+1))

	joinRep, err := RunSoak(ctx, SoakConfig{
		URL:       front.URL,
		Clients:   cfg.Clients,
		Requests:  cfg.Requests,
		TimeoutMS: cfg.TimeoutMS,
		CacheMix:  cfg.CacheMix,
		Log:       cfg.Log,
	})
	if err != nil {
		return nil, err
	}
	rep.Join = joinRep
	rep.SurvivorHitsAfterJoin = survivorCacheHits(procs[:cfg.Backends])

	rep.FinalEpoch = rt.Epoch()
	rep.Completed = rollRep.Completed + joinRep.Completed
	rep.Mismatches = rollRep.Mismatches + joinRep.Mismatches
	rep.TransportErrors = rollRep.TransportErrors + joinRep.TransportErrors
	rep.Panics = rollRep.Panics + joinRep.Panics
	rep.RouterTimeouts = rollRep.Statuses["timeout"] + joinRep.Statuses["timeout"]
	if rep.Completed > 0 {
		rep.Availability = 1 - float64(rep.TransportErrors+rep.Panics+rep.RouterTimeouts)/float64(rep.Completed)
	}

	// Orderly teardown inside the run so LeakCheck around it sees every
	// router goroutine joined and every member's conn pool dropped.
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
	logf("membership: done — epoch=%d/%d availability=%.4f mismatches=%d moved-violations=%d survivors hits %.0f→%.0f",
		rep.FinalEpoch, rep.ExpectedEpoch, rep.Availability, rep.Mismatches,
		rep.MoveBoundViolations, rep.SurvivorHitsBeforeJoin, rep.SurvivorHitsAfterJoin)
	return rep, nil
}
