package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"sufsat"
	"sufsat/internal/obs"
	"sufsat/internal/server"
	"sufsat/internal/suf"
)

// serveSetupReps is how often a serve-mix run repeats its set-up (about 1 s,
// most of it the cache warm-up solves); setup_s is the median.
const serveSetupReps = 3

// newServer configures the server as sufserved runs with default flags:
// queue 64, one SAT worker per request (so GOMAXPROCS pool workers), 10 s
// default and 60 s maximum deadline, metrics and history on, logging off.
func newServer() *server.Server {
	return server.New(server.Config{
		MaxQueue:       64,
		DefaultTimeout: 10 * time.Second,
		Limits:         sufsat.Limits{MaxTimeout: 60 * time.Second, MaxSolverWorkers: 1},
		Metrics:        obs.NewRegistry(),
	})
}

func requestBody(text string, telemetry bool) []byte {
	body, err := json.Marshal(server.Request{Formula: text, WantModel: true, WantTelemetry: telemetry})
	if err != nil {
		panic(err) // a struct of strings and bools always marshals
	}
	return body
}

// served is one request as the caller saw it: the response, the ServeHTTP
// wall time and the bytes allocated meanwhile.
type served struct {
	resp  *server.Response
	t0    time.Time
	d     time.Duration
	alloc uint64
}

// post sends one request through the handler; only ServeHTTP is timed.
func post(h http.Handler, body []byte) (*served, error) {
	req := httptest.NewRequest(http.MethodPost, "/decide", bytes.NewReader(body))
	w := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	h.ServeHTTP(w, req)
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	var resp server.Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		return nil, fmt.Errorf("decode response (HTTP %d): %w", w.Code, err)
	}
	return &served{resp: &resp, t0: t0, d: d, alloc: after.TotalAlloc - before.TotalAlloc}, nil
}

// check checks one answer. A definitive answer must be right, with a model
// that falsifies the text sent; a repeat must be a cache hit and a first
// sighting a miss. Anything else aborts the run, naming the input. It
// returns false for a request that got no definitive answer.
func check(r request, s *served) (bool, error) {
	switch s.resp.Status {
	case "valid", "invalid":
	default:
		return false, nil
	}
	if err := checkAnswer(r.Input, s.resp.Status == "valid", s.resp.ModelConsts, s.resp.ModelBools); err != nil {
		return false, err
	}
	if s.resp.Cached == r.First {
		return false, fmt.Errorf("%s: first sighting=%v but cached=%v", r.Input.Name, r.First, s.resp.Cached)
	}
	return true, nil
}

// cacheCounters scrapes the verdict-cache counters from /metrics.
func cacheCounters(h http.Handler) (hits, misses float64, err error) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	scrape, err := obs.ParsePrometheus(w.Body)
	if err != nil {
		return 0, 0, fmt.Errorf("scrape /metrics: %w", err)
	}
	return scrape.Sum("sufsat_cache_hits_total"), scrape.Sum("sufsat_cache_misses_total"), nil
}

// serveSetup renders the pool, starts a server and warms its cache with one
// request per pool entry.
func serveSetup() ([]input, *server.Server, error) {
	pool := render(servePool())
	srv := newServer()
	h := srv.Handler()
	errs := make([]error, len(pool))
	var wg sync.WaitGroup
	for i, in := range pool {
		wg.Add(1)
		go func(i int, in input) {
			defer wg.Done()
			s, err := post(h, requestBody(in.Text, false))
			if err == nil {
				var ok bool
				if ok, err = check(request{Input: in, First: true}, s); err == nil && !ok {
					err = fmt.Errorf("%s: warm-up answered %s", in.Name, s.resp.Status)
				}
			}
			errs[i] = err
		}(i, in)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			stopServer(srv)
			return nil, nil, err
		}
	}
	return pool, srv, nil
}

func stopServer(srv *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // the run is over; a drain timeout only cancels leftovers
}

// kind groups the requests of one pool entry and one kind (repeat or first
// sighting).
type kind struct {
	name  string
	first bool
}

// balanced charges one balanced cycle of the mix, every pool entry twice as
// a repeat and once as a first sighting, each at the median of what its
// entry and kind measured over the run.
func balanced(pool []input, by map[kind][]float64) ([]float64, error) {
	var out []float64
	for _, in := range pool {
		hit, miss := by[kind{in.Name, false}], by[kind{in.Name, true}]
		if len(hit) == 0 || len(miss) == 0 {
			return nil, fmt.Errorf("%s: not sent both as a repeat and as a first sighting; raise --seconds", in.Name)
		}
		out = append(out, median(hit), median(hit), median(miss))
	}
	return out, nil
}

func runServe(seed int64, seconds time.Duration, tr *tracer) (*outcome, error) {
	var pool []input
	var srv *server.Server
	var setup []float64
	for i := 0; i < serveSetupReps; i++ {
		if srv != nil {
			stopServer(srv)
		}
		t0 := time.Now()
		var err error
		if pool, srv, err = serveSetup(); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer stopServer(srv)
	if tr != nil {
		return traceServe(pool, srv, seed, seconds, tr)
	}

	// The closed loop: one caller, each request sent when the previous one
	// has been answered, the heap collected before each.
	h := srv.Handler()
	m := newMix(pool, rand.New(rand.NewSource(seed)))
	out := &outcome{}
	lat, kb := map[kind][]float64{}, map[kind][]float64{}
	ok := 0
	for start := time.Now(); time.Since(start) < seconds; {
		r := m.next()
		body := requestBody(r.Input.Text, false)
		runtime.GC()
		s, err := post(h, body)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Input.Name, err)
		}
		good, err := check(r, s)
		if err != nil {
			return nil, err
		}
		out.attempted++
		if !good {
			out.failed++
			continue
		}
		ok++
		k := kind{r.Input.Name, r.First}
		lat[k] = append(lat[k], ms(s.d))
		kb[k] = append(kb[k], float64(s.alloc)/1024)
	}
	printServeRows(pool, lat)
	charged, err := balanced(pool, lat)
	if err != nil {
		return nil, err
	}
	alloc, err := balanced(pool, kb)
	if err != nil {
		return nil, err
	}
	out.metrics = map[string]float64{
		"setup_s":         median(setup),
		"verdict_ms_mean": sum(charged) / float64(len(charged)),
		"verdict_ms_p50":  hdQuantile(charged, 0.5),
		"verdict_ms_tail": tail(charged),
		"ok_frac":         float64(ok) / float64(out.attempted),
		"alloc_kb_op":     sum(alloc) / float64(len(alloc)),
	}
	return out, nil
}

// printServeRows prints one diagnostic row per pool entry.
func printServeRows(pool []input, lat map[kind][]float64) {
	for _, in := range pool {
		hit, miss := lat[kind{in.Name, false}], lat[kind{in.Name, true}]
		printRow(map[string]any{"workload": "serve-mix", "name": in.Name, "repeats": len(hit),
			"first_sightings": len(miss), "hit_ms_p50": median(hit), "miss_ms_p50": median(miss)})
	}
}

// traceServe is the traced run. The request stream goes, request by
// request, to the warmed server and to a second one warmed the same way
// whose requests set want_telemetry, so both caches see the same stream;
// trace.overhead_frac compares their ServeHTTP times. Each request gets a
// root span with parse and fingerprint (timed here on the text sent) and
// the handler, split by the response's queue_ms and solve_ms.
func traceServe(pool []input, srv *server.Server, seed int64, seconds time.Duration, tr *tracer) (*outcome, error) {
	_, twin, err := serveSetup()
	if err != nil {
		return nil, err
	}
	defer stopServer(twin)
	h, th := srv.Handler(), twin.Handler()
	hits0, misses0, err := cacheCounters(h)
	if err != nil {
		return nil, err
	}
	m := newMix(pool, rand.New(rand.NewSource(seed)))
	out := &outcome{}
	var parseMS, fpMS, handlerMS, queueMS, solveMS, hitMS, missMS []float64
	var plain, traced time.Duration
	for start := time.Now(); time.Since(start) < seconds; {
		r := m.next()
		op := fmt.Sprintf("%d:%s", out.attempted, r.Input.Name)
		p0 := time.Now()
		f, err := suf.Parse(r.Input.Text, suf.NewBuilder())
		if err != nil {
			return nil, fmt.Errorf("%s: parse: %w", r.Input.Name, err)
		}
		p1 := time.Now()
		suf.Fingerprint(f)
		p2 := time.Now()
		parseMS = append(parseMS, ms(p1.Sub(p0)))
		fpMS = append(fpMS, ms(p2.Sub(p1)))

		runtime.GC()
		s, err := post(h, requestBody(r.Input.Text, false))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Input.Name, err)
		}
		runtime.GC()
		ts, err := post(th, requestBody(r.Input.Text, true))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Input.Name, err)
		}
		out.attempted++
		good, err := check(r, s)
		if err != nil {
			return nil, err
		}
		tgood, err := check(r, ts)
		if err != nil {
			return nil, err
		}
		if !good || !tgood {
			out.failed++
			continue
		}
		plain += s.d
		traced += ts.d

		resp := s.resp
		first := 0.0
		if r.First {
			first = 1
		}
		root := tr.add(op, "request", -1, p0, s.t0.Add(s.d), map[string]float64{"first": first})
		tr.add(op, "parse", root, p0, p1, nil)
		tr.add(op, "fingerprint", root, p1, p2, nil)
		hs := tr.add(op, "handler", root, s.t0, s.t0.Add(s.d), nil)
		q := time.Duration(resp.QueueMS * 1e6)
		tr.add(op, "queue", hs, s.t0, s.t0.Add(q), nil)
		tr.add(op, "solve", hs, s.t0.Add(q), s.t0.Add(q+time.Duration(resp.SolveMS*1e6)), nil)
		handlerMS = append(handlerMS, ms(s.d)-resp.QueueMS-resp.SolveMS)
		if resp.Cached {
			hitMS = append(hitMS, ms(s.d))
		} else {
			missMS = append(missMS, ms(s.d))
			queueMS = append(queueMS, resp.QueueMS)
			solveMS = append(solveMS, resp.SolveMS)
		}
	}
	hits1, misses1, err := cacheCounters(h)
	if err != nil {
		return nil, err
	}
	metrics := map[string]float64{}
	for _, p := range perLayer {
		metrics[p.name] = 0
	}
	metrics["suf.parse_ms.p50"] = median(parseMS)
	metrics["suf.fingerprint_ms.p50"] = median(fpMS)
	metrics["server.handler_ms.p50"] = median(handlerMS)
	metrics["server.queue_ms.p50"] = median(queueMS)
	metrics["server.solve_ms.p50"] = median(solveMS)
	metrics["server.solve_ms.p99"] = quantile(solveMS, 0.99)
	metrics["cache.hit_ms.p50"] = median(hitMS)
	metrics["cache.hit_ms.p99"] = quantile(hitMS, 0.99)
	metrics["cache.miss_ms.p50"] = median(missMS)
	metrics["cache.miss_ms.p99"] = quantile(missMS, 0.99)
	if hits, misses := hits1-hits0, misses1-misses0; hits+misses > 0 {
		metrics["cache.hit_ratio"] = hits / (hits + misses)
	}
	metrics["trace.overhead_frac"] = float64(traced-plain) / float64(plain)
	out.metrics = metrics
	return out, nil
}
