// Package history keeps a bounded in-process time series of the metrics
// registry: a fixed-size ring of periodic snapshots, delta-encoded for
// counter-kind samples, so windowed rates and quantiles can be computed
// server-side once — on `GET /debug/history` — instead of ad hoc by every
// scraper. The SLO engine (internal/obs/slo) evaluates its multi-window burn
// rates over the same ring.
//
// Memory is bounded by construction: one float64 per live sample per retained
// snapshot (a few hundred samples x 768 slots ≈ 2 MB at the default 5 s
// cadence, covering 64 minutes). Columns are append-only — the registry never
// unregisters — and a sample that first appears mid-flight contributes NaN
// ("absent") to older snapshots so window math skips it instead of reading a
// process-lifetime total as a burst.
package history

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"sufsat/internal/obs"
)

// Config tunes the collector. Zero values pick the defaults.
type Config struct {
	// Interval is the snapshot cadence (default 5s).
	Interval time.Duration
	// Slots is the ring capacity in snapshots (default 768 — 64 minutes at
	// the default cadence, enough to cover the SLO engine's 1h slow window).
	Slots int
	// OnSnapshot, when set, runs after every snapshot on the collector
	// goroutine — the SLO engine's evaluation hook.
	OnSnapshot func()
}

const (
	// DefaultInterval is the snapshot cadence when Config.Interval is zero.
	DefaultInterval = 5 * time.Second
	// DefaultSlots is the ring capacity when Config.Slots is zero.
	DefaultSlots = 768
	// maxPoints caps the sparkline series length in window responses;
	// longer windows are downsampled by merging adjacent snapshots.
	maxPoints = 64
)

// column is one retained sample series. counter-kind columns (counters,
// histogram buckets, _sum, _count) store per-interval deltas; gauges store
// absolute values.
type column struct {
	name       string // full sample name (with _bucket/_sum/_count suffix)
	labels     string // full rendered label suffix (including le)
	family     string // base family name
	baseLabels string // labels minus le — the child identity for grouping
	counter    bool   // delta-encoded
	le         float64
	lastAbs    float64 // previous absolute value (counter columns)
}

// snapshot is one ring entry: vals is indexed by column and may be shorter
// than the current column count (columns registered later); missing or
// first-appearance values are NaN.
type snapshot struct {
	atNS int64
	vals []float64
}

// History is the collector plus ring. Create with New, then Start (or drive
// Snap manually in tests); Stop before discarding so the goroutine exits.
type History struct {
	reg        *obs.Registry
	interval   time.Duration
	slots      int
	onSnapshot func()

	mu       sync.Mutex
	cols     []column
	colIndex map[string]int // name+labels -> column
	ring     []snapshot
	head     int // next slot to write
	count    int // valid snapshots
	total    int64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	started  bool
}

// New returns a collector over reg. A nil registry yields a nil *History,
// whose methods all no-op, so a metrics-disabled process pays nothing.
func New(reg *obs.Registry, cfg Config) *History {
	if reg == nil {
		return nil
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Slots <= 0 {
		cfg.Slots = DefaultSlots
	}
	if cfg.Slots < 8 {
		cfg.Slots = 8
	}
	return &History{
		reg:        reg,
		interval:   cfg.Interval,
		slots:      cfg.Slots,
		onSnapshot: cfg.OnSnapshot,
		colIndex:   make(map[string]int),
		ring:       make([]snapshot, cfg.Slots),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
}

// Interval returns the snapshot cadence.
func (h *History) Interval() time.Duration {
	if h == nil {
		return 0
	}
	return h.interval
}

// Start launches the collector goroutine. Call at most once.
func (h *History) Start() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.started = true
	h.mu.Unlock()
	go func() {
		defer close(h.done)
		t := time.NewTicker(h.interval)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.Snap()
				if h.onSnapshot != nil {
					h.onSnapshot()
				}
			}
		}
	}()
}

// Stop halts the collector and waits for it to exit. Safe to call more than
// once and without a prior Start.
func (h *History) Stop() {
	if h == nil {
		return
	}
	h.stopOnce.Do(func() { close(h.stop) })
	h.mu.Lock()
	started := h.started
	h.mu.Unlock()
	if started {
		<-h.done
	}
}

// Snap takes one snapshot now. Exported so tests and the SLO bench can drive
// the ring deterministically without real time passing.
func (h *History) Snap() {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	now := time.Now().UnixNano()
	// Absolute values this cycle, indexed by column; grown as new columns
	// register themselves.
	abs := make([]float64, len(h.cols))
	for i := range abs {
		abs[i] = math.NaN()
	}
	h.reg.VisitSamples(func(s obs.SampleInfo) {
		key := s.Name + s.Labels
		idx, ok := h.colIndex[key]
		if !ok {
			idx = len(h.cols)
			h.cols = append(h.cols, column{
				name:       s.Name,
				labels:     s.Labels,
				family:     s.Family,
				baseLabels: s.BaseLabels,
				counter:    s.Kind == "counter" || s.Kind == "histogram",
				le:         s.Le,
				lastAbs:    math.NaN(),
			})
			h.colIndex[key] = idx
			abs = append(abs, math.NaN())
		}
		abs[idx] = s.Value
	})
	vals := make([]float64, len(h.cols))
	for i := range h.cols {
		c := &h.cols[i]
		switch {
		case math.IsNaN(abs[i]):
			vals[i] = math.NaN() // sample absent this cycle
		case !c.counter:
			vals[i] = abs[i]
		case math.IsNaN(c.lastAbs):
			// First appearance: record the baseline, contribute no delta —
			// a process-lifetime total is not a one-interval burst.
			vals[i] = math.NaN()
			c.lastAbs = abs[i]
		default:
			d := abs[i] - c.lastAbs
			if d < 0 {
				d = 0 // in-process counters never reset; clamp stray FP noise
			}
			vals[i] = d
			c.lastAbs = abs[i]
		}
	}
	h.ring[h.head] = snapshot{atNS: now, vals: vals}
	h.head = (h.head + 1) % h.slots
	if h.count < h.slots {
		h.count++
	}
	h.total++
}

// Snapshots returns how many snapshots the ring currently holds.
func (h *History) Snapshots() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// windowSnaps returns the retained snapshots whose timestamp falls within
// window of the newest one, oldest first. Caller holds h.mu.
func (h *History) windowSnaps(window time.Duration) []*snapshot {
	if h.count == 0 {
		return nil
	}
	out := make([]*snapshot, 0, h.count)
	newest := h.ring[(h.head-1+h.slots)%h.slots].atNS
	cutoff := newest - window.Nanoseconds()
	for i := 0; i < h.count; i++ {
		s := &h.ring[(h.head-h.count+i+h.slots)%h.slots]
		if s.atNS >= cutoff {
			out = append(out, s)
		}
	}
	return out
}

// colVal reads column i from snapshot s, NaN when the snapshot predates the
// column.
func colVal(s *snapshot, i int) float64 {
	if i >= len(s.vals) {
		return math.NaN()
	}
	return s.vals[i]
}

// CounterDelta sums a counter family's increase over the window, across all
// children whose rendered labels contain `label="value"` (every child when
// label is empty). ok is false when the family is unknown or fewer than two
// snapshots cover the window — the caller cannot distinguish "no traffic"
// from "no data" otherwise.
func (h *History) CounterDelta(family, label, value string, window time.Duration) (delta float64, ok bool) {
	if h == nil {
		return 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	snaps := h.windowSnaps(window)
	if len(snaps) < 2 {
		return 0, false
	}
	match := ""
	if label != "" {
		match = label + `="` + value + `"`
	}
	found := false
	for i := range h.cols {
		c := &h.cols[i]
		if c.family != family || !c.counter || c.name != family {
			continue
		}
		// A known family with no child matching the filter is a real zero
		// (e.g. no sheds yet), not "no data" — found stays true.
		found = true
		if match != "" && !strings.Contains(c.labels, match) {
			continue
		}
		for _, s := range snaps[1:] { // snaps[0] anchors the window start
			if v := colVal(s, i); !math.IsNaN(v) {
				delta += v
			}
		}
	}
	return delta, found
}

// WindowBuckets sums a histogram family's per-bucket increase over the
// window across all children, returning ascending bounds (with +Inf last),
// the cumulative windowed counts aligned to them, and the windowed total.
// ok is false when the family is unknown or the window spans fewer than two
// snapshots.
func (h *History) WindowBuckets(family string, window time.Duration) (bounds, cum []float64, total float64, ok bool) {
	if h == nil {
		return nil, nil, 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	snaps := h.windowSnaps(window)
	if len(snaps) < 2 {
		return nil, nil, 0, false
	}
	byLe := make(map[float64]float64)
	bucketName := family + "_bucket"
	for i := range h.cols {
		c := &h.cols[i]
		if c.name != bucketName {
			continue
		}
		// Stored deltas are deltas of *cumulative* bucket counts, so summing
		// them across snapshots and children yields windowed cumulative
		// counts directly.
		for _, s := range snaps[1:] {
			if v := colVal(s, i); !math.IsNaN(v) {
				byLe[c.le] += v
			}
		}
	}
	if len(byLe) == 0 {
		return nil, nil, 0, false
	}
	for le := range byLe {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	cum = make([]float64, len(bounds))
	for i, le := range bounds {
		cum[i] = byLe[le]
	}
	total = cum[len(cum)-1] // +Inf sorts last
	return bounds, cum, total, true
}

// Point is one sparkline sample: per-interval rate for counter-kind
// families, absolute value for gauges.
type Point struct {
	AtNS int64   `json:"at_ns"`
	V    float64 `json:"v"`
}

// ChildWindow is the windowed view of one labeled child.
type ChildWindow struct {
	Labels     string  `json:"labels,omitempty"`
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Delta      float64 `json:"delta,omitempty"`
	Last       float64 `json:"last,omitempty"`
	Min        float64 `json:"min,omitempty"`
	Max        float64 `json:"max,omitempty"`
	P50        float64 `json:"p50,omitempty"`
	P95        float64 `json:"p95,omitempty"`
	P99        float64 `json:"p99,omitempty"`
	Points     []Point `json:"points,omitempty"`
}

// FamilyWindow is the windowed view of one family.
type FamilyWindow struct {
	Family    string        `json:"family"`
	Kind      string        `json:"kind"`
	WindowMS  int64         `json:"window_ms"`
	Snapshots int           `json:"snapshots"`
	Children  []ChildWindow `json:"children"`
}

// Dump is the /debug/history response schema (docs/FORMATS.md).
type Dump struct {
	NowNS      int64          `json:"now_ns"`
	IntervalMS int64          `json:"interval_ms"`
	Slots      int            `json:"slots"`
	Snapshots  int            `json:"snapshots"`
	Families   []FamilyWindow `json:"families"`
}

// sanitize maps NaN (JSON-unencodable) to zero on optional fields.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// downsample merges a series to at most maxPoints by averaging runs.
func downsample(pts []Point) []Point {
	if len(pts) <= maxPoints {
		return pts
	}
	stride := (len(pts) + maxPoints - 1) / maxPoints
	out := make([]Point, 0, maxPoints)
	for i := 0; i < len(pts); i += stride {
		end := i + stride
		if end > len(pts) {
			end = len(pts)
		}
		sum, n := 0.0, 0
		for _, p := range pts[i:end] {
			sum += p.V
			n++
		}
		out = append(out, Point{AtNS: pts[end-1].AtNS, V: sum / float64(n)})
	}
	return out
}

// Window computes the windowed view of one family: per-child rates and
// deltas for counters, last/min/max for gauges, interpolated quantiles plus
// the count rate for histograms, each with a per-interval sparkline series.
func (h *History) Window(family string, window time.Duration) (FamilyWindow, bool) {
	if h == nil {
		return FamilyWindow{}, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	snaps := h.windowSnaps(window)
	fw := FamilyWindow{Family: family, WindowMS: window.Milliseconds(), Snapshots: len(snaps)}
	if len(snaps) < 2 {
		return fw, false
	}
	elapsed := float64(snaps[len(snaps)-1].atNS-snaps[0].atNS) / 1e9
	if elapsed <= 0 {
		return fw, false
	}

	// Group the family's columns by child identity.
	type group struct {
		labels  string
		scalar  []int // plain counter/gauge columns (normally one)
		buckets []int // histogram bucket columns
		count   int   // _count column, -1 if none
	}
	var order []string
	groups := make(map[string]*group)
	kind := ""
	for i := range h.cols {
		c := &h.cols[i]
		if c.family != family {
			continue
		}
		g := groups[c.baseLabels]
		if g == nil {
			g = &group{labels: c.baseLabels, count: -1}
			groups[c.baseLabels] = g
			order = append(order, c.baseLabels)
		}
		switch {
		case c.name == family+"_bucket":
			kind = "histogram"
			g.buckets = append(g.buckets, i)
		case c.name == family+"_count":
			g.count = i
		case c.name == family+"_sum":
			// folded into quantiles via buckets; skip
		case c.name == family:
			if c.counter {
				if kind == "" {
					kind = "counter"
				}
			} else {
				kind = "gauge"
			}
			g.scalar = append(g.scalar, i)
		}
	}
	if len(order) == 0 {
		return fw, false
	}
	fw.Kind = kind

	series := func(idx []int, rate bool) []Point {
		pts := make([]Point, 0, len(snaps)-1)
		for si := 1; si < len(snaps); si++ {
			s := snaps[si]
			dt := float64(s.atNS-snaps[si-1].atNS) / 1e9
			v, any := 0.0, false
			for _, i := range idx {
				if x := colVal(s, i); !math.IsNaN(x) {
					v += x
					any = true
				}
			}
			if !any {
				continue
			}
			if rate && dt > 0 {
				v /= dt
			}
			pts = append(pts, Point{AtNS: s.atNS, V: sanitize(v)})
		}
		return downsample(pts)
	}

	for _, key := range order {
		g := groups[key]
		cw := ChildWindow{Labels: g.labels}
		switch kind {
		case "counter":
			delta := 0.0
			for _, i := range g.scalar {
				for _, s := range snaps[1:] {
					if v := colVal(s, i); !math.IsNaN(v) {
						delta += v
					}
				}
			}
			cw.Delta = sanitize(delta)
			cw.RatePerSec = sanitize(delta / elapsed)
			cw.Points = series(g.scalar, true)
		case "gauge":
			mn, mx, last := math.Inf(1), math.Inf(-1), math.NaN()
			for _, i := range g.scalar {
				for _, s := range snaps {
					v := colVal(s, i)
					if math.IsNaN(v) {
						continue
					}
					if v < mn {
						mn = v
					}
					if v > mx {
						mx = v
					}
					last = v
				}
			}
			cw.Last, cw.Min, cw.Max = sanitize(last), sanitize(mn), sanitize(mx)
			cw.Points = series(g.scalar, false)
		case "histogram":
			byLe := make(map[float64]float64)
			for _, i := range g.buckets {
				c := &h.cols[i]
				for _, s := range snaps[1:] {
					if v := colVal(s, i); !math.IsNaN(v) {
						byLe[c.le] += v
					}
				}
			}
			var bounds []float64
			for le := range byLe {
				bounds = append(bounds, le)
			}
			sort.Float64s(bounds)
			cum := make([]float64, len(bounds))
			for i, le := range bounds {
				cum[i] = byLe[le]
			}
			cw.P50 = sanitize(obs.QuantileFromCum(0.50, bounds, cum))
			cw.P95 = sanitize(obs.QuantileFromCum(0.95, bounds, cum))
			cw.P99 = sanitize(obs.QuantileFromCum(0.99, bounds, cum))
			if len(cum) > 0 {
				cw.Delta = sanitize(cum[len(cum)-1])
				cw.RatePerSec = sanitize(cum[len(cum)-1] / elapsed)
			}
			if g.count >= 0 {
				cw.Points = series([]int{g.count}, true)
			}
		}
		fw.Children = append(fw.Children, cw)
	}
	return fw, true
}

// DumpFor builds the response for a set of families over one window.
// Unknown families (or windows with too little data) appear with Snapshots
// set and no children, so a caller can tell "no such family yet" from a
// transport error.
func (h *History) DumpFor(families []string, window time.Duration) *Dump {
	d := &Dump{NowNS: time.Now().UnixNano()}
	if h == nil {
		return d
	}
	d.IntervalMS = h.interval.Milliseconds()
	d.Slots = h.slots
	d.Snapshots = h.Snapshots()
	for _, f := range families {
		fw, _ := h.Window(f, window)
		d.Families = append(d.Families, fw)
	}
	if d.Families == nil {
		d.Families = []FamilyWindow{}
	}
	return d
}

// Handler serves GET /debug/history?family=a,b&window=5m. family is
// required; window defaults to the whole retained ring.
func (h *History) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if h == nil {
			http.Error(w, "metrics history disabled", http.StatusNotFound)
			return
		}
		famParam := req.URL.Query().Get("family")
		if famParam == "" {
			http.Error(w, "missing required query parameter: family", http.StatusBadRequest)
			return
		}
		window := time.Duration(h.slots) * h.interval
		if ws := req.URL.Query().Get("window"); ws != "" {
			d, err := time.ParseDuration(ws)
			if err != nil || d <= 0 {
				http.Error(w, fmt.Sprintf("bad window %q: want a positive Go duration", ws), http.StatusBadRequest)
				return
			}
			window = d
		}
		var families []string
		for _, f := range strings.Split(famParam, ",") {
			if f = strings.TrimSpace(f); f != "" {
				families = append(families, f)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(h.DumpFor(families, window)) //nolint:errcheck // client gone; nothing to do
	})
}
