package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs, interpolating linearly between the
// closest ranks; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// hdQuantile is the Harrell-Davis estimate of the q-quantile of xs: the mean
// of all order statistics weighted by the Beta((n+1)q, (n+1)(1-q)) mass over
// each one's interval [i/n, (i+1)/n]. Where a single order statistic jumps
// with whichever input lands at rank qn, this weighs its neighbours too, so
// it moves less from run to run. xs is not modified.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n < 2 || q <= 0 || q >= 1 {
		return quantile(xs, q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	pdf := func(x float64) float64 {
		if x <= 0 || x >= 1 {
			return 0
		}
		return math.Exp((a-1)*math.Log(x) + (b-1)*math.Log1p(-x) - la - lb + lab)
	}
	// Simpson's rule on each interval.
	const steps = 64
	h := 1 / float64(n*steps)
	var est, total float64
	for i, x := range s {
		lo := float64(i) / float64(n)
		w := pdf(lo) + pdf(lo+float64(steps)*h)
		for k := 1; k < steps; k++ {
			w += float64(2+2*(k%2)) * pdf(lo+float64(k)*h)
		}
		est += w * x
		total += w
	}
	return est / total
}

// tail is the highest percentile of xs that has ten samples beyond it,
// estimated by hdQuantile.
func tail(xs []float64) float64 { return hdQuantile(xs, max(0, 1-10/float64(len(xs)))) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// span is one traced interval. Spans of one operation share Op; Parent is the
// index of the causing span, -1 for a root.
type span struct {
	Op      string             `json:"op"`
	Name    string             `json:"name"`
	Parent  int                `json:"parent"`
	StartMS float64            `json:"start_ms"`
	DurMS   float64            `json:"dur_ms"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records [start, end) as a child of parent and returns its index.
func (t *tracer) add(op, name string, parent int, start, end time.Time, counts map[string]float64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent,
		StartMS: ms(start.Sub(t.t0)), DurMS: ms(end.Sub(start)), Counts: counts})
	return len(t.spans) - 1
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
