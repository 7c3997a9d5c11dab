package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"

	"sufsat"
	"sufsat/internal/suf"
)

func draw(pool []input, n int, seed int64) []request {
	m := newMix(pool, rand.New(rand.NewSource(seed)))
	out := make([]request, n)
	for i := range out {
		out[i] = m.next()
	}
	return out
}

func fingerprint(t *testing.T, text string) string {
	t.Helper()
	f, err := suf.Parse(text, suf.NewBuilder())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return suf.Fingerprint(f)
}

func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(suiteInputs(7), suiteInputs(7)) {
		t.Fatal("suite inputs differ for one seed")
	}
	pool := render(servePool())
	a, b := draw(pool, 100, 7), draw(pool, 100, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("serve-mix streams differ for one seed")
	}
}

func TestSeedsChangeTextsNotVerdicts(t *testing.T) {
	a, b := suiteInputs(1), suiteInputs(2)
	if len(a) != 55 || len(b) != 55 {
		t.Fatalf("want 55 inputs, got %d and %d", len(a), len(b))
	}
	verdicts := func(ins []input) []string {
		var out []string
		for _, in := range ins {
			out = append(out, in.Name+"/"+map[bool]string{true: "valid", false: "invalid"}[in.Valid])
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(verdicts(a), verdicts(b)) {
		t.Fatal("verdict multisets differ between seeds")
	}
	for i := range a {
		if a[i].Text == b[i].Text {
			t.Errorf("%s: same text under two seeds", a[i].Name)
		}
	}
}

func TestRenameKeepsFingerprintAndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, in := range render(servePool()) {
		r := rename(in.Text, rng)
		if fingerprint(t, r) != fingerprint(t, in.Text) {
			t.Errorf("%s: renaming changed the fingerprint", in.Name)
		}
		old, renamed := symbols(in.Text), symbols(r)
		if len(old) != len(renamed) {
			t.Fatalf("%s: %d symbols became %d", in.Name, len(old), len(renamed))
		}
		// symbols() sorts; an order-preserving rename maps the i-th old
		// name to the i-th new one, which rewriting old by position shows.
		m := make(map[string]string, len(old))
		for i := range old {
			m[old[i]] = renamed[i]
		}
		var back []byte
		for _, tok := range tokenize(in.Text) {
			if tok.sym {
				back = append(back, m[tok.text]...)
			} else {
				back = append(back, tok.text...)
			}
		}
		if string(back) != r {
			t.Errorf("%s: renaming does not preserve symbol order", in.Name)
		}
	}
}

// A renamed spelling must cost the solver exactly the same work.
func TestRenameKeepsSolverWork(t *testing.T) {
	ins := render(suiteSet())
	for _, name := range []string{"dlx-3", "lsu-2", "elf-2", "ooo.inv-2"} {
		var in input
		for _, x := range ins {
			if x.Name == name {
				in = x
			}
		}
		var got []sufsat.Stats
		for seed := int64(1); seed <= 2; seed++ {
			f, err := sufsat.NewBuilder().Parse(rename(in.Text, rand.New(rand.NewSource(seed))))
			if err != nil {
				t.Fatal(err)
			}
			r := sufsat.Decide(f, sufsat.Options{})
			if r.Status != sufsat.Valid {
				t.Fatalf("%s: %v", name, r.Status)
			}
			s := r.Stats
			s.EncodeTime, s.SATTime, s.TotalTime = 0, 0, 0
			got = append(got, s)
		}
		if got[0] != got[1] {
			t.Errorf("%s: work differs between spellings: %+v vs %+v", name, got[0], got[1])
		}
	}
}

func TestTagsAreFreshAndKeepVerdicts(t *testing.T) {
	pool := render(servePool())
	base := pool[0].Text
	seen := map[string]bool{fingerprint(t, base): true}
	for _, n := range []uint64{1, 2, 3, 4, 5, 6, 7, 8, 100, 101, 1 << 20, 1<<20 + 1, 1<<21 - 1} {
		fp := fingerprint(t, tagged(base, n))
		if seen[fp] {
			t.Fatalf("tag %d: fingerprint not fresh", n)
		}
		seen[fp] = true
	}
	for _, in := range pool {
		if in.Name != "ccp-2" && in.Name != "elf-bad" && in.Name != "cvt-bad" {
			continue
		}
		in.Text = tagged(in.Text, 12345)
		f, err := sufsat.NewBuilder().Parse(in.Text)
		if err != nil {
			t.Fatal(err)
		}
		r := sufsat.Decide(f, sufsat.Options{})
		if _, err := verdict(in, r); err != nil {
			t.Error(err)
		}
	}
}

func TestMixShares(t *testing.T) {
	pool := render(servePool())
	byName := map[string]input{}
	for _, in := range pool {
		byName[in.Name] = in
	}
	reqs := draw(pool, 300, 5)
	firsts := 0
	count := map[bool]map[string]int{true: {}, false: {}}
	for i, r := range reqs {
		count[r.First][r.Input.Name]++
		p := byName[r.Input.Name]
		switch {
		case r.First:
			firsts++
		case !p.Valid && r.Input.Text != p.Text:
			t.Errorf("%d: invalid repeat is not byte-identical", i)
		case p.Valid && r.Input.Text == p.Text:
			t.Errorf("%d: valid repeat is not renamed", i)
		}
	}
	if firsts != 100 {
		t.Errorf("want 100 first sightings, got %d", firsts)
	}
	// Cycling permutations draws every entry ⌊k/n⌋ or ⌈k/n⌉ times.
	for first, k := range map[bool]int{true: 100, false: 200} {
		lo := k / len(pool)
		for _, in := range pool {
			if c := count[first][in.Name]; c < lo || c > lo+1 {
				t.Errorf("%s drawn %d times of %d (first=%v); draws are not balanced", in.Name, c, k, first)
			}
		}
	}
}

func TestModelCheck(t *testing.T) {
	in := input{Name: "eq", Valid: false, Text: "(or (= x y) (= (f x) (f y)))"}
	f, err := sufsat.NewBuilder().Parse(in.Text)
	if err != nil {
		t.Fatal(err)
	}
	r := sufsat.Decide(f, sufsat.Options{})
	if _, err := verdict(in, r); err != nil {
		t.Fatalf("a correct model was rejected: %v", err)
	}
	if checkModel(in.Text, map[string]int64{"x": 0, "y": 0}, nil) == nil {
		t.Error("a satisfying assignment passed the model check")
	}
	if checkAnswer(in, true, nil, nil) == nil {
		t.Error("a wrong verdict passed")
	}
	if checkAnswer(in, false, nil, nil) == nil {
		t.Error("an invalid answer without a model passed")
	}
}

func TestHDQuantile(t *testing.T) {
	xs := make([]float64, 55)
	for i := range xs {
		xs[54-i] = float64(i + 1)
	}
	if got := hdQuantile(xs, 0.5); math.Abs(got-28) > 1e-6 {
		t.Errorf("p50 of 1..55 = %v, want 28", got)
	}
	if got := hdQuantile(xs, 0.9); got <= quantile(xs, 0.85) || got >= quantile(xs, 0.95) {
		t.Errorf("p90 of 1..55 = %v, not near %v", got, quantile(xs, 0.9))
	}
	if xs[0] != 55 {
		t.Error("hdQuantile modified its input")
	}
	if got := hdQuantile([]float64{4, 4, 4}, 0.7); math.Abs(got-4) > 1e-9 {
		t.Errorf("constant sample gave %v", got)
	}
}

// BENCHMARK.json lists exactly the metrics the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
