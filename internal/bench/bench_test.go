package bench

import (
	"math/rand"
	"testing"
	"time"

	"sufsat/internal/core"
	"sufsat/internal/suf"
)

func TestSuiteComposition(t *testing.T) {
	suite := Suite()
	if len(suite) != 49 {
		t.Fatalf("suite size = %d, want 49 (like the paper)", len(suite))
	}
	nInv := 0
	families := make(map[string]int)
	for _, b := range suite {
		if b.Invariant {
			nInv++
		}
		families[b.Family]++
		if !b.Valid {
			t.Errorf("%s: suite benchmarks must be valid", b.Name)
		}
	}
	if nInv != 10 {
		t.Errorf("invariant benchmarks = %d, want 10", nInv)
	}
	if len(NonInvariant()) != 39 {
		t.Errorf("non-invariant = %d, want 39", len(NonInvariant()))
	}
	if len(InvariantChecking()) != 10 {
		t.Errorf("invariant-checking = %d, want 10", len(InvariantChecking()))
	}
	if len(families) != 7 {
		t.Errorf("families = %v, want 7 (six domains, ooo split in two)", families)
	}
}

func TestSample16(t *testing.T) {
	sample := Sample16()
	if len(sample) != 16 {
		t.Fatalf("sample size = %d, want 16", len(sample))
	}
	families := make(map[string]bool)
	for _, b := range sample {
		families[b.Family] = true
	}
	// "at least 1 formula from each problem domain"
	for _, fam := range []string{"dlx", "lsu", "ccp", "elf", "cvt", "ooo.t", "ooo.inv"} {
		if !families[fam] {
			t.Errorf("sample missing family %s", fam)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	bm, ok := ByName("dlx-3")
	if !ok {
		t.Fatal("dlx-3 missing")
	}
	f1, _ := bm.Build()
	f2, _ := bm.Build()
	if suf.CountNodes(f1) != suf.CountNodes(f2) {
		t.Fatal("Build is not deterministic")
	}
	if f1.String() != f2.String() {
		t.Fatal("Build produced structurally different formulas")
	}
}

func TestBenchmarksHaveDistinctNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, b := range Suite() {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark name %s", b.Name)
		}
		seen[b.Name] = true
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("dlx-1"); !ok {
		t.Error("dlx-1 should exist")
	}
	if _, ok := ByName("nonsense-99"); ok {
		t.Error("nonsense-99 should not exist")
	}
}

// TestSmallBenchmarksAreValid decides the smallest benchmark of each family
// with all three eager methods: the suite's validity-by-construction claim
// is load-bearing for every experiment.
func TestSmallBenchmarksAreValid(t *testing.T) {
	for _, name := range []string{"dlx-1", "lsu-1", "ccp-1", "elf-1", "cvt-1", "ooo.t-1", "ooo.inv-1"} {
		bm, ok := ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		for _, m := range []core.Method{core.Hybrid, core.SD, core.EIJ} {
			f, b := bm.Build()
			res := core.Decide(f, b, core.Options{Method: m, Timeout: 30 * time.Second, MaxTransClauses: 1 << 20})
			if res.Status == core.Timeout {
				continue // acceptable for EIJ on dense formulas
			}
			if res.Status != core.Valid {
				t.Errorf("%s via %v: got %v, want valid", name, m, res.Status)
			}
		}
	}
}

// TestRandomInterpretationsNeverFalsify samples random interpretations on
// mid-size benchmarks: a single falsification would disprove the
// validity-by-construction argument.
func TestRandomInterpretationsNeverFalsify(t *testing.T) {
	for _, name := range []string{"dlx-3", "lsu-2", "ccp-2", "elf-2", "cvt-3", "ooo.t-2", "ooo.inv-2"} {
		bm, ok := ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		f, _ := bm.Build()
		rng := newTestRand(name)
		for trial := 0; trial < 25; trial++ {
			it := suf.RandomInterp(rng, 8)
			if !suf.EvalBool(f, it) {
				t.Fatalf("%s falsified by a random interpretation — generator broken", name)
			}
		}
	}
}

func TestInvalidVariantsAreInvalid(t *testing.T) {
	for _, bm := range InvalidVariants() {
		f, b := bm.Build()
		res := core.Decide(f, b, core.Options{Method: core.SD, Timeout: 30 * time.Second})
		if res.Status != core.Invalid {
			t.Errorf("%s: got %v, want invalid", bm.Name, res.Status)
		}
	}
}

func TestSizeSpectrum(t *testing.T) {
	minN, maxN := 1<<30, 0
	for _, bm := range Suite() {
		f, _ := bm.Build()
		n := suf.CountNodes(f)
		if n < minN {
			minN = n
		}
		if n > maxN {
			maxN = n
		}
		if n < 20 {
			t.Errorf("%s: only %d nodes — degenerate benchmark", bm.Name, n)
		}
	}
	if maxN < 500 {
		t.Errorf("largest benchmark has %d nodes; expected a broad size spectrum", maxN)
	}
	if minN > 400 {
		t.Errorf("smallest benchmark has %d nodes; expected small entries too", minN)
	}
}

func newTestRand(name string) *rand.Rand {
	h := int64(0)
	for _, c := range name {
		h = h*31 + int64(c)
	}
	return rand.New(rand.NewSource(h))
}
