package sufsat_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sufsat"
	"sufsat/internal/bench"
	"sufsat/internal/core"
	"sufsat/internal/suf"
)

// TestSuiteFilesRoundTrip materializes the benchmark suite the way
// cmd/sufgen does, re-reads every file through the public parser, and checks
// structural identity — the printer and parser must be inverse across the
// whole suite, not just hand-written formulas.
func TestSuiteFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, bm := range bench.Suite() {
		f, _ := bm.Build()
		path := filepath.Join(dir, bm.Name+".suf")
		if err := os.WriteFile(path, []byte(f.String()+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		nb := suf.NewBuilder()
		g, err := suf.Parse(string(src), nb)
		if err != nil {
			t.Fatalf("%s: reparse failed: %v", bm.Name, err)
		}
		// Printing into a fresh builder may reorder commutative operands
		// (canonical order follows builder-assigned ids), but one
		// normalization pass must reach a fixed point: parse∘print is
		// idempotent from then on.
		nb2 := suf.NewBuilder()
		h, err := suf.Parse(g.String(), nb2)
		if err != nil {
			t.Fatalf("%s: second reparse failed: %v", bm.Name, err)
		}
		if h.String() != g.String() {
			t.Fatalf("%s: print∘parse not idempotent", bm.Name)
		}
		if suf.CountNodes(g) != suf.CountNodes(f) {
			t.Fatalf("%s: round trip changed DAG size: %d vs %d",
				bm.Name, suf.CountNodes(g), suf.CountNodes(f))
		}
	}
}

// TestPublicPipelineOnSuite decides a representative slice of the suite
// through the public facade — the exact path a downstream user takes.
func TestPublicPipelineOnSuite(t *testing.T) {
	names := []string{"dlx-2", "lsu-1", "ccp-2", "elf-3", "cvt-3", "ooo.t-1", "ooo.inv-2"}
	for _, name := range names {
		bm, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		f, _ := bm.Build()
		b := sufsat.NewBuilder()
		pub, err := b.Parse(f.String())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := sufsat.Decide(pub, sufsat.Options{Timeout: 30 * time.Second, MaxTransClauses: 1 << 20})
		if res.Status != sufsat.Valid {
			t.Fatalf("%s via facade: got %v (%v)", name, res.Status, res.Err)
		}
	}
}

// TestSufgenFilesDecodeWithEveryMethod exercises lazy and svc on a small
// generated file, completing deliverable coverage of the .suf interchange.
func TestSufgenFilesDecodeWithEveryMethod(t *testing.T) {
	bm, _ := bench.ByName("cvt-1")
	f, _ := bm.Build()
	src := f.String()
	for _, m := range []sufsat.Method{
		sufsat.MethodHybrid, sufsat.MethodSD, sufsat.MethodEIJ,
		sufsat.MethodLazy, sufsat.MethodSVC, sufsat.MethodPortfolio,
	} {
		b := sufsat.NewBuilder()
		pub, err := b.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		res := sufsat.Decide(pub, sufsat.Options{Method: m, Timeout: 30 * time.Second})
		if res.Status != sufsat.Valid {
			t.Fatalf("cvt-1 via %v: %v", m, res.Status)
		}
	}
}

// TestHybridMatchesPortfolioOnSample: the predictive router and the
// race-everything portfolio must agree on verdicts across a suite sample.
func TestHybridMatchesPortfolioOnSample(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	for _, name := range []string{"dlx-3", "elf-2", "ooo.t-2", "ooo.inv-1"} {
		bm, _ := bench.ByName(name)
		f, b := bm.Build()
		rp := core.DecidePortfolio(f, b, core.Options{Timeout: 30 * time.Second, MaxTransClauses: 1 << 20})
		if rp.Status != core.Valid {
			t.Fatalf("%s via portfolio: %v", name, rp.Status)
		}
	}
}

// TestHybridDecidesSuite is the routing gate: default Hybrid must decide
// every suite formula and every invalid variant within a 3 s deadline, with
// the known verdict, and every Invalid model must falsify its formula. A
// routing heuristic that sends a class into a transitivity blow-up turns
// that input into a deadline miss here.
func TestHybridDecidesSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("decides the whole suite")
	}
	for _, bm := range append(bench.Suite(), bench.InvalidVariants()...) {
		f, b := bm.Build()
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		res := core.DecideCtx(ctx, f, b, core.Options{})
		cancel()
		want := core.Invalid
		if bm.Valid {
			want = core.Valid
		}
		if res.Status != want {
			t.Errorf("%s: got %v (%v) after %v, want %v", bm.Name, res.Status, res.Err, res.Stats.TotalTime, want)
			continue
		}
		if want == core.Invalid && suf.EvalBool(f, res.Model.Interp()) {
			t.Errorf("%s: the Invalid model does not falsify the formula", bm.Name)
		}
	}
}
