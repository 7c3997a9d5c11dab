package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sufsat/internal/faultinject"
	"sufsat/internal/perconstraint"
	"sufsat/internal/suf"
)

// cliqueFormula returns ∧_{i<j} (vi < vj ∨ vj < vi) over n constants — one
// class with O(n²) separation predicates, the standard EIJ stress shape.
func cliqueFormula(b *suf.Builder, n int, prefix string) *suf.BoolExpr {
	f := b.True()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			f = b.And(f, b.Or(
				b.Lt(b.Sym(fmt.Sprintf("%s%d", prefix, i)), b.Sym(fmt.Sprintf("%s%d", prefix, j))),
				b.Lt(b.Sym(fmt.Sprintf("%s%d", prefix, j)), b.Sym(fmt.Sprintf("%s%d", prefix, i)))))
		}
	}
	return f
}

// pigeonhole returns the constraints placing n pairwise-distinct constants
// into n−1 "holes": unsatisfiable, and refuting it forces genuine SAT
// conflicts. Its negation is a valid formula.
func pigeonhole(b *suf.Builder, n int) *suf.BoolExpr {
	f := b.True()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			f = b.And(f, b.Not(b.Eq(b.Sym(fmt.Sprintf("p%d", i)), b.Sym(fmt.Sprintf("p%d", j)))))
		}
	}
	for i := 0; i < n; i++ {
		in := b.False()
		for h := 0; h < n-1; h++ {
			in = b.Or(in, b.Eq(b.Sym(fmt.Sprintf("p%d", i)), b.Sym(fmt.Sprintf("h%d", h))))
		}
		f = b.And(f, in)
	}
	return f
}

// TestCancelAtEveryStage is the cancellation soundness property: injecting a
// context cancellation at any pipeline stage must never produce a verdict
// that disagrees with an uninterrupted run — the only acceptable alternative
// outcomes are Canceled (or a verdict reached before the poll point).
func TestCancelAtEveryStage(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	var formulas []string
	for _, fc := range catalog {
		formulas = append(formulas, fc.src)
	}
	for i := 0; i < 10; i++ {
		b := suf.NewBuilder()
		formulas = append(formulas, randomSUF(rng, b, 3).String())
	}
	for _, src := range formulas {
		bb := suf.NewBuilder()
		baseline := Decide(suf.MustParse(src, bb), bb, Options{})
		if !baseline.Status.Definitive() {
			t.Fatalf("baseline not definitive for %s: %v", src, baseline.Status)
		}
		for _, stage := range Stages {
			for _, method := range []Method{Hybrid, SD, EIJ} {
				b := suf.NewBuilder()
				f := suf.MustParse(src, b)
				ctx, cancel := context.WithCancel(context.Background())
				inj := faultinject.New(stage, faultinject.CancelContext).OnCancel(cancel)
				res := DecideCtx(ctx, f, b, Options{Method: method, Hook: inj.Stage})
				cancel()
				if res.Status.Definitive() {
					if inj.Fired() > 0 {
						t.Errorf("%v cancel@%s: verdict %v after cancellation fired", method, stage, res.Status)
					}
					if res.Status != baseline.Status {
						t.Errorf("%v cancel@%s: verdict %v disagrees with baseline %v for %s",
							method, stage, res.Status, baseline.Status, src)
					}
				} else if res.Status != Canceled {
					t.Errorf("%v cancel@%s: got %v (%v), want Canceled or a pre-cancel verdict",
						method, stage, res.Status, res.Err)
				}
			}
		}
	}
}

// TestCancelLatency: cancelling mid-solve must return promptly — the poll
// points bound the reaction time.
func TestCancelLatency(t *testing.T) {
	// Refuting a 9-pigeon pigeonhole takes minutes of SAT search, so the
	// solver is guaranteed to be mid-solve when the cancel lands.
	b := suf.NewBuilder()
	f := b.Not(pigeonhole(b, 9))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *Result, 1)
	go func() { done <- DecideCtx(ctx, f, b, Options{Method: SD}) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	canceledAt := time.Now()
	select {
	case res := <-done:
		if res.Status != Canceled {
			t.Fatalf("got %v (%v), want Canceled", res.Status, res.Err)
		}
		if d := time.Since(canceledAt); d > 1500*time.Millisecond {
			t.Fatalf("cancellation took %v, want well under 1.5s", d)
		}
		if !errors.Is(res.Err, ErrCanceled) && !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("Err = %v, want a cancellation sentinel", res.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Decide did not return within 10s of cancellation")
	}
}

// TestContextDeadlineIsTimeout: a context deadline is classified Timeout, not
// Canceled.
func TestContextDeadlineIsTimeout(t *testing.T) {
	b := suf.NewBuilder()
	f := cliqueFormula(b, 12, "v")
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	res := DecideCtx(ctx, f, b, Options{Method: SD})
	if res.Status != Timeout {
		t.Fatalf("got %v (%v), want Timeout from a context deadline", res.Status, res.Err)
	}
}

// TestEIJDegradesToSD: under Hybrid, a class whose transitivity generation
// blows the budget is re-routed to SD and the run still reaches a verdict —
// the acceptance scenario for graceful degradation.
func TestEIJDegradesToSD(t *testing.T) {
	build := func() (*suf.BoolExpr, *suf.Builder) {
		b := suf.NewBuilder()
		clique := cliqueFormula(b, 10, "v")
		// (clique ∧ v0<v1) ⟹ v0<v1 is valid whatever the clique does.
		f := b.Implies(b.And(clique, b.Lt(b.Sym("v0"), b.Sym("v1"))), b.Lt(b.Sym("v0"), b.Sym("v1")))
		return f, b
	}
	// A threshold far above the class's SepCnt forces EIJ routing; the tiny
	// transitivity budget then forces the degradation path.
	opts := Options{Method: Hybrid, SepThreshold: 1 << 30, MaxTransClauses: 10}

	f, b := build()
	res := Decide(f, b, opts)
	if res.Status != Valid {
		t.Fatalf("got %v (%v), want Valid via SD degradation", res.Status, res.Err)
	}
	if res.Stats.DemotedClasses != 1 {
		t.Errorf("DemotedClasses = %d, want 1", res.Stats.DemotedClasses)
	}
	if res.Stats.SDClasses != res.Stats.DemotedClasses {
		t.Errorf("SDClasses = %d, want %d (only the demoted class)", res.Stats.SDClasses, res.Stats.DemotedClasses)
	}

	// With NoDegrade the same run must fail as ResourceOut instead.
	f, b = build()
	opts.NoDegrade = true
	res = Decide(f, b, opts)
	if res.Status != ResourceOut || !errors.Is(res.Err, perconstraint.ErrTranslationLimit) {
		t.Fatalf("NoDegrade: got (%v, %v), want translation-limit ResourceOut", res.Status, res.Err)
	}

	// Pure EIJ has no SD to fall back on: ResourceOut as well.
	f, b = build()
	res = Decide(f, b, Options{Method: EIJ, MaxTransClauses: 10})
	if res.Status != ResourceOut {
		t.Fatalf("EIJ: got (%v, %v), want ResourceOut", res.Status, res.Err)
	}
}

// TestDegradedRunStaysSound: degradation must not change verdicts, only the
// encoding route. Sweep the catalog with a budget small enough to demote.
func TestDegradedRunStaysSound(t *testing.T) {
	for _, fc := range catalog {
		b := suf.NewBuilder()
		f := suf.MustParse(fc.src, b)
		want := Invalid
		if fc.valid {
			want = Valid
		}
		res := Decide(f, b, Options{Method: Hybrid, SepThreshold: 1 << 30, MaxTransClauses: 1})
		if res.Status != want {
			t.Errorf("%s: got %v (%v), want %v under forced degradation", fc.name, res.Status, res.Err, want)
		}
	}
}

func TestConflictBudget(t *testing.T) {
	b := suf.NewBuilder()
	f := b.Not(pigeonhole(b, 6))
	if res := Decide(f, b, Options{}); res.Status != Valid {
		t.Fatalf("pigeonhole sanity: got %v, want Valid", res.Status)
	}
	b = suf.NewBuilder()
	f = b.Not(pigeonhole(b, 6))
	res := Decide(f, b, Options{MaxConflicts: 1})
	if res.Status != ResourceOut || !errors.Is(res.Err, ErrConflictBudget) {
		t.Fatalf("got (%v, %v), want conflict-budget ResourceOut", res.Status, res.Err)
	}
}

func TestCNFClauseBudget(t *testing.T) {
	b := suf.NewBuilder()
	f := cliqueFormula(b, 6, "v")
	res := Decide(f, b, Options{MaxCNFClauses: 1})
	if res.Status != ResourceOut || !errors.Is(res.Err, ErrClauseBudget) {
		t.Fatalf("got (%v, %v), want clause-budget ResourceOut", res.Status, res.Err)
	}
}

func TestMemoryBudget(t *testing.T) {
	b := suf.NewBuilder()
	f := cliqueFormula(b, 6, "v")
	res := Decide(f, b, Options{MaxMemoryEstimate: 1})
	if res.Status != ResourceOut || !errors.Is(res.Err, ErrMemoryBudget) {
		t.Fatalf("got (%v, %v), want memory-budget ResourceOut", res.Status, res.Err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestDumpCNFErrorStampsTimes: a DIMACS dump failure must classify as Error
// and still report the timings gathered so far.
func TestDumpCNFErrorStampsTimes(t *testing.T) {
	b := suf.NewBuilder()
	f := cliqueFormula(b, 4, "v")
	res := Decide(f, b, Options{DumpCNF: failWriter{}})
	if res.Status != Error || res.Err == nil {
		t.Fatalf("got (%v, %v), want Error with the dump failure", res.Status, res.Err)
	}
	if res.Stats.EncodeTime <= 0 || res.Stats.TotalTime <= 0 {
		t.Fatalf("EncodeTime=%v TotalTime=%v, want both stamped on the dump error path",
			res.Stats.EncodeTime, res.Stats.TotalTime)
	}
}

// TestHookErrorAborts: a stage hook returning an error aborts the run with
// that error, and stages after the failing one are never entered.
func TestHookErrorAborts(t *testing.T) {
	boom := errors.New("injected analyze failure")
	b := suf.NewBuilder()
	f := suf.MustParse(catalog[0].src, b)
	inj := faultinject.New(StageAnalyze, faultinject.ReturnError).OnError(boom)
	res := Decide(f, b, Options{Hook: inj.Stage})
	if res.Status != Error || !errors.Is(res.Err, boom) {
		t.Fatalf("got (%v, %v), want Error wrapping the injected failure", res.Status, res.Err)
	}
	for _, st := range inj.Visited() {
		if st == StageSAT || st == StageEncode {
			t.Fatalf("stage %s entered after the injected analyze failure (visited %v)", st, inj.Visited())
		}
	}
	if inj.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1", inj.Fired())
	}
}

// TestHookBudgetErrorClassifies: hooks can inject budget sentinels and the
// taxonomy classifies them like organic exhaustion.
func TestHookBudgetErrorClassifies(t *testing.T) {
	b := suf.NewBuilder()
	f := suf.MustParse(catalog[0].src, b)
	inj := faultinject.New(StageSAT, faultinject.ReturnError).OnError(ErrMemoryBudget)
	res := Decide(f, b, Options{Hook: inj.Stage})
	if res.Status != ResourceOut || !errors.Is(res.Err, ErrMemoryBudget) {
		t.Fatalf("got (%v, %v), want ResourceOut from the injected budget sentinel", res.Status, res.Err)
	}
}

func TestPortfolioNoGoroutineLeak(t *testing.T) {
	b := suf.NewBuilder()
	f := suf.MustParse(catalog[0].src, b)
	err := faultinject.LeakCheck(func() {
		if res := DecidePortfolio(f, b, Options{Timeout: 30 * time.Second}); !res.Status.Definitive() {
			t.Errorf("portfolio: got %v (%v)", res.Status, res.Err)
		}
	}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPortfolioExternalCancelNoLeak(t *testing.T) {
	b := suf.NewBuilder()
	f := b.Not(pigeonhole(b, 9))
	err := faultinject.LeakCheck(func() {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan *Result, 1)
		go func() { done <- DecidePortfolioCtx(ctx, f, b, Options{}) }()
		time.Sleep(30 * time.Millisecond)
		cancel()
		res := <-done
		if res.Status != Canceled {
			t.Errorf("got %v (%v), want Canceled", res.Status, res.Err)
		}
	}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
}

// TestPortfolioContainsPanic: a worker panic (injected via the stage hook)
// must surface as an Error result with the captured stack, not crash the
// process, and must not leak goroutines.
func TestPortfolioContainsPanic(t *testing.T) {
	b := suf.NewBuilder()
	f := suf.MustParse(catalog[0].src, b)
	inj := faultinject.New(StageEncode, faultinject.Panic)
	err := faultinject.LeakCheck(func() {
		res := DecidePortfolio(f, b, Options{Hook: inj.Stage})
		if res.Status != Error {
			t.Errorf("got %v, want Error from contained panics", res.Status)
		}
		var pe *PanicError
		if !errors.As(res.Err, &pe) || len(pe.Stack) == 0 {
			t.Errorf("Err = %v, want *PanicError with a captured stack", res.Err)
		}
	}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
}

// TestPreCanceledContextCancelsTinyFormula: a context already canceled on
// entry cancels even a formula that needs no SAT search at all.
func TestPreCanceledContextCancelsTinyFormula(t *testing.T) {
	b := suf.NewBuilder()
	x, y := b.Sym("x"), b.Sym("y")
	f := b.Or(b.Eq(x, y), b.Not(b.Eq(x, y)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := DecideCtx(ctx, f, b, Options{})
	if res.Status != Canceled {
		t.Fatalf("got %v (%v), want Canceled for a pre-canceled context", res.Status, res.Err)
	}
}
