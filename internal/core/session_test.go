package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sufsat/internal/suf"
)

// guardedCatalog builds AND_k (g<k> ⟹ φ_k) over the first n catalog facts —
// the BMC unrolling shape a session exists for.
func guardedCatalog(t *testing.T, b *suf.Builder, n int) (*suf.BoolExpr, []fact) {
	t.Helper()
	facts := catalog[:n]
	var parts []string
	for k, fc := range facts {
		parts = append(parts, fmt.Sprintf("(=> g%d %s)", k, fc.src))
	}
	src := "(and " + strings.Join(parts, " ") + ")"
	f, err := suf.Parse(src, b)
	if err != nil {
		t.Fatalf("parse guarded catalog: %v", err)
	}
	return f, facts
}

// onlyGuard returns the assumption map selecting fact k out of n.
func onlyGuard(k, n int) map[string]bool {
	m := make(map[string]bool, n)
	for j := 0; j < n; j++ {
		m[fmt.Sprintf("g%d", j)] = j == k
	}
	return m
}

// TestSessionMatchesDecide is the ground-truth check: every per-guard session
// verdict must equal a cold Decide of the bare fact.
func TestSessionMatchesDecide(t *testing.T) {
	const n = 12
	b := suf.NewBuilder()
	f, facts := guardedCatalog(t, b, n)
	s, err := OpenSession(context.Background(), f, b, Options{})
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	defer s.Close()

	for k, fc := range facts {
		res := s.DecideAssuming(context.Background(), onlyGuard(k, n))
		want := Invalid
		if fc.valid {
			want = Valid
		}
		if res.Status != want {
			t.Errorf("%s: session says %v, want %v (err=%v)", fc.name, res.Status, want, res.Err)
		}
		if res.Status == Invalid && res.Model == nil {
			t.Errorf("%s: Invalid without a model", fc.name)
		}

		cb := suf.NewBuilder()
		cf := suf.MustParse(fc.src, cb)
		cold := Decide(cf, cb, Options{})
		if cold.Status != res.Status {
			t.Errorf("%s: session %v disagrees with cold Decide %v", fc.name, res.Status, cold.Status)
		}
	}
	if s.Queries() != n {
		t.Errorf("Queries() = %d, want %d", s.Queries(), n)
	}
}

// TestSessionAllGuardsAtOnce checks compound assumption sets: with every
// guard raised the conjunction is valid iff all facts are.
func TestSessionAllGuardsAtOnce(t *testing.T) {
	b := suf.NewBuilder()
	// facts 0 and 1 of the catalog are both valid.
	f, facts := guardedCatalog(t, b, 2)
	for _, fc := range facts {
		if !fc.valid {
			t.Fatalf("test premise broken: %s not valid", fc.name)
		}
	}
	s, err := OpenSession(context.Background(), f, b, Options{})
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	defer s.Close()
	all := map[string]bool{"g0": true, "g1": true}
	if res := s.DecideAssuming(context.Background(), all); res.Status != Valid {
		t.Errorf("all guards: got %v, want Valid", res.Status)
	}
	// With every guard dropped the formula is the empty conjunction — valid.
	none := map[string]bool{"g0": false, "g1": false}
	if res := s.DecideAssuming(context.Background(), none); res.Status != Valid {
		t.Errorf("no guards: got %v, want Valid", res.Status)
	}
}

// TestSessionParallelWorkers drives the portfolio solve path through the
// session API.
func TestSessionParallelWorkers(t *testing.T) {
	const n = 6
	b := suf.NewBuilder()
	f, facts := guardedCatalog(t, b, n)
	s, err := OpenSession(context.Background(), f, b, Options{SolverWorkers: 3})
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	defer s.Close()
	for k, fc := range facts {
		res := s.DecideAssuming(context.Background(), onlyGuard(k, n))
		want := Invalid
		if fc.valid {
			want = Valid
		}
		if res.Status != want {
			t.Errorf("%s (parallel): got %v, want %v", fc.name, res.Status, want)
		}
	}
}

// TestSessionUnknownGuardIgnored: assumptions on names absent from the
// encoding are skipped, not errors, and HasGuard reports presence. The
// guarded fact must not be a propositional tautology after encoding, or the
// guard itself is (soundly) simplified away.
func TestSessionUnknownGuardIgnored(t *testing.T) {
	b := suf.NewBuilder()
	f := suf.MustParse("(=> g (=> (= (f x) (f y)) (= x y)))", b)
	s, err := OpenSession(context.Background(), f, b, Options{})
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	defer s.Close()
	if !s.HasGuard("g") {
		t.Errorf("HasGuard(g) = false, want true")
	}
	if s.HasGuard("nope") {
		t.Errorf("HasGuard(nope) = true, want false")
	}
	res := s.DecideAssuming(context.Background(), map[string]bool{"g": true, "nope": false})
	if res.Status != Invalid {
		t.Errorf("g raised: got %v, want Invalid (injectivity does not hold)", res.Status)
	}
	if res := s.DecideAssuming(context.Background(), map[string]bool{"g": false}); res.Status != Valid {
		t.Errorf("g dropped: got %v, want Valid", res.Status)
	}
}

// TestSessionGuardSimplifiedAway: a guard on a conjunct whose encoding folds
// to true vanishes from the CNF; assuming it either way must stay correct.
func TestSessionGuardSimplifiedAway(t *testing.T) {
	b := suf.NewBuilder()
	// The encoding of func-congruence is propositionally valid (the eij
	// variable for x~y appears with both polarities), so g folds away.
	f := suf.MustParse("(=> g (=> (= x y) (= (f x) (f y))))", b)
	s, err := OpenSession(context.Background(), f, b, Options{})
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	defer s.Close()
	if s.HasGuard("g") {
		t.Skip("encoding kept the guard; nothing to test")
	}
	for _, v := range []bool{true, false} {
		if res := s.DecideAssuming(context.Background(), map[string]bool{"g": v}); res.Status != Valid {
			t.Errorf("g=%v: got %v, want Valid", v, res.Status)
		}
	}
}

// TestSessionClosed: queries after Close fail cleanly.
func TestSessionClosed(t *testing.T) {
	b := suf.NewBuilder()
	f := suf.MustParse("(or p (not p))", b)
	s, err := OpenSession(context.Background(), f, b, Options{})
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	s.Close()
	s.Close() // idempotent
	res := s.DecideAssuming(context.Background(), nil)
	if res.Status != Error || res.Err == nil {
		t.Errorf("closed session: got %v err=%v, want Error", res.Status, res.Err)
	}
}

// TestSessionRepeatQueriesCheaper: re-asking the same conditional query must
// not redo the search from scratch — learnt clauses persist.
func TestSessionRepeatQueriesCheaper(t *testing.T) {
	const n = 12
	b := suf.NewBuilder()
	f, _ := guardedCatalog(t, b, n)
	s, err := OpenSession(context.Background(), f, b, Options{})
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	defer s.Close()
	before := s.DecideAssuming(context.Background(), onlyGuard(0, n)).Stats.SAT.Conflicts
	first := s.DecideAssuming(context.Background(), onlyGuard(3, n)).Stats.SAT.Conflicts - before
	rerun := s.DecideAssuming(context.Background(), onlyGuard(3, n)).Stats.SAT.Conflicts - before - first
	if rerun > first {
		t.Errorf("rerun cost %d conflicts > first cost %d: no incrementality", rerun, first)
	}
}

// TestSessionRoutesLikeDecide: OpenSession shares DecideCtx's routing, so a
// class whose transitivity count does not fit the budget is encoded with SD
// in a single pass, and NoDegrade fails on the budget instead.
func TestSessionRoutesLikeDecide(t *testing.T) {
	build := func() (*suf.BoolExpr, *suf.Builder) {
		b := suf.NewBuilder()
		clique := cliqueFormula(b, 10, "v")
		f := b.Implies(b.And(clique, b.Lt(b.Sym("v0"), b.Sym("v1"))), b.Lt(b.Sym("v0"), b.Sym("v1")))
		return f, b
	}
	opts := Options{SepThreshold: 1 << 30, MaxTransClauses: 10}
	f, b := build()
	s, err := OpenSession(context.Background(), f, b, opts)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	defer s.Close()
	res := s.Decide(context.Background())
	if res.Status != Valid || res.Stats.DemotedClasses != 1 || res.Stats.SDClasses != 1 {
		t.Fatalf("got %v with %d demoted / %d SD classes, want Valid with 1 / 1",
			res.Status, res.Stats.DemotedClasses, res.Stats.SDClasses)
	}

	f, b = build()
	opts.NoDegrade = true
	if _, err := OpenSession(context.Background(), f, b, opts); StatusOf(err) != ResourceOut {
		t.Fatalf("NoDegrade: got %v, want a ResourceOut error", err)
	}
}
