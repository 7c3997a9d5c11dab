package sat

import (
	"context"
	"math/rand"
	"testing"
)

// tseitinLikeCNF draws a random CNF shaped like Tseitin output: nXor
// three-variable parity constraints (four ternary clauses each, the clauses
// of an Xor gate, and what makes the search meet conflicts) plus nOther
// random clauses, 60% binary, 30% ternary and 10% with four literals.
func tseitinLikeCNF(rng *rand.Rand, nVars, nXor, nOther int) [][]Lit {
	var clauses [][]Lit
	for i := 0; i < nXor; i++ {
		p := rng.Perm(nVars)[:3]
		odd := rng.Intn(2) == 0
		for m := 0; m < 8; m++ {
			// Forbid each assignment of the wrong parity.
			if (m&1^m>>1&1^m>>2&1 == 1) == odd {
				continue
			}
			c := make([]Lit, 3)
			for j, v := range p {
				c[j] = MkLit(v, m>>j&1 == 1)
			}
			clauses = append(clauses, c)
		}
	}
	for i := 0; i < nOther; i++ {
		w := 2
		switch r := rng.Intn(10); {
		case r == 9:
			w = 4
		case r >= 6:
			w = 3
		}
		c := make([]Lit, 0, w)
		for j := 0; j < w; j++ {
			c = append(c, MkLit(rng.Intn(nVars), rng.Intn(2) == 0))
		}
		clauses = append(clauses, c)
	}
	return clauses
}

// bruteForceSat64 is bruteForceSat evaluated 64 assignments at a time: the
// low six variables take every combination across the bits of a word, so
// instances of 20-odd variables stay cheap to enumerate. nVars must be ≥ 6.
func bruteForceSat64(nVars int, clauses [][]Lit) bool {
	low := [6]uint64{
		0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
		0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
	}
	for hi := 0; hi < 1<<(nVars-6); hi++ {
		all := ^uint64(0)
		for _, c := range clauses {
			var sat uint64
			for _, l := range c {
				var m uint64
				if v := l.Var(); v < 6 {
					m = low[v]
				} else if hi>>(v-6)&1 == 1 {
					m = ^uint64(0)
				}
				if l.Neg() {
					m = ^m
				}
				sat |= m
			}
			if all &= sat; all == 0 {
				break
			}
		}
		if all != 0 {
			return true
		}
	}
	return false
}

// lowLimits lowers the learnt-clause limit and the arena collection
// threshold for the rest of the test, so small instances run reduceDB and
// garbageCollect many times.
func lowLimits(t *testing.T) {
	limit, worth := learntLimit, gcWorthIt
	learntLimit = func(int) float64 { return 2 }
	gcWorthIt = func(wasted, _ int) bool { return wasted > 0 }
	t.Cleanup(func() { learntLimit, gcWorthIt = limit, worth })
}

// tseitinSolver loads clauses into a solver that restarts after every
// conflict, so arena collections (which run at restarts) happen often.
func tseitinSolver(nVars int, clauses [][]Lit) *Solver {
	s := solverFor(nVars, clauses)
	s.restartUnit = 1
	return s
}

// TestBruteForceTseitinLike checks Solve, SolveAssume under random
// assumptions and SolveParallel(4) against brute force on random small
// mostly-binary CNFs, with learnt-database reduction and arena collection
// forced throughout. Every Sat model is checked clause by clause.
func TestBruteForceTseitinLike(t *testing.T) {
	lowLimits(t)
	rng := rand.New(rand.NewSource(13))
	n := 300
	if testing.Short() {
		n = 80
	}
	var sats, unsats int
	var total Stats
	tally := func(s *Solver) {
		st := s.Stats()
		total.ReduceDBs += st.ReduceDBs
		total.ArenaGCs += st.ArenaGCs
		total.Conflicts += st.Conflicts
	}
	for i := 0; i < n; i++ {
		// Near the satisfiability threshold of this mix, so both answers
		// occur and the search meets conflicts.
		nVars := 18 + rng.Intn(5)
		clauses := tseitinLikeCNF(rng, nVars, nVars*3/4, nVars/2+rng.Intn(nVars/2))
		want := bruteForceSat64(nVars, clauses)
		if want {
			sats++
		} else {
			unsats++
		}

		s := tseitinSolver(nVars, clauses)
		if got := s.Solve(); (got == Sat) != want {
			t.Fatalf("case %d: Solve = %v, brute force sat=%v", i, got, want)
		} else if got == Sat && !modelSatisfies(s.Model(), clauses) {
			t.Fatalf("case %d: Solve model violates a clause", i)
		}
		tally(s)

		// The same solver answers assumption queries incrementally.
		s = tseitinSolver(nVars, clauses)
		for q := 0; q < 3; q++ {
			assumps := make([]Lit, 1+rng.Intn(3))
			withUnits := append([][]Lit(nil), clauses...)
			for k := range assumps {
				assumps[k] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
				withUnits = append(withUnits, []Lit{assumps[k]})
			}
			wantA := bruteForceSat64(nVars, withUnits)
			got := s.SolveAssume(assumps...)
			if (got == Sat) != wantA {
				t.Fatalf("case %d query %d: SolveAssume(%v) = %v, brute force sat=%v", i, q, assumps, got, wantA)
			}
			if got == Sat && !modelSatisfies(s.Model(), withUnits) {
				t.Fatalf("case %d query %d: SolveAssume model violates a clause or assumption", i, q)
			}
			if got == Unsat && want && !s.AssumptionsFailed() {
				t.Fatalf("case %d query %d: satisfiable formula refuted outright under assumptions", i, q)
			}
		}
		tally(s)

		p := tseitinSolver(nVars, clauses)
		if got := p.SolveParallel(context.Background(), 4); (got == Sat) != want {
			t.Fatalf("case %d: SolveParallel(4) = %v, brute force sat=%v", i, got, want)
		} else if got == Sat && !modelSatisfies(p.Model(), clauses) {
			t.Fatalf("case %d: SolveParallel model violates a clause", i)
		}
	}
	if sats == 0 || unsats == 0 {
		t.Fatalf("generator is one-sided: %d sat, %d unsat", sats, unsats)
	}
	t.Logf("%d sat, %d unsat; %d conflicts, %d reductions, %d collections",
		sats, unsats, total.Conflicts, total.ReduceDBs, total.ArenaGCs)
	if total.ReduceDBs == 0 || total.ArenaGCs == 0 {
		t.Fatalf("limits not forced: %d reductions, %d collections over %d conflicts",
			total.ReduceDBs, total.ArenaGCs, total.Conflicts)
	}
}

// TestBinaryLearntReasonSurvivesGC: a learnt binary clause that is the
// level-0 reason of an assignment must keep being that reason, with its
// binary watchers, after the arena is compacted under it.
func TestBinaryLearntReasonSurvivesGC(t *testing.T) {
	s := newSolverWithVars(4)
	learn := func(lits ...Lit) ClauseRef {
		r := s.ca.alloc(lits, true)
		s.learnts = append(s.learnts, r)
		s.attach(r)
		return r
	}
	junk := learn(PosLit(2), PosLit(3), NegLit(1))
	bin := learn(PosLit(0), PosLit(1))
	s.AddClause(NegLit(1)) // unit: propagates x0 through the learnt binary
	if s.value(PosLit(0)) != lTrue || s.vardata[0].reason != bin {
		t.Fatalf("x0 = %v with reason %d, want true by clause %d", s.value(PosLit(0)), s.vardata[0].reason, bin)
	}

	// Free the clause allocated before the binary, so compaction moves it.
	s.detach(junk)
	s.ca.free(junk)
	s.learnts = s.learnts[1:]
	s.garbageCollect()

	r := s.vardata[0].reason
	if r == bin || r != s.learnts[0] {
		t.Fatalf("reason %d after GC, want the moved clause %d (was %d)", r, s.learnts[0], bin)
	}
	lits := s.ca.lits(r)
	if len(lits) != 2 || !s.ca.learnt(r) ||
		!(lits[0] == PosLit(0) && lits[1] == PosLit(1) || lits[0] == PosLit(1) && lits[1] == PosLit(0)) {
		t.Fatalf("moved reason holds %v (learnt=%v), want the learnt binary x0 ∨ x1", lits, s.ca.learnt(r))
	}
	for _, l := range lits {
		found := false
		for _, w := range s.watches[l.Not()] {
			if w.clause() == r {
				found = w.cref < 0 && w.blocker != l
			}
		}
		if !found {
			t.Fatalf("watcher of %v lost its binary flag or blocker after GC", l)
		}
	}

	// The moved clause still propagates: with x0 forced, ¬x0 ∨ x2 and
	// ¬x2 ∨ x3 leave a model; adding ¬x3 makes the instance unsatisfiable.
	s.AddClause(NegLit(0), PosLit(2))
	s.AddClause(NegLit(2), PosLit(3))
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want Sat", got)
	}
	s.AddClause(NegLit(3))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v, want Unsat", got)
	}
}
