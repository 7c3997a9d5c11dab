package perconstraint

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"sufsat/internal/boolexpr"
	"sufsat/internal/difflogic"
	"sufsat/internal/sat"
	"sufsat/internal/sep"
	"sufsat/internal/suf"
)

// TestQuickTransitivityCharacterizesFeasibility is the defining property of
// the eager transitivity generation: a truth assignment to the source
// predicate variables extends to a satisfying assignment of F_trans iff the
// corresponding difference-constraint set is feasible (no negative cycle).
// difflogic is the independent oracle.
func TestQuickTransitivityCharacterizesFeasibility(t *testing.T) {
	f := func(seed int64, assignBits uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 3 + rng.Intn(3)
		nPreds := 1 + rng.Intn(7)

		// Build a formula that merely introduces the predicates (one class).
		b := suf.NewBuilder()
		type pred struct {
			x, y string
			c    int
		}
		var preds []pred
		g := b.True()
		for i := 0; i < nPreds; i++ {
			x := fmt.Sprintf("v%d", rng.Intn(nVars))
			y := fmt.Sprintf("v%d", rng.Intn(nVars))
			if x == y {
				continue
			}
			c := rng.Intn(5) - 2
			preds = append(preds, pred{x, y, c})
			// x − y ≤ c ⟺ x ≤ y + c; wrap in a Boolean variable so the
			// formula doesn't constrain the predicates.
			g = b.And(g, b.Or(b.BoolSym(fmt.Sprintf("s%d", i)), b.Le(b.Sym(x), b.Offset(b.Sym(y), c))))
		}
		// Chain everything into one class.
		for i := 0; i < nVars-1; i++ {
			g = b.And(g, b.Or(b.BoolSym("sc"),
				b.Eq(b.Sym(fmt.Sprintf("v%d", i)), b.Sym(fmt.Sprintf("v%d", i+1)))))
		}
		info, err := sep.Analyze(g, b, nil)
		if err != nil {
			return false
		}
		bb := boolexpr.NewBuilder()
		e := NewEncoder(info, b, bb)
		if _, err := e.Walker().Encode(info.Formula); err != nil {
			return false
		}
		clauses, err := e.TransClauseList()
		if err != nil {
			return false
		}
		source := e.Predicates()
		if len(source) == 0 {
			return true
		}

		// Random assignment of the source predicate variables.
		val := make(map[*boolexpr.Node]bool)
		var cs []difflogic.Constraint
		for i, p := range source {
			v := assignBits>>(uint(i)%16)&1 == 1
			val[p.Var] = v
			if v {
				cs = append(cs, difflogic.Constraint{X: p.X, Y: p.Y, C: int64(p.C)})
			} else {
				cs = append(cs, difflogic.Constraint{X: p.Y, Y: p.X, C: int64(-p.C - 1)})
			}
		}
		feasible, _ := difflogic.Check(cs)

		// Does the assignment extend to satisfy F_trans? Pin the source
		// variables and SAT-solve the clause set.
		s := sat.New()
		lits := make(map[*boolexpr.Node]sat.Lit)
		litOf := func(n *boolexpr.Node) sat.Lit {
			if l, ok := lits[n]; ok {
				return l
			}
			l := sat.PosLit(s.NewVar())
			lits[n] = l
			return l
		}
		for _, cl := range clauses {
			var sl []sat.Lit
			for _, tl := range cl {
				l := litOf(tl.Var)
				if tl.Neg {
					l = l.Not()
				}
				sl = append(sl, l)
			}
			s.AddClause(sl...)
		}
		for n, v := range val {
			l := litOf(n)
			if !v {
				l = l.Not()
			}
			s.AddClause(l)
		}
		extends := s.Solve() == sat.Sat
		return extends == feasible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCountTransIsExact: the count-only probe is exact. Over random
// difference-constraint sets (several classes, both equalities and
// inequalities), every order heuristic and several budgets, probing the
// classes in ID order against the shared budget still left predicts the
// generator: generation returns a *BudgetError naming the first class the
// probe reports over budget, and otherwise exactly as many clauses as the
// probe counted.
func TestQuickCountTransIsExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := suf.NewBuilder()
		g := b.True()
		nVars := 3 + rng.Intn(6)
		for i := 0; i < 2+rng.Intn(14); i++ {
			x := b.Sym(fmt.Sprintf("v%d", rng.Intn(nVars)))
			y := b.Offset(b.Sym(fmt.Sprintf("v%d", rng.Intn(nVars))), rng.Intn(9)-4)
			a := b.Le(x, y)
			if rng.Intn(3) == 0 {
				a = b.Eq(x, y)
			}
			// The Boolean guard leaves the predicates unconstrained.
			g = b.And(g, b.Or(b.BoolSym(fmt.Sprintf("s%d", i)), a))
		}
		info, err := sep.Analyze(g, b, nil)
		if err != nil {
			t.Log(err)
			return false
		}
		generate := func(ord OrderHeuristic, maxTrans int) ([]TransClause, error) {
			e := NewEncoder(info, b, boolexpr.NewBuilder())
			e.Order = ord
			e.MaxTrans = maxTrans
			if _, err := e.Walker().Encode(info.Formula); err != nil {
				return nil, err
			}
			return e.TransClauseList()
		}
		for _, ord := range []OrderHeuristic{MinDegree, MinFill, Lexicographic} {
			all, err := generate(ord, 0)
			if err != nil {
				t.Log(err)
				return false
			}
			total := len(all)
			for _, maxTrans := range []int{0, 1, total / 3, total - 1, total, total + 1} {
				if maxTrans < 0 {
					continue
				}
				left := maxTrans
				if maxTrans == 0 {
					left = -1 // no limit
				}
				var overClass *sep.Class
				predicted := 0
				for _, cl := range info.Classes {
					n, over, err := CountTrans(nil, cl.Preds, ord, left)
					if err != nil {
						t.Log(err)
						return false
					}
					if over {
						overClass = cl
						break
					}
					predicted += n
					if left >= 0 {
						left -= n
					}
				}
				clauses, err := generate(ord, maxTrans)
				var be *BudgetError
				switch {
				case overClass != nil && (!errors.As(err, &be) || be.Class != overClass):
					t.Logf("%v, MaxTrans %d: probe says class %d is over budget, generation returned %v",
						ord, maxTrans, overClass.ID, err)
					return false
				case overClass == nil && (err != nil || len(clauses) != predicted):
					t.Logf("%v, MaxTrans %d: probe counted %d clauses, generation returned %d (%v)",
						ord, maxTrans, predicted, len(clauses), err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
