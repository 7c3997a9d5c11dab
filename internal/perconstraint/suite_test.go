package perconstraint_test

import (
	"cmp"
	"slices"
	"testing"

	"sufsat/internal/bench"
	"sufsat/internal/boolexpr"
	"sufsat/internal/funcelim"
	"sufsat/internal/perconstraint"
	"sufsat/internal/sep"
)

// TestSuiteClassPredsMatchEncoder: on every suite and invalid-variant
// formula, each class's predicate set from sep.Analyze — what the
// transitivity probe counts over — is exactly that class's part of the
// predicates the EIJ encoder allocates. Where the classes' transitivity
// clauses total at most 100,000, generation also emits exactly the
// probe's count.
func TestSuiteClassPredsMatchEncoder(t *testing.T) {
	for _, bm := range append(bench.Suite(), bench.InvalidVariants()...) {
		f, b := bm.Build()
		elim := funcelim.Eliminate(f, b)
		info, err := sep.Analyze(elim.Formula, b, elim.PConsts)
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		e := perconstraint.NewEncoder(info, b, boolexpr.NewBuilder())
		if _, err := e.Walker().Encode(info.Formula); err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		byClass := make(map[*sep.Class][]sep.Pred)
		for _, p := range e.Predicates() {
			cl := info.ClassOf[p.X]
			byClass[cl] = append(byClass[cl], sep.Pred{X: p.X, Y: p.Y, C: p.C})
		}
		byKey := func(a, b sep.Pred) int {
			return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y), cmp.Compare(a.C, b.C))
		}
		predicted := 0
		for _, cl := range info.Classes {
			got := byClass[cl]
			slices.SortFunc(got, byKey)
			if !slices.Equal(got, cl.Preds) {
				t.Fatalf("%s class %d: sep has %d predicates, the encoder %d",
					bm.Name, cl.ID, len(cl.Preds), len(got))
			}
			if predicted >= 0 {
				n, over, _ := perconstraint.CountTrans(nil, cl.Preds, perconstraint.MinDegree, 100_000-predicted)
				if over {
					predicted = -1
				} else {
					predicted += n
				}
			}
		}
		if predicted < 0 || testing.Short() {
			continue
		}
		clauses, err := e.TransClauseList()
		if err != nil || len(clauses) != predicted {
			t.Fatalf("%s: probe counted %d transitivity clauses, generation returned %d (%v)",
				bm.Name, predicted, len(clauses), err)
		}
	}
}
