// Package perconstraint implements the EIJ (per-constraint) Boolean encoding
// of separation logic (§2.1.2 method 2 and §4 step 5 of the paper):
//
//   - ITEs are eliminated by enumerating each term's guarded ground leaves;
//   - every separation predicate g_i ⋈ g_j between ground terms becomes a
//     single fresh Boolean variable e^{≤,c}_{x,y} for the canonical
//     difference constraint x − y ≤ c (equalities become conjunctions of two
//     such variables, strict inequalities re-use the negation of the
//     opposite variable);
//   - transitivity constraints F_trans are generated eagerly by
//     Fourier–Motzkin vertex elimination over the literal-labelled
//     difference graph, which is sound and complete for difference
//     constraints: a Boolean assignment corresponds to an integer assignment
//     iff the labelled edge graph it induces has no negative cycle, and
//     vertex elimination preserves negative cycles as derived negative
//     self-loops.
//
// The final Boolean formula is F_trans ⟹ F_bvar. The potentially
// exponential growth of F_trans is the EIJ weakness the paper's hybrid
// method works around; Encoder supports a constraint cap so harnesses can
// observe the blow-up as a translation timeout, like the paper's 1-hour
// limit, and CountTrans measures it ahead of time — the same elimination in
// count-only mode — so a router can avoid it.
package perconstraint

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"sufsat/internal/boolexpr"
	"sufsat/internal/difflogic"
	"sufsat/internal/enc"
	"sufsat/internal/sep"
	"sufsat/internal/suf"
)

// ErrTranslationLimit reports that transitivity-constraint generation
// exceeded the configured cap (the EIJ blow-up).
var ErrTranslationLimit = errors.New("perconstraint: transitivity constraint limit exceeded")

// BudgetError reports which class's transitivity generation exhausted the
// MaxTrans cap. CountTrans predicts it exactly: a caller that probes first
// (hybrid routing) never sees it. It unwraps to ErrTranslationLimit.
type BudgetError struct {
	// Class is the symbolic-constant class being eliminated when the shared
	// budget ran out.
	Class *sep.Class
	// Limit is the configured MaxTrans cap.
	Limit int
}

func (e *BudgetError) Error() string {
	id := -1
	if e.Class != nil {
		id = e.Class.ID
	}
	return fmt.Sprintf("perconstraint: transitivity budget (%d) exhausted eliminating class %d", e.Limit, id)
}

func (e *BudgetError) Unwrap() error { return ErrTranslationLimit }

// Stats reports encoding-size counters.
type Stats struct {
	// PredVars is the number of source separation-predicate variables.
	PredVars int
	// DerivedVars is the number of fresh variables introduced for derived
	// constraints during transitivity generation.
	DerivedVars int
	// TransConstraints is the number of transitivity constraints in F_trans.
	TransConstraints int
}

// Encoder encodes separation atoms per-constraint. Atom encodings are
// collected; TransConstraints must be called afterwards to obtain F_trans
// for every predicate variable handed out.
type Encoder struct {
	bb   *boolexpr.Builder
	sb   *suf.Builder
	info *sep.Info
	// MaxTrans caps the number of generated transitivity constraints
	// (0 = unlimited).
	MaxTrans int
	// Ctx, when non-nil, is polled during atom encoding and transitivity
	// generation; once done, both abort with the context's error. It is the
	// encoder's only cancellation path.
	Ctx context.Context
	// Order selects the vertex-elimination heuristic (default MinDegree).
	Order OrderHeuristic

	walker    *enc.Walker
	vars      map[sep.Pred]*boolexpr.Node // canonical source predicate variables
	order     []sep.Pred                  // deterministic iteration order
	derived   map[sep.Pred]bool           // derived variables allocated so far
	stats     Stats
	atomCalls int // EncodeAtom invocations, gating context polls
}

// NewEncoder builds a per-constraint encoder for the analyzed formula info.
func NewEncoder(info *sep.Info, sb *suf.Builder, bb *boolexpr.Builder) *Encoder {
	e := &Encoder{bb: bb, sb: sb, info: info, vars: make(map[sep.Pred]*boolexpr.Node)}
	e.walker = enc.NewWalker(bb, e.EncodeAtom)
	return e
}

// Walker returns the formula walker bound to this encoder (for standalone
// EIJ encoding). Hybrid encoders install their own dispatching walker via
// SetWalker.
func (e *Encoder) Walker() *enc.Walker { return e.walker }

// SetWalker replaces the walker used to encode ITE guard conditions, so a
// hybrid encoder can route guard atoms through its own dispatcher.
func (e *Encoder) SetWalker(w *enc.Walker) { e.walker = w }

// Stats returns the current counters (TransConstraints is populated by
// TransConstraints).
func (e *Encoder) Stats() Stats { return e.stats }

// Lit returns the literal encoding the difference constraint x − y ≤ c,
// allocating the canonical predicate variable on first use. x and y must be
// distinct general constants of the same class.
func (e *Encoder) Lit(x, y string, c int) *boolexpr.Node {
	if x > y {
		// x−y ≤ c  ⟺  ¬(y−x ≤ −c−1)
		return e.bb.Not(e.Lit(y, x, -c-1))
	}
	k := sep.Pred{X: x, Y: y, C: c}
	if v, ok := e.vars[k]; ok {
		return v
	}
	v := e.bb.Var("eij!" + x + "!" + y + "!" + strconv.Itoa(c))
	e.vars[k] = v
	e.order = append(e.order, k)
	e.stats.PredVars++
	return v
}

// PredVar describes one canonical separation-predicate variable: Var is
// true iff X − Y ≤ C.
type PredVar struct {
	X, Y string
	C    int
	Var  *boolexpr.Node
}

// Predicates returns the canonical predicate variables allocated so far, in
// allocation order. The lazy baseline uses this as its Boolean abstraction.
func (e *Encoder) Predicates() []PredVar {
	out := make([]PredVar, len(e.order))
	for i, k := range e.order {
		out[i] = PredVar{X: k.X, Y: k.Y, C: k.C, Var: e.vars[k]}
	}
	return out
}

// EncodeAtom encodes an equality or inequality atom: the guarded ground
// leaves of both terms are enumerated and each ground pair contributes a
// guarded predicate literal (§4 step 5).
func (e *Encoder) EncodeAtom(a *suf.BoolExpr) (*boolexpr.Node, error) {
	e.atomCalls++
	if e.Ctx != nil && e.atomCalls&63 == 0 {
		if err := e.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	t1, t2 := a.Terms()
	g1 := sep.GuardedLeaves(t1, e.sb)
	g2 := sep.GuardedLeaves(t2, e.sb)
	out := e.bb.False()
	for _, l1 := range g1 {
		c1, err := e.walker.Encode(l1.Cond)
		if err != nil {
			return nil, err
		}
		for _, l2 := range g2 {
			c2, err := e.walker.Encode(l2.Cond)
			if err != nil {
				return nil, err
			}
			var p *boolexpr.Node
			if a.Kind() == suf.BEq {
				p, err = e.groundEq(l1.G, l2.G)
			} else {
				p, err = e.groundLt(l1.G, l2.G)
			}
			if err != nil {
				return nil, err
			}
			out = e.bb.Or(out, e.bb.AndN(c1, c2, p))
		}
	}
	return out, nil
}

func (e *Encoder) groundEq(g1, g2 sep.Ground) (*boolexpr.Node, error) {
	if g1.Var == g2.Var {
		return e.bb.Const(g1.Off == g2.Off), nil
	}
	// Maximal diversity: a predicate touching a V_p constant is false unless
	// syntactically identical (§4 step 5).
	if e.info.PConsts[g1.Var] || e.info.PConsts[g2.Var] {
		return e.bb.False(), nil
	}
	// g1.Var + g1.Off = g2.Var + g2.Off
	//   ⟺ x − y ≤ (o2−o1)  ∧  y − x ≤ (o1−o2)
	d := g2.Off - g1.Off
	return e.bb.And(e.Lit(g1.Var, g2.Var, d), e.Lit(g2.Var, g1.Var, -d)), nil
}

func (e *Encoder) groundLt(g1, g2 sep.Ground) (*boolexpr.Node, error) {
	if g1.Var == g2.Var {
		return e.bb.Const(g1.Off < g2.Off), nil
	}
	if e.info.PConsts[g1.Var] || e.info.PConsts[g2.Var] {
		// Positive-equality classification keeps V_p constants out of
		// inequalities; reaching this would be an analysis bug upstream.
		return nil, fmt.Errorf("perconstraint: V_p constant under < (%v < %v)", g1, g2)
	}
	// x + o1 < y + o2 ⟺ x − y ≤ o2 − o1 − 1
	return e.Lit(g1.Var, g2.Var, g2.Off-g1.Off-1), nil
}

// TransLit is a literal over a predicate variable node (source or derived).
type TransLit struct {
	Var *boolexpr.Node
	Neg bool
}

// Node renders the literal as a boolexpr node.
func (l TransLit) Node(bb *boolexpr.Builder) *boolexpr.Node {
	if l.Neg {
		return bb.Not(l.Var)
	}
	return l.Var
}

// Not returns the complement literal.
func (l TransLit) Not() TransLit { return TransLit{l.Var, !l.Neg} }

// TransClause is one transitivity constraint in clausal form — a disjunction
// of predicate-variable literals (2 literals for a negative self-loop
// ¬l1 ∨ ¬l2, 3 for an implication ¬l1 ∨ ¬l2 ∨ l3). Emitting these directly
// as CNF clauses avoids the ~6× Tseitin overhead a formula-level F_trans
// would pay, which matters: F_trans dominates the per-constraint encoding's
// CNF size.
type TransClause []TransLit

// OrderHeuristic selects the Fourier–Motzkin vertex-elimination order,
// which determines the fill-in and hence the size of F_trans.
type OrderHeuristic int

// Elimination-order heuristics.
const (
	// MinDegree eliminates the vertex with the fewest incident edges first
	// (recomputed dynamically) — the default, and the classical low-fill
	// heuristic.
	MinDegree OrderHeuristic = iota
	// MinFill estimates the number of new edges each elimination would
	// create (in·out products over distinct neighbours) and picks the
	// smallest — more expensive per step, often less fill on dense graphs.
	MinFill
	// Lexicographic eliminates vertices in name order — the ablation
	// baseline showing how much the ordering heuristics buy.
	Lexicographic
)

func (o OrderHeuristic) String() string {
	switch o {
	case MinDegree:
		return "min-degree"
	case MinFill:
		return "min-fill"
	case Lexicographic:
		return "lexicographic"
	}
	return "unknown"
}

// TransConstraints generates F_trans as a single Boolean formula. Prefer
// TransClauseList plus direct clause assertion for large encodings.
func (e *Encoder) TransConstraints() (*boolexpr.Node, error) {
	clauses, err := e.TransClauseList()
	if err != nil {
		return nil, err
	}
	out := e.bb.True()
	for _, cl := range clauses {
		d := e.bb.False()
		for _, l := range cl {
			d = e.bb.Or(d, l.Node(e.bb))
		}
		out = e.bb.And(out, d)
	}
	return out, nil
}

// TransClauseList generates the transitivity constraints for every predicate
// variable handed out so far, by per-class Fourier–Motzkin vertex
// elimination, in clausal form.
func (e *Encoder) TransClauseList() ([]TransClause, error) {
	// Group canonical predicates by class.
	byClass := make(map[*sep.Class][]sep.Pred)
	for _, k := range e.order {
		cl := e.info.ClassOf[k.X]
		if cl == nil || e.info.ClassOf[k.Y] != cl {
			return nil, fmt.Errorf("perconstraint: predicate %v crosses classes", k)
		}
		byClass[cl] = append(byClass[cl], k)
	}
	classes := make([]*sep.Class, 0, len(byClass))
	for cl := range byClass {
		classes = append(classes, cl)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i].ID < classes[j].ID })

	var out []TransClause
	budget := e.MaxTrans
	for _, cl := range classes {
		limit := -1
		if e.MaxTrans > 0 {
			limit = budget
		}
		cs, err := e.transForClass(cl, byClass[cl], limit)
		if err != nil {
			return nil, err
		}
		budget -= len(cs)
		out = append(out, cs...)
	}
	return out, nil
}

// transForClass builds the clauses of class cl's vertex elimination
// (elimGraph.eliminate) over its predicates preds, failing with a
// *BudgetError once their number exceeds budget (a negative budget means no
// limit).
func (e *Encoder) transForClass(cl *sep.Class, preds []sep.Pred, budget int) ([]TransClause, error) {
	g, names := newElimGraph(preds, e.Order)
	// lits[i] is the literal of edge i: the source variable (possibly
	// negated) when the edge is a source predicate, else a derived one,
	// allocated as the clause that creates the edge is generated.
	lits := make([]TransLit, len(g.edges))
	for i, k := range g.edges {
		lits[i] = e.litFor(names, k)
	}
	var constraints []TransClause
	n, over, err := g.eliminate(e.Ctx, budget, func(e1, e2, e3 int32) {
		l1, l2 := lits[e1], lits[e2]
		tc := make(TransClause, 1, 3)
		tc[0] = l1.Not()
		if l1 != l2 {
			tc = append(tc, l2.Not())
		}
		if e3 >= 0 {
			if int(e3) == len(lits) {
				lits = append(lits, e.litFor(names, g.edges[e3]))
			}
			tc = append(tc, lits[e3])
		}
		constraints = append(constraints, tc)
	})
	e.stats.TransConstraints += n
	if err != nil {
		return nil, err
	}
	if over {
		return nil, &BudgetError{Class: cl, Limit: e.MaxTrans}
	}
	return constraints, nil
}

// litFor returns the literal of the difference edge k, reusing source
// variables (possibly negated) when they match exactly, and fresh derived
// variables otherwise.
func (e *Encoder) litFor(names []string, k edgeKey) TransLit {
	x, y, c := names[k.x], names[k.y], k.c
	neg := false
	if x > y {
		x, y, c = y, x, -c-1
		neg = true
	}
	p := sep.Pred{X: x, Y: y, C: c}
	if v, ok := e.vars[p]; ok {
		return TransLit{v, neg}
	}
	if e.derived == nil {
		e.derived = make(map[sep.Pred]bool)
	}
	if !e.derived[p] {
		e.derived[p] = true
		e.stats.DerivedVars++
	}
	return TransLit{e.bb.Var("eijD!" + x + "!" + y + "!" + strconv.Itoa(c)), neg}
}

// Result is a standalone EIJ encoding. The encoded formula is
// Trans ⟹ Bvar; its satisfiability-preserving form is Trans ∧ Bvar, and a
// validity check refutes Trans ∧ ¬Bvar.
type Result struct {
	Bvar  *boolexpr.Node
	Trans *boolexpr.Node
	Stats Stats
}

// Encode runs the full standalone EIJ encoding of the analyzed formula.
// maxTrans caps transitivity generation (0 = unlimited).
func Encode(info *sep.Info, sb *suf.Builder, bb *boolexpr.Builder, maxTrans int) (*Result, error) {
	e := NewEncoder(info, sb, bb)
	e.MaxTrans = maxTrans
	fbvar, err := e.walker.Encode(info.Formula)
	if err != nil {
		return nil, err
	}
	ftrans, err := e.TransConstraints()
	if err != nil {
		return nil, err
	}
	return &Result{Bvar: fbvar, Trans: ftrans, Stats: e.stats}, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ModelConstraints converts a Boolean assignment of the source predicate
// variables into the difference constraints it asserts: variable true means
// X − Y ≤ C, false means Y − X ≤ −C−1. Variables val reports unknown are
// skipped (they were folded out of the CNF and are unconstrained).
// F_trans guarantees the returned set is feasible for any model of the
// encoding, so a difflogic run over it reconstructs integer values.
func (e *Encoder) ModelConstraints(val func(n *boolexpr.Node) (value, known bool)) []difflogic.Constraint {
	var out []difflogic.Constraint
	for _, k := range e.order {
		v, known := val(e.vars[k])
		if !known {
			continue
		}
		if v {
			out = append(out, difflogic.Constraint{X: k.X, Y: k.Y, C: int64(k.C)})
		} else {
			out = append(out, difflogic.Constraint{X: k.Y, Y: k.X, C: int64(-k.C - 1)})
		}
	}
	return out
}
