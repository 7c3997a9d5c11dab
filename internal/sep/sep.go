// Package sep analyzes separation logic formulas — SUF formulas whose only
// integer leaves are symbolic constants (every uninterpreted function and
// predicate application of positive arity has been eliminated, see package
// funcelim).
//
// It implements steps 1–4 of the paper's hybrid method: ground-term
// normalization by the four rewrite rules, symbolic-constant equivalence
// classes via dependency sets, small-model domain sizes
// (u(v), l(v), range(V_i)) and the per-class upper bound SepCnt(V_i) on the
// number of separation predicates.
package sep

import (
	"fmt"
	"sort"

	"sufsat/internal/suf"
)

// Ground is a normalized ground term v + Off.
type Ground struct {
	Var string
	Off int
}

func (g Ground) String() string {
	switch {
	case g.Off == 0:
		return g.Var
	case g.Off > 0:
		return fmt.Sprintf("%s+%d", g.Var, g.Off)
	default:
		return fmt.Sprintf("%s%d", g.Var, g.Off)
	}
}

// Pred is a canonical separation predicate X − Y ≤ C between two distinct
// general constants of one class, oriented X < Y by name; the opposite
// orientation is its negation, Y − X ≤ −C−1, so both share one Boolean
// variable in the per-constraint encoding.
type Pred struct {
	X, Y string
	C    int
}

// Class is an equivalence class of general (V_g) symbolic constants that are
// transitively compared to each other.
type Class struct {
	ID     int
	Consts []string // sorted
	// U and L are the per-constant maximum and minimum offsets over the
	// ground terms of the formula (u(v) and l(v) in the paper).
	U, L map[string]int
	// Range is Σ_{v∈class} (u(v) − l(v) + 1): the small-model domain size.
	Range int
	// SepCnt is the upper bound on the number of distinct separation
	// predicates between two constants of this class (the number of
	// per-constraint Boolean variables the class would need).
	SepCnt int
	// Preds are those predicates, sorted by (X, Y, C): the exact predicate
	// set the per-constraint encoder allocates for the class (len = SepCnt).
	Preds []Pred
}

// Info is the result of analyzing a separation logic formula.
type Info struct {
	// Formula is the normalized formula: every integer term is an ITE tree
	// over ground terms.
	Formula *suf.BoolExpr
	// PConsts is V_p: constants whose values need only maximally diverse
	// interpretations (from positive-equality analysis).
	PConsts map[string]bool
	// GConsts is V_g: all other symbolic constants.
	GConsts map[string]bool
	// Classes are the V_g equivalence classes, sorted by smallest member.
	Classes []*Class
	// ClassOf maps each V_g constant to its class.
	ClassOf map[string]*Class
	// MaxPosOff and MaxNegOff are the global extreme offsets over all ground
	// terms (MaxNegOff ≤ 0 ≤ MaxPosOff).
	MaxPosOff, MaxNegOff int
	// NumSepPreds is the total number of distinct separation predicates over
	// V_g constants (sum over classes of SepCnt).
	NumSepPreds int
}

// CheckSeparation verifies that f is a separation logic formula: no
// uninterpreted function or predicate application of arity ≥ 1.
func CheckSeparation(f *suf.BoolExpr) error {
	if apps := suf.FuncApps(f, 1); len(apps) > 0 {
		for fn := range apps {
			return fmt.Errorf("sep: formula contains function application of %q", fn)
		}
	}
	if apps := suf.PredApps(f, 1); len(apps) > 0 {
		for pn := range apps {
			return fmt.Errorf("sep: formula contains predicate application of %q", pn)
		}
	}
	return nil
}

// Normalize rewrites every integer term of f to normal form by the paper's
// rewrite rules applied to a fixed point:
//
//	succ(pred(T)) → T                 pred(succ(T)) → T
//	succ(ITE(F,T1,T2)) → ITE(F, succ(T1), succ(T2))
//	pred(ITE(F,T1,T2)) → ITE(F, pred(T1), pred(T2))
//
// In normal form ITEs sit above succ/pred chains, whose leaves are symbolic
// constants (ground terms v+k).
func Normalize(f *suf.BoolExpr, b *suf.Builder) *suf.BoolExpr {
	memoB := make(map[*suf.BoolExpr]*suf.BoolExpr)
	memoI := make(map[*suf.IntExpr]*suf.IntExpr)

	var normB func(*suf.BoolExpr) *suf.BoolExpr
	var normI func(*suf.IntExpr) *suf.IntExpr

	// shift applies offset k to a normalized term, pushing through ITEs.
	var shift func(t *suf.IntExpr, k int) *suf.IntExpr
	shift = func(t *suf.IntExpr, k int) *suf.IntExpr {
		if k == 0 {
			return t
		}
		if t.Kind() == suf.IIte {
			a, e := t.Branches()
			return b.Ite(t.Cond(), shift(a, k), shift(e, k))
		}
		return b.Offset(t, k)
	}

	normI = func(t *suf.IntExpr) *suf.IntExpr {
		if r, ok := memoI[t]; ok {
			return r
		}
		var r *suf.IntExpr
		switch t.Kind() {
		case suf.IFunc:
			if len(t.Args()) != 0 {
				panic("sep: Normalize on non-separation formula")
			}
			r = t
		case suf.ISucc:
			a, _ := t.Branches()
			r = shift(normI(a), 1)
		case suf.IPred:
			a, _ := t.Branches()
			r = shift(normI(a), -1)
		case suf.IIte:
			a, e := t.Branches()
			r = b.Ite(normB(t.Cond()), normI(a), normI(e))
		}
		memoI[t] = r
		return r
	}

	normB = func(e *suf.BoolExpr) *suf.BoolExpr {
		if r, ok := memoB[e]; ok {
			return r
		}
		var r *suf.BoolExpr
		switch e.Kind() {
		case suf.BTrue, suf.BFalse:
			r = e
		case suf.BNot:
			l, _ := e.BoolChildren()
			r = b.Not(normB(l))
		case suf.BAnd:
			l, rr := e.BoolChildren()
			r = b.And(normB(l), normB(rr))
		case suf.BOr:
			l, rr := e.BoolChildren()
			r = b.Or(normB(l), normB(rr))
		case suf.BEq:
			t1, t2 := e.Terms()
			r = b.Eq(normI(t1), normI(t2))
		case suf.BLt:
			t1, t2 := e.Terms()
			r = b.Lt(normI(t1), normI(t2))
		case suf.BPred:
			if len(e.Args()) != 0 {
				panic("sep: Normalize on non-separation formula")
			}
			r = e
		}
		memoB[e] = r
		return r
	}
	return normB(f)
}

// DecomposeGround splits a normalized non-ITE term into its ground form.
// It panics if t is not a succ/pred chain over a symbolic constant.
func DecomposeGround(t *suf.IntExpr) Ground {
	off := 0
	for {
		switch t.Kind() {
		case suf.IFunc:
			return Ground{Var: t.FuncName(), Off: off}
		case suf.ISucc:
			off++
			t, _ = t.Branches()
		case suf.IPred:
			off--
			t, _ = t.Branches()
		default:
			panic("sep: term is not ground (did you Normalize?)")
		}
	}
}

// Leaves returns all ground leaves of a normalized term.
func Leaves(t *suf.IntExpr) []Ground {
	var out []Ground
	var rec func(*suf.IntExpr)
	rec = func(u *suf.IntExpr) {
		if u.Kind() == suf.IIte {
			a, e := u.Branches()
			rec(a)
			rec(e)
			return
		}
		out = append(out, DecomposeGround(u))
	}
	rec(t)
	return out
}

// GuardedGround is a ground leaf together with the condition under which the
// enclosing ITE tree evaluates to it.
type GuardedGround struct {
	Cond *suf.BoolExpr
	G    Ground
}

// GuardedLeaves enumerates the (condition, ground term) pairs of a
// normalized term: term T evaluates to G under Cond. Conditions of the
// leaves of one term are exhaustive and, per ITE branch structure, mutually
// exclusive.
func GuardedLeaves(t *suf.IntExpr, b *suf.Builder) []GuardedGround {
	var out []GuardedGround
	var rec func(u *suf.IntExpr, cond *suf.BoolExpr)
	rec = func(u *suf.IntExpr, cond *suf.BoolExpr) {
		if u.Kind() == suf.IIte {
			a, e := u.Branches()
			rec(a, b.And(cond, u.Cond()))
			rec(e, b.And(cond, b.Not(u.Cond())))
			return
		}
		out = append(out, GuardedGround{Cond: cond, G: DecomposeGround(u)})
	}
	rec(t, b.True())
	return out
}

// unionFind is a plain union-find over strings.
type unionFind struct {
	parent map[string]string
}

func newUnionFind() *unionFind { return &unionFind{parent: make(map[string]string)} }

func (u *unionFind) find(x string) string {
	p, ok := u.parent[x]
	if !ok {
		u.parent[x] = x
		return x
	}
	if p == x {
		return x
	}
	r := u.find(p)
	u.parent[x] = r
	return r
}

func (u *unionFind) union(x, y string) { u.parent[u.find(x)] = u.find(y) }

// Analyze computes the Info for a separation logic formula f. pconsts is the
// V_p set from positive-equality analysis (may be nil or empty: everything
// general). f is normalized internally.
func Analyze(f *suf.BoolExpr, b *suf.Builder, pconsts map[string]bool) (*Info, error) {
	if err := CheckSeparation(f); err != nil {
		return nil, err
	}
	nf := Normalize(f, b)
	info := &Info{
		Formula: nf,
		PConsts: make(map[string]bool),
		GConsts: make(map[string]bool),
		ClassOf: make(map[string]*Class),
	}
	for v := range pconsts {
		info.PConsts[v] = true
	}
	for v := range suf.FuncApps(nf, 0) {
		if !info.PConsts[v] {
			info.GConsts[v] = true
		}
	}

	// Dependency-set class construction: union V_g leaves within each term
	// (ITE branch merging), then across the two sides of every atom.
	uf := newUnionFind()
	for v := range info.GConsts {
		uf.find(v)
	}
	type atom struct {
		t1, t2 *suf.IntExpr
		eq     bool
	}
	var atoms []atom
	seenB := make(map[*suf.BoolExpr]bool)
	var walk func(*suf.BoolExpr)
	walkTermDeps := func(t *suf.IntExpr) []string {
		var deps []string
		for _, g := range Leaves(t) {
			if info.GConsts[g.Var] {
				deps = append(deps, g.Var)
			}
		}
		for i := 1; i < len(deps); i++ {
			uf.union(deps[0], deps[i])
		}
		return deps
	}
	walk = func(e *suf.BoolExpr) {
		if e == nil || seenB[e] {
			return
		}
		seenB[e] = true
		switch e.Kind() {
		case suf.BEq, suf.BLt:
			t1, t2 := e.Terms()
			d1 := walkTermDeps(t1)
			d2 := walkTermDeps(t2)
			if len(d1) > 0 && len(d2) > 0 {
				uf.union(d1[0], d2[0])
			}
			atoms = append(atoms, atom{t1, t2, e.Kind() == suf.BEq})
			// Conditions inside the terms' ITEs contain further atoms.
			var walkCond func(*suf.IntExpr)
			walkCond = func(t *suf.IntExpr) {
				if t.Kind() == suf.IIte {
					walk(t.Cond())
					a, el := t.Branches()
					walkCond(a)
					walkCond(el)
				}
			}
			walkCond(t1)
			walkCond(t2)
		default:
			l, r := e.BoolChildren()
			walk(l)
			walk(r)
		}
	}
	walk(nf)

	// Materialize classes.
	members := make(map[string][]string)
	for v := range info.GConsts {
		r := uf.find(v)
		members[r] = append(members[r], v)
	}
	var roots []string
	for r := range members {
		sort.Strings(members[r])
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return members[roots[i]][0] < members[roots[j]][0] })
	for i, r := range roots {
		c := &Class{
			ID:     i,
			Consts: members[r],
			U:      make(map[string]int),
			L:      make(map[string]int),
		}
		for _, v := range c.Consts {
			info.ClassOf[v] = c
		}
		info.Classes = append(info.Classes, c)
	}

	// Offsets u(v), l(v) over every ground leaf of the formula (including
	// leaves inside ITE conditions' atoms — they are atoms too and are in
	// `atoms`), plus leaves of V_p constants for the global offset extremes.
	touch := func(g Ground) {
		if g.Off > info.MaxPosOff {
			info.MaxPosOff = g.Off
		}
		if g.Off < info.MaxNegOff {
			info.MaxNegOff = g.Off
		}
		c := info.ClassOf[g.Var]
		if c == nil {
			return // V_p constant
		}
		if u, ok := c.U[g.Var]; !ok || g.Off > u {
			c.U[g.Var] = g.Off
		}
		if l, ok := c.L[g.Var]; !ok || g.Off < l {
			c.L[g.Var] = g.Off
		}
	}
	for _, a := range atoms {
		for _, g := range Leaves(a.t1) {
			touch(g)
		}
		for _, g := range Leaves(a.t2) {
			touch(g)
		}
	}
	for _, c := range info.Classes {
		c.Range = 0
		for _, v := range c.Consts {
			u, okU := c.U[v]
			l, okL := c.L[v]
			if !okU {
				u = 0
			}
			if !okL {
				l = 0
			}
			c.Range += u - l + 1
		}
	}

	// SepCnt: collect the distinct canonical separation predicates x − y ≤ c
	// whose two constants are general and in the same class. An equality
	// T1 = T2 contributes both x − y ≤ c and y − x ≤ −c; an inequality
	// contributes one predicate variable (its negation reuses the same
	// variable).
	preds := make(map[*Class]map[Pred]bool)
	add := func(x, y string, c int) {
		cx := info.ClassOf[x]
		if cx == nil || info.ClassOf[y] != cx {
			return
		}
		if x > y {
			// Canonical orientation: x ≤ y lexicographically; flip via
			// negation x−y≤c ⟺ ¬(y−x ≤ −c−1).
			x, y, c = y, x, -c-1
		}
		if preds[cx] == nil {
			preds[cx] = make(map[Pred]bool)
		}
		preds[cx][Pred{x, y, c}] = true
	}
	for _, a := range atoms {
		eq := a.eq
		for _, g1 := range Leaves(a.t1) {
			for _, g2 := range Leaves(a.t2) {
				if g1.Var == g2.Var {
					continue // constant-valued predicate, no variable needed
				}
				if eq {
					// g1 = g2 ⟺ g1−g2 ≤ 0 ∧ g2−g1 ≤ 0 (in offset-adjusted form)
					add(g1.Var, g2.Var, g2.Off-g1.Off)
					add(g2.Var, g1.Var, g1.Off-g2.Off)
				} else {
					// g1 < g2 ⟺ g1−g2 ≤ g2.Off−g1.Off−1
					add(g1.Var, g2.Var, g2.Off-g1.Off-1)
				}
			}
		}
	}
	for _, c := range info.Classes {
		c.Preds = make([]Pred, 0, len(preds[c]))
		for p := range preds[c] {
			c.Preds = append(c.Preds, p)
		}
		sort.Slice(c.Preds, func(i, j int) bool {
			a, b := c.Preds[i], c.Preds[j]
			if a.X != b.X {
				return a.X < b.X
			}
			if a.Y != b.Y {
				return a.Y < b.Y
			}
			return a.C < b.C
		})
		c.SepCnt = len(c.Preds)
		info.NumSepPreds += c.SepCnt
	}
	return info, nil
}
