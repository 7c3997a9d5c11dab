// Package boolexpr provides a hash-consed Boolean expression DAG and its
// polarity-aware (Plaisted–Greenbaum) n-ary Tseitin transformation to CNF
// for the sat package.
//
// Every encoder in this module (small-domain, per-constraint, hybrid)
// produces a boolexpr DAG; node counts of these DAGs are the "size of the
// Boolean formula" figures discussed in the paper.
package boolexpr

import (
	"fmt"
	"sort"
	"strings"

	"sufsat/internal/sat"
)

// Kind enumerates node kinds.
type Kind uint8

// Node kinds. Constants are folded away during construction, so interior
// DAG nodes are only Var, Not, And and Or.
const (
	KTrue Kind = iota
	KFalse
	KVar
	KNot
	KAnd
	KOr
)

// Node is an immutable hash-consed Boolean expression. Nodes are created
// through a Builder; two structurally equal nodes from the same Builder are
// pointer-equal.
type Node struct {
	kind Kind
	id   int32
	name string // KVar only
	a, b *Node  // KNot uses a; KAnd/KOr use a and b
}

// Kind returns the node kind.
func (n *Node) Kind() Kind { return n.kind }

// Name returns the variable name (KVar nodes only).
func (n *Node) Name() string { return n.name }

// ID returns a builder-unique node identifier.
func (n *Node) ID() int32 { return n.id }

// Children returns the operand nodes (nil-padded).
func (n *Node) Children() (a, b *Node) { return n.a, n.b }

// IsConst reports whether n is the constant true or false.
func (n *Node) IsConst() bool { return n.kind == KTrue || n.kind == KFalse }

type opKey struct {
	kind   Kind
	ai, bi int32
}

// Builder hash-conses Boolean expression nodes.
type Builder struct {
	t, f   *Node
	vars   map[string]*Node
	ops    map[opKey]*Node
	nextID int32
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	b := &Builder{
		vars: make(map[string]*Node),
		ops:  make(map[opKey]*Node),
	}
	b.t = b.newNode(&Node{kind: KTrue})
	b.f = b.newNode(&Node{kind: KFalse})
	return b
}

func (b *Builder) newNode(n *Node) *Node {
	n.id = b.nextID
	b.nextID++
	return n
}

// NumNodes returns the number of distinct nodes created.
func (b *Builder) NumNodes() int { return int(b.nextID) }

// True returns the constant true.
func (b *Builder) True() *Node { return b.t }

// False returns the constant false.
func (b *Builder) False() *Node { return b.f }

// Const returns the constant for v.
func (b *Builder) Const(v bool) *Node {
	if v {
		return b.t
	}
	return b.f
}

// Var returns the variable named name, creating it on first use.
func (b *Builder) Var(name string) *Node {
	if n, ok := b.vars[name]; ok {
		return n
	}
	n := b.newNode(&Node{kind: KVar, name: name})
	b.vars[name] = n
	return n
}

// NumVars returns the number of distinct variables.
func (b *Builder) NumVars() int { return len(b.vars) }

// Not returns ¬x.
func (b *Builder) Not(x *Node) *Node {
	switch x.kind {
	case KTrue:
		return b.f
	case KFalse:
		return b.t
	case KNot:
		return x.a
	}
	key := opKey{KNot, x.id, -1}
	if n, ok := b.ops[key]; ok {
		return n
	}
	n := b.newNode(&Node{kind: KNot, a: x})
	b.ops[key] = n
	return n
}

// And returns x ∧ y.
func (b *Builder) And(x, y *Node) *Node {
	switch {
	case x.kind == KFalse || y.kind == KFalse:
		return b.f
	case x.kind == KTrue:
		return y
	case y.kind == KTrue:
		return x
	case x == y:
		return x
	case b.isComplement(x, y):
		return b.f
	}
	if x.id > y.id {
		x, y = y, x
	}
	key := opKey{KAnd, x.id, y.id}
	if n, ok := b.ops[key]; ok {
		return n
	}
	n := b.newNode(&Node{kind: KAnd, a: x, b: y})
	b.ops[key] = n
	return n
}

// Or returns x ∨ y.
func (b *Builder) Or(x, y *Node) *Node {
	switch {
	case x.kind == KTrue || y.kind == KTrue:
		return b.t
	case x.kind == KFalse:
		return y
	case y.kind == KFalse:
		return x
	case x == y:
		return x
	case b.isComplement(x, y):
		return b.t
	}
	if x.id > y.id {
		x, y = y, x
	}
	key := opKey{KOr, x.id, y.id}
	if n, ok := b.ops[key]; ok {
		return n
	}
	n := b.newNode(&Node{kind: KOr, a: x, b: y})
	b.ops[key] = n
	return n
}

func (b *Builder) isComplement(x, y *Node) bool {
	return (x.kind == KNot && x.a == y) || (y.kind == KNot && y.a == x)
}

// AndN folds And over xs (true for the empty list).
func (b *Builder) AndN(xs ...*Node) *Node {
	r := b.t
	for _, x := range xs {
		r = b.And(r, x)
	}
	return r
}

// OrN folds Or over xs (false for the empty list).
func (b *Builder) OrN(xs ...*Node) *Node {
	r := b.f
	for _, x := range xs {
		r = b.Or(r, x)
	}
	return r
}

// Implies returns x → y.
func (b *Builder) Implies(x, y *Node) *Node { return b.Or(b.Not(x), y) }

// Iff returns x ↔ y.
func (b *Builder) Iff(x, y *Node) *Node {
	return b.And(b.Implies(x, y), b.Implies(y, x))
}

// Xor returns x ⊕ y.
func (b *Builder) Xor(x, y *Node) *Node {
	return b.Or(b.And(x, b.Not(y)), b.And(b.Not(x), y))
}

// Ite returns if c then t else e.
func (b *Builder) Ite(c, t, e *Node) *Node {
	if c.kind == KTrue {
		return t
	}
	if c.kind == KFalse {
		return e
	}
	if t == e {
		return t
	}
	return b.Or(b.And(c, t), b.And(b.Not(c), e))
}

// Eval evaluates n under the given variable assignment; variables absent
// from env evaluate to false.
func Eval(n *Node, env map[string]bool) bool {
	memo := make(map[*Node]bool)
	var rec func(*Node) bool
	rec = func(m *Node) bool {
		if v, ok := memo[m]; ok {
			return v
		}
		var v bool
		switch m.kind {
		case KTrue:
			v = true
		case KFalse:
			v = false
		case KVar:
			v = env[m.name]
		case KNot:
			v = !rec(m.a)
		case KAnd:
			v = rec(m.a) && rec(m.b)
		case KOr:
			v = rec(m.a) || rec(m.b)
		}
		memo[m] = v
		return v
	}
	return rec(n)
}

// Vars returns the sorted names of variables occurring in n.
func Vars(n *Node) []string {
	seen := make(map[*Node]bool)
	var names []string
	var rec func(*Node)
	rec = func(m *Node) {
		if m == nil || seen[m] {
			return
		}
		seen[m] = true
		if m.kind == KVar {
			names = append(names, m.name)
		}
		rec(m.a)
		rec(m.b)
	}
	rec(n)
	sort.Strings(names)
	return names
}

// CountNodes returns the number of DAG nodes reachable from n.
func CountNodes(n *Node) int {
	seen := make(map[*Node]bool)
	var rec func(*Node)
	rec = func(m *Node) {
		if m == nil || seen[m] {
			return
		}
		seen[m] = true
		rec(m.a)
		rec(m.b)
	}
	rec(n)
	return len(seen)
}

// String renders n as a formula (exponential on deep DAGs; for debugging and
// small tests only).
func (n *Node) String() string {
	var sb strings.Builder
	var rec func(*Node)
	rec = func(m *Node) {
		switch m.kind {
		case KTrue:
			sb.WriteString("true")
		case KFalse:
			sb.WriteString("false")
		case KVar:
			sb.WriteString(m.name)
		case KNot:
			sb.WriteString("!")
			rec(m.a)
		case KAnd, KOr:
			op := " & "
			if m.kind == KOr {
				op = " | "
			}
			sb.WriteString("(")
			rec(m.a)
			sb.WriteString(op)
			rec(m.b)
			sb.WriteString(")")
		default:
			fmt.Fprintf(&sb, "?%d", m.kind)
		}
	}
	rec(n)
	return sb.String()
}

// CNF is the clausal form of an asserted formula: the solver literal of
// every source variable.
type CNF struct {
	VarLits map[string]sat.Lit
}

// Per-node flags of the encoder.
const (
	fLit    uint8 = 1 << iota // lit is allocated
	fPos                      // the gate occurs positively
	fNeg                      // the gate occurs negatively
	fInline                   // flattened into its parent; no variable
)

// encNode is the encoder's state for one node, indexed by node id.
type encNode struct {
	n     *Node
	refs  int32 // parents in the reachable DAG
	lit   sat.Lit
	flags uint8
}

// term is an n-ary gate input: node n under a sign. n is a variable or a gate
// (And/Or) that gets its own variable, never a Not.
type term struct {
	n   *Node
	neg bool
	// single reports that this is n's only occurrence in the DAG.
	single bool
}

// frame is a pending child ch of an And/Or node of kind pk during collect;
// neg is the sign the parent is read under.
type frame struct {
	ch  *Node
	neg bool
	pk  Kind
}

type encoder struct {
	s     *sat.Solver
	cnf   CNF
	nodes []encNode
	stack []frame
	buf   []sat.Lit
}

// AssertTrue adds to s clauses that are satisfiable exactly when n is, and
// returns the literals of n's variables. The encoding is Plaisted–Greenbaum
// over n-ary gates:
//
//   - Chains of And (Or) nodes with a single parent, also through a Not with
//     a single parent that turns Or into And and back, are flattened into one
//     gate over all their inputs. A gate of k inputs costs one variable, k
//     binary clauses for one polarity and one (k+1)-literal clause for the
//     other.
//   - Each gate gets only the clauses of the polarities it occurs in: a gate
//     occurring only positively is implied by its literal but does not imply
//     it.
//   - The root's conjuncts are asserted as clauses of their own: a variable
//     or a shared gate as a unit, a disjunction with a single parent as one
//     clause over its flattened inputs.
//
// Soundness invariant: a gate literal is only implied in the direction the
// formula needs, so callers may later constrain (with clauses or
// assumptions) only VarLits literals, never gate variables. Under that
// discipline every model restricted to VarLits satisfies n, and every
// assignment of the variables that satisfies n and the extra constraints
// extends to a model.
func AssertTrue(n *Node, s *sat.Solver) CNF {
	e := &encoder{s: s, cnf: CNF{VarLits: make(map[string]sat.Lit)}}
	switch n.kind {
	case KTrue:
		return e.cnf
	case KFalse:
		s.AddClause()
		return e.cnf
	}
	e.count(n)
	r, neg := n, false
	if r.kind == KNot {
		r, neg = r.a, true
	}
	if r.kind == KVar {
		s.AddClause(e.lit(term{n: r, neg: neg}))
		return e.cnf
	}
	// The root gate: a conjunction asserts each input, a disjunction is one
	// clause.
	e.nodes[r.id].flags |= fInline
	roots := e.collect(r, neg, nil)
	if (r.kind == KAnd) != neg {
		for _, t := range roots {
			if t.single && t.n.kind != KVar && (t.n.kind == KOr) != t.neg {
				e.nodes[t.n.id].flags |= fInline
				e.clause(e.collect(t.n, t.neg, nil))
			} else {
				s.AddClause(e.lit(t))
				e.occurs(t, fPos)
			}
		}
	} else {
		e.clause(roots)
	}
	// Parents have larger ids than their children, so descending id order
	// visits every gate after all its occurrences are known.
	var ins []term
	for id := r.id - 1; id > 0; id-- {
		nd := &e.nodes[id]
		if nd.n == nil || nd.flags&fInline != 0 || nd.flags&(fPos|fNeg) == 0 {
			continue
		}
		ins = e.collect(nd.n, false, ins[:0])
		e.gate(nd, ins)
	}
	return e.cnf
}

// count records every node reachable from n by id, with its parent count.
func (e *encoder) count(n *Node) {
	e.nodes = make([]encNode, n.id+1)
	e.nodes[n.id].n = n
	stack := []*Node{n}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range [2]*Node{m.a, m.b} {
			if c == nil {
				continue
			}
			nc := &e.nodes[c.id]
			nc.refs++
			if nc.n == nil {
				nc.n = c
				stack = append(stack, c)
			}
		}
	}
}

// collect appends the inputs of the n-ary gate rooted at And/Or node g, read
// under sign neg, to out: it descends into every child of the same effective
// kind that has no other parent, marking it inlined.
func (e *encoder) collect(g *Node, neg bool, out []term) []term {
	st := append(e.stack[:0], frame{g.b, neg, g.kind}, frame{g.a, neg, g.kind})
	for len(st) > 0 {
		f := st[len(st)-1]
		st = st[:len(st)-1]
		c, via := f.ch, false
		single := e.nodes[c.id].refs == 1
		if c.kind == KNot {
			c, via = c.a, true
			single = single && e.nodes[c.id].refs == 1
		}
		t := term{n: c, neg: f.neg != via, single: single}
		if single && (c.kind == KAnd || c.kind == KOr) && (c.kind == f.pk) != via {
			e.nodes[c.id].flags |= fInline
			st = append(st, frame{c.b, t.neg, c.kind}, frame{c.a, t.neg, c.kind})
			continue
		}
		out = append(out, t)
	}
	e.stack = st
	return out
}

// lit returns the literal of t, allocating the variable of t.n on first use.
func (e *encoder) lit(t term) sat.Lit {
	nd := &e.nodes[t.n.id]
	if nd.flags&fLit == 0 {
		nd.lit = sat.PosLit(e.s.NewVar())
		nd.flags |= fLit
		if t.n.kind == KVar {
			e.cnf.VarLits[t.n.name] = nd.lit
		}
	}
	if t.neg {
		return nd.lit.Not()
	}
	return nd.lit
}

// occurs records that t occurs with polarity pol (fPos or fNeg).
func (e *encoder) occurs(t term, pol uint8) {
	if t.n.kind == KVar {
		return
	}
	if t.neg && pol != fPos|fNeg {
		pol ^= fPos | fNeg
	}
	e.nodes[t.n.id].flags |= pol
}

// clause asserts the disjunction of ts.
func (e *encoder) clause(ts []term) {
	e.buf = e.buf[:0]
	for _, t := range ts {
		e.buf = append(e.buf, e.lit(t))
		e.occurs(t, fPos)
	}
	e.s.AddClause(e.buf...)
}

// gate emits the defining clauses of gate nd for the polarities it occurs
// in, and passes those polarities on to its inputs l1..lk. With x the gate
// literal:
//
//	And, positive: x → li, each (¬x ∨ li)
//	And, negative: ∧li → x, one (x ∨ ¬l1 ∨ … ∨ ¬lk)
//	Or, positive:  x → ∨li, one (¬x ∨ l1 ∨ … ∨ lk)
//	Or, negative:  li → x, each (x ∨ ¬li)
//
// An Or gate is the And gate of ¬x over the ¬li, so one loop emits both.
func (e *encoder) gate(nd *encNode, ins []term) {
	pol := nd.flags & (fPos | fNeg)
	or := nd.n.kind == KOr
	y, short, long := nd.lit, fPos, fNeg
	if or {
		y, short, long = y.Not(), fNeg, fPos
	}
	e.buf = append(e.buf[:0], y)
	for _, t := range ins {
		m := e.lit(t)
		e.occurs(t, pol)
		if or {
			m = m.Not()
		}
		if pol&short != 0 {
			e.s.AddClause(y.Not(), m)
		}
		e.buf = append(e.buf, m.Not())
	}
	if pol&long != 0 {
		e.s.AddClause(e.buf...)
	}
}
