package boolexpr

import (
	"math/rand"
	"testing"

	"sufsat/internal/sat"
)

func TestConstantsFold(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x")
	cases := []struct {
		got, want *Node
		what      string
	}{
		{b.And(b.True(), x), x, "true&x"},
		{b.And(x, b.True()), x, "x&true"},
		{b.And(b.False(), x), b.False(), "false&x"},
		{b.Or(b.True(), x), b.True(), "true|x"},
		{b.Or(x, b.False()), x, "x|false"},
		{b.Not(b.True()), b.False(), "!true"},
		{b.Not(b.Not(x)), x, "!!x"},
		{b.And(x, x), x, "x&x"},
		{b.Or(x, x), x, "x|x"},
		{b.And(x, b.Not(x)), b.False(), "x&!x"},
		{b.Or(x, b.Not(x)), b.True(), "x|!x"},
		{b.Ite(b.True(), x, b.False()), x, "ite(true,x,false)"},
		{b.Ite(b.False(), b.True(), x), x, "ite(false,true,x)"},
		{b.Ite(b.Var("c"), x, x), x, "ite(c,x,x)"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.what, c.got, c.want)
		}
	}
}

func TestHashConsing(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var("x"), b.Var("y")
	if b.Var("x") != x {
		t.Fatal("Var not hash-consed")
	}
	if b.And(x, y) != b.And(y, x) {
		t.Fatal("And not commutative-canonical")
	}
	if b.Or(x, y) != b.Or(y, x) {
		t.Fatal("Or not commutative-canonical")
	}
	if b.Not(x) != b.Not(x) {
		t.Fatal("Not not hash-consed")
	}
}

func TestEval(t *testing.T) {
	b := NewBuilder()
	x, y, z := b.Var("x"), b.Var("y"), b.Var("z")
	f := b.Or(b.And(x, y), b.Not(z))
	cases := []struct {
		env  map[string]bool
		want bool
	}{
		{map[string]bool{"x": true, "y": true, "z": true}, true},
		{map[string]bool{"x": true, "y": false, "z": true}, false},
		{map[string]bool{"x": false, "y": false, "z": false}, true},
	}
	for _, c := range cases {
		if got := Eval(f, c.env); got != c.want {
			t.Errorf("Eval(%v) = %v, want %v", c.env, got, c.want)
		}
	}
}

func TestVarsAndCount(t *testing.T) {
	b := NewBuilder()
	f := b.And(b.Var("b"), b.Or(b.Var("a"), b.Not(b.Var("b"))))
	vs := Vars(f)
	if len(vs) != 2 || vs[0] != "a" || vs[1] != "b" {
		t.Fatalf("Vars = %v", vs)
	}
	if CountNodes(f) < 4 {
		t.Fatalf("CountNodes = %d, want >= 4", CountNodes(f))
	}
}

// randomExpr builds a random expression over nVars variables.
func randomExpr(rng *rand.Rand, b *Builder, nVars, depth int) *Node {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(6) {
		case 0:
			return b.True()
		case 1:
			return b.False()
		default:
			return b.Var(varName(rng.Intn(nVars)))
		}
	}
	switch rng.Intn(5) {
	case 0:
		return b.Not(randomExpr(rng, b, nVars, depth-1))
	case 1:
		return b.And(randomExpr(rng, b, nVars, depth-1), randomExpr(rng, b, nVars, depth-1))
	case 2:
		return b.Or(randomExpr(rng, b, nVars, depth-1), randomExpr(rng, b, nVars, depth-1))
	case 3:
		return b.Xor(randomExpr(rng, b, nVars, depth-1), randomExpr(rng, b, nVars, depth-1))
	default:
		return b.Ite(randomExpr(rng, b, nVars, depth-1),
			randomExpr(rng, b, nVars, depth-1), randomExpr(rng, b, nVars, depth-1))
	}
}

func varName(i int) string { return string(rune('a' + i)) }

// bruteSat reports whether f has a satisfying assignment, by enumeration.
func bruteSat(f *Node, nVars int) bool {
	env := make(map[string]bool, nVars)
	for m := 0; m < 1<<uint(nVars); m++ {
		for v := 0; v < nVars; v++ {
			env[varName(v)] = m>>uint(v)&1 == 1
		}
		if Eval(f, env) {
			return true
		}
	}
	return false
}

func TestTseitinEquisatisfiable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const nVars = 6
	for iter := 0; iter < 200; iter++ {
		b := NewBuilder()
		f := randomExpr(rng, b, nVars, 5)
		want := bruteSat(f, nVars)

		s := sat.New()
		AssertTrue(f, s)
		got := s.Solve()
		if want && got != sat.Sat {
			t.Fatalf("iter %d: CNF says %v, brute force says SAT\nf = %v", iter, got, f)
		}
		if !want && got != sat.Unsat {
			t.Fatalf("iter %d: CNF says %v, brute force says UNSAT\nf = %v", iter, got, f)
		}
	}
}

func TestTseitinModelProjectsBack(t *testing.T) {
	// When the CNF is SAT, the projection of the model onto the source
	// variables must satisfy the original expression.
	rng := rand.New(rand.NewSource(4711))
	const nVars = 7
	for iter := 0; iter < 200; iter++ {
		b := NewBuilder()
		f := randomExpr(rng, b, nVars, 6)
		s := sat.New()
		c := AssertTrue(f, s)
		if s.Solve() != sat.Sat {
			continue
		}
		model := s.Model()
		env := make(map[string]bool)
		for name, lit := range c.VarLits {
			v := model[lit.Var()]
			if lit.Neg() {
				v = !v
			}
			env[name] = v
		}
		if !Eval(f, env) {
			t.Fatalf("iter %d: projected model does not satisfy source formula %v env=%v", iter, f, env)
		}
	}
}

func TestXorIffSemantics(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var("x"), b.Var("y")
	xor, iff := b.Xor(x, y), b.Iff(x, y)
	for _, vx := range []bool{false, true} {
		for _, vy := range []bool{false, true} {
			env := map[string]bool{"x": vx, "y": vy}
			if Eval(xor, env) != (vx != vy) {
				t.Errorf("Xor(%v,%v) wrong", vx, vy)
			}
			if Eval(iff, env) != (vx == vy) {
				t.Errorf("Iff(%v,%v) wrong", vx, vy)
			}
		}
	}
}

func TestAssertTrueConstants(t *testing.T) {
	b := NewBuilder()
	s := sat.New()
	AssertTrue(b.True(), s)
	if s.Solve() != sat.Sat {
		t.Fatal("true must be SAT")
	}
	s2 := sat.New()
	AssertTrue(b.False(), s2)
	if s2.Solve() != sat.Unsat {
		t.Fatal("false must be UNSAT")
	}
}

func TestAndNOrN(t *testing.T) {
	b := NewBuilder()
	if b.AndN() != b.True() {
		t.Fatal("empty AndN must be true")
	}
	if b.OrN() != b.False() {
		t.Fatal("empty OrN must be false")
	}
	x, y, z := b.Var("x"), b.Var("y"), b.Var("z")
	f := b.AndN(x, y, z)
	env := map[string]bool{"x": true, "y": true, "z": true}
	if !Eval(f, env) {
		t.Fatal("AndN semantics")
	}
	env["y"] = false
	if Eval(f, env) {
		t.Fatal("AndN semantics")
	}
	g := b.OrN(x, y, z)
	if !Eval(g, map[string]bool{"z": true}) || Eval(g, map[string]bool{}) {
		t.Fatal("OrN semantics")
	}
}
