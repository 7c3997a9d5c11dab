package boolexpr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sufsat/internal/sat"
)

// dagVars is the number of source variables of the random DAGs below, small
// enough to enumerate every assignment.
const dagVars = 6

// dagFromBytes builds a Boolean DAG from data, three bytes per instruction.
// The pool starts with the constants and the variables; each instruction
// combines pool entries into a new one, so reused entries become shared
// subterms (several parents), negated And/Or and Xor/Ite exercise Not over
// gates, and AndN/OrN over a pool suffix build deep chains. The last entry,
// negated when the first byte is odd, is the root.
func dagFromBytes(b *Builder, data []byte) *Node {
	pool := []*Node{b.True(), b.False()}
	for v := 0; v < dagVars; v++ {
		pool = append(pool, b.Var(varName(v)))
	}
	pick := func(x byte) *Node { return pool[int(x)%len(pool)] }
	for i := 0; i+2 < len(data); i += 3 {
		op, x, y := data[i], pick(data[i+1]), pick(data[i+2])
		var n *Node
		switch op % 9 {
		case 0:
			n = b.And(x, y)
		case 1:
			n = b.Or(x, y)
		case 2:
			n = b.Not(b.And(x, y))
		case 3:
			n = b.Not(b.Or(x, y))
		case 4:
			n = b.Xor(x, y)
		case 5:
			n = b.Ite(x, y, pick(op/9))
		case 6:
			n = b.Implies(x, y)
		case 7:
			n = b.AndN(pool[int(data[i+1])%len(pool):]...)
		default:
			n = b.OrN(pool[int(data[i+1])%len(pool):]...)
		}
		pool = append(pool, n)
	}
	root := pool[len(pool)-1]
	if len(data) > 0 && data[0]&1 == 1 {
		root = b.Not(root)
	}
	return root
}

// checkAssertTrue encodes root and checks the encoder's contract against
// enumeration: the CNF is satisfiable iff root is, a model restricted to
// VarLits satisfies root, and — the invariant callers rely on — pinning the
// VarLits literals to any assignment (as assumptions) leaves the CNF
// satisfiable exactly when that assignment satisfies root.
func checkAssertTrue(t *testing.T, root *Node) {
	t.Helper()
	s := sat.New()
	cnf := AssertTrue(root, s)
	got := s.Solve()
	if want := bruteSat(root, dagVars); (got == sat.Sat) != want {
		t.Fatalf("CNF says %v, enumeration says sat=%v for %v", got, want, root)
	}
	if got == sat.Sat {
		env := make(map[string]bool)
		for name, l := range cnf.VarLits {
			env[name] = s.Model()[l.Var()] != l.Neg()
		}
		if !Eval(root, env) {
			t.Fatalf("model %v restricted to VarLits falsifies %v", env, root)
		}
	}
	if got == sat.Unsat {
		return // refuted outright: no assignment to pin
	}
	for m := 0; m < 1<<dagVars; m++ {
		env := make(map[string]bool, dagVars)
		var assumps []sat.Lit
		for v := 0; v < dagVars; v++ {
			name := varName(v)
			env[name] = m>>v&1 == 1
			if l, ok := cnf.VarLits[name]; ok {
				if !env[name] {
					l = l.Not()
				}
				assumps = append(assumps, l)
			}
		}
		if (s.SolveAssume(assumps...) == sat.Sat) != Eval(root, env) {
			t.Fatalf("pinned to %v the CNF disagrees with Eval for %v", env, root)
		}
	}
}

// TestQuickAssertTrue runs the encoder contract on random DAGs.
func TestQuickAssertTrue(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3*(1+rng.Intn(40)))
		rng.Read(data)
		checkAssertTrue(t, dagFromBytes(NewBuilder(), data))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzAssertTrue runs the encoder contract on fuzzer-built DAGs.
func FuzzAssertTrue(f *testing.F) {
	f.Add([]byte{0, 2, 3})
	f.Add([]byte{1, 2, 3, 2, 8, 4, 3, 9, 8})
	f.Add([]byte{7, 2, 0, 8, 3, 0, 4, 9, 10, 2, 11, 10})
	f.Add([]byte{5, 2, 3, 0, 8, 4, 1, 9, 5, 2, 10, 8, 7, 0, 0, 3, 11, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*64 {
			data = data[:3*64]
		}
		checkAssertTrue(t, dagFromBytes(NewBuilder(), data))
	})
}

// TestAssertTrueSharedAndChains pins the cases the n-ary encoder treats
// specially: a gate shared under both polarities, Not over And and Or with
// one parent (flattened) and with two (shared), a deep chain, and a root
// disjunction asserted as one clause.
func TestAssertTrueSharedAndChains(t *testing.T) {
	b := NewBuilder()
	v := func(i int) *Node { return b.Var(varName(i)) }
	shared := b.And(v(0), v(1))
	chain := b.AndN(v(0), v(1), v(2), v(3), v(4), v(5))
	for _, root := range []*Node{
		b.Xor(shared, v(2)),
		b.And(b.Or(shared, v(3)), b.Not(b.And(shared, v(4)))),
		b.Not(b.Or(v(0), b.Not(b.And(v(1), b.Or(v(2), v(3)))))),
		b.And(b.Not(b.Or(v(0), v(1))), b.Or(b.Not(b.Or(v(0), v(1))), v(2))),
		b.Or(chain, b.Not(chain)),
		b.And(chain, b.Not(v(3))),
		b.Or(b.And(v(0), v(1)), b.Or(v(2), b.Not(v(3)))),
		b.Not(chain),
	} {
		checkAssertTrue(t, root)
	}
}
