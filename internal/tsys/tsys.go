// Package tsys models term-level transition systems and checks safety
// properties of them through the SUF decision procedures — the UCLID-style
// application (bounded model checking and inductive invariant checking of
// systems described in counter arithmetic with uninterpreted functions) that
// motivates the paper.
//
// A System has integer and Boolean state variables; the next-state value of
// each variable is a SUF expression over the current state variables and
// per-step symbolic inputs. Because the update functions are substituted
// functionally, unrolling needs no frame axioms: step k's state is a term
// over the initial state and the first k input vectors.
package tsys

import (
	"context"
	"fmt"
	"time"

	"sufsat/internal/core"
	"sufsat/internal/suf"
)

// System is a term-level transition system. Build one with NewSystem, define
// the variables and their updates, then use CheckInductive or BMC.
type System struct {
	b *suf.Builder

	intVars  []string
	boolVars []string
	nextInt  map[string]*suf.IntExpr
	nextBool map[string]*suf.BoolExpr
	inputs   map[string]bool // symbols treated as fresh per step
	init     *suf.BoolExpr   // constraint over the initial state
}

// NewSystem returns an empty system over b. The builder is shared with the
// caller so state expressions can be constructed with the usual API.
func NewSystem(b *suf.Builder) *System {
	return &System{
		b:        b,
		nextInt:  make(map[string]*suf.IntExpr),
		nextBool: make(map[string]*suf.BoolExpr),
		inputs:   make(map[string]bool),
	}
}

// Builder returns the underlying expression builder.
func (s *System) Builder() *suf.Builder { return s.b }

// IntVar declares an integer state variable and returns its current-state
// symbol.
func (s *System) IntVar(name string) *suf.IntExpr {
	s.intVars = append(s.intVars, name)
	return s.b.Sym(name)
}

// BoolVar declares a Boolean state variable and returns its current-state
// symbol.
func (s *System) BoolVar(name string) *suf.BoolExpr {
	s.boolVars = append(s.boolVars, name)
	return s.b.BoolSym(name)
}

// IntInput declares a symbolic input (fresh every step) and returns it.
func (s *System) IntInput(name string) *suf.IntExpr {
	s.inputs[name] = true
	return s.b.Sym(name)
}

// BoolInput declares a Boolean input (fresh every step) and returns it.
func (s *System) BoolInput(name string) *suf.BoolExpr {
	s.inputs[name] = true
	return s.b.BoolSym(name)
}

// SetNext defines the next-state expression of an integer state variable.
func (s *System) SetNext(name string, e *suf.IntExpr) { s.nextInt[name] = e }

// SetNextBool defines the next-state expression of a Boolean state variable.
func (s *System) SetNextBool(name string, e *suf.BoolExpr) { s.nextBool[name] = e }

// SetInit constrains the initial state.
func (s *System) SetInit(f *suf.BoolExpr) { s.init = f }

// step builds the substitution advancing the state by one step: state
// variables map to their next-state expressions (with the current state
// substituted in), inputs map to step-indexed fresh symbols.
func (s *System) step(cur *suf.Subst, k int) (*suf.Subst, error) {
	b := s.b
	// Inputs of step k.
	inK := &suf.Subst{Int: map[string]*suf.IntExpr{}, Bool: map[string]*suf.BoolExpr{}}
	for name := range s.inputs {
		fresh := fmt.Sprintf("%s@%d", name, k)
		inK.Int[name] = b.Sym(fresh)
		inK.Bool[name] = b.BoolSym(fresh)
	}
	next := &suf.Subst{Int: map[string]*suf.IntExpr{}, Bool: map[string]*suf.BoolExpr{}}
	for _, v := range s.intVars {
		upd, ok := s.nextInt[v]
		if !ok {
			return nil, fmt.Errorf("tsys: integer state variable %q has no next-state expression", v)
		}
		// next(v) = upd[state := cur, inputs := in@k]
		withInputs := inK.ApplyInt(upd, b)
		next.Int[v] = cur.ApplyInt(withInputs, b)
	}
	for _, v := range s.boolVars {
		upd, ok := s.nextBool[v]
		if !ok {
			return nil, fmt.Errorf("tsys: Boolean state variable %q has no next-state expression", v)
		}
		withInputs := inK.ApplyBool(upd, b)
		next.Bool[v] = cur.ApplyBool(withInputs, b)
	}
	return next, nil
}

func identitySubst() *suf.Subst {
	return &suf.Subst{Int: map[string]*suf.IntExpr{}, Bool: map[string]*suf.BoolExpr{}}
}

// State is one step of a counterexample trace: the state variables' values
// on entry to the step and the input values consumed during it.
type State struct {
	Ints   map[string]int64
	Bools  map[string]bool
	InInts map[string]int64
	InBool map[string]bool
}

// CheckResult is the outcome of a property check.
type CheckResult struct {
	// Holds reports whether the property was proved.
	Holds bool
	// Step is the counterexample depth for a failed BMC (0-based; -1 for
	// inductive checks and successes).
	Step int
	// Status carries the raw decision outcome (any non-definitive status —
	// Timeout, Canceled, ResourceOut, Error — aborts the check).
	Status core.Status
	// Model is the falsifying interpretation when the check fails.
	Model *core.Model
	// Trace is the concrete counterexample execution for a failed BMC:
	// Trace[j] is the state entering step j (and the inputs of step j, absent
	// in the final entry), for j = 0..Step.
	Trace []State
}

// CheckInductive verifies that prop is an inductive invariant:
// (1) init ⟹ prop, and (2) prop ⟹ prop[next(state)].
func (s *System) CheckInductive(prop *suf.BoolExpr, opts core.Options) (*CheckResult, error) {
	b := s.b
	if s.init != nil {
		res := core.Decide(b.Implies(s.init, prop), b, opts)
		if !res.Status.Definitive() {
			return &CheckResult{Status: res.Status}, res.Err
		}
		if res.Status == core.Invalid {
			return &CheckResult{Holds: false, Step: -1, Status: res.Status, Model: res.Model}, nil
		}
	}
	next, err := s.step(identitySubst(), 0)
	if err != nil {
		return nil, err
	}
	propNext := next.ApplyBool(prop, b)
	res := core.Decide(b.Implies(prop, propNext), b, opts)
	if !res.Status.Definitive() {
		return &CheckResult{Status: res.Status}, res.Err
	}
	return &CheckResult{
		Holds:  res.Status == core.Valid,
		Step:   -1,
		Status: res.Status,
		Model:  res.Model,
	}, nil
}

// BMC checks the safety property at every step up to depth: validity of
// init(s₀) ⟹ prop(s_k) for k = 0..depth, with states unrolled functionally.
// It returns the first violated depth, or Holds=true when all pass.
func (s *System) BMC(prop *suf.BoolExpr, depth int, opts core.Options) (*CheckResult, error) {
	b := s.b
	cur := identitySubst() // step 0: state variables are themselves symbolic
	subs := []*suf.Subst{cur}
	for k := 0; k <= depth; k++ {
		propK := cur.ApplyBool(prop, b)
		query := propK
		if s.init != nil {
			query = b.Implies(s.init, propK)
		}
		res := core.Decide(query, b, opts)
		switch {
		case !res.Status.Definitive():
			return &CheckResult{Status: res.Status, Step: k}, res.Err
		case res.Status == core.Invalid:
			out := &CheckResult{Holds: false, Step: k, Status: res.Status, Model: res.Model}
			out.Trace = s.trace(subs, res.Model)
			return out, nil
		}
		if k == depth {
			break
		}
		next, err := s.step(cur, k)
		if err != nil {
			return nil, err
		}
		cur = next
		subs = append(subs, cur)
	}
	return &CheckResult{Holds: true, Step: -1, Status: core.Valid}, nil
}

// bmcGuardName names the per-depth guard symbol of the session-based BMC
// unrolling. The "@" keeps it out of the way of ordinary state/input names
// the same way step-indexed inputs are.
func bmcGuardName(k int) string { return fmt.Sprintf("bmc_guard@%d", k) }

// BMCSession is BMC on one incremental solver session: the whole unrolling
// is encoded ONCE as the guarded conjunction
//
//	⋀_k  g_k ⟹ (init(s₀) ⟹ prop(s_k))
//
// and each depth is then a SolveAssume query fixing g_k true and every other
// guard false (making the conjunction equivalent to depth k's query), so the
// per-depth cost is one assumption-solve on a warm solver — learnt clauses
// and the encoding are shared across all depths — instead of a full
// parse/analyze/encode/solve pipeline per depth. Verdict-equivalent to BMC:
// fixing Boolean guard symbols only deactivates atoms, and the eager
// encodings are sound for every subset of the atom set.
func (s *System) BMCSession(ctx context.Context, prop *suf.BoolExpr, depth int, opts core.Options) (*CheckResult, error) {
	b := s.b
	cur := identitySubst()
	subs := []*suf.Subst{cur}
	guarded := b.True()
	for k := 0; k <= depth; k++ {
		propK := cur.ApplyBool(prop, b)
		query := propK
		if s.init != nil {
			query = b.Implies(s.init, propK)
		}
		guarded = b.And(guarded, b.Implies(b.BoolSym(bmcGuardName(k)), query))
		if k == depth {
			break
		}
		next, err := s.step(cur, k)
		if err != nil {
			return nil, err
		}
		cur = next
		subs = append(subs, cur)
	}

	sess, err := core.OpenSession(ctx, guarded, b, opts)
	if err != nil {
		return nil, err
	}
	defer sess.Close()

	assume := make(map[string]bool, depth+1)
	for k := 0; k <= depth; k++ {
		for j := 0; j <= depth; j++ {
			assume[bmcGuardName(j)] = j == k
		}
		res := sess.DecideAssuming(ctx, assume)
		switch {
		case !res.Status.Definitive():
			return &CheckResult{Status: res.Status, Step: k}, res.Err
		case res.Status == core.Invalid:
			out := &CheckResult{Holds: false, Step: k, Status: res.Status, Model: res.Model}
			out.Trace = s.trace(subs[:k+1], res.Model)
			return out, nil
		}
	}
	return &CheckResult{Holds: true, Step: -1, Status: core.Valid}, nil
}

// trace evaluates the unrolled state terms and per-step inputs under the
// counterexample model, turning the flat interpretation into an execution.
func (s *System) trace(subs []*suf.Subst, m *core.Model) []State {
	if m == nil {
		return nil
	}
	it := m.Interp()
	b := s.b
	out := make([]State, len(subs))
	for j, sub := range subs {
		st := State{
			Ints:   make(map[string]int64),
			Bools:  make(map[string]bool),
			InInts: make(map[string]int64),
			InBool: make(map[string]bool),
		}
		for _, v := range s.intVars {
			term := b.Sym(v)
			if rep, ok := sub.Int[v]; ok {
				term = rep
			}
			st.Ints[v] = suf.EvalInt(term, it)
		}
		for _, v := range s.boolVars {
			f := b.BoolSym(v)
			if rep, ok := sub.Bool[v]; ok {
				f = rep
			}
			st.Bools[v] = suf.EvalBool(f, it)
		}
		if j+1 < len(subs) { // the final state consumes no inputs
			for name := range s.inputs {
				fresh := fmt.Sprintf("%s@%d", name, j)
				st.InInts[name] = suf.EvalInt(b.Sym(fresh), it)
				st.InBool[name] = suf.EvalBool(b.BoolSym(fresh), it)
			}
		}
		out[j] = st
	}
	return out
}

// DefaultOptions returns reasonable options for system checks.
func DefaultOptions(timeout time.Duration) core.Options {
	return core.Options{Timeout: timeout, MaxTransClauses: 2_000_000}
}
