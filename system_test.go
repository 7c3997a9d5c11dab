package sufsat

import (
	"errors"
	"testing"

	"sufsat/internal/core"
)

// ticketLock returns the ticket-lock system and its invariant
// now_serving <= next_ticket.
func ticketLock() (*System, Formula) {
	b := NewBuilder()
	sys := NewSystem(b)
	nt := sys.IntVar("next_ticket")
	ns := sys.IntVar("now_serving")
	acq := sys.BoolInput("acquire")
	rel := sys.BoolInput("release")
	sys.SetNext("next_ticket", b.Ite(acq, nt.Succ(), nt))
	sys.SetNext("now_serving", b.Ite(rel.And(b.Lt(ns, nt)), ns.Succ(), ns))
	sys.SetInit(b.Eq(nt, ns))
	return sys, b.Le(ns, nt)
}

func TestSystemTicketLock(t *testing.T) {
	sys, inv := ticketLock()
	res, err := sys.CheckInductive(inv, Options{})
	if err != nil || !res.Holds {
		t.Fatalf("invariant must be inductive: %+v %v", res, err)
	}
	bmc, err := sys.BMC(inv, 3, Options{})
	if err != nil || !bmc.Holds {
		t.Fatalf("BMC must pass: %+v %v", bmc, err)
	}
}

// TestSystemHonorsOptions: every System check runs under the caller's
// method and budgets, not under fixed defaults. The ticket lock's depth-5
// unrolling needs more than one SAT conflict, and its separation class needs
// transitivity clauses under EIJ but none under SD. A blown budget surfaces
// as a ResourceOut error, never as a verdict.
func TestSystemHonorsOptions(t *testing.T) {
	checks := map[string]func(*System, Formula, Options) (*CheckOutcome, error){
		"BMC":            func(s *System, p Formula, o Options) (*CheckOutcome, error) { return s.BMC(p, 5, o) },
		"BMCIncremental": func(s *System, p Formula, o Options) (*CheckOutcome, error) { return s.BMCIncremental(p, 5, o) },
		"CheckInductive": func(s *System, p Formula, o Options) (*CheckOutcome, error) { return s.CheckInductive(p, o) },
	}
	for name, check := range checks {
		for _, tc := range []struct {
			opts  Options
			holds bool // false: the check must fail with ResourceOut
		}{
			{Options{}, true},
			{Options{Method: MethodEIJ, MaxTransClauses: 1}, false},
			{Options{Method: MethodSD, MaxTransClauses: 1}, true},
		} {
			sys, inv := ticketLock()
			res, err := check(sys, inv, tc.opts)
			switch {
			case tc.holds && (err != nil || !res.Holds):
				t.Errorf("%s %v: got %+v, %v; want the invariant to hold", name, tc.opts.Method, res, err)
			case !tc.holds && core.StatusOf(err) != ResourceOut:
				t.Errorf("%s %v: got %+v, %v; want ResourceOut", name, tc.opts.Method, res, err)
			}
		}
		sys, inv := ticketLock()
		if _, err := check(sys, inv, Options{Method: MethodLazy}); err == nil {
			t.Errorf("%s: MethodLazy ran instead of being rejected", name)
		}
	}
	for name, check := range checks {
		if name == "CheckInductive" {
			continue // two shallow queries, each decided without a conflict
		}
		sys, inv := ticketLock()
		res, err := check(sys, inv, Options{MaxConflicts: 1})
		if !errors.Is(err, ErrConflictBudget) {
			t.Errorf("%s with MaxConflicts 1: got %+v, %v; want %v", name, res, err, ErrConflictBudget)
		}
	}
}

func TestSystemBuggyFindsCounterexample(t *testing.T) {
	b := NewBuilder()
	sys := NewSystem(b)
	nt := sys.IntVar("next_ticket")
	ns := sys.IntVar("now_serving")
	rel := sys.BoolInput("release")
	sys.SetNext("next_ticket", nt)
	sys.SetNext("now_serving", b.Ite(rel, ns.Succ(), ns)) // unguarded release
	sys.SetInit(b.Eq(nt, ns))

	inv := b.Le(ns, nt)
	res, err := sys.BMC(inv, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds || res.Step != 1 {
		t.Fatalf("expected violation at step 1: %+v", res)
	}
	if res.Counterexample == nil {
		t.Fatal("violation must carry a counterexample")
	}
	// The trace input at step 0 must be a release.
	if !res.Counterexample.BoolConst("release@0") {
		t.Fatalf("counterexample should release at step 0")
	}
}

func TestSystemMissingNextErrors(t *testing.T) {
	b := NewBuilder()
	sys := NewSystem(b)
	sys.IntVar("x")
	if _, err := sys.BMC(b.True(), 1, Options{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestSystemTrace(t *testing.T) {
	b := NewBuilder()
	sys := NewSystem(b)
	x := sys.IntVar("x")
	bump := sys.BoolInput("bump")
	sys.SetNext("x", b.Ite(bump, x.Succ(), x))
	sys.SetInit(b.Eq(x, b.Int("zero")))

	// x stays equal to zero only while no bump happens: BMC finds the bump.
	res, err := sys.BMC(b.Eq(x, b.Int("zero")), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds || res.Step != 1 {
		t.Fatalf("expected violation at step 1: %+v", res)
	}
	if len(res.Trace) != 2 || !res.Trace[0].InBool["bump"] {
		t.Fatalf("trace must show the bump: %+v", res.Trace)
	}
	if res.Trace[1].Ints["x"] != res.Trace[0].Ints["x"]+1 {
		t.Fatalf("trace states inconsistent: %+v", res.Trace)
	}
}
