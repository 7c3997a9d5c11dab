package sufsat

import (
	"context"
	"fmt"

	"sufsat/internal/core"
	"sufsat/internal/suf"
)

// Fingerprint returns a canonical hex-encoded SHA-256 fingerprint of the
// formula, invariant under alpha-renaming of symbols (constants, functions,
// predicates, Boolean symbols) and argument-order permutation of the
// commutative connectives (∧, ∨, =). Equal fingerprints imply the formulas
// are equivalent up to such a renaming — and therefore share one validity
// verdict — so the fingerprint is a sound cache and routing key. Distinct
// fingerprints for equivalent formulas are possible only for pathologically
// symmetric inputs (a missed cache hit, never a wrong one).
func (f Formula) Fingerprint() string { return suf.Fingerprint(f.f) }

// Session is an open incremental decision session over one formula: the
// eager pipeline (function elimination, separation analysis, hybrid
// encoding, CNF construction) runs once at OpenSession, and every
// DecideAssuming call reuses the warm SAT solver — including all clauses it
// has learnt — answering validity queries with some symbolic Boolean
// constants ("guards") fixed. The intended shape is a guarded BMC unrolling
//
//	AND_k ( g_k ⟹ property-at-depth-k )
//
// queried once per depth with that depth's guard true and the rest false.
//
// A Session is not safe for concurrent use; serialize calls, and Close it
// when done.
type Session struct {
	s *core.Session
	b *Builder
}

// OpenSession encodes f once and returns a warm session. Only the eager
// methods (MethodHybrid, MethodSD, MethodEIJ) support sessions;
// Options.Timeout applies to each DecideAssuming call, not the whole
// session. Pipeline failures return the same classified errors a Decide call
// would report.
func OpenSession(f Formula, opts Options) (*Session, error) {
	return OpenSessionContext(context.Background(), f, opts)
}

// OpenSessionContext is OpenSession under a caller-supplied context.
func OpenSessionContext(ctx context.Context, f Formula, opts Options) (*Session, error) {
	co, eager := opts.coreOptions()
	if !eager {
		return nil, fmt.Errorf("sufsat: method %v does not support sessions", opts.Method)
	}
	cs, err := core.OpenSession(ctx, f.f, f.b.sb, co)
	if err != nil {
		return nil, err
	}
	return &Session{s: cs, b: f.b}, nil
}

// DecideAssuming decides the validity of the session formula with the named
// symbolic Boolean constants fixed to the given values. Guards the encoding
// simplified away (the formula provably does not depend on them) are
// skipped, which preserves the verdict; HasGuard reports presence. A nil or
// empty map decides the unrestricted formula.
func (s *Session) DecideAssuming(assume map[string]bool) *Result {
	return s.DecideAssumingContext(context.Background(), assume)
}

// DecideAssumingContext is DecideAssuming under a caller-supplied context.
func (s *Session) DecideAssumingContext(ctx context.Context, assume map[string]bool) *Result {
	r := s.s.DecideAssuming(ctx, assume)
	out := &Result{Status: r.Status, Err: r.Err, Stats: statsOf(&r.Stats)}
	if r.Model != nil {
		out.Counterexample = &Counterexample{m: r.Model}
	}
	return out
}

// HasGuard reports whether the named symbolic Boolean constant survived into
// the session's encoding. See DecideAssuming.
func (s *Session) HasGuard(name string) bool { return s.s.HasGuard(name) }

// Queries returns how many DecideAssuming calls the session has served.
func (s *Session) Queries() int { return s.s.Queries() }

// Close releases the session's solver and encoders. Further queries return
// an Error result. Close is idempotent.
func (s *Session) Close() { s.s.Close() }
