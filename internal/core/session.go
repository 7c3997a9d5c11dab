// Incremental decision sessions: encode once, decide many times under
// assumptions. A Session runs the eager pipeline (funcelim → analyze →
// encode → CNF) exactly once for a formula F over guard Boolean symbols,
// then answers a stream of DecideAssuming(γ) queries — each fixing some
// guards true/false — against the same warm SAT solver via
// sat.SolveAssume, retaining learnt clauses between queries.
//
// Soundness of reuse: DecideAssuming(γ) decides validity of F[γ], the
// formula with the guards substituted. Fixing Boolean symbols only removes
// atoms, and both encoders' sufficiency arguments are monotone in the atom
// set — the SD domain sizes and EIJ constraint set computed for F remain
// sufficient for every F[γ] — so UNSAT(F_trans ∧ ¬F_bvar ∧ γ) still
// coincides with validity of F[γ]. Learnt clauses are implied by the clause
// database alone (assumptions enter CDCL as pseudo-decisions, never as
// clauses), so carrying them across queries is sound too; that retention is
// what makes a BMC unrolling stream on one session beat N cold pipelines.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"sufsat/internal/boolexpr"
	"sufsat/internal/funcelim"
	"sufsat/internal/perconstraint"
	"sufsat/internal/sat"
	"sufsat/internal/sep"
	"sufsat/internal/smalldomain"
	"sufsat/internal/suf"
)

// boolSymVarPrefix is the name prefix under which the encoders register
// symbolic Boolean constants in the CNF's variable map (see enc.enc and
// extractModel, which share the convention).
const boolSymVarPrefix = "sb!"

// Session is an open incremental decision session. It is not safe for
// concurrent use; serialize DecideAssuming calls. Close releases the solver.
type Session struct {
	b      *suf.Builder
	opts   Options
	solver *sat.Solver
	cnf    boolexpr.CNF
	info   *sep.Info
	sdEnc  *smalldomain.Encoder
	eijEnc *perconstraint.Encoder
	elim   *funcelim.Result

	// encodeStats carries the pipeline measurements of the one-time prepare;
	// every Result this session produces starts from a copy.
	encodeStats Stats
	encodeTime  time.Duration
	queries     int
	closed      bool
}

// OpenSession runs the pipeline for f up to (but not including) the SAT
// search and returns a warm session. The Options govern the encoding and
// per-query solving (method, SEP_THOLD, budgets, SolverWorkers); Timeout
// applies per DecideAssuming call, not to the whole session. A pipeline
// failure (cancellation, budget, analysis error) is returned as the same
// classified error DecideCtx would put in Result.Err.
func OpenSession(ctx context.Context, f *suf.BoolExpr, b *suf.Builder, opts Options) (*Session, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := withTimeout(ctx, opts.Timeout)
	defer cancel()
	threshold := opts.SepThreshold
	if threshold == 0 {
		threshold = DefaultSepThreshold
	}

	s := &Session{b: b, opts: opts}
	s.encodeStats.SUFNodes = suf.CountNodes(f)

	// 1. Function and predicate elimination.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Ackermann {
		s.elim = funcelim.EliminateAckermann(f, b)
	} else {
		s.elim = funcelim.Eliminate(f, b)
	}
	s.encodeStats.PFraction = s.elim.PFuncFraction

	// 2. Separation analysis.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	info, err := sep.Analyze(s.elim.Formula, b, s.elim.PConsts)
	if err != nil {
		return nil, err
	}
	s.info = info
	s.encodeStats.SepPreds = info.NumSepPreds
	s.encodeStats.Classes = len(info.Classes)

	// 3. Routing and Boolean encoding, as in DecideCtx.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rt, err := route(ctx, info, opts, threshold)
	if err != nil {
		return nil, err
	}
	s.encodeStats.SDClasses = len(rt.sd)
	s.encodeStats.DemotedClasses = rt.demoted
	bb := boolexpr.NewBuilder()
	bvar, sdEnc, eijEnc, err := encode(ctx, info, b, bb, opts, rt.sd, nil)
	if err != nil {
		return nil, err
	}
	clauses, err := eijEnc.TransClauseList()
	if err != nil {
		return nil, err
	}
	s.sdEnc, s.eijEnc = sdEnc, eijEnc
	s.encodeStats.SDStats = sdEnc.Stats()
	s.encodeStats.BoolNodes = bb.NumNodes()
	s.encodeStats.EIJStats = eijEnc.Stats()

	// CNF: validity of F[γ] ⟺ UNSAT(F_trans ∧ ¬F_bvar ∧ γ).
	solver := sat.New()
	solver.ConflictBudget = opts.MaxConflicts
	cnf := assertQuery(solver, bb, bvar, clauses)
	s.solver = solver
	s.cnf = cnf
	s.encodeStats.CNFClauses = solver.Stats().Clauses
	s.encodeTime = time.Since(start)
	s.encodeStats.EncodeTime = s.encodeTime

	// Post-encoding resource budgets, mirroring DecideCtx.
	if opts.MaxCNFClauses > 0 && solver.Stats().Clauses > opts.MaxCNFClauses {
		return nil, fmt.Errorf("%w: %d clauses > limit %d",
			ErrClauseBudget, solver.Stats().Clauses, opts.MaxCNFClauses)
	}
	if opts.MaxMemoryEstimate > 0 {
		if est := estimateMemory(s.encodeStats.BoolNodes, solver.Stats()); est > opts.MaxMemoryEstimate {
			return nil, fmt.Errorf("%w: ~%d bytes > limit %d",
				ErrMemoryBudget, est, opts.MaxMemoryEstimate)
		}
	}
	return s, nil
}

// HasGuard reports whether the named symbolic Boolean constant is present in
// the encoded query. A guard the encoding simplified away (the formula's
// truth provably does not depend on it) is absent and DecideAssuming ignores
// assumptions on it — soundly, since the simplifications preserve
// equivalence.
func (s *Session) HasGuard(name string) bool {
	_, ok := s.cnf.VarLits[boolSymVarPrefix+name]
	return ok
}

// Queries returns how many DecideAssuming calls the session has served.
func (s *Session) Queries() int { return s.queries }

// EncodeTime returns the one-time pipeline cost paid by OpenSession.
func (s *Session) EncodeTime() time.Duration { return s.encodeTime }

// Decide answers the unrestricted query (no assumptions).
func (s *Session) Decide(ctx context.Context) *Result {
	return s.DecideAssuming(ctx, nil)
}

// DecideAssuming decides the validity of F with the named symbolic Boolean
// constants fixed to the given values, reusing the session's encoding and
// solver. Names are resolved against the encoded query; assumptions on
// symbols the encoding eliminated are skipped (see HasGuard). The verdict is
// conditional: an Unsat under assumptions leaves the solver warm for the
// next query, with all learnt clauses retained.
func (s *Session) DecideAssuming(ctx context.Context, assume map[string]bool) *Result {
	start := time.Now()
	res := &Result{Stats: s.encodeStats}
	res.Stats.EncodeTime = 0 // paid once by OpenSession, not by this query
	if s.closed {
		res.Status = Error
		res.Err = errors.New("core: session is closed")
		return res
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opts := s.opts
	ctx, cancel := withTimeout(ctx, opts.Timeout)
	defer cancel()
	deadline, _ := ctx.Deadline()

	// Sorted iteration keeps the assumption order (hence the search)
	// deterministic for a given query.
	names := make([]string, 0, len(assume))
	for n := range assume {
		names = append(names, n)
	}
	sort.Strings(names)
	assumps := make([]sat.Lit, 0, len(names))
	for _, n := range names {
		l, ok := s.cnf.VarLits[boolSymVarPrefix+n]
		if !ok {
			continue
		}
		if !assume[n] {
			l = l.Not()
		}
		assumps = append(assumps, l)
	}

	s.queries++
	solver := s.solver
	solver.Deadline = deadline
	solver.Ctx = ctx
	solver.ConflictBudget = opts.MaxConflicts

	var satStatus sat.Status
	if opts.SolverWorkers > 1 {
		satStatus = solver.SolveAssumeParallel(ctx, opts.SolverWorkers, assumps...)
		res.Stats.SATParallel = solver.ParallelStats()
	} else {
		satStatus = solver.SolveAssume(assumps...)
	}
	switch satStatus {
	case sat.Unsat:
		res.Status = Valid
	case sat.Sat:
		res.Status = Invalid
		res.Model = extractModel(solver, s.cnf, s.info, s.sdEnc, s.eijEnc, s.elim)
	default:
		res.Err = SATStopError(solver.StopReason())
		res.Status = StatusOf(res.Err)
	}
	res.Stats.SAT = solver.Stats()
	res.Stats.SATTime = time.Since(start)
	res.Stats.TotalTime = time.Since(start)
	return res
}

// Close releases the session. Further DecideAssuming calls return an Error
// result. Close is idempotent.
func (s *Session) Close() {
	s.closed = true
	s.solver = nil
	s.sdEnc = nil
	s.eijEnc = nil
	s.info = nil
	s.elim = nil
}
