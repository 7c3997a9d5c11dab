// Package core implements the paper's primary contribution: the HYBRID
// SAT-based decision procedure for SUF (§4), together with the end-to-end
// Decide pipeline shared by the pure small-domain (SD) and per-constraint
// (EIJ) methods, and the automatic SEP_THOLD selection of §4.1.
//
// The pipeline for a validity query F:
//
//  1. eliminate uninterpreted function/predicate applications with
//     positive-equality tracking (package funcelim) → separation formula;
//  2. analyze: normalize ground terms, build symbolic-constant classes,
//     domain sizes and SepCnt (package sep);
//  3. encode each class with EIJ if SepCnt(V_i) ≤ SEP_THOLD, else with SD —
//     classes are independent, so the two encoders coexist in one Boolean
//     formula (packages smalldomain, perconstraint);
//  4. hand F_trans ∧ ¬F_bvar to the CDCL SAT solver (package sat):
//     unsatisfiable ⟺ F is valid.
//
// The pipeline is a cancellable, budgeted service core: DecideCtx threads a
// context through every stage (both encoders, transitivity generation and
// the SAT search poll it), explicit resource budgets bound translation and
// search, and every failure mode is classified into the Status taxonomy of
// status.go. Under the Hybrid method, routing also counts each EIJ class's
// transitivity clauses exactly before encoding and re-routes a class that
// does not fit the budget to the SD encoder — a robustness-driven extension
// of SEP_THOLD routing — instead of letting F_trans blow up.
package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"sufsat/internal/boolexpr"
	"sufsat/internal/enc"
	"sufsat/internal/funcelim"
	"sufsat/internal/obs"
	"sufsat/internal/perconstraint"
	"sufsat/internal/sat"
	"sufsat/internal/sep"
	"sufsat/internal/smalldomain"
	"sufsat/internal/stats"
	"sufsat/internal/suf"
)

// Method selects the Boolean encoding.
type Method int

// Encoding methods.
const (
	// Hybrid is the paper's contribution: per-class choice between EIJ and
	// SD driven by SepCnt(V_i) vs SEP_THOLD.
	Hybrid Method = iota
	// SD is pure small-domain (finite instantiation) encoding.
	SD
	// EIJ is pure per-constraint encoding.
	EIJ
)

func (m Method) String() string {
	switch m {
	case Hybrid:
		return "HYBRID"
	case SD:
		return "SD"
	case EIJ:
		return "EIJ"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// DefaultSepThreshold is the default SEP_THOLD. The paper derives 700 for
// its implementation and benchmarks by minimum-variance clustering of
// normalized EIJ run-times over a 16-formula sample (§4.1). Running the same
// procedure on this implementation's benchmark suite
// (cmd/experiments -fig threshold) yields 200, which is the default here;
// the difference reflects benchmark scale, not a different procedure.
const DefaultSepThreshold = 200

// DefaultTransBudget is the transitivity-clause budget Hybrid routing
// probes classes against when MaxTransClauses is unset (see route). SepCnt
// cannot see the transitivity blow-up of classes with few predicates but
// wide offset ranges — the invariant-checking formulas of the paper's
// Figure 5 — so the budget is the safety net SEP_THOLD lacks. Derivation on
// this implementation's suite, with exact per-formula counts of the classes
// SEP_THOLD leaves on EIJ (perconstraint.CountTrans, default order): the
// formulas fall into two groups. Where EIJ beats pure SD (dlx, cvt, lsu,
// elf, …; e.g. dlx-6 and cvt-7 run ~2× faster than SD) F_trans is at most
// 89,741 clauses (dlx-6; its class 0 alone has 86,362). Where SD wins by
// 20× or more (ooo.inv-2..10) some class needs at least 253,094
// (ooo.inv-2, class 1) and the largest exceed 5M. As §4.1 does for
// SEP_THOLD, the default is the round number just above the fast group's
// largest count: the smallest multiple of 100,000 greater than 89,741.
// Only ooo.inv-2..10 classes are demoted by it.
const DefaultTransBudget = 100_000

// Options configures Decide.
type Options struct {
	// Method selects the encoding; the zero value is Hybrid.
	Method Method
	// SepThreshold is SEP_THOLD; 0 means DefaultSepThreshold.
	SepThreshold int
	// MaxTransClauses caps EIJ transitivity-constraint generation. Under the
	// Hybrid method with degradation on (NoDegrade unset), routing counts
	// each class's transitivity clauses exactly before encoding and sends a
	// class that does not fit what is left of the budget to the SD encoder;
	// there 0 means DefaultTransBudget. Otherwise 0 means unlimited, and
	// exhausting the cap fails the call with ResourceOut (pure EIJ, or
	// Hybrid with NoDegrade).
	MaxTransClauses int
	// MaxCNFClauses caps the problem clauses handed to the SAT solver
	// (0 = unlimited); exceeding it returns ResourceOut with ErrClauseBudget.
	MaxCNFClauses int
	// MaxConflicts caps SAT conflicts (0 = unlimited); exhausting it returns
	// ResourceOut with ErrConflictBudget.
	MaxConflicts int64
	// MaxMemoryEstimate caps the estimated resident size in bytes of the
	// Boolean encoding plus solver state (0 = unlimited); exceeding it
	// returns ResourceOut with ErrMemoryBudget.
	MaxMemoryEstimate int64
	// SolverWorkers selects the number of diversified CDCL workers racing on
	// the encoded SAT query with clause sharing (sat.SolveParallel); 0 or 1
	// means the sequential solver. With more than one worker the SAT search
	// is generally not deterministic run to run (which worker wins depends on
	// scheduling), though the verdict itself never varies.
	SolverWorkers int
	// NoDegrade disables the Hybrid per-class EIJ→SD demotion, so classes
	// route on SEP_THOLD alone, as in the paper, and an exhausted
	// MaxTransClauses aborts the call like the paper's translation-stage
	// timeout (the experiment harness sets this to preserve the measured
	// protocol).
	NoDegrade bool
	// Ackermann selects Ackermann's function elimination instead of the
	// nested-ITE scheme — the positive-equality ablation.
	Ackermann bool
	// DumpCNF, when non-nil, receives the encoded query (F_trans ∧ ¬F_bvar)
	// in DIMACS format before the SAT search starts, for use with external
	// solvers.
	DumpCNF io.Writer
	// Timeout bounds the total wall-clock time (0 = none), applied as a
	// deadline on the DecideCtx context.
	Timeout time.Duration
	// Hook, when non-nil, is called at entry to each named pipeline stage
	// (see Stages); a non-nil return aborts the run with the error's
	// classified status. Used by the fault-injection harness and service
	// instrumentation.
	Hook StageHook
	// Telemetry, when non-nil, records phase-scoped spans for every pipeline
	// stage, samples per-worker solver progress during the SAT search, and
	// makes DecideCtx attach a unified obs.Snapshot to the Result on every
	// exit path. nil disables all of it at the cost of an untaken branch per
	// stage (the nil-sink fast path).
	Telemetry *obs.Recorder
}

// Stats aggregates pipeline measurements — the quantities the paper's
// figures report.
type Stats struct {
	SUFNodes  int // DAG size of the input formula
	SepPreds  int // total distinct separation predicates (Fig. 3 x-axis)
	Classes   int // number of symbolic-constant classes
	SDClasses int // classes encoded with SD
	// DemotedClasses counts classes Hybrid routing moved from EIJ to SD
	// because their transitivity-clause count did not fit the budget
	// (included in SDClasses).
	DemotedClasses int
	PFraction      float64

	BoolNodes  int // Boolean DAG size
	CNFClauses int // problem clauses given to the SAT solver (Fig. 2)

	EncodeTime time.Duration
	SATTime    time.Duration
	TotalTime  time.Duration

	SAT sat.Stats // conflict clauses, decisions, propagations (Fig. 2)
	// SATParallel is the per-worker breakdown when Options.SolverWorkers > 1
	// (zero value otherwise).
	SATParallel sat.ParallelStats

	SDStats  smalldomain.Stats
	EIJStats perconstraint.Stats
}

// Result is the outcome of Decide.
type Result struct {
	Status Status
	// Err classifies any non-definitive Status with a typed sentinel
	// (ErrCanceled, ErrDeadline, ErrTransBudget, ErrClauseBudget,
	// ErrConflictBudget, ErrMemoryBudget, a *PanicError, …); wrapping errors
	// may add detail, so test with errors.Is.
	Err   error
	Stats Stats
	// Model is the reconstructed falsifying interpretation when Status ==
	// Invalid (nil otherwise).
	Model *Model
	// Telemetry is the unified snapshot of the run, present (on every exit
	// path, failures included) iff Options.Telemetry was set.
	Telemetry *obs.Snapshot
}

// Decide checks validity of the SUF formula f (built in b) under a
// background context; Options.Timeout still bounds the run.
func Decide(f *suf.BoolExpr, b *suf.Builder, opts Options) *Result {
	return DecideCtx(context.Background(), f, b, opts)
}

// withTimeout derives the run context: a positive Options.Timeout becomes
// a deadline on ctx. The returned cancel must be called.
func withTimeout(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return ctx, func() {}
}

// DecideCtx checks validity of the SUF formula f (built in b). Cancelling
// ctx aborts the run with a Canceled status within a bounded number of
// pipeline steps; a ctx deadline (or Options.Timeout) yields Timeout.
func DecideCtx(ctx context.Context, f *suf.BoolExpr, b *suf.Builder, opts Options) *Result {
	start := time.Now()
	res := &Result{}
	res.Stats.SUFNodes = suf.CountNodes(f)
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := withTimeout(ctx, opts.Timeout)
	defer cancel()
	deadline, _ := ctx.Deadline()
	threshold := opts.SepThreshold
	if threshold == 0 {
		threshold = DefaultSepThreshold
	}

	rec := opts.Telemetry

	// fail classifies err, stamps the timings and returns res. encodeTime
	// marks failures during (or before the end of) the encoding phase. Every
	// exit path — this one included — carries the telemetry snapshot, so
	// failed runs are diagnosable from whatever was measured before the stop.
	fail := func(err error, encoding bool) *Result {
		res.Status = StatusOf(err)
		res.Err = err
		if encoding {
			res.Stats.EncodeTime = time.Since(start)
		}
		res.Stats.TotalTime = time.Since(start)
		res.Telemetry = res.snapshot(rec, opts.Method)
		return res
	}
	// checkpoint runs the stage hook, then polls the context, so a hook that
	// cancels the context aborts the run right here.
	checkpoint := func(stage string) error {
		if opts.Hook != nil {
			if err := opts.Hook(stage); err != nil {
				return err
			}
		}
		return ctx.Err()
	}

	// 1. Function and predicate elimination.
	if err := checkpoint(StageFuncElim); err != nil {
		return fail(err, true)
	}
	feSpan := rec.StartSpan(StageFuncElim).AttrBool("ackermann", opts.Ackermann)
	var elim *funcelim.Result
	if opts.Ackermann {
		elim = funcelim.EliminateAckermann(f, b)
	} else {
		elim = funcelim.Eliminate(f, b)
	}
	res.Stats.PFraction = elim.PFuncFraction
	feSpan.AttrFloat("p_func_fraction", elim.PFuncFraction).
		AttrInt("func_apps", elim.NumApps).AttrInt("p_func_apps", elim.NumPApps)
	feSpan.End()

	// 2. Separation analysis.
	if err := checkpoint(StageAnalyze); err != nil {
		return fail(err, true)
	}
	anSpan := rec.StartSpan(StageAnalyze)
	info, err := sep.Analyze(elim.Formula, b, elim.PConsts)
	if err != nil {
		return fail(err, true)
	}
	res.Stats.SepPreds = info.NumSepPreds
	res.Stats.Classes = len(info.Classes)
	anSpan.AttrInt("sep_preds", info.NumSepPreds).AttrInt("classes", len(info.Classes)).
		AttrInt("sep_thold", threshold)
	anSpan.End()

	// 3. Routing and Boolean encoding. Under Hybrid with degradation on,
	// route probes transitivity cost exactly, so generation stays within
	// the budget and no class is re-encoded.
	if err := checkpoint(StageEncode); err != nil {
		return fail(err, true)
	}
	encSpan := rec.StartSpan(StageEncode)
	rt, err := route(ctx, info, opts, threshold)
	if err != nil {
		return fail(err, true)
	}
	res.Stats.SDClasses = len(rt.sd)
	res.Stats.DemotedClasses = rt.demoted
	bb := boolexpr.NewBuilder()
	var timing *encTiming
	if rec != nil {
		timing = new(encTiming)
	}
	bvar, sdEnc, eijEnc, err := encode(ctx, info, b, bb, opts, rt.sd, timing)
	if err != nil {
		return fail(err, true)
	}
	res.Stats.SDStats = sdEnc.Stats()
	encSpan.AttrInt("sd_classes", res.Stats.SDClasses).
		AttrInt("eij_classes", res.Stats.Classes-res.Stats.SDClasses).
		AttrInt("demoted_classes", res.Stats.DemotedClasses).
		AttrInt("bool_nodes", bb.NumNodes())
	if rt.probed {
		encSpan.AttrFloat("probe_ms", float64(rt.probeNS)/1e6).
			AttrInt("probe_trans_clauses", rt.transClauses)
	}
	if timing != nil {
		encSpan.AttrFloat("sd_ms", float64(timing.sdNS)/1e6).
			AttrFloat("eij_ms", float64(timing.eijNS)/1e6)
	}
	encSpan.End()
	if err := checkpoint(StageTrans); err != nil {
		return fail(err, true)
	}
	transSpan := rec.StartSpan(StageTrans)
	clauses, err := eijEnc.TransClauseList()
	if err != nil {
		transSpan.AttrBool("budget_exhausted", true).End()
		return fail(err, true)
	}
	transSpan.AttrInt("trans_clauses", len(clauses)).
		AttrInt("trans_constraints", eijEnc.Stats().TransConstraints)
	transSpan.End()
	// Validity of F ⟺ unsatisfiability of F_trans ∧ ¬F_bvar. ¬F_bvar goes
	// through Tseitin; F_trans is asserted directly in clausal form.
	res.Stats.BoolNodes = bb.NumNodes()
	res.Stats.EIJStats = eijEnc.Stats()

	cnfSpan := rec.StartSpan("cnf")
	solver := sat.New()
	solver.Deadline = deadline
	solver.Ctx = ctx
	solver.ConflictBudget = opts.MaxConflicts
	solver.Probes = rec.Probes()
	cnf := assertQuery(solver, bb, bvar, clauses)
	res.Stats.EncodeTime = time.Since(start)
	res.Stats.CNFClauses = solver.Stats().Clauses
	cnfSpan.AttrInt("vars", solver.Stats().Vars).AttrInt("cnf_clauses", solver.Stats().Clauses)
	cnfSpan.End()

	// Post-encoding resource budgets.
	if opts.MaxCNFClauses > 0 && solver.Stats().Clauses > opts.MaxCNFClauses {
		return fail(fmt.Errorf("%w: %d clauses > limit %d",
			ErrClauseBudget, solver.Stats().Clauses, opts.MaxCNFClauses), false)
	}
	if opts.MaxMemoryEstimate > 0 {
		if est := estimateMemory(res.Stats.BoolNodes, solver.Stats()); est > opts.MaxMemoryEstimate {
			return fail(fmt.Errorf("%w: ~%d bytes > limit %d",
				ErrMemoryBudget, est, opts.MaxMemoryEstimate), false)
		}
	}

	if opts.DumpCNF != nil {
		if err := checkpoint(StageDump); err != nil {
			return fail(err, false)
		}
		dumpSpan := rec.StartSpan(StageDump)
		if err := solver.WriteDIMACS(opts.DumpCNF); err != nil {
			return fail(fmt.Errorf("core: DIMACS dump: %w", err), false)
		}
		dumpSpan.End()
	}

	// 4. SAT. While the search runs, the telemetry collector goroutine
	// samples every worker's lock-free progress slot at the recorder's
	// sampling interval.
	if err := checkpoint(StageSAT); err != nil {
		return fail(err, false)
	}
	satSpan := rec.StartSpan(StageSAT).AttrInt("workers", max(opts.SolverWorkers, 1))
	stopSampling := rec.StartSampling()
	satStart := time.Now()
	var satStatus sat.Status
	if opts.SolverWorkers > 1 {
		satStatus = solver.SolveParallel(ctx, opts.SolverWorkers)
		res.Stats.SATParallel = solver.ParallelStats()
	} else {
		satStatus = solver.Solve()
	}
	stopSampling()
	switch satStatus {
	case sat.Unsat:
		res.Status = Valid
	case sat.Sat:
		res.Status = Invalid
		res.Model = extractModel(solver, cnf, info, sdEnc, eijEnc, elim)
	default:
		res.Err = SATStopError(solver.StopReason())
		res.Status = StatusOf(res.Err)
	}
	res.Stats.SAT = solver.Stats()
	res.Stats.SATTime = time.Since(satStart)
	res.Stats.TotalTime = time.Since(start)
	satSpan.AttrStr("verdict", satStatus.String()).
		AttrInt64("conflicts", res.Stats.SAT.Conflicts).
		AttrInt64("conflict_clauses", res.Stats.SAT.ConflictClauses)
	satSpan.End()
	res.Telemetry = res.snapshot(rec, opts.Method)
	return res
}

// estimateMemory is a coarse resident-size estimate in bytes of the encoded
// problem: boolexpr DAG nodes, solver clauses (headers plus literals) and
// per-variable solver state. It deliberately over-approximates per-item cost
// so the budget errs on the safe side.
func estimateMemory(boolNodes int, st sat.Stats) int64 {
	return int64(boolNodes)*96 + int64(st.Clauses)*112 + int64(st.Vars)*160
}

// encTiming accumulates per-encoder wall-clock during one encode pass, so
// the encode span can attribute its duration to the SD and EIJ encoders
// (the sd_ms/eij_ms attributes the metrics layer turns into the
// encode_sd/encode_eij phases). Only allocated when telemetry is on; the
// walker is single-threaded, so plain int64 accumulation suffices.
type encTiming struct{ sdNS, eijNS int64 }

// timedAtom wraps an atom encoder, accumulating its wall-clock into acc.
func timedAtom(f func(*suf.BoolExpr) (*boolexpr.Node, error), acc *int64) func(*suf.BoolExpr) (*boolexpr.Node, error) {
	return func(a *suf.BoolExpr) (*boolexpr.Node, error) {
		t0 := time.Now()
		n, err := f(a)
		*acc += time.Since(t0).Nanoseconds()
		return n, err
	}
}

// assertQuery loads F_trans ∧ ¬F_bvar into solver: ¬F_bvar through Tseitin,
// the transitivity clauses directly in clausal form. Those clauses mention
// only predicate variables (VarLits), never Tseitin gates, as AssertTrue's
// polarity encoding requires.
func assertQuery(solver *sat.Solver, bb *boolexpr.Builder, bvar *boolexpr.Node, clauses []perconstraint.TransClause) boolexpr.CNF {
	cnf := boolexpr.AssertTrue(bb.Not(bvar), solver)
	// byID caches each variable's literal (plus one; zero is unset) by node
	// id, so the name lookup runs once per variable, not once per literal.
	byID := make([]sat.Lit, bb.NumNodes())
	varLit := func(n *boolexpr.Node) sat.Lit {
		if l := byID[n.ID()]; l != 0 {
			return l - 1
		}
		l, ok := cnf.VarLits[n.Name()]
		if !ok {
			l = sat.PosLit(solver.NewVar())
			cnf.VarLits[n.Name()] = l
		}
		byID[n.ID()] = l + 1
		return l
	}
	lits := make([]sat.Lit, 0, 3)
	for _, cl := range clauses {
		lits = lits[:0]
		for _, tl := range cl {
			l := varLit(tl.Var)
			if tl.Neg {
				l = l.Not()
			}
			lits = append(lits, l)
		}
		solver.AddClause(lits...)
	}
	return cnf
}

// routing is the per-class encoder choice of one run.
type routing struct {
	// sd holds the classes encoded with SD.
	sd map[*sep.Class]bool
	// demoted counts the classes the transitivity probe moved to SD.
	demoted int
	// probed reports that the probe ran; transClauses is then the exact
	// F_trans size of the classes left on EIJ, and probeNS its cost.
	probed       bool
	transClauses int
	probeNS      int64
}

// route picks each class's encoder. SD and EIJ put every class on their own
// encoder. Hybrid sends a class to SD when SepCnt(V_i) > SEP_THOLD (§4 step
// 5); with degradation on (NoDegrade unset) it then probes every remaining
// class in class-ID order, counting its transitivity clauses exactly
// (perconstraint.CountTrans) against what is left of the shared budget —
// MaxTransClauses, or DefaultTransBudget when unset. A class whose count
// does not fit is demoted to SD, so generation over the classes left on EIJ
// cannot exhaust the budget.
func route(ctx context.Context, info *sep.Info, opts Options, threshold int) (routing, error) {
	rt := routing{sd: make(map[*sep.Class]bool)}
	switch opts.Method {
	case SD:
		for _, cl := range info.Classes {
			rt.sd[cl] = true
		}
		return rt, nil
	case EIJ:
		return rt, nil
	}
	for _, cl := range info.Classes {
		if cl.SepCnt > threshold {
			rt.sd[cl] = true
		}
	}
	if opts.NoDegrade {
		return rt, nil
	}
	start := time.Now()
	budget := opts.MaxTransClauses
	if budget <= 0 {
		budget = DefaultTransBudget
	}
	for _, cl := range info.Classes {
		if rt.sd[cl] {
			continue
		}
		// The encoder generates with the default order; probe the same one.
		n, over, err := perconstraint.CountTrans(ctx, cl.Preds, perconstraint.MinDegree, budget)
		if err != nil {
			return rt, err
		}
		if over {
			rt.sd[cl] = true
			rt.demoted++
			continue
		}
		budget -= n
		rt.transClauses += n
	}
	rt.probed = true
	rt.probeNS = time.Since(start).Nanoseconds()
	return rt, nil
}

// encode builds F_bvar with the selected method and returns the EIJ encoder
// whose pending transitivity constraints the caller must assert. For Hybrid,
// atoms of the classes in sd go to SD and all others to EIJ (class-less
// atoms — only V_p or single-constant comparisons — go to EIJ, which folds
// them to constants).
func encode(ctx context.Context, info *sep.Info, b *suf.Builder, bb *boolexpr.Builder, opts Options,
	sd map[*sep.Class]bool, timing *encTiming) (bvar *boolexpr.Node, sdEnc *smalldomain.Encoder, eij *perconstraint.Encoder, err error) {

	sdEnc = smalldomain.NewEncoder(info, b, bb)
	sdEnc.Ctx = ctx
	eijEnc := perconstraint.NewEncoder(info, b, bb)
	eijEnc.MaxTrans = opts.MaxTransClauses
	eijEnc.Ctx = ctx

	encodeSD, encodeEIJ := sdEnc.EncodeAtom, eijEnc.EncodeAtom
	if timing != nil {
		encodeSD = timedAtom(encodeSD, &timing.sdNS)
		encodeEIJ = timedAtom(encodeEIJ, &timing.eijNS)
	}
	var atom func(a *suf.BoolExpr) (*boolexpr.Node, error)
	switch opts.Method {
	case SD:
		atom = encodeSD
	case EIJ:
		atom = encodeEIJ
	default:
		atom = func(a *suf.BoolExpr) (*boolexpr.Node, error) {
			if cl := atomClass(info, a); cl != nil && sd[cl] {
				return encodeSD(a)
			}
			return encodeEIJ(a)
		}
	}
	w := enc.NewWalker(bb, atom)
	sdEnc.SetWalker(w)
	eijEnc.SetWalker(w)

	bvar, err = w.Encode(info.Formula)
	if err != nil {
		return nil, nil, nil, err
	}
	return bvar, sdEnc, eijEnc, nil
}

// atomClass returns the V_g class the atom's constants belong to (nil when
// the atom touches no general constants). All general leaves of one atom
// share a class by construction of the classes.
func atomClass(info *sep.Info, a *suf.BoolExpr) *sep.Class {
	t1, t2 := a.Terms()
	for _, t := range [2]*suf.IntExpr{t1, t2} {
		for _, g := range sep.Leaves(t) {
			if cl := info.ClassOf[g.Var]; cl != nil {
				return cl
			}
		}
	}
	return nil
}

// Sample is one benchmark's observation for threshold selection: its number
// of separation predicates and the EIJ run-time normalized by formula size
// (seconds per kilonode).
type Sample struct {
	SepPreds int
	NormTime float64
}

// SelectThreshold implements §4.1: sort the normalized EIJ run-times,
// cluster them into two groups with the minimum-variance split, and return
// the smallest multiple of 100 greater than n_k, the separation-predicate
// count of the last benchmark in the fast cluster.
func SelectThreshold(samples []Sample) int {
	if len(samples) < 2 {
		return DefaultSepThreshold
	}
	sorted := make([]Sample, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].NormTime < sorted[j].NormTime })
	times := make([]float64, len(sorted))
	for i, s := range sorted {
		times[i] = s.NormTime
	}
	k := stats.MinVarianceSplit(times)
	nk := sorted[k-1].SepPreds
	return stats.RoundUpToMultiple(nk, 100)
}
