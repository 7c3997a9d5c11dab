// Package sufsat is a SAT-based decision procedure for SUF — the logic of
// Separation predicates and Uninterpreted Functions — implementing the
// hybrid small-domain / per-constraint encoding of Seshia, Lahiri and
// Bryant, "A Hybrid SAT-Based Decision Procedure for Separation Logic with
// Uninterpreted Functions" (DAC 2003).
//
// SUF formulas combine Boolean connectives, equalities and inequalities over
// integer terms built from uninterpreted functions, symbolic constants,
// succ (+1), pred (−1) and ITE; they arise in processor verification,
// software model checking and translation validation. Decide checks
// validity:
//
//	b := sufsat.NewBuilder()
//	x, y := b.Int("x"), b.Int("y")
//	f := b.Implies(b.Eq(x, y), b.Eq(b.Fn("f", x), b.Fn("f", y)))
//	res := sufsat.Decide(f, sufsat.Options{})
//	// res.Status == sufsat.Valid
//
// Six decision methods are available: the paper's HYBRID encoding
// (default), the pure small-domain (SD) and per-constraint (EIJ) eager
// encodings it combines, two baselines from the paper's evaluation — a lazy
// CVC-style procedure and an SVC-style case-splitting procedure — and a
// portfolio mode racing the three eager encodings.
package sufsat

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"sufsat/internal/core"
	"sufsat/internal/lazy"
	"sufsat/internal/obs"
	"sufsat/internal/smtlib"
	"sufsat/internal/suf"
	"sufsat/internal/svc"
)

// Telemetry is a recorder of phase spans and solver progress samples. Create
// one with NewTelemetry, set it on Options.Telemetry, and read the unified
// snapshot from Result.Telemetry after the call; the recorder itself exports
// Chrome trace-event JSON (WriteChromeTrace) and can be published to the live
// debug endpoint (see internal/obs). A nil Telemetry disables all recording
// at negligible cost.
type Telemetry = obs.Recorder

// TelemetrySnapshot is the unified, JSON-serializable report of one decision
// run: pipeline counters, encoding and solver statistics, per-worker
// breakdowns, phase spans and progress samples.
type TelemetrySnapshot = obs.Snapshot

// NewTelemetry returns an empty telemetry recorder.
func NewTelemetry() *Telemetry { return obs.NewRecorder() }

// Term is an integer-valued SUF expression. Terms are immutable and bound to
// the Builder that created them.
type Term struct {
	t *suf.IntExpr
	b *Builder
}

// Formula is a Boolean-valued SUF expression. Formulas are immutable and
// bound to the Builder that created them.
type Formula struct {
	f *suf.BoolExpr
	b *Builder
}

// Builder creates SUF expressions with hash-consing: structurally equal
// expressions from one Builder are identical. A Builder is not safe for
// concurrent use.
type Builder struct {
	sb *suf.Builder
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{sb: suf.NewBuilder()} }

func (b *Builder) term(t *suf.IntExpr) Term     { return Term{t, b} }
func (b *Builder) form(f *suf.BoolExpr) Formula { return Formula{f, b} }

func (b *Builder) checkT(ts ...Term) {
	for _, t := range ts {
		if t.b != b {
			panic("sufsat: term from a different Builder")
		}
	}
}

func (b *Builder) checkF(fs ...Formula) {
	for _, f := range fs {
		if f.b != b {
			panic("sufsat: formula from a different Builder")
		}
	}
}

// Int returns the integer symbolic constant named name.
func (b *Builder) Int(name string) Term { return b.term(b.sb.Sym(name)) }

// Fn applies the uninterpreted function symbol name to args.
func (b *Builder) Fn(name string, args ...Term) Term {
	b.checkT(args...)
	ts := make([]*suf.IntExpr, len(args))
	for i, a := range args {
		ts[i] = a.t
	}
	return b.term(b.sb.Fn(name, ts...))
}

// Pred applies the uninterpreted predicate symbol name to args.
func (b *Builder) Pred(name string, args ...Term) Formula {
	b.checkT(args...)
	ts := make([]*suf.IntExpr, len(args))
	for i, a := range args {
		ts[i] = a.t
	}
	return b.form(b.sb.PredApp(name, ts...))
}

// Bool returns the symbolic Boolean constant named name.
func (b *Builder) Bool(name string) Formula { return b.form(b.sb.BoolSym(name)) }

// True returns the Boolean constant true.
func (b *Builder) True() Formula { return b.form(b.sb.True()) }

// False returns the Boolean constant false.
func (b *Builder) False() Formula { return b.form(b.sb.False()) }

// Succ returns t+1.
func (t Term) Succ() Term { return t.b.term(t.b.sb.Succ(t.t)) }

// Pred returns t−1.
func (t Term) Pred() Term { return t.b.term(t.b.sb.Pred(t.t)) }

// Plus returns t+k (k may be negative).
func (t Term) Plus(k int) Term { return t.b.term(t.b.sb.Offset(t.t, k)) }

// String renders the term in s-expression syntax.
func (t Term) String() string { return t.t.String() }

// Ite returns if cond then a else b.
func (b *Builder) Ite(cond Formula, a, e Term) Term {
	b.checkF(cond)
	b.checkT(a, e)
	return b.term(b.sb.Ite(cond.f, a.t, e.t))
}

// Eq returns a = e.
func (b *Builder) Eq(a, e Term) Formula { b.checkT(a, e); return b.form(b.sb.Eq(a.t, e.t)) }

// Lt returns a < e.
func (b *Builder) Lt(a, e Term) Formula { b.checkT(a, e); return b.form(b.sb.Lt(a.t, e.t)) }

// Le returns a ≤ e.
func (b *Builder) Le(a, e Term) Formula { b.checkT(a, e); return b.form(b.sb.Le(a.t, e.t)) }

// Gt returns a > e.
func (b *Builder) Gt(a, e Term) Formula { b.checkT(a, e); return b.form(b.sb.Gt(a.t, e.t)) }

// Ge returns a ≥ e.
func (b *Builder) Ge(a, e Term) Formula { b.checkT(a, e); return b.form(b.sb.Ge(a.t, e.t)) }

// Not returns ¬f.
func (f Formula) Not() Formula { return f.b.form(f.b.sb.Not(f.f)) }

// And returns f ∧ g.
func (f Formula) And(g Formula) Formula { f.b.checkF(g); return f.b.form(f.b.sb.And(f.f, g.f)) }

// Or returns f ∨ g.
func (f Formula) Or(g Formula) Formula { f.b.checkF(g); return f.b.form(f.b.sb.Or(f.f, g.f)) }

// Implies returns f → g.
func (f Formula) Implies(g Formula) Formula {
	f.b.checkF(g)
	return f.b.form(f.b.sb.Implies(f.f, g.f))
}

// Iff returns f ↔ g.
func (f Formula) Iff(g Formula) Formula { f.b.checkF(g); return f.b.form(f.b.sb.Iff(f.f, g.f)) }

// And returns the conjunction of fs (true for the empty list).
func (b *Builder) And(fs ...Formula) Formula {
	b.checkF(fs...)
	out := b.sb.True()
	for _, f := range fs {
		out = b.sb.And(out, f.f)
	}
	return b.form(out)
}

// Or returns the disjunction of fs (false for the empty list).
func (b *Builder) Or(fs ...Formula) Formula {
	b.checkF(fs...)
	out := b.sb.False()
	for _, f := range fs {
		out = b.sb.Or(out, f.f)
	}
	return b.form(out)
}

// Implies returns f → g.
func (b *Builder) Implies(f, g Formula) Formula { return f.Implies(g) }

// Not returns ¬f.
func (b *Builder) Not(f Formula) Formula { return f.Not() }

// String renders the formula in s-expression syntax, re-parsable by Parse.
func (f Formula) String() string { return f.f.String() }

// NumNodes returns the formula's DAG size (the paper's size measure).
func (f Formula) NumNodes() int { return suf.CountNodes(f.f) }

// Parse reads a formula in s-expression syntax into b. See internal/suf for
// the grammar; the short version:
//
//	(and (= (f x) (f y)) (< x (+ y 3)) (=> b1 (p x)))
func (b *Builder) Parse(src string) (Formula, error) {
	f, err := suf.Parse(src, b.sb)
	if err != nil {
		return Formula{}, err
	}
	return b.form(f), nil
}

// MustParse is Parse, panicking on error.
func (b *Builder) MustParse(src string) Formula {
	f, err := b.Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

// ParseSMTLIB reads an SMT-LIB v2 script in the QF_IDL / QF_UFIDL fragments
// and returns the conjunction of its assertions. SMT-LIB's check-sat asks
// for satisfiability: CheckSat wraps the validity check accordingly.
func (b *Builder) ParseSMTLIB(src string) (Formula, error) {
	script, err := smtlib.ParseScript(src, b.sb)
	if err != nil {
		return Formula{}, err
	}
	return b.form(script.Formula()), nil
}

// CheckSat decides satisfiability of f: sat(f) ⟺ ¬ valid(¬f). The returned
// counterexample, when satisfiable, is a model of f.
func CheckSat(f Formula, opts Options) (sat bool, model *Counterexample, err error) {
	return CheckSatContext(context.Background(), f, opts)
}

// CheckSatContext is CheckSat under a caller-supplied context; cancelling ctx
// aborts the check with ErrCanceled.
func CheckSatContext(ctx context.Context, f Formula, opts Options) (sat bool, model *Counterexample, err error) {
	res := DecideContext(ctx, f.Not(), opts)
	switch res.Status {
	case Invalid:
		return true, res.Counterexample, nil
	case Valid:
		return false, nil, nil
	}
	return false, nil, res.Err
}

// Method selects the decision procedure.
type Method int

// Decision methods.
const (
	// MethodHybrid is the paper's contribution: per-class mix of the
	// small-domain and per-constraint encodings (the default).
	MethodHybrid Method = iota
	// MethodSD is the pure small-domain (finite instantiation) encoding.
	MethodSD
	// MethodEIJ is the pure per-constraint encoding with eager transitivity
	// constraints.
	MethodEIJ
	// MethodLazy is the CVC-style lazy procedure: Boolean abstraction
	// refined by theory conflict clauses.
	MethodLazy
	// MethodSVC is the SVC-style recursive case-splitting procedure.
	MethodSVC
	// MethodPortfolio runs the three eager encodings concurrently and keeps
	// the first definitive answer — the robustness alternative to hybrid
	// routing, at up to 3× the work.
	MethodPortfolio
)

func (m Method) String() string {
	switch m {
	case MethodHybrid:
		return "HYBRID"
	case MethodSD:
		return "SD"
	case MethodEIJ:
		return "EIJ"
	case MethodLazy:
		return "LAZY"
	case MethodSVC:
		return "SVC"
	case MethodPortfolio:
		return "PORTFOLIO"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Status is a decision outcome. Valid and Invalid are definitive verdicts
// (Status.Definitive reports true); the others classify why no verdict was
// reached, with Result.Err carrying the matching typed sentinel.
type Status = core.Status

// Decision outcomes.
const (
	Valid   = core.Valid
	Invalid = core.Invalid
	// Timeout: a wall-clock deadline expired (Options.Timeout or a context
	// deadline).
	Timeout = core.Timeout
	// Canceled: the caller's context was cancelled mid-run.
	Canceled = core.Canceled
	// ResourceOut: an explicit resource budget was exhausted (transitivity,
	// CNF clauses, conflicts or memory estimate).
	ResourceOut = core.ResourceOut
	// Error: an internal failure — a contained panic, an I/O error from
	// DumpCNF, an analysis error, or an unknown method.
	Error = core.Error
)

// Typed sentinels carried in Result.Err for non-definitive statuses; wrapping
// errors may add detail, so test with errors.Is.
var (
	ErrCanceled       = core.ErrCanceled
	ErrDeadline       = core.ErrDeadline
	ErrTransBudget    = core.ErrTransBudget
	ErrClauseBudget   = core.ErrClauseBudget
	ErrConflictBudget = core.ErrConflictBudget
	ErrMemoryBudget   = core.ErrMemoryBudget
)

// PanicError is the Result.Err of an Error status produced by the facade's
// panic containment: a panic anywhere in the pipeline is recovered and
// returned with its captured stack instead of crashing the caller.
type PanicError = core.PanicError

// Pipeline stage names passed to Options.Hook, in execution order.
const (
	StageFuncElim = core.StageFuncElim
	StageAnalyze  = core.StageAnalyze
	StageEncode   = core.StageEncode
	StageTrans    = core.StageTrans
	StageDump     = core.StageDump
	StageSAT      = core.StageSAT
)

// Options configures Decide. The zero value uses the hybrid method with the
// calibrated default SEP_THOLD and no resource limits.
type Options struct {
	Method Method
	// SepThreshold is SEP_THOLD for the hybrid method (0 = calibrated
	// default).
	SepThreshold int
	// Timeout bounds total wall-clock time (0 = none); exceeding it reports
	// Timeout. Equivalent to a context deadline on DecideContext.
	Timeout time.Duration
	// MaxTransClauses caps eager transitivity-constraint generation. Under
	// the hybrid method with degradation on (NoDegrade unset), routing counts
	// each class's transitivity clauses exactly before encoding and sends a
	// class that does not fit what is left of the cap to the SD encoder;
	// there 0 means the default budget (core.DefaultTransBudget). Otherwise
	// 0 means none, and exhausting the cap reports ResourceOut (pure EIJ, or
	// hybrid with NoDegrade).
	MaxTransClauses int
	// MaxCNFClauses caps the problem clauses handed to the SAT solver
	// (0 = none); exceeding it reports ResourceOut with ErrClauseBudget.
	MaxCNFClauses int
	// MaxConflicts caps SAT conflicts (0 = none); exhausting it reports
	// ResourceOut with ErrConflictBudget.
	MaxConflicts int64
	// MaxMemoryEstimate caps the estimated resident size in bytes of the
	// Boolean encoding plus solver state (0 = none); exceeding it reports
	// ResourceOut with ErrMemoryBudget.
	MaxMemoryEstimate int64
	// SolverWorkers selects the number of diversified CDCL workers racing on
	// each SAT query with clause sharing (0 or 1 = sequential). All methods
	// honor it: the eager encodings and the portfolio solve their encoded
	// query in parallel, and the lazy method parallelizes every refinement
	// iteration. With more than one worker the run is generally not
	// deterministic (which worker wins depends on scheduling), though the
	// verdict never varies.
	SolverWorkers int
	// NoDegrade disables the hybrid per-class EIJ→SD demotion: classes route
	// on SEP_THOLD alone, as in the paper, and an exhausted MaxTransClauses
	// aborts the call instead.
	NoDegrade bool
	// Ackermann selects Ackermann's function elimination instead of the
	// nested-ITE scheme (the positive-equality ablation); eager methods only.
	Ackermann bool
	// DumpCNF, when non-nil, receives the encoded SAT query in DIMACS format
	// before solving (eager methods only).
	DumpCNF io.Writer
	// Hook, when non-nil, is called at entry to each pipeline stage (the
	// Stage… constants) of the eager methods; a non-nil return aborts the run
	// with the error's classified status. Used by fault injection and service
	// instrumentation.
	Hook func(stage string) error
	// Telemetry, when non-nil, records phase spans and solver progress
	// samples during the run and attaches a unified snapshot to
	// Result.Telemetry on every exit path. All methods honor it. A recorder
	// must not be shared between concurrent Decide calls.
	Telemetry *Telemetry
}

// Limits are server-enforced ceilings on per-request Options, for serving
// layers that map untrusted request fields onto Options (see
// Options.ApplyLimits and internal/core.Limits).
type Limits = core.Limits

// ApplyLimits tightens o in place to the ceilings in l and returns the names
// of the fields it clamped (nil when o already conformed). A zero ceiling
// leaves the matching option untouched; a non-zero ceiling clamps the option
// down to it, and an unset (unlimited) option is raised to the ceiling —
// except SolverWorkers, whose zero value means "sequential" and therefore
// only clamps downward.
func (o *Options) ApplyLimits(l Limits) []string {
	co, _ := o.coreOptions()
	clamped := l.Clamp(&co)
	o.Timeout, o.SolverWorkers = co.Timeout, co.SolverWorkers
	o.MaxTransClauses, o.MaxCNFClauses = co.MaxTransClauses, co.MaxCNFClauses
	o.MaxConflicts, o.MaxMemoryEstimate = co.MaxConflicts, co.MaxMemoryEstimate
	return clamped
}

// coreOptions converts o to the eager pipeline's options. eager reports
// whether o.Method is one of the eager encodings (hybrid, SD, EIJ); for any
// other method the returned Method is core.Hybrid.
func (o *Options) coreOptions() (co core.Options, eager bool) {
	co = core.Options{
		SepThreshold:      o.SepThreshold,
		MaxTransClauses:   o.MaxTransClauses,
		MaxCNFClauses:     o.MaxCNFClauses,
		MaxConflicts:      o.MaxConflicts,
		MaxMemoryEstimate: o.MaxMemoryEstimate,
		SolverWorkers:     o.SolverWorkers,
		NoDegrade:         o.NoDegrade,
		Timeout:           o.Timeout,
		Ackermann:         o.Ackermann,
		DumpCNF:           o.DumpCNF,
		Hook:              o.Hook,
		Telemetry:         o.Telemetry,
	}
	switch o.Method {
	case MethodHybrid:
		co.Method = core.Hybrid
	case MethodSD:
		co.Method = core.SD
	case MethodEIJ:
		co.Method = core.EIJ
	default:
		return co, false
	}
	return co, true
}

// statsOf projects the eager pipeline's statistics onto the facade's.
func statsOf(s *core.Stats) Stats {
	return Stats{
		Nodes:           s.SUFNodes,
		SepPreds:        s.SepPreds,
		Classes:         s.Classes,
		SDClasses:       s.SDClasses,
		DemotedClasses:  s.DemotedClasses,
		PFuncFraction:   s.PFraction,
		CNFClauses:      s.CNFClauses,
		ConflictClauses: s.SAT.ConflictClauses,
		EncodeTime:      s.EncodeTime,
		SATTime:         s.SATTime,
		TotalTime:       s.TotalTime,
	}
}

// Stats reports pipeline measurements of a Decide call.
type Stats struct {
	// Nodes is the input formula's DAG size.
	Nodes int
	// SepPreds is the number of distinct separation predicates after
	// function elimination.
	SepPreds int
	// Classes is the number of symbolic-constant equivalence classes;
	// SDClasses of them were encoded with the small-domain method.
	Classes, SDClasses int
	// DemotedClasses counts classes hybrid routing moved from EIJ to SD
	// because their transitivity-clause count did not fit the budget
	// (included in SDClasses).
	DemotedClasses int
	// PFuncFraction is the fraction of function applications classified as
	// p-function applications.
	PFuncFraction float64
	// CNFClauses and ConflictClauses describe the SAT workload.
	CNFClauses      int
	ConflictClauses int64
	// EncodeTime, SATTime and TotalTime break down the run.
	EncodeTime, SATTime, TotalTime time.Duration
}

// Counterexample is a falsifying interpretation for an Invalid result.
type Counterexample struct {
	m *core.Model
}

// Const returns the counterexample's value for an integer symbolic constant.
func (c *Counterexample) Const(name string) int64 { return c.m.Consts[name] }

// BoolConst returns the counterexample's value for a symbolic Boolean
// constant.
func (c *Counterexample) BoolConst(name string) bool { return c.m.Bools[name] }

// Consts returns a copy of the counterexample's integer assignments.
func (c *Counterexample) Consts() map[string]int64 {
	out := make(map[string]int64, len(c.m.Consts))
	for k, v := range c.m.Consts {
		out[k] = v
	}
	return out
}

// Bools returns a copy of the counterexample's Boolean assignments.
func (c *Counterexample) Bools() map[string]bool {
	out := make(map[string]bool, len(c.m.Bools))
	for k, v := range c.m.Bools {
		out[k] = v
	}
	return out
}

// Holds evaluates f under the counterexample's interpretation (uninterpreted
// functions and predicates included); for the formula that produced the
// counterexample it returns false.
func (c *Counterexample) Holds(f Formula) bool {
	return suf.EvalBool(f.f, c.m.Interp())
}

// String renders the assignments, sorted by name, one per line.
func (c *Counterexample) String() string {
	var names []string
	for n := range c.m.Consts {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "%s = %d\n", n, c.m.Consts[n])
	}
	names = names[:0]
	for n := range c.m.Bools {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "%s = %v\n", n, c.m.Bools[n])
	}
	return strings.TrimSuffix(sb.String(), "\n")
}

// Result is the outcome of Decide.
type Result struct {
	Status Status
	// Err classifies a non-definitive Status with a typed sentinel
	// (ErrCanceled, ErrDeadline, the budget sentinels, a *PanicError, …);
	// wrapping errors may add detail, so test with errors.Is.
	Err   error
	Stats Stats
	// Counterexample is non-nil when Status == Invalid and the method is one
	// of the eager encodings (hybrid, SD, EIJ).
	Counterexample *Counterexample
	// Telemetry is the unified snapshot of the run, present (on every exit
	// path, including timeouts and budget exhaustion) iff Options.Telemetry
	// was set.
	Telemetry *TelemetrySnapshot
}

// Decide checks validity of f under a background context; cancellation is
// still available through Options.Timeout. See DecideContext.
func Decide(f Formula, opts Options) *Result {
	return DecideContext(context.Background(), f, opts)
}

// DecideContext checks validity of f. Cancelling ctx aborts the run with a
// Canceled status within a bounded number of pipeline steps; a ctx deadline
// (or Options.Timeout) yields Timeout. A panic anywhere in the pipeline is
// contained into an Error result carrying a *PanicError; DecideContext never
// panics from pipeline failures.
func DecideContext(ctx context.Context, f Formula, opts Options) (res *Result) {
	defer func() {
		if v := recover(); v != nil {
			res = &Result{Status: Error, Err: &core.PanicError{Value: v, Stack: debug.Stack()}}
		}
	}()
	switch opts.Method {
	case MethodLazy:
		r := lazy.DecideOpts(ctx, f.f, f.b.sb, lazy.Options{
			Timeout:   opts.Timeout,
			Workers:   opts.SolverWorkers,
			Telemetry: opts.Telemetry,
		})
		out := &Result{Status: r.Status, Err: r.Err, Telemetry: r.Telemetry, Stats: Stats{
			Nodes:           suf.CountNodes(f.f),
			CNFClauses:      r.Stats.SAT.Clauses,
			ConflictClauses: r.Stats.SAT.ConflictClauses,
			TotalTime:       r.Stats.Total,
		}}
		if r.Model != nil {
			out.Counterexample = &Counterexample{m: r.Model}
		}
		return out
	case MethodSVC:
		r := svc.DecideOpts(ctx, f.f, f.b.sb, svc.Options{
			Timeout:   opts.Timeout,
			Telemetry: opts.Telemetry,
		})
		return &Result{Status: r.Status, Err: r.Err, Telemetry: r.Telemetry, Stats: Stats{
			Nodes:     suf.CountNodes(f.f),
			TotalTime: r.Stats.Total,
		}}
	}
	copts, eager := opts.coreOptions()
	var r *core.Result
	switch {
	case opts.Method == MethodPortfolio:
		r = core.DecidePortfolioCtx(ctx, f.f, f.b.sb, copts)
	case eager:
		r = core.DecideCtx(ctx, f.f, f.b.sb, copts)
	default:
		return &Result{Status: Error, Err: fmt.Errorf("sufsat: unknown method %v", opts.Method)}
	}
	out := &Result{Status: r.Status, Err: r.Err, Stats: statsOf(&r.Stats)}
	out.Telemetry = r.Telemetry
	if r.Model != nil {
		out.Counterexample = &Counterexample{m: r.Model}
	}
	return out
}

// IsValid decides f with the default options and reports whether it is
// valid, with an error on timeout.
func IsValid(f Formula) (bool, error) {
	r := Decide(f, Options{})
	switch r.Status {
	case core.Valid:
		return true, nil
	case core.Invalid:
		return false, nil
	}
	return false, r.Err
}
