package core

import (
	"context"
	"errors"
	"fmt"

	"sufsat/internal/perconstraint"
	"sufsat/internal/sat"
)

// Status is the outcome of a Decide call. The first three values predate the
// failure taxonomy and keep their numeric identity; Canceled, ResourceOut and
// Error subdivide what used to be reported as a blanket Timeout.
type Status int

// Decide outcomes.
const (
	// Valid: the formula holds under every interpretation.
	Valid Status = iota
	// Invalid: some interpretation falsifies the formula.
	Invalid
	// Timeout: the wall-clock deadline was hit.
	Timeout
	// Canceled: the caller's context was canceled before a verdict was
	// reached.
	Canceled
	// ResourceOut: an explicit resource budget (transitivity clauses, CNF
	// clauses, SAT conflicts, estimated memory) was exhausted.
	ResourceOut
	// Error: an internal failure — malformed input discovered mid-pipeline,
	// an I/O error on DumpCNF, or a contained panic.
	Error
)

func (s Status) String() string {
	switch s {
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	case Timeout:
		return "timeout"
	case Canceled:
		return "canceled"
	case ResourceOut:
		return "resource-out"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Definitive reports whether s is a verdict (Valid or Invalid) rather than a
// failure mode. Code that used to test `== Timeout` for "no answer" should
// test `!Definitive()` under the extended taxonomy.
func (s Status) Definitive() bool { return s == Valid || s == Invalid }

// Sentinel errors carried in Result.Err alongside the non-definitive
// statuses. They classify the failure; wrapping errors may add detail, so
// test with errors.Is.
var (
	// ErrCanceled reports that the caller's context was canceled.
	ErrCanceled = errors.New("core: run canceled")
	// ErrDeadline reports that the wall-clock deadline was hit.
	ErrDeadline = errors.New("core: deadline exceeded")
	// ErrTransBudget reports that MaxTransClauses was exhausted (for the
	// Hybrid method, only possible with per-class SD degradation disabled).
	ErrTransBudget = errors.New("core: transitivity-clause budget exhausted")
	// ErrClauseBudget reports that MaxCNFClauses was exceeded.
	ErrClauseBudget = errors.New("core: CNF clause budget exhausted")
	// ErrConflictBudget reports that MaxConflicts was exhausted.
	ErrConflictBudget = errors.New("core: SAT conflict budget exhausted")
	// ErrMemoryBudget reports that MaxMemoryEstimate was exceeded.
	ErrMemoryBudget = errors.New("core: estimated memory budget exhausted")
)

// PanicError is the Err of an Error result produced by panic containment: a
// recovered panic value together with the stack captured at recovery.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// StatusOf classifies err into the Status it implies. Unknown errors map to
// Error.
func StatusOf(err error) Status {
	switch {
	case err == nil:
		return Error
	case errors.Is(err, context.Canceled) || errors.Is(err, ErrCanceled):
		return Canceled
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrDeadline) ||
		errors.Is(err, sat.ErrBudget):
		return Timeout
	case errors.Is(err, perconstraint.ErrTranslationLimit) || errors.Is(err, ErrTransBudget) ||
		errors.Is(err, ErrClauseBudget) || errors.Is(err, ErrConflictBudget) ||
		errors.Is(err, ErrMemoryBudget):
		return ResourceOut
	default:
		return Error
	}
}

// SATStopError maps the solver's stop cause to the sentinel error carried in
// Result.Err when Solve returns Unknown.
func SATStopError(c sat.StopCause) error {
	switch c {
	case sat.StopCanceled:
		return ErrCanceled
	case sat.StopDeadline:
		return ErrDeadline
	case sat.StopConflictBudget:
		return ErrConflictBudget
	}
	return sat.ErrBudget
}

// Pipeline stage names, in execution order. DecideCtx calls Options.Hook at
// entry to each stage (StageDump only when DumpCNF is set), then polls the
// context, so a hook that cancels the context aborts the run at that exact
// point. The fault-injection harness (internal/faultinject) targets these
// names.
const (
	StageFuncElim = "funcelim"
	StageAnalyze  = "analyze"
	StageEncode   = "encode"
	StageTrans    = "trans"
	StageDump     = "dimacs"
	StageSAT      = "sat"
)

// Stages lists every pipeline stage in order, for fault-injection sweeps.
var Stages = []string{StageFuncElim, StageAnalyze, StageEncode, StageTrans, StageDump, StageSAT}

// StageHook observes entry into named pipeline stages. A non-nil return
// aborts the run with the error's classified status — unknown errors become
// Error, context errors Canceled/Timeout, budget sentinels ResourceOut.
type StageHook func(stage string) error
