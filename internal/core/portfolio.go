package core

import (
	"context"
	"runtime/debug"

	"sufsat/internal/obs"
	"sufsat/internal/suf"
)

// DecidePortfolio races the SD, EIJ and HYBRID encodings under a background
// context. See DecidePortfolioCtx.
func DecidePortfolio(f *suf.BoolExpr, b *suf.Builder, opts Options) *Result {
	return DecidePortfolioCtx(context.Background(), f, b, opts)
}

// DecidePortfolioCtx runs the SD, EIJ and HYBRID encodings concurrently on
// copies of the formula and returns the first definitive answer, cancelling
// the others through a derived context. A portfolio is the classic
// alternative to the paper's hybrid routing: instead of predicting which
// encoding will win (SEP_THOLD), run them all and keep the winner. It costs
// up to 3× the work and memory but is robust even when the predictor
// misroutes; the ablation benchmarks compare the two approaches.
//
// Each method runs on a suf.Clone of the formula into its own Builder
// (Builders are not safe for concurrent use; cloning is linear in the DAG
// and preserves sharing, where the old print/re-parse round trip was
// quadratic-ish on deep terms). Worker panics are contained into an Error
// result, and every worker drains into a buffered channel and exits shortly
// after cancellation, so no goroutines leak past the losers' next poll point.
//
// With telemetry enabled each racer records into a private child recorder
// (a shared one would interleave three pipelines' spans); the recorder of
// the racer whose result is returned is merged back into the caller's, under
// a "portfolio" span whose attributes name the winning method.
func DecidePortfolioCtx(ctx context.Context, f *suf.BoolExpr, b *suf.Builder, opts Options) *Result {
	methods := []Method{Hybrid, SD, EIJ}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	rec := opts.Telemetry
	pfSpan := rec.StartSpan("portfolio")

	type outcome struct {
		method Method
		rec    *obs.Recorder
		res    *Result
	}
	results := make(chan outcome, len(methods))
	for _, m := range methods {
		m := m
		var childRec *obs.Recorder
		if rec != nil {
			childRec = obs.NewRecorder()
			childRec.SampleInterval = rec.SampleInterval
		}
		go func() {
			defer func() {
				if v := recover(); v != nil {
					results <- outcome{m, childRec, &Result{Status: Error, Err: &PanicError{Value: v, Stack: debug.Stack()}}}
				}
			}()
			nb := suf.NewBuilder()
			nf := suf.Clone(f, nb)
			o := opts
			o.Method = m
			o.Telemetry = childRec
			results <- outcome{m, childRec, DecideCtx(ctx, nf, nb, o)}
		}()
	}

	// finish merges the adopted racer's telemetry into the caller's recorder
	// and restamps the result's snapshot so its spans and samples cover the
	// whole portfolio (the child snapshot only saw its own pipeline).
	finish := func(o outcome, definitive bool) *Result {
		rec.Adopt(o.rec)
		pfSpan.AttrStr("adopted", o.method.String()).AttrBool("definitive", definitive)
		pfSpan.End()
		if o.res.Telemetry != nil {
			o.res.Telemetry.Method = "PORTFOLIO(" + o.method.String() + ")"
			o.res.Telemetry.Finish(rec)
		}
		return o.res
	}

	var last outcome
	for range methods {
		out := <-results
		last = out
		if out.res.Status.Definitive() {
			// Definitive answer: cancel the rest and return. The remaining
			// goroutines notice the cancellation at their next poll point and
			// drain into the buffered channel.
			return finish(out, true)
		}
	}
	// No member produced a verdict; report the last failure.
	return finish(last, false)
}
