package main

import (
	"fmt"
	"strconv"

	"sufsat/internal/funcelim"
	"sufsat/internal/suf"
)

// checkAnswer checks one definitive answer against the input's known
// verdict and, for Invalid, checks that the returned assignment falsifies a
// fresh parse of the exact text that was sent. It returns an error naming the
// input on any mismatch.
func checkAnswer(in input, valid bool, consts map[string]int64, bools map[string]bool) error {
	if valid != in.Valid {
		return fmt.Errorf("%s: wrong verdict: got valid=%v, want valid=%v", in.Name, valid, in.Valid)
	}
	if valid {
		return nil
	}
	if len(consts) == 0 && len(bools) == 0 {
		return fmt.Errorf("%s: invalid answer without a model", in.Name)
	}
	if err := checkModel(in.Text, consts, bools); err != nil {
		return fmt.Errorf("%s: %w", in.Name, err)
	}
	return nil
}

// checkModel evaluates text under the interpretation that the model's
// assignment describes and fails unless the formula evaluates to false.
//
// A model assigns the formula's symbolic constants and the fresh constants
// that function elimination introduced for each application. The tables of
// the uninterpreted functions and predicates are rebuilt from those fresh
// constants: each application's argument values, computed from the constants,
// index its fresh constant's value, the earliest application winning when
// argument tuples collide, as in the elimination's ITE selection chains.
func checkModel(text string, consts map[string]int64, bools map[string]bool) error {
	b := suf.NewBuilder()
	f, err := suf.Parse(text, b)
	if err != nil {
		return fmt.Errorf("model check: parse: %w", err)
	}
	elim := funcelim.Eliminate(f, b)

	base := &suf.Interp{
		Fn:   func(name string, args []int64) int64 { return consts[name] },
		Pred: func(name string, args []int64) bool { return bools[name] },
	}
	key := func(name string, args []int64) string {
		k := append([]byte(name), 0)
		for _, a := range args {
			k = strconv.AppendInt(k, a, 10)
			k = append(k, '/')
		}
		return string(k)
	}
	argKey := func(def funcelim.AppDef) string {
		vals := make([]int64, len(def.Args))
		for i, a := range def.Args {
			vals[i] = suf.EvalInt(a, base)
		}
		return key(def.Sym, vals)
	}
	fns := make(map[string]int64)
	for _, name := range elim.FreshIntOrder {
		k := argKey(elim.FreshIntDefs[name])
		if _, taken := fns[k]; !taken {
			fns[k] = consts[name]
		}
	}
	preds := make(map[string]bool)
	for _, name := range elim.FreshBoolOrder {
		k := argKey(elim.FreshBoolDefs[name])
		if _, taken := preds[k]; !taken {
			preds[k] = bools[name]
		}
	}
	it := &suf.Interp{
		Fn: func(name string, args []int64) int64 {
			if len(args) == 0 {
				return consts[name]
			}
			return fns[key(name, args)]
		},
		Pred: func(name string, args []int64) bool {
			if len(args) == 0 {
				return bools[name]
			}
			return preds[key(name, args)]
		},
	}
	if suf.EvalBool(f, it) {
		return fmt.Errorf("model check: the returned assignment satisfies the formula")
	}
	return nil
}
