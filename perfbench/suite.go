package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sufsat"
	"sufsat/internal/suf"
)

// The suite workloads are closed loops with one caller deciding every suite
// input once per pass, by one method.
var suiteMethods = map[string]sufsat.Method{
	"suite-hybrid": sufsat.MethodHybrid,
	"suite-sd":     sufsat.MethodSD,
}

// suiteDeadline bounds each decision; an undecided input is charged it. It
// sits between the slowest input Hybrid decides at the seed (ooo.inv-5, about
// 1.9 s on a 2-vCPU x86-64 VM) and the first it does not (ooo.inv-6).
const suiteDeadline = 3 * time.Second

// suiteSetupReps is how often a suite run repeats its set-up; setup_s is the
// median. One set-up takes about 0.15 s and its first repetitions fault in a
// fresh heap, so the median needs many.
const suiteSetupReps = 15

// suiteInputs renders the 55 inputs with one seeded consistent renaming.
func suiteInputs(seed int64) []input {
	rng := rand.New(rand.NewSource(seed))
	ins := render(suiteSet())
	for i := range ins {
		ins[i].Text = rename(ins[i].Text, rng)
	}
	return ins
}

// parseAll parses every text into its own builder (decisions add nodes to
// the builder, so every decision gets a fresh parse).
func parseAll(ins []input) ([]sufsat.Formula, error) {
	out := make([]sufsat.Formula, len(ins))
	for i, in := range ins {
		f, err := sufsat.NewBuilder().Parse(in.Text)
		if err != nil {
			return nil, fmt.Errorf("%s: parse: %w", in.Name, err)
		}
		out[i] = f
	}
	return out, nil
}

// verdict classifies one decision: definitive answers are checked (an error
// aborts the run), a deadline is "undecided", anything else "failed".
func verdict(in input, r *sufsat.Result) (string, error) {
	switch r.Status {
	case sufsat.Valid, sufsat.Invalid:
		var consts map[string]int64
		var bools map[string]bool
		if r.Counterexample != nil {
			consts, bools = r.Counterexample.Consts(), r.Counterexample.Bools()
		}
		if err := checkAnswer(in, r.Status == sufsat.Valid, consts, bools); err != nil {
			return "", err
		}
		return r.Status.String(), nil
	case sufsat.Timeout:
		return "undecided", nil
	}
	return "failed", nil
}

func runSuite(name string, method sufsat.Method, seed int64, seconds time.Duration, tr *tracer) (*outcome, error) {
	var ins []input
	var fs []sufsat.Formula
	var setup []float64
	for i := 0; i < suiteSetupReps; i++ {
		t0 := time.Now()
		ins = suiteInputs(seed)
		var err error
		if fs, err = parseAll(ins); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	if tr != nil {
		return traceSuite(name, method, seed, ins, tr)
	}

	// The first pass decides every input. Later passes, while the time
	// allows, decide again only the inputs the first pass decided: an input
	// that missed its deadline is charged the deadline without being retried.
	// Each input's time is its median over the passes.
	out := &outcome{}
	times := make([][]float64, len(ins))
	allocKB := make([][]float64, len(ins))
	todo := make([]int, len(ins))
	for i := range todo {
		todo[i] = i
	}
	ok := 0
	start := time.Now()
	for pass := 0; ; pass++ {
		if pass > 0 {
			for _, i := range todo {
				f, err := sufsat.NewBuilder().Parse(ins[i].Text)
				if err != nil {
					return nil, err
				}
				fs[i] = f
			}
		}
		rng := rand.New(rand.NewSource(seed*1000 + int64(pass)))
		rng.Shuffle(len(todo), func(a, b int) { todo[a], todo[b] = todo[b], todo[a] })
		var decided []int
		var next time.Duration // predicted length of the next pass
		for _, i := range todo {
			// A cold heap: without this the per-input spread between
			// passes doubles.
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			r := sufsat.DecideContext(context.Background(), fs[i], sufsat.Options{Method: method, Timeout: suiteDeadline})
			d := time.Since(t0)
			runtime.ReadMemStats(&after)
			v, err := verdict(ins[i], r)
			if err != nil {
				return nil, err
			}
			out.attempted++
			c := ms(d)
			switch v {
			case "failed":
				out.failed++
				c = ms(suiteDeadline)
			case "undecided":
				c = ms(suiteDeadline)
			default:
				if pass == 0 {
					ok++
					decided = append(decided, i)
				}
				next += d
				allocKB[i] = append(allocKB[i], float64(after.TotalAlloc-before.TotalAlloc)/1024)
			}
			times[i] = append(times[i], c)
			printRow(map[string]any{"workload": name, "pass": pass, "name": ins[i].Name,
				"method": method.String(), "verdict": v, "ms": ms(d),
				"cnf_clauses": r.Stats.CNFClauses, "conflict_clauses": r.Stats.ConflictClauses,
				"sd_classes": r.Stats.SDClasses, "classes": r.Stats.Classes})
		}
		if pass == 0 {
			todo = decided
		}
		if len(todo) == 0 || time.Since(start)+next > seconds {
			break
		}
	}
	charged := make([]float64, len(ins))
	var kb []float64
	for i := range ins {
		charged[i] = median(times[i])
		if len(allocKB[i]) > 0 {
			kb = append(kb, median(allocKB[i]))
		}
	}
	out.metrics = map[string]float64{
		"setup_s":         median(setup),
		"verdict_ms_mean": sum(charged) / float64(len(ins)),
		"verdict_ms_p50":  hdQuantile(charged, 0.5),
		"verdict_ms_tail": tail(charged),
		"ok_frac":         float64(ok) / float64(len(ins)),
		"alloc_kb_op":     sum(kb) / float64(len(kb)),
	}
	return out, nil
}

// stageMarks records when each pipeline stage was entered.
type stageMarks struct {
	stage []string
	at    []time.Time
}

func (m *stageMarks) hook(stage string) error {
	m.stage = append(m.stage, stage)
	m.at = append(m.at, time.Now())
	return nil
}

// traceSuite runs one traced pass. Each input gets a root span and one child
// per stage: the Options.Hook entry timestamps bound the stages, the trans
// interval (transitivity generation followed by Tseitin CNF) is split by the
// telemetry "trans" spans, and the sat stage ends where the telemetry "sat"
// span ends. Every decided input is then decided again untraced, so the run
// reports the tracing overhead.
func traceSuite(name string, method sufsat.Method, seed int64, ins []input, tr *tracer) (*outcome, error) {
	plain, err := parseAll(ins)
	if err != nil {
		return nil, err
	}
	traced := make([]sufsat.Formula, len(ins))
	var parseMS, fpMS []float64
	for i, in := range ins {
		t0 := time.Now()
		b := suf.NewBuilder()
		f, err := suf.Parse(in.Text, b)
		if err != nil {
			return nil, fmt.Errorf("%s: parse: %w", in.Name, err)
		}
		t1 := time.Now()
		suf.Fingerprint(f)
		parseMS = append(parseMS, ms(t1.Sub(t0)))
		fpMS = append(fpMS, ms(time.Since(t1)))
		if traced[i], err = sufsat.NewBuilder().Parse(in.Text); err != nil {
			return nil, err
		}
	}

	m := map[string]float64{}
	for _, p := range perLayer {
		m[p.name] = 0
	}
	m["suf.parse_ms.p50"] = median(parseMS)
	m["suf.fingerprint_ms.p50"] = median(fpMS)
	out := &outcome{metrics: m}
	var tracedMS, plainMS float64
	order := rand.New(rand.NewSource(seed * 1000)).Perm(len(ins))
	for _, i := range order {
		in := ins[i]
		opts := sufsat.Options{Method: method, Timeout: suiteDeadline}
		marks := &stageMarks{}
		opts.Hook = marks.hook
		rec := sufsat.NewTelemetry()
		opts.Telemetry = rec
		runtime.GC()
		t0 := time.Now()
		r := sufsat.DecideContext(context.Background(), traced[i], opts)
		t1 := time.Now()
		v, err := verdict(in, r)
		if err != nil {
			return nil, err
		}
		out.attempted++
		if v == "failed" {
			out.failed++
		}
		if v == "undecided" || v == "failed" {
			m["core.undecided"]++
			m["core.undecided_ms"] += ms(t1.Sub(t0))
			tr.add(in.Name, "decide", -1, t0, t1, map[string]float64{"undecided": 1})
			printRow(map[string]any{"workload": name, "name": in.Name, "method": method.String(),
				"verdict": v, "ms": ms(t1.Sub(t0))})
			continue
		}
		// The untraced twin runs only for decided inputs (an undecided one
		// would cost another deadline).
		opts.Hook, opts.Telemetry = nil, nil
		runtime.GC()
		p0 := time.Now()
		sufsat.DecideContext(context.Background(), plain[i], opts)
		plainMS += ms(time.Since(p0))
		tracedMS += ms(t1.Sub(t0))

		snap := r.Telemetry
		var transDur, satEnd time.Duration
		transClauses := 0.0
		for _, s := range snap.Spans {
			switch s.Name {
			case sufsat.StageTrans:
				transDur += time.Duration(s.DurMS * 1e6)
				if c, ok := s.Attrs["trans_clauses"].(int); ok {
					transClauses += float64(c)
				}
			case sufsat.StageSAT:
				satEnd = time.Duration((s.StartMS + s.DurMS) * 1e6)
			}
		}
		// Stage intervals from the hook marks; encode and trans repeat when
		// hybrid demotes a class.
		stage := map[string]time.Duration{}
		for j, name := range marks.stage {
			end := t1
			if j+1 < len(marks.at) {
				end = marks.at[j+1]
			} else if name == sufsat.StageSAT && satEnd > 0 {
				end = rec.Epoch().Add(satEnd)
			}
			stage[name] += end.Sub(marks.at[j])
		}
		transCNF := stage[sufsat.StageTrans]
		trans := min(transDur, transCNF)
		spans := []struct {
			name string
			d    time.Duration
		}{
			{"funcelim", stage[sufsat.StageFuncElim]},
			{"analyze", stage[sufsat.StageAnalyze]},
			{"encode", stage[sufsat.StageEncode]},
			{"trans", trans},
			{"cnf", transCNF - trans},
			{"sat", stage[sufsat.StageSAT]},
		}
		sat := snap.SAT
		root := tr.add(in.Name, "decide", -1, t0, t1, map[string]float64{
			"trans_clauses": transClauses, "bool_nodes": float64(snap.Pipeline.BoolNodes),
			"cnf_clauses": float64(snap.Pipeline.CNFClauses), "conflicts": float64(sat.Conflicts),
			"propagations": float64(sat.Propagations), "sd_classes": float64(r.Stats.SDClasses),
			"demoted_classes": float64(r.Stats.DemotedClasses)})
		at := marks.at[0]
		covered := time.Duration(0)
		row := map[string]any{"workload": name, "name": in.Name, "method": method.String(),
			"verdict": v, "ms": ms(t1.Sub(t0)), "trans_clauses": transClauses,
			"bool_nodes": snap.Pipeline.BoolNodes, "cnf_clauses": snap.Pipeline.CNFClauses,
			"conflicts": sat.Conflicts, "propagations": sat.Propagations,
			"sd_classes": r.Stats.SDClasses, "classes": r.Stats.Classes,
			"demoted_classes": r.Stats.DemotedClasses}
		for _, s := range spans {
			tr.add(in.Name, s.name, root, at, at.Add(s.d), nil)
			at = at.Add(s.d)
			covered += s.d
			row[s.name+"_ms"] = ms(s.d)
		}
		printRow(row)

		m["funcelim.ms"] += ms(stage[sufsat.StageFuncElim])
		m["sep.ms"] += ms(stage[sufsat.StageAnalyze])
		m["encode.ms"] += ms(stage[sufsat.StageEncode])
		m["perconstraint.trans_ms"] += ms(trans)
		m["boolexpr.cnf_ms"] += ms(transCNF - trans)
		m["trans_cnf.ms"] += ms(transCNF)
		m["sat.ms"] += ms(stage[sufsat.StageSAT])
		m["core.unattributed_ms"] += ms(t1.Sub(t0) - covered)
		m["perconstraint.trans_clauses"] += transClauses
		m["boolexpr.nodes"] += float64(snap.Pipeline.BoolNodes)
		m["sat.clauses"] += float64(snap.Pipeline.CNFClauses)
		m["sat.conflicts"] += float64(sat.Conflicts)
		m["sat.propagations"] += float64(sat.Propagations)
		m["core.sd_classes"] += float64(r.Stats.SDClasses)
		m["core.demoted_classes"] += float64(r.Stats.DemotedClasses)
	}
	stages := m["funcelim.ms"] + m["sep.ms"] + m["encode.ms"] + m["trans_cnf.ms"] + m["sat.ms"]
	m["stage.trans_share"] = m["perconstraint.trans_ms"] / stages
	m["stage.sat_share"] = m["sat.ms"] / stages
	m["sat.props_per_ms"] = m["sat.propagations"] / m["sat.ms"]
	m["trace.overhead_frac"] = (tracedMS - plainMS) / plainMS
	return out, nil
}
