package perconstraint

import (
	"cmp"
	"context"
	"slices"
	"sort"

	"sufsat/internal/sep"
)

// edgeKey identifies a difference edge x − y ≤ c between vertex ids.
type edgeKey struct {
	x, y int32
	c    int
}

// elimGraph is one class's difference graph under Fourier–Motzkin vertex
// elimination. It holds integer vertex ids and weights only: vertex ids
// follow name order, so every tie broken by id is broken by name, and an
// edge's literal is a function of its key (the canonical predicate variable
// x − y ≤ c or its negation), which the clause builder derives on demand.
// Transitivity generation and the count-only probe run the same elimination
// over it, so the probe's count is the generated clause count.
type elimGraph struct {
	order OrderHeuristic
	edges []edgeKey
	dead  []bool
	live  map[edgeKey]int32 // live edge ids by key
	adj   [][]int32         // incident edge ids per vertex; dead ones are skipped
	in    []int             // live in-degree per vertex
	out   []int             // live out-degree per vertex
	gone  []bool            // vertex eliminated
	// hiBound and floor are the weight window of derived edges (see
	// newElimGraph).
	hiBound, floor int
}

// newElimGraph builds the graph of preds — both polarities of every
// predicate, x − y ≤ c and y − x ≤ −c−1 — and returns it with the vertex
// names in id order.
func newElimGraph(preds []sep.Pred, order OrderHeuristic) (*elimGraph, []string) {
	var names []string
	seen := make(map[string]bool)
	for _, p := range preds {
		for _, v := range [2]string{p.X, p.Y} {
			if !seen[v] {
				seen[v] = true
				names = append(names, v)
			}
		}
	}
	sort.Strings(names)
	id := make(map[string]int32, len(names))
	for i, v := range names {
		id[v] = int32(i)
	}
	n := len(names)
	g := &elimGraph{
		order: order,
		live:  make(map[edgeKey]int32, 2*len(preds)),
		adj:   make([][]int32, n),
		in:    make([]int, n),
		out:   make([]int, n),
		gone:  make([]bool, n),
	}

	// Weight bound for derived edges: every edge of a *simple* negative
	// cycle is a contiguous subpath of it, and with n vertices and initial
	// weights in [−W, W] a subpath of a simple negative cycle has weight in
	// (−2nW, nW). Vertex elimination composes exactly contiguous subpaths,
	// so derived edges outside that window can never witness a negative
	// cycle and are dropped. This keeps the (still potentially exponential)
	// growth tied to genuine weight diversity.
	maxW, maxPos := 1, 0
	for _, p := range preds {
		for _, w := range [2]int{p.C, -p.C - 1} {
			maxW = max(maxW, abs(w))
			maxPos = max(maxPos, w)
		}
	}
	g.hiBound = n * maxW
	// Weight floor: in a simple cycle the other edges contribute at most
	// n·maxPos, so once a subpath's weight reaches F = −n·maxPos − 1 the
	// completed cycle is negative no matter what — all weights below F are
	// equivalent and are clamped to it. For equality/strict-order classes
	// (no positive weights) this collapses the per-pair weights to {0, −1},
	// which is why the per-constraint method is cheap exactly on the
	// formulas the paper observes it winning on.
	g.floor = -n*maxPos - 1

	for _, p := range preds {
		x, y := id[p.X], id[p.Y]
		g.addEdge(edgeKey{x, y, p.C})
		g.addEdge(edgeKey{y, x, -p.C - 1})
	}
	return g, names
}

// addEdge adds the live edge k unless present and returns its id.
func (g *elimGraph) addEdge(k edgeKey) int32 {
	if i, ok := g.live[k]; ok {
		return i
	}
	i := int32(len(g.edges))
	g.edges = append(g.edges, k)
	g.dead = append(g.dead, false)
	g.live[k] = i
	g.adj[k.x] = append(g.adj[k.x], i)
	g.adj[k.y] = append(g.adj[k.y], i)
	g.out[k.x]++
	g.in[k.y]++
	return i
}

// pick returns the next vertex to eliminate under the order heuristic:
// the live vertex minimising its score, ties to the smallest id (name).
func (g *elimGraph) pick() int32 {
	best, bestScore := int32(-1), 0
	for v := range g.gone {
		if g.gone[v] {
			continue
		}
		var score int
		switch g.order {
		case Lexicographic:
			return int32(v)
		case MinFill:
			// Estimated fill: one composition per in/out edge pair.
			score = g.in[v] * g.out[v]
		default: // MinDegree
			score = g.in[v] + g.out[v]
		}
		if best < 0 || score < bestScore {
			best, bestScore = int32(v), score
		}
	}
	return best
}

// eliminate runs vertex elimination to completion and returns the number of
// transitivity clauses it derives. When emit is non-nil it is called once
// per clause, in generation order, with the antecedent edges e1 (x → v) and
// e2 (v → y) and the consequent edge e3, or e3 = −1 for a negative
// self-loop ¬l1 ∨ ¬l2; a consequent edge the clause creates is appended to
// g.edges before emit sees it. Counting stops as soon as the count exceeds
// budget (a negative budget means no limit), reporting over. ctx, when
// non-nil, is polled every 256 clauses.
func (g *elimGraph) eliminate(ctx context.Context, budget int, emit func(e1, e2, e3 int32)) (n int, over bool, err error) {
	var in, out []int32
	for range g.gone {
		v := g.pick()
		g.gone[v] = true

		// Partition v's live edges, sorted by (x, y, c), then remove them
		// before adding compositions.
		in, out = in[:0], out[:0]
		for _, i := range g.adj[v] {
			if g.dead[i] {
				continue
			}
			k := g.edges[i]
			if k.y == v {
				in = append(in, i)
			} else {
				out = append(out, i)
			}
			g.dead[i] = true
			delete(g.live, k)
			g.out[k.x]--
			g.in[k.y]--
		}
		g.adj[v] = nil
		byKey := func(a, b int32) int {
			ka, kb := g.edges[a], g.edges[b]
			return cmp.Or(cmp.Compare(ka.x, kb.x), cmp.Compare(ka.y, kb.y), cmp.Compare(ka.c, kb.c))
		}
		slices.SortFunc(in, byKey)
		slices.SortFunc(out, byKey)

		for _, e1 := range in { // e1: x − v ≤ c1
			k1 := g.edges[e1]
			for _, e2 := range out { // e2: v − y ≤ c2
				k2 := g.edges[e2]
				x, y, c := k1.x, k2.y, k1.c+k2.c
				if x == y && c == -1 {
					// e2 is the negation of e1 (same variable, opposite
					// polarity): the composition is a tautology.
					continue
				}
				c = max(c, g.floor)
				e3 := int32(-1)
				if x != y {
					if c > g.hiBound {
						continue // cannot be part of a simple negative cycle
					}
					e3 = g.addEdge(edgeKey{x, y, c})
				} else if c >= 0 {
					continue // non-negative self-loop: no constraint
				}
				n++
				if budget >= 0 && n > budget {
					return n, true, nil
				}
				if emit != nil {
					emit(e1, e2, e3)
				}
				if ctx != nil && n%256 == 0 {
					if err := ctx.Err(); err != nil {
						return n, false, err
					}
				}
			}
		}
	}
	return n, false, nil
}

// CountTrans returns the number of transitivity clauses that generation
// derives for a class with predicate set preds (sep.Class.Preds) under the
// order heuristic, without building them: the same elimination runs over
// integer vertex ids and weights only, creating no literals, variables or
// clauses. It stops as soon as the count exceeds budget and then reports
// over (a negative budget means no limit). ctx, when non-nil, is polled as
// generation polls it.
func CountTrans(ctx context.Context, preds []sep.Pred, order OrderHeuristic, budget int) (n int, over bool, err error) {
	g, _ := newElimGraph(preds, order)
	return g.eliminate(ctx, budget, nil)
}
