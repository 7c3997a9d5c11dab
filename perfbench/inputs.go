package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"sufsat/internal/bench"
)

// input is one generated formula text with its known verdict. The program
// under test only ever sees Text.
type input struct {
	Name  string
	Valid bool
	Text  string
}

// suiteSet is the 49-formula suite plus the six invalid variants.
func suiteSet() []bench.Benchmark {
	return append(bench.Suite(), bench.InvalidVariants()...)
}

// servePool is the serve-mix pool: the paper's 16-formula sample plus the six
// invalid variants.
func servePool() []bench.Benchmark {
	return append(bench.Sample16(), bench.InvalidVariants()...)
}

// render builds each benchmark once and prints it as SUF text.
func render(set []bench.Benchmark) []input {
	out := make([]input, len(set))
	for i, bm := range set {
		f, _ := bm.Build()
		out[i] = input{Name: bm.Name, Valid: bm.Valid, Text: f.String()}
	}
	return out
}

// sufKeywords are the SUF atoms that are syntax, not symbols.
var sufKeywords = map[string]bool{
	"and": true, "or": true, "not": true, "=>": true, "iff": true,
	"ite": true, "succ": true, "pred": true, "+": true, "-": true,
	"=": true, "<": true, "<=": true, ">": true, ">=": true,
	"true": true, "false": true,
}

// token is one lexical unit of SUF text: a delimiter run, or an atom that is
// either a symbol (sym set, quotes stripped) or a keyword/numeral.
type token struct {
	text string
	sym  bool
}

func tokenize(text string) []token {
	var out []token
	i := 0
	for i < len(text) {
		c := text[i]
		switch {
		case c == '(' || c == ')' || unicode.IsSpace(rune(c)):
			j := i
			for j < len(text) && (text[j] == '(' || text[j] == ')' || unicode.IsSpace(rune(text[j]))) {
				j++
			}
			out = append(out, token{text: text[i:j]})
			i = j
		case c == '|':
			j := strings.IndexByte(text[i+1:], '|')
			if j < 0 {
				j = len(text) - i - 1
			}
			out = append(out, token{text: text[i+1 : i+1+j], sym: true})
			i += j + 2
		default:
			j := i
			for j < len(text) && text[j] != '(' && text[j] != ')' && text[j] != '|' && !unicode.IsSpace(rune(text[j])) {
				j++
			}
			atom := text[i:j]
			_, numErr := strconv.Atoi(atom)
			out = append(out, token{text: atom, sym: !sufKeywords[atom] && numErr != nil})
			i = j
		}
	}
	return out
}

// symbols returns the distinct symbol names of text, sorted.
func symbols(text string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, t := range tokenize(text) {
		if t.sym && !seen[t.text] {
			seen[t.text] = true
			out = append(out, t.text)
		}
	}
	sort.Strings(out)
	return out
}

// rename returns an alpha-equivalent spelling of text: every symbol is
// replaced, consistently, by "r" and a fixed-width number that grows by a
// random step from rng in sorted symbol order. The program orders symbols,
// and the names it derives from them, by name; on every such spelling that
// order is the same, so the solver does the same work whatever the seed.
func rename(text string, rng *rand.Rand) string {
	syms := symbols(text)
	names := make(map[string]string, len(syms))
	n := 0
	for _, s := range syms {
		n += 1 + rng.Intn(97)
		names[s] = fmt.Sprintf("r%07d", n)
	}
	var sb strings.Builder
	sb.Grow(len(text) + len(text)/2)
	for _, t := range tokenize(text) {
		if t.sym {
			sb.WriteString(names[t.text])
		} else {
			sb.WriteString(t.text)
		}
	}
	return sb.String()
}

// tagged returns (or text T_n), where T_n is (and X (not X)) over a chain X
// of fresh Boolean symbols whose and/or pattern spells n in binary. T_n is
// false in every interpretation, so the verdict is text's, and it costs
// O(log n) nodes; distinct n give distinct canonical fingerprints, so a
// tagged text is a first sighting for the verdict cache.
func tagged(text string, n uint64) string {
	if n == 0 {
		panic("perfbench: tag 0")
	}
	x := "zt_0"
	for i := 0; i < bits.Len64(n); i++ {
		op := "or"
		if n>>i&1 == 1 {
			op = "and"
		}
		x = fmt.Sprintf("(%s %s zt_%d)", op, x, i+1)
	}
	return fmt.Sprintf("(or %s (and %s (not %s)))", text, x, x)
}

// request is one serve-mix request.
type request struct {
	Input input // Name is the pool entry; Text is what is sent
	First bool  // a first sighting (tagged text) rather than a repeat
}

// mix draws the serve-mix request stream, one request at a time: blocks of
// three with one first sighting at a seeded position (a repeat share of
// exactly two thirds). Pool entries are drawn by cycling seeded permutations,
// separately for repeats and first sightings, so every entry is sent equally
// often. A repeat of a valid entry is a fresh alpha-renamed spelling; a
// repeat of an invalid entry is the pool text itself, the only case in which
// a cached model may be served.
type mix struct {
	pool            []input
	rng             *rand.Rand
	repeats, firsts cycler
	tag             uint64
	sent, firstAt   int
}

func newMix(pool []input, rng *rand.Rand) *mix {
	return &mix{pool: pool, rng: rng, repeats: cycler{n: len(pool), rng: rng},
		firsts: cycler{n: len(pool), rng: rng}, tag: uint64(1 + rng.Intn(1<<20))}
}

func (m *mix) next() request {
	if m.sent%3 == 0 {
		m.firstAt = m.sent + m.rng.Intn(3)
	}
	first := m.sent == m.firstAt
	m.sent++
	if first {
		in := m.pool[m.firsts.next()]
		in.Text = tagged(in.Text, m.tag)
		m.tag++
		return request{Input: in, First: true}
	}
	in := m.pool[m.repeats.next()]
	if in.Valid {
		in.Text = rename(in.Text, m.rng)
	}
	return request{Input: in}
}

// cycler yields 0..n-1 in a fresh seeded permutation per cycle.
type cycler struct {
	n    int
	rng  *rand.Rand
	perm []int
}

func (c *cycler) next() int {
	if len(c.perm) == 0 {
		c.perm = c.rng.Perm(c.n)
	}
	i := c.perm[0]
	c.perm = c.perm[1:]
	return i
}
