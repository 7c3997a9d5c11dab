package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteDIMACS exports the solver's problem clauses (not learnt clauses) in
// DIMACS CNF format, so the encodings can be handed to external SAT solvers.
// Level-0 unit assignments made during AddClause simplification are exported
// as unit clauses, preserving equisatisfiability.
func (s *Solver) WriteDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	nUnits := 0
	nVars := s.NumVars()
	for v := 0; v < nVars; v++ {
		if s.vals[PosLit(v)] != lUndef && s.level(v) == 0 {
			nUnits++
		}
	}
	nClauses := len(s.clauses) + nUnits
	if s.unsatFlag {
		nClauses++ // the empty clause
	}
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", nVars, nClauses); err != nil {
		return err
	}
	for v := 0; v < nVars; v++ {
		if s.vals[PosLit(v)] != lUndef && s.level(v) == 0 {
			lit := v + 1
			if s.vals[PosLit(v)] == lFalse {
				lit = -lit
			}
			if _, err := fmt.Fprintf(bw, "%d 0\n", lit); err != nil {
				return err
			}
		}
	}
	for _, c := range s.clauses {
		for _, l := range s.ca.lits(c) {
			x := l.Var() + 1
			if l.Neg() {
				x = -x
			}
			if _, err := fmt.Fprintf(bw, "%d ", x); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw, "0"); err != nil {
			return err
		}
	}
	if s.unsatFlag {
		if _, err := fmt.Fprintln(bw, "0"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadDIMACS parses a DIMACS CNF problem into a fresh solver. It tolerates
// comment lines and free-form whitespace.
func ReadDIMACS(r io.Reader) (*Solver, error) {
	s := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	declaredVars := -1
	var clause []Lit
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("sat: malformed problem line %q", line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("sat: bad variable count in %q", line)
			}
			declaredVars = n
			for s.NumVars() < n {
				s.NewVar()
			}
			continue
		}
		for _, tok := range strings.Fields(line) {
			x, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("sat: bad literal %q", tok)
			}
			if x == 0 {
				s.AddClause(clause...)
				clause = clause[:0]
				continue
			}
			v := x
			if v < 0 {
				v = -v
			}
			if declaredVars >= 0 && v > declaredVars {
				return nil, fmt.Errorf("sat: literal %d exceeds declared variable count %d", x, declaredVars)
			}
			for s.NumVars() < v {
				s.NewVar()
			}
			clause = append(clause, MkLit(v-1, x < 0))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(clause) > 0 {
		return nil, fmt.Errorf("sat: unterminated clause at end of input")
	}
	return s, nil
}
