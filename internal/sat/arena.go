package sat

import "math"

// ClauseRef addresses a clause inside the arena: it is the word offset of the
// clause header in clauseArena.data. Watchers, assignment reasons and the
// clause databases all hold ClauseRefs instead of pointers, which keeps the
// hot propagation structures compact (8-byte watchers), keeps all literals of
// all clauses in one contiguous allocation the GC never scans element-wise,
// and makes cloning a solver for the parallel portfolio a plain copy of the
// backing slice.
type ClauseRef int32

// CRefUndef is the distinguished "no clause" reference (decision or
// level-0 assumption reasons).
const CRefUndef ClauseRef = -1

// Arena clause layout, in []Lit words starting at the ClauseRef offset:
//
//	word 0: header — size<<2 | learnt<<1 | relocated
//	word 1: float32 activity bits (learnt clauses; scratch otherwise),
//	        or the forwarding ClauseRef while relocated (during GC)
//	word 2…: the literals
//
// The relocated bit is only ever set transiently inside garbageCollect.
const (
	hdrWords    = 2
	flagLearnt  = 1 << 1
	flagReloc   = 1 << 0
	hdrSizeShft = 2
)

// clauseArena is a bump allocator for clauses over one flat literal slice.
type clauseArena struct {
	data []Lit
	// wasted counts the words occupied by freed clauses; garbageCollect
	// reclaims them once the ratio justifies the copy.
	wasted int
}

// alloc appends a clause and returns its reference.
func (ca *clauseArena) alloc(lits []Lit, learnt bool) ClauseRef {
	r := ClauseRef(len(ca.data))
	hdr := Lit(len(lits)) << hdrSizeShft
	if learnt {
		hdr |= flagLearnt
	}
	ca.data = append(ca.data, hdr, 0)
	ca.data = append(ca.data, lits...)
	return r
}

// size returns the number of literals of the clause at r.
func (ca *clauseArena) size(r ClauseRef) int {
	return int(ca.data[r] >> hdrSizeShft)
}

// learnt reports whether the clause at r is a learnt clause.
func (ca *clauseArena) learnt(r ClauseRef) bool {
	return ca.data[r]&flagLearnt != 0
}

// lits returns the literal slice of the clause at r, aliasing the arena:
// in-place swaps (watch maintenance) write through.
func (ca *clauseArena) lits(r ClauseRef) []Lit {
	n := int(ca.data[r] >> hdrSizeShft)
	return ca.data[int(r)+hdrWords : int(r)+hdrWords+n : int(r)+hdrWords+n]
}

// act returns the activity of the learnt clause at r.
func (ca *clauseArena) act(r ClauseRef) float32 {
	return math.Float32frombits(uint32(ca.data[r+1]))
}

// setAct stores the activity of the learnt clause at r.
func (ca *clauseArena) setAct(r ClauseRef, a float32) {
	ca.data[r+1] = Lit(int32(math.Float32bits(a)))
}

// free marks the clause's words as dead. The words are reclaimed by the next
// garbage collection; until then the clause contents stay readable (stale
// references compare unequal to any live reference but never fault).
func (ca *clauseArena) free(r ClauseRef) {
	ca.wasted += ca.size(r) + hdrWords
}

// gcWorthIt reports whether wasted dead words in an arena of size words
// justify compaction. Package tests replace it to force collections on
// small instances.
var gcWorthIt = func(wasted, size int) bool {
	return wasted > 4096 && wasted*4 > size
}

// shouldGC reports whether enough of the arena is dead to justify compaction.
func (ca *clauseArena) shouldGC() bool { return gcWorthIt(ca.wasted, len(ca.data)) }

// garbageCollect compacts the arena, dropping freed clauses and rewriting
// every live reference (clause databases, watchers, assignment reasons).
// It must run at decision level 0 — the only reasons alive there belong to
// the level-0 trail, which is walked below.
func (s *Solver) garbageCollect() {
	s.stats.ArenaGCs++
	old := s.ca.data
	nd := make([]Lit, 0, len(old)-s.ca.wasted)
	move := func(r ClauseRef) ClauseRef {
		hdr := old[r]
		if hdr&flagReloc != 0 {
			return ClauseRef(old[r+1])
		}
		n := int(hdr>>hdrSizeShft) + hdrWords
		nr := ClauseRef(len(nd))
		nd = append(nd, old[int(r):int(r)+n]...)
		old[r] = hdr | flagReloc
		old[r+1] = Lit(nr)
		return nr
	}
	for i, r := range s.clauses {
		s.clauses[i] = move(r)
	}
	for i, r := range s.learnts {
		s.learnts[i] = move(r)
	}
	for l := range s.watches {
		ws := s.watches[l]
		for i := range ws {
			ws[i].cref = move(ws[i].clause()) | ws[i].cref&binFlag
		}
	}
	for _, l := range s.trail {
		v := l.Var()
		if r := s.vardata[v].reason; r != CRefUndef {
			s.vardata[v].reason = move(r)
		}
	}
	s.ca.data = nd
	s.ca.wasted = 0
}
