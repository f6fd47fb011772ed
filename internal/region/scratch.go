package region

import (
	"math"
	"slices"
	"unsafe"

	"perseus/internal/grid"
)

// evalScratch is the planner's evaluation state — compile buffers plus
// a reusable grid solver — shared by every candidate it evaluates.
type evalScratch struct {
	compileScratch
	solver grid.Solver
}

// outcome is a light evaluation result: the fields candidate
// comparison reads, without the materialized plan the commit path
// needs.
type outcome struct {
	cost     float64 // objective incl. migration; only valid when feasible
	coverage float64
	price    float64 // the inner plan's λ (grid.Evaluation.Price), -1 when infeasible
	feasible bool
}

// betterOutcome mirrors eval.better on light results; bOK is false
// when there is no incumbent yet.
func betterOutcome(a, b outcome, bOK bool) bool {
	if !bOK {
		return true
	}
	if a.feasible != b.feasible {
		return a.feasible
	}
	if a.feasible {
		return a.cost < b.cost-1e-9*(1+math.Abs(b.cost))
	}
	if math.Abs(a.coverage-b.coverage) > 1e-9*(1+b.coverage) {
		return a.coverage > b.coverage
	}
	return a.cost < b.cost-1e-9*(1+math.Abs(b.cost))
}

// jobMemo memoizes one job's light evaluations by placement for a whole
// solve. What a placement costs a job depends on the other jobs only
// through the power they draw at capped (region, cell)s — GPU capacity
// decides which placements get proposed, never what one costs — so an
// outcome is a pure function of (placement, view), where view is the
// others' committed peak power at the planner's capAt cells when the
// memo was filled. planner.sync resets the memo whenever the live view
// differs, so a stale entry is never read; with no cap anywhere the
// view is empty and every descent, incumbent re-evaluation and swap of
// the solve reads the same table. Keys are FNV-1a hashes verified
// against the stored placement, so a hash collision degrades to a
// duplicate solve, never a wrong result.
type jobMemo struct {
	keys    map[uint64]int32
	entries []memoEntry
	arena   []int     // interned placements, back to back
	view    []float64 // peakW at planner.capAt when the entries were solved
	peak    int       // largest bytes() a reset has dropped
}

type memoEntry struct {
	off, n int32 // placement = arena[off : off+n]
	out    outcome
	solved bool
}

func (m *jobMemo) reset() {
	m.peak = max(m.peak, m.bytes())
	if m.keys == nil {
		m.keys = make(map[uint64]int32)
	} else {
		clear(m.keys)
	}
	m.entries = m.entries[:0]
	m.arena = m.arena[:0]
}

// bytes sizes the memo's live contents (lengths, not capacities).
func (m *jobMemo) bytes() int {
	const keyBytes = 12 // uint64 hash + int32 index
	return len(m.arena)*int(unsafe.Sizeof(int(0))) + len(m.entries)*int(unsafe.Sizeof(memoEntry{})) + len(m.keys)*keyBytes
}

// placement returns entry e's interned placement (arena-backed: valid
// until the next intern).
func (m *jobMemo) placement(e int32) []int {
	ent := &m.entries[e]
	return m.arena[ent.off : ent.off+ent.n]
}

func hashPlacement(pl []int) uint64 {
	h := uint64(14695981039346656037)
	for _, r := range pl {
		h ^= uint64(uint32(r + 1))
		h *= 1099511628211
	}
	return h
}

// intern returns the entry index for the placement, copying it into
// the arena and adding an unsolved entry on first sight.
func (m *jobMemo) intern(pl []int) int32 {
	h := hashPlacement(pl)
	if e, ok := m.keys[h]; ok && slices.Equal(m.placement(e), pl) {
		return e
	}
	off := int32(len(m.arena))
	m.arena = append(m.arena, pl...)
	e := int32(len(m.entries))
	m.entries = append(m.entries, memoEntry{off: off, n: int32(len(pl))})
	if _, taken := m.keys[h]; !taken {
		m.keys[h] = e
	}
	return e
}
