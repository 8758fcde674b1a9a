// Package stash implements the ORAM controller's on-chip stash: the small
// trusted buffer that holds real data blocks between the moment they are
// read off the tree and the moment an eviction writes them back.
//
// The stash is shared by Path ORAM, Ring ORAM, and AB-ORAM. Its occupancy
// statistics drive two protocol mechanisms the paper leans on:
//
//   - background eviction (bucket compaction inserts dummy accesses when
//     occupancy crosses a threshold, §III-C), and
//   - the overflow check: a correct configuration must never exceed the
//     hardware capacity (300 entries in Table III).
//
// Internally the stash is a dense slice with a block-ID index, so the
// eviction planners iterate a contiguous array rather than a map — the
// stash is scanned on every reshuffle, making this the hottest data
// structure in the simulator.
package stash

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/tree"
)

// Entry is one stashed real block and its current path assignment.
type Entry struct {
	Block int64 // block ID
	Path  int64 // the path the block is mapped to (current position map value)
}

// Stash holds real blocks pending eviction. Lookup, insert, and delete are
// O(1); eviction candidate selection scans the (small) stash once.
type Stash struct {
	capacity int
	entries  []Entry
	index    map[int64]int // block ID -> position in entries

	peak      int
	overflows uint64

	plan  EvictionPlan // PlanEviction's plan, reused across evictions
	taken []Entry      // Take/TakeEligible result storage, reused
}

// New returns a stash with the given hardware capacity (maximum entries).
// capacity <= 0 means unbounded, useful for protocol-exploration tests.
func New(capacity int) *Stash {
	return &Stash{capacity: capacity, index: make(map[int64]int)}
}

// Size returns the current number of stashed blocks.
func (s *Stash) Size() int { return len(s.entries) }

// Capacity returns the configured capacity (<= 0 for unbounded).
func (s *Stash) Capacity() int { return s.capacity }

// Peak returns the maximum occupancy ever observed.
func (s *Stash) Peak() int { return s.peak }

// Overflows returns how many Put calls exceeded capacity. A nonzero value
// means the configuration is unsafe; the simulator surfaces it as a
// protocol failure rather than silently dropping blocks.
func (s *Stash) Overflows() uint64 { return s.overflows }

// Put inserts or updates a block's stash entry.
func (s *Stash) Put(block, path int64) {
	if i, ok := s.index[block]; ok {
		s.entries[i].Path = path
		return
	}
	s.index[block] = len(s.entries)
	s.entries = append(s.entries, Entry{Block: block, Path: path})
	if len(s.entries) > s.peak {
		s.peak = len(s.entries)
	}
	if s.capacity > 0 && len(s.entries) > s.capacity {
		s.overflows++
	}
}

// Contains reports whether the block is stashed.
func (s *Stash) Contains(block int64) bool {
	_, ok := s.index[block]
	return ok
}

// Path returns the stashed block's path; ok is false if absent.
func (s *Stash) Path(block int64) (int64, bool) {
	i, ok := s.index[block]
	if !ok {
		return 0, false
	}
	return s.entries[i].Path, true
}

// SetPath updates the path of a stashed block (remap while stashed).
// It panics if the block is not present: remapping a non-resident block
// is a protocol bug.
func (s *Stash) SetPath(block, path int64) {
	i, ok := s.index[block]
	if !ok {
		panic(fmt.Sprintf("stash: SetPath on absent block %d", block))
	}
	s.entries[i].Path = path
}

// Remove deletes the block, reporting whether it was present.
func (s *Stash) Remove(block int64) bool {
	i, ok := s.index[block]
	if !ok {
		return false
	}
	s.removeAt(i)
	return true
}

// removeAt deletes position i by swapping in the last entry.
func (s *Stash) removeAt(i int) {
	last := len(s.entries) - 1
	moved := s.entries[last]
	delete(s.index, s.entries[i].Block)
	if i != last {
		s.entries[i] = moved
		s.index[moved.Block] = i
	}
	s.entries = s.entries[:last]
}

// TakeEligible removes and returns up to max blocks that may legally be
// placed in the bucket at the given level on evictPath's path: blocks whose
// own path shares the eviction path down to at least that level.
//
// Among equally eligible blocks the lowest block IDs win, keeping every
// experiment bit-reproducible regardless of insertion order. The returned
// slice is valid until the next Take or TakeEligible on this stash.
func (s *Stash) TakeEligible(g tree.Geometry, evictPath int64, level, max int) []Entry {
	if max <= 0 {
		return nil
	}
	eligible := s.taken[:0]
	for _, e := range s.entries {
		if g.CommonLevel(e.Path, evictPath) >= level {
			eligible = append(eligible, e)
		}
	}
	s.taken = eligible
	slices.SortFunc(eligible, byBlock)
	if len(eligible) > max {
		eligible = eligible[:max]
	}
	for _, e := range eligible {
		i := s.index[e.Block]
		s.removeAt(i)
	}
	return eligible
}

// byBlock orders entries by block ID. IDs are unique within a stash, so
// the order is total and every sort of one set yields the same sequence.
func byBlock(a, b Entry) int { return cmp.Compare(a.Block, b.Block) }

// EvictionPlan assigns stash blocks to the buckets of one eviction path.
// Build it with PlanEviction, then consume per level from the leaf up.
// A stash owns one plan, so a plan is valid until the next PlanEviction.
type EvictionPlan struct {
	s *Stash
	// byDeepest[l] lists blocks whose deepest legal level on the path is l,
	// sorted by block ID. A block legal at level l is legal at all
	// shallower levels too, so Take(l) may also consume deeper leftovers.
	byDeepest [][]Entry
	cursor    []int // consumption offset per level
}

// PlanEviction scans the stash once and classifies every block by the
// deepest bucket it may occupy on evictPath. This is the O(|stash|)
// replacement for calling TakeEligible once per level (O(L x |stash|)),
// which profiling shows dominates the simulator otherwise.
func (s *Stash) PlanEviction(g tree.Geometry, evictPath int64) *EvictionPlan {
	p := &s.plan
	p.s = s
	if n := g.Levels(); len(p.byDeepest) != n {
		p.byDeepest = make([][]Entry, n)
		p.cursor = make([]int, n)
	}
	for lvl := range p.byDeepest {
		p.byDeepest[lvl] = p.byDeepest[lvl][:0]
		p.cursor[lvl] = 0
	}
	for _, e := range s.entries {
		lvl := g.CommonLevel(e.Path, evictPath)
		p.byDeepest[lvl] = append(p.byDeepest[lvl], e)
	}
	for _, bin := range p.byDeepest {
		slices.SortFunc(bin, byBlock)
	}
	return p
}

// Take removes and returns up to max blocks eligible for the bucket at
// `level`, preferring blocks that cannot go deeper (their deepest level is
// closest to `level`). Must be called leaf-to-root, each level at most
// once. The returned slice is valid until the next Take or TakeEligible
// on the stash.
func (p *EvictionPlan) Take(level, max int) []Entry {
	out := p.s.taken[:0]
	for depth := level; depth < len(p.byDeepest) && len(out) < max; depth++ {
		bin := p.byDeepest[depth]
		for p.cursor[depth] < len(bin) && len(out) < max {
			e := bin[p.cursor[depth]]
			p.cursor[depth]++
			if i, ok := p.s.index[e.Block]; ok && p.s.entries[i] == e {
				p.s.removeAt(i)
				out = append(out, e)
			}
		}
	}
	p.s.taken = out
	return out
}

// All returns a snapshot of every stashed entry, sorted by block ID so
// callers iterate deterministically.
func (s *Stash) All() []Entry {
	out := make([]Entry, len(s.entries))
	copy(out, s.entries)
	slices.SortFunc(out, byBlock)
	return out
}
