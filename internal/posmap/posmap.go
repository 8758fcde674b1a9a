// Package posmap implements the ORAM position map — the trusted mapping
// from block ID to tree path — together with a model of the on-chip
// position-map lookaside buffer (PLB) from Table III of the paper.
//
// Following the paper's methodology (and the USIMM-based ORAM literature it
// builds on), position-map lookups are serviced on-chip: the 512 KB PosMap
// plus 64 KB PLB hold the hot mapping state, and recursive position-map
// ORAMs are out of scope. The PLB model still tracks hit rates so
// experiments can report locality, and misses can be charged a fixed
// on-chip latency by the timing layer.
package posmap

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/tree"
)

// Map maps every block ID to its current path and handles random remapping.
type Map struct {
	geom tree.Geometry
	pos  []int64
	r    *rng.Source

	plb *plb

	lookups uint64
	remaps  uint64

	// Dirty tracking for incremental checkpoints: Remap stamps the entry
	// with the current epoch clock, Cut closes the epoch, CaptureDirty
	// collects the entries remapped since a cut. Volatile — full
	// checkpoints (Positions) carry no stamps.
	clock      uint64
	entryEpoch []uint64
}

// New creates a position map for numBlocks blocks, each assigned a uniform
// random initial path drawn from r. plbEntries > 0 enables the PLB model.
func New(g tree.Geometry, numBlocks int64, r *rng.Source, plbEntries int) (*Map, error) {
	if numBlocks <= 0 {
		return nil, fmt.Errorf("posmap: non-positive block count %d", numBlocks)
	}
	m := &Map{
		geom:       g,
		pos:        make([]int64, numBlocks),
		r:          r,
		clock:      1,
		entryEpoch: make([]uint64, numBlocks),
	}
	for i := range m.pos {
		m.pos[i] = int64(r.Uint64n(uint64(g.NumPaths())))
	}
	if plbEntries > 0 {
		m.plb = newPLB(plbEntries)
	}
	return m, nil
}

// NumBlocks returns the number of mapped blocks.
func (m *Map) NumBlocks() int64 { return int64(len(m.pos)) }

// Lookup returns the block's current path and whether the PLB hit.
// With the PLB disabled, hit is always true (pure on-chip PosMap).
func (m *Map) Lookup(block int64) (path int64, plbHit bool) {
	m.lookups++
	plbHit = true
	if m.plb != nil {
		plbHit = m.plb.touch(block)
	}
	return m.pos[block], plbHit
}

// Remap assigns the block a fresh uniform random path and returns it.
// Ring ORAM remaps on every online access (§III-B block remap).
func (m *Map) Remap(block int64) int64 {
	m.remaps++
	p := int64(m.r.Uint64n(uint64(m.geom.NumPaths())))
	m.pos[block] = p
	m.entryEpoch[block] = m.clock
	return p
}

// Peek returns the current path without touching statistics or the PLB;
// for assertions and eviction eligibility checks.
func (m *Map) Peek(block int64) int64 { return m.pos[block] }

// Lookups returns the total Lookup count.
func (m *Map) Lookups() uint64 { return m.lookups }

// Remaps returns the total Remap count.
func (m *Map) Remaps() uint64 { return m.remaps }

// PLBHitRate returns the fraction of lookups that hit the PLB, or 1 when
// the PLB model is disabled.
func (m *Map) PLBHitRate() float64 {
	if m.plb == nil || m.plb.hits+m.plb.misses == 0 {
		return 1
	}
	return float64(m.plb.hits) / float64(m.plb.hits+m.plb.misses)
}

// plb is a direct-mapped tag cache over block IDs: a cheap stand-in for
// the 64 KB PLB that still produces realistic hit/miss streams for
// temporally local workloads.
type plb struct {
	tags         []int64
	hits, misses uint64
}

func newPLB(entries int) *plb {
	// Round up to a power of two for mask indexing.
	n := 1
	for n < entries {
		n <<= 1
	}
	t := make([]int64, n)
	for i := range t {
		t[i] = -1
	}
	return &plb{tags: t}
}

func (p *plb) touch(block int64) bool {
	idx := int(uint64(block) & uint64(len(p.tags)-1))
	if p.tags[idx] == block {
		p.hits++
		return true
	}
	p.tags[idx] = block
	p.misses++
	return false
}

// Positions returns a copy of the full block-to-path mapping, for
// checkpointing.
func (m *Map) Positions() []int64 {
	out := make([]int64, len(m.pos))
	copy(out, m.pos)
	return out
}

// Rand exposes the remap random stream so checkpointing can preserve the
// exact sequence of future path assignments.
func (m *Map) Rand() *rng.Source { return m.r }

// Cut closes the current mutation epoch and opens the next, returning
// the epoch just closed (the `since` for a later CaptureDirty).
func (m *Map) Cut() uint64 {
	e := m.clock
	m.clock++
	return e
}

// CaptureDirty returns the (block, path) pairs remapped after `since`
// (exclusive), in ascending block order. since=0 captures only entries
// remapped at least once — initial random assignments are never
// stamped, so full captures go through Positions.
func (m *Map) CaptureDirty(since uint64) (blocks, paths []int64) {
	for b := range m.entryEpoch {
		if m.entryEpoch[b] <= since {
			continue
		}
		blocks = append(blocks, int64(b))
		paths = append(paths, m.pos[b])
	}
	return blocks, paths
}

// SetPosition installs one entry of a captured checkpoint, validating
// both the block and the path range.
func (m *Map) SetPosition(block, path int64) error {
	if block < 0 || block >= m.NumBlocks() {
		return fmt.Errorf("posmap: restored block %d out of range", block)
	}
	if path < 0 || path >= m.geom.NumPaths() {
		return fmt.Errorf("posmap: restored path %d out of range", path)
	}
	m.pos[block] = path
	m.entryEpoch[block] = m.clock
	return nil
}
