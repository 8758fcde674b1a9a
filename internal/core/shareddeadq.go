package core

import (
	"fmt"

	"repro/internal/ringoram"
)

// SharedDeadQ is the ablation counterpart of DeadQ: a single FIFO shared
// by every tracked level instead of one queue per level. The paper keeps
// per-level queues because dead-block lifetimes differ by orders of
// magnitude between levels (Fig 12); with a shared queue, long-lived
// bottom-level entries crowd out short-lived upper-level ones and claims
// must skip over mismatched levels. BenchmarkAblationSharedDeadQ
// quantifies the resulting drop in extension ratio.
//
// Claim scans from the head, rotating non-matching entries to the tail, so
// a claim is O(queue) worst case — itself an argument for per-level
// queues.
type SharedDeadQ struct {
	minLevel int
	maxLevel int
	q        fifo
	levels   fifo // level of each queued entry, kept in lockstep
	stats    DeadQStats
	claimed  []ringoram.SlotRef // Claim's result storage, reused
}

// NewSharedDeadQ builds a single queue covering [minLevel, maxLevel] with
// the given total capacity.
func NewSharedDeadQ(minLevel, maxLevel, capacity int) (*SharedDeadQ, error) {
	if minLevel < 0 || maxLevel < minLevel {
		return nil, fmt.Errorf("core: invalid SharedDeadQ level range [%d, %d]", minLevel, maxLevel)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("core: non-positive SharedDeadQ capacity %d", capacity)
	}
	return &SharedDeadQ{
		minLevel: minLevel,
		maxLevel: maxLevel,
		q:        fifo{buf: make([]ringoram.SlotRef, capacity)},
		levels:   fifo{buf: make([]ringoram.SlotRef, capacity)},
	}, nil
}

// Offer implements ringoram.RemoteAllocator.
func (s *SharedDeadQ) Offer(level int, ref ringoram.SlotRef) bool {
	s.stats.Offers++
	if level < s.minLevel || level > s.maxLevel {
		s.stats.RejectedLevel++
		return false
	}
	if !s.q.push(ref) {
		s.stats.RejectedFull++
		return false
	}
	s.levels.push(ringoram.SlotRef{Slot: level})
	s.stats.Accepted++
	return true
}

// Claim implements ringoram.RemoteAllocator: pop entries, rotating
// level-mismatched ones back to the tail.
func (s *SharedDeadQ) Claim(level, want int) []ringoram.SlotRef {
	if level < s.minLevel || level > s.maxLevel || want <= 0 {
		return nil
	}
	out := s.claimed[:0]
	for scanned, n := 0, s.q.size; scanned < n && len(out) < want; scanned++ {
		ref, _ := s.q.pop()
		lv, _ := s.levels.pop()
		if lv.Slot == level {
			out = append(out, ref)
			continue
		}
		s.q.push(ref)
		s.levels.push(lv)
	}
	s.claimed = out
	s.stats.Claims += uint64(len(out))
	s.stats.ClaimShortfall += uint64(want - len(out))
	return out
}

// Release implements ringoram.RemoteAllocator.
func (s *SharedDeadQ) Release(level int, ref ringoram.SlotRef) bool {
	s.stats.Releases++
	if level < s.minLevel || level > s.maxLevel || !s.q.push(ref) {
		return false
	}
	s.levels.push(ringoram.SlotRef{Slot: level})
	return true
}

// Len returns the shared queue's occupancy (level is ignored beyond range
// checking, since entries are pooled).
func (s *SharedDeadQ) Len(level int) int {
	if level < s.minLevel || level > s.maxLevel {
		return 0
	}
	return s.q.size
}

// Stats returns a copy of the allocator statistics.
func (s *SharedDeadQ) Stats() DeadQStats { return s.stats }

// CacheKey describes the allocator by its construction parameters; see
// DeadQ.CacheKey.
func (s *SharedDeadQ) CacheKey() string {
	return fmt.Sprintf("shareddeadq@%d-%d:%d", s.minLevel, s.maxLevel, len(s.q.buf))
}
