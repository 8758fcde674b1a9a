// Package core implements AB-ORAM, the paper's contribution: adjustable
// buckets for Ring ORAM built from two mechanisms —
//
//   - Dead-block Reclaim (DR): per-level on-chip FIFO queues (DeadQ) track
//     slots invalidated by ReadPath operations; reshuffles reuse them
//     through remote allocation to extend a bucket's S value beyond its
//     physical allocation (§V-B).
//   - Non-uniform S (NS): statically smaller S values for the levels close
//     to the leaves, trading a few extra EarlyReshuffles for large space
//     savings (§V-C2).
//
// The protocol engine lives in internal/ringoram; this package provides
// the DeadQ allocator, the five evaluated scheme configurations
// (Baseline / IR / DR / NS / AB, §VII), and constructors that wire them
// together.
package core

import (
	"fmt"
	"strings"

	"repro/internal/ringoram"
)

// DeadQStats tracks allocator activity for the harness.
type DeadQStats struct {
	Offers         uint64 // dead slots presented by gatherDEADs
	Accepted       uint64 // slots enqueued
	RejectedFull   uint64 // offers dropped because the queue was full
	RejectedLevel  uint64 // offers outside the tracked levels
	Claims         uint64 // slots handed out for remote allocation
	ClaimShortfall uint64 // requested-but-unavailable slots
	Releases       uint64 // slots returned by reshuffled guests
}

// DeadQ is the AB-ORAM dead-block pool: one bounded FIFO per tracked tree
// level (§V-B2). It implements ringoram.RemoteAllocator.
//
// The queues are plain ring buffers over SlotRef; all operations are O(1).
// Per the paper the queues live on-chip and hold ~1000 entries each, a
// 21 KB budget (§VIII-H) verified by internal/metadata.
type DeadQ struct {
	minLevel int
	maxLevel int
	capacity int
	queues   []fifo // index: level - minLevel
	stats    DeadQStats
	claimed  []ringoram.SlotRef // Claim's result storage, reused
}

// fifo is a fixed-capacity ring buffer of SlotRefs.
type fifo struct {
	buf        []ringoram.SlotRef
	head, size int
}

func (f *fifo) push(r ringoram.SlotRef) bool {
	if f.size == len(f.buf) {
		return false
	}
	f.buf[(f.head+f.size)%len(f.buf)] = r
	f.size++
	return true
}

func (f *fifo) pop() (ringoram.SlotRef, bool) {
	if f.size == 0 {
		return ringoram.SlotRef{}, false
	}
	r := f.buf[f.head]
	f.head = (f.head + 1) % len(f.buf)
	f.size--
	return r, true
}

// NewDeadQ builds queues for levels [minLevel, maxLevel] with the given
// per-level capacity.
func NewDeadQ(minLevel, maxLevel, capacity int) (*DeadQ, error) {
	caps := make([]int, maxLevel-minLevel+1)
	for i := range caps {
		caps[i] = capacity
	}
	return NewDeadQSized(minLevel, caps)
}

// NewDeadQSized builds queues for levels [minLevel, minLevel+len(caps))
// with individual capacities. Queues should not outsize their level's
// dead-slot population: an entry that lingers past its home bucket's next
// reshuffle goes stale (the home reclaims the slot), so small levels want
// proportionally small queues.
func NewDeadQSized(minLevel int, caps []int) (*DeadQ, error) {
	if minLevel < 0 || len(caps) == 0 {
		return nil, fmt.Errorf("core: invalid DeadQ level range (min %d, %d levels)", minLevel, len(caps))
	}
	q := &DeadQ{minLevel: minLevel, maxLevel: minLevel + len(caps) - 1}
	q.queues = make([]fifo, len(caps))
	for i, c := range caps {
		if c <= 0 {
			return nil, fmt.Errorf("core: non-positive DeadQ capacity %d at level %d", c, minLevel+i)
		}
		if c > q.capacity {
			q.capacity = c
		}
		q.queues[i] = fifo{buf: make([]ringoram.SlotRef, c)}
	}
	return q, nil
}

// MustNewDeadQ is NewDeadQ that panics on error.
func MustNewDeadQ(minLevel, maxLevel, capacity int) *DeadQ {
	q, err := NewDeadQ(minLevel, maxLevel, capacity)
	if err != nil {
		panic(err)
	}
	return q
}

// Offer implements ringoram.RemoteAllocator.
func (q *DeadQ) Offer(level int, ref ringoram.SlotRef) bool {
	q.stats.Offers++
	if level < q.minLevel || level > q.maxLevel {
		q.stats.RejectedLevel++
		return false
	}
	if !q.queues[level-q.minLevel].push(ref) {
		q.stats.RejectedFull++
		return false
	}
	q.stats.Accepted++
	return true
}

// Claim implements ringoram.RemoteAllocator.
func (q *DeadQ) Claim(level, want int) []ringoram.SlotRef {
	if level < q.minLevel || level > q.maxLevel || want <= 0 {
		return nil
	}
	f := &q.queues[level-q.minLevel]
	out := q.claimed[:0]
	for len(out) < want {
		r, ok := f.pop()
		if !ok {
			break
		}
		out = append(out, r)
	}
	q.claimed = out
	q.stats.Claims += uint64(len(out))
	q.stats.ClaimShortfall += uint64(want - len(out))
	return out
}

// Release implements ringoram.RemoteAllocator: a slot returned by a
// reshuffled guest is a known-dead slot and is re-pooled immediately
// unless its queue is full.
func (q *DeadQ) Release(level int, ref ringoram.SlotRef) bool {
	q.stats.Releases++
	if level < q.minLevel || level > q.maxLevel {
		return false
	}
	return q.queues[level-q.minLevel].push(ref)
}

// Len returns the current occupancy of the queue for a level (0 for
// untracked levels).
func (q *DeadQ) Len(level int) int {
	if level < q.minLevel || level > q.maxLevel {
		return 0
	}
	return q.queues[level-q.minLevel].size
}

// Stats returns a copy of the allocator statistics.
func (q *DeadQ) Stats() DeadQStats { return q.stats }

// CacheKey describes the allocator by its construction parameters (level
// range and per-level capacities). Two freshly built DeadQs with equal
// keys behave identically, which lets internal/sim's run-cache treat the
// jobs using them as interchangeable.
func (q *DeadQ) CacheKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "deadq@%d:", q.minLevel)
	for i := range q.queues {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", len(q.queues[i].buf))
	}
	return b.String()
}

// TrackedLevels returns the number of levels with a queue.
func (q *DeadQ) TrackedLevels() int { return q.maxLevel - q.minLevel + 1 }

// QueuedLevel is one level's queued references, oldest first.
type QueuedLevel struct {
	Level int
	Refs  []ringoram.SlotRef
}

// Snapshot returns the non-empty queues in ascending level order, for
// checkpointing alongside a ringoram.Delta.
func (q *DeadQ) Snapshot() []QueuedLevel {
	var out []QueuedLevel
	for i := range q.queues {
		f := &q.queues[i]
		if f.size == 0 {
			continue
		}
		refs := make([]ringoram.SlotRef, 0, f.size)
		for j := 0; j < f.size; j++ {
			refs = append(refs, f.buf[(f.head+j)%len(f.buf)])
		}
		out = append(out, QueuedLevel{Level: q.minLevel + i, Refs: refs})
	}
	return out
}

// Restore refills the queues from a Snapshot. Existing contents are
// discarded; entries beyond a level's capacity are dropped (they would
// have been rejected at Offer time too).
func (q *DeadQ) Restore(snap []QueuedLevel) error {
	for _, ql := range snap {
		if ql.Level < q.minLevel || ql.Level > q.maxLevel {
			return fmt.Errorf("core: snapshot level %d outside [%d, %d]", ql.Level, q.minLevel, q.maxLevel)
		}
	}
	for i := range q.queues {
		q.queues[i].head, q.queues[i].size = 0, 0
	}
	for _, ql := range snap {
		f := &q.queues[ql.Level-q.minLevel]
		for _, ref := range ql.Refs {
			if !f.push(ref) {
				break
			}
		}
	}
	return nil
}
