package dram

import (
	"fmt"
	"math/bits"
)

// bank tracks one DRAM bank's row-buffer and timing state.
type bank struct {
	openRow       int64  // -1 when no row is open
	readyAt       uint64 // earliest next column/activate command
	prechargeOKAt uint64 // earliest legal precharge (tRAS / tWR / tRTP)
}

// pendingWrite is a buffered write in a channel's write queue. Its
// location is decoded once, when Batch posts it.
type pendingWrite struct {
	addr    uint64
	loc     Location
	arrival uint64
	issued  bool  // drained by the drainChannel in progress
	next    int32 // drainChannel's chain: the next queued write of the same bank, or -1
}

// pendingRead is one read of the current batch awaiting FR-FCFS service.
type pendingRead struct {
	addr uint64
	loc  Location
	done bool
}

// channel is one independent memory channel.
type channel struct {
	banks            []bank
	busFreeAt        uint64 // cycle at which the data bus is next free
	lastWriteDataEnd uint64 // for write->read turnaround (tWTR)
	nextRefreshAt    uint64 // next refresh command deadline (tREFI cadence)
	writeQ           []pendingWrite
	queued           addrSet       // writeQ's addresses, for write-queue forwarding
	reads            []pendingRead // the current batch's reads; reused across batches

	// drainChannel's scratch: each bank's first queued write, and a bit
	// per queued write that is pending and hits its bank's open row.
	bankFirst []int32
	hits      []uint64
}

// Stats aggregates controller-level measurements used by the bandwidth and
// performance figures.
type Stats struct {
	Reads, Writes      uint64
	RowHits, RowMisses uint64 // misses = row closed
	RowConflicts       uint64 // different row open
	WriteQueueForwards uint64 // reads serviced from the write queue
	ForcedWriteDrains  uint64
	Refreshes          uint64
	BusBusyCycles      uint64
	TotalReadLatency   uint64 // sum of (done - arrival) over reads
	BytesTransferred   uint64
}

// Controller is the multi-channel memory controller. It is not safe for
// concurrent use. The simulator's pipeline runs the ORAM protocol on a
// goroutine of its own, but every Batch, Drain and Stats call on a
// controller comes from the one goroutine that prices the accesses.
type Controller struct {
	cfg Config
	am  addrMap // cfg's address-decode constants
	ch  []channel
	st  Stats
}

// NewController builds a controller for the configuration.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, am: cfg.addrMap(), ch: make([]channel, cfg.Channels)}
	for i := range c.ch {
		banks := make([]bank, cfg.Ranks*cfg.Banks)
		for j := range banks {
			banks[j].openRow = -1
		}
		c.ch[i].banks = banks
		c.ch[i].queued = newAddrSet(cfg.WriteQueueCap)
		c.ch[i].bankFirst = make([]int32, len(banks))
		c.ch[i].hits = make([]uint64, (cfg.WriteQueueCap+63)/64)
	}
	return c, nil
}

// MustNewController is NewController that panics on error.
func MustNewController(cfg Config) *Controller {
	c, err := NewController(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Controller) Stats() Stats { return c.st }

// ResetStats zeroes the statistics without disturbing timing state, so a
// warm-up phase can be excluded from measurement exactly as the paper does.
func (c *Controller) ResetStats() { c.st = Stats{} }

// Batch services one ORAM operation's memory traffic. All requests become
// eligible at cycle start. Reads are scheduled FR-FCFS per channel and the
// returned cycle is when the last read's data arrives (the operation's
// critical path). Writes are posted into per-channel write queues and
// drained either when a queue exceeds its capacity (blocking that channel's
// reads, as in USIMM) or later via Drain.
//
// If there are no reads, the returned cycle is start.
func (c *Controller) Batch(start uint64, reads, writes []uint64) uint64 {
	// Post writes first: an operation's writes are logically produced by
	// the on-chip controller and buffered; they only throttle this batch if
	// a queue overflows.
	for _, addr := range writes {
		loc := c.am.decode(addr)
		ch := &c.ch[loc.Channel]
		ch.writeQ = append(ch.writeQ, pendingWrite{addr: addr, loc: loc, arrival: start})
		ch.queued.add(addr)
		if len(ch.writeQ) >= c.cfg.WriteQueueCap {
			c.st.ForcedWriteDrains++
			c.drainChannel(ch, c.cfg.WriteDrainLo, start)
		}
	}
	if len(reads) == 0 {
		return start
	}

	// Partition reads by channel, preserving arrival order within each.
	for i := range c.ch {
		c.ch[i].reads = c.ch[i].reads[:0]
	}
	for _, addr := range reads {
		loc := c.am.decode(addr)
		ch := &c.ch[loc.Channel]
		ch.reads = append(ch.reads, pendingRead{addr: addr, loc: loc})
	}

	done := start
	for i := range c.ch {
		ch := &c.ch[i]
		if len(ch.reads) == 0 {
			continue
		}
		if d := c.serviceReads(ch, start); d > done {
			done = d
		}
	}
	return done
}

// serviceReads schedules a channel's share of a batch with FR-FCFS:
// repeatedly issue the oldest request that hits an open row, or the oldest
// request overall if none hits. Returns the completion cycle of the last
// read.
func (c *Controller) serviceReads(ch *channel, start uint64) uint64 {
	reads := ch.reads
	var last uint64 = start
	for remaining := len(reads); remaining > 0; remaining-- {
		pick := -1
		for i := range reads {
			if reads[i].done {
				continue
			}
			b := &ch.banks[reads[i].loc.Bank]
			if b.openRow == int64(reads[i].loc.Row) {
				pick = i
				break
			}
			if pick == -1 {
				pick = i
			}
		}
		r := &reads[pick]
		r.done = true

		// Write-queue forwarding: a buffered write to the address serves
		// the read.
		if ch.queued.has(r.addr) {
			c.st.Reads++
			c.st.WriteQueueForwards++
			if start > last {
				last = start
			}
			continue
		}
		d := c.issueRead(ch, r.loc, start)
		c.st.Reads++
		c.st.TotalReadLatency += d - start
		c.st.BytesTransferred += uint64(c.cfg.BlockB)
		if d > last {
			last = d
		}
	}
	return last
}

// refresh retires every refresh command due by cycle t. Each refresh
// closes all rows and stalls the channel's banks for tRFC. Far-apart
// catch-ups are collapsed arithmetically: only the last refresh before t
// affects bank state, but all of them are counted.
func (c *Controller) refresh(ch *channel, t uint64) {
	if c.cfg.TREFI == 0 {
		return
	}
	if ch.nextRefreshAt == 0 {
		ch.nextRefreshAt = c.cfg.TREFI
	}
	if ch.nextRefreshAt > t {
		return
	}
	missed := (t-ch.nextRefreshAt)/c.cfg.TREFI + 1
	last := ch.nextRefreshAt + (missed-1)*c.cfg.TREFI
	ch.nextRefreshAt = last + c.cfg.TREFI
	c.st.Refreshes += missed
	end := last + c.cfg.TRFC
	for i := range ch.banks {
		b := &ch.banks[i]
		if b.readyAt < end {
			b.readyAt = end
		}
		if b.prechargeOKAt < end {
			b.prechargeOKAt = end
		}
		b.openRow = -1 // refresh closes open rows
	}
}

// issueRead performs the timing arithmetic for a single read and returns
// the cycle its data burst completes.
func (c *Controller) issueRead(ch *channel, loc Location, arrival uint64) uint64 {
	c.refresh(ch, arrival)
	cfg := &c.cfg
	b := &ch.banks[loc.Bank]
	t := max64(arrival, b.readyAt)

	switch {
	case b.openRow == int64(loc.Row):
		c.st.RowHits++
	case b.openRow == -1:
		c.st.RowMisses++
		t = max64(t, b.prechargeOKAt) // row already precharged; just respect state
		t += cfg.TRCD                 // activate -> column
		b.prechargeOKAt = t - cfg.TRCD + cfg.TRAS
	default:
		c.st.RowConflicts++
		tPre := max64(t, b.prechargeOKAt)
		tAct := tPre + cfg.TRP
		t = tAct + cfg.TRCD
		b.prechargeOKAt = tAct + cfg.TRAS
	}
	b.openRow = int64(loc.Row)

	// Column read command: respect write->read turnaround and bus occupancy.
	tCol := max64(t, ch.lastWriteDataEnd+cfg.TWTR)
	if ch.busFreeAt > tCol+cfg.TCL {
		tCol = ch.busFreeAt - cfg.TCL
	}
	dataStart := tCol + cfg.TCL
	dataEnd := dataStart + cfg.TBurst

	b.readyAt = tCol + cfg.TCCD
	if rtp := tCol + cfg.TRTP; rtp > b.prechargeOKAt {
		b.prechargeOKAt = rtp
	}
	ch.busFreeAt = dataEnd
	c.st.BusBusyCycles += cfg.TBurst
	return dataEnd
}

// issueWrite performs the timing arithmetic for one buffered write.
func (c *Controller) issueWrite(ch *channel, loc Location, arrival uint64) uint64 {
	c.refresh(ch, arrival)
	cfg := &c.cfg
	b := &ch.banks[loc.Bank]
	t := max64(arrival, b.readyAt)

	switch {
	case b.openRow == int64(loc.Row):
		c.st.RowHits++
	case b.openRow == -1:
		c.st.RowMisses++
		t = max64(t, b.prechargeOKAt)
		t += cfg.TRCD
		b.prechargeOKAt = t - cfg.TRCD + cfg.TRAS
	default:
		c.st.RowConflicts++
		tPre := max64(t, b.prechargeOKAt)
		tAct := tPre + cfg.TRP
		t = tAct + cfg.TRCD
		b.prechargeOKAt = tAct + cfg.TRAS
	}
	b.openRow = int64(loc.Row)

	tCol := t
	if ch.busFreeAt > tCol+cfg.TCWL {
		tCol = ch.busFreeAt - cfg.TCWL
	}
	dataStart := tCol + cfg.TCWL
	dataEnd := dataStart + cfg.TBurst

	b.readyAt = tCol + cfg.TCCD
	if wr := dataEnd + cfg.TWR; wr > b.prechargeOKAt {
		b.prechargeOKAt = wr
	}
	ch.lastWriteDataEnd = dataEnd
	ch.busFreeAt = dataEnd
	c.st.BusBusyCycles += cfg.TBurst
	c.st.Writes++
	c.st.BytesTransferred += uint64(c.cfg.BlockB)
	return dataEnd
}

// drainChannel issues buffered writes until the queue shrinks to target
// entries. Each pick is the oldest write that hits its bank's open row, or
// the oldest write if none does. Issued writes are marked and the queue is
// compacted once at the end, in order, instead of shifting it per pick.
//
// The oldest row hit is the lowest set bit of a bitmap over the queue, so
// a pick costs O(queue/64) words. The bitmap changes only where an issue
// changes row-buffer state: a hit leaves every open row as it was, a miss
// opens a new row in one bank, whose writes are chained in arrival order
// and marked, and a refresh closes every row, which re-marks the queue.
func (c *Controller) drainChannel(ch *channel, target int, now uint64) {
	q := ch.writeQ
	first := ch.bankFirst
	for b := range first {
		first[b] = -1
	}
	for i := len(q) - 1; i >= 0; i-- {
		b := q[i].loc.Bank
		q[i].next = first[b]
		first[b] = int32(i)
	}
	hits := ch.hits[:(len(q)+63)/64]
	markHits(ch, q, hits)
	head := 0 // q[:head] is all issued
	for n := len(q); n > target; n-- {
		for q[head].issued {
			head++
		}
		pick, hit := head, false
		for k, word := range hits {
			if word != 0 {
				pick, hit = k*64+bits.TrailingZeros64(word), true
				break
			}
		}
		w := &q[pick]
		w.issued = true
		hits[pick/64] &^= 1 << (pick % 64)
		refreshes := c.st.Refreshes
		c.issueWrite(ch, w.loc, max64(w.arrival, now))
		switch {
		case c.st.Refreshes != refreshes:
			markHits(ch, q, hits)
		case !hit:
			// No write was a hit, and w opened its row: mark the bank's
			// other writes to it. They all come after w in the bank's
			// chain, since w was the oldest pending write of all.
			for j := w.next; j >= 0; j = q[j].next {
				if !q[j].issued && q[j].loc.Row == w.loc.Row {
					hits[j/64] |= 1 << (j % 64)
				}
			}
		}
	}
	ch.queued.clear()
	kept := q[:0]
	for _, w := range q {
		if !w.issued {
			kept = append(kept, w)
			ch.queued.add(w.addr)
		}
	}
	ch.writeQ = kept
}

// markHits sets hits[i] for each pending write q[i] that hits its bank's
// open row, and clears it for every other.
func markHits(ch *channel, q []pendingWrite, hits []uint64) {
	clear(hits)
	for i := range q {
		if !q[i].issued && ch.banks[q[i].loc.Bank].openRow == int64(q[i].loc.Row) {
			hits[i/64] |= 1 << (i % 64)
		}
	}
}

// Drain flushes all buffered writes on every channel and returns the cycle
// when the last one completes (or now if none were pending).
func (c *Controller) Drain(now uint64) uint64 {
	end := now
	for i := range c.ch {
		ch := &c.ch[i]
		for _, w := range ch.writeQ {
			if d := c.issueWrite(ch, w.loc, max64(w.arrival, now)); d > end {
				end = d
			}
		}
		ch.writeQ = ch.writeQ[:0]
		ch.queued.clear()
	}
	return end
}

// PendingWrites returns the total buffered write count across channels.
func (c *Controller) PendingWrites() int {
	n := 0
	for i := range c.ch {
		n += len(c.ch[i].writeQ)
	}
	return n
}

// RowHitRate returns row hits / all row-buffer lookups.
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses + s.RowConflicts
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// AvgReadLatency returns the mean read latency in cycles.
func (s Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	// Forwarded reads contribute zero latency, which is intended: they
	// never left the controller.
	return float64(s.TotalReadLatency) / float64(s.Reads)
}

// String summarizes the stats for logs.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d rowHit=%.2f fwd=%d bytes=%d",
		s.Reads, s.Writes, s.RowHitRate(), s.WriteQueueForwards, s.BytesTransferred)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// addrSet is the set of a write queue's addresses: an open-addressing
// hash table with linear probing. A queue never holds more than
// WriteQueueCap writes, so sized at twice that the table is at most half
// full, and a read's forwarding check is a short probe, not a queue scan.
// Nothing is ever deleted: drainChannel rebuilds the set from the writes
// it keeps.
type addrSet struct {
	keys  []uint64
	used  []bool
	shift uint // 64 - log2(len(keys))
}

func newAddrSet(maxKeys int) addrSet {
	bits := uint(3)
	for 1<<bits < 2*maxKeys {
		bits++
	}
	return addrSet{keys: make([]uint64, 1<<bits), used: make([]bool, 1<<bits), shift: 64 - bits}
}

// slot returns addr's slot, or the empty slot where it would go. Probing
// starts at addr's Fibonacci hash.
func (t *addrSet) slot(addr uint64) int {
	mask := len(t.keys) - 1
	i := int(addr * 0x9e3779b97f4a7c15 >> t.shift)
	for t.used[i] && t.keys[i] != addr {
		i = (i + 1) & mask
	}
	return i
}

func (t *addrSet) has(addr uint64) bool { return t.used[t.slot(addr)] }

func (t *addrSet) add(addr uint64) {
	i := t.slot(addr)
	t.keys[i], t.used[i] = addr, true
}

func (t *addrSet) clear() { clear(t.used) }
