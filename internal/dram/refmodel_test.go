package dram

// refController is the controller as it stood before Batch learned to
// decode each address once and reuse its scratch: kept verbatim (names
// prefixed "ref", and Config.Decode's value-receiver body as refDecode)
// as the reference model TestControllerMatchesReference and
// FuzzControllerMatchesReference drive the real Controller against.
// Do not optimise it; its only job is to stay obviously equal to the
// original.

// refBank tracks one DRAM bank's row-buffer and timing state.
type refBank struct {
	openRow       int64  // -1 when no row is open
	readyAt       uint64 // earliest next column/activate command
	prechargeOKAt uint64 // earliest legal precharge (tRAS / tWR / tRTP)
}

// refPendingWrite is a buffered write in a channel's write queue.
type refPendingWrite struct {
	addr    uint64
	arrival uint64
}

// refChannel is one independent memory channel.
type refChannel struct {
	banks            []refBank
	busFreeAt        uint64 // cycle at which the data bus is next free
	lastWriteDataEnd uint64 // for write->read turnaround (tWTR)
	nextRefreshAt    uint64 // next refresh command deadline (tREFI cadence)
	writeQ           []refPendingWrite
}

// refController is the multi-channel memory controller. It is not safe for
// concurrent use; the simulator is single-threaded by design.
type refController struct {
	cfg Config
	ch  []refChannel
	st  Stats
}

// newRefController builds a controller for the configuration.
func newRefController(cfg Config) (*refController, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &refController{cfg: cfg, ch: make([]refChannel, cfg.Channels)}
	for i := range c.ch {
		banks := make([]refBank, cfg.Ranks*cfg.Banks)
		for j := range banks {
			banks[j].openRow = -1
		}
		c.ch[i].banks = banks
	}
	return c, nil
}

// Config returns the controller configuration.
func (c *refController) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *refController) Stats() Stats { return c.st }

// ResetStats zeroes the statistics without disturbing timing state, so a
// warm-up phase can be excluded from measurement exactly as the paper does.
func (c *refController) ResetStats() { c.st = Stats{} }

// Batch services one ORAM operation's memory traffic. All requests become
// eligible at cycle start. Reads are scheduled FR-FCFS per channel and the
// returned cycle is when the last read's data arrives (the operation's
// critical path). Writes are posted into per-channel write queues and
// drained either when a queue exceeds its capacity (blocking that channel's
// reads, as in USIMM) or later via Drain.
//
// If there are no reads, the returned cycle is start.
func (c *refController) Batch(start uint64, reads, writes []uint64) uint64 {
	// Post writes first: an operation's writes are logically produced by
	// the on-chip controller and buffered; they only throttle this batch if
	// a queue overflows.
	for _, addr := range writes {
		loc := refDecode(c.cfg, addr)
		ch := &c.ch[loc.Channel]
		ch.writeQ = append(ch.writeQ, refPendingWrite{addr: addr, arrival: start})
		if len(ch.writeQ) >= c.cfg.WriteQueueCap {
			c.st.ForcedWriteDrains++
			c.drainChannel(ch, c.cfg.WriteDrainLo, start)
		}
	}
	if len(reads) == 0 {
		return start
	}

	// Partition reads by channel, preserving arrival order within each.
	perCh := make([][]uint64, c.cfg.Channels)
	for _, addr := range reads {
		chIdx := refDecode(c.cfg, addr).Channel
		perCh[chIdx] = append(perCh[chIdx], addr)
	}

	done := start
	for chIdx, list := range perCh {
		if len(list) == 0 {
			continue
		}
		if d := c.serviceReads(&c.ch[chIdx], list, start); d > done {
			done = d
		}
	}
	return done
}

// serviceReads schedules a channel's share of a batch with FR-FCFS:
// repeatedly issue the oldest request that hits an open row, or the oldest
// request overall if none hits. Returns the completion cycle of the last
// read.
func (c *refController) serviceReads(ch *refChannel, addrs []uint64, start uint64) uint64 {
	type rd struct {
		addr uint64
		loc  Location
		done bool
	}
	reads := make([]rd, len(addrs))
	for i, a := range addrs {
		reads[i] = rd{addr: a, loc: refDecode(c.cfg, a)}
	}
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

		// Write-queue forwarding: newest matching buffered write wins.
		if c.forwardFromWriteQueue(ch, r.addr) {
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

func (c *refController) forwardFromWriteQueue(ch *refChannel, addr uint64) bool {
	for i := len(ch.writeQ) - 1; i >= 0; i-- {
		if ch.writeQ[i].addr == addr {
			return true
		}
	}
	return false
}

// refresh retires every refresh command due by cycle t. Each refresh
// closes all rows and stalls the channel's banks for tRFC. Far-apart
// catch-ups are collapsed arithmetically: only the last refresh before t
// affects bank state, but all of them are counted.
func (c *refController) refresh(ch *refChannel, t uint64) {
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
func (c *refController) issueRead(ch *refChannel, loc Location, arrival uint64) uint64 {
	c.refresh(ch, arrival)
	cfg := &c.cfg
	b := &ch.banks[loc.Bank]
	t := refMax64(arrival, b.readyAt)

	switch {
	case b.openRow == int64(loc.Row):
		c.st.RowHits++
	case b.openRow == -1:
		c.st.RowMisses++
		t = refMax64(t, b.prechargeOKAt) // row already precharged; just respect state
		t += cfg.TRCD                    // activate -> column
		b.prechargeOKAt = t - cfg.TRCD + cfg.TRAS
	default:
		c.st.RowConflicts++
		tPre := refMax64(t, b.prechargeOKAt)
		tAct := tPre + cfg.TRP
		t = tAct + cfg.TRCD
		b.prechargeOKAt = tAct + cfg.TRAS
	}
	b.openRow = int64(loc.Row)

	// Column read command: respect write->read turnaround and bus occupancy.
	tCol := refMax64(t, ch.lastWriteDataEnd+cfg.TWTR)
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
func (c *refController) issueWrite(ch *refChannel, loc Location, arrival uint64) uint64 {
	c.refresh(ch, arrival)
	cfg := &c.cfg
	b := &ch.banks[loc.Bank]
	t := refMax64(arrival, b.readyAt)

	switch {
	case b.openRow == int64(loc.Row):
		c.st.RowHits++
	case b.openRow == -1:
		c.st.RowMisses++
		t = refMax64(t, b.prechargeOKAt)
		t += cfg.TRCD
		b.prechargeOKAt = t - cfg.TRCD + cfg.TRAS
	default:
		c.st.RowConflicts++
		tPre := refMax64(t, b.prechargeOKAt)
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

// drainChannel issues buffered writes (row-hit-first) until the queue
// shrinks to target entries.
func (c *refController) drainChannel(ch *refChannel, target int, now uint64) {
	for len(ch.writeQ) > target {
		pick := 0
		for i, w := range ch.writeQ {
			loc := refDecode(c.cfg, w.addr)
			if ch.banks[loc.Bank].openRow == int64(loc.Row) {
				pick = i
				break
			}
		}
		w := ch.writeQ[pick]
		ch.writeQ = append(ch.writeQ[:pick], ch.writeQ[pick+1:]...)
		c.issueWrite(ch, refDecode(c.cfg, w.addr), refMax64(w.arrival, now))
	}
}

// Drain flushes all buffered writes on every channel and returns the cycle
// when the last one completes (or now if none were pending).
func (c *refController) Drain(now uint64) uint64 {
	end := now
	for i := range c.ch {
		ch := &c.ch[i]
		for len(ch.writeQ) > 0 {
			w := ch.writeQ[0]
			ch.writeQ = ch.writeQ[1:]
			if d := c.issueWrite(ch, refDecode(c.cfg, w.addr), refMax64(w.arrival, now)); d > end {
				end = d
			}
		}
	}
	return end
}

// PendingWrites returns the total buffered write count across channels.
func (c *refController) PendingWrites() int {
	n := 0
	for i := range c.ch {
		n += len(c.ch[i].writeQ)
	}
	return n
}

func refMax64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Decode maps a byte address to its physical location. Consecutive blocks
// interleave across channels (fine-grained interleaving, USIMM's default),
// then walk the columns of one row in one bank, so a run of contiguous
// blocks enjoys both channel parallelism and row-buffer hits — the layout
// property AB-ORAM's remote allocation perturbs.
func refDecode(c Config, addr uint64) Location {
	blk := addr / uint64(c.BlockB)
	gran := uint64(c.InterleaveBlocks)
	if gran == 0 {
		gran = 1
	}
	group := blk / gran
	ch := group % uint64(c.Channels)
	rest := group/uint64(c.Channels)*gran + blk%gran
	rowBlocks := c.RowBytes / uint64(c.BlockB)
	col := rest % rowBlocks
	rest /= rowBlocks
	nBanks := uint64(c.Ranks * c.Banks)
	bank := rest % nBanks
	row := rest / nBanks
	return Location{Channel: int(ch), Bank: int(bank), Row: row, Col: col}
}
