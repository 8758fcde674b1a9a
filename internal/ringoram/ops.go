package ringoram

import (
	"fmt"

	"repro/internal/memop"
	"repro/internal/stash"
)

// remoteSlot is the guest-side record of one remotely allocated logical
// slot (the remoteAddr/remoteInd metadata of Table I). consumed is set when
// the guest's content in the host slot is invalidated by a ReadPath; a
// consumed slot turns DEAD immediately and may be re-gathered by any
// bucket, so the guest must not release it again at its own reshuffle.
type remoteSlot struct {
	ref      SlotRef
	consumed bool
}

// maxDummyLoop bounds the background-eviction loop per online access; a
// correct configuration converges far earlier, and the cap turns a
// misconfiguration into a visible statistic instead of a hang.
const maxDummyLoop = 64

// consumeSlot classifications, recorded in o.lastConsumed so readPath can
// route each off-chip read: dummies and the target ride the combined XOR
// transfer, greens keep individual transfers (their content must reach the
// stash, breaking the one-real-block-per-path invariant XOR relies on).
const (
	consumedDummy uint8 = iota
	consumedTarget
	consumedGreen
)

// Access services one user request (load and store are identical — the
// indistinguishability is the point). The returned ops, and the address
// slices inside them, are valid until the next access: the ORAM reuses
// their storage.
func (o *ORAM) Access(block int64) ([]memop.Op, error) {
	_, ops, err := o.access(block, nil)
	return ops, err
}

// ReadBlock is Access plus the block's content via the data plane; it
// requires Config.Data.
func (o *ORAM) ReadBlock(block int64) ([]byte, []memop.Op, error) {
	if o.cfg.Data == nil {
		return nil, nil, fmt.Errorf("ringoram: ReadBlock requires a data plane")
	}
	return o.access(block, nil)
}

// WriteBlock is Access that replaces the block's content; it requires
// Config.Data. The new content travels with the block through the stash,
// evictions, and (remote) slots until the next ReadBlock retrieves it.
func (o *ORAM) WriteBlock(block int64, data []byte) ([]memop.Op, error) {
	if o.cfg.Data == nil {
		return nil, fmt.Errorf("ringoram: WriteBlock requires a data plane")
	}
	if len(data) != o.cfg.BlockB {
		return nil, fmt.Errorf("ringoram: data is %d bytes, want %d", len(data), o.cfg.BlockB)
	}
	_, ops, err := o.access(block, data)
	return ops, err
}

// access is the common online-access path. newData, when non-nil, replaces
// the block's content while it sits in the stash — before any maintenance
// operation can write it back to the tree.
func (o *ORAM) access(block int64, newData []byte) ([]byte, []memop.Op, error) {
	if block < 0 || block >= o.cfg.NumBlocks {
		return nil, nil, fmt.Errorf("ringoram: block %d out of range", block)
	}
	o.ops = o.ops[:0]

	p, _ := o.pos.Lookup(block)
	newPath := o.pos.Remap(block)
	if o.st.Contains(block) {
		// Stash hit: the cover ReadPath still runs, reading one (dummy)
		// block per bucket, exactly as a miss would.
		o.readPath(p, dummyBlock, memop.KindReadPath)
		o.st.SetPath(block, newPath)
	} else {
		o.readPath(p, block, memop.KindReadPath)
		if _, ok := o.st.Path(block); !ok {
			panic(fmt.Sprintf("ringoram: block %d not delivered by ReadPath on path %d", block, p))
		}
		o.st.SetPath(block, newPath)
	}

	// Capture/replace content while the block is guaranteed stashed; the
	// maintenance below may immediately evict it back into the tree.
	var data []byte
	if o.cfg.Data != nil {
		if newData != nil {
			o.stashData[block] = append([]byte(nil), newData...)
		}
		if d, ok := o.stashData[block]; ok {
			data = append([]byte(nil), d...)
		} else {
			data = make([]byte, o.cfg.BlockB) // never written: zero content
		}
	}

	o.stats.OnlineAccesses++
	served := o.servedLevel // dummy accesses below would clobber it
	o.afterReadPath(p)

	// Bucket-compaction background eviction: insert dummy accesses until
	// EvictPath operations bring the stash back under the threshold.
	for i := 0; o.cfg.BGEvictThreshold > 0 && o.st.Size() >= o.cfg.BGEvictThreshold && i < maxDummyLoop; i++ {
		o.dummyAccess()
	}
	// The loop's post-condition: the stash is still over threshold exactly
	// when the cap cut the loop short. Silent saturation hides a
	// misconfigured (threshold, A, Y) triple, so count it.
	if o.cfg.BGEvictThreshold > 0 && o.st.Size() >= o.cfg.BGEvictThreshold {
		o.stats.BGEvictSaturated++
	}
	o.servedLevel = served
	if o.dataErr != nil {
		err := o.dataErr
		o.dataErr = nil
		return nil, nil, err
	}
	return data, o.ops, nil
}

// dummyAccess performs a full dummy ReadPath on a random path. It counts
// toward the EvictPath interval, which is how dummy insertion eventually
// depletes the stash.
func (o *ORAM) dummyAccess() {
	p := int64(o.r.Uint64n(uint64(o.geom.NumPaths())))
	o.readPath(p, dummyBlock, memop.KindBackground)
	o.stats.DummyAccesses++
	o.afterReadPath(p)
}

// afterReadPath runs the maintenance that follows every (real or dummy)
// ReadPath: per-bucket EarlyReshuffle triggers and the A-interval
// EvictPath.
func (o *ORAM) afterReadPath(p int64) {
	o.bufB = o.geom.PathBuckets(p, o.bufB[:0])
	for lvl := 0; lvl < len(o.bufB); lvl++ {
		b := o.bufB[lvl]
		if int(o.count[b]) >= o.trigger(b) {
			o.earlyReshuffle(b, lvl)
		}
	}
	total := o.stats.OnlineAccesses + o.stats.DummyAccesses
	if total%uint64(o.cfg.A) == 0 {
		o.evictPath()
	}
}

// trigger returns the touch count at which a bucket must reshuffle: its
// current dynamicS plus the compaction overlap, floored at one touch.
func (o *ORAM) trigger(b int64) int {
	t := int(o.dynS[b]) + o.cfg.Y
	if t < 1 {
		t = 1
	}
	return t
}

// now returns the lifetime clock: elapsed online accesses.
func (o *ORAM) now() uint64 { return o.stats.OnlineAccesses }

// readPath implements the ReadPath operation: a metadata access for every
// bucket along the path followed by exactly one block read per bucket —
// or, with Config.XORRead, one combined block transfer for the real slot
// plus all dummy slots (green blocks keep individual reads). target < 0
// performs a dummy access.
func (o *ORAM) readPath(p int64, target int64, kind memop.Kind) {
	mi, bi := o.newOp(kind), o.newOp(kind)
	metaOp, blockOp := &o.ops[mi], &o.ops[bi]
	o.servedLevel = -1
	xor := o.cfg.XORRead
	if xor {
		o.xorDummies = o.xorDummies[:0]
		o.xorHasReal = false
	}
	capture := kind == memop.KindReadPath
	if capture {
		o.online.Blocks = o.online.Blocks[:0]
		o.online.Real = -1
		o.online.Env = nil
	}
	o.bufA = o.geom.PathBuckets(p, o.bufA[:0])
	for lvl, b := range o.bufA {
		o.markBucket(b) // count bump + slot consumption below
		offChip := lvl >= o.cfg.TreetopLevels
		if offChip {
			metaOp.Reads = append(metaOp.Reads, o.metaAddr(b))
			o.stats.MetaReads++
		}
		addr, ok := o.touchBucket(b, lvl, target)
		if offChip {
			if ok {
				individual := true
				if xor {
					switch o.lastConsumed {
					case consumedDummy:
						o.xorDummies = append(o.xorDummies, addr)
						individual = false
					case consumedTarget:
						o.xorRealAddr = addr
						o.xorHasReal = true
						individual = false
					}
				}
				if individual {
					blockOp.Reads = append(blockOp.Reads, addr)
					o.stats.BlocksRead++
				}
				if capture {
					o.online.Blocks = append(o.online.Blocks, addr)
					if o.lastConsumed == consumedTarget {
						o.online.Real = len(o.online.Blocks) - 1
					}
				}
			}
			blockOp.Writes = append(blockOp.Writes, o.metaAddr(b))
			o.stats.MetaWrites++
		}
		o.count[b]++
		// gatherDEADs (§V-B2): sweep the bucket's dead slots into the
		// allocator's queues during the metadata access.
		if o.cfg.Allocator != nil {
			o.gatherDeads(b, lvl)
		}
	}
	if xor && (o.xorHasReal || len(o.xorDummies) > 0) {
		// The combined transfer: one block crosses the bus regardless of
		// path length. Its address is the real slot's when present (remote
		// and guest slots naturally contribute their donor-bucket address),
		// else the first dummy's.
		combined := o.xorRealAddr
		if !o.xorHasReal {
			combined = o.xorDummies[0]
		}
		blockOp.Reads = append(blockOp.Reads, combined)
		o.stats.BlocksRead++
		o.stats.XORReads++
		if o.xorHasReal && o.cfg.Data != nil && o.dataErr == nil {
			env, data, err := o.xdp.ReadBlocksXOR(o.xorRealAddr, o.xorDummies)
			if err != nil {
				o.dataErr = err
			} else {
				o.stashData[o.xorRealBlk] = data
				if capture {
					o.online.Env = env
				}
			}
		}
	}
}

// newOp appends an empty op of the given kind to this access's op list and
// returns its index. The op reuses the address storage that the op at the
// same position had on an earlier access, so a steady-state access does
// not allocate its op lists. A pointer into o.ops stays valid only until
// the next newOp call.
func (o *ORAM) newOp(kind memop.Kind) int {
	n := len(o.ops)
	if n < cap(o.ops) {
		o.ops = o.ops[:n+1]
		op := &o.ops[n]
		op.Kind, op.Reads, op.Writes = kind, op.Reads[:0], op.Writes[:0]
	} else {
		o.ops = append(o.ops, memop.Op{Kind: kind})
	}
	return n
}

// touchBucket consumes one slot of bucket b for a ReadPath: the target's
// slot if the bucket holds it, otherwise a random valid dummy, otherwise —
// under bucket compaction — a random valid "green" slot whose real content
// moves to the stash. It returns the physical address read. ok is false
// only in the pathological no-valid-slot case, where a filler address
// cannot be attributed to a slot (the caller still performed the metadata
// access, so obliviousness is preserved by reading nothing real).
func (o *ORAM) touchBucket(b int64, lvl int, target int64) (addr uint64, ok bool) {
	physZ := o.physZ[lvl]
	// Logical slot scan: physical slots first, then remote extensions.
	// All candidate sets are tiny (Z <= 14 + R), so linear scans win.
	var dummies [32]int // logical indices of valid dummy slots
	var valids [32]int  // logical indices of all valid slots
	nd, nv := 0, 0
	targetAt := -1
	base := o.slotIndex(b, lvl, 0)
	for j := 0; j < physZ; j++ {
		idx := base + int64(j)
		valid, status := o.flags(idx)
		// Only REFRESHED slots are this bucket's own content: an ALLOCATED
		// slot is queue-owned or hosting another bucket's guest block.
		if !valid || status != statusRefreshed {
			continue
		}
		if nv < len(valids) {
			valids[nv] = j
		}
		nv++
		if blk := o.slotBlock[idx]; blk == dummyBlock {
			if nd < len(dummies) {
				dummies[nd] = j
			}
			nd++
		} else if blk == target {
			targetAt = j
		}
	}
	for i, rs := range o.remote[b] {
		if rs.consumed {
			continue
		}
		idx := o.slotIndex(rs.ref.Bucket, lvl, rs.ref.Slot)
		valid, _ := o.flags(idx)
		if !valid {
			continue
		}
		j := physZ + i
		if nv < len(valids) {
			valids[nv] = j
		}
		nv++
		if blk := o.slotBlock[idx]; blk == dummyBlock {
			if nd < len(dummies) {
				dummies[nd] = j
			}
			nd++
		} else if blk == target {
			targetAt = j
		}
	}

	var pick int
	switch {
	case target >= 0 && targetAt >= 0:
		pick = targetAt
		o.servedLevel = lvl
	case nd > 0:
		pick = dummies[o.r.Intn(min(nd, len(dummies)))]
	case o.cfg.Y > 0 && nv > 0:
		// Green block (§III-C): return a block from the real-eligible
		// portion; real content is kept in the stash.
		pick = valids[o.r.Intn(min(nv, len(valids)))]
	case nv > 0:
		pick = valids[o.r.Intn(min(nv, len(valids)))]
	default:
		// Starved bucket (all slots consumed/donated and no extension):
		// nothing to read. The reshuffle trigger fires right after.
		return 0, false
	}
	return o.consumeSlot(b, lvl, pick, target), true
}

// loadPayload moves a real block's content from the data plane into the
// stash-side payload map. Errors are deferred to the end of the access.
func (o *ORAM) loadPayload(blk int64, addr uint64) {
	if o.dataErr != nil {
		return
	}
	d, err := o.cfg.Data.ReadBlock(addr)
	if err != nil {
		o.dataErr = err
		return
	}
	o.stashData[blk] = d
}

// storePayload writes a slot's content to the data plane: the stashed
// payload for a real block (consumed from the map; zeros if it was never
// written), nil for a dummy (DataPlane.WriteBlock).
func (o *ORAM) storePayload(blk int64, addr uint64) {
	if o.dataErr != nil {
		return
	}
	var d []byte
	if blk >= 0 {
		d = o.stashData[blk]
		delete(o.stashData, blk)
		if d == nil {
			d = make([]byte, o.cfg.BlockB)
		}
	}
	if err := o.cfg.Data.WriteBlock(addr, d); err != nil {
		o.dataErr = err
	}
}

// consumeSlot invalidates logical slot `pick` of bucket b, moving real
// content to the stash as required, and returns its physical address.
func (o *ORAM) consumeSlot(b int64, lvl, pick int, target int64) uint64 {
	physZ := o.physZ[lvl]
	var idx int64
	var host SlotRef
	isRemote := pick >= physZ
	if isRemote {
		rs := &o.remote[b][pick-physZ]
		rs.consumed = true
		host = rs.ref
		idx = o.slotIndex(host.Bucket, lvl, host.Slot)
		o.markBucket(host.Bucket) // the (possibly off-path) host slot dies
		o.stats.RemoteReads++
	} else {
		host = SlotRef{Bucket: b, Slot: pick}
		idx = o.slotIndex(b, lvl, pick)
	}
	if blk := o.slotBlock[idx]; blk >= 0 {
		// Real content: the target joins the stash under its (already
		// remapped) position-map path; a green block keeps its mapping.
		o.st.Put(blk, o.pos.Peek(blk))
		// With the XOR fast path, an off-chip target's content arrives via
		// the combined transfer at the end of readPath instead of an
		// individual data-plane read.
		deferred := o.cfg.XORRead && blk == target && lvl >= o.cfg.TreetopLevels
		if o.cfg.Data != nil && !deferred {
			o.loadPayload(blk, o.slotAddr(host.Bucket, lvl, host.Slot))
		}
		if blk != target {
			o.stats.GreenBlocks++
			o.lastConsumed = consumedGreen
		} else {
			o.lastConsumed = consumedTarget
			o.xorRealBlk = blk
		}
		o.slotBlock[idx] = dummyBlock
	} else {
		o.lastConsumed = consumedDummy
	}
	o.setFlags(idx, false, statusDead)
	if o.slotDeadAt != nil {
		o.slotDeadAt[idx] = o.now()
	}
	o.deadPerL.Inc(lvl)
	return o.slotAddr(host.Bucket, lvl, host.Slot)
}

// gatherDeads offers every DEAD physical slot of bucket b to the
// allocator, marking accepted slots queued (§V-B2 gatherDEADs()). Each
// enqueue bumps the slot's generation so a stale queue entry — one whose
// slot was since reclaimed by its home bucket — is detectable at claim
// time.
func (o *ORAM) gatherDeads(b int64, lvl int) {
	base := o.slotIndex(b, lvl, 0)
	for j := 0; j < o.physZ[lvl]; j++ {
		idx := base + int64(j)
		if _, status := o.flags(idx); status != statusDead {
			continue
		}
		o.slotGen[idx]++
		if o.cfg.Allocator.Offer(lvl, SlotRef{Bucket: b, Slot: j, Gen: o.slotGen[idx]}) {
			o.reclaimDead(idx, lvl)
			o.setFlags(idx, false, statusQueued)
		}
	}
}

// reclaimDead records the end of a slot's dead period (for the lifetime
// study) and removes it from the dead population.
func (o *ORAM) reclaimDead(idx int64, lvl int) {
	if o.slotDeadAt != nil {
		o.lifetimes[lvl].Observe(float64(o.now() - o.slotDeadAt[idx]))
	}
	o.deadPerL.Sub(lvl, 1)
}

// evictPath performs the EvictPath operation on the next path in
// reverse-lexicographic order: read back the real blocks of every bucket
// along the path, then refill the buckets leaf-to-root from the stash.
func (o *ORAM) evictPath() {
	p := o.geom.EvictPath(o.evictGen)
	o.evictGen++
	o.stats.EvictPaths++

	ri, wi := o.newOp(memop.KindEvictPath), o.newOp(memop.KindEvictPath)
	readOp, writeOp := &o.ops[ri], &o.ops[wi]
	o.bufC = o.geom.PathBuckets(p, o.bufC[:0])

	for lvl, b := range o.bufC {
		o.drainBucket(b, lvl, readOp)
	}
	// Refill leaf to root so blocks sink as deep as their paths allow. The
	// plan classifies the whole stash in one pass instead of rescanning it
	// per level.
	plan := o.st.PlanEviction(o.geom, p)
	for lvl := len(o.bufC) - 1; lvl >= 0; lvl-- {
		lvl := lvl
		o.refillBucket(o.bufC[lvl], lvl, func(max int) []stash.Entry {
			return plan.Take(lvl, max)
		}, writeOp)
	}
}

// earlyReshuffle reshuffles one bucket after it exhausted its touch budget:
// Z' reads plus a full bucket write (§III-B).
func (o *ORAM) earlyReshuffle(b int64, lvl int) {
	o.stats.EarlyReshuffles++
	o.reshufPerL.Inc(lvl)

	ri, wi := o.newOp(memop.KindEarlyReshuffle), o.newOp(memop.KindEarlyReshuffle)
	readOp, writeOp := &o.ops[ri], &o.ops[wi]
	o.drainBucket(b, lvl, readOp)
	// A reshuffled bucket may piggy-back eligible stash residue; eligibility
	// is "the block's path passes through b", expressed as the leftmost
	// leaf path under b.
	local := b - o.geom.LevelStart(lvl)
	anyPath := local << (o.cfg.Levels - 1 - lvl)
	o.refillBucket(b, lvl, func(max int) []stash.Entry {
		return o.st.TakeEligible(o.geom, anyPath, lvl, max)
	}, writeOp)
}

// drainBucket reads a bucket's surviving real blocks into the stash and
// releases its remote extensions. Traffic: one metadata read plus exactly
// Z' block reads (real blocks padded with dummy reads), the fixed pattern
// Ring ORAM mandates for obliviousness.
func (o *ORAM) drainBucket(b int64, lvl int, op *memop.Op) {
	o.markBucket(b)
	offChip := lvl >= o.cfg.TreetopLevels
	if offChip {
		op.Reads = append(op.Reads, o.metaAddr(b))
		o.stats.MetaReads++
	}
	physZ := o.physZ[lvl]
	base := o.slotIndex(b, lvl, 0)
	reads := 0
	var readSlot [32]bool // in-place slots already charged a read
	addRead := func(host SlotRef, remote bool) {
		if !offChip {
			return
		}
		op.Reads = append(op.Reads, o.slotAddr(host.Bucket, lvl, host.Slot))
		o.stats.BlocksRead++
		if remote {
			o.stats.RemoteReads++
		}
		reads++
	}
	for j := 0; j < physZ; j++ {
		idx := base + int64(j)
		valid, status := o.flags(idx)
		if status == statusHosting {
			continue // a guest's content, not this bucket's
		}
		if valid && o.slotBlock[idx] >= 0 {
			blk := o.slotBlock[idx]
			o.st.Put(blk, o.pos.Peek(blk))
			if o.cfg.Data != nil {
				o.loadPayload(blk, o.slotAddr(b, lvl, j))
			}
			o.slotBlock[idx] = dummyBlock
			readSlot[j] = true
			addRead(SlotRef{Bucket: b, Slot: j}, false)
		}
	}
	for i := range o.remote[b] {
		rs := &o.remote[b][i]
		if rs.consumed {
			continue // already dead and possibly re-pooled elsewhere
		}
		idx := o.slotIndex(rs.ref.Bucket, lvl, rs.ref.Slot)
		o.markBucket(rs.ref.Bucket) // host slot released or turned dead below
		if valid, _ := o.flags(idx); valid && o.slotBlock[idx] >= 0 {
			blk := o.slotBlock[idx]
			o.st.Put(blk, o.pos.Peek(blk))
			if o.cfg.Data != nil {
				o.loadPayload(blk, o.slotAddr(rs.ref.Bucket, lvl, rs.ref.Slot))
			}
			o.slotBlock[idx] = dummyBlock
			addRead(rs.ref, true)
		}
		// Hand the host slot back to the pool (or leave it DEAD for its
		// home bucket). A fresh generation makes the new queue entry
		// distinguishable from any stale one.
		o.slotGen[idx]++
		rel := SlotRef{Bucket: rs.ref.Bucket, Slot: rs.ref.Slot, Gen: o.slotGen[idx]}
		if o.cfg.Allocator != nil && o.cfg.Allocator.Release(lvl, rel) {
			o.setFlags(idx, false, statusQueued)
		} else {
			o.setFlags(idx, false, statusDead)
			if o.slotDeadAt != nil {
				o.slotDeadAt[idx] = o.now()
			}
			o.deadPerL.Inc(lvl)
		}
	}
	o.remote[b] = o.remote[b][:0]
	// Pad to exactly Z' reads with dummy-slot reads from slots not already
	// read, keeping the fixed oblivious access count.
	for j := 0; offChip && reads < o.zPrimeL[lvl] && j < physZ; j++ {
		if readSlot[j] {
			continue
		}
		idx := base + int64(j)
		if _, status := o.flags(idx); status == statusHosting {
			continue
		}
		op.Reads = append(op.Reads, o.slotAddr(b, lvl, j))
		o.stats.BlocksRead++
		reads++
	}
}

// refillBucket rebuilds bucket b's content after a drain: reclaim owned
// slots, claim remote extensions toward the level's S target, place
// eligible stash blocks (obtained through take, which encapsulates the
// eligibility rule) into uniformly random logical slots, and fill the rest
// with dummies. Traffic: every rewritten slot plus one metadata write.
func (o *ORAM) refillBucket(b int64, lvl int, take func(max int) []stash.Entry, op *memop.Op) {
	o.markBucket(b)
	physZ := o.physZ[lvl]
	offChip := lvl >= o.cfg.TreetopLevels

	// Reclaim owned physical slots: everything except slots hosting a
	// guest. This includes still-queued dead slots — the reshuffle rewrites
	// them (the paper's "Z writes to all slots"), leaving their queue
	// entries stale; the claim loop below filters such entries by
	// generation.
	var owned [32]int
	nOwned := 0
	base := o.slotIndex(b, lvl, 0)
	for j := 0; j < physZ; j++ {
		idx := base + int64(j)
		_, status := o.flags(idx)
		if status == statusHosting {
			continue
		}
		if status == statusDead {
			o.reclaimDead(idx, lvl)
		}
		if status == statusQueued {
			// Invalidate the slot's queue entry right away: the claim loop
			// below could otherwise hand this bucket its own slot back as a
			// "remote" extension, double-mapping one physical slot.
			o.slotGen[idx]++
		}
		owned[nOwned] = j
		nOwned++
	}

	// Claim remote extensions toward Z' + STarget logical slots, skipping
	// stale queue entries (reclaimed by their home bucket since enqueue).
	claimed := o.bufClaim[:0]
	want := o.zPrimeL[lvl] + o.sTargetL[lvl] - nOwned
	if want > o.cfg.MaxRemote {
		want = o.cfg.MaxRemote
	}
	extensionLevel := o.sTargetL[lvl] > o.cfg.sAt(lvl)
	if extensionLevel {
		o.stats.ExtendAttempts++
	}
	if want > 0 && o.cfg.Allocator != nil {
		for len(claimed) < want {
			refs := o.cfg.Allocator.Claim(lvl, want-len(claimed))
			if len(refs) == 0 {
				break
			}
			for _, ref := range refs {
				// Defensive validation: refs must be in-bounds, same-level,
				// currently queued, and carry the live generation. Anything
				// else — stale entries, duplicates, fabrications — is
				// dropped. Accepting a ref consumes its generation so the
				// same reference can never be claimed twice.
				if ref.Bucket < 0 || ref.Bucket >= o.geom.NumBuckets() ||
					o.geom.LevelOf(ref.Bucket) != lvl ||
					ref.Slot < 0 || ref.Slot >= o.physZ[lvl] {
					o.stats.StaleClaims++
					continue
				}
				idx := o.slotIndex(ref.Bucket, lvl, ref.Slot)
				_, status := o.flags(idx)
				if status != statusQueued || o.slotGen[idx] != ref.Gen {
					o.stats.StaleClaims++
					continue
				}
				o.slotGen[idx]++
				o.markBucket(ref.Bucket) // host slot turns hosting below
				claimed = append(claimed, ref)
				o.remote[b] = append(o.remote[b], remoteSlot{ref: ref})
			}
		}
		if extensionLevel && nOwned+len(claimed) >= o.zPrimeL[lvl]+o.sTargetL[lvl] {
			o.stats.ExtendGranted++
		}
		o.bufClaim = claimed // keep the grown scratch
	}

	logical := nOwned + len(claimed)
	maxReal := o.zPrimeL[lvl]
	if logical < maxReal {
		maxReal = logical
	}
	entries := take(maxReal)

	// Scatter real blocks uniformly over the logical slots so remote slots
	// are as likely to carry real data as in-place ones (§VI-A: dead and
	// reused versions must be indistinguishable).
	o.bufP = o.bufP[:0]
	for i := 0; i < logical; i++ {
		o.bufP = append(o.bufP, i)
	}
	o.r.Shuffle(logical, func(i, j int) { o.bufP[i], o.bufP[j] = o.bufP[j], o.bufP[i] })
	o.bufQ = o.bufQ[:0]
	for i := 0; i < logical; i++ {
		o.bufQ = append(o.bufQ, dummyBlock)
	}
	for i, e := range entries {
		o.bufQ[o.bufP[i]] = e.Block
	}
	slotAt := func(li int) (SlotRef, int64) {
		if li < nOwned {
			ref := SlotRef{Bucket: b, Slot: owned[li]}
			return ref, o.slotIndex(ref.Bucket, lvl, ref.Slot)
		}
		ref := claimed[li-nOwned]
		return ref, o.slotIndex(ref.Bucket, lvl, ref.Slot)
	}
	for li := 0; li < logical; li++ {
		ref, idx := slotAt(li)
		blk := o.bufQ[li]
		o.slotBlock[idx] = blk
		if li < nOwned {
			o.setFlags(idx, true, statusRefreshed)
		} else {
			o.setFlags(idx, true, statusHosting)
		}
		if o.cfg.Data != nil {
			o.storePayload(blk, o.slotAddr(ref.Bucket, lvl, ref.Slot))
		}
		if offChip {
			op.Writes = append(op.Writes, o.slotAddr(ref.Bucket, lvl, ref.Slot))
			o.stats.BlocksWritten++
			if li >= nOwned {
				o.stats.RemoteWrites++
			}
		}
	}
	if offChip {
		op.Writes = append(op.Writes, o.metaAddr(b))
		o.stats.MetaWrites++
	}
	o.count[b] = 0
	o.dynS[b] = int16(logical - o.zPrimeL[lvl])
}
