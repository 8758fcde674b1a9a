package ringoram

import (
	"fmt"

	"repro/internal/memop"
	"repro/internal/posmap"
	"repro/internal/rng"
	"repro/internal/secmem"
	"repro/internal/stash"
	"repro/internal/stats"
	"repro/internal/tree"
)

// OnlineRead describes the most recent online ReadPath's off-chip block
// transfer. The serving layer uses it to model what actually crosses the
// memory bus per read: with the XOR fast path, one combined block (Env
// carries the envelope the remote client peels); without it, one block per
// off-chip bucket. Blocks aliases internal scratch and is valid only until
// the next access.
type OnlineRead struct {
	Blocks []uint64        // physical addresses read off-chip along the path
	Real   int             // index in Blocks of the real target's read; -1 = stash hit or on-chip
	Env    *secmem.XORRead // XOR envelope when the combined transfer carried the real block
}

// Slot status values. Table I's status field names three states
// (REFRESHED, ALLOCATED, DEAD); the implementation splits ALLOCATED into
// queued (sitting in a DeadQ) and hosting (carrying a guest bucket's
// block) — still two bits — because the two halves have different
// reclamation rules: a home bucket's reshuffle rewrites *all* its
// non-hosting slots (the paper's "Z writes to all slots"), which
// invalidates any still-queued entries for them; hosting slots belong to
// their guest until the guest reshuffles.
const (
	statusRefreshed uint8 = iota // owned by home bucket, content current
	statusDead                   // invalidated by a ReadPath, reclaimable
	statusQueued                 // enqueued in a DeadQ awaiting reuse
	statusHosting                // hosting a remote guest's block
)

const (
	flagValid   uint8 = 1 << 0
	statusShift       = 1
	statusMask  uint8 = 0b11 << statusShift
	dummyBlock        = int64(-1)
)

// Stats aggregates protocol counters for the experiment harness.
type Stats struct {
	OnlineAccesses  uint64 // user-visible accesses
	DummyAccesses   uint64 // background-eviction dummy ReadPaths
	EvictPaths      uint64
	EarlyReshuffles uint64
	GreenBlocks     uint64 // compaction fallbacks (real block to stash)

	ExtendAttempts uint64 // buckets that wanted an S extension
	ExtendGranted  uint64 // buckets whose extension was fully satisfied
	StaleClaims    uint64 // queue entries invalidated by a home reshuffle
	RemoteReads    uint64 // block reads redirected to a remote slot
	RemoteWrites   uint64

	BlocksRead    uint64 // data blocks read from memory
	BlocksWritten uint64
	MetaReads     uint64
	MetaWrites    uint64

	XORReads         uint64 // ReadPaths collapsed into one combined transfer
	BGEvictSaturated uint64 // accesses where the dummy loop hit its cap with the stash still over threshold
}

// ORAM is a Ring ORAM instance (optionally with compaction, IR-style Z'
// shaping, and AB-ORAM remote allocation, all per Config).
type ORAM struct {
	cfg  Config
	geom tree.Geometry
	pos  *posmap.Map
	st   *stash.Stash
	r    *rng.Source

	// Per-level layout.
	physZ    []int   // physical slots per bucket at each level
	zPrimeL  []int   // Z' at each level
	sTargetL []int   // logical S target at each level
	slotBase []int64 // flat slot-array offset of each level's first slot
	numSlots int64   // total physical slots
	metaBase uint64  // byte address where the metadata region starts

	// Flat per-slot state, indexed by slotBase[level] + localBucket*physZ + j.
	slotBlock  []int64  // block ID or dummyBlock
	slotFlags  []uint8  // valid bit + 2-bit status
	slotDeadAt []uint64 // online-access stamp of death (TrackLifetimes)
	slotGen    []uint32 // enqueue generation (allocated with an Allocator)

	// Per-bucket state.
	count  []uint16       // ReadPath touches since last refresh
	dynS   []int16        // current dynamicS
	remote [][]remoteSlot // guest-side remote slots extending the bucket

	evictGen    int64 // reverse-lexicographic EvictPath generation
	servedLevel int   // level that served the last ReadPath target (-1: none)

	// Data plane state (Config.Data != nil): contents of stashed real
	// blocks, keyed by block ID, plus the first storage error. That error
	// is sticky: a failed load leaves its block stashed without content
	// and a failed store abandons the rest of the access's writes, so
	// every later access and capture returns it instead of serving or
	// checkpointing a state that has lost a payload.
	stashData map[int64][]byte
	dataErr   error

	// XOR fast-path state (Config.XORRead). xdp is Data's XOR extension
	// (nil when Data is nil); the rest is per-ReadPath scratch: the dummy
	// addresses accumulated for the combined transfer, the real slot's
	// address/block when it was deferred to that transfer, and the last
	// consumeSlot classification.
	xdp          XORDataPlane
	xorDummies   []uint64
	xorRealAddr  uint64
	xorRealBlk   int64
	xorHasReal   bool
	lastConsumed uint8

	// online captures the most recent online ReadPath's off-chip transfer
	// for serving layers that re-ship it to a remote client.
	online OnlineRead

	stats      Stats
	reshufPerL *stats.LevelTally // EarlyReshuffles per level (Fig 10)
	deadPerL   *stats.LevelTally // current dead blocks per level (Figs 2, 3)
	lifetimes  []stats.MinAvgMax // dead-block lifetime per level (Fig 12)

	// Dirty tracking for incremental checkpoints (delta.go): every
	// operation that mutates a bucket's slots or metadata stamps it with
	// the current epoch clock. Volatile — never checkpointed.
	clock       uint64
	bucketEpoch []uint64

	// ops is this access's op list. Each entry keeps its address storage
	// across accesses (newOp).
	ops  []memop.Op
	bufA []int64 // path bucket scratch (readPath)
	bufB []int64 // path bucket scratch (afterReadPath)
	bufC []int64 // path bucket scratch (evictPath)
	bufP []int   // permutation scratch (refillBucket)
	bufQ []int64 // slot -> block assignment scratch (refillBucket)

	bufClaim []SlotRef // claimed remote slots scratch (refillBucket)
}

// New constructs and warm-places a Ring ORAM.
func New(cfg Config) (*ORAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g, err := tree.NewGeometry(cfg.Levels)
	if err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	pm, err := posmap.New(g, cfg.NumBlocks, r.Fork(), 4096)
	if err != nil {
		return nil, err
	}
	o := &ORAM{
		cfg:        cfg,
		geom:       g,
		pos:        pm,
		st:         stash.New(cfg.StashCapacity),
		r:          r,
		physZ:      make([]int, cfg.Levels),
		zPrimeL:    make([]int, cfg.Levels),
		sTargetL:   make([]int, cfg.Levels),
		slotBase:   make([]int64, cfg.Levels),
		reshufPerL: stats.NewLevelTally(cfg.Levels),
		deadPerL:   stats.NewLevelTally(cfg.Levels),
		lifetimes:  make([]stats.MinAvgMax, cfg.Levels),
	}
	var base int64
	for l := 0; l < cfg.Levels; l++ {
		o.zPrimeL[l] = cfg.zPrimeAt(l)
		o.sTargetL[l] = cfg.sTargetAt(l)
		o.physZ[l] = o.zPrimeL[l] + cfg.sAt(l)
		o.slotBase[l] = base
		base += g.BucketsAtLevel(l) * int64(o.physZ[l])
	}
	o.numSlots = base
	o.metaBase = uint64(base) * uint64(cfg.BlockB)

	o.slotBlock = make([]int64, base)
	for i := range o.slotBlock {
		o.slotBlock[i] = dummyBlock
	}
	o.slotFlags = make([]uint8, base)
	if cfg.TrackLifetimes {
		o.slotDeadAt = make([]uint64, base)
	}
	if cfg.Allocator != nil {
		o.slotGen = make([]uint32, base)
	}
	if cfg.Data != nil {
		o.stashData = make(map[int64][]byte)
	}
	if cfg.XORRead && cfg.Data != nil {
		xdp, ok := cfg.Data.(XORDataPlane)
		if !ok {
			return nil, fmt.Errorf("ringoram: XORRead requires a data plane implementing XORDataPlane")
		}
		o.xdp = xdp
	}
	nb := g.NumBuckets()
	o.count = make([]uint16, nb)
	o.dynS = make([]int16, nb)
	o.remote = make([][]remoteSlot, nb)
	o.clock = 1
	o.bucketEpoch = make([]uint64, nb)
	for b := int64(0); b < nb; b++ {
		o.dynS[b] = int16(cfg.sAt(g.LevelOf(b)))
	}
	o.initPlacement()
	return o, nil
}

// slotIndex returns the flat index of slot j in bucket b, which sits at
// level lvl. Callers pass the level they already know (a remote slot
// always lives on its guest's level) instead of recomputing it. The
// level's first bucket is 2^lvl - 1 (tree.Geometry.LevelStart), inlined
// here because this is the hottest function of the simulator.
func (o *ORAM) slotIndex(b int64, lvl, j int) int64 {
	local := b - (int64(1)<<lvl - 1)
	return o.slotBase[lvl] + local*int64(o.physZ[lvl]) + int64(j)
}

// slotAddr returns the physical byte address of slot j in bucket b at
// level lvl.
func (o *ORAM) slotAddr(b int64, lvl, j int) uint64 {
	return uint64(o.slotIndex(b, lvl, j)) * uint64(o.cfg.BlockB)
}

// metaAddr returns the physical byte address of bucket b's metadata block.
func (o *ORAM) metaAddr(b int64) uint64 {
	return o.metaBase + uint64(b)*uint64(o.cfg.BlockB)
}

func (o *ORAM) flags(idx int64) (valid bool, status uint8) {
	f := o.slotFlags[idx]
	return f&flagValid != 0, (f & statusMask) >> statusShift
}

// markBucket stamps bucket b as mutated in the current epoch. Every
// path that rewrites a bucket's slots, counters, or remote extensions —
// including a host bucket whose slot is consumed or reclaimed on behalf
// of a guest — must pass through here for delta checkpoints to be sound.
func (o *ORAM) markBucket(b int64) { o.bucketEpoch[b] = o.clock }

func (o *ORAM) setFlags(idx int64, valid bool, status uint8) {
	f := status << statusShift
	if valid {
		f |= flagValid
	}
	o.slotFlags[idx] = f
}

// initPlacement seeds each block into the deepest bucket on its path with
// spare Z' capacity, overflowing into the stash, and marks every slot
// REFRESHED+valid — the state right after a full reshuffle round.
func (o *ORAM) initPlacement() {
	usedReal := make([]uint8, o.geom.NumBuckets())
	for blk := int64(0); blk < o.cfg.NumBlocks; blk++ {
		p := o.pos.Peek(blk)
		placed := false
		for lvl := o.cfg.Levels - 1; lvl >= 0; lvl-- {
			b := o.geom.Bucket(p, lvl)
			if int(usedReal[b]) < o.zPrimeL[lvl] {
				o.slotBlock[o.slotIndex(b, lvl, int(usedReal[b]))] = blk
				usedReal[b]++
				placed = true
				break
			}
		}
		if !placed {
			o.st.Put(blk, p)
		}
	}
	for i := range o.slotFlags {
		o.setFlags(int64(i), true, statusRefreshed)
	}
}

// Geometry returns the tree geometry.
func (o *ORAM) Geometry() tree.Geometry { return o.geom }

// Config returns the instance configuration.
func (o *ORAM) Config() Config { return o.cfg }

// Stash exposes the stash for occupancy inspection.
func (o *ORAM) Stash() *stash.Stash { return o.st }

// PosMap exposes the position map (used by the security experiment).
func (o *ORAM) PosMap() *posmap.Map { return o.pos }

// Stats returns a copy of the protocol counters.
func (o *ORAM) Stats() Stats { return o.stats }

// ReshufflesPerLevel returns EarlyReshuffle counts by level (Fig 10).
func (o *ORAM) ReshufflesPerLevel() []uint64 { return o.reshufPerL.Snapshot() }

// DeadBlocksPerLevel returns the current dead-slot population by level
// (Figs 2 and 3). A slot counts as dead from ReadPath invalidation until
// it is reclaimed by a reshuffle or reused through remote allocation.
func (o *ORAM) DeadBlocksPerLevel() []uint64 { return o.deadPerL.Snapshot() }

// DeadBlocks returns the total current dead-slot population.
func (o *ORAM) DeadBlocks() uint64 { return o.deadPerL.Total() }

// LifetimeAt returns the min/avg/max dead-block lifetime tracker for a
// level (Fig 12); only populated with Config.TrackLifetimes.
func (o *ORAM) LifetimeAt(level int) stats.MinAvgMax { return o.lifetimes[level] }

// LastOnline returns the off-chip transfer description of the most recent
// online ReadPath. The Blocks slice aliases internal scratch: it is valid
// only until the next access.
func (o *ORAM) LastOnline() OnlineRead { return o.online }

// LastServedLevel returns the tree level whose bucket delivered the real
// block on the most recent online access, or -1 when the block came from
// the stash (a cover ReadPath with no real read). The empirical security
// experiment (Fig 7) uses it as the ground truth an attacker tries to
// guess.
func (o *ORAM) LastServedLevel() int { return o.servedLevel }

// SpaceBytes returns the data-tree size in bytes — the paper's space-demand
// metric. Metadata space is identical across the compared schemes and is
// reported separately by internal/metadata.
func (o *ORAM) SpaceBytes() uint64 {
	return uint64(o.numSlots) * uint64(o.cfg.BlockB)
}

// SpaceBytesStatic computes the tree size for a config without building it.
func SpaceBytesStatic(cfg Config) uint64 {
	return uint64(slotsAbove(cfg, cfg.Levels)) * uint64(cfg.BlockB)
}

// slotsAbove counts the physical slots of levels [0, levels): the
// level-major prefix of the flat slot array.
func slotsAbove(cfg Config, levels int) int64 {
	var slots int64
	for l := 0; l < levels; l++ {
		slots += (int64(1) << l) * int64(cfg.zPrimeAt(l)+cfg.sAt(l))
	}
	return slots
}

// NewDataPlane builds the encrypted store that backs cfg's tree, one block
// per physical slot, under a 16-byte AES key. The slots of the
// TreetopLevels on-chip levels, the prefix of the slot array, stay
// encrypted but outside the integrity tree (secmem.NewTreetop).
func NewDataPlane(cfg Config, key []byte) (*secmem.Memory, error) {
	return secmem.NewTreetop(slotsAbove(cfg, cfg.Levels), slotsAbove(cfg, cfg.TreetopLevels), cfg.BlockB, key)
}

// Utilization returns user data bytes / tree bytes (Fig 8b).
func (o *ORAM) Utilization() float64 {
	return float64(o.cfg.NumBlocks*int64(o.cfg.BlockB)) / float64(o.SpaceBytes())
}

// CheckInvariants validates the complete state: every real block lives in
// exactly one of {stash, a valid in-place slot on its path, a valid remote
// slot whose logical bucket is on its path}, and all slot/status metadata
// is mutually consistent. O(tree); intended for tests.
func (o *ORAM) CheckInvariants() error {
	found := make(map[int64]int, o.cfg.NumBlocks)
	type slotKey struct {
		bucket int64
		slot   int
	}
	hosted := map[slotKey]int64{} // host slot -> guest bucket
	for b := int64(0); b < o.geom.NumBuckets(); b++ {
		for _, rs := range o.remote[b] {
			if rs.consumed {
				// Consumed guest content: the host slot is DEAD or already
				// serving someone else; the stale ref is inert.
				continue
			}
			key := slotKey{bucket: rs.ref.Bucket, slot: rs.ref.Slot}
			if prev, dup := hosted[key]; dup {
				return fmt.Errorf("slot %v hosts both bucket %d and %d", rs.ref, prev, b)
			}
			hosted[key] = b
			if _, status := o.flags(o.slotIndex(rs.ref.Bucket, o.geom.LevelOf(rs.ref.Bucket), rs.ref.Slot)); status != statusHosting {
				return fmt.Errorf("remote slot %v not in hosting state", rs.ref)
			}
			if o.geom.LevelOf(rs.ref.Bucket) != o.geom.LevelOf(b) {
				return fmt.Errorf("remote slot %v crosses levels", rs.ref)
			}
		}
	}
	countBlock := func(blk, logicalBucket int64, valid bool) error {
		if blk >= o.cfg.NumBlocks {
			return fmt.Errorf("invalid block id %d", blk)
		}
		if !valid {
			return nil // dead content, not a live copy
		}
		found[blk]++
		lvl := o.geom.LevelOf(logicalBucket)
		if p := o.pos.Peek(blk); o.geom.Bucket(p, lvl) != logicalBucket {
			return fmt.Errorf("block %d in bucket %d off its path %d", blk, logicalBucket, p)
		}
		return nil
	}
	for b := int64(0); b < o.geom.NumBuckets(); b++ {
		lvl := o.geom.LevelOf(b)
		for j := 0; j < o.physZ[lvl]; j++ {
			idx := o.slotIndex(b, lvl, j)
			valid, status := o.flags(idx)
			guest, isHosted := hosted[slotKey{bucket: b, slot: j}]
			logical := b
			if isHosted {
				logical = guest
			} else if status == statusQueued {
				// In a DeadQ: content is garbage by definition.
				continue
			} else if status == statusHosting {
				return fmt.Errorf("slot {%d %d} is hosting but no guest references it", b, j)
			}
			if blk := o.slotBlock[idx]; blk != dummyBlock {
				if err := countBlock(blk, logical, valid); err != nil {
					return err
				}
			}
		}
	}
	for blk := int64(0); blk < o.cfg.NumBlocks; blk++ {
		n := found[blk]
		if o.st.Contains(blk) {
			n++
		}
		if n != 1 {
			return fmt.Errorf("block %d present %d times", blk, n)
		}
	}
	return nil
}
