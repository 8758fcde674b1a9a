// Package ringoram implements the Ring ORAM protocol (Ren et al., USENIX
// Security'15) with the extensions the paper evaluates on top of it:
//
//   - Bucket Compaction (Cao et al., HPCA'21): the Y-overlap "green block"
//     scheme with dummy-insertion background eviction — the paper's
//     Baseline,
//   - IR-ORAM-style per-level Z' reduction for the middle levels, and
//   - the AB-ORAM hooks: per-level physical/target S values, per-slot
//     status tracking (REFRESHED / DEAD / ALLOCATED) and a pluggable
//     RemoteAllocator that lets internal/core reclaim dead slots and
//     extend buckets through remote allocation.
//
// The engine is functional — real block IDs flow through buckets, stash,
// and position map, and every online access is checked to deliver the
// requested block — while simultaneously emitting the exact physical
// memory traffic of every operation for the timing layer.
package ringoram

import (
	"fmt"

	"repro/internal/secmem"
)

// SlotRef identifies one physical bucket slot, the unit tracked by the
// DeadQ queues ({slotAddr, slotInd} in §V-B2). Gen is the slot's enqueue
// generation: a queued reference goes stale when the slot's home bucket
// reshuffles (reclaiming the slot) before the reference is claimed, and
// the engine detects this lazily by comparing Gen at claim time instead of
// searching the FIFO for invalidation.
type SlotRef struct {
	Bucket int64
	Slot   int
	Gen    uint32
}

// DataPlane is the storage backend for block contents — in the full stack,
// internal/secmem's encrypted and authenticated memory. The engine calls
// it with the same physical byte addresses it reports in its memop traffic.
type DataPlane interface {
	// ReadBlock fetches the content stored at a physical block address.
	ReadBlock(addr uint64) ([]byte, error)
	// WriteBlock stores content at a physical block address.
	WriteBlock(addr uint64, data []byte) error
}

// XORDataPlane extends DataPlane with Ring ORAM's XOR technique: one
// ReadPath's real slot plus its reserved-dummy slots collapse into a
// single combined block transfer (secmem implements it over encrypted
// known-plaintext dummies). Config.XORRead requires the data plane, when
// present, to implement this interface.
type XORDataPlane interface {
	DataPlane
	// ReadBlocksXOR combines the ciphertexts at the real and dummy
	// physical addresses into one block-sized payload, returning the wire
	// envelope and the verified plaintext of the real block.
	ReadBlocksXOR(realAddr uint64, dummyAddrs []uint64) (*secmem.XORRead, []byte, error)
}

// RemoteAllocator is the AB-ORAM dead-block pool. The engine offers dead
// slots as they are discovered along read paths (gatherDEADs) and claims
// them back when a reshuffled bucket wants to extend its S value. A nil
// allocator disables remote allocation entirely (baseline behaviour).
//
// Levels are always the slot's own tree level; AB-ORAM keeps one queue per
// level because dead-block lifetimes differ by orders of magnitude across
// levels (Fig 12).
type RemoteAllocator interface {
	// Offer presents a newly dead slot. Returning true transfers ownership
	// to the allocator (the engine marks the slot ALLOCATED); false leaves
	// it DEAD for its home bucket to reclaim at its next reshuffle.
	Offer(level int, ref SlotRef) bool
	// Claim requests up to want dead slots for remote allocation by a
	// bucket at the given level. Fewer (or none) may be returned. The
	// result may alias the allocator's own storage: it is valid until the
	// next Claim.
	Claim(level int, want int) []SlotRef
	// Release hands back a slot claimed earlier, when the guest bucket is
	// reshuffled. Returning true re-pools the slot (it stays ALLOCATED);
	// false tells the engine to mark it DEAD for home reclaim.
	Release(level int, ref SlotRef) bool
}

// Config parameterizes a Ring ORAM instance. Per-level parameters are
// expressed as overrides over the uniform base values so the paper's
// configurations read the way the paper states them ("Z=6 for the bottom
// three levels").
type Config struct {
	Levels int // tree levels L

	ZPrime int // slots eligible for real blocks per bucket (Z')
	S      int // physically allocated reserved-dummy slots per bucket
	A      int // EvictPath interval: one eviction per A online accesses
	Y      int // bucket-compaction overlap (0 disables CB)

	NumBlocks int64 // protected real blocks
	BlockB    int   // block size in bytes

	StashCapacity    int // hardware stash bound (0 = unbounded)
	BGEvictThreshold int // dummy-insert when stash reaches this (0 = off)
	TreetopLevels    int // top levels cached on-chip (no memory traffic)

	// ZPrimePerLevel/SPerLevel/STargetPerLevel override the uniform values
	// for specific levels (nil entries keep the base value). STarget is the
	// logical S a bucket tries to reach via remote allocation; it defaults
	// to S (no extension). A level with STarget > S needs a RemoteAllocator
	// to ever reach its target.
	ZPrimePerLevel  map[int]int
	SPerLevel       map[int]int
	STargetPerLevel map[int]int

	// Allocator enables AB-ORAM remote allocation; nil disables it.
	Allocator RemoteAllocator
	// MaxRemote caps remotely allocated slots per bucket (R in Table I).
	MaxRemote int

	// Data enables the functional data plane: block contents move through
	// the store at the exact physical addresses the protocol touches, so
	// ReadBlock returns what WriteBlock stored even after the content has
	// migrated through buckets, the stash, and remote allocations. nil
	// runs the protocol pattern-only (the mode used by the timing
	// experiments).
	Data DataPlane

	// XORRead enables Ring ORAM's XOR online fast path: the ReadPath's
	// per-bucket block reads collapse into one combined transfer (the
	// server XORs the real ciphertext with the reserved-dummy ciphertexts,
	// the client peels with locally regenerated CTR pads). Green blocks —
	// compaction fallbacks whose real content must reach the stash — keep
	// individual transfers. With a non-nil Data, it must implement
	// XORDataPlane; with Data == nil the flag still collapses the modeled
	// memory traffic, which is how the timing experiments quantify the
	// bandwidth win.
	XORRead bool

	// TrackLifetimes enables per-slot death timestamps for the dead-block
	// lifetime study (Fig 12); costs 8 bytes per slot.
	TrackLifetimes bool

	Seed uint64
}

// zPrimeAt returns Z' for a level.
func (c Config) zPrimeAt(level int) int {
	if v, ok := c.ZPrimePerLevel[level]; ok {
		return v
	}
	return c.ZPrime
}

// sAt returns the physical S for a level.
func (c Config) sAt(level int) int {
	if v, ok := c.SPerLevel[level]; ok {
		return v
	}
	return c.S
}

// sTargetAt returns the logical S target for a level.
func (c Config) sTargetAt(level int) int {
	if v, ok := c.STargetPerLevel[level]; ok {
		return v
	}
	return c.sAt(level)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Levels < 2 || c.Levels > 32 {
		return fmt.Errorf("ringoram: levels %d out of range [2, 32]", c.Levels)
	}
	if c.ZPrime <= 0 || c.S < 0 || c.A <= 0 || c.Y < 0 {
		return fmt.Errorf("ringoram: invalid Z'=%d S=%d A=%d Y=%d", c.ZPrime, c.S, c.A, c.Y)
	}
	if c.BlockB <= 0 || c.NumBlocks <= 0 {
		return fmt.Errorf("ringoram: invalid block size/count")
	}
	if c.TreetopLevels < 0 || c.TreetopLevels > c.Levels {
		return fmt.Errorf("ringoram: treetop levels %d out of range", c.TreetopLevels)
	}
	if c.MaxRemote < 0 {
		return fmt.Errorf("ringoram: negative MaxRemote")
	}
	var realCapacity int64
	for l := 0; l < c.Levels; l++ {
		zp, s, st := c.zPrimeAt(l), c.sAt(l), c.sTargetAt(l)
		if zp <= 0 {
			return fmt.Errorf("ringoram: level %d has Z'=%d", l, zp)
		}
		if s < 0 || st < s {
			return fmt.Errorf("ringoram: level %d has S=%d target=%d (target must be >= S)", l, s, st)
		}
		if st > s && c.Allocator == nil {
			return fmt.Errorf("ringoram: level %d extends S without an allocator", l)
		}
		// The touch budget between reshuffles must not exceed the valid
		// slots a freshly reshuffled bucket holds (§III-C discussion).
		if c.Y > zp {
			return fmt.Errorf("ringoram: overlap Y=%d exceeds Z'=%d at level %d", c.Y, zp, l)
		}
		if st == 0 && c.Y == 0 {
			return fmt.Errorf("ringoram: level %d has S=0 without compaction overlap", l)
		}
		realCapacity += (int64(1) << l) * int64(zp)
	}
	// The standard load is 50% of real capacity. IR-style Z' reduction
	// keeps the user data constant while trimming a sliver of capacity from
	// the middle levels, pushing the ratio marginally past 50% — the paper
	// compensates with background eviction, so allow up to 55%.
	if c.NumBlocks*20 > realCapacity*11 {
		return fmt.Errorf("ringoram: %d blocks exceed 55%% of real capacity %d", c.NumBlocks, realCapacity)
	}
	return nil
}

// TypicalRing returns the classic Ring ORAM setting of §III-B (Z=12,
// Z'=5, S=7, A=5) used by the motivation studies, scaled to the given
// tree size and load factor (fraction of the 50% budget actually used).
func TypicalRing(levels int, treetop int, seed uint64) Config {
	return Config{
		Levels:           levels,
		ZPrime:           5,
		S:                7,
		A:                5,
		Y:                0,
		NumBlocks:        realBlocksFor(levels, 5),
		BlockB:           64,
		StashCapacity:    300,
		BGEvictThreshold: 0,
		TreetopLevels:    treetop,
		Seed:             seed,
	}
}

// CompactedBaseline returns the paper's Baseline: Ring ORAM with bucket
// compaction, Y=4 -> Z=8, Z'=5, S=3 (§VII).
func CompactedBaseline(levels int, treetop int, seed uint64) Config {
	c := TypicalRing(levels, treetop, seed)
	c.S = 3
	c.Y = 4
	c.BGEvictThreshold = 200
	return c
}

// realBlocksFor returns the paper's standard load: 50% of all Z' entries.
func realBlocksFor(levels, zPrime int) int64 {
	return ((int64(1) << levels) - 1) * int64(zPrime) / 2
}
