package ringoram

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/stash"
)

// Checkpoints: every mutation path stamps the buckets it rewrites
// (markBucket) and the position map stamps remapped entries, so a delta
// checkpoint carries only the buckets and positions touched since the
// last cut — plus the small unconditionally-carried sections (stash,
// counters, random streams) whose size is bounded regardless of tree
// height. A full checkpoint is the same Delta with every bucket and
// every position in it (CaptureFull); applied over a fresh instance of
// the same configuration it reproduces the captured state, and a delta
// applied over the state it was captured against does the same, which
// is what the durable engine's fingerprint-identity tests pin.
// Measurement-only state (PLB contents, dead-block lifetime statistics)
// is not captured and restarts on restore.

// RemoteRef is the exported form of a guest bucket's remote-slot record.
type RemoteRef struct {
	Ref      SlotRef
	Consumed bool
}

// BucketDelta is one mutated bucket's complete refresh: its owned
// physical slots and per-bucket metadata. Slices are indexed by the
// bucket's local slot number and must have exactly physZ entries.
type BucketDelta struct {
	Bucket int64
	Block  []int64
	Flags  []uint8
	Gen    []uint32 // nil unless the config has an Allocator
	DeadAt []uint64 // nil unless TrackLifetimes
	Count  uint16
	DynS   int16
	Remote []RemoteRef
}

// Delta is the protocol-side checkpoint: the buckets and position-map
// entries mutated since a cut (or all of them), plus the full stash and
// scalar/RNG state (small and cheap to carry every time).
type Delta struct {
	Levels  int
	Buckets []BucketDelta

	PosBlocks []int64
	PosPaths  []int64

	EvictGen       int64
	Stats          Stats
	ReshufPerLevel []uint64
	DeadPerLevel   []uint64

	Rng    *rng.Source
	PosRng *rng.Source

	// Stash is in ascending block order; StashData is parallel to it
	// (the entry's payload, nil if it has none) and nil without a data
	// plane.
	Stash     []stash.Entry
	StashData [][]byte
}

// Cut closes the current mutation epoch (engine and position map in
// lockstep) and returns it: the `since` for a later CaptureDelta.
func (o *ORAM) Cut() uint64 {
	o.pos.Cut()
	e := o.clock
	o.clock++
	return e
}

// CaptureDelta collects everything mutated after `since` (exclusive).
// Rng and PosRng alias the live streams — copy or encode the delta
// before the next access.
func (o *ORAM) CaptureDelta(since uint64) *Delta {
	d := o.captureState()
	for b := int64(0); b < o.geom.NumBuckets(); b++ {
		if o.bucketEpoch[b] > since {
			d.Buckets = append(d.Buckets, o.captureBucket(b))
		}
	}
	d.PosBlocks, d.PosPaths = o.pos.CaptureDirty(since)
	return d
}

// CaptureFull is CaptureDelta over the whole state: every bucket and
// every position-map entry, independent of the dirty stamps. Rng and
// PosRng alias the live streams, as with CaptureDelta.
func (o *ORAM) CaptureFull() *Delta {
	d := o.captureState()
	d.Buckets = make([]BucketDelta, o.geom.NumBuckets())
	for b := range d.Buckets {
		d.Buckets[b] = o.captureBucket(int64(b))
	}
	d.PosPaths = o.pos.Positions()
	d.PosBlocks = make([]int64, len(d.PosPaths))
	for blk := range d.PosBlocks {
		d.PosBlocks[blk] = int64(blk)
	}
	return d
}

// captureState fills the sections every capture carries in full.
func (o *ORAM) captureState() *Delta {
	d := &Delta{
		Levels:         o.cfg.Levels,
		EvictGen:       o.evictGen,
		Stats:          o.stats,
		ReshufPerLevel: o.reshufPerL.Snapshot(),
		DeadPerLevel:   o.deadPerL.Snapshot(),
		Rng:            o.r,
		PosRng:         o.pos.Rand(),
		Stash:          o.st.All(),
	}
	if o.stashData != nil {
		d.StashData = make([][]byte, len(d.Stash))
		for i, e := range d.Stash {
			if p, ok := o.stashData[e.Block]; ok {
				d.StashData[i] = append([]byte(nil), p...)
			}
		}
	}
	return d
}

func (o *ORAM) captureBucket(b int64) BucketDelta {
	lvl := o.geom.LevelOf(b)
	physZ := o.physZ[lvl]
	base := o.slotIndex(b, lvl, 0)
	bd := BucketDelta{
		Bucket: b,
		Block:  append([]int64(nil), o.slotBlock[base:base+int64(physZ)]...),
		Flags:  append([]uint8(nil), o.slotFlags[base:base+int64(physZ)]...),
		Count:  o.count[b],
		DynS:   o.dynS[b],
	}
	if o.slotGen != nil {
		bd.Gen = append([]uint32(nil), o.slotGen[base:base+int64(physZ)]...)
	}
	if o.slotDeadAt != nil {
		bd.DeadAt = append([]uint64(nil), o.slotDeadAt[base:base+int64(physZ)]...)
	}
	if len(o.remote[b]) > 0 {
		bd.Remote = make([]RemoteRef, len(o.remote[b]))
		for i, rs := range o.remote[b] {
			bd.Remote[i] = RemoteRef{Ref: rs.ref, Consumed: rs.consumed}
		}
	}
	return bd
}

// ApplyDelta installs a captured delta over the current state. It
// validates every index and shape before mutating anything it cannot
// validate in place, so a corrupt or hostile delta returns an error
// instead of panicking; state after an error is undefined (callers
// discard the instance, as the durable recovery path does).
func (o *ORAM) ApplyDelta(d *Delta) error {
	if d == nil {
		return fmt.Errorf("ringoram: nil delta")
	}
	if d.Levels != o.cfg.Levels {
		return fmt.Errorf("ringoram: delta has %d levels, config %d", d.Levels, o.cfg.Levels)
	}
	if d.Rng == nil || d.PosRng == nil {
		return fmt.Errorf("ringoram: delta missing random streams")
	}
	if len(d.PosBlocks) != len(d.PosPaths) {
		return fmt.Errorf("ringoram: delta position shape (%d blocks, %d paths)", len(d.PosBlocks), len(d.PosPaths))
	}
	if len(d.ReshufPerLevel) > o.cfg.Levels || len(d.DeadPerLevel) > o.cfg.Levels {
		return fmt.Errorf("ringoram: delta tally longer than the tree")
	}
	for i := range d.Buckets {
		if err := o.validateBucketDelta(&d.Buckets[i]); err != nil {
			return err
		}
	}
	for _, e := range d.Stash {
		if e.Block < 0 || e.Block >= o.cfg.NumBlocks || e.Path < 0 || e.Path >= o.geom.NumPaths() {
			return fmt.Errorf("ringoram: delta stash entry {%d %d} out of range", e.Block, e.Path)
		}
	}
	if len(d.StashData) != 0 && len(d.StashData) != len(d.Stash) {
		return fmt.Errorf("ringoram: delta carries %d stash payloads for %d entries", len(d.StashData), len(d.Stash))
	}
	for _, p := range d.StashData {
		if len(p) != 0 && len(p) != o.cfg.BlockB {
			return fmt.Errorf("ringoram: delta stash payload of %d bytes, want %d", len(p), o.cfg.BlockB)
		}
	}

	for i := range d.Buckets {
		o.applyBucketDelta(&d.Buckets[i])
	}
	for i, blk := range d.PosBlocks {
		if err := o.pos.SetPosition(blk, d.PosPaths[i]); err != nil {
			return err
		}
	}
	o.evictGen = d.EvictGen
	o.stats = d.Stats
	o.reshufPerL.Reset()
	for lvl, v := range d.ReshufPerLevel {
		o.reshufPerL.Add(lvl, v)
	}
	o.deadPerL.Reset()
	for lvl, v := range d.DeadPerLevel {
		o.deadPerL.Add(lvl, v)
	}
	*o.r = *d.Rng
	*o.pos.Rand() = *d.PosRng
	for _, e := range o.st.All() {
		o.st.Remove(e.Block)
	}
	for _, e := range d.Stash {
		o.st.Put(e.Block, e.Path)
	}
	if o.stashData != nil {
		clear(o.stashData)
		for i, p := range d.StashData {
			if len(p) != 0 {
				o.stashData[d.Stash[i].Block] = append([]byte(nil), p...)
			}
		}
	}
	return nil
}

func (o *ORAM) validateBucketDelta(bd *BucketDelta) error {
	if bd.Bucket < 0 || bd.Bucket >= o.geom.NumBuckets() {
		return fmt.Errorf("ringoram: delta bucket %d out of range", bd.Bucket)
	}
	lvl := o.geom.LevelOf(bd.Bucket)
	physZ := o.physZ[lvl]
	if len(bd.Block) != physZ || len(bd.Flags) != physZ {
		return fmt.Errorf("ringoram: delta bucket %d carries %d/%d slots, want %d", bd.Bucket, len(bd.Block), len(bd.Flags), physZ)
	}
	if (o.slotGen != nil) != (bd.Gen != nil) || (bd.Gen != nil && len(bd.Gen) != physZ) {
		return fmt.Errorf("ringoram: delta bucket %d generation shape mismatch", bd.Bucket)
	}
	if bd.DeadAt != nil && len(bd.DeadAt) != physZ {
		return fmt.Errorf("ringoram: delta bucket %d deadAt shape mismatch", bd.Bucket)
	}
	for _, blk := range bd.Block {
		if blk != dummyBlock && (blk < 0 || blk >= o.cfg.NumBlocks) {
			return fmt.Errorf("ringoram: delta bucket %d slot holds invalid block %d", bd.Bucket, blk)
		}
	}
	for _, rr := range bd.Remote {
		if rr.Ref.Bucket < 0 || rr.Ref.Bucket >= o.geom.NumBuckets() ||
			o.geom.LevelOf(rr.Ref.Bucket) != lvl ||
			rr.Ref.Slot < 0 || rr.Ref.Slot >= o.physZ[lvl] {
			return fmt.Errorf("ringoram: delta bucket %d remote ref %v out of range", bd.Bucket, rr.Ref)
		}
	}
	return nil
}

func (o *ORAM) applyBucketDelta(bd *BucketDelta) {
	b := bd.Bucket
	lvl := o.geom.LevelOf(b)
	base := o.slotIndex(b, lvl, 0)
	physZ := int64(o.physZ[lvl])
	copy(o.slotBlock[base:base+physZ], bd.Block)
	copy(o.slotFlags[base:base+physZ], bd.Flags)
	if o.slotGen != nil && bd.Gen != nil {
		copy(o.slotGen[base:base+physZ], bd.Gen)
	}
	if o.slotDeadAt != nil && bd.DeadAt != nil {
		copy(o.slotDeadAt[base:base+physZ], bd.DeadAt)
	}
	o.count[b] = bd.Count
	o.dynS[b] = bd.DynS
	o.remote[b] = o.remote[b][:0]
	for _, rr := range bd.Remote {
		o.remote[b] = append(o.remote[b], remoteSlot{ref: rr.Ref, consumed: rr.Consumed})
	}
	o.markBucket(b)
}
