package aboram

import (
	"math/rand"
	"testing"
)

// TestHashesPerOp pins the integrity cost of an access by count rather
// than by time: on a fully written levels-12 AB tree under a uniform
// 95 % read / 5 % write mix, one access computes at most 85 digests over
// at most 230 SHA-256 blocks. Authenticating block by block (a full path
// per block read, a full path re-hash per block written) costs about 573
// digests on this script; a scoped binary tree over every slot, treetop
// and dummies included, about 221 digests and 442 blocks.
func TestHashesPerOp(t *testing.T) {
	o, err := New(Options{Scheme: SchemeAB, Levels: 12, Seed: 1, EncryptionKey: key})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, o.BlockSize())
	for b := int64(0); b < o.NumBlocks(); b++ {
		data[0] = byte(b)
		if err := o.Write(b, data); err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(1))
	const ops = 3000
	h0, b0 := o.mem.Hashes(), o.mem.Blocks()
	for i := 0; i < ops; i++ {
		b := r.Int63n(o.NumBlocks())
		if r.Intn(100) < 95 {
			_, err = o.Read(b)
		} else {
			err = o.Write(b, data)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	perOp := float64(o.mem.Hashes()-h0) / ops
	blocksPerOp := float64(o.mem.Blocks()-b0) / ops
	t.Logf("%.1f hashes, %.1f SHA-256 blocks per op", perOp, blocksPerOp)
	if perOp > 85 {
		t.Errorf("%.1f hashes per op, want <= 85", perOp)
	}
	if blocksPerOp > 230 {
		t.Errorf("%.1f SHA-256 blocks per op, want <= 230", blocksPerOp)
	}
}

// TestScopeClosesOnIntegrityError: a Read that fails verification leaves
// no scope open and no dirty tree nodes behind, and the next unscoped
// verification walks the whole path again. Faults go to the off-chip
// slots only: the treetop is on-chip, outside the attacker's reach.
func TestScopeClosesOnIntegrityError(t *testing.T) {
	o, err := New(Options{Levels: 10, EncryptionKey: key, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, o.BlockSize())
	for b := int64(0); b < 64; b++ {
		if err := o.Write(b, data); err != nil {
			t.Fatal(err)
		}
	}
	var offChip []int64
	for _, i := range o.mem.CaptureDirty(0).Idx {
		if i >= o.mem.Treetop() {
			offChip = append(offChip, i)
		}
	}
	flipAll := func() {
		for _, i := range offChip {
			if err := o.mem.InjectFault(i, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	flipAll()
	failed := false
	for b := int64(0); b < 64 && !failed; b++ {
		_, err := o.Read(b)
		failed = err != nil
	}
	if !failed {
		t.Fatal("no read noticed a tampered store")
	}
	if o.mem.Scoped() {
		t.Fatal("integrity error left the access scope open")
	}
	h := o.mem.Hashes()
	o.mem.Root()
	if o.mem.Hashes() != h {
		t.Fatal("integrity error left dirty tree nodes behind")
	}
	flipAll() // flips the bits back
	// The first off-chip slot that reads back holds real content (a
	// dummy's read fails at its leaf); it must cost a full walk.
	walk := uint64(o.mem.Depth()) + 1 // leaf + every ancestor
	for _, slot := range offChip {
		h = o.mem.Hashes()
		if _, err := o.mem.Read(slot); err != nil {
			continue
		}
		if got := o.mem.Hashes() - h; got != walk {
			t.Fatalf("unscoped Read after the error hashed %d times, want a full walk of %d", got, walk)
		}
		return
	}
	t.Fatal("no off-chip slot reads back")
}
