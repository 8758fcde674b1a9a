package aboram

import (
	"math/bits"
	"math/rand"
	"testing"
)

// TestHashesPerOp pins the integrity cost of an access by count rather
// than by time: on a fully written levels-12 AB tree under a uniform
// 95 % read / 5 % write mix, one access computes at most 250 digests.
// Authenticating block by block (a full path per block read, a full path
// re-hash per block written) costs about 573 on this script.
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
	h0 := o.mem.Hashes()
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
	t.Logf("%.1f hashes per op", perOp)
	if perOp > 250 {
		t.Fatalf("%.1f hashes per op, want <= 250", perOp)
	}
}

// TestScopeClosesOnIntegrityError: a Read that fails verification leaves
// no scope open and no dirty tree nodes behind, and the next unscoped
// verification walks the whole path again.
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
	written := o.mem.CaptureDirty(0).Idx
	for _, i := range written {
		if err := o.mem.InjectFault(i, 0); err != nil {
			t.Fatal(err)
		}
	}
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
	slot := written[0]
	if err := o.mem.InjectFault(slot, 0); err != nil { // flips the bit back
		t.Fatal(err)
	}
	h = o.mem.Hashes()
	if _, err := o.mem.Read(slot); err != nil {
		t.Fatal(err)
	}
	walk := uint64(bits.Len64(uint64(o.mem.NumBlocks()-1))) + 1 // leaf + every ancestor
	if got := o.mem.Hashes() - h; got != walk {
		t.Fatalf("unscoped Read after the error hashed %d times, want a full walk of %d", got, walk)
	}
}
