package secmem

import (
	"bytes"
	"testing"
)

func newTreetopMem(t *testing.T, n, treetop int64) *Memory {
	t.Helper()
	m, err := NewTreetop(n, treetop, 64, testKey)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewTreetopValidation(t *testing.T) {
	for _, treetop := range []int64{-1, 9} {
		if _, err := NewTreetop(8, treetop, 64, testKey); err == nil {
			t.Fatalf("on-chip prefix %d of 8 blocks accepted", treetop)
		}
	}
	m := newTreetopMem(t, 8, 8) // all on-chip
	if err := m.Write(7, bytes.Repeat([]byte{7}, 64)); err != nil {
		t.Fatal(err)
	}
	if got, err := m.Read(7); err != nil || got[0] != 7 {
		t.Fatalf("all-on-chip store: %v", err)
	}
	if m.Hashes() != 0 {
		t.Fatalf("all-on-chip store hashed %d times", m.Hashes())
	}
}

// On-chip blocks round-trip encrypted, cost no hash, and are not
// untrusted memory: the fault injectors refuse them and XOR reads, whose
// pads only a Merkle verify authenticates, do not cover them.
func TestTreetopTrusted(t *testing.T) {
	m := newTreetopMem(t, 16, 4)
	if m.Treetop() != 4 || m.Depth() != 2 { // 12 leaves: 3 nodes, then the root
		t.Fatalf("Treetop %d, Depth %d, want 4 and 2", m.Treetop(), m.Depth())
	}
	pt := bytes.Repeat([]byte{0xAB}, 64)
	if err := m.Write(2, pt); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(m.Ciphertext(2), pt) {
		t.Fatal("on-chip block stored in plaintext")
	}
	got, err := m.Read(2)
	if err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("on-chip round trip: %v", err)
	}
	if m.Hashes() != 0 {
		t.Fatalf("on-chip Write and Read hashed %d times, want 0", m.Hashes())
	}
	if err := m.InjectFault(2, 0); err == nil {
		t.Fatal("InjectFault on an on-chip block accepted")
	}
	if err := m.ReplayFault(3, m.Ciphertext(2)); err == nil {
		t.Fatal("ReplayFault on an on-chip block accepted")
	}
	if got, err := m.Read(2); err != nil || !bytes.Equal(got, pt) {
		t.Fatal("a refused fault changed the on-chip block")
	}
	_ = m.Write(5, pt)
	if _, err := m.ReadPathXOR(2, []int64{5}); err == nil {
		t.Fatal("XOR read of an on-chip real block accepted")
	}
	if _, err := m.ReadPathXOR(5, []int64{3}); err == nil {
		t.Fatal("XOR read folding an on-chip block accepted")
	}
	if _, err := m.PeelXOR(&XORRead{Payload: make([]byte, 64), Real: PadRef{Idx: 1, Version: 1}, RealWritten: true}); err == nil {
		t.Fatal("PeelXOR of an on-chip real block accepted")
	}
	// The first off-chip block is authenticated as before.
	if err := m.Write(4, pt); err != nil {
		t.Fatal(err)
	}
	if err := m.InjectFault(4, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(4); err == nil {
		t.Fatal("tampered off-chip block accepted")
	}
}

// A dummy store (nil plaintext) is encrypted zeros that hash nothing: its
// block folds into an XOR read like any written dummy, but reading it as
// content fails closed until a real Write authenticates it again.
func TestDummyStoreNotReadable(t *testing.T) {
	m := newTreetopMem(t, 16, 4)
	pt := bytes.Repeat([]byte{0x5A}, 64)
	if err := m.Write(9, pt); err != nil {
		t.Fatal(err)
	}
	h := m.Hashes()
	if err := m.Write(9, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(10, nil); err != nil {
		t.Fatal(err)
	}
	if got := m.Hashes() - h; got != 0 {
		t.Fatalf("dummy stores hashed %d times, want 0", got)
	}
	if bytes.Equal(m.Ciphertext(10), make([]byte, 64)) {
		t.Fatal("dummy stored in plaintext")
	}
	for _, idx := range []int64{9, 10} {
		if _, err := m.Read(idx); err == nil {
			t.Fatalf("Read of dummy block %d accepted", idx)
		}
	}
	// Block 9's dummy must not be readable through the XOR path either,
	// as the real slot of an envelope.
	x, err := m.ReadPathXOR(9, []int64{10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PeelXOR(x); err == nil {
		t.Fatal("PeelXOR with a dummy as the real block accepted")
	}
	// As pads, the dummies peel off a real block.
	if err := m.Write(11, pt); err != nil {
		t.Fatal(err)
	}
	x, err = m.ReadPathXOR(11, []int64{9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(x.Pads) != 2 {
		t.Fatalf("%d pads folded, want both dummies", len(x.Pads))
	}
	if got, err := m.PeelXOR(x); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("peel over dummy pads: %v", err)
	}
	// A tampered dummy corrupts the payload, which the real verify catches.
	if err := m.InjectFault(10, 7); err != nil {
		t.Fatal(err)
	}
	x, _ = m.ReadPathXOR(11, []int64{9, 10})
	if _, err := m.PeelXOR(x); err == nil {
		t.Fatal("tampered dummy pad accepted")
	}
	// A real Write authenticates the block again.
	if err := m.Write(9, pt); err != nil {
		t.Fatal(err)
	}
	if got, err := m.Read(9); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("rewritten block: %v", err)
	}
	if err := m.Write(3, make([]byte, 5)); err == nil {
		t.Fatal("short plaintext accepted")
	}
}

// A checkpoint of a store with an on-chip prefix restores into a store of
// the same shape: content reads back and off-chip tampering is caught.
func TestTreetopSlotsRoundTrip(t *testing.T) {
	src := newTreetopMem(t, 16, 4)
	for i := int64(0); i < 16; i += 3 {
		if err := src.Write(i, bytes.Repeat([]byte{byte(i + 1)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	dst := newTreetopMem(t, 16, 4)
	if err := dst.ApplySlots(src.CaptureAll()); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 16; i++ {
		want, _ := src.Read(i)
		got, err := dst.Read(i)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %d after restore: %v", i, err)
		}
	}
	if dst.Root() != src.Root() {
		t.Fatal("restored integrity root differs")
	}
	if err := dst.InjectFault(6, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Read(6); err == nil {
		t.Fatal("tampered off-chip block accepted after restore")
	}
}
