package secmem

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"testing"
)

// TestKeystreamMatchesNewCTR pins the hand-rolled counter mode to the
// standard library's: stored ciphertext, committed checkpoint fixtures
// and the client's PeelPayload all depend on the exact keystream. The
// high versions and the all-ones index push the 128-bit big-endian
// counter through its carries, up to a full wrap.
func TestKeystreamMatchesNewCTR(t *testing.T) {
	blk, err := aes.NewCipher(testKey)
	if err != nil {
		t.Fatal(err)
	}
	var s ctrScratch
	for _, idx := range []int64{0, 5, -1} {
		for _, version := range []uint64{0, 1, 0xFD << 56, ^uint64(0)} {
			for _, n := range []int{1, 16, 64, 100} {
				data := bytes.Repeat([]byte{0xa5}, n)
				want := append([]byte(nil), data...)
				var iv [aes.BlockSize]byte
				binary.LittleEndian.PutUint64(iv[0:8], uint64(idx))
				binary.LittleEndian.PutUint64(iv[8:16], version)
				cipher.NewCTR(blk, iv[:]).XORKeyStream(want, want)
				xorKeystream(blk, &s, idx, version, data)
				if !bytes.Equal(data, want) {
					t.Fatalf("idx %d version %#x len %d: keystream differs from cipher.NewCTR", idx, version, n)
				}
			}
		}
	}
}

// TestHotPathAllocs pins the per-block cost in allocations: a Write makes
// none and a Read makes one, the plaintext it returns, in and out of an
// access scope.
func TestHotPathAllocs(t *testing.T) {
	m := newMem(t, 1<<10)
	pt := make([]byte, 64)
	for i := int64(0); i < 1<<10; i++ {
		if err := m.Write(i, pt); err != nil {
			t.Fatal(err)
		}
	}
	for _, scoped := range []bool{false, true} {
		if scoped {
			m.Begin()
		}
		i := int64(0)
		if a := testing.AllocsPerRun(200, func() { _ = m.Write(i&1023, pt); i += 37 }); a != 0 {
			t.Errorf("Write (scoped=%v) allocates %.1f times per call, want 0", scoped, a)
		}
		if a := testing.AllocsPerRun(200, func() {
			if _, err := m.Read(i & 1023); err != nil {
				t.Fatal(err)
			}
			i += 37
		}); a != 1 {
			t.Errorf("Read (scoped=%v) allocates %.1f times per call, want 1", scoped, a)
		}
		if scoped {
			m.End()
		}
	}
}

// Inside one access scope the tree trusts nodes it already checked, but
// never the fetched block: a fault injected or a stale ciphertext
// replayed between two reads of the scope is still rejected, including
// when the block's siblings were verified just before.
func TestScopedTamperRejected(t *testing.T) {
	m := newMem(t, 16)
	for i := int64(0); i < 16; i++ {
		if err := m.Write(i, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	m.Begin()
	defer m.End()
	for _, i := range []int64{2, 3} {
		if _, err := m.Read(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.InjectFault(3, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(3); err == nil {
		t.Fatal("fault injected inside a scope went undetected")
	}
	if _, err := m.Read(2); err != nil {
		t.Fatalf("untouched sibling rejected: %v", err)
	}

	old := m.Ciphertext(7)
	if err := m.Write(7, bytes.Repeat([]byte{0x77}, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(7); err != nil {
		t.Fatal(err)
	}
	if err := m.ReplayFault(7, old); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(7); err == nil {
		t.Fatal("replay inside a scope went undetected")
	}
	if err := m.ReplayFault(6, m.Ciphertext(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(6); err == nil {
		t.Fatal("relocation inside a scope went undetected")
	}
}
