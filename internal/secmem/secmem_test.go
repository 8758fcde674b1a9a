package secmem

import (
	"bytes"
	"testing"
	"testing/quick"
)

var testKey = []byte("0123456789abcdef")

func newMem(t *testing.T, n int64) *Memory {
	t.Helper()
	m, err := New(n, 64, testKey)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 64, testKey); err == nil {
		t.Fatal("zero blocks accepted")
	}
	if _, err := New(8, 0, testKey); err == nil {
		t.Fatal("zero block size accepted")
	}
	if _, err := New(8, 64, []byte("short")); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := newMem(t, 16)
	pt := bytes.Repeat([]byte("AB-ORAM!"), 8)
	if err := m.Write(5, pt); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatal("round trip corrupted data")
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	m := newMem(t, 4)
	got, err := m.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("unwritten block not zero")
	}
}

func TestBoundsChecking(t *testing.T) {
	m := newMem(t, 4)
	if err := m.Write(4, make([]byte, 64)); err == nil {
		t.Fatal("out-of-range write accepted")
	}
	if err := m.Write(0, make([]byte, 63)); err == nil {
		t.Fatal("short plaintext accepted")
	}
	if _, err := m.Read(-1); err == nil {
		t.Fatal("negative read accepted")
	}
	if err := m.InjectFault(0, 99); err == nil {
		t.Fatal("out-of-range fault accepted")
	}
	if err := m.ReplayFault(9, make([]byte, 64)); err == nil {
		t.Fatal("out-of-range replay accepted")
	}
	if err := m.ReplayFault(0, make([]byte, 3)); err == nil {
		t.Fatal("short replay ciphertext accepted")
	}
}

func TestCiphertextHidesPlaintext(t *testing.T) {
	m := newMem(t, 8)
	pt := bytes.Repeat([]byte{0x41}, 64) // highly structured plaintext
	if err := m.Write(3, pt); err != nil {
		t.Fatal(err)
	}
	ct := m.Ciphertext(3)
	if bytes.Equal(ct, pt) {
		t.Fatal("plaintext visible in memory")
	}
	if bytes.Contains(ct, []byte("AAAAAAAA")) {
		t.Fatal("plaintext run leaked into ciphertext")
	}
}

func TestFreshIVPerWrite(t *testing.T) {
	// Writing identical plaintext twice must produce different ciphertext
	// (version counter in the IV); equal ciphertexts would leak equality
	// of writes to the bus observer.
	m := newMem(t, 8)
	pt := bytes.Repeat([]byte{0x7}, 64)
	_ = m.Write(1, pt)
	ct1 := m.Ciphertext(1)
	_ = m.Write(1, pt)
	ct2 := m.Ciphertext(1)
	if bytes.Equal(ct1, ct2) {
		t.Fatal("identical writes produced identical ciphertext")
	}
}

func TestPositionBinding(t *testing.T) {
	// The same plaintext at two positions yields unrelated ciphertexts, so
	// an observer cannot match blocks across locations (the property that
	// keeps AB-ORAM's remote allocation safe).
	m := newMem(t, 8)
	pt := bytes.Repeat([]byte{0x33}, 64)
	_ = m.Write(1, pt)
	_ = m.Write(2, pt)
	if bytes.Equal(m.Ciphertext(1), m.Ciphertext(2)) {
		t.Fatal("position not bound into encryption")
	}
}

func TestTamperDetection(t *testing.T) {
	m := newMem(t, 8)
	_ = m.Write(4, bytes.Repeat([]byte{9}, 64))
	if err := m.InjectFault(4, 17); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(4); err == nil {
		t.Fatal("bit flip undetected")
	}
}

func TestReplayDetection(t *testing.T) {
	m := newMem(t, 8)
	v1 := bytes.Repeat([]byte{1}, 64)
	v2 := bytes.Repeat([]byte{2}, 64)
	_ = m.Write(6, v1)
	old := m.Ciphertext(6)
	_ = m.Write(6, v2)
	if err := m.ReplayFault(6, old); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(6); err == nil {
		t.Fatal("replayed stale ciphertext accepted")
	}
}

func TestRelocationDetection(t *testing.T) {
	// Copying valid ciphertext to another address must fail there: the
	// address is bound into both the keystream and the authentication.
	m := newMem(t, 8)
	_ = m.Write(1, bytes.Repeat([]byte{5}, 64))
	ct := m.Ciphertext(1)
	_ = m.Write(2, bytes.Repeat([]byte{6}, 64))
	if err := m.ReplayFault(2, ct); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(2); err == nil {
		t.Fatal("relocated ciphertext accepted")
	}
}

func TestRootChangesOnWrite(t *testing.T) {
	m := newMem(t, 8)
	r0 := m.Root()
	_ = m.Write(0, make([]byte, 64))
	if m.Root() == r0 {
		t.Fatal("root unchanged by write")
	}
}

func TestStatsCount(t *testing.T) {
	m := newMem(t, 8)
	_ = m.Write(0, make([]byte, 64))
	_, _ = m.Read(0)
	_, _ = m.Read(1) // unwritten: no verify
	if m.Writes != 1 || m.Reads != 2 || m.Verifies != 1 {
		t.Fatalf("stats: writes=%d reads=%d verifies=%d", m.Writes, m.Reads, m.Verifies)
	}
}

// Property: arbitrary write sequences always read back the latest value,
// and a tampered block never reads back successfully.
func TestQuickWriteReadTamper(t *testing.T) {
	m, err := New(16, 64, testKey)
	if err != nil {
		t.Fatal(err)
	}
	latest := map[int64][]byte{}
	f := func(blockRaw uint8, seed uint8, tamper bool) bool {
		idx := int64(blockRaw % 16)
		pt := bytes.Repeat([]byte{seed}, 64)
		if err := m.Write(idx, pt); err != nil {
			return false
		}
		latest[idx] = pt
		if tamper {
			_ = m.InjectFault(idx, int(seed)%64)
			_, err := m.Read(idx)
			if err == nil {
				return false
			}
			// Repair by rewriting so later iterations stay valid.
			_ = m.Write(idx, pt)
		}
		got, err := m.Read(idx)
		return err == nil && bytes.Equal(got, latest[idx])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWrite(b *testing.B) {
	m, _ := New(1<<12, 64, testKey)
	pt := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		_ = m.Write(int64(i)&(1<<12-1), pt)
	}
}

func BenchmarkRead(b *testing.B) {
	m, _ := New(1<<12, 64, testKey)
	pt := make([]byte, 64)
	for i := int64(0); i < 1<<12; i++ {
		_ = m.Write(i, pt)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = m.Read(int64(i) & (1<<12 - 1))
	}
}

// TestStateRoundTrip: a full capture applied over a fresh store under
// the same key reproduces the contents and the integrity root.
func TestStateRoundTrip(t *testing.T) {
	m := newMem(t, 8)
	pt := bytes.Repeat([]byte{0x3c}, 64)
	_ = m.Write(2, pt)
	clone := newMem(t, 8)
	if err := clone.ApplySlots(m.CaptureAll()); err != nil {
		t.Fatal(err)
	}
	got, err := clone.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatal("state round trip lost data")
	}
	if clone.Root() != m.Root() {
		t.Fatal("integrity root diverged after restore")
	}
}

// TestRestoreWrongKeyRejected: the key-check value a checkpoint carries
// tells a store under the wrong key apart from one under the right key.
func TestRestoreWrongKeyRejected(t *testing.T) {
	m := newMem(t, 8)
	same := newMem(t, 8)
	other, err := New(8, 64, []byte("fedcba9876543210"))
	if err != nil {
		t.Fatal(err)
	}
	if m.KeyCheck() != same.KeyCheck() {
		t.Fatal("one key, two key-check values")
	}
	if m.KeyCheck() == other.KeyCheck() {
		t.Fatal("wrong key passes the key check")
	}
}

func TestRestoreValidation(t *testing.T) {
	m := newMem(t, 4)
	if err := m.ApplySlots(nil); err == nil {
		t.Fatal("nil slot delta accepted")
	}
	st := m.CaptureAll()
	st.Data = st.Data[:8]
	if err := m.ApplySlots(st); err == nil {
		t.Fatal("truncated store accepted")
	}
	st = m.CaptureAll()
	st.Idx[1] = 4
	if err := m.ApplySlots(st); err == nil {
		t.Fatal("out-of-range block accepted")
	}
}
