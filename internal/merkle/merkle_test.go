package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, -5} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d) accepted", n)
		}
	}
	tr, err := New(5) // non-power-of-two padding
	if err != nil {
		t.Fatal(err)
	}
	if tr.Leaves() != 5 {
		t.Fatalf("Leaves = %d", tr.Leaves())
	}
}

func TestUpdateChangesRoot(t *testing.T) {
	tr, _ := New(8)
	r0 := tr.Root()
	if err := tr.Update(3, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if tr.Root() == r0 {
		t.Fatal("root unchanged after update")
	}
	// Same content at the same leaf is deterministic.
	tr2, _ := New(8)
	tr2.Update(3, []byte("hello"))
	if tr.Root() != tr2.Root() {
		t.Fatal("same updates produced different roots")
	}
	// Different leaf position must produce a different root.
	tr3, _ := New(8)
	tr3.Update(4, []byte("hello"))
	if tr3.Root() == tr.Root() {
		t.Fatal("leaf position not bound into the root")
	}
}

func TestVerify(t *testing.T) {
	tr, _ := New(8)
	tr.Update(2, []byte("data"))
	if err := tr.Verify(2, []byte("data")); err != nil {
		t.Fatalf("genuine content rejected: %v", err)
	}
	if err := tr.Verify(2, []byte("tampered")); err == nil {
		t.Fatal("tampered content accepted")
	}
	if err := tr.Verify(1, []byte("data")); err == nil {
		t.Fatal("content accepted at wrong leaf")
	}
}

func TestVerifyDetectsInternalCorruption(t *testing.T) {
	tr, _ := New(8)
	for i := 0; i < 8; i++ {
		tr.Update(i, []byte{byte(i)})
	}
	// Corrupt an internal node directly.
	tr.nodes[1][0] ^= 0xff
	if err := tr.Verify(0, []byte{0}); err == nil {
		t.Fatal("internal corruption undetected")
	}
	if err := tr.Audit(); err == nil {
		t.Fatal("audit missed corruption")
	}
}

func TestOutOfRange(t *testing.T) {
	tr, _ := New(4)
	if err := tr.Update(4, nil); err == nil {
		t.Fatal("update out of range accepted")
	}
	if err := tr.Verify(-1, nil); err == nil {
		t.Fatal("verify out of range accepted")
	}
	if _, err := tr.Proof(99); err == nil {
		t.Fatal("proof out of range accepted")
	}
}

func TestProofRoundTrip(t *testing.T) {
	tr, _ := New(6)
	for i := 0; i < 6; i++ {
		tr.Update(i, []byte{byte(i), byte(i * 3)})
	}
	for i := 0; i < 6; i++ {
		proof, err := tr.Proof(i)
		if err != nil {
			t.Fatal(err)
		}
		if !VerifyProof(i, []byte{byte(i), byte(i * 3)}, proof, tr.Root()) {
			t.Fatalf("valid proof rejected for leaf %d", i)
		}
		if VerifyProof(i, []byte("wrong"), proof, tr.Root()) {
			t.Fatalf("forged content accepted for leaf %d", i)
		}
		if i > 0 && VerifyProof(i-1, []byte{byte(i), byte(i * 3)}, proof, tr.Root()) {
			t.Fatal("proof valid at wrong position")
		}
	}
}

func TestReplayDetected(t *testing.T) {
	// The attack Merkle trees exist to stop: record old content+proof,
	// write new content, replay the old pair.
	tr, _ := New(4)
	tr.Update(1, []byte("v1"))
	oldProof, _ := tr.Proof(1)
	oldRoot := tr.Root()
	tr.Update(1, []byte("v2"))
	if VerifyProof(1, []byte("v1"), oldProof, tr.Root()) {
		t.Fatal("stale content accepted against fresh root")
	}
	// The old pair only verifies against the old root, which the trusted
	// processor no longer holds.
	if !VerifyProof(1, []byte("v1"), oldProof, oldRoot) {
		t.Fatal("sanity: old proof should match old root")
	}
}

func TestDomainSeparation(t *testing.T) {
	// A leaf digest must never collide with an internal-node digest for
	// crafted content. Hash a pair and feed the same 65 bytes as a leaf.
	var l, r Digest
	pair := hashPair(l, r)
	crafted := append(append([]byte{}, l[:]...), r[:]...)
	if hashLeaf(crafted) == pair {
		t.Fatal("leaf/internal domains collide")
	}
}

// Property: after arbitrary updates, every leaf verifies and a single-bit
// flip in any queried leaf fails.
func TestQuickUpdateVerify(t *testing.T) {
	f := func(writes []uint8, probe uint8) bool {
		tr, _ := New(16)
		content := map[int][]byte{}
		for _, w := range writes {
			leaf := int(w % 16)
			data := []byte{w, w ^ 0x5a}
			tr.Update(leaf, data)
			content[leaf] = data
		}
		leaf := int(probe % 16)
		data, ok := content[leaf]
		if !ok {
			return true
		}
		if tr.Verify(leaf, data) != nil {
			return false
		}
		bad := append([]byte{}, data...)
		bad[0] ^= 1
		return tr.Verify(leaf, bad) != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUpdate(b *testing.B) {
	tr, _ := New(1 << 16)
	data := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		_ = tr.Update(i&(1<<16-1), data)
	}
}

// eagerTree is the tree as it was before access scopes: every Update
// re-hashes its whole path and every Verify walks to the root. It is the
// reference the scoped tree must agree with.
type eagerTree struct {
	padded int
	nodes  []Digest
}

func newEager(n int) *eagerTree {
	padded := 1
	for padded < n {
		padded <<= 1
	}
	e := &eagerTree{padded: padded, nodes: make([]Digest, 2*padded-1)}
	for i := padded - 1; i < len(e.nodes); i++ {
		e.nodes[i] = eagerLeaf(nil)
	}
	for i := padded - 2; i >= 0; i-- {
		e.nodes[i] = eagerPair(e.nodes[2*i+1], e.nodes[2*i+2])
	}
	return e
}

func (e *eagerTree) update(i int, content []byte) {
	idx := e.padded - 1 + i
	e.nodes[idx] = eagerLeaf(content)
	for idx > 0 {
		idx = (idx - 1) / 2
		e.nodes[idx] = eagerPair(e.nodes[2*idx+1], e.nodes[2*idx+2])
	}
}

func (e *eagerTree) verify(i int, content []byte) bool {
	idx := e.padded - 1 + i
	if eagerLeaf(content) != e.nodes[idx] {
		return false
	}
	for idx > 0 {
		idx = (idx - 1) / 2
		if eagerPair(e.nodes[2*idx+1], e.nodes[2*idx+2]) != e.nodes[idx] {
			return false
		}
	}
	return true
}

func (e *eagerTree) proof(i int) []Digest {
	var proof []Digest
	for idx := e.padded - 1 + i; idx > 0; idx = (idx - 1) / 2 {
		if idx%2 == 0 {
			proof = append(proof, e.nodes[idx-1])
		} else {
			proof = append(proof, e.nodes[idx+1])
		}
	}
	return proof
}

func eagerLeaf(content []byte) Digest {
	h := sha256.New()
	h.Write([]byte{0x00})
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(content)))
	h.Write(n[:])
	h.Write(content)
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

func eagerPair(l, r Digest) Digest {
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write(l[:])
	h.Write(r[:])
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

// runScopedScript decodes script into Begin/End/Update/Verify/Root/Proof
// operations, runs them on a scoped tree and on the eager reference, and
// reports the first disagreement. Byte 0 sizes the tree; every further
// pair of bytes is one operation. Tampered Verifies pass content that
// differs from the leaf's current content in one bit.
func runScopedScript(script []byte) error {
	if len(script) == 0 {
		return nil
	}
	n := int(script[0])%33 + 1
	tr, _ := New(n)
	ref := newEager(n)
	content := make([][]byte, n) // nil: never written
	script = script[1:]
	for step := 0; len(script) >= 2; step, script = step+1, script[2:] {
		op, arg := script[0], script[1]
		leaf := int(arg) % n
		switch op % 7 {
		case 0:
			tr.Begin()
		case 1:
			tr.End()
		case 2:
			data := []byte{op, arg, byte(step)}
			if err := tr.Update(leaf, data); err != nil {
				return err
			}
			ref.update(leaf, data)
			content[leaf] = data
		case 3, 4:
			data := content[leaf]
			if op%7 == 4 {
				data = append([]byte{}, data...)
				if len(data) == 0 {
					data = []byte{1}
				} else {
					data[int(op)%len(data)] ^= 1 << (arg % 8)
				}
			}
			got, want := tr.Verify(leaf, data) == nil, ref.verify(leaf, data)
			if got != want {
				return fmt.Errorf("step %d: Verify(%d) accepted=%v, eager accepted=%v", step, leaf, got, want)
			}
			if op%7 == 4 && got {
				return fmt.Errorf("step %d: tampered leaf %d accepted", step, leaf)
			}
		case 5:
			if tr.Root() != ref.nodes[0] {
				return fmt.Errorf("step %d: roots differ", step)
			}
		case 6:
			p, err := tr.Proof(leaf)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(p, ref.proof(leaf)) {
				return fmt.Errorf("step %d: proofs of leaf %d differ", step, leaf)
			}
		}
	}
	tr.End()
	if tr.Root() != ref.nodes[0] {
		return fmt.Errorf("roots differ after the script")
	}
	if !reflect.DeepEqual(tr.nodes, ref.nodes) {
		return fmt.Errorf("node arrays differ after the script")
	}
	return tr.Audit()
}

// Property: for random scripts the scoped tree gives the eager tree's
// roots, proofs and verdicts, and rejects every tampered leaf.
func TestScopedMatchesEager(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		script := make([]byte, 1+2*r.Intn(200))
		r.Read(script)
		if err := runScopedScript(script); err != nil {
			t.Fatalf("script %d (%x): %v", i, script, err)
		}
	}
}

func FuzzScopedVerify(f *testing.F) {
	f.Add([]byte{7, 0, 0, 2, 1, 3, 1, 4, 1, 2, 2, 4, 1, 3, 2, 1, 0, 5, 0})
	f.Add([]byte{32, 2, 5, 0, 0, 2, 6, 3, 5, 4, 6, 6, 6, 1, 1, 4, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		if err := runScopedScript(script); err != nil {
			t.Fatal(err)
		}
	})
}

// A scope does not weaken its first check: a corrupted internal node is
// caught by the scope's first Verify through it, which walks to the root.
func TestScopedVerifyDetectsInternalCorruption(t *testing.T) {
	tr, _ := New(8)
	for i := 0; i < 8; i++ {
		tr.Update(i, []byte{byte(i)})
	}
	tr.nodes[1][0] ^= 0xff
	tr.Begin()
	defer tr.End()
	if err := tr.Verify(0, []byte{0}); err == nil {
		t.Fatal("internal corruption undetected inside a scope")
	}
}

// TestScopedHashCounts pins the work a scope saves: Verify stops below
// the first checked ancestor, and the Updates of one scope hash each
// shared ancestor once.
func TestScopedHashCounts(t *testing.T) {
	tr, _ := New(16) // 4 internal levels
	for i := 0; i < 16; i++ {
		tr.Update(i, []byte{byte(i)})
	}
	count := func(f func()) uint64 {
		h := tr.Hashes
		f()
		return tr.Hashes - h
	}
	if got := count(func() { tr.Verify(0, []byte{0}) }); got != 5 {
		t.Fatalf("unscoped Verify: %d hashes, want a full walk of 5", got)
	}
	if got := count(func() { tr.Update(0, []byte{0}) }); got != 5 {
		t.Fatalf("unscoped Update: %d hashes, want 5", got)
	}
	tr.Begin()
	if got := count(func() { tr.Verify(0, []byte{0}) }); got != 5 {
		t.Fatalf("first scoped Verify: %d hashes, want a full walk of 5", got)
	}
	if got := count(func() { tr.Verify(1, []byte{1}) }); got != 1 {
		t.Fatalf("sibling Verify: %d hashes, want the leaf only", got)
	}
	if got := count(func() { tr.Verify(2, []byte{2}) }); got != 2 {
		t.Fatalf("cousin Verify: %d hashes, want leaf + one ancestor", got)
	}
	if got := count(func() { tr.Update(0, []byte{9}); tr.Update(1, []byte{9}) }); got != 2 {
		t.Fatalf("scoped Updates: %d hashes, want the two leaves", got)
	}
	if got := count(tr.End); got != 4 {
		t.Fatalf("End flushed %d hashes, want the 4 shared ancestors", got)
	}
	if got := count(func() { tr.Root() }); got != 0 {
		t.Fatalf("Root after End hashed %d times, want a clean tree", got)
	}
	if got := count(func() { tr.Verify(1, []byte{9}) }); got != 5 {
		t.Fatalf("Verify after End: %d hashes, want a full walk of 5", got)
	}
}

func TestHotPathZeroAlloc(t *testing.T) {
	tr, _ := New(1 << 10)
	data := make([]byte, 80)
	for i := 0; i < 1<<10; i++ {
		_ = tr.Update(i, data)
	}
	for _, scoped := range []bool{false, true} {
		if scoped {
			tr.Begin()
		}
		i := 0
		if a := testing.AllocsPerRun(200, func() { _ = tr.Update(i&1023, data); i += 37 }); a != 0 {
			t.Errorf("Update (scoped=%v) allocates %.1f times per call", scoped, a)
		}
		if a := testing.AllocsPerRun(200, func() {
			if tr.Verify(i&1023, data) != nil {
				t.Fatal("genuine leaf rejected")
			}
			i += 37
		}); a != 0 {
			t.Errorf("Verify (scoped=%v) allocates %.1f times per call", scoped, a)
		}
		if scoped {
			tr.End()
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	tr, _ := New(1 << 16)
	data := make([]byte, 64)
	for i := 0; i < 1<<16; i++ {
		_ = tr.Update(i, data)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Verify(i&(1<<16-1), data)
	}
}
