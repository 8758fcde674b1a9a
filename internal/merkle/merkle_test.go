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
	tr, err := New(5) // a partial last node at each level
	if err != nil {
		t.Fatal(err)
	}
	if tr.Leaves() != 5 || tr.Depth() != 2 {
		t.Fatalf("Leaves = %d, Depth = %d, want 5 and 2", tr.Leaves(), tr.Depth())
	}
}

// TestSizedToLeafCount pins the storage bound of a tree sized to its leaf
// count with no power-of-two padding: n leaves need at most
// n + ⌈n/3⌉ + Depth() digests, and the depth is ⌈log4 n⌉.
func TestSizedToLeafCount(t *testing.T) {
	for _, n := range []int{1, 2, 4, 5, 16, 17, 63, 64, 65, 1000, 1 << 14, 100003} {
		tr, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		depth := 0
		for span := 1; span < n; span *= Arity {
			depth++
		}
		if tr.Depth() != depth {
			t.Errorf("n=%d: Depth = %d, want %d", n, tr.Depth(), depth)
		}
		if bound := n + (n+2)/3 + depth; len(tr.nodes) > bound {
			t.Errorf("n=%d: %d digests, want at most %d", n, len(tr.nodes), bound)
		}
		if err := tr.Audit(); err != nil {
			t.Errorf("n=%d: fresh tree: %v", n, err)
		}
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
	// Corrupt an internal node directly: leaf 0's parent.
	tr.nodes[tr.base[1]][0] ^= 0xff
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
}

func TestReplayDetected(t *testing.T) {
	// The attack Merkle trees exist to stop: record old content, write
	// new content at the same leaf, replay the old content.
	tr, _ := New(4)
	tr.Update(1, []byte("v1"))
	if err := tr.Verify(1, []byte("v1")); err != nil {
		t.Fatalf("sanity: current content rejected: %v", err)
	}
	tr.Update(1, []byte("v2"))
	if err := tr.Verify(1, []byte("v1")); err == nil {
		t.Fatal("stale content accepted at a rewritten leaf")
	}
	tr.Begin()
	defer tr.End()
	if err := tr.Verify(1, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Verify(1, []byte("v1")); err == nil {
		t.Fatal("stale content accepted inside a scope")
	}
}

func TestDomainSeparation(t *testing.T) {
	// A leaf digest must never collide with an internal-node digest for
	// crafted content. Hash a node and feed its children as a leaf.
	children := make([]Digest, Arity)
	node := hashNode(children)
	var crafted []byte
	for _, c := range children {
		crafted = append(crafted, c[:]...)
	}
	if hashLeaf(crafted) == node {
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

// eagerTree is the tree without access scopes: every Update re-hashes its
// whole path and every Verify walks to the root. It keeps one slice per
// level (leaves first) and is the reference the scoped tree must agree
// with.
type eagerTree struct {
	levels [][]Digest
}

func newEager(n int) *eagerTree {
	e := &eagerTree{levels: [][]Digest{make([]Digest, n)}}
	for i := range e.levels[0] {
		e.levels[0][i] = eagerLeaf(nil)
	}
	for len(e.levels[len(e.levels)-1]) > 1 {
		below := e.levels[len(e.levels)-1]
		level := make([]Digest, (len(below)+3)/4)
		for q := range level {
			level[q] = e.node(len(e.levels)-1, q)
		}
		e.levels = append(e.levels, level)
	}
	return e
}

// node hashes node q of level l+1 from its stored children on level l.
func (e *eagerTree) node(l, q int) Digest {
	h := sha256.New()
	h.Write([]byte{0x01})
	for k := 4 * q; k < 4*q+4; k++ {
		var child Digest // absent: zeros
		if k < len(e.levels[l]) {
			child = e.levels[l][k]
		}
		h.Write(child[:])
	}
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

func (e *eagerTree) root() Digest { return e.levels[len(e.levels)-1][0] }

func (e *eagerTree) update(i int, content []byte) {
	e.levels[0][i] = eagerLeaf(content)
	for l, q := 0, i/4; l+1 < len(e.levels); l, q = l+1, q/4 {
		e.levels[l+1][q] = e.node(l, q)
	}
}

func (e *eagerTree) verify(i int, content []byte) bool {
	if eagerLeaf(content) != e.levels[0][i] {
		return false
	}
	for l, q := 0, i/4; l+1 < len(e.levels); l, q = l+1, q/4 {
		if e.node(l, q) != e.levels[l+1][q] {
			return false
		}
	}
	return true
}

// flat lays the levels out as Tree does: leaves first, root last.
func (e *eagerTree) flat() []Digest {
	var all []Digest
	for _, level := range e.levels {
		all = append(all, level...)
	}
	return all
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

// runScopedScript decodes script into Begin/End/Update/Verify/Root
// operations, runs them on a scoped tree and on the eager reference, and
// reports the first disagreement. Byte 0 sizes the tree; every further
// pair of bytes is one operation. Tampered Verifies pass content that
// differs from the leaf's current content in one bit.
func runScopedScript(script []byte) error {
	if len(script) == 0 {
		return nil
	}
	n := int(script[0])%80 + 1
	tr, _ := New(n)
	ref := newEager(n)
	content := make([][]byte, n) // nil: never written
	script = script[1:]
	for step := 0; len(script) >= 2; step, script = step+1, script[2:] {
		op, arg := script[0], script[1]
		leaf := int(arg) % n
		switch op % 6 {
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
			if op%6 == 4 {
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
			if op%6 == 4 && got {
				return fmt.Errorf("step %d: tampered leaf %d accepted", step, leaf)
			}
		case 5:
			if tr.Root() != ref.root() {
				return fmt.Errorf("step %d: roots differ", step)
			}
		}
	}
	tr.End()
	if tr.Root() != ref.root() {
		return fmt.Errorf("roots differ after the script")
	}
	if !reflect.DeepEqual(tr.nodes, ref.flat()) {
		return fmt.Errorf("node arrays differ after the script")
	}
	return tr.Audit()
}

// Property: for random scripts the scoped tree gives the eager tree's
// roots, node arrays and verdicts, and rejects every tampered leaf.
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
	f.Add([]byte{68, 0, 0, 2, 65, 3, 65, 2, 66, 4, 66, 1, 0, 3, 66, 5, 0})
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
	tr.nodes[tr.base[1]][0] ^= 0xff
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
	tr, _ := New(256) // 4 internal levels
	for i := 0; i < 256; i++ {
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
	if got := count(func() { tr.Verify(4, []byte{4}) }); got != 2 {
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

// TestBlockCount pins Blocks to the SHA-256 block arithmetic: a leaf over
// secmem's 80-byte input (index, version, 64-byte ciphertext) is 2 blocks
// and an internal node over four digests is 3.
func TestBlockCount(t *testing.T) {
	tr, _ := New(256)
	content := make([]byte, 80)
	b := tr.Blocks
	if err := tr.Update(7, content); err != nil {
		t.Fatal(err)
	}
	if got := tr.Blocks - b; got != 2+4*3 {
		t.Fatalf("unscoped Update: %d blocks, want the leaf's 2 + 4 nodes x 3", got)
	}
	b = tr.Blocks
	if err := tr.Verify(7, content); err != nil {
		t.Fatal(err)
	}
	if got := tr.Blocks - b; got != 14 {
		t.Fatalf("unscoped Verify: %d blocks, want 14", got)
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
