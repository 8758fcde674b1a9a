// Package merkle implements the integrity-verification tree of the threat
// model (§II): data leaving the trusted processor is authenticated so that
// memory tampering — including replay of stale ciphertext — is detected.
// The design follows the classic memory-authentication construction
// (Gassend et al., HPCA'03, the paper's [15]): a binary hash tree over
// fixed-size memory chunks whose root digest stays on-chip.
//
// Outside an access scope every Update re-hashes its leaf-to-root path
// (O(log n) hashes) and every Verify walks the full path. One ORAM access
// moves dozens of blocks whose paths share most of their ancestors, so
// the tree also offers an access scope (Begin/End), after Gassend's
// cached tree: inside it, Update hashes only the leaf and marks its
// ancestors dirty, the dirty nodes are re-hashed once each, children
// before parents, when a Verify, Root, Proof, Audit or End needs them,
// and Verify stops at the first ancestor already checked in the scope.
//
// The trust argument is the cache's. A node that was checked against its
// children — or re-derived from them by the trusted processor — is held
// in trusted storage until the scope ends, so the child digests it
// vouches for need no second check. The leaf is never cached: every
// Verify re-hashes the fetched content and compares it. An attacker who
// can only touch untrusted memory (the stored blocks) is therefore caught
// inside a scope exactly as outside one; rewriting a tree node that the
// scope already holds is outside the model, as it is for an on-chip
// cache. internal/secmem uses the tree to authenticate every simulated
// DRAM block.
package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// DigestSize is the byte length of node digests (SHA-256).
const DigestSize = sha256.Size

// Digest is one node's hash value.
type Digest [DigestSize]byte

// Tree is a complete binary Merkle tree over n leaves (n is rounded up to
// a power of two; virtual leaves hash a fixed empty marker). Node storage
// is a flat heap-ordered array, the same layout the ORAM tree uses. It is
// not safe for concurrent use.
type Tree struct {
	leaves  int      // requested leaf count
	padded  int      // power-of-two leaf slots
	nodes   []Digest // 2*padded-1 nodes, heap order
	leafBuf []byte   // leaf hash input assembly, reused across calls

	// Access scope. stamp holds one word per internal node: gen<<1 means
	// checked in the current scope, gen<<1|1 means dirty. Opening a scope
	// bumps gen, which retires every stamp at once. dirty lists the dirty
	// nodes by tree level so a flush hashes children before parents.
	open  bool
	gen   uint32
	stamp []uint32
	dirty [][]int

	// Hashes counts the SHA-256 digests computed since New.
	Hashes uint64
}

// New builds a tree over n leaves, all initialized to the empty-leaf
// digest.
func New(n int) (*Tree, error) {
	if n <= 0 {
		return nil, fmt.Errorf("merkle: non-positive leaf count %d", n)
	}
	padded := 1
	for padded < n {
		padded <<= 1
	}
	t := &Tree{leaves: n, padded: padded, nodes: make([]Digest, 2*padded-1)}
	// Every node of one level starts out identical, so one hash per level
	// initializes the whole tree.
	d := hashLeaf(nil)
	for first := padded - 1; ; first = (first - 1) / 2 {
		for i := first; i < 2*first+1; i++ {
			t.nodes[i] = d
		}
		if first == 0 {
			break
		}
		d = hashPair(d, d)
	}
	return t, nil
}

// Leaves returns the leaf count the tree was built for.
func (t *Tree) Leaves() int { return t.leaves }

// Root returns the current root digest — the value a secure processor
// would pin in on-chip registers.
func (t *Tree) Root() Digest {
	t.flush()
	return t.nodes[0]
}

func (t *Tree) leafIndex(i int) int { return t.padded - 1 + i }

func (t *Tree) checkLeaf(i int) error {
	if i < 0 || i >= t.leaves {
		return fmt.Errorf("merkle: leaf %d out of range [0, %d)", i, t.leaves)
	}
	return nil
}

// Begin opens an access scope, inside which Update defers its ancestor
// hashes and Verify trusts ancestors already checked in the scope. Begin
// on an open scope does nothing.
func (t *Tree) Begin() {
	if t.open {
		return
	}
	t.open = true
	if t.stamp == nil {
		t.stamp = make([]uint32, t.padded-1)
		t.dirty = make([][]int, bits.Len(uint(t.padded))-1)
	}
	t.gen++
	if t.gen == 1<<31 { // stamps would alias: start the history over
		clear(t.stamp)
		t.gen = 1
	}
}

// End closes the scope: the dirty nodes are hashed and every check the
// scope cached is forgotten. End without an open scope does nothing.
func (t *Tree) End() {
	if t.open {
		t.open = false
		t.flush()
	}
}

// Scoped reports whether an access scope is open.
func (t *Tree) Scoped() bool { return t.open }

// Update records leaf i's new content. Outside a scope it recomputes the
// path to the root (O(log n) hashes); inside one it hashes the leaf and
// marks the ancestors dirty, stopping at the first that already is.
func (t *Tree) Update(i int, content []byte) error {
	if err := t.checkLeaf(i); err != nil {
		return err
	}
	idx := t.leafIndex(i)
	t.nodes[idx] = t.leafHash(content)
	if !t.open {
		for idx > 0 {
			idx = (idx - 1) / 2
			t.nodes[idx] = t.pairHash(t.nodes[2*idx+1], t.nodes[2*idx+2])
		}
		return nil
	}
	dirty := t.gen<<1 | 1
	for idx > 0 {
		idx = (idx - 1) / 2
		if t.stamp[idx] == dirty {
			break // so are all of its ancestors
		}
		t.stamp[idx] = dirty
		lvl := bits.Len(uint(idx+1)) - 1
		t.dirty[lvl] = append(t.dirty[lvl], idx)
	}
	return nil
}

// flush re-hashes every dirty node once, deepest level first, and marks
// it checked: it was just derived from its children by the trusted side.
func (t *Tree) flush() {
	if len(t.dirty) == 0 || len(t.dirty[0]) == 0 {
		return // a dirty node dirties the root, so nothing is pending
	}
	checked := t.gen << 1
	for lvl := len(t.dirty) - 1; lvl >= 0; lvl-- {
		for _, p := range t.dirty[lvl] {
			t.nodes[p] = t.pairHash(t.nodes[2*p+1], t.nodes[2*p+2])
			t.stamp[p] = checked
		}
		t.dirty[lvl] = t.dirty[lvl][:0]
	}
}

// Verify checks leaf i's content against the stored path to the root,
// exactly as a secure processor authenticates a fetched block. It returns
// an error identifying the first mismatching level on failure. Inside a
// scope the walk ends below the first ancestor already checked in it.
func (t *Tree) Verify(i int, content []byte) error {
	if err := t.checkLeaf(i); err != nil {
		return err
	}
	t.flush()
	leaf := t.leafIndex(i)
	if t.leafHash(content) != t.nodes[leaf] {
		return fmt.Errorf("merkle: leaf %d content does not match its digest", i)
	}
	// Recompute the path from stored siblings and compare against stored
	// ancestors; a mismatch pinpoints internal corruption.
	checked := t.gen << 1
	idx := leaf
	for idx > 0 {
		parent := (idx - 1) / 2
		if t.open && t.stamp[parent] == checked {
			break
		}
		if t.pairHash(t.nodes[2*parent+1], t.nodes[2*parent+2]) != t.nodes[parent] {
			return fmt.Errorf("merkle: internal node %d inconsistent", parent)
		}
		idx = parent
	}
	if t.open {
		// Only a walk that reached trusted ground caches its nodes.
		for j := leaf; j != idx; {
			j = (j - 1) / 2
			t.stamp[j] = checked
		}
	}
	return nil
}

// Proof returns the sibling digests from leaf i to the root, which a
// remote verifier combines with the leaf content to recompute the root.
func (t *Tree) Proof(i int) ([]Digest, error) {
	if err := t.checkLeaf(i); err != nil {
		return nil, err
	}
	t.flush()
	var proof []Digest
	idx := t.leafIndex(i)
	for idx > 0 {
		sibling := idx + 1
		if idx%2 == 0 { // right child
			sibling = idx - 1
		}
		proof = append(proof, t.nodes[sibling])
		idx = (idx - 1) / 2
	}
	return proof, nil
}

// VerifyProof recomputes the root from a leaf's content and its sibling
// proof; it is a pure function usable without the full tree.
func VerifyProof(leaf int, content []byte, proof []Digest, root Digest) bool {
	h := hashLeaf(content)
	idx := leaf
	for _, sib := range proof {
		if idx%2 == 0 {
			h = hashPair(h, sib)
		} else {
			h = hashPair(sib, h)
		}
		idx /= 2
	}
	return h == root
}

// Audit re-derives every internal node from the leaves and reports the
// first inconsistency; used by tests and the tamper-detection example.
func (t *Tree) Audit() error {
	t.flush()
	for i := t.leafIndex(0) - 1; i >= 0; i-- {
		if t.nodes[i] != t.pairHash(t.nodes[2*i+1], t.nodes[2*i+2]) {
			return fmt.Errorf("merkle: node %d inconsistent", i)
		}
	}
	return nil
}

// Domain-separated hashing: leaves and internal nodes use distinct
// prefixes so an attacker cannot substitute an internal node for a leaf.
// Leaf input is 0x00 || len(content) as 8 little-endian bytes || content;
// pair input is 0x01 || left || right.

func (t *Tree) leafHash(content []byte) Digest {
	t.Hashes++
	t.leafBuf = appendLeafInput(t.leafBuf[:0], content)
	return sha256.Sum256(t.leafBuf)
}

func (t *Tree) pairHash(l, r Digest) Digest {
	t.Hashes++
	return hashPair(l, r)
}

func hashLeaf(content []byte) Digest {
	return sha256.Sum256(appendLeafInput(nil, content))
}

func appendLeafInput(dst, content []byte) []byte {
	dst = append(dst, 0x00)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(content)))
	return append(dst, content...)
}

func hashPair(l, r Digest) Digest {
	var in [1 + 2*DigestSize]byte
	in[0] = 0x01
	copy(in[1:], l[:])
	copy(in[1+DigestSize:], r[:])
	return sha256.Sum256(in[:])
}
