// Package merkle implements the integrity-verification tree of the threat
// model (§II): data leaving the trusted processor is authenticated so that
// memory tampering — including replay of stale ciphertext — is detected.
// The design follows the classic memory-authentication construction
// (Gassend et al., HPCA'03, the paper's [15]): a hash tree over
// fixed-size memory chunks whose root digest stays on-chip. The tree is
// 4-ary: an internal node hashes its four children, three SHA-256 blocks
// against two for a binary pair, over half the depth.
//
// Outside an access scope every Update re-hashes its leaf-to-root path
// (O(log n) hashes) and every Verify walks the full path. One ORAM access
// moves dozens of blocks whose paths share most of their ancestors, so
// the tree also offers an access scope (Begin/End), after Gassend's
// cached tree: inside it, Update hashes only the leaf and marks its
// ancestors dirty, the dirty nodes are re-hashed once each, children
// before parents, when a Verify, Root, Audit or End needs them, and
// Verify stops at the first ancestor already checked in the scope.
//
// The trust argument is the cache's. A node that was checked against its
// children — or re-derived from them by the trusted processor — is held
// in trusted storage until the scope ends, so the child digests it
// vouches for need no second check. The leaf is never cached: every
// Verify re-hashes the fetched content and compares it. An attacker who
// can only touch untrusted memory (the stored blocks) is therefore caught
// inside a scope exactly as outside one; rewriting a tree node that the
// scope already holds is outside the model, as it is for an on-chip
// cache. internal/secmem uses the tree to authenticate the real blocks
// stored off-chip.
package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// DigestSize is the byte length of node digests (SHA-256).
const DigestSize = sha256.Size

// Arity is the number of children an internal node hashes.
const Arity = 4

// Digest is one node's hash value.
type Digest [DigestSize]byte

// nodeBlocks is the SHA-256 block count of one internal-node hash: the
// 0x01 prefix and Arity child digests.
var nodeBlocks = shaBlocks(1 + Arity*DigestSize)

// Tree is a 4-ary Merkle tree over exactly n leaves. Node storage is one
// flat level-major array: the n leaves, then each internal level bottom
// up, ⌈size/4⌉ nodes over a level of size nodes, the root last. The last
// node of a level may have fewer than four children; an absent child
// hashes as the zero digest. It is not safe for concurrent use.
type Tree struct {
	leaves  int
	nodes   []Digest
	base    []int  // base[l]: offset of level l's first node (0 = leaves); base[Depth()+1] = len(nodes)
	leafBuf []byte // leaf hash input assembly, reused across calls

	// Access scope. stamp holds one word per internal node (indexed by
	// node offset minus leaves): gen<<1 means checked in the current
	// scope, gen<<1|1 means dirty. Opening a scope bumps gen, which
	// retires every stamp at once. dirty[l] lists the dirty nodes of
	// internal level l+1 by position, so a flush hashes children before
	// parents.
	open  bool
	gen   uint32
	stamp []uint32
	dirty [][]int

	// Hashes counts the SHA-256 digests computed since New, and Blocks the
	// 64-byte SHA-256 blocks they processed.
	Hashes uint64
	Blocks uint64
}

// New builds a tree over n leaves, all initialized to the empty-leaf
// digest.
func New(n int) (*Tree, error) {
	if n <= 0 {
		return nil, fmt.Errorf("merkle: non-positive leaf count %d", n)
	}
	base := []int{0}
	for size, off := n, n; ; size = (size + Arity - 1) / Arity {
		base = append(base, off)
		if size == 1 {
			break
		}
		off += (size + Arity - 1) / Arity
	}
	t := &Tree{leaves: n, base: base, nodes: make([]Digest, base[len(base)-1])}
	// Every node of a level but the last has full, identical children, so
	// two hashes per level initialize the whole tree.
	full := hashLeaf(nil)
	for i := range n {
		t.nodes[i] = full
	}
	for l := 0; l < t.Depth(); l++ {
		size := t.base[l+2] - t.base[l+1]
		full = hashNode([]Digest{full, full, full, full})
		for q := 0; q < size-1; q++ {
			t.nodes[t.base[l+1]+q] = full
		}
		t.nodes[t.base[l+1]+size-1] = hashNode(t.children(l, size-1))
	}
	return t, nil
}

// Leaves returns the leaf count the tree was built for.
func (t *Tree) Leaves() int { return t.leaves }

// Depth returns the number of internal levels: a full Verify hashes the
// leaf and Depth ancestors.
func (t *Tree) Depth() int { return len(t.base) - 2 }

// Root returns the current root digest — the value a secure processor
// would pin in on-chip registers.
func (t *Tree) Root() Digest {
	t.flush()
	return t.nodes[len(t.nodes)-1]
}

func (t *Tree) checkLeaf(i int) error {
	if i < 0 || i >= t.leaves {
		return fmt.Errorf("merkle: leaf %d out of range [0, %d)", i, t.leaves)
	}
	return nil
}

// children returns the stored children of node q of internal level l+1:
// nodes 4q..4q+3 of level l, fewer at the level's end.
func (t *Tree) children(l, q int) []Digest {
	lo := t.base[l] + Arity*q
	return t.nodes[lo:min(lo+Arity, t.base[l+1])]
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
		t.stamp = make([]uint32, len(t.nodes)-t.leaves)
		t.dirty = make([][]int, t.Depth())
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
	t.nodes[i] = t.leafHash(content)
	dirty := t.gen<<1 | 1
	for l, q := 0, i/Arity; l < t.Depth(); l, q = l+1, q/Arity {
		p := t.base[l+1] + q
		if !t.open {
			t.nodes[p] = t.nodeHash(l, q)
			continue
		}
		if t.stamp[p-t.leaves] == dirty {
			break // so are all of its ancestors
		}
		t.stamp[p-t.leaves] = dirty
		t.dirty[l] = append(t.dirty[l], q)
	}
	return nil
}

// flush re-hashes every dirty node once, deepest level first, and marks
// it checked: it was just derived from its children by the trusted side.
func (t *Tree) flush() {
	top := len(t.dirty) - 1
	if top < 0 || len(t.dirty[top]) == 0 {
		return // a dirty node dirties the root, so nothing is pending
	}
	checked := t.gen << 1
	for l, qs := range t.dirty {
		for _, q := range qs {
			p := t.base[l+1] + q
			t.nodes[p] = t.nodeHash(l, q)
			t.stamp[p-t.leaves] = checked
		}
		t.dirty[l] = qs[:0]
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
	if t.leafHash(content) != t.nodes[i] {
		return fmt.Errorf("merkle: leaf %d content does not match its digest", i)
	}
	// Recompute the path from stored children and compare against stored
	// ancestors; a mismatch pinpoints internal corruption.
	checked := t.gen << 1
	walked := 0
	for l, q := 0, i/Arity; l < t.Depth(); l, q = l+1, q/Arity {
		p := t.base[l+1] + q
		if t.open && t.stamp[p-t.leaves] == checked {
			break
		}
		if t.nodeHash(l, q) != t.nodes[p] {
			return fmt.Errorf("merkle: internal node %d inconsistent", p)
		}
		walked++
	}
	if t.open {
		// Only a walk that reached trusted ground caches its nodes.
		for l, q := 0, i/Arity; l < walked; l, q = l+1, q/Arity {
			t.stamp[t.base[l+1]+q-t.leaves] = checked
		}
	}
	return nil
}

// Audit re-derives every internal node from its children and reports the
// first inconsistency; used by tests and the tamper-detection example.
func (t *Tree) Audit() error {
	t.flush()
	for l := 0; l < t.Depth(); l++ {
		for q := 0; q < t.base[l+2]-t.base[l+1]; q++ {
			if p := t.base[l+1] + q; t.nodes[p] != t.nodeHash(l, q) {
				return fmt.Errorf("merkle: node %d inconsistent", p)
			}
		}
	}
	return nil
}

// Domain-separated hashing: leaves and internal nodes use distinct
// prefixes so an attacker cannot substitute an internal node for a leaf.
// Leaf input is 0x00 || len(content) as 8 little-endian bytes || content;
// node input is 0x01 || the four child digests, zeros for an absent child.

func (t *Tree) leafHash(content []byte) Digest {
	t.leafBuf = appendLeafInput(t.leafBuf[:0], content)
	t.Hashes++
	t.Blocks += shaBlocks(len(t.leafBuf))
	return sha256.Sum256(t.leafBuf)
}

func (t *Tree) nodeHash(l, q int) Digest {
	t.Hashes++
	t.Blocks += nodeBlocks
	return hashNode(t.children(l, q))
}

// shaBlocks returns the 64-byte blocks SHA-256 processes for an n-byte
// input: the input, the 0x80 marker and the 8-byte length, padded.
func shaBlocks(n int) uint64 { return uint64(n+9+63) / 64 }

func hashLeaf(content []byte) Digest {
	return sha256.Sum256(appendLeafInput(nil, content))
}

func appendLeafInput(dst, content []byte) []byte {
	dst = append(dst, 0x00)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(content)))
	return append(dst, content...)
}

func hashNode(children []Digest) Digest {
	var in [1 + Arity*DigestSize]byte
	in[0] = 0x01
	for k := range children {
		copy(in[1+k*DigestSize:], children[k][:])
	}
	return sha256.Sum256(in[:])
}
