// Package secmem implements the threat model's secure-memory engine (§II):
// data blocks leave the trusted processor encrypted (AES-128-CTR with a
// per-write version counter in the IV) and authenticated (a 4-ary Merkle
// tree over the ciphertext whose root never leaves the chip). Reads
// decrypt and verify; any tampering with ciphertext, version, or position
// — including replay of stale ciphertext — is detected and surfaced as an
// error.
//
// Only what leaves the chip is authenticated, and only real content:
//   - The first blocks of the store may be declared on-chip (NewTreetop):
//     the ORAM's treetop levels (Table III). They are encrypted like the
//     rest, so checkpoint bytes mean the same, but they get no Merkle
//     leaf and tampering with them is outside the model.
//   - A dummy store (Write with nil plaintext) is a fresh encryption of
//     zeros that is not hashed. No one reads a dummy for its content: a
//     Read or PeelXOR of that block fails closed until a real Write
//     authenticates it, and a dummy folded into an XOR payload is
//     covered by the real block's verify, which a tampered pad corrupts.
//
// The ORAM protocols obliviously decide *where* blocks live; secmem
// guarantees *what* is stored there is confidential and authentic. The
// two compose exactly as in the paper's baseline configuration.
package secmem

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"

	"repro/internal/merkle"
)

// Memory is an encrypted, authenticated block store over a fixed number of
// fixed-size blocks. It is not safe for concurrent use.
type Memory struct {
	blockB   int
	treetop  int64 // blocks [0, treetop) are on-chip: encrypted, never hashed
	block    cipher.Block
	kcv      [32]byte
	store    []byte       // ciphertext, blockB bytes per block
	versions []uint64     // per-block write counter (IV component)
	written  []bool       // blocks that have been written at least once
	tree     *merkle.Tree // leaf i authenticates block treetop+i
	scratch  []byte       // authInput assembly buffer (hashed immediately, never retained)
	ctr      ctrScratch

	// Dirty tracking for incremental checkpoints (delta.go): every Write
	// stamps its block with the current epoch clock; CaptureDirty collects
	// the blocks stamped after a cut. The clock is volatile — it never
	// serializes, so a restored Memory starts a fresh epoch history.
	clock     uint64
	slotEpoch []uint64

	Reads, Writes, Verifies, XORReads uint64
}

// New builds a store of n blocks of blockB bytes under the given 16-byte
// AES key, every block off-chip.
func New(n int64, blockB int, key []byte) (*Memory, error) {
	return NewTreetop(n, 0, blockB, key)
}

// NewTreetop builds a store of n blocks whose first treetop blocks are
// on-chip: they are encrypted but not authenticated, and InjectFault and
// ReplayFault refuse them. The integrity tree covers the n-treetop
// off-chip blocks.
func NewTreetop(n, treetop int64, blockB int, key []byte) (*Memory, error) {
	if n <= 0 || blockB <= 0 {
		return nil, fmt.Errorf("secmem: non-positive geometry (%d x %d)", n, blockB)
	}
	if treetop < 0 || treetop > n {
		return nil, fmt.Errorf("secmem: on-chip prefix %d out of range [0, %d]", treetop, n)
	}
	if len(key) != 16 {
		return nil, fmt.Errorf("secmem: key must be 16 bytes, got %d", len(key))
	}
	blk, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	// An all-on-chip store keeps a one-leaf tree it never uses, so the
	// scope and root methods need no special case.
	tree, err := merkle.New(int(max(n-treetop, 1)))
	if err != nil {
		return nil, err
	}
	m := &Memory{
		blockB:    blockB,
		treetop:   treetop,
		block:     blk,
		kcv:       keyCheck(key),
		store:     make([]byte, n*int64(blockB)),
		versions:  make([]uint64, n),
		written:   make([]bool, n),
		tree:      tree,
		scratch:   make([]byte, 16+blockB),
		clock:     1,
		slotEpoch: make([]uint64, n),
	}
	// Unwritten blocks read back as zeros without verification, so the
	// initial tree (all empty leaves) needs no O(n log n) hashing pass —
	// important when the store backs multi-gigabyte ORAM trees.
	return m, nil
}

// NumBlocks returns the number of addressable blocks.
func (m *Memory) NumBlocks() int64 { return int64(len(m.versions)) }

// BlockBytes returns the block size.
func (m *Memory) BlockBytes() int { return m.blockB }

// Root returns the on-chip integrity root.
func (m *Memory) Root() merkle.Digest { return m.tree.Root() }

// Begin opens an access scope on the integrity tree (merkle.Tree.Begin):
// until the matching End, Writes defer their ancestor hashes and Reads
// stop at tree nodes already checked in the scope. Every Read still
// re-hashes the fetched block, so tampered or replayed ciphertext fails
// inside a scope as it does outside one.
func (m *Memory) Begin() { m.tree.Begin() }

// End closes the scope Begin opened and settles the tree.
func (m *Memory) End() { m.tree.End() }

// Scoped reports whether an access scope is open.
func (m *Memory) Scoped() bool { return m.tree.Scoped() }

// Hashes returns the integrity tree's digest count (merkle.Tree.Hashes).
func (m *Memory) Hashes() uint64 { return m.tree.Hashes }

// Blocks returns the SHA-256 blocks the integrity tree processed
// (merkle.Tree.Blocks).
func (m *Memory) Blocks() uint64 { return m.tree.Blocks }

// Depth returns the integrity tree's internal levels: an unscoped Read of
// an off-chip block hashes Depth()+1 times.
func (m *Memory) Depth() int { return m.tree.Depth() }

// Treetop returns the number of on-chip blocks, the prefix [0, Treetop())
// of the store.
func (m *Memory) Treetop() int64 { return m.treetop }

// offChip reports whether block idx is in untrusted memory.
func (m *Memory) offChip(idx int64) bool { return idx >= m.treetop }

// keystream XORs data in place with the CTR keystream for (block, version).
func (m *Memory) keystream(idx int64, version uint64, data []byte) {
	xorKeystream(m.block, &m.ctr, idx, version, data)
}

// ctrScratch holds one counter block and its keystream block. Encrypt is
// an interface call, so arrays on the caller's stack would escape to the
// heap; a Memory keeps one pair for its hot path.
type ctrScratch struct{ ctr, ks [aes.BlockSize]byte }

// xorKeystream XORs data in place with the CTR keystream for (block,
// version) under an arbitrary AES instance: the IV is idx and version as
// little-endian words, counted up as one 128-bit big-endian integer per
// block, byte-identical to cipher.NewCTR. The client side of the XOR
// online fast path uses it to regenerate dummy pads without a Memory.
func xorKeystream(b cipher.Block, s *ctrScratch, idx int64, version uint64, data []byte) {
	binary.LittleEndian.PutUint64(s.ctr[0:8], uint64(idx))
	binary.LittleEndian.PutUint64(s.ctr[8:16], version)
	for len(data) > 0 {
		b.Encrypt(s.ks[:], s.ctr[:])
		data = data[subtle.XORBytes(data, data, s.ks[:]):]
		incrementCTR(&s.ctr)
	}
}

// incrementCTR adds one to a 128-bit big-endian counter.
func incrementCTR(c *[aes.BlockSize]byte) {
	for i := len(c) - 1; i >= 0; i-- {
		c[i]++
		if c[i] != 0 {
			return
		}
	}
}

// authInput binds ciphertext to its position and version, so relocating or
// replaying ciphertext fails verification.
func (m *Memory) authInput(idx int64) []byte {
	return m.authInputFor(idx, m.versions[idx], m.ciphertext(idx))
}

// authInputFor assembles the (position, version, ciphertext) binding into
// the shared scratch buffer. The Merkle tree hashes its input immediately
// and never retains the slice, so reusing one buffer is safe — and removes
// a per-access heap allocation from the hottest path (every Write reauths).
func (m *Memory) authInputFor(idx int64, version uint64, ct []byte) []byte {
	buf := m.scratch
	binary.LittleEndian.PutUint64(buf[0:8], uint64(idx))
	binary.LittleEndian.PutUint64(buf[8:16], version)
	copy(buf[16:], ct)
	return buf
}

func (m *Memory) ciphertext(idx int64) []byte {
	return m.store[idx*int64(m.blockB) : (idx+1)*int64(m.blockB)]
}

// reauth refreshes off-chip block idx's authentication path.
func (m *Memory) reauth(idx int64) error {
	return m.tree.Update(int(idx-m.treetop), m.authInput(idx))
}

// verify authenticates content claimed for off-chip block idx at the
// given version.
func (m *Memory) verify(idx int64, version uint64, ct []byte) error {
	m.Verifies++
	return m.tree.Verify(int(idx-m.treetop), m.authInputFor(idx, version, ct))
}

// Write encrypts plaintext into block idx and, for an off-chip block,
// refreshes its authentication path. len(plaintext) must equal
// BlockBytes, or plaintext is nil: a dummy store, a fresh encryption of
// zeros under a new version that is not authenticated, so a Read or
// PeelXOR of an off-chip dummy fails until a real Write replaces it. The
// block still counts as written: an XOR read folds its pad.
func (m *Memory) Write(idx int64, plaintext []byte) error {
	if idx < 0 || idx >= m.NumBlocks() {
		return fmt.Errorf("secmem: block %d out of range", idx)
	}
	if plaintext != nil && len(plaintext) != m.blockB {
		return fmt.Errorf("secmem: plaintext %d bytes, want %d", len(plaintext), m.blockB)
	}
	m.Writes++
	m.versions[idx]++ // fresh IV per write: CTR never reuses a stream
	m.written[idx] = true
	m.slotEpoch[idx] = m.clock
	ct := m.ciphertext(idx)
	if plaintext == nil {
		clear(ct)
	} else {
		copy(ct, plaintext)
	}
	m.keystream(idx, m.versions[idx], ct)
	if plaintext == nil || !m.offChip(idx) {
		return nil
	}
	return m.reauth(idx)
}

// Read verifies (off-chip) and decrypts block idx into a fresh slice.
// Tampered content, or an off-chip dummy, returns an error and no data.
func (m *Memory) Read(idx int64) ([]byte, error) {
	if idx < 0 || idx >= m.NumBlocks() {
		return nil, fmt.Errorf("secmem: block %d out of range", idx)
	}
	m.Reads++
	if !m.written[idx] {
		return make([]byte, m.blockB), nil
	}
	if m.offChip(idx) {
		if err := m.verify(idx, m.versions[idx], m.ciphertext(idx)); err != nil {
			return nil, fmt.Errorf("secmem: integrity failure at block %d: %w", idx, err)
		}
	}
	pt := append([]byte(nil), m.ciphertext(idx)...)
	m.keystream(idx, m.versions[idx], pt)
	return pt, nil
}

// ReadBlock adapts Read to byte addressing, implementing the ORAM engine's
// data-plane interface (ringoram.DataPlane).
func (m *Memory) ReadBlock(addr uint64) ([]byte, error) {
	if addr%uint64(m.blockB) != 0 {
		return nil, fmt.Errorf("secmem: unaligned address %#x", addr)
	}
	return m.Read(int64(addr / uint64(m.blockB)))
}

// WriteBlock adapts Write to byte addressing, implementing the ORAM
// engine's data-plane interface; nil data is a dummy store.
func (m *Memory) WriteBlock(addr uint64, data []byte) error {
	if addr%uint64(m.blockB) != 0 {
		return fmt.Errorf("secmem: unaligned address %#x", addr)
	}
	return m.Write(int64(addr/uint64(m.blockB)), data)
}

// Ciphertext exposes the raw stored bytes of a block — the attacker's view
// of memory. Tests use it to confirm plaintext never appears on the "bus".
func (m *Memory) Ciphertext(idx int64) []byte {
	return append([]byte(nil), m.ciphertext(idx)...)
}

// InjectFault flips one bit of stored ciphertext, simulating memory
// tampering; the next Read of the block must fail verification. On-chip
// blocks are not untrusted memory and are refused.
func (m *Memory) InjectFault(idx int64, byteOffset int) error {
	if idx < 0 || idx >= m.NumBlocks() || byteOffset < 0 || byteOffset >= m.blockB {
		return fmt.Errorf("secmem: fault target out of range")
	}
	if !m.offChip(idx) {
		return fmt.Errorf("secmem: block %d is on-chip, not untrusted memory", idx)
	}
	m.ciphertext(idx)[byteOffset] ^= 0x01
	return nil
}

// ReplayFault restores a previously captured ciphertext (a replay attack);
// the version binding must make the next Read fail.
func (m *Memory) ReplayFault(idx int64, oldCiphertext []byte) error {
	if idx < 0 || idx >= m.NumBlocks() {
		return fmt.Errorf("secmem: block %d out of range", idx)
	}
	if !m.offChip(idx) {
		return fmt.Errorf("secmem: block %d is on-chip, not untrusted memory", idx)
	}
	if len(oldCiphertext) != m.blockB {
		return fmt.Errorf("secmem: ciphertext %d bytes, want %d", len(oldCiphertext), m.blockB)
	}
	copy(m.ciphertext(idx), oldCiphertext)
	// The attacker cannot touch the on-chip version counter or Merkle
	// tree, so nothing else changes — the stale ciphertext now disagrees
	// with the current (position, version) binding and Read must fail.
	return nil
}

// KeyCheck returns the store's key-check value: SHA-256 of the key
// under a fixed domain tag. Checkpoints carry it so restoring under the
// wrong key fails loudly instead of silently decrypting garbage; it
// reveals nothing an attacker could not already test by guessing keys
// against the ciphertext. The key itself never serializes.
func (m *Memory) KeyCheck() [32]byte { return m.kcv }

func keyCheck(key []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("aboram-kcv-v1"))
	h.Write(key)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
