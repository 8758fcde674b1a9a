package secmem

import (
	"crypto/aes"
	"fmt"
)

// This file implements the server half of Ring ORAM's XOR technique: the
// online ReadPath touches one real slot plus one reserved-dummy slot per
// bucket, and since every dummy is an encrypted known-plaintext (zero)
// block, its ciphertext *is* its CTR keystream. The server therefore XORs
// all touched ciphertexts into a single block-sized payload, and the
// client — who holds the AES key — regenerates each dummy pad from its
// (idx, version) IV components and peels them off, recovering the real
// block from one block's worth of traffic instead of L+1.

// PadRef names one CTR keystream: the (block index, write version) pair
// that forms the IV. The client regenerates the pad locally from these two
// values and the shared key; no ciphertext travels for it.
type PadRef struct {
	Idx     int64
	Version uint64
}

// XORRead is one ReadPath's combined online transfer: a single block-sized
// XOR of the touched ciphertexts plus the descriptors needed to peel it.
// Unwritten slots store zeros and contribute nothing, so they get no pad.
type XORRead struct {
	Payload     []byte   // XOR of every written touched ciphertext
	Pads        []PadRef // written dummy slots folded into Payload
	Real        PadRef   // IV components of the real slot
	RealWritten bool     // false: the real slot was never written (peels to zeros)
}

func xorInto(dst, src []byte) {
	for i := range src {
		dst[i] ^= src[i]
	}
}

// ReadPathXOR combines the ciphertexts of one ReadPath — the real slot and
// the reserved-dummy slots — into a single block-sized payload. The result
// is freshly allocated (it typically crosses goroutines in the serving
// layer). Verification of the recovered real ciphertext happens at peel
// time, against the Merkle tree as usual.
func (m *Memory) ReadPathXOR(real int64, dummies []int64) (*XORRead, error) {
	if real < m.treetop || real >= m.NumBlocks() {
		return nil, fmt.Errorf("secmem: real block %d out of the off-chip range", real)
	}
	m.Reads++
	m.XORReads++
	x := &XORRead{Payload: make([]byte, m.blockB)}
	for _, d := range dummies {
		if d < m.treetop || d >= m.NumBlocks() {
			return nil, fmt.Errorf("secmem: dummy block %d out of the off-chip range", d)
		}
		if d == real {
			return nil, fmt.Errorf("secmem: dummy block %d aliases the real slot", d)
		}
		if !m.written[d] {
			continue // stored zeros: nothing to fold in, no pad to peel
		}
		xorInto(x.Payload, m.ciphertext(d))
		x.Pads = append(x.Pads, PadRef{Idx: d, Version: m.versions[d]})
	}
	if m.written[real] {
		xorInto(x.Payload, m.ciphertext(real))
		x.RealWritten = true
	}
	x.Real = PadRef{Idx: real, Version: m.versions[real]}
	return x, nil
}

// PeelXOR recovers the real block's plaintext from an XORRead produced by
// this Memory: peel each dummy pad, verify the recovered real ciphertext
// against the Merkle tree (binding position and version exactly as a plain
// Read does), then decrypt. Tampering with the payload, the pads, or the
// stored state surfaces as an integrity error. XOR reads cover off-chip
// blocks only: the real block's verify is what authenticates the pads.
func (m *Memory) PeelXOR(x *XORRead) ([]byte, error) {
	if x == nil || len(x.Payload) != m.blockB {
		return nil, fmt.Errorf("secmem: malformed XOR payload")
	}
	if x.Real.Idx < m.treetop || x.Real.Idx >= m.NumBlocks() {
		return nil, fmt.Errorf("secmem: real block %d out of the off-chip range", x.Real.Idx)
	}
	if !x.RealWritten {
		// Mirrors Read of a never-written block: zeros, no verification.
		return make([]byte, m.blockB), nil
	}
	ct := append([]byte(nil), x.Payload...)
	for _, p := range x.Pads {
		if p.Idx < 0 || p.Idx >= m.NumBlocks() {
			return nil, fmt.Errorf("secmem: pad block %d out of range", p.Idx)
		}
		// A dummy ciphertext is keystream over zeros, so XORing the
		// keystream back in *is* the peel.
		m.keystream(p.Idx, p.Version, ct)
	}
	if err := m.verify(x.Real.Idx, x.Real.Version, ct); err != nil {
		return nil, fmt.Errorf("secmem: integrity failure peeling block %d: %w", x.Real.Idx, err)
	}
	m.keystream(x.Real.Idx, x.Real.Version, ct)
	return ct, nil
}

// ReadBlocksXOR adapts ReadPathXOR+PeelXOR to byte addressing, implementing
// the ORAM engine's XOR data-plane extension (ringoram.XORDataPlane): it
// returns both the wire envelope and the verified plaintext of the real
// block.
func (m *Memory) ReadBlocksXOR(realAddr uint64, dummyAddrs []uint64) (*XORRead, []byte, error) {
	bb := uint64(m.blockB)
	if realAddr%bb != 0 {
		return nil, nil, fmt.Errorf("secmem: unaligned address %#x", realAddr)
	}
	dummies := make([]int64, 0, len(dummyAddrs))
	for _, a := range dummyAddrs {
		if a%bb != 0 {
			return nil, nil, fmt.Errorf("secmem: unaligned address %#x", a)
		}
		dummies = append(dummies, int64(a/bb))
	}
	x, err := m.ReadPathXOR(int64(realAddr/bb), dummies)
	if err != nil {
		return nil, nil, err
	}
	pt, err := m.PeelXOR(x)
	if err != nil {
		return nil, nil, err
	}
	return x, pt, nil
}

// PeelPayload is the remote client's peel: it recovers the real block's
// plaintext from a wire XOR envelope using only the shared AES key. The
// client has no Merkle state — integrity was already verified server-side
// inside the enclave boundary before the envelope was emitted.
func PeelPayload(key []byte, x *XORRead) ([]byte, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("secmem: key must be 16 bytes, got %d", len(key))
	}
	if x == nil || len(x.Payload) == 0 {
		return nil, fmt.Errorf("secmem: empty XOR payload")
	}
	if !x.RealWritten {
		return make([]byte, len(x.Payload)), nil
	}
	blk, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), x.Payload...)
	var s ctrScratch
	for _, p := range x.Pads {
		xorKeystream(blk, &s, p.Idx, p.Version, out)
	}
	xorKeystream(blk, &s, x.Real.Idx, x.Real.Version, out)
	return out, nil
}
