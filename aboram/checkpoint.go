package aboram

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
)

// Save writes a complete checkpoint of the instance: the checkpoint
// stream (delta.go) of a full image, whose window covers every bucket,
// position-map entry, store slot, the stash, and the DeadQ. Every record
// is CRC-framed, and the bytes are a function of the state alone.
//
// The image is not safe to store where the ORAM's adversary can read
// it. The store's ciphertext is encrypted and no key material is written
// (only a key-check value), but the image also carries the position
// map, which block sits in which slot, the plaintext payloads of stashed
// blocks, and the random-generator states that draw every future remap.
func (o *ORAM) Save(w io.Writer) error { return o.captureFull().Encode(w) }

// Fingerprint returns SHA-256 over Save's bytes. Save is canonical, so
// two instances with equal fingerprints hold — and restore to — the same
// state; the isolation checks in internal/check are built on this.
func (o *ORAM) Fingerprint() ([sha256.Size]byte, error) {
	var out [sha256.Size]byte
	h := sha256.New()
	if err := o.Save(h); err != nil {
		return out, fmt.Errorf("aboram: fingerprinting: %w", err)
	}
	copy(out[:], h.Sum(nil))
	return out, nil
}

// Load restores an instance saved with Save: a fresh New(opt) with the
// image applied over it. opt must describe the same configuration the
// instance was created with (scheme, levels, seed), and must carry the
// same EncryptionKey if the saved instance was encrypted; a delta stream
// or an image saved under another key is rejected. Images written by the
// gob image writer that predates the checkpoint stream still load
// (gob.go).
func Load(opt Options, r io.Reader) (*ORAM, error) {
	o, err := New(opt)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(r)
	var s *DeltaSnapshot
	if isLegacyImage(br) {
		s, err = decodeLegacyImage(o, br)
	} else {
		s, err = decodeDelta(br)
	}
	if err != nil {
		return nil, err
	}
	if !s.hdr.Full {
		return nil, fmt.Errorf("aboram: checkpoint is a delta, not a full image")
	}
	if err := o.apply(s); err != nil {
		return nil, err
	}
	return o, nil
}
