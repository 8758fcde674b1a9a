package aboram

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/core"
	"repro/internal/ringoram"
	"repro/internal/rng"
	"repro/internal/secmem"
	"repro/internal/stash"
)

// Checkpoint streams: SaveDelta writes only the state mutated since an
// epoch cut, so a durability layer can checkpoint at O(dirty set)
// instead of O(tree), and Save writes the same stream with a window that
// covers everything (a full image: every bucket, position, and slot).
// The stream is a sequence of CRC-framed records — each frame is
// `u32 length | u32 CRC-32C | body`, body is one tag byte plus a gob
// payload (gob.go) — terminated by an explicit end marker, so a torn
// tail or a flipped bit is detected instead of silently changing state. No Go map
// reaches a payload, so the bytes are a function of the state alone.
// ApplyDelta decodes and CRC-verifies the whole stream before mutating
// anything; semantic validation failures mid-apply leave the instance
// undefined and callers must rebuild from the base image (the durable
// recovery path does exactly that).
//
// Record tags, in stream order:
//
//	'H'  header: geometry handshake, Full flag, key check, and the epoch
//	     window [Since, Cut] (both 0 in a full image)
//	'B'  bucket batch ([]ringoram.BucketDelta), repeated
//	'P'  position-map batch (parallel block/path slices), repeated
//	'M'  encrypted-store slot batch (*secmem.SlotDelta), repeated
//	'S'  full stash + stash payloads in stash order (always present:
//	     small, and its absence must mean "empty", never "unchanged")
//	'X'  misc scalars: counters, tallies, both random streams
//	'Q'  full DeadQ, level-sorted (DR/AB schemes only)
//	'E'  end marker — a stream without one is torn
//
// Streams written before images became full deltas carry the stash
// payloads as a map and the DeadQ as a map under tag 'D'; both still
// decode.
const (
	deltaTagHeader   = 'H'
	deltaTagBucket   = 'B'
	deltaTagPos      = 'P'
	deltaTagMem      = 'M'
	deltaTagStash    = 'S'
	deltaTagMisc     = 'X'
	deltaTagDeadQ    = 'Q'
	deltaTagDeadQMap = 'D'
	deltaTagEnd      = 'E'
)

// maxDeltaBody caps a single record body so a hostile length prefix
// cannot force an arbitrary allocation before the CRC is checked.
const maxDeltaBody = 1 << 24

// Batch sizes keep every record comfortably under maxDeltaBody at any
// supported geometry while still amortizing the frame overhead.
const (
	deltaBucketBatch = 1024
	deltaSlotBatch   = 8192
	deltaPosBatch    = 8192
)

var deltaCRC = crc32.MakeTable(crc32.Castagnoli)

type deltaHeader struct {
	Levels    int
	Since     uint64
	Cut       uint64
	Encrypted bool
	HasDeadQ  bool
	// Full marks a base image: every bucket, position, and slot, so the
	// stream reproduces the state over any instance of the configuration.
	Full bool
	// KeyCheck is the data plane's key-check value (secmem.KeyCheck);
	// zero in unencrypted streams and in streams that predate it.
	KeyCheck [32]byte
}

type deltaPos struct {
	Blocks []int64
	Paths  []int64
}

type deltaStash struct {
	Stash    []stash.Entry
	Payloads [][]byte // parallel to Stash
	// StashData is the pre-canonical payload form, decoded only.
	StashData map[int64][]byte
}

type deltaMisc struct {
	EvictGen       int64
	Stats          ringoram.Stats
	ReshufPerLevel []uint64
	DeadPerLevel   []uint64
	Rng            *rng.Source
	PosRng         *rng.Source
}

// CutEpoch closes the current mutation epoch across every tracked
// component (protocol engine, position map, encrypted store) and
// returns it. Mutations from now on belong to the next epoch; a later
// SaveDelta(w, cut) captures exactly them. All component clocks start
// at 1 and only advance here, so one epoch value addresses them all.
func (o *ORAM) CutEpoch() uint64 {
	if o.mem != nil {
		o.mem.Cut()
	}
	return o.inner.Cut()
}

// DeltaSnapshot is a captured-but-not-yet-encoded checkpoint (a delta
// or a full image): self-owned copies of everything it covers, safe to
// Encode from another goroutine while the instance keeps serving. The
// split is what makes checkpoints non-blocking — the serving pause
// holds only the memory capture; the encode (the expensive half) runs
// at publish time.
type DeltaSnapshot struct {
	hdr   deltaHeader
	d     *ringoram.Delta
	mem   *secmem.SlotDelta // nil: no slot records
	deadq []core.QueuedLevel
}

// CaptureDelta closes the current epoch and captures everything mutated
// after epoch `since` (exclusive) into a self-owned snapshot, returning
// it with the cut: pass the cut as `since` to the next capture to chain
// deltas gap-free. since=0 captures all mutations since construction or
// the last Load/ApplyDelta rebuild — which is why a durability layer
// re-bases with CaptureBase after recovery instead of persisting epoch
// clocks.
func (o *ORAM) CaptureDelta(since uint64) (*DeltaSnapshot, uint64, error) {
	cut := o.CutEpoch()
	if since > cut {
		return nil, 0, fmt.Errorf("aboram: delta since epoch %d is in the future (cut %d)", since, cut)
	}
	s := o.capture(o.inner.CaptureDelta(since))
	s.hdr.Since, s.hdr.Cut = since, cut
	if o.mem != nil {
		s.mem = o.mem.CaptureDirty(since)
	}
	return s, cut, nil
}

// CaptureBase closes the current epoch like CaptureDelta and captures a
// full image: every bucket, position-map entry, and store slot,
// independent of the mutation stamps, so a missed stamp can damage
// deltas only up to the next base. Encoded, it is exactly Save's bytes.
func (o *ORAM) CaptureBase() (*DeltaSnapshot, uint64, error) {
	cut := o.CutEpoch()
	return o.captureFull(), cut, nil
}

func (o *ORAM) captureFull() *DeltaSnapshot {
	s := o.capture(o.inner.CaptureFull())
	s.hdr.Full = true
	if o.mem != nil {
		s.mem = o.mem.CaptureAll()
	}
	return s
}

// capture wraps a protocol capture with the sections every snapshot
// carries in full.
func (o *ORAM) capture(d *ringoram.Delta) *DeltaSnapshot {
	// The protocol capture aliases the live random streams (they are the
	// only part it does not copy); the snapshot must own them so a
	// background Encode cannot race the next access.
	r, pr := *d.Rng, *d.PosRng
	d.Rng, d.PosRng = &r, &pr
	s := &DeltaSnapshot{
		hdr: deltaHeader{
			Levels:    d.Levels,
			Encrypted: o.mem != nil,
			HasDeadQ:  o.dq != nil,
		},
		d: d,
	}
	if o.mem != nil {
		s.hdr.KeyCheck = o.mem.KeyCheck()
	}
	if o.dq != nil {
		s.deadq = o.dq.Snapshot()
	}
	return s
}

// Encode writes the snapshot as a SaveDelta stream.
func (s *DeltaSnapshot) Encode(w io.Writer) error {
	d := s.d
	if err := writeDeltaFrame(w, deltaTagHeader, &s.hdr); err != nil {
		return err
	}
	for i := 0; i < len(d.Buckets); i += deltaBucketBatch {
		end := min(i+deltaBucketBatch, len(d.Buckets))
		if err := writeDeltaFrame(w, deltaTagBucket, d.Buckets[i:end]); err != nil {
			return err
		}
	}
	for i := 0; i < len(d.PosBlocks); i += deltaPosBatch {
		end := min(i+deltaPosBatch, len(d.PosBlocks))
		p := deltaPos{Blocks: d.PosBlocks[i:end], Paths: d.PosPaths[i:end]}
		if err := writeDeltaFrame(w, deltaTagPos, &p); err != nil {
			return err
		}
	}
	if m := s.mem; m != nil && len(m.Idx) > 0 {
		blockB := len(m.Data) / len(m.Idx)
		for i := 0; i < len(m.Idx); i += deltaSlotBatch {
			end := min(i+deltaSlotBatch, len(m.Idx))
			chunk := secmem.SlotDelta{
				Idx:      m.Idx[i:end],
				Versions: m.Versions[i:end],
				Written:  m.Written[i:end],
				Data:     m.Data[i*blockB : end*blockB],
			}
			if err := writeDeltaFrame(w, deltaTagMem, &chunk); err != nil {
				return err
			}
		}
	}
	st := deltaStash{Stash: d.Stash, Payloads: d.StashData}
	if err := writeDeltaFrame(w, deltaTagStash, &st); err != nil {
		return err
	}
	misc := deltaMisc{
		EvictGen:       d.EvictGen,
		Stats:          d.Stats,
		ReshufPerLevel: d.ReshufPerLevel,
		DeadPerLevel:   d.DeadPerLevel,
		Rng:            d.Rng,
		PosRng:         d.PosRng,
	}
	if err := writeDeltaFrame(w, deltaTagMisc, &misc); err != nil {
		return err
	}
	if s.hdr.HasDeadQ {
		if err := writeDeltaFrame(w, deltaTagDeadQ, s.deadq); err != nil {
			return err
		}
	}
	return writeDeltaFrame(w, deltaTagEnd, nil)
}

// SaveDelta captures and encodes in one synchronous step: everything
// mutated after epoch `since` (exclusive), closing the current epoch
// and returning the cut. Callers that must not pay the encode on the
// serving path use CaptureDelta and Encode separately.
func (o *ORAM) SaveDelta(w io.Writer, since uint64) (uint64, error) {
	s, cut, err := o.CaptureDelta(since)
	if err != nil {
		return 0, err
	}
	return cut, s.Encode(w)
}

// ApplyDelta replays a SaveDelta stream (or a Save image) over the
// current state. The whole stream is decoded and CRC-verified first — a
// torn or corrupt stream is rejected with no state change. Semantic
// validation during the apply stage (out-of-range indices and the like)
// can still fail after partial mutation; on any error the caller must
// discard the instance and rebuild from its base image.
func (o *ORAM) ApplyDelta(r io.Reader) error {
	s, err := decodeDelta(r)
	if err != nil {
		return err
	}
	return o.apply(s)
}

// decodeDelta reads and CRC-verifies a whole stream into a snapshot.
func decodeDelta(r io.Reader) (*DeltaSnapshot, error) {
	s := &DeltaSnapshot{d: &ringoram.Delta{}}
	var (
		st              *deltaStash
		misc            *deltaMisc
		haveHdr, haveDQ bool
	)
	for done := false; !done; {
		tag, body, err := readDeltaFrame(r)
		if err != nil {
			return nil, err
		}
		if !haveHdr && tag != deltaTagHeader {
			return nil, fmt.Errorf("aboram: delta stream starts with record %q, want header", tag)
		}
		switch tag {
		case deltaTagHeader:
			if haveHdr {
				return nil, fmt.Errorf("aboram: duplicate delta header")
			}
			if err := decodePayload(body, &s.hdr); err != nil {
				return nil, fmt.Errorf("aboram: decoding delta header: %w", err)
			}
			haveHdr = true
		case deltaTagBucket:
			var chunk []ringoram.BucketDelta
			if err := decodePayload(body, &chunk); err != nil {
				return nil, fmt.Errorf("aboram: decoding delta buckets: %w", err)
			}
			s.d.Buckets = append(s.d.Buckets, chunk...)
		case deltaTagPos:
			var p deltaPos
			if err := decodePayload(body, &p); err != nil {
				return nil, fmt.Errorf("aboram: decoding delta positions: %w", err)
			}
			s.d.PosBlocks = append(s.d.PosBlocks, p.Blocks...)
			s.d.PosPaths = append(s.d.PosPaths, p.Paths...)
		case deltaTagMem:
			var chunk secmem.SlotDelta
			if err := decodePayload(body, &chunk); err != nil {
				return nil, fmt.Errorf("aboram: decoding delta store slots: %w", err)
			}
			if s.mem == nil {
				s.mem = &secmem.SlotDelta{}
			}
			s.mem.Idx = append(s.mem.Idx, chunk.Idx...)
			s.mem.Versions = append(s.mem.Versions, chunk.Versions...)
			s.mem.Written = append(s.mem.Written, chunk.Written...)
			s.mem.Data = append(s.mem.Data, chunk.Data...)
		case deltaTagStash:
			st = &deltaStash{}
			if err := decodePayload(body, st); err != nil {
				return nil, fmt.Errorf("aboram: decoding delta stash: %w", err)
			}
		case deltaTagMisc:
			misc = &deltaMisc{}
			if err := decodePayload(body, misc); err != nil {
				return nil, fmt.Errorf("aboram: decoding delta counters: %w", err)
			}
		case deltaTagDeadQ:
			if err := decodePayload(body, &s.deadq); err != nil {
				return nil, fmt.Errorf("aboram: decoding delta DeadQ: %w", err)
			}
			haveDQ = true
		case deltaTagDeadQMap:
			var dq map[int][]ringoram.SlotRef
			if err := decodePayload(body, &dq); err != nil {
				return nil, fmt.Errorf("aboram: decoding delta DeadQ: %w", err)
			}
			s.deadq, haveDQ = legacyDeadQ(dq), true
		case deltaTagEnd:
			done = true
		default:
			return nil, fmt.Errorf("aboram: unknown delta record %q", tag)
		}
	}
	if st == nil || misc == nil {
		return nil, fmt.Errorf("aboram: delta stream missing required sections")
	}
	if s.hdr.HasDeadQ && !haveDQ {
		return nil, fmt.Errorf("aboram: delta stream missing DeadQ section")
	}
	d := s.d
	d.Levels = s.hdr.Levels
	d.EvictGen, d.Stats = misc.EvictGen, misc.Stats
	d.ReshufPerLevel, d.DeadPerLevel = misc.ReshufPerLevel, misc.DeadPerLevel
	d.Rng, d.PosRng = misc.Rng, misc.PosRng
	d.Stash, d.StashData = st.Stash, st.Payloads
	if st.StashData != nil {
		d.StashData = legacyStashPayloads(st.Stash, st.StashData)
	}
	return s, nil
}

// apply installs a decoded snapshot: the one path by which checkpoint
// state — base, delta, or legacy image — enters an instance.
func (o *ORAM) apply(s *DeltaSnapshot) error {
	h := &s.hdr
	if h.Levels != o.inner.Config().Levels {
		return fmt.Errorf("aboram: delta for a %d-level tree, instance has %d", h.Levels, o.inner.Config().Levels)
	}
	if h.Encrypted != (o.mem != nil) || (s.mem != nil && o.mem == nil) {
		return fmt.Errorf("aboram: delta data-plane mismatch (delta encrypted=%v)", h.Encrypted)
	}
	if h.HasDeadQ != (o.dq != nil) {
		return fmt.Errorf("aboram: delta DeadQ mismatch (delta hasDeadQ=%v)", h.HasDeadQ)
	}
	if o.mem != nil && h.KeyCheck != ([32]byte{}) && h.KeyCheck != o.mem.KeyCheck() {
		return fmt.Errorf("aboram: checkpoint was written under a different encryption key")
	}
	if h.Full && (int64(len(s.d.Buckets)) != o.inner.Geometry().NumBuckets() ||
		int64(len(s.d.PosBlocks)) != o.NumBlocks() ||
		(o.mem != nil && (s.mem == nil || int64(len(s.mem.Idx)) != o.mem.NumBlocks()))) {
		return fmt.Errorf("aboram: full image does not cover the whole state")
	}
	if err := o.inner.ApplyDelta(s.d); err != nil {
		return err
	}
	if s.mem != nil {
		// One scope for the whole install: each internal node is hashed
		// once, not once per slot below it.
		o.mem.Begin()
		err := o.mem.ApplySlots(s.mem)
		o.mem.End()
		if err != nil {
			return err
		}
	}
	if o.dq != nil {
		return o.dq.Restore(s.deadq)
	}
	return nil
}

func writeDeltaFrame(w io.Writer, tag byte, payload any) error {
	var body bytes.Buffer
	body.WriteByte(tag)
	if payload != nil {
		if err := encodePayload(&body, payload); err != nil {
			return fmt.Errorf("aboram: encoding delta record %q: %w", tag, err)
		}
	}
	if body.Len() > maxDeltaBody {
		return fmt.Errorf("aboram: delta record %q overflows frame (%d bytes)", tag, body.Len())
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(body.Len()))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(body.Bytes(), deltaCRC))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body.Bytes())
	return err
}

func readDeltaFrame(r io.Reader) (byte, []byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("aboram: torn delta frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n == 0 || n > maxDeltaBody {
		return 0, nil, fmt.Errorf("aboram: delta frame length %d out of range", n)
	}
	// Grow the buffer as bytes actually arrive rather than trusting the
	// length prefix: a hostile header must not force a large allocation.
	var body bytes.Buffer
	if m, err := io.CopyN(&body, r, int64(n)); err != nil {
		return 0, nil, fmt.Errorf("aboram: torn delta frame body (%d of %d bytes): %w", m, n, err)
	}
	b := body.Bytes()
	if crc32.Checksum(b, deltaCRC) != binary.BigEndian.Uint32(hdr[4:8]) {
		return 0, nil, fmt.Errorf("aboram: delta frame CRC mismatch")
	}
	return b[0], b[1:], nil
}
