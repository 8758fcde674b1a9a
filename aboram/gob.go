package aboram

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/ringoram"
	"repro/internal/rng"
	"repro/internal/stash"
)

// Everything in aboram that speaks encoding/gob is in this file: the
// record payload codec of the checkpoint stream (delta.go), and the
// read-only converter for images the gob image writer produced before
// every image became a full checkpoint stream.

func encodePayload(w io.Writer, v any) error { return gob.NewEncoder(w).Encode(v) }

func decodePayload(body []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// legacyImage is the gob image writer's on-disk form. Gob matches
// fields by name, so these private mirrors of the types that writer
// encoded (its protocol checkpoint and store state) decode its images
// unchanged.
type legacyImage struct {
	Protocol *legacyProtocol
	DeadQ    map[int][]ringoram.SlotRef
	Memory   *legacyMemory
}

type legacyProtocol struct {
	Levels int

	SlotBlock  []int64
	SlotFlags  []uint8
	SlotGen    []uint32
	SlotDeadAt []uint64
	Count      []uint16
	DynS       []int16
	Remote     [][]ringoram.RemoteRef
	EvictGen   int64

	Stats          ringoram.Stats
	ReshufPerLevel []uint64
	DeadPerLevel   []uint64

	Rng       *rng.Source
	PosRng    *rng.Source
	Positions []int64

	Stash     []stash.Entry
	StashData map[int64][]byte
}

type legacyMemory struct {
	BlockB   int
	Store    []byte
	Versions []uint64
	Written  []bool
	KeyCheck [32]byte
}

// isLegacyImage tells the two image forms apart by their first byte: a
// checkpoint stream opens with a frame length whose high byte is zero,
// while a gob stream opens with a positive message length.
func isLegacyImage(br *bufio.Reader) bool {
	b, err := br.Peek(1)
	return err == nil && b[0] != 0
}

// decodeLegacyImage converts a gob image into the full snapshot that
// describes the same state, shaped by o (a fresh instance of the image's
// configuration): the image's flat per-slot arrays are cut into buckets
// in o's slot order. Shapes are checked here only as far as the cutting
// needs; apply runs the same range checks as for any other stream.
func decodeLegacyImage(o *ORAM, r io.Reader) (*DeltaSnapshot, error) {
	var img legacyImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("aboram: decoding checkpoint: %w", err)
	}
	p := img.Protocol
	if p == nil {
		return nil, fmt.Errorf("aboram: checkpoint has no protocol state")
	}
	s := o.captureFull()
	d := s.d
	geometry := fmt.Errorf("aboram: checkpoint geometry does not match configuration")
	nb, slots := len(d.Buckets), len(p.SlotBlock)
	if len(p.Count) != nb || len(p.DynS) != nb || len(p.Remote) != nb || len(p.SlotFlags) != slots ||
		(p.SlotGen != nil && len(p.SlotGen) != slots) || (p.SlotDeadAt != nil && len(p.SlotDeadAt) != slots) ||
		len(p.Positions) != len(d.PosPaths) {
		return nil, geometry
	}
	off := 0
	for b := range d.Buckets {
		bd := &d.Buckets[b]
		end := off + len(bd.Block)
		if end > slots {
			return nil, geometry
		}
		bd.Block, bd.Flags = p.SlotBlock[off:end], p.SlotFlags[off:end]
		if p.SlotGen != nil {
			bd.Gen = p.SlotGen[off:end]
		}
		if p.SlotDeadAt != nil {
			bd.DeadAt = p.SlotDeadAt[off:end]
		}
		bd.Count, bd.DynS, bd.Remote = p.Count[b], p.DynS[b], p.Remote[b]
		off = end
	}
	if off != slots {
		return nil, geometry
	}
	s.hdr.Levels, d.Levels = p.Levels, p.Levels
	d.PosPaths = p.Positions
	d.EvictGen, d.Stats = p.EvictGen, p.Stats
	d.ReshufPerLevel, d.DeadPerLevel = p.ReshufPerLevel, p.DeadPerLevel
	d.Rng, d.PosRng = p.Rng, p.PosRng
	d.Stash, d.StashData = p.Stash, legacyStashPayloads(p.Stash, p.StashData)
	s.deadq = legacyDeadQ(img.DeadQ)
	if m := img.Memory; m == nil {
		s.hdr.Encrypted, s.hdr.KeyCheck, s.mem = false, [32]byte{}, nil
	} else {
		s.hdr.Encrypted, s.hdr.KeyCheck = true, m.KeyCheck
		if s.mem != nil { // nil: o has no data plane, which apply rejects
			s.mem.Versions, s.mem.Written, s.mem.Data = m.Versions, m.Written, m.Store
		}
	}
	return s, nil
}

// legacyStashPayloads turns the map form of the stash payloads into the
// form parallel to the (block-sorted) stash.
func legacyStashPayloads(entries []stash.Entry, m map[int64][]byte) [][]byte {
	if len(m) == 0 {
		return nil
	}
	out := make([][]byte, len(entries))
	for i, e := range entries {
		out[i] = m[e.Block]
	}
	return out
}

// legacyDeadQ turns the map form of a DeadQ snapshot into the
// level-sorted form.
func legacyDeadQ(m map[int][]ringoram.SlotRef) []core.QueuedLevel {
	var out []core.QueuedLevel
	for lvl, refs := range m {
		out = append(out, core.QueuedLevel{Level: lvl, Refs: refs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Level < out[j].Level })
	return out
}
