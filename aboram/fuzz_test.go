package aboram

import (
	"bytes"
	"sort"
	"sync"
	"testing"
)

// fuzzPayload expands a single byte into a full deterministic block.
func fuzzPayload(blockB int, blk int64, fill byte) []byte {
	d := make([]byte, blockB)
	for i := range d {
		d[i] = fill ^ byte(blk) ^ byte(i*7)
	}
	return d
}

// FuzzCheckpointRoundTrip exercises Save/Load three ways. First, the raw
// input bytes are fed straight to Load — hostile frames, truncations, and
// gob garbage must surface as errors, never panics. Second, the input is
// an op program (3 bytes per op: kind, block-high, block-low) over an
// encrypted instance of a fuzz-selected scheme, interleaving Save/Load
// round trips with reads, writes, and accesses. Every read — before and
// after restores — must return exactly what a plain map remembers, and
// the final restored instance must pass a full integrity check. Third,
// the input picks one bit of the final instance's Save image to flip,
// which Load must reject.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{2, 0, 0, 5, 3, 0, 0, 1, 0, 5})
	f.Add([]byte{4, 0, 0, 1, 40, 3, 0, 0, 1, 0, 40, 0, 1, 7, 99, 3, 0, 0, 1, 1, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		schemes := []Scheme{SchemeBaseline, SchemeIR, SchemeDR, SchemeNS, SchemeAB}
		opt := Options{
			Scheme:        schemes[int(data[0])%len(schemes)],
			Levels:        8,
			Seed:          9,
			EncryptionKey: key,
		}
		_, _ = Load(opt, bytes.NewReader(data)) // must not panic
		if len(data) > 192 {
			data = data[:192]
		}
		o, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		nb, bs := o.NumBlocks(), o.BlockSize()
		model := map[int64][]byte{}
		roundTrip := func() {
			var buf bytes.Buffer
			if err := o.Save(&buf); err != nil {
				t.Fatalf("save: %v", err)
			}
			restored, err := Load(opt, &buf)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			o = restored
		}
		restores := 0
		for i := 1; i+2 < len(data); i += 3 {
			blk := (int64(data[i+1])<<8 | int64(data[i+2])) % nb
			switch data[i] % 4 {
			case 0:
				d := fuzzPayload(bs, blk, data[i+2])
				if err := o.Write(blk, d); err != nil {
					t.Fatalf("write %d: %v", blk, err)
				}
				model[blk] = d
			case 1:
				got, err := o.Read(blk)
				if err != nil {
					t.Fatalf("read %d: %v", blk, err)
				}
				want := model[blk]
				if want == nil {
					want = make([]byte, bs)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("block %d corrupted", blk)
				}
			case 2:
				if err := o.Access(blk); err != nil {
					t.Fatalf("access %d: %v", blk, err)
				}
			case 3:
				// Bound restores: each is a full-state gob round trip.
				if restores < 6 {
					roundTrip()
					restores++
				}
			}
		}
		roundTrip()
		blocks := make([]int64, 0, len(model))
		for blk := range model {
			blocks = append(blocks, blk)
		}
		sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
		for _, blk := range blocks {
			got, err := o.Read(blk)
			if err != nil {
				t.Fatalf("final read %d: %v", blk, err)
			}
			if !bytes.Equal(got, model[blk]) {
				t.Fatalf("block %d lost across checkpoint", blk)
			}
		}
		if err := o.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}

		var img bytes.Buffer
		if err := o.Save(&img); err != nil {
			t.Fatal(err)
		}
		image := img.Bytes()
		at := 0
		for _, b := range data {
			at = (at*257 + int(b)) % len(image)
		}
		image[at] ^= 1 << (data[len(data)-1] % 8)
		if _, err := Load(opt, bytes.NewReader(image)); err == nil {
			t.Fatalf("single-bit corruption at byte %d of the image went undetected", at)
		}
	})
}

// deltaFuzzBase builds the fixed small instance hostile delta streams
// are applied against, after a short warm-up so its state is non-trivial.
func deltaFuzzBase(t testing.TB) *ORAM {
	o, err := New(Options{Scheme: SchemeAB, Levels: 8, Seed: 13, EncryptionKey: key})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 24; i++ {
		blk := (i * 19) % o.NumBlocks()
		if i%4 == 0 {
			if err := o.Write(blk, fuzzPayload(o.BlockSize(), blk, byte(i))); err != nil {
				t.Fatal(err)
			}
		} else if err := o.Access(blk); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// deltaFuzz holds instances shared across fuzz executions: rebuilding
// an ORAM per exec dominates the instrumented run time and every
// assertion below is state-independent (ApplyDelta must never panic on
// any instance, and single-bit corruption is rejected at the frame CRC
// layer before any state is consulted), so reuse is sound. Workers
// restart on failure, so the lazy init also reruns after a crash.
var deltaFuzz struct {
	once    sync.Once
	hostile *ORAM // absorbs hostile streams; state may drift arbitrarily
	src     *ORAM // stays healthy; produces genuine deltas to corrupt
	cut     uint64
}

// FuzzDeltaDecode exercises the delta stream decoder two ways. First,
// the raw input bytes are fed straight to ApplyDelta — hostile frames,
// truncations, and gob garbage must surface as errors, never panics or
// unbounded allocations. Second, the input seeds a byte flip in a
// genuine SaveDelta stream, which the frame CRCs must always reject.
func FuzzDeltaDecode(f *testing.F) {
	// Seed with a genuine delta stream so the corpus starts structurally
	// valid, plus framing edge cases.
	seedSrc := deltaFuzzBase(f)
	cutSeed := seedSrc.CutEpoch()
	for i := int64(0); i < 12; i++ {
		seedSrc.Access(i % seedSrc.NumBlocks())
	}
	var seed bytes.Buffer
	seedSrc.SaveDelta(&seed, cutSeed)
	f.Add(seed.Bytes()[:64])
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 'H'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 'E'})
	f.Fuzz(func(t *testing.T, data []byte) {
		deltaFuzz.once.Do(func() {
			deltaFuzz.hostile = deltaFuzzBase(t)
			deltaFuzz.src = deltaFuzzBase(t)
			deltaFuzz.cut = deltaFuzz.src.CutEpoch()
		})
		_ = deltaFuzz.hostile.ApplyDelta(bytes.NewReader(data)) // must not panic

		if len(data) == 0 {
			return
		}
		src := deltaFuzz.src
		for i := int64(0); i < 2; i++ {
			if err := src.Access((int64(data[0]) + i*7) % src.NumBlocks()); err != nil {
				t.Fatal(err)
			}
		}
		var delta bytes.Buffer
		next, err := src.SaveDelta(&delta, deltaFuzz.cut)
		if err != nil {
			t.Fatal(err)
		}
		deltaFuzz.cut = next
		stream := append([]byte(nil), delta.Bytes()...)
		flip := int(data[0]) % len(stream)
		var bit byte = 1
		if len(data) > 1 {
			bit = 1 << (data[1] % 8)
		}
		stream[flip] ^= bit
		if err := deltaFuzz.hostile.ApplyDelta(bytes.NewReader(stream)); err == nil {
			t.Fatalf("single-bit corruption at byte %d went undetected", flip)
		}
	})
}
