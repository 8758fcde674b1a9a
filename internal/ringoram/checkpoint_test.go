package ringoram

import (
	"bytes"
	"testing"

	"repro/internal/stash"
)

// restoreFull rebuilds an instance under cfg from a full capture of orig:
// the one restore path (a fresh New plus ApplyDelta).
func restoreFull(t *testing.T, cfg Config, orig *ORAM) *ORAM {
	t.Helper()
	clone, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := clone.ApplyDelta(captureFull(t, orig)); err != nil {
		t.Fatal(err)
	}
	return clone
}

func TestCheckpointRoundTripIdentity(t *testing.T) {
	// After restore, the clone must behave bit-identically to the original
	// continuing from the same point (no allocator: its queue is external
	// state by design).
	cfg := cbCfg()
	orig, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.NumBlocks
	for i := 0; i < 1500; i++ {
		if _, err := orig.Access(int64(uint64(i*2654435761) % uint64(n))); err != nil {
			t.Fatal(err)
		}
	}

	clone := restoreFull(t, cfg, orig)
	if err := clone.CheckInvariants(); err != nil {
		t.Fatalf("restored instance inconsistent: %v", err)
	}
	if clone.Stats() != orig.Stats() {
		t.Fatalf("stats diverged at restore:\n%+v\n%+v", clone.Stats(), orig.Stats())
	}

	// Drive both forward identically; every observable must match.
	for i := 0; i < 800; i++ {
		blk := int64(uint64(i*48271) % uint64(n))
		a, err1 := orig.Access(blk)
		b, err2 := clone.Access(blk)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if len(a) != len(b) {
			t.Fatalf("op counts diverged at access %d", i)
		}
		for j := range a {
			if len(a[j].Reads) != len(b[j].Reads) || len(a[j].Writes) != len(b[j].Writes) {
				t.Fatalf("traffic diverged at access %d op %d", i, j)
			}
			for k := range a[j].Reads {
				if a[j].Reads[k] != b[j].Reads[k] {
					t.Fatalf("read address diverged at access %d", i)
				}
			}
		}
		if orig.LastServedLevel() != clone.LastServedLevel() {
			t.Fatalf("served level diverged at access %d", i)
		}
	}
	if orig.Stats() != clone.Stats() {
		t.Fatalf("stats diverged after resume:\n%+v\n%+v", orig.Stats(), clone.Stats())
	}
	if err := clone.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointWithRemoteAllocation(t *testing.T) {
	// With an allocator, queue contents are external; restore must still
	// be protocol-correct, with queued slots drifting home over time.
	alloc := newTestDeadQ(testLevels-6, 500)
	cfg := drCfg(alloc)
	orig, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.NumBlocks
	for i := 0; i < 3000; i++ {
		if _, err := orig.Access(int64(uint64(i*7919) % uint64(n))); err != nil {
			t.Fatal(err)
		}
	}
	cfg2 := cfg
	cfg2.Allocator = newTestDeadQ(testLevels-6, 500) // fresh, empty queue
	clone := restoreFull(t, cfg2, orig)
	if err := clone.CheckInvariants(); err != nil {
		t.Fatalf("restored DR instance inconsistent: %v", err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := clone.Access(int64(uint64(i*104729) % uint64(n))); err != nil {
			t.Fatal(err)
		}
	}
	if err := clone.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if clone.Stash().Overflows() != 0 {
		t.Errorf("stash overflow after restore (peak %d)", clone.Stash().Peak())
	}
}

func TestCheckpointPreservesPayloads(t *testing.T) {
	cfg := CompactedBaseline(8, 0, 5)
	orig, mem := newDataORAM(t, cfg)
	want := payloadFor(9, cfg.BlockB)
	if _, err := orig.WriteBlock(9, want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if _, err := orig.Access(int64(i*3) % cfg.NumBlocks); err != nil {
			t.Fatal(err)
		}
	}
	// The data plane is shared (caller-owned), so restore against the same
	// secmem instance.
	cfg2 := cfg
	cfg2.Data = mem
	clone := restoreFull(t, cfg2, orig)
	got, _, err := clone.ReadBlock(9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload lost across checkpoint")
	}
}

func TestRestoreRejectsMismatch(t *testing.T) {
	orig, _ := New(cbCfg())
	bad := cbCfg()
	bad.Levels = 12
	bad.NumBlocks = 1000
	other, err := New(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.ApplyDelta(captureFull(t, orig)); err == nil {
		t.Fatal("level mismatch accepted")
	}
	fresh := func() *ORAM {
		o, _ := New(cbCfg())
		return o
	}
	cp2 := captureFull(t, orig)
	cp2.Rng = nil
	if err := fresh().ApplyDelta(cp2); err == nil {
		t.Fatal("missing rng accepted")
	}
	cp3 := captureFull(t, orig)
	cp3.Buckets[5].Block = cp3.Buckets[5].Block[:1]
	if err := fresh().ApplyDelta(cp3); err == nil {
		t.Fatal("truncated slots accepted")
	}
}

// TestLoadRejectsGarbage: out-of-range indices and malformed stash
// payloads in a capture are errors, never panics or silent installs.
func TestLoadRejectsGarbage(t *testing.T) {
	cfg := CompactedBaseline(8, 0, 5)
	orig, _ := newDataORAM(t, cfg)
	for name, mutate := range map[string]func(d *Delta){
		"bucket":      func(d *Delta) { d.Buckets[0].Bucket = -1 },
		"slot block":  func(d *Delta) { d.Buckets[0].Block[0] = cfg.NumBlocks },
		"position":    func(d *Delta) { d.PosPaths[0] = 1 << 40 },
		"stash entry": func(d *Delta) { d.Stash, d.StashData = []stash.Entry{{Block: -3}}, nil },
		"payload count": func(d *Delta) {
			d.Stash, d.StashData = []stash.Entry{{Block: 1}}, make([][]byte, 2)
		},
		"payload size": func(d *Delta) {
			d.Stash, d.StashData = []stash.Entry{{Block: 1}}, [][]byte{{1}}
		},
	} {
		d := captureFull(t, orig)
		mutate(d)
		clone, _ := newDataORAM(t, cfg)
		if err := clone.ApplyDelta(d); err == nil {
			t.Fatalf("%s garbage accepted", name)
		}
	}
}

// captureFull is CaptureFull for an instance that has not failed.
func captureFull(t *testing.T, o *ORAM) *Delta {
	t.Helper()
	d, err := o.CaptureFull()
	if err != nil {
		t.Fatal(err)
	}
	return d
}
