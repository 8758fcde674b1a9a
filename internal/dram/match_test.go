package dram

import (
	"math/rand/v2"
	"testing"
)

// matchScript drives a Controller and the reference model through the same
// seeded sequence of batches and drains and fails at the first step where
// a completion cycle, the Stats, or the pending-write count differ. The
// generator mixes the shapes whose timing paths differ:
//
//   - hot rows: addresses drawn from a few rows, so FR-FCFS and the
//     row-hit-first drain have open-row hits to prefer;
//   - write-heavy batches that overflow the write queue and force drains;
//   - reads of still-queued write addresses (write-queue forwarding);
//   - long idle gaps spanning many refresh intervals (refresh catch-up);
//   - explicit Drain calls between batches.
func matchScript(t testing.TB, cfg Config, seed uint64, steps int) {
	t.Helper()
	got, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newRefController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	am := cfg.addrMap()
	rowStride := am.rowBlocks * am.channels * am.nBanks // blocks between rows of one bank
	hotRows := make([]uint64, 1+r.IntN(4))
	for i := range hotRows {
		hotRows[i] = r.Uint64N(1 << 12)
	}
	addr := func(hot bool) uint64 {
		blk := r.Uint64N(1 << 24)
		if hot {
			blk = hotRows[r.IntN(len(hotRows))]*rowStride + r.Uint64N(rowStride)
		}
		return blk * am.blockB
	}

	var now uint64
	var recent []uint64 // recently written addresses, for forwarding
	var reads, writes []uint64
	for step := 0; step < steps; step++ {
		switch k := r.IntN(100); {
		case k < 5:
			now += uint64(1+r.IntN(20)) * cfg.TREFI // idle across refreshes
		case k < 10:
			now += r.Uint64N(cfg.TREFI + 1)
		default:
			now += r.Uint64N(200)
		}
		if r.IntN(20) == 0 {
			dg, dw := got.Drain(now), want.Drain(now)
			if dg != dw {
				t.Fatalf("seed %d step %d: Drain(%d) = %d, reference %d", seed, step, now, dg, dw)
			}
			now = dg
		} else {
			hot := r.IntN(2) == 0
			nw := r.IntN(12)
			if r.IntN(8) == 0 {
				nw = 2*cfg.WriteQueueCap + r.IntN(cfg.WriteQueueCap) // force drains
			}
			writes = writes[:0]
			for i := 0; i < nw; i++ {
				writes = append(writes, addr(hot))
			}
			reads = reads[:0]
			for i, nr := 0, r.IntN(40); i < nr; i++ {
				if len(recent) > 0 && r.IntN(4) == 0 {
					reads = append(reads, recent[r.IntN(len(recent))])
				} else {
					reads = append(reads, addr(hot))
				}
			}
			dg, dw := got.Batch(now, reads, writes), want.Batch(now, reads, writes)
			if dg != dw {
				t.Fatalf("seed %d step %d: Batch(%d, %d reads, %d writes) = %d, reference %d",
					seed, step, now, len(reads), len(writes), dg, dw)
			}
			now = dg
			recent = append(recent, writes...)
			if len(recent) > 256 {
				recent = recent[len(recent)-256:]
			}
		}
		if g, w := got.Stats(), want.Stats(); g != w {
			t.Fatalf("seed %d step %d: stats diverged\n got %+v\nwant %+v", seed, step, g, w)
		}
		if g, w := got.PendingWrites(), want.PendingWrites(); g != w {
			t.Fatalf("seed %d step %d: %d pending writes, reference %d", seed, step, g, w)
		}
	}
}

// TestControllerMatchesReference pins the controller's timing to the
// reference model cycle for cycle at the channel-interleave granularities
// the experiments use (1 block, a bucket-ish 3, a row-ish 12).
func TestControllerMatchesReference(t *testing.T) {
	for _, il := range []int{1, 3, 12} {
		cfg := DDR3_1600()
		cfg.InterleaveBlocks = il
		for seed := uint64(1); seed <= 8; seed++ {
			matchScript(t, cfg, seed+uint64(il)<<8, 400)
		}
	}
}

func FuzzControllerMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0))
	f.Add(uint64(7), uint8(2), uint8(1))
	f.Add(uint64(42), uint8(11), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, interleave, queue uint8) {
		cfg := DDR3_1600()
		cfg.InterleaveBlocks = 1 + int(interleave%16)
		cfg.WriteQueueCap = 4 + int(queue%61) // 4..64
		cfg.WriteDrainLo = cfg.WriteQueueCap / 2
		matchScript(t, cfg, seed, 150)
	})
}

// TestBatchZeroAlloc pins the controller's steady state: once its scratch
// and write queues have grown, servicing a batch allocates nothing.
func TestBatchZeroAlloc(t *testing.T) {
	c := MustNewController(DDR3_1600())
	var reads, writes []uint64
	for i := uint64(0); i < 40; i++ {
		reads = append(reads, i*977*64)
		writes = append(writes, i*1931*64)
	}
	var now uint64
	for i := 0; i < 50; i++ {
		now = c.Batch(now, reads, writes)
	}
	if n := testing.AllocsPerRun(200, func() { now = c.Batch(now, reads, writes) }); n != 0 {
		t.Fatalf("Batch allocates %.1f times per call at steady state, want 0", n)
	}
}
