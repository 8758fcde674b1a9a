package dram

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func testCfg() Config {
	return DDR3_1600()
}

func TestConfigValidate(t *testing.T) {
	good := testCfg()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.Banks = -1 },
		func(c *Config) { c.RowBytes = 100 }, // not multiple of 64
		func(c *Config) { c.TBurst = 0 },
		func(c *Config) { c.WriteDrainLo = c.WriteQueueCap },
	}
	for i, mut := range mutations {
		c := testCfg()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: expected invalid", i)
		}
	}
}

func TestDecodeRoundRobinChannels(t *testing.T) {
	cfg := testCfg()
	for i := 0; i < 16; i++ {
		loc := cfg.Decode(uint64(i * cfg.BlockB))
		if loc.Channel != i%cfg.Channels {
			t.Errorf("block %d mapped to channel %d, want %d", i, loc.Channel, i%cfg.Channels)
		}
	}
}

func TestDecodeRowLocality(t *testing.T) {
	cfg := testCfg()
	// Blocks i and i+Channels land in the same channel; while the column
	// index stays within one row they must share bank and row.
	a := cfg.Decode(0)
	b := cfg.Decode(uint64(cfg.Channels * cfg.BlockB))
	if a.Channel != b.Channel || a.Bank != b.Bank || a.Row != b.Row {
		t.Errorf("stride-by-channels blocks should share a row: %+v vs %+v", a, b)
	}
	if b.Col != a.Col+1 {
		t.Errorf("column should advance by one: %+v vs %+v", a, b)
	}
}

func TestDecodeFieldsInRange(t *testing.T) {
	cfg := testCfg()
	f := func(addr uint64) bool {
		loc := cfg.Decode(addr % (1 << 40))
		return loc.Channel >= 0 && loc.Channel < cfg.Channels &&
			loc.Bank >= 0 && loc.Bank < cfg.Ranks*cfg.Banks &&
			loc.Col < cfg.RowBytes/uint64(cfg.BlockB)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSingleReadLatencyClosedRow(t *testing.T) {
	c := MustNewController(testCfg())
	cfg := c.Config()
	done := c.Batch(0, []uint64{0}, nil)
	want := cfg.TRCD + cfg.TCL + cfg.TBurst
	if done != want {
		t.Errorf("cold read latency %d, want %d", done, want)
	}
	st := c.Stats()
	if st.Reads != 1 || st.RowMisses != 1 || st.RowHits != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	cfg := testCfg()

	// Same row twice: second access is a row hit.
	c1 := MustNewController(cfg)
	c1.Batch(0, []uint64{0}, nil)
	hitDone := c1.Batch(1000, []uint64{uint64(cfg.Channels * cfg.BlockB)}, nil)
	if c1.Stats().RowHits != 1 {
		t.Fatalf("expected a row hit, stats %+v", c1.Stats())
	}

	// Different row in the same bank: conflict.
	c2 := MustNewController(cfg)
	c2.Batch(0, []uint64{0}, nil)
	conflictAddr := cfg.RowBytes * uint64(cfg.Channels) * uint64(cfg.Ranks*cfg.Banks)
	if loc := cfg.Decode(conflictAddr); loc.Channel != 0 || loc.Bank != 0 || loc.Row == 0 {
		t.Fatalf("test address decodes to %+v; want channel 0 bank 0 new row", loc)
	}
	confDone := c2.Batch(1000, []uint64{conflictAddr}, nil)
	if c2.Stats().RowConflicts != 1 {
		t.Fatalf("expected a row conflict, stats %+v", c2.Stats())
	}

	if hitDone >= confDone {
		t.Errorf("row hit (%d) not faster than conflict (%d)", hitDone, confDone)
	}
}

func TestChannelParallelism(t *testing.T) {
	cfg := testCfg()
	// 4 reads on 4 different channels should finish in roughly single-read
	// time; 4 reads on one channel serialize on its data bus.
	parallel := MustNewController(cfg)
	var spread []uint64
	for i := 0; i < cfg.Channels; i++ {
		spread = append(spread, uint64(i*cfg.BlockB))
	}
	pDone := parallel.Batch(0, spread, nil)

	serial := MustNewController(cfg)
	var sameCh []uint64
	for i := 0; i < cfg.Channels; i++ {
		// Same channel, different banks (stride channels*rowBytes).
		sameCh = append(sameCh, uint64(i)*cfg.RowBytes*uint64(cfg.Channels))
	}
	sDone := serial.Batch(0, sameCh, nil)

	if pDone >= sDone {
		t.Errorf("channel-parallel batch (%d) not faster than single-channel batch (%d)", pDone, sDone)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	cfg := testCfg()
	c := MustNewController(cfg)
	// Open row 0 in bank 0.
	c.Batch(0, []uint64{0}, nil)
	rowStride := cfg.RowBytes * uint64(cfg.Channels) * uint64(cfg.Ranks*cfg.Banks)
	hitAddr := uint64(cfg.Channels * cfg.BlockB) // row 0, next column
	confAddr := rowStride                        // bank 0, different row
	// Conflict request is older (listed first) but FR-FCFS must serve the
	// row hit first; the hit's completion therefore precedes a pure FCFS
	// schedule. Verify via row-hit count: with FR-FCFS the hit is serviced
	// against the still-open row. (Issue before the first tREFI deadline so
	// a refresh does not close the row.)
	c.Batch(2000, []uint64{confAddr, hitAddr}, nil)
	st := c.Stats()
	if st.RowHits != 1 || st.RowConflicts != 1 {
		t.Errorf("FR-FCFS should score 1 hit + 1 conflict, got %+v", st)
	}
}

func TestWriteQueueBuffersAndDrains(t *testing.T) {
	cfg := testCfg()
	c := MustNewController(cfg)
	done := c.Batch(0, nil, []uint64{0, 64, 128})
	if done != 0 {
		t.Errorf("posted writes should not delay the batch, done=%d", done)
	}
	if c.PendingWrites() != 3 {
		t.Errorf("pending = %d, want 3", c.PendingWrites())
	}
	end := c.Drain(0)
	if end == 0 || c.PendingWrites() != 0 {
		t.Errorf("drain end=%d pending=%d", end, c.PendingWrites())
	}
	if c.Stats().Writes != 3 {
		t.Errorf("writes = %d", c.Stats().Writes)
	}
}

func TestForcedDrainOnFullQueue(t *testing.T) {
	cfg := testCfg()
	cfg.WriteQueueCap = 4
	cfg.WriteDrainLo = 1
	c := MustNewController(cfg)
	// 8 writes to one channel: must trigger forced drains.
	var writes []uint64
	for i := 0; i < 8; i++ {
		writes = append(writes, uint64(i)*uint64(cfg.Channels*cfg.BlockB))
	}
	c.Batch(0, nil, writes)
	if c.Stats().ForcedWriteDrains == 0 {
		t.Error("no forced drain despite overflowing queue")
	}
	if c.PendingWrites() >= cfg.WriteQueueCap {
		t.Errorf("queue still at/over capacity: %d", c.PendingWrites())
	}
}

func TestWriteQueueForwarding(t *testing.T) {
	c := MustNewController(testCfg())
	c.Batch(0, nil, []uint64{0x1000})
	c.Batch(0, []uint64{0x1000}, nil)
	if st := c.Stats(); st.WriteQueueForwards != 1 {
		t.Errorf("forwards = %d, want 1", st.WriteQueueForwards)
	}
}

func TestStatsMonotoneTime(t *testing.T) {
	c := MustNewController(testCfg())
	var now uint64
	for i := 0; i < 1000; i++ {
		addr := uint64(i*7919) % (1 << 30)
		addr -= addr % 64
		done := c.Batch(now, []uint64{addr}, []uint64{addr + 64})
		if done < now {
			t.Fatalf("time went backwards: %d < %d", done, now)
		}
		now = done
	}
	st := c.Stats()
	if st.Reads != 1000 {
		t.Errorf("reads = %d", st.Reads)
	}
	if st.RowHits+st.RowMisses+st.RowConflicts+st.WriteQueueForwards < 1000 {
		t.Errorf("row outcomes undercounted: %+v", st)
	}
}

func TestContiguousBucketBeatsScattered(t *testing.T) {
	// The property AB-ORAM's §V-D discussion depends on: reading a
	// physically contiguous bucket (row hits) is faster than reading the
	// same number of scattered blocks (row misses/conflicts).
	cfg := testCfg()
	warm := func(addrs []uint64) uint64 {
		c := MustNewController(cfg)
		// Touch a spread of rows first so scattered accesses conflict.
		var warmup []uint64
		for i := 0; i < 64; i++ {
			warmup = append(warmup, uint64(i)*cfg.RowBytes*uint64(cfg.Channels))
		}
		start := c.Batch(0, warmup, nil)
		c.ResetStats()
		return c.Batch(start, addrs, nil) - start
	}
	var contiguous, scattered []uint64
	for i := 0; i < 8; i++ {
		contiguous = append(contiguous, uint64(i*cfg.BlockB))
		scattered = append(scattered, uint64(i)*cfg.RowBytes*uint64(cfg.Channels)*uint64(cfg.Ranks*cfg.Banks)+uint64(i%4*cfg.BlockB))
	}
	ct := warm(contiguous)
	st := warm(scattered)
	if ct >= st {
		t.Errorf("contiguous bucket read (%d) not faster than scattered (%d)", ct, st)
	}
}

func TestResetStatsKeepsTiming(t *testing.T) {
	c := MustNewController(testCfg())
	c.Batch(0, []uint64{0}, nil)
	c.ResetStats()
	if c.Stats().Reads != 0 {
		t.Fatal("stats not reset")
	}
	// Row 0 must still be open: the next same-row access is a hit.
	c.Batch(1000, []uint64{uint64(testCfg().Channels * testCfg().BlockB)}, nil)
	if c.Stats().RowHits != 1 {
		t.Errorf("timing state lost on ResetStats: %+v", c.Stats())
	}
}

func TestRowHitRateAndAvgLatency(t *testing.T) {
	var s Stats
	if s.RowHitRate() != 0 || s.AvgReadLatency() != 0 {
		t.Fatal("empty stats should read 0")
	}
	s = Stats{RowHits: 3, RowMisses: 1, Reads: 4, TotalReadLatency: 100}
	if s.RowHitRate() != 0.75 {
		t.Errorf("hit rate %v", s.RowHitRate())
	}
	if s.AvgReadLatency() != 25 {
		t.Errorf("avg latency %v", s.AvgReadLatency())
	}
}

func BenchmarkBatchPathRead(b *testing.B) {
	cfg := testCfg()
	c := MustNewController(cfg)
	// A 20-block path read, one block per bucket spread over the tree.
	addrs := make([]uint64, 20)
	for i := range addrs {
		addrs[i] = uint64(i) * 123456 * 64
	}
	var now uint64
	for i := 0; i < b.N; i++ {
		now = c.Batch(now, addrs, nil)
	}
}

func TestRefreshStallsAndClosesRows(t *testing.T) {
	cfg := testCfg()
	c := MustNewController(cfg)
	// Open a row well before the first refresh deadline.
	c.Batch(0, []uint64{0}, nil)
	// Issue after the refresh deadline: the refresh must have closed the
	// row (miss, not hit) and stalled the bank.
	c.Batch(cfg.TREFI+1, []uint64{uint64(cfg.Channels * cfg.BlockB)}, nil)
	st := c.Stats()
	if st.Refreshes == 0 {
		t.Fatal("no refresh executed")
	}
	if st.RowHits != 0 {
		t.Errorf("row survived refresh: %+v", st)
	}
}

func TestRefreshCatchUpCount(t *testing.T) {
	cfg := testCfg()
	c := MustNewController(cfg)
	// A long idle period must account for every missed refresh.
	c.Batch(cfg.TREFI*10+5, []uint64{0}, nil)
	if got := c.Stats().Refreshes; got != 10 {
		t.Errorf("refreshes = %d, want 10", got)
	}
}

func TestRefreshDisabled(t *testing.T) {
	cfg := testCfg()
	cfg.TREFI = 0
	c := MustNewController(cfg)
	c.Batch(0, []uint64{0}, nil)
	c.Batch(1<<20, []uint64{uint64(cfg.Channels * cfg.BlockB)}, nil)
	st := c.Stats()
	if st.Refreshes != 0 {
		t.Fatal("refresh ran while disabled")
	}
	if st.RowHits != 1 {
		t.Errorf("row should survive with refresh disabled: %+v", st)
	}
}

func TestRefreshConfigValidation(t *testing.T) {
	cfg := testCfg()
	cfg.TRFC = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("tRFC=0 with refresh enabled accepted")
	}
	cfg = testCfg()
	cfg.TRFC = cfg.TREFI
	if err := cfg.Validate(); err == nil {
		t.Fatal("tRFC >= tREFI accepted")
	}
}

func TestInterleaveGranularity(t *testing.T) {
	cfg := testCfg()
	cfg.InterleaveBlocks = 8
	// Blocks 0..7 share channel 0; 8..15 land on channel 1.
	for i := 0; i < 8; i++ {
		if loc := cfg.Decode(uint64(i * cfg.BlockB)); loc.Channel != 0 {
			t.Fatalf("block %d on channel %d, want 0", i, loc.Channel)
		}
	}
	if loc := cfg.Decode(uint64(8 * cfg.BlockB)); loc.Channel != 1 {
		t.Fatalf("block 8 on channel %d, want 1", loc.Channel)
	}
	// Within a run, consecutive blocks advance the column (row locality).
	a, b := cfg.Decode(0), cfg.Decode(uint64(cfg.BlockB))
	if a.Bank != b.Bank || a.Row != b.Row || b.Col != a.Col+1 {
		t.Fatalf("intra-run locality broken: %+v vs %+v", a, b)
	}
	// Every block still decodes to a unique (channel, bank, row, col).
	seen := map[Location]uint64{}
	for i := 0; i < 4096; i++ {
		loc := cfg.Decode(uint64(i * cfg.BlockB))
		if prev, dup := seen[loc]; dup {
			t.Fatalf("blocks %d and %d collide at %+v", prev, i, loc)
		}
		seen[loc] = uint64(i)
	}
}

// TestAddrSetMatchesMap drives the write-queue address set against a map
// up to full load and back to empty, in a small table so probe runs wrap
// around its end.
func TestAddrSetMatchesMap(t *testing.T) {
	const maxKeys = 6
	r := rand.New(rand.NewPCG(3, 4))
	set := newAddrSet(maxKeys)
	want := map[uint64]bool{}
	for step := 0; step < 20000; step++ {
		if len(want) == maxKeys || r.IntN(8) == 0 {
			set.clear()
			clear(want)
		} else {
			a := r.Uint64N(24) * 64
			set.add(a)
			want[a] = true
		}
		for a := uint64(0); a < 24*64; a += 64 {
			if got := set.has(a); got != want[a] {
				t.Fatalf("step %d: has(%d) = %v, want %v", step, a, got, want[a])
			}
		}
	}
}
