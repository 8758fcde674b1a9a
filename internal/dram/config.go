// Package dram is an event-driven main-memory timing model in the style of
// USIMM (Chatterjee et al., the simulator the paper evaluates on): multiple
// channels, each with ranks and banks, an open-row policy, FR-FCFS read
// scheduling, and watermark-based write draining.
//
// Rather than ticking every DRAM cycle, the model advances time with
// resource-availability arithmetic: each command's issue time is the max of
// the channel bus, bank, and arrival constraints, and each completion
// updates those resources. For the serialized access streams an ORAM
// controller produces this yields the same first-order behaviour — row
// hits vs misses vs conflicts, bank parallelism, read/write turnaround —
// at a tiny fraction of the cost, which is what lets the harness replay
// millions of ORAM operations per benchmark.
//
// All times are in DRAM clock cycles (800 MHz in the paper's Table III,
// i.e. DDR3-1600).
package dram

import "fmt"

// Config describes the memory system geometry and timing.
type Config struct {
	Channels int // independent memory channels
	Ranks    int // ranks per channel
	Banks    int // banks per rank
	RowBytes uint64
	BlockB   int // transfer granularity (cache line), bytes

	// Core DDR3 timing constraints, in DRAM cycles.
	TRCD   uint64 // activate -> column command
	TRP    uint64 // precharge -> activate
	TCL    uint64 // read column command -> first data
	TCWL   uint64 // write column command -> first data
	TRAS   uint64 // activate -> precharge (min row open time)
	TBurst uint64 // data burst occupancy of the bus (BL8 = 4 cycles)
	TWR    uint64 // write recovery before precharge
	TRTP   uint64 // read -> precharge
	TCCD   uint64 // column command -> column command, same rank
	TWTR   uint64 // write data end -> next read command

	// InterleaveBlocks sets the channel-interleave granularity in blocks:
	// consecutive runs of this many blocks map to one channel before the
	// next channel takes over. 1 (the default via DDR3_1600) spreads every
	// bucket across channels; a bucket-sized granularity keeps each bucket
	// in one channel, trading intra-bucket parallelism for row locality —
	// the dimension the imbalance-aware Ring ORAM scheduler (Che et al.,
	// ICCD'19) optimizes.
	InterleaveBlocks int

	// Refresh: every TREFI cycles a channel stalls all banks for TRFC
	// while a refresh command executes. TREFI == 0 disables refresh.
	TREFI uint64 // refresh interval (DDR3: 7.8 us = 6240 cycles at 800 MHz)
	TRFC  uint64 // refresh cycle time (4 Gb parts: ~208 cycles)

	// Write-queue drain policy (USIMM-style watermarks).
	WriteQueueCap int // buffered writes per channel before forced drain
	WriteDrainLo  int // drain stops when the queue falls to this level
}

// DDR3_1600 returns the configuration used by all experiments: 4 channels
// at 800 MHz matching Table III, with standard DDR3-1600 (11-11-11)
// timing and 8 KB rows.
func DDR3_1600() Config {
	return Config{
		Channels:         4,
		Ranks:            2,
		Banks:            8,
		RowBytes:         8 << 10,
		BlockB:           64,
		TRCD:             11,
		TRP:              11,
		TCL:              11,
		TCWL:             8,
		TRAS:             28,
		TBurst:           4,
		TWR:              12,
		TRTP:             6,
		TCCD:             4,
		TWTR:             6,
		InterleaveBlocks: 1,
		TREFI:            6240,
		TRFC:             208,

		WriteQueueCap: 64,
		WriteDrainLo:  32,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Channels <= 0 || c.Ranks <= 0 || c.Banks <= 0 {
		return fmt.Errorf("dram: non-positive geometry %d/%d/%d", c.Channels, c.Ranks, c.Banks)
	}
	if c.BlockB <= 0 || c.RowBytes == 0 || c.RowBytes%uint64(c.BlockB) != 0 {
		return fmt.Errorf("dram: row size %d not a multiple of block size %d", c.RowBytes, c.BlockB)
	}
	if c.TBurst == 0 || c.TCL == 0 || c.TRCD == 0 || c.TRP == 0 {
		return fmt.Errorf("dram: zero core timing parameter")
	}
	if c.WriteQueueCap <= 0 || c.WriteDrainLo < 0 || c.WriteDrainLo >= c.WriteQueueCap {
		return fmt.Errorf("dram: invalid write watermarks lo=%d cap=%d", c.WriteDrainLo, c.WriteQueueCap)
	}
	if c.TREFI > 0 && c.TRFC == 0 {
		return fmt.Errorf("dram: refresh enabled (tREFI=%d) with zero tRFC", c.TREFI)
	}
	if c.TREFI > 0 && c.TRFC >= c.TREFI {
		return fmt.Errorf("dram: tRFC %d >= tREFI %d leaves no service time", c.TRFC, c.TREFI)
	}
	return nil
}

// Location is a decoded physical address.
type Location struct {
	Channel int
	Bank    int // flattened rank*banks + bank
	Row     uint64
	Col     uint64 // block index within the row
}

// Decode maps a byte address to its physical location. Consecutive blocks
// interleave across channels (fine-grained interleaving, USIMM's default),
// then walk the columns of one row in one bank, so a run of contiguous
// blocks enjoys both channel parallelism and row-buffer hits — the layout
// property AB-ORAM's remote allocation perturbs.
func (c *Config) Decode(addr uint64) Location {
	m := c.addrMap()
	return m.decode(addr)
}

// addrMap holds Decode's derived constants. A Controller computes it once
// at construction instead of re-deriving it for every address.
type addrMap struct {
	blockB, gran, channels, rowBlocks, nBanks uint64
}

func (c *Config) addrMap() addrMap {
	gran := uint64(c.InterleaveBlocks)
	if gran == 0 {
		gran = 1
	}
	return addrMap{
		blockB:    uint64(c.BlockB),
		gran:      gran,
		channels:  uint64(c.Channels),
		rowBlocks: c.RowBytes / uint64(c.BlockB),
		nBanks:    uint64(c.Ranks * c.Banks),
	}
}

func (m *addrMap) decode(addr uint64) Location {
	blk := addr / m.blockB
	group := blk / m.gran
	ch := group % m.channels
	rest := group/m.channels*m.gran + blk%m.gran
	col := rest % m.rowBlocks
	rest /= m.rowBlocks
	bank := rest % m.nBanks
	row := rest / m.nBanks
	return Location{Channel: int(ch), Bank: int(bank), Row: row, Col: col}
}
