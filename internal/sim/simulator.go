// Package sim wires the full evaluation stack together — synthetic
// benchmark traces, the ORAM protocol engines, and the DRAM timing model —
// and implements one experiment runner per table and figure of the paper.
//
// The processor model follows the paper's trace-driven methodology
// (Table III: 4-wide fetch, 256-entry ROB, 800 MHz DRAM clock): non-memory
// instructions retire at fetch width, and memory requests are serialized
// through the ORAM controller, which is the dominant effect — every ORAM
// online access occupies the memory system for hundreds of cycles, so the
// ROB drains and the core stalls on each one.
//
// Every measured run goes through Simulator.Measure, every pattern-only
// run (no memory model) through probe, and every concurrent experiment
// through one worker pool, Exec. On the host, a Measure is a two-stage
// pipeline: one goroutine runs the ORAM protocol ahead, and the calling
// goroutine prices the recorded accesses through the DRAM model in order.
// The protocol never reads simulated time, so the overlap changes host
// time only, never a cycle. A simulation job therefore uses up to two
// goroutines.
package sim

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/memop"
	"repro/internal/ringoram"
	"repro/internal/trace"
)

// CPU models the front end that generates memory requests.
type CPU struct {
	FetchWidth int    // instructions per CPU cycle
	CPUPerDRAM uint64 // CPU clock multiplier over the DRAM clock
	ROBSize    int    // documented; the serialized-ORAM model makes it inert
}

// DefaultCPU returns the Table III processor: fetch 4, ROB 256, CPU clock
// 4x the 800 MHz DRAM clock.
func DefaultCPU() CPU {
	return CPU{FetchWidth: 4, CPUPerDRAM: 4, ROBSize: 256}
}

// Simulator drives one benchmark through one ORAM configuration.
type Simulator struct {
	oram *ringoram.ORAM
	mem  *dram.Controller
	cpu  CPU

	now       uint64                 // DRAM cycles
	startNow  uint64                 // measurement-window start
	breakdown [memop.NumKinds]uint64 // cycles per operation kind

	accesses  uint64 // requests serviced in the measurement window
	oramStat0 ringoram.Stats

	chunks []*chunk // run's, reused across calls
}

// New builds a simulator around an existing ORAM instance.
func New(o *ringoram.ORAM, memCfg dram.Config, cpu CPU) (*Simulator, error) {
	mem, err := dram.NewController(memCfg)
	if err != nil {
		return nil, err
	}
	if cpu.FetchWidth <= 0 || cpu.CPUPerDRAM == 0 {
		return nil, fmt.Errorf("sim: invalid CPU model %+v", cpu)
	}
	return &Simulator{oram: o, mem: mem, cpu: cpu}, nil
}

// chunkAccesses is how many accesses one chunk carries from the protocol
// stage to the pricing stage, and pipelineChunks how many chunks circulate
// between them: enough that neither stage waits on the other's hand-off.
const (
	chunkAccesses  = 64
	pipelineChunks = 4
)

// chunk is the protocol stage's record of up to chunkAccesses consecutive
// accesses, copied out of the ORAM's reused op storage: per access its
// front-end gap and where its ops end, per op its kind and read/write
// counts, and every op's reads then writes in one address array.
type chunk struct {
	n     int // accesses recorded
	gaps  [chunkAccesses]uint64
	opEnd [chunkAccesses]int32
	ops   []chunkOp
	addrs []uint64

	// err stops the run after the n recorded accesses. failGap is the
	// front-end gap of the request whose Access failed (0 when the
	// request source failed): time advanced over it before the failure.
	err     error
	failGap uint64
}

type chunkOp struct {
	kind          memop.Kind
	reads, writes int32
}

// Measure services warmup requests drawn from next, excludes them from
// the reported metrics (the paper's 38 M-access warm-up before its
// measured window), services measure more and returns the measured
// window's Result, with pending writes drained. An error from next or from
// the ORAM stops the run and is returned, prefixed with its phase.
func (s *Simulator) Measure(next func() (trace.Request, error), warmup, measure int) (Result, error) {
	if err := s.run(next, warmup); err != nil {
		return Result{}, fmt.Errorf("warmup: %w", err)
	}
	s.startMeasurement()
	if err := s.run(next, measure); err != nil {
		return Result{}, fmt.Errorf("measure: %w", err)
	}
	return s.finish(), nil
}

// run services n requests drawn from next. The ORAM protocol runs on a
// goroutine of its own, ahead of the DRAM model, which prices the recorded
// accesses on the calling goroutine in order. The protocol never reads
// simulated time, so every cycle is what servicing the requests one by one
// would give. Both stages start and join inside run: between calls the
// ORAM and the controller are quiescent, and next has been called once per
// serviced request, plus once for the request that stopped the run, if one
// did.
//
// An error from next or from the ORAM stops the run: the accesses before
// it are priced and the error is returned.
func (s *Simulator) run(next func() (trace.Request, error), n int) error {
	if n <= 0 {
		return nil
	}
	if s.chunks == nil {
		s.chunks = make([]*chunk, pipelineChunks)
		for i := range s.chunks {
			s.chunks[i] = new(chunk)
		}
	}
	// Both channels hold every chunk, so neither side's send ever blocks.
	free := make(chan *chunk, len(s.chunks))
	full := make(chan *chunk, len(s.chunks))
	for _, c := range s.chunks {
		free <- c
	}
	go func() {
		defer close(full)
		for left := n; left > 0; {
			c := <-free
			s.record(c, next, min(left, chunkAccesses))
			left -= c.n
			full <- c
			if c.err != nil {
				return
			}
		}
	}()
	var err error
	for c := range full {
		s.price(c)
		if c.err != nil {
			err = c.err
		}
		free <- c
	}
	return err
}

// FromGenerator adapts a trace generator to Measure's request source.
func FromGenerator(gen *trace.Generator) func() (trace.Request, error) {
	return func() (trace.Request, error) { return gen.Next(), nil }
}

// record is the protocol stage: it draws up to n requests, runs each
// through the ORAM and copies the access's ops into c.
func (s *Simulator) record(c *chunk, next func() (trace.Request, error), n int) {
	c.n, c.err, c.failGap = 0, nil, 0
	c.ops, c.addrs = c.ops[:0], c.addrs[:0]
	numBlocks := uint64(s.oram.Config().NumBlocks)
	cyclesPerGap := uint64(s.cpu.FetchWidth) * s.cpu.CPUPerDRAM
	for c.n < n {
		req, err := next()
		if err != nil {
			c.err = err
			return
		}
		// Non-memory instructions retire at fetch width in CPU cycles.
		gap := req.Gap / cyclesPerGap
		ops, err := s.oram.Access(int64(req.Block() % numBlocks))
		if err != nil {
			c.err, c.failGap = err, gap
			return
		}
		for _, op := range ops {
			c.ops = append(c.ops, chunkOp{op.Kind, int32(len(op.Reads)), int32(len(op.Writes))})
			c.addrs = append(c.addrs, op.Reads...)
			c.addrs = append(c.addrs, op.Writes...)
		}
		c.gaps[c.n] = gap
		c.opEnd[c.n] = int32(len(c.ops))
		c.n++
	}
}

// price is the DRAM stage: it advances simulated time over c's accesses.
func (s *Simulator) price(c *chunk) {
	op, a := int32(0), 0
	for i := 0; i < c.n; i++ {
		s.now += c.gaps[i]
		for ; op < c.opEnd[i]; op++ {
			o := c.ops[op]
			reads := c.addrs[a : a+int(o.reads)]
			a += len(reads)
			writes := c.addrs[a : a+int(o.writes)]
			a += len(writes)
			done := s.mem.Batch(s.now, reads, writes)
			s.breakdown[o.kind] += done - s.now
			s.now = done
		}
		s.accesses++
	}
	s.now += c.failGap
}

// startMeasurement excludes everything so far from the reported metrics.
func (s *Simulator) startMeasurement() {
	s.mem.ResetStats()
	s.breakdown = [memop.NumKinds]uint64{}
	s.startNow = s.now
	s.accesses = 0
	s.oramStat0 = s.oram.Stats()
}

// Result summarizes a measurement window.
type Result struct {
	Cycles    uint64 // DRAM cycles elapsed in the window
	Accesses  uint64 // user requests serviced
	Breakdown map[memop.Kind]uint64
	Mem       dram.Stats
	ORAM      ringoram.Stats // window delta
	SpaceB    uint64
	StashPeak int
	Overflows uint64
}

// finish drains pending writes and returns the window's results.
func (s *Simulator) finish() Result {
	s.now = s.mem.Drain(s.now)
	delta := s.oram.Stats()
	d0 := s.oramStat0
	delta.OnlineAccesses -= d0.OnlineAccesses
	delta.DummyAccesses -= d0.DummyAccesses
	delta.EvictPaths -= d0.EvictPaths
	delta.EarlyReshuffles -= d0.EarlyReshuffles
	delta.GreenBlocks -= d0.GreenBlocks
	delta.ExtendAttempts -= d0.ExtendAttempts
	delta.ExtendGranted -= d0.ExtendGranted
	delta.StaleClaims -= d0.StaleClaims
	delta.RemoteReads -= d0.RemoteReads
	delta.RemoteWrites -= d0.RemoteWrites
	delta.BlocksRead -= d0.BlocksRead
	delta.BlocksWritten -= d0.BlocksWritten
	delta.MetaReads -= d0.MetaReads
	delta.MetaWrites -= d0.MetaWrites
	delta.XORReads -= d0.XORReads
	delta.BGEvictSaturated -= d0.BGEvictSaturated

	bd := make(map[memop.Kind]uint64)
	for k, v := range s.breakdown {
		if v != 0 {
			bd[memop.Kind(k)] = v
		}
	}
	return Result{
		Cycles:    s.now - s.startNow,
		Accesses:  s.accesses,
		Breakdown: bd,
		Mem:       s.mem.Stats(),
		ORAM:      delta,
		SpaceB:    s.oram.SpaceBytes(),
		StashPeak: s.oram.Stash().Peak(),
		Overflows: s.oram.Stash().Overflows(),
	}
}

// CyclesPerAccess returns the mean DRAM cycles per serviced request.
func (r Result) CyclesPerAccess() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Accesses)
}

// BandwidthBytesPerCycle returns the memory bandwidth consumed.
func (r Result) BandwidthBytesPerCycle() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Mem.BytesTransferred) / float64(r.Cycles)
}
