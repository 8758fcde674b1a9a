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

// ORAM returns the wrapped protocol instance.
func (s *Simulator) ORAM() *ringoram.ORAM { return s.oram }

// Mem returns the DRAM controller.
func (s *Simulator) Mem() *dram.Controller { return s.mem }

// Now returns the current simulated time in DRAM cycles.
func (s *Simulator) Now() uint64 { return s.now }

// Step services one trace request end to end.
func (s *Simulator) Step(req trace.Request) error {
	// Non-memory instructions retire at fetch width in CPU cycles.
	s.now += req.Gap / (uint64(s.cpu.FetchWidth) * s.cpu.CPUPerDRAM)
	blk := int64(req.Block() % uint64(s.oram.Config().NumBlocks))
	ops, err := s.oram.Access(blk)
	if err != nil {
		return err
	}
	for _, op := range ops {
		done := s.mem.Batch(s.now, op.Reads, op.Writes)
		s.breakdown[op.Kind] += done - s.now
		s.now = done
	}
	s.accesses++
	return nil
}

// Run services n requests from the generator.
func (s *Simulator) Run(gen *trace.Generator, n int) error {
	for i := 0; i < n; i++ {
		if err := s.Step(gen.Next()); err != nil {
			return err
		}
	}
	return nil
}

// StartMeasurement excludes everything so far from the reported metrics,
// mirroring the paper's 38 M-access warm-up before the measured window.
func (s *Simulator) StartMeasurement() {
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

// Finish drains pending writes and returns the window's results.
func (s *Simulator) Finish() Result {
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
