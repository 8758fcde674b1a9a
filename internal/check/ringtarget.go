package check

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ringoram"
)

// This file is the engine-direct oracle variant: where NewSchemeTarget
// exercises the aboram facade (and therefore only the five §VII scheme
// shapes core.Build produces), NewRingTarget drives ringoram.ORAM
// directly, so the oracle can cover sweep-shaped configurations — the
// non-default Z'/S/A geometries the parameter sweeps explore but the
// facade never constructs.

// RingConfig names one raw engine configuration for the sweep oracle.
type RingConfig struct {
	Label  string
	Config ringoram.Config
}

// ringTarget adapts a bare engine instance (plus an encrypted secmem data
// plane, wired here exactly as the facade wires it) to the Target
// interface.
type ringTarget struct {
	o   *ringoram.ORAM
	cfg ringoram.Config
}

// NewRingTarget attaches an encrypted data plane to a raw engine
// configuration and returns it as an oracle target. The caller's cfg.Data
// is overwritten; cfg.Allocator is used as given (nil for allocator-free
// shapes).
func NewRingTarget(cfg ringoram.Config) (Target, error) {
	mem, err := ringoram.NewDataPlane(cfg, oracleKey)
	if err != nil {
		return nil, err
	}
	cfg.Data = mem
	o, err := ringoram.New(cfg)
	if err != nil {
		return nil, err
	}
	return &ringTarget{o: o, cfg: cfg}, nil
}

func (t *ringTarget) NumBlocks() int64 { return t.cfg.NumBlocks }
func (t *ringTarget) BlockSize() int   { return t.cfg.BlockB }

func (t *ringTarget) Access(block int64) error {
	_, err := t.o.Access(block)
	return err
}

func (t *ringTarget) Read(block int64) ([]byte, error) {
	data, _, err := t.o.ReadBlock(block)
	return data, err
}

func (t *ringTarget) Write(block int64, data []byte) error {
	_, err := t.o.WriteBlock(block, data)
	return err
}

func (t *ringTarget) CheckIntegrity() error { return t.o.CheckInvariants() }

// Checkpoint round-trips the engine through a full capture applied to a
// fresh instance (the one restore path) and continues on the restored
// copy. The same cfg — and therefore the same live secmem data plane and
// allocator instances — backs the restored engine: their state at the
// capture is exactly what the checkpoint references, since no
// operations run between capture and apply.
func (t *ringTarget) Checkpoint() error {
	o, err := ringoram.New(t.cfg)
	if err != nil {
		return err
	}
	if err := o.ApplyDelta(t.o.CaptureFull()); err != nil {
		return err
	}
	t.o = o
	return nil
}

// SweepConfigs returns the sweep-shaped engine geometries the ring oracle
// covers: classic Ring ORAM knobs the §VII schemes never use (S=7/A=5,
// S=9/A=8), per-level Z' reduction, bottom-level S shrink, and a
// remote-allocation shape backed by a real DeadQ. levels must be >= 7 so
// the allocator shape can track its six bottom levels.
func SweepConfigs(levels, treetop int, seed uint64) []RingConfig {
	ring := ringoram.TypicalRing(levels, treetop, seed)

	wideRing := ringoram.TypicalRing(levels, treetop, seed)
	wideRing.S = 9
	wideRing.A = 8

	ir := ringoram.CompactedBaseline(levels, treetop, seed)
	ir.Y = 3
	ir.ZPrimePerLevel = map[int]int{2: 4}

	ns := ringoram.CompactedBaseline(levels, treetop, seed)
	ns.SPerLevel = map[int]int{levels - 2: 1, levels - 1: 1}

	dr := ringoram.CompactedBaseline(levels, treetop, seed)
	dr.SPerLevel = map[int]int{}
	dr.STargetPerLevel = map[int]int{}
	for l := levels - 6; l <= levels-1; l++ {
		dr.SPerLevel[l] = 1
		dr.STargetPerLevel[l] = 3
	}
	dr.Allocator = core.MustNewDeadQ(levels-6, levels-1, 64)
	dr.MaxRemote = 6

	return []RingConfig{
		{"ring-Z5-S7-A5", ring},
		{"ring-S9-A8", wideRing},
		{"cb-Y3-irZ4", ir},
		{"cb-nsBottomS1", ns},
		{"cb-drRemote", dr},
	}
}

// RingResult is one configuration's outcome from RunRingOracle.
type RingResult struct {
	Label string
	Ops   int // ops applied before divergence (or all of them)
	Div   *Divergence
}

// RunRingOracle drives each configuration through its own seeded op
// sequence against the plaintext model. Configurations run independently
// (their geometries differ, so there is no lockstep sharing); the error
// reports the first diverging configuration.
func RunRingOracle(cfgs []RingConfig, seed uint64, n int) ([]RingResult, error) {
	results := make([]RingResult, 0, len(cfgs))
	var firstErr error
	for _, rc := range cfgs {
		t, err := NewRingTarget(rc.Config)
		if err != nil {
			return nil, fmt.Errorf("check: building %s: %w", rc.Label, err)
		}
		ops := GenOps(seed, n, t.NumBlocks())
		div := RunTarget(t, ops)
		r := RingResult{Label: rc.Label, Ops: len(ops), Div: div}
		if div != nil {
			r.Ops = div.OpIndex
			if firstErr == nil {
				firstErr = fmt.Errorf("check: engine config %s diverged at %s", rc.Label, div)
			}
		}
		results = append(results, r)
	}
	return results, firstErr
}
