package check

import (
	"strings"
	"testing"

	"repro/internal/ringoram"
)

// TestRingOracleSweepConfigs runs the engine-direct oracle over every
// sweep-shaped configuration; all of them must survive the randomized
// workload plus checkpoint round trips and the final exhaustive sweep.
func TestRingOracleSweepConfigs(t *testing.T) {
	cfgs := SweepConfigs(8, 3, 7)
	if len(cfgs) != 5 {
		t.Fatalf("SweepConfigs returned %d shapes, want 5", len(cfgs))
	}
	results, err := RunRingOracle(cfgs, 0x5eed, 150)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Div != nil {
			t.Errorf("%s diverged: %s", r.Label, r.Div)
		}
		if r.Ops != 150 {
			t.Errorf("%s applied %d ops, want 150", r.Label, r.Ops)
		}
	}
}

// TestRingTargetCheckpointRoundTrip pins the capture-and-apply path: content
// written before a checkpoint must read back identically on the restored
// engine, including on the allocator-backed shape whose checkpoint carries
// live remote-slot references.
func TestRingTargetCheckpointRoundTrip(t *testing.T) {
	for _, rc := range SweepConfigs(8, 3, 11) {
		tgt, err := NewRingTarget(rc.Config)
		if err != nil {
			t.Fatalf("%s: %v", rc.Label, err)
		}
		ops := []Op{
			{Kind: OpWrite, Block: 3, Fill: 0xAA},
			{Kind: OpWrite, Block: 200, Fill: 0x5C},
			{Kind: OpCheckpoint},
			{Kind: OpRead, Block: 3},
			{Kind: OpWrite, Block: 3, Fill: 0x17},
			{Kind: OpCheckpoint},
			{Kind: OpRead, Block: 3},
			{Kind: OpRead, Block: 200},
		}
		if d := RunTarget(tgt, ops); d != nil {
			t.Errorf("%s: checkpoint round trip diverged: %s", rc.Label, d)
		}
	}
}

// flipReadTarget corrupts the first byte of every read — the canary
// proving the oracle actually validates payloads through the engine-direct
// path rather than vacuously passing.
type flipReadTarget struct {
	Target
}

func (f flipReadTarget) Read(block int64) ([]byte, error) {
	d, err := f.Target.Read(block)
	if err == nil && len(d) > 0 {
		d[0] ^= 0x01
	}
	return d, err
}

func TestRingOracleDetectsCorruption(t *testing.T) {
	cfg := SweepConfigs(8, 3, 7)[0].Config
	tgt, err := NewRingTarget(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := []Op{
		{Kind: OpWrite, Block: 1, Fill: 0x42},
		{Kind: OpRead, Block: 1},
	}
	d := RunTarget(flipReadTarget{tgt}, ops)
	if d == nil {
		t.Fatal("oracle missed a corrupted read")
	}
	if !strings.Contains(d.Detail, "mismatch") {
		t.Fatalf("unexpected divergence detail: %s", d.Detail)
	}
}

// TestRingTargetRejectsBadConfig checks construction errors surface
// instead of panicking.
func TestRingTargetRejectsBadConfig(t *testing.T) {
	cfg := ringoram.TypicalRing(8, 3, 1)
	cfg.ZPrime = 0 // invalid: no real-block slots
	if _, err := NewRingTarget(cfg); err == nil {
		t.Fatal("expected an error for an invalid configuration")
	}
}
