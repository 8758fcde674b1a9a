package ringoram

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/secmem"
)

// newDataORAM builds an ORAM with the encrypted+authenticated data plane
// attached.
func newDataORAM(t *testing.T, cfg Config) (*ORAM, *secmem.Memory) {
	t.Helper()
	mem, err := NewDataPlane(cfg, []byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Data = mem
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o, mem
}

func payloadFor(block int64, blockB int) []byte {
	d := make([]byte, blockB)
	binary.LittleEndian.PutUint64(d, uint64(block)*0x9e3779b97f4a7c15+1)
	for i := 8; i < blockB; i++ {
		d[i] = byte(block) ^ byte(i)
	}
	return d
}

func TestDataPlaneRequiresConfig(t *testing.T) {
	o, err := New(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.ReadBlock(0); err == nil {
		t.Fatal("ReadBlock without data plane accepted")
	}
	if _, err := o.WriteBlock(0, make([]byte, 64)); err == nil {
		t.Fatal("WriteBlock without data plane accepted")
	}
}

func TestDataPlaneRejectsBadLength(t *testing.T) {
	cfg := baseCfg()
	cfg.Levels = 8
	cfg.NumBlocks = 200
	o, _ := newDataORAM(t, cfg)
	if _, err := o.WriteBlock(0, make([]byte, 5)); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestDataPlaneUnwrittenReadsZero(t *testing.T) {
	cfg := baseCfg()
	cfg.Levels = 8
	cfg.NumBlocks = 200
	o, _ := newDataORAM(t, cfg)
	d, _, err := o.ReadBlock(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d, make([]byte, cfg.BlockB)) {
		t.Fatal("unwritten block not zero")
	}
}

// The flagship correctness test: write distinct content to many blocks,
// churn the tree hard (evictions, reshuffles, green blocks), then read
// everything back. Any address mix-up anywhere in the engine — including
// remote allocation pointing a logical slot at the wrong physical slot —
// surfaces as a decryption/authentication failure or a payload mismatch.
func TestDataPlaneSurvivesChurn(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"pure-ring", func() Config {
			c := TypicalRing(9, 0, 3)
			return c
		}()},
		{"compaction", func() Config {
			c := CompactedBaseline(9, 0, 3)
			c.BGEvictThreshold = 60
			return c
		}()},
		{"remote-allocation", func() Config {
			c := CompactedBaseline(9, 0, 3)
			c.BGEvictThreshold = 60
			c.SPerLevel = map[int]int{}
			c.STargetPerLevel = map[int]int{}
			for l := 4; l <= 8; l++ {
				c.SPerLevel[l] = 1
				c.STargetPerLevel[l] = 3
			}
			c.Allocator = newTestDeadQ(4, 500)
			c.MaxRemote = 6
			return c
		}()},
	} {
		t.Run(mode.name, func(t *testing.T) {
			o, _ := newDataORAM(t, mode.cfg)
			n := o.Config().NumBlocks
			written := map[int64]bool{}
			for i := int64(0); i < 60; i++ {
				blk := (i * 13) % n
				if _, err := o.WriteBlock(blk, payloadFor(blk, o.cfg.BlockB)); err != nil {
					t.Fatal(err)
				}
				written[blk] = true
			}
			// Churn with plain accesses.
			for i := 0; i < 2500; i++ {
				if _, err := o.Access(int64(uint64(i*2654435761) % uint64(n))); err != nil {
					t.Fatal(err)
				}
			}
			if err := o.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for blk := range written {
				got, _, err := o.ReadBlock(blk)
				if err != nil {
					t.Fatalf("block %d: %v", blk, err)
				}
				if want := payloadFor(blk, o.cfg.BlockB); !bytes.Equal(got, want) {
					t.Fatalf("block %d content corrupted after churn", blk)
				}
			}
			if o.Stats().RemoteReads > 0 {
				t.Logf("%s: content survived %d remote reads", mode.name, o.Stats().RemoteReads)
			}
		})
	}
}

func TestDataPlaneOverwrite(t *testing.T) {
	cfg := CompactedBaseline(8, 0, 5)
	o, _ := newDataORAM(t, cfg)
	v1 := payloadFor(1, cfg.BlockB)
	v2 := payloadFor(2, cfg.BlockB)
	if _, err := o.WriteBlock(9, v1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := o.Access(int64(i) % cfg.NumBlocks); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := o.WriteBlock(9, v2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := o.Access(int64(i*3) % cfg.NumBlocks); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := o.ReadBlock(9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatal("overwrite lost")
	}
}

// Failure injection: tamper with the encrypted memory backing the tree and
// confirm the fault is detected at the ORAM API instead of returning
// corrupt data.
func TestDataPlaneTamperDetected(t *testing.T) {
	cfg := CompactedBaseline(8, 0, 5)
	o, mem := newDataORAM(t, cfg)
	if _, err := o.WriteBlock(3, payloadFor(3, cfg.BlockB)); err != nil {
		t.Fatal(err)
	}
	// Push it into the tree.
	for i := 0; i < 300; i++ {
		if _, err := o.Access(int64(i*7) % cfg.NumBlocks); err != nil {
			t.Fatal(err)
		}
	}
	if o.Stash().Contains(3) {
		t.Skip("block still stashed; tamper target not in memory")
	}
	// Corrupt every written block: wherever block 3's ciphertext lives, the
	// next full read of it must fail.
	for idx := int64(0); idx < mem.NumBlocks(); idx++ {
		_ = mem.InjectFault(idx, 0)
	}
	gotErr := false
	for i := 0; i < 50 && !gotErr; i++ {
		if _, _, err := o.ReadBlock(3); err != nil {
			gotErr = true
		}
	}
	if !gotErr {
		t.Fatal("memory tampering never detected")
	}
}

func TestDataPlaneCiphertextOnBus(t *testing.T) {
	// The attacker's view (raw memory) must not contain the structured
	// plaintext we wrote.
	cfg := CompactedBaseline(8, 0, 5)
	o, mem := newDataORAM(t, cfg)
	marker := bytes.Repeat([]byte{0xAB}, cfg.BlockB)
	if _, err := o.WriteBlock(5, marker); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := o.Access(int64(i*11) % cfg.NumBlocks); err != nil {
			t.Fatal(err)
		}
	}
	for idx := int64(0); idx < mem.NumBlocks(); idx++ {
		if bytes.Equal(mem.Ciphertext(idx), marker) {
			t.Fatalf("plaintext marker visible at physical block %d", idx)
		}
	}
}
