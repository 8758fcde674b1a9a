package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/memop"
	"repro/internal/report"
	"repro/internal/ringoram"
)

// RunXOR measures the Ring ORAM XOR online fast path in the DRAM model:
// every scheme runs the benchmark suite twice — XORRead off and on — on
// identical configurations and request streams (the flag adds no RNG
// draws, so the pair stays in lockstep). The headline column is the
// online transfer per ReadPath: off, one block per off-chip bucket
// ((L+1-treetop)·B); on, one combined XORed block plus any green blocks.
func RunXOR(p Params) ([]*report.Table, error) {
	schemes := core.Schemes()
	suites := make([]suite, 0, 2*len(schemes))
	for _, xor := range []bool{false, true} {
		for _, s := range schemes {
			s, xor := s, xor
			label := string(s)
			if xor {
				label += " +xor"
			}
			suites = append(suites, suite{label, func(i int, _ uint64) (ringoram.Config, error) {
				// Both variants build from the base scheme's config seed so
				// off and on are the same instance up to the XOR flag.
				seed := JobSeed(p.Seed, "cfg/"+string(s), p.Benchmarks[i].Name, i)
				cfg, _, err := core.Build(s, p.optionsFor(seed))
				if err != nil {
					return cfg, err
				}
				cfg.XORRead = xor
				return cfg, nil
			}})
		}
	}
	rs, jobs, err := runSuites(p, suites)
	if err != nil {
		return nil, err
	}
	// The online transfer is read off the op lists, one probe per row.
	online := make([]float64, len(suites))
	err = p.exec().each(len(suites), func(idx int) error {
		var err error
		online[idx], err = onlineBlocksPerRead(p, schemes[idx%len(schemes)], idx >= len(schemes))
		return err
	})
	if err != nil {
		return nil, err
	}

	t := report.New("XOR online fast path: per-read online transfer, off vs on",
		"scheme", "xor", "online blks/read", "online B/read", "dram B/access", "cycles/access")
	for vi, xor := range []bool{false, true} {
		for si, s := range schemes {
			idx := vi*len(schemes) + si
			blockB := jobs[idx][0].Config.BlockB
			on := online[idx]
			t.AddRow(string(s), onOff(xor),
				report.Float(on, 2),
				report.Float(on*float64(blockB), 1),
				report.Float(mean(rs[idx], bytesPerAccess), 1),
				report.Float(meanCPA(rs[idx]), 0))
		}
	}
	t.AddNote("online blks/read counts transferred blocks in the online ReadPath's block op (meta ops excluded)")
	t.AddNote("xor on: dummies and the real slot collapse into one combined block; green blocks (bucket compaction) keep individual transfers")
	t.AddNote("dram B/access and cycles include maintenance traffic (evictions, reshuffles), which the fast path leaves unchanged")
	return []*report.Table{t}, nil
}

// onlineBlocksPerRead drives one instance of the scheme directly (no DRAM
// model) and counts the blocks actually transferred by online ReadPaths:
// readPath emits its metadata op and block op as the access's first two
// ops, so the block op's read list is exactly the online transfer.
func onlineBlocksPerRead(p Params, s core.Scheme, xor bool) (float64, error) {
	cfg, _, err := core.Build(s, p.options(0))
	if err != nil {
		return 0, err
	}
	cfg.XORRead = xor
	var blocks, reads uint64
	_, err = probe(cfg, p.Benchmarks[0], p.Seed, p.Warmup+p.Measure,
		func(i int, _ *ringoram.ORAM, ops []memop.Op) error {
			if i < p.Warmup {
				return nil
			}
			if len(ops) < 2 || ops[1].Kind != memop.KindReadPath {
				return fmt.Errorf("sim: access ops do not start with the online ReadPath pair")
			}
			blocks += uint64(len(ops[1].Reads))
			reads++
			return nil
		})
	if err != nil || reads == 0 {
		return 0, err
	}
	return float64(blocks) / float64(reads), nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
