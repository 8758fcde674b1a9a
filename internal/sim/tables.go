package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/memop"
	"repro/internal/metadata"
	"repro/internal/report"
	"repro/internal/ringoram"
	"repro/internal/security"
	"repro/internal/trace"
)

// metaParams derives Table I parameters from the experiment scale, using
// the paper's CB baseline bucket shape (Z=8, Z'=5, S=3, R=6).
func metaParams(p Params) metadata.Params {
	cfg := ringoram.CompactedBaseline(p.Levels, p.Treetop, p.Seed)
	return metadata.Params{
		Z:       cfg.ZPrime + cfg.S,
		ZPrime:  cfg.ZPrime,
		S:       cfg.S,
		Levels:  cfg.Levels,
		NBlocks: cfg.NumBlocks,
		R:       6,
	}
}

// RunTable1 regenerates Table I: the bucket-metadata layout of Ring ORAM
// and AB-ORAM with exact field widths.
func RunTable1(p Params) ([]*report.Table, error) {
	mp := metaParams(p)
	fields, err := metadata.Fields(mp)
	if err != nil {
		return nil, err
	}
	t := report.New("Table I: bucket metadata organization",
		"field", "category", "bits", "scheme", "function")
	for _, f := range fields {
		scheme := "Ring + AB"
		if f.ABOnly {
			scheme = "AB only"
		}
		t.AddRow(f.Name, f.Category, report.Int(int64(f.Bits)), scheme, f.Function)
	}
	sizes, err := metadata.Compute(mp)
	if err != nil {
		return nil, err
	}
	t.AddNote("Ring ORAM metadata: %d B; AB additions: %d B; total %d B (fits 64 B block: %v)",
		sizes.RingBytes(), sizes.ABBytes(), sizes.TotalBytes(), sizes.FitsInBlock(64))
	return []*report.Table{t}, nil
}

// RunTable2 regenerates Table II's qualitative comparison with measured
// numbers: each scheme's operation counts and costs relative to Baseline.
func RunTable2(p Params) ([]*report.Table, error) {
	runs, err := runAllSchemes(p)
	if err != nil {
		return nil, err
	}
	base := runs[0]
	t := report.New("Table II (measured): schemes relative to Baseline",
		"scheme", "space", "online reads/access", "reshuffles/access", "evict cycles/op", "bg evictions/access")
	for _, run := range runs {
		space := report.Norm(float64(run.SpaceB), float64(base.SpaceB))
		online := mean(run.Results, func(r Result) float64 {
			return float64(r.ORAM.BlocksRead+r.ORAM.RemoteReads) / float64(r.ORAM.OnlineAccesses+1)
		})
		reshuf := mean(run.Results, reshufflesPerAccess)
		evict := mean(run.Results, func(r Result) float64 {
			if r.ORAM.EvictPaths == 0 {
				return 0
			}
			return float64(r.Breakdown[memop.KindEvictPath]) / float64(r.ORAM.EvictPaths)
		})
		bg := mean(run.Results, func(r Result) float64 {
			return float64(r.ORAM.DummyAccesses) / float64(r.ORAM.OnlineAccesses+1)
		})
		t.AddRow(string(run.Scheme), space, report.Float(online, 2), report.Float(reshuf, 3),
			report.Float(evict, 0), report.Float(bg, 3))
	}
	t.AddNote("paper's qualitative claims: DR slightly more online accesses/reshuffles; NS more reshuffles, cheaper evictions; IR/CB more background evictions")
	return []*report.Table{t}, nil
}

// RunTable3 regenerates Table III: the system configuration in force.
func RunTable3(p Params) ([]*report.Table, error) {
	cfg := ringoram.CompactedBaseline(p.Levels, p.Treetop, p.Seed)
	t := report.New("Table III: system configuration", "parameter", "value")
	rows := [][2]string{
		{"Processor fetch width / ROB", fmt.Sprintf("%d / %d", p.CPU.FetchWidth, p.CPU.ROBSize)},
		{"Memory channels", report.Int(int64(p.DRAM.Channels))},
		{"DRAM clock", "800 MHz (DDR3-1600 timing)"},
		{"Ranks x banks per channel", fmt.Sprintf("%d x %d", p.DRAM.Ranks, p.DRAM.Banks)},
		{"Row buffer", report.Bytes(p.DRAM.RowBytes)},
		{"ORAM tree levels", report.Int(int64(cfg.Levels))},
		{"Bucket (Z / Z' / S / A / Y)", fmt.Sprintf("%d / %d / %d / %d / %d", cfg.ZPrime+cfg.S, cfg.ZPrime, cfg.S, cfg.A, cfg.Y)},
		{"Block size", report.Bytes(uint64(cfg.BlockB))},
		{"Protected user data", report.Bytes(uint64(cfg.NumBlocks) * uint64(cfg.BlockB))},
		{"Stash entries", report.Int(int64(cfg.StashCapacity))},
		{"Tree-top cache levels", report.Int(int64(cfg.TreetopLevels))},
		{"Background-eviction threshold", report.Int(int64(cfg.BGEvictThreshold))},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1])
	}
	return []*report.Table{t}, nil
}

// RunTable4 regenerates Table IV: the benchmark suite with its calibrated
// read/write MPKI, alongside the measured rates of the generators.
func RunTable4(p Params) ([]*report.Table, error) {
	t := report.New("Table IV: benchmarks (target vs generated MPKI)",
		"benchmark", "suite", "read MPKI", "write MPKI", "measured read", "measured write")
	for _, b := range trace.SPEC17() {
		gen, err := trace.NewGenerator(b, p.Seed)
		if err != nil {
			return nil, err
		}
		reqs := gen.Generate(50000)
		mr, mw := trace.MeasuredMPKI(reqs)
		t.AddRow(b.Name, b.Suite, report.Float(b.ReadMPKI, 2), report.Float(b.WriteMPKI, 2),
			report.Float(mr, 2), report.Float(mw, 2))
	}
	return []*report.Table{t}, nil
}

// RunFig7 regenerates the empirical security study: an attacker guessing
// the real block among each ReadPath's L reads, for Baseline and AB.
func RunFig7(p Params) ([]*report.Table, error) {
	t := report.New("Fig 7: attacker success rate",
		"benchmark", "Baseline", "AB-ORAM", "chance (1/L)")
	accesses := p.Warmup + p.Measure
	for bi, bench := range p.Benchmarks {
		rates := make([]float64, 0, 2)
		for _, s := range []core.Scheme{core.SchemeBaseline, core.SchemeAB} {
			o, _, err := core.New(s, p.options(uint64(bi)))
			if err != nil {
				return nil, err
			}
			gen, err := trace.NewGenerator(bench, p.Seed)
			if err != nil {
				return nil, err
			}
			res, err := security.Attack(o, gen, accesses, p.Seed+uint64(bi)+99)
			if err != nil {
				return nil, err
			}
			rates = append(rates, res.SuccessRate())
		}
		t.AddRow(bench.Name, report.Float(rates[0], 5), report.Float(rates[1], 5),
			report.Float(security.Chance(p.Levels), 5))
	}
	t.AddNote("paper (24 levels): Baseline 0.041665 vs AB 0.041670, both ~1/24")
	return []*report.Table{t}, nil
}

// RunStorage regenerates the §VIII-H storage-overhead analysis.
func RunStorage(p Params) ([]*report.Table, error) {
	mp := metaParams(p)
	sizes, err := metadata.Compute(mp)
	if err != nil {
		return nil, err
	}
	t := report.New("Storage overhead (§VIII-H)", "item", "value")
	deadQLevels := 6
	t.AddRow("DeadQ entry", fmt.Sprintf("%d bits", metadata.DeadQEntryBits(mp)))
	t.AddRow("DeadQ on-chip total (6 levels x 1000 entries)",
		report.Bytes(uint64(metadata.DeadQOnChipBytes(mp, deadQLevels, 1000))))
	t.AddRow("Ring ORAM bucket metadata", report.Bytes(uint64(sizes.RingBytes())))
	t.AddRow("AB-ORAM metadata addition", report.Bytes(uint64(sizes.ABBytes())))
	t.AddRow("Total bucket metadata", report.Bytes(uint64(sizes.TotalBytes())))
	t.AddRow("Fits one 64 B block", fmt.Sprintf("%v", sizes.FitsInBlock(64)))
	t.AddNote("paper: 21 KB on-chip; metadata kept within one block by setting R=6")
	return []*report.Table{t}, nil
}
