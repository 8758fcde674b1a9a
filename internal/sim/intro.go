package sim

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/memop"
	"repro/internal/pathoram"
	"repro/internal/report"
	"repro/internal/ringoram"
	"repro/internal/trace"
)

// RunIntro validates the paper's introductory claims (§I, §III): Ring ORAM
// services an online access with one block per bucket — 1/Z' of Path
// ORAM's online bandwidth — and bucket compaction keeps that advantage
// with a smaller tree. The experiment runs Path ORAM (classic Z=4), an
// IR-shaped Path ORAM, classic Ring ORAM, and the compacted Baseline over
// the same workload and protected-data size.
func RunIntro(p Params) ([]*report.Table, error) {
	bench := p.Benchmarks[0]
	// The common load every protocol can hold: Path ORAM's 50% at Z=4.
	numBlocks := ((int64(1) << p.Levels) - 1) * 2

	t := report.New("Intro: Path ORAM vs Ring ORAM on one workload",
		"protocol", "tree space", "online blocks/access", "online cycles/access", "total cycles/access")

	type protoResult struct {
		name      string
		space     uint64
		blocks    float64
		onlineCPA float64
		cpa       float64
	}
	var rows []protoResult

	runPath := func(name string, zPerLevel map[int]int) error {
		cfg := pathoram.Config{
			Levels:           p.Levels,
			Z:                4,
			ZPerLevel:        zPerLevel,
			NumBlocks:        numBlocks,
			BlockB:           64,
			StashCapacity:    300,
			BGEvictThreshold: 200,
			TreetopLevels:    p.Treetop,
			Seed:             p.Seed,
		}
		o, err := pathoram.New(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		mem, err := dram.NewController(p.DRAM)
		if err != nil {
			return err
		}
		gen, err := trace.NewGenerator(bench, p.Seed)
		if err != nil {
			return err
		}
		var now, start uint64
		var onlineBlocks, onlineCycles uint64
		measured := 0
		for i := 0; i < p.Warmup+p.Measure; i++ {
			req := gen.Next()
			if i == p.Warmup {
				mem.ResetStats()
				now = mem.Drain(now)
				start = now
				onlineBlocks, onlineCycles = 0, 0
				measured = 0
			}
			ops, err := o.Access(int64(req.Block() % uint64(numBlocks)))
			if err != nil {
				return err
			}
			for _, op := range ops {
				t0 := now
				now = mem.Batch(now, op.Reads, op.Writes)
				if op.Kind == memop.KindPathAccess {
					// Path ORAM's whole read+write path is online: the next
					// request cannot start before the write phase completes.
					onlineBlocks += uint64(len(op.Reads) + len(op.Writes))
					onlineCycles += now - t0
				}
			}
			measured++
		}
		now = mem.Drain(now)
		rows = append(rows, protoResult{
			name:      name,
			space:     o.SpaceBytes(),
			blocks:    float64(onlineBlocks) / float64(measured),
			onlineCPA: float64(onlineCycles) / float64(measured),
			cpa:       float64(now-start) / float64(measured),
		})
		return nil
	}

	runRing := func(name string, cfg ringoram.Config) error {
		cfg.NumBlocks = numBlocks
		res, err := runConfig(p, Job{Label: name, Bench: bench, Config: cfg, GenSeed: p.Seed})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		// Online traffic is the ReadPath only: one metadata read, one block
		// read, one metadata write per bucket. Maintenance (EvictPath,
		// EarlyReshuffle, background) runs off the critical path.
		onlineBlocks := 3.0 * float64(p.Levels-p.Treetop)
		rows = append(rows, protoResult{
			name:      name,
			space:     res.SpaceB,
			blocks:    onlineBlocks,
			onlineCPA: float64(res.Breakdown[memop.KindReadPath]) / float64(res.Accesses),
			cpa:       res.CyclesPerAccess(),
		})
		return nil
	}

	irShape := map[int]int{}
	lo := p.Levels - 14
	if lo < 2 {
		lo = 2
	}
	for l := lo; l <= p.Levels-6; l++ {
		irShape[l] = 3
	}

	if err := runPath("Path ORAM (Z=4)", nil); err != nil {
		return nil, err
	}
	if err := runPath("IR-Path ORAM", irShape); err != nil {
		return nil, err
	}
	if err := runRing("Ring ORAM (Z=12)", ringoram.TypicalRing(p.Levels, p.Treetop, p.Seed)); err != nil {
		return nil, err
	}
	if err := runRing("Ring + CB (Baseline)", ringoram.CompactedBaseline(p.Levels, p.Treetop, p.Seed)); err != nil {
		return nil, err
	}

	for _, r := range rows {
		t.AddRow(r.name, report.Bytes(r.space), report.Float(r.blocks, 1),
			report.Float(r.onlineCPA, 0), report.Float(r.cpa, 0))
	}
	t.AddNote("paper §I/§III: a Ring ORAM online access reads one block (plus metadata) per bucket vs Path ORAM's full Z-block read+write per bucket")
	return []*report.Table{t}, nil
}
