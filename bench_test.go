// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure of the paper (each wrapping the corresponding
// experiment runner from internal/sim), plus ablation benchmarks for the
// design choices called out in DESIGN.md §5.
//
// Figure benchmarks report wall time of the full experiment at bench
// scale. Ablations additionally report the domain metric they probe
// (extend-ratio, cycles-per-access, space-bytes) via b.ReportMetric.
//
// Run everything:
//
//	go test -bench=. -benchmem
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ringoram"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchParams keeps each experiment iteration around a second at most.
func benchParams() sim.Params {
	p := sim.Quick()
	p.Levels = 10
	p.Treetop = 4
	p.Warmup = 500
	p.Measure = 1500
	p.Benchmarks = p.Benchmarks[:2]
	return p
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	runner := sim.Registry()[id]
	if runner == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := runner(p); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper table.

func BenchmarkTable1Metadata(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkTable2SchemeSummary(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3Config(b *testing.B)        { benchExperiment(b, "table3") }
func BenchmarkTable4MPKI(b *testing.B)          { benchExperiment(b, "table4") }

// One benchmark per paper figure.

func BenchmarkFig2DeadBlocksOverTime(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFig3DeadBlocksPerLevel(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFig4SpacePerfTradeoff(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig7AttackerSuccess(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig8MainResult(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkFig9Bandwidth(b *testing.B)           { benchExperiment(b, "fig9") }
func BenchmarkFig10ReshufflesPerLevel(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11DRSensitivity(b *testing.B)      { benchExperiment(b, "fig11") }
func BenchmarkFig12DeadBlockLifetime(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13NSExploration(b *testing.B)      { benchExperiment(b, "fig13") }
func BenchmarkFig14ExtendRatio(b *testing.B)        { benchExperiment(b, "fig14") }
func BenchmarkFig15Parsec(b *testing.B)             { benchExperiment(b, "fig15") }
func BenchmarkStorageOverhead(b *testing.B)         { benchExperiment(b, "storage") }
func BenchmarkIntroPathVsRing(b *testing.B)         { benchExperiment(b, "intro") }

// BenchmarkSuiteCacheReuse measures the shared-executor path behind
// `abench -exp all`: the experiments that consume the five-scheme ×
// benchmark matrix run over one executor, so only the first computes the
// suite and the rest are served from the run-cache.
func BenchmarkSuiteCacheReuse(b *testing.B) {
	ids := []string{"table2", "fig8", "fig9", "fig10", "fig14"}
	p := benchParams()
	var hits, jobs uint64
	for i := 0; i < b.N; i++ {
		ex := sim.NewExec(0)
		p.Exec = ex
		for _, id := range ids {
			if _, err := sim.Registry()[id](p); err != nil {
				b.Fatal(err)
			}
		}
		st := ex.Stats()
		hits += st.CacheHits
		jobs += st.Jobs
	}
	b.ReportMetric(float64(hits)/float64(jobs), "cachehit/job")
}

// --- Ablations (DESIGN.md §5) ---

// driveScheme runs a configuration for `accesses` and returns the ORAM.
func driveScheme(b *testing.B, cfg ringoram.Config, accesses int) *ringoram.ORAM {
	b.Helper()
	o, err := ringoram.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	bench, err := trace.Find("x264")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := trace.NewGenerator(bench, 5)
	if err != nil {
		b.Fatal(err)
	}
	n := uint64(cfg.NumBlocks)
	for i := 0; i < accesses; i++ {
		if _, err := o.Access(int64(gen.Next().Block() % n)); err != nil {
			b.Fatal(err)
		}
	}
	return o
}

func extendRatio(o *ringoram.ORAM) float64 {
	st := o.Stats()
	if st.ExtendAttempts == 0 {
		return 0
	}
	return float64(st.ExtendGranted) / float64(st.ExtendAttempts)
}

// BenchmarkAblationDeadQCapacity probes the paper's 1000-entry DeadQ
// choice: smaller queues lose extension opportunities.
func BenchmarkAblationDeadQCapacity(b *testing.B) {
	for _, capacity := range []int{8, 64, 1000} {
		b.Run(sizeName(capacity), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				opt := core.DefaultOptions(12, 9)
				opt.DeadQCapacity = capacity
				cfg, _, err := core.Build(core.SchemeDR, opt)
				if err != nil {
					b.Fatal(err)
				}
				o := driveScheme(b, cfg, 8000)
				ratio = extendRatio(o)
			}
			b.ReportMetric(ratio, "extend-ratio")
		})
	}
}

// BenchmarkAblationRemoteSlots probes R, the Table I cap on remote slots
// per bucket (paper: 6).
func BenchmarkAblationRemoteSlots(b *testing.B) {
	for _, r := range []int{2, 4, 6} {
		b.Run(sizeName(r), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				cfg, _, err := core.Build(core.SchemeAB, core.DefaultOptions(12, 9))
				if err != nil {
					b.Fatal(err)
				}
				cfg.MaxRemote = r
				o := driveScheme(b, cfg, 8000)
				ratio = extendRatio(o)
			}
			b.ReportMetric(ratio, "extend-ratio")
		})
	}
}

// BenchmarkAblationSharedDeadQ compares the paper's per-level queues with
// a single shared queue of the same total capacity.
func BenchmarkAblationSharedDeadQ(b *testing.B) {
	build := func(shared bool) ringoram.Config {
		opt := core.DefaultOptions(12, 9)
		cfg, _, err := core.Build(core.SchemeDR, opt)
		if err != nil {
			b.Fatal(err)
		}
		if shared {
			q, err := core.NewSharedDeadQ(12-6, 11, 6*opt.DeadQCapacity)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Allocator = q
		}
		return cfg
	}
	for _, mode := range []struct {
		name   string
		shared bool
	}{{"per-level", false}, {"shared", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				o := driveScheme(b, build(mode.shared), 8000)
				ratio = extendRatio(o)
			}
			b.ReportMetric(ratio, "extend-ratio")
		})
	}
}

// BenchmarkAblationExtensionStrategy compares §V-C1's two strategies:
// (1) allocate the full bucket and extend beyond it at runtime (no space
// saving, fewer reshuffles) vs (2) allocate small and recover to the
// baseline S (the space saving AB-ORAM adopts).
func BenchmarkAblationExtensionStrategy(b *testing.B) {
	variants := []struct {
		name           string
		sPhys, sTarget int
	}{
		{"grow-beyond", 3, 5},    // strategy (1)
		{"shrink-recover", 1, 3}, // strategy (2), the paper's choice
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var space float64
			for i := 0; i < b.N; i++ {
				opt := core.DefaultOptions(12, 9)
				cfg, _, err := core.Build(core.SchemeDR, opt)
				if err != nil {
					b.Fatal(err)
				}
				for l := opt.Levels - 6; l <= opt.Levels-1; l++ {
					cfg.SPerLevel[l] = v.sPhys
					cfg.STargetPerLevel[l] = v.sTarget
				}
				o := driveScheme(b, cfg, 8000)
				space = float64(o.SpaceBytes())
			}
			b.ReportMetric(space, "space-bytes")
		})
	}
}

// BenchmarkAblationChannelInterleave probes the DRAM channel-interleave
// granularity (cache-line vs bucket-sized runs) under the AB scheme —
// the layout dimension Ring ORAM channel schedulers tune.
func BenchmarkAblationChannelInterleave(b *testing.B) {
	for _, gran := range []int{1, 8} {
		b.Run("blocks-"+sizeName(gran), func(b *testing.B) {
			var cpa float64
			for i := 0; i < b.N; i++ {
				cfg, _, err := core.Build(core.SchemeAB, core.DefaultOptions(12, 9))
				if err != nil {
					b.Fatal(err)
				}
				o, err := ringoram.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				mcfg := dram.DDR3_1600()
				mcfg.InterleaveBlocks = gran
				s, err := sim.New(o, mcfg, sim.DefaultCPU())
				if err != nil {
					b.Fatal(err)
				}
				bench, _ := trace.Find("x264")
				gen, _ := trace.NewGenerator(bench, 5)
				res, err := s.Measure(sim.FromGenerator(gen), 1500, 4000)
				if err != nil {
					b.Fatal(err)
				}
				cpa = res.CyclesPerAccess()
			}
			b.ReportMetric(cpa, "cycles/access")
		})
	}
}

// BenchmarkAblationEvictInterval probes A, the EvictPath interval.
func BenchmarkAblationEvictInterval(b *testing.B) {
	for _, a := range []int{3, 5, 8} {
		b.Run(sizeName(a), func(b *testing.B) {
			var cpa float64
			for i := 0; i < b.N; i++ {
				cfg, _, err := core.Build(core.SchemeAB, core.DefaultOptions(12, 9))
				if err != nil {
					b.Fatal(err)
				}
				cfg.A = a
				o, err := ringoram.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				s, err := sim.New(o, dram.DDR3_1600(), sim.DefaultCPU())
				if err != nil {
					b.Fatal(err)
				}
				bench, _ := trace.Find("x264")
				gen, _ := trace.NewGenerator(bench, 5)
				res, err := s.Measure(sim.FromGenerator(gen), 2000, 6000)
				if err != nil {
					b.Fatal(err)
				}
				cpa = res.CyclesPerAccess()
			}
			b.ReportMetric(cpa, "cycles/access")
		})
	}
}

func sizeName(n int) string {
	const digits = "0123456789"
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = digits[n%10]
		n /= 10
	}
	return string(buf[i:])
}
