package sim

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/memop"
	"repro/internal/report"
	"repro/internal/ringoram"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Runner regenerates one table or figure of the paper.
type Runner func(Params) ([]*report.Table, error)

// Registry maps experiment IDs ("table1", "fig8", ...) to their runners.
// cmd/abench exposes it on the command line; bench_test.go wraps each
// entry in a testing.B benchmark.
func Registry() map[string]Runner {
	return map[string]Runner{
		"table1":   RunTable1,
		"table2":   RunTable2,
		"table3":   RunTable3,
		"table4":   RunTable4,
		"fig2":     RunFig2,
		"fig3":     RunFig3,
		"fig4":     RunFig4,
		"fig7":     RunFig7,
		"fig8":     RunFig8,
		"fig9":     RunFig9,
		"fig10":    RunFig10,
		"fig11":    RunFig11,
		"fig12":    RunFig12,
		"fig13":    RunFig13,
		"fig14":    RunFig14,
		"fig15":    RunFig15,
		"storage":  RunStorage,
		"intro":    RunIntro,
		"stash":    RunStashStudy,
		"sweep":    RunSweep,
		"verify":   RunVerify,
		"snapshot": RunSnapshot,
		"xor":      RunXOR,
	}
}

// WallClock reports whether an experiment measures real elapsed time
// rather than simulated cycles. Wall-clock experiments are machine-
// dependent, so cmd/abench excludes them from `-exp all` (which promises
// byte-identical output at any parallelism) and runs them only by name.
func WallClock(id string) bool { return id == "snapshot" }

// ExperimentIDs returns the registry keys in stable order.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(Registry()))
	for id := range Registry() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// options converts experiment parameters to scheme-construction options.
// It is used by the single-instance experiments (Figs 2/3/7/10/12, stash,
// verify); suite runs derive per-job seeds via JobSeed instead.
func (p Params) options(seedOffset uint64) core.Options {
	return p.optionsFor(p.Seed + seedOffset)
}

// optionsFor returns scheme-construction options with an explicit
// (usually JobSeed-derived) seed.
func (p Params) optionsFor(seed uint64) core.Options {
	opt := core.DefaultOptions(p.Levels, seed)
	opt.TreetopLevels = p.Treetop
	return opt
}

// schemeSuite is the job family for one of the five §VII schemes. Using
// the scheme name as the family label means every experiment that runs a
// scheme suite (Table II, Figs 8/9/10/14/15) produces identical job keys
// and shares one set of cached runs during `-exp all`.
func schemeSuite(p Params, s core.Scheme) suite {
	return suite{string(s), func(i int, seed uint64) (ringoram.Config, error) {
		cfg, _, err := core.Build(s, p.optionsFor(seed))
		return cfg, err
	}}
}

// schemeResults holds one scheme's measurements across the benchmark suite.
type schemeResults struct {
	Scheme  core.Scheme
	Config  ringoram.Config // the suite's first job config (space, geometry)
	SpaceB  uint64
	Results []Result
}

// runAllSchemes measures every scheme over the full benchmark suite as
// one flattened job matrix. Each scheme's configs are built exactly once
// (in suiteJobs); the first job's config doubles as the static-space
// witness, instead of the former extra core.Build per scheme.
func runAllSchemes(p Params) ([]schemeResults, error) {
	schemes := core.Schemes()
	suites := make([]suite, 0, len(schemes))
	for _, s := range schemes {
		suites = append(suites, schemeSuite(p, s))
	}
	rs, jobs, err := runSuites(p, suites)
	if err != nil {
		return nil, err
	}
	out := make([]schemeResults, len(schemes))
	for i, s := range schemes {
		cfg := jobs[i][0].Config
		out[i] = schemeResults{Scheme: s, Config: cfg, SpaceB: ringoram.SpaceBytesStatic(cfg), Results: rs[i]}
	}
	return out, nil
}

// RunFig8 regenerates the paper's main result (Fig 8): normalized space
// consumption (a), space utilization (b), and normalized execution time
// with the per-operation breakdown (c).
func RunFig8(p Params) ([]*report.Table, error) {
	runs, err := runAllSchemes(p)
	if err != nil {
		return nil, err
	}
	baseSpace := float64(runs[0].SpaceB)
	baseCPA := meanCPA(runs[0].Results)

	a := report.New("Fig 8a: total space consumption (normalized to Baseline)",
		"scheme", "space", "normalized")
	b := report.New("Fig 8b: space utilization", "scheme", "utilization")
	c := report.New("Fig 8c: normalized execution time with operation breakdown",
		"scheme", "time", "readPath%", "evictPath%", "earlyReshuffle%", "background%")

	for _, run := range runs {
		a.AddRow(string(run.Scheme), report.Bytes(run.SpaceB), report.Norm(float64(run.SpaceB), baseSpace))

		// Utilization is static: user data / tree size. All schemes protect
		// the same user data as Baseline.
		util := float64(run.Config.NumBlocks*int64(run.Config.BlockB)) / float64(run.SpaceB)
		b.AddRow(string(run.Scheme), report.Percent(util))

		var bd [4]float64
		var total float64
		for i, k := range []memop.Kind{memop.KindReadPath, memop.KindEvictPath, memop.KindEarlyReshuffle, memop.KindBackground} {
			for _, r := range run.Results {
				bd[i] += float64(r.Breakdown[k])
			}
			total += bd[i]
		}
		row := []string{string(run.Scheme), report.Norm(meanCPA(run.Results), baseCPA)}
		for _, v := range bd {
			if total > 0 {
				row = append(row, report.Percent(v/total))
			} else {
				row = append(row, "n/a")
			}
		}
		c.AddRow(row...)
	}
	a.AddNote("paper: DR 0.75, NS 0.81, AB 0.64 of Baseline")
	b.AddNote("paper: Baseline 31.2%% -> AB 48.5%%")
	c.AddNote("paper: IR ~1.04, DR ~1.03, NS ~1.00, AB ~1.04")
	return []*report.Table{a, b, c}, nil
}

// RunFig9 regenerates the bandwidth-impact figure: memory bytes moved per
// online access (the paper's "bandwidth demand"), normalized to Baseline,
// per benchmark and averaged.
func RunFig9(p Params) ([]*report.Table, error) {
	runs, err := runAllSchemes(p)
	if err != nil {
		return nil, err
	}
	t := report.New("Fig 9: bandwidth demand, bytes/access (normalized to Baseline)",
		append([]string{"benchmark"}, schemeNames(runs)...)...)
	for i, b := range p.Benchmarks {
		row := []string{b.Name}
		base := bytesPerAccess(runs[0].Results[i])
		for _, run := range runs {
			row = append(row, report.Norm(bytesPerAccess(run.Results[i]), base))
		}
		t.AddRow(row...)
	}
	row := []string{"mean"}
	base := mean(runs[0].Results, bytesPerAccess)
	for _, run := range runs {
		row = append(row, report.Norm(mean(run.Results, bytesPerAccess), base))
	}
	t.AddRow(row...)
	t.AddNote("paper: AB increases bandwidth by ~1%% on average")
	return []*report.Table{t}, nil
}

// RunFig10 regenerates the per-level reshuffle comparison.
func RunFig10(p Params) ([]*report.Table, error) {
	runs, err := runAllSchemes(p)
	if err != nil {
		return nil, err
	}
	t := report.New("Fig 10: EarlyReshuffles per level (summed over benchmarks)",
		append([]string{"level"}, schemeNames(runs)...)...)
	// Per-level counts need the ORAM instances; rerun one benchmark per
	// scheme with per-level capture. Use the first benchmark as the
	// representative, as reshuffle distribution is application independent.
	perScheme := make([][]uint64, len(runs))
	err = p.exec().each(len(runs), func(si int) error {
		cfg, _, err := core.Build(runs[si].Scheme, p.options(0))
		if err != nil {
			return err
		}
		o, err := probe(cfg, p.Benchmarks[0], p.Seed, p.Warmup+p.Measure, nil)
		if err != nil {
			return err
		}
		perScheme[si] = o.ReshufflesPerLevel()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for lvl := 0; lvl < p.Levels; lvl++ {
		row := []string{report.Int(int64(lvl))}
		for si := range runs {
			row = append(row, report.Uint(perScheme[si][lvl]))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: NS raises reshuffles for the bottom 2 levels; AB spreads the increase over the bottom 3")
	return []*report.Table{t}, nil
}

// RunFig11 regenerates the DR level-sensitivity study: the shrunken band
// starts 6..1 levels above the leaves (paper: DR-L18 .. DR-L23).
func RunFig11(p Params) ([]*report.Table, error) {
	depths := []int{6, 5, 4, 3, 2, 1}
	suites := []suite{schemeSuite(p, core.SchemeBaseline)}
	for _, depth := range depths {
		suites = append(suites, suite{fmt.Sprintf("DR-L%d", p.Levels-depth),
			func(i int, seed uint64) (ringoram.Config, error) {
				c, _, err := core.DRVariant(p.optionsFor(seed), depth)
				return c, err
			}})
	}
	var rows []string
	for _, depth := range depths {
		rows = append(rows, fmt.Sprintf("DR-L%d (bottom %d)", p.Levels-depth, depth))
	}
	t, err := tradeoffTable(p, "Fig 11: DR sensitivity to the starting level", "time", suites, rows)
	if err != nil {
		return nil, err
	}
	t.AddNote("paper: space saving saturates with more levels; top levels contribute <1%% of space")
	return []*report.Table{t}, nil
}

// RunFig13 regenerates the NS design exploration (Ly-Sx sweep).
func RunFig13(p Params) ([]*report.Table, error) {
	suites := []suite{schemeSuite(p, core.SchemeBaseline)}
	var rows []string
	for _, ly := range []int{1, 2, 3} {
		for _, sx := range []int{1, 2, 3} {
			suites = append(suites, suite{fmt.Sprintf("NS L%d-S%d", ly, sx),
				func(i int, seed uint64) (ringoram.Config, error) {
					return core.NSVariant(p.optionsFor(seed), ly, sx)
				}})
			rows = append(rows, fmt.Sprintf("L%d-S%d", ly, sx))
		}
	}
	t, err := tradeoffTable(p, "Fig 13: NS design exploration", "time", suites, rows)
	if err != nil {
		return nil, err
	}
	t.AddNote("paper: chose L2-S2 for NS and L3-S1 inside AB; aggressive L3-S3 degrades performance most")
	return []*report.Table{t}, nil
}

// RunFig14 regenerates the S-extension capability comparison: the fraction
// of bucket allocations at extended levels that reached their S target.
func RunFig14(p Params) ([]*report.Table, error) {
	t := report.New("Fig 14: extended allocations / total allocations", "scheme", "extend ratio")
	schemes := []core.Scheme{core.SchemeDR, core.SchemeAB}
	suites := make([]suite, 0, len(schemes))
	for _, s := range schemes {
		suites = append(suites, schemeSuite(p, s))
	}
	allRes, _, err := runSuites(p, suites)
	if err != nil {
		return nil, err
	}
	for si, s := range schemes {
		var attempts, granted uint64
		for _, r := range allRes[si] {
			attempts += r.ORAM.ExtendAttempts
			granted += r.ORAM.ExtendGranted
		}
		ratio := 0.0
		if attempts > 0 {
			ratio = float64(granted) / float64(attempts)
		}
		t.AddRow(string(s), report.Percent(ratio))
	}
	t.AddNote("paper: DR extends almost all allocations; AB ~74%% (fewer dead blocks available)")
	return []*report.Table{t}, nil
}

// RunFig15 regenerates the PARSEC generalizability study: Fig 8's space
// and time metrics over the PARSEC-like suite.
func RunFig15(p Params) ([]*report.Table, error) {
	pp := p
	pp.Benchmarks = trace.PARSEC()
	if len(p.Benchmarks) < len(pp.Benchmarks) {
		// Respect the caller's scale: quick presets keep quick suites.
		pp.Benchmarks = pp.Benchmarks[:len(p.Benchmarks)]
	}
	tables, err := RunFig8(pp)
	if err != nil {
		return nil, err
	}
	for _, t := range tables {
		t.Title = "Fig 15 (PARSEC) — " + t.Title
	}
	tables[len(tables)-1].AddNote("paper: PARSEC shows the same space savings; DR/AB incur 3-4%% overhead")
	return tables, nil
}

// RunFig2 regenerates the dead-block population over time for the classic
// Ring ORAM setting (§IV-A).
func RunFig2(p Params) ([]*report.Table, error) {
	benches := p.Benchmarks
	if len(benches) > 3 {
		benches = benches[:3]
	}
	sampleEvery := (p.Warmup + p.Measure) / 20
	if sampleEvery == 0 {
		sampleEvery = 1
	}
	series := make([]*stats.Series, len(benches))
	err := p.exec().each(len(benches), func(bi int) error {
		s := &stats.Series{}
		cfg := ringoram.TypicalRing(p.Levels, p.Treetop, p.Seed+uint64(bi))
		_, err := probe(cfg, benches[bi], p.Seed, p.Warmup+p.Measure,
			func(i int, o *ringoram.ORAM, _ []memop.Op) error {
				if (i+1)%sampleEvery == 0 {
					s.Record(float64(i+1), float64(o.DeadBlocks()))
				}
				return nil
			})
		series[bi] = s
		return err
	})
	if err != nil {
		return nil, err
	}
	cols := []string{"online accesses"}
	for _, b := range benches {
		cols = append(cols, b.Name)
	}
	cols = append(cols, "average")
	t := report.New("Fig 2: dead blocks over time (classic Ring ORAM)", cols...)
	for si := 0; si < series[0].Len(); si++ {
		row := []string{report.Float(series[0].X[si], 0)}
		var sum float64
		for _, s := range series {
			row = append(row, report.Float(s.Y[si], 0))
			sum += s.Y[si]
		}
		row = append(row, report.Float(sum/float64(len(series)), 0))
		t.AddRow(row...)
	}
	t.AddNote("paper: rises quickly, then stabilizes (~18%% of tree space at 24 levels)")
	return []*report.Table{t}, nil
}

// RunFig3 regenerates the dead-blocks-per-level snapshot (§IV-A).
func RunFig3(p Params) ([]*report.Table, error) {
	cfg := ringoram.TypicalRing(p.Levels, p.Treetop, p.Seed)
	o, err := probe(cfg, p.Benchmarks[0], p.Seed, p.Warmup+p.Measure, nil)
	if err != nil {
		return nil, err
	}
	t := report.New("Fig 3: dead blocks across levels", "level", "dead blocks", "buckets", "dead/bucket")
	perLevel := o.DeadBlocksPerLevel()
	for lvl := 0; lvl < p.Levels; lvl++ {
		buckets := o.Geometry().BucketsAtLevel(lvl)
		t.AddRow(report.Int(int64(lvl)), report.Uint(perLevel[lvl]), report.Int(buckets),
			report.Float(float64(perLevel[lvl])/float64(buckets), 2))
	}
	t.AddNote("paper: last level dominates in absolute count, ~2.1 dead blocks per leaf bucket")
	return []*report.Table{t}, nil
}

// RunFig4 regenerates the motivation's space/performance trade-off sweep:
// reduce S by 3 for the last x levels of the classic setting (§IV-B).
func RunFig4(p Params) ([]*report.Table, error) {
	mk := func(x int, seed uint64) ringoram.Config {
		cfg := ringoram.TypicalRing(p.Levels, p.Treetop, seed)
		cfg.SPerLevel = map[int]int{}
		for l := p.Levels - x; l <= p.Levels-1; l++ {
			cfg.SPerLevel[l] = cfg.S - 3
		}
		return cfg
	}
	maxX := 7
	if maxX > p.Levels-2 {
		maxX = p.Levels - 2
	}
	var suites []suite
	var rows []string
	for x := 0; x <= maxX; x++ {
		suites = append(suites, suite{fmt.Sprintf("Ring L-%d", x),
			func(i int, seed uint64) (ringoram.Config, error) { return mk(x, seed), nil }})
		if x > 0 {
			rows = append(rows, fmt.Sprintf("L-%d", x))
		}
	}
	t, err := tradeoffTable(p, "Fig 4: space demand and slowdown, reducing S by 3 for the last x levels",
		"slowdown", suites, rows)
	if err != nil {
		return nil, err
	}
	t.AddNote("paper: space saving saturates after the last 3 levels; execution time grows roughly linearly")
	return []*report.Table{t}, nil
}

// RunFig12 regenerates the dead-block lifetime study (§VIII-D).
func RunFig12(p Params) ([]*report.Table, error) {
	cfg := ringoram.TypicalRing(p.Levels, p.Treetop, p.Seed)
	cfg.TrackLifetimes = true
	o, err := probe(cfg, p.Benchmarks[0], p.Seed, p.Warmup+p.Measure, nil)
	if err != nil {
		return nil, err
	}
	t := report.New("Fig 12: dead-block lifetime by level (in online accesses)",
		"level", "min", "avg", "max", "samples")
	for lvl := 0; lvl < p.Levels; lvl++ {
		lt := o.LifetimeAt(lvl)
		t.AddRow(report.Int(int64(lvl)), report.Float(lt.Min(), 0), report.Float(lt.Mean(), 1),
			report.Float(lt.Max(), 0), report.Uint(lt.Count()))
	}
	t.AddNote("paper: lifetimes near the root are ~0; near the leaves they are orders of magnitude larger")
	return []*report.Table{t}, nil
}

func schemeNames(runs []schemeResults) []string {
	out := make([]string, len(runs))
	for i, r := range runs {
		out[i] = string(r.Scheme)
	}
	return out
}

// tradeoffTable runs suites as one job matrix and renders one row per
// suite after the first, named by rows: its space and its mean cycles per
// access (column timeCol), each normalised to the first suite's.
func tradeoffTable(p Params, title, timeCol string, suites []suite, rows []string) (*report.Table, error) {
	rs, jobs, err := runSuites(p, suites)
	if err != nil {
		return nil, err
	}
	space := func(i int) float64 { return float64(ringoram.SpaceBytesStatic(jobs[i][0].Config)) }
	t := report.New(title, "variant", "space", timeCol)
	for i, row := range rows {
		t.AddRow(row, report.Norm(space(i+1), space(0)), report.Norm(meanCPA(rs[i+1]), meanCPA(rs[0])))
	}
	return t, nil
}
