package sim

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memop"
	"repro/internal/ringoram"
	"repro/internal/trace"
)

// tinyParams keeps unit tests fast while still exercising every stage.
func tinyParams() Params {
	p := Quick()
	p.Levels = 10
	p.Treetop = 4
	p.Warmup = 600
	p.Measure = 1200
	p.Benchmarks = p.Benchmarks[:2]
	return p
}

func TestSimulatorStepAdvancesTime(t *testing.T) {
	p := tinyParams()
	o, _, err := core.New(core.SchemeBaseline, p.options(0))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(o, p.DRAM, p.CPU)
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := trace.NewGenerator(p.Benchmarks[0], 1)
	before := s.Now()
	if err := s.Step(gen.Next()); err != nil {
		t.Fatal(err)
	}
	if s.Now() <= before {
		t.Fatal("time did not advance")
	}
}

func TestSimulatorRejectsBadCPU(t *testing.T) {
	p := tinyParams()
	o, _, _ := core.New(core.SchemeBaseline, p.options(0))
	if _, err := New(o, p.DRAM, CPU{}); err == nil {
		t.Fatal("zero CPU accepted")
	}
	if _, err := New(o, dram.Config{}, DefaultCPU()); err == nil {
		t.Fatal("zero DRAM config accepted")
	}
}

func TestMeasurementWindowExcludesWarmup(t *testing.T) {
	p := tinyParams()
	o, _, err := core.New(core.SchemeBaseline, p.options(0))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := New(o, p.DRAM, p.CPU)
	gen, _ := trace.NewGenerator(p.Benchmarks[0], 1)
	if err := s.Run(gen, 500); err != nil {
		t.Fatal(err)
	}
	s.StartMeasurement()
	if err := s.Run(gen, 300); err != nil {
		t.Fatal(err)
	}
	res := s.Finish()
	if res.Accesses != 300 {
		t.Fatalf("measured %d accesses, want 300", res.Accesses)
	}
	if res.ORAM.OnlineAccesses != 300 {
		t.Fatalf("ORAM delta %d, want 300", res.ORAM.OnlineAccesses)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles measured")
	}
	var bdTotal uint64
	for _, v := range res.Breakdown {
		bdTotal += v
	}
	if bdTotal == 0 || bdTotal > res.Cycles {
		t.Fatalf("breakdown %d inconsistent with cycles %d", bdTotal, res.Cycles)
	}
	if res.Breakdown[memop.KindReadPath] == 0 {
		t.Fatal("no readPath cycles in breakdown")
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	var r Result
	if r.CyclesPerAccess() != 0 || r.BandwidthBytesPerCycle() != 0 {
		t.Fatal("zero result should yield zero rates")
	}
	r = Result{Cycles: 1000, Accesses: 10}
	r.Mem.BytesTransferred = 4000
	if r.CyclesPerAccess() != 100 || r.BandwidthBytesPerCycle() != 4 {
		t.Fatalf("rates wrong: %v %v", r.CyclesPerAccess(), r.BandwidthBytesPerCycle())
	}
}

func TestRegistryComplete(t *testing.T) {
	wanted := []string{
		"table1", "table2", "table3", "table4",
		"fig2", "fig3", "fig4", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "storage", "intro", "stash", "sweep", "verify", "snapshot", "xor",
	}
	reg := Registry()
	if len(reg) != len(wanted) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(wanted))
	}
	for _, id := range wanted {
		if reg[id] == nil {
			t.Errorf("experiment %q missing", id)
		}
	}
	ids := ExperimentIDs()
	if len(ids) != len(wanted) {
		t.Fatalf("ExperimentIDs returned %d", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("ExperimentIDs not sorted")
		}
	}
}

func TestStaticExperiments(t *testing.T) {
	// The closed-form experiments are cheap; verify their content exactly.
	p := tinyParams()
	for _, id := range []string{"table1", "table3", "table4", "storage"} {
		tables, err := Registry()[id](p)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

func TestFig8SpaceAndShapes(t *testing.T) {
	p := tinyParams()
	tables, err := RunFig8(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("Fig 8 should yield 3 tables, got %d", len(tables))
	}
	spaceTab := tables[0]
	norm := map[string]float64{}
	for _, row := range spaceTab.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad normalized space %q", row[2])
		}
		norm[row[0]] = v
	}
	if norm["Baseline"] != 1 {
		t.Errorf("baseline not 1.0: %v", norm)
	}
	// The headline: AB saves the most space, ordering AB < DR < NS < Baseline.
	if !(norm["AB"] < norm["DR"] && norm["DR"] < norm["NS"] && norm["NS"] < 1) {
		t.Errorf("space ordering violated: %v", norm)
	}
	// Utilization must improve from ~31%% toward ~50%%.
	utilTab := tables[1]
	var baseU, abU float64
	for _, row := range utilTab.Rows {
		v, _ := strconv.ParseFloat(strings.TrimSuffix(row[1], "%"), 64)
		switch row[0] {
		case "Baseline":
			baseU = v
		case "AB":
			abU = v
		}
	}
	if !(baseU > 25 && baseU < 35 && abU > baseU) {
		t.Errorf("utilization shape wrong: base=%v ab=%v", baseU, abU)
	}
	// Execution time: AB overhead should be modest (paper ~4%; allow slack
	// at tiny scale).
	timeTab := tables[2]
	for _, row := range timeTab.Rows {
		if row[0] != "AB" {
			continue
		}
		v, _ := strconv.ParseFloat(row[1], 64)
		if v > 1.5 {
			t.Errorf("AB slowdown %v implausibly high", v)
		}
	}
}

func TestFig14ExtendRatio(t *testing.T) {
	p := tinyParams()
	tables, err := RunFig14(p)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 2 {
		t.Fatalf("want DR and AB rows, got %d", len(rows))
	}
	parse := func(s string) float64 {
		v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		return v
	}
	dr, ab := parse(rows[0][1]), parse(rows[1][1])
	if dr <= 0 || ab <= 0 {
		t.Fatalf("extend ratios not positive: DR=%v AB=%v", dr, ab)
	}
	// Fig 14's shape: DR extends at least as often as AB.
	if dr+1e-9 < ab {
		t.Errorf("DR ratio %v below AB %v, contradicting Fig 14", dr, ab)
	}
}

func TestFig2SeriesGrowsThenStabilizes(t *testing.T) {
	p := tinyParams()
	tables, err := RunFig2(p)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) < 10 {
		t.Fatalf("too few samples: %d", len(rows))
	}
	first, _ := strconv.ParseFloat(rows[0][len(rows[0])-1], 64)
	last, _ := strconv.ParseFloat(rows[len(rows)-1][len(rows[0])-1], 64)
	if last <= first {
		t.Errorf("dead blocks did not grow: first=%v last=%v", first, last)
	}
}

func TestFig7AttackerNearChance(t *testing.T) {
	p := tinyParams()
	p.Warmup, p.Measure = 2000, 6000
	tables, err := RunFig7(p)
	if err != nil {
		t.Fatal(err)
	}
	chance := 1 / float64(p.Levels)
	for _, row := range tables[0].Rows {
		for col := 1; col <= 2; col++ {
			v, _ := strconv.ParseFloat(row[col], 64)
			if v < chance*0.6 || v > chance*1.4 {
				t.Errorf("%s col %d: success rate %v far from chance %v", row[0], col, v, chance)
			}
		}
	}
}

func TestRunSuiteDeterminism(t *testing.T) {
	p := tinyParams()
	run := func() Result {
		rs, err := runSuite(p, "Baseline", func(i int, seed uint64) (ringoram.Config, error) {
			cfg, _, err := core.Build(core.SchemeBaseline, p.optionsFor(seed))
			return cfg, err
		})
		if err != nil {
			t.Fatal(err)
		}
		return rs[0]
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.ORAM != b.ORAM {
		t.Fatal("parallel suite runs nondeterministic")
	}
}

func TestVerifyAuditPasses(t *testing.T) {
	p := tinyParams()
	p.Warmup, p.Measure = 300, 900
	tables, err := RunVerify(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("verify should emit audit + harness + engine-sweep tables, got %d", len(tables))
	}
	for _, tab := range tables {
		for _, row := range tab.Rows {
			if row[len(row)-1] != "PASS" {
				t.Errorf("%s: %s failed: %s", tab.Title, row[0], row[len(row)-1])
			}
		}
	}
	// The audit must iterate the benchmark subset, one attributable row per
	// scheme × benchmark pair.
	wantRows := len(core.Schemes()) * len(p.Benchmarks)
	if len(tables[0].Rows) != wantRows {
		t.Errorf("audit has %d rows, want %d (schemes × benchmarks)", len(tables[0].Rows), wantRows)
	}
	if got := tables[0].Rows[1][1]; got != p.Benchmarks[1].Name {
		t.Errorf("audit row 1 benchmark %q, want %q", got, p.Benchmarks[1].Name)
	}
	if len(tables[1].Rows) != len(core.Schemes()) {
		t.Errorf("harness has %d rows, want one per scheme", len(tables[1].Rows))
	}
	if len(tables[2].Rows) != 5 {
		t.Errorf("engine sweep has %d rows, want one per sweep config", len(tables[2].Rows))
	}
}

func TestStashStudyNoOverflows(t *testing.T) {
	p := tinyParams()
	tables, err := RunStashStudy(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		if row[6] != "0" {
			t.Errorf("%s overflowed: %v", row[0], row)
		}
	}
	if len(tables[0].Rows) != 5 {
		t.Fatalf("expected 5 schemes, got %d", len(tables[0].Rows))
	}
}

func TestIntroRingOnlineAdvantage(t *testing.T) {
	p := tinyParams()
	tables, err := RunIntro(p)
	if err != nil {
		t.Fatal(err)
	}
	blocks := map[string]float64{}
	for _, row := range tables[0].Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad blocks cell %q", row[2])
		}
		blocks[row[0]] = v
	}
	if blocks["Ring ORAM (Z=12)"] >= blocks["Path ORAM (Z=4)"] {
		t.Errorf("Ring online traffic (%v) not below Path (%v) — contradicts §I", blocks["Ring ORAM (Z=12)"], blocks["Path ORAM (Z=4)"])
	}
}
