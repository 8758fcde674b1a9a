package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

// simParams is the simulator configuration of sim-fig8: the CI-sized
// preset, one simulation at a time so host time is not split across cores.
func simParams() sim.Params {
	p := sim.Quick()
	p.Parallel = 1
	return p
}

// sliceParams is the reduced simulation every serving workload runs after
// its daemon is gone, so that the simulator's metrics exist on every
// workload (the contract wants each end-to-end metric everywhere): the
// same preset over its first benchmark only. A serving-layer change must
// not move these numbers on any workload.
func sliceParams() sim.Params {
	p := simParams()
	p.Benchmarks = p.Benchmarks[:1]
	return p
}

// simResult is what repeated Fig 8 reproductions measured.
type simResult struct {
	reps          int
	accessesPerS  []float64            // one per repetition
	hostUsPerAcc  map[string][]float64 // scheme -> host µs per simulated access, one per repetition
	normSpace     float64              // AB / Baseline space, Fig 8a — simulated, exact
	normExec      float64              // AB / Baseline execution time, Fig 8c — simulated, exact
	tablesSHA256  string               // hash of the rendered tables
	tablesHash48  float64              // its first 48 bits, as a number
	deterministic bool                 // every repetition rendered identical tables
}

// runSim reproduces Fig 8 under p until both minReps repetitions and
// minSeconds have passed. Simulated outputs are deterministic, so every
// repetition must render byte-identical tables; host time is what varies.
func runSim(p sim.Params, minSeconds float64, minReps int) (*simResult, error) {
	r := &simResult{hostUsPerAcc: map[string][]float64{}, deterministic: true}
	perJob := float64(p.Warmup + p.Measure)
	begin := time.Now()
	for r.reps < minReps || time.Since(begin).Seconds() < minSeconds {
		p.Exec = sim.NewExec(1) // fresh run-cache: every repetition simulates
		t0 := time.Now()
		tables, err := sim.RunFig8(p)
		wall := time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		st := p.Exec.Stats()
		r.accessesPerS = append(r.accessesPerS, float64(st.CacheMisses)*perJob/wall)
		bySchemeNs, bySchemeJobs := map[string]float64{}, map[string]float64{}
		for _, j := range st.PerJob {
			bySchemeNs[j.Label] += float64(j.Wall)
			bySchemeJobs[j.Label]++
		}
		for s, ns := range bySchemeNs {
			r.hostUsPerAcc[s] = append(r.hostUsPerAcc[s], ns/1e3/(bySchemeJobs[s]*perJob))
		}
		sum := hashTables(tables)
		if r.reps > 0 && sum != r.tablesSHA256 {
			r.deterministic = false
		}
		r.tablesSHA256 = sum
		if r.normSpace, err = tableCell(tables[0], "AB", "normalized"); err != nil {
			return nil, err
		}
		if r.normExec, err = tableCell(tables[2], "AB", "time"); err != nil {
			return nil, err
		}
		r.reps++
	}
	raw, _ := hex.DecodeString(r.tablesSHA256[:16])
	r.tablesHash48 = float64(binary.BigEndian.Uint64(raw) >> 16)
	return r, nil
}

func hashTables(tables []*report.Table) string {
	h := sha256.New()
	for _, t := range tables {
		h.Write([]byte(t.String()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tableCell reads one numeric cell by row label (first column) and column
// name.
func tableCell(t *report.Table, row, col string) (float64, error) {
	ci := -1
	for i, c := range t.Columns {
		if c == col {
			ci = i
		}
	}
	for _, r := range t.Rows {
		if ci >= 0 && len(r) > ci && r[0] == row {
			return strconv.ParseFloat(strings.TrimSpace(r[ci]), 64)
		}
	}
	return 0, fmt.Errorf("table %q has no cell (%s, %s)", t.Title, row, col)
}

// simMetrics reports a simResult. The end-to-end three go to e2e; the
// per-scheme host times and the table hash are per-layer.
func simMetrics(o *outcome, r *simResult) {
	o.e2e.timing("sim_accesses_per_s", median(r.accessesPerS), r.reps)
	o.e2e.set("sim_ab_norm_space", r.normSpace)
	o.e2e.set("sim_ab_norm_exec", r.normExec)
	for _, s := range core.Schemes() {
		o.layer.timing("sim.host_us_per_access."+string(s), median(r.hostUsPerAcc[string(s)]), r.reps)
	}
	o.layer.set("sim.tables_sha256", r.tablesHash48)
	o.note("sim: %d repetition(s); tables sha256 %s", r.reps, r.tablesSHA256)
	o.attempted += r.reps
	if !r.deterministic {
		o.failed++
		o.note("sim: repetitions rendered different tables — simulated outputs must be deterministic")
	}
}

// simSetup is sim-fig8's share of set-up: generating every benchmark's
// trace and building the first scheme's ORAM.
func simSetup(p sim.Params) (time.Duration, error) {
	t0 := time.Now()
	for i, b := range p.Benchmarks {
		g, err := trace.NewGenerator(b, sim.GeneratorSeed(p.Seed, b.Name, i))
		if err != nil {
			return 0, err
		}
		g.Generate(p.Warmup + p.Measure)
	}
	opt := core.DefaultOptions(p.Levels, p.Seed)
	opt.TreetopLevels = p.Treetop
	if _, _, err := core.New(core.Schemes()[0], opt); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// simProbes times the simulator's two front-end layers directly: trace
// generation and the cache hierarchy.
func simProbes(o *outcome, p sim.Params) error {
	const records = 200_000
	b := p.Benchmarks[0]
	var genNs, cacheNs []float64
	for rep := 0; rep < 5; rep++ {
		g, err := trace.NewGenerator(b, sim.GeneratorSeed(p.Seed, b.Name, rep))
		if err != nil {
			return err
		}
		t0 := time.Now()
		reqs := g.Generate(records)
		genNs = append(genNs, float64(time.Since(t0))/records)

		h := cache.DefaultHierarchy()
		var mem []cache.MemoryRequest
		t0 = time.Now()
		for _, q := range reqs {
			mem = h.Access(q.Addr, q.Write, mem[:0])
		}
		cacheNs = append(cacheNs, float64(time.Since(t0))/records)
	}
	o.layer.timing("trace.gen_ns_per_record", median(genNs), len(genNs))
	o.layer.timing("cache.host_ns_per_access", median(cacheNs), len(cacheNs))
	return nil
}
