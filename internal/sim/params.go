package sim

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/ringoram"
	"repro/internal/trace"
)

// Params scales an experiment. The paper runs a 24-level tree with 40 M
// accesses per benchmark on a server farm; the presets scale the same
// experiments to interactive sizes. All schemes are configured relative to
// the leaf level, so the shapes (who wins, by how much, where crossovers
// fall) carry over — see DESIGN.md's substitution table.
type Params struct {
	Levels  int // ORAM tree levels
	Treetop int // on-chip top levels
	Warmup  int // accesses before measurement (paper: 38 M of 40 M)
	Measure int // measured accesses (paper: 2 M)

	Benchmarks []trace.Benchmark
	Seed       uint64
	DRAM       dram.Config
	CPU        CPU

	// Parallel bounds concurrent simulation jobs (0 = GOMAXPROCS), and
	// the verify audit's concurrent rows. Each job runs the ORAM protocol
	// and the DRAM model on two goroutines, so it may keep up to two cores
	// busy. It only applies when Exec is nil; an explicit Exec carries its
	// own bound.
	Parallel int

	// Exec is the experiment orchestrator: a bounded worker pool with a
	// keyed run-cache (see runner.go). cmd/abench shares one Exec across
	// `-exp all` so identical (config, benchmark, seed) jobs computed by
	// one experiment are reused by the others. When nil, each experiment
	// runs on a private orchestrator.
	Exec *Exec
}

// exec returns the orchestrator for this experiment, creating a private
// one when the caller did not supply a shared instance.
func (p Params) exec() *Exec {
	if p.Exec != nil {
		return p.Exec
	}
	return NewExec(p.Parallel)
}

// Quick returns the CI-sized preset: a 12-level tree and three
// representative benchmarks (read-heavy mcf, mixed x264, write-streaming
// lbm) — enough to reproduce every qualitative result in seconds.
func Quick() Params {
	return Params{
		Levels:     12,
		Treetop:    5,
		Warmup:     4000,
		Measure:    8000,
		Benchmarks: pick("mcf", "x264", "lbm"),
		Seed:       1,
		DRAM:       dram.DDR3_1600(),
		CPU:        DefaultCPU(),
	}
}

// Full returns the flagship preset used for EXPERIMENTS.md: a 16-level
// tree and the whole SPEC17 suite.
func Full() Params {
	return Params{
		Levels:     16,
		Treetop:    6,
		Warmup:     10000,
		Measure:    30000,
		Benchmarks: trace.SPEC17(),
		Seed:       1,
		DRAM:       dram.DDR3_1600(),
		CPU:        DefaultCPU(),
	}
}

func pick(names ...string) []trace.Benchmark {
	out := make([]trace.Benchmark, 0, len(names))
	for _, n := range names {
		b, err := trace.Find(n)
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	return out
}

// runConfig drives one job — one benchmark through one ORAM
// configuration — with warm-up excluded from measurement.
func runConfig(p Params, j Job) (Result, error) {
	o, err := ringoram.New(j.Config)
	if err != nil {
		return Result{}, fmt.Errorf("sim: %s: %w", j.Bench.Name, err)
	}
	s, err := New(o, p.DRAM, p.CPU)
	if err != nil {
		return Result{}, err
	}
	gen, err := trace.NewGenerator(j.Bench, j.GenSeed)
	if err != nil {
		return Result{}, err
	}
	next := FromGenerator(gen)
	if err := s.Run(next, p.Warmup); err != nil {
		return Result{}, fmt.Errorf("sim: %s warmup: %w", j.Bench.Name, err)
	}
	s.StartMeasurement()
	if err := s.Run(next, p.Measure); err != nil {
		return Result{}, fmt.Errorf("sim: %s measure: %w", j.Bench.Name, err)
	}
	return s.Finish(), nil
}

// meanCPA returns the mean cycles-per-access across results.
func meanCPA(rs []Result) float64 {
	if len(rs) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rs {
		sum += r.CyclesPerAccess()
	}
	return sum / float64(len(rs))
}
