package sim

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/memop"
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

	// Parallel bounds the experiment's worker pool (0 = GOMAXPROCS): its
	// concurrent simulation jobs, probes and audit rows. Each simulation
	// job runs the ORAM protocol and the DRAM model on two goroutines, so
	// it may keep up to two cores busy. It only applies when Exec is nil;
	// an explicit Exec carries its own bound.
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
	res, err := s.Measure(FromGenerator(gen), p.Warmup, p.Measure)
	if err != nil {
		return Result{}, fmt.Errorf("sim: %s %w", j.Bench.Name, err)
	}
	return res, nil
}

// probe drives a fresh ORAM built from cfg with n requests of bench's
// trace, generated from genSeed, with no memory model: the experiments
// that read the protocol's own state (dead blocks, reshuffles, the stash,
// the online op) rather than its timing. each, when set, runs after every
// access with its index and ops; an error from it stops the probe.
func probe(cfg ringoram.Config, bench trace.Benchmark, genSeed uint64, n int,
	each func(i int, o *ringoram.ORAM, ops []memop.Op) error) (*ringoram.ORAM, error) {
	o, err := ringoram.New(cfg)
	if err != nil {
		return nil, err
	}
	gen, err := trace.NewGenerator(bench, genSeed)
	if err != nil {
		return nil, err
	}
	numBlocks := uint64(o.Config().NumBlocks)
	for i := 0; i < n; i++ {
		ops, err := o.Access(int64(gen.Next().Block() % numBlocks))
		if err != nil {
			return nil, err
		}
		if each != nil {
			if err := each(i, o, ops); err != nil {
				return nil, err
			}
		}
	}
	return o, nil
}

// mean averages f over rs, summing in order; 0 for no results.
func mean(rs []Result, f func(Result) float64) float64 {
	if len(rs) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rs {
		sum += f(r)
	}
	return sum / float64(len(rs))
}

// meanCPA returns the mean cycles-per-access across results.
func meanCPA(rs []Result) float64 { return mean(rs, Result.CyclesPerAccess) }

// bytesPerAccess is the memory traffic of one serviced request.
func bytesPerAccess(r Result) float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Mem.BytesTransferred) / float64(r.Accesses)
}

// reshufflesPerAccess is the EarlyReshuffle rate per online access.
func reshufflesPerAccess(r Result) float64 {
	return float64(r.ORAM.EarlyReshuffles) / float64(r.ORAM.OnlineAccesses+1)
}
