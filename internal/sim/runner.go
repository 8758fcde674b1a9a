package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/ringoram"
	"repro/internal/trace"
)

// This file is the experiment orchestration layer. The paper's evaluation
// (Figs 8-15) is a large matrix of (configuration family x benchmark)
// simulations; instead of running each family's suite behind its own
// goroutine spray, experiments flatten their whole matrix into Jobs and
// hand them to one Exec: a bounded worker pool with a keyed run-cache, so
//
//   - an experiment's full matrix runs at pool width, not suite width, and
//   - identical jobs (same config, benchmark, seeds, and measurement
//     window) computed by one experiment are reused by every later one
//     during `abench -exp all`.
//
// Results are always assembled in job-declaration order, so parallel
// execution is byte-identical to -parallel 1.

// Job is one simulation: drive one benchmark trace through one ORAM
// configuration with the experiment's warm-up/measure window.
type Job struct {
	Label   string // configuration-family label ("Baseline", "DR-L9", ...)
	Bench   trace.Benchmark
	Config  ringoram.Config
	GenSeed uint64 // trace-generator seed (see JobSeed)
}

// JobSeed derives the deterministic seed for one (role, benchmark, run)
// sub-stream of the experiment seed via FNV-1a over the seed bytes, the
// role, the benchmark name, and the run index. Every component is length-
// delimited, so distinct inputs hash to distinct streams; in particular
// equal-length benchmark names (mcf/lbm/gcc) no longer collide the way
// the old `seed + len(name)` derivation made them.
//
// Roles in use: "trace" for trace-generator seeds (label-independent, so
// every scheme replays the same request stream — the paper's paired
// comparison) and "cfg/<label>" for ORAM-configuration seeds (label-
// dependent, so different schemes randomize independently).
func JobSeed(seed uint64, role, bench string, run int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	h.Write(b[:])
	h.Write([]byte(role))
	h.Write([]byte{0})
	h.Write([]byte(bench))
	h.Write([]byte{0})
	binary.LittleEndian.PutUint64(b[:], uint64(run))
	h.Write(b[:])
	return h.Sum64()
}

// GeneratorSeed returns the trace-generator seed for the run-th job of a
// benchmark under the experiment seed. Exposed so tests can assert the
// reproducibility contract documented in EXPERIMENTS.md.
func GeneratorSeed(seed uint64, bench string, run int) uint64 {
	return JobSeed(seed, "trace", bench, run)
}

// JobMetric records one job observed by the Exec: its identity, the
// simulation wall time (zero for cache hits), and whether the run-cache
// served it.
type JobMetric struct {
	Label    string        `json:"label"`
	Bench    string        `json:"bench"`
	Seed     uint64        `json:"seed"`
	Wall     time.Duration `json:"wallNs"`
	CacheHit bool          `json:"cacheHit"`
}

// ExecStats is an observability snapshot of an Exec.
type ExecStats struct {
	Parallelism int           `json:"parallelism"`
	Jobs        uint64        `json:"jobs"`
	CacheHits   uint64        `json:"cacheHits"`
	CacheMisses uint64        `json:"cacheMisses"`
	SimWall     time.Duration `json:"simWallNs"` // summed per-job compute time
	PerJob      []JobMetric   `json:"-"`
}

// Exec executes simulation jobs on a bounded worker pool with a keyed
// run-cache. One Exec is meant to outlive many experiments (cmd/abench
// shares one across `-exp all`); the zero value is not usable, construct
// with NewExec.
type Exec struct {
	slots chan struct{} // worker-pool tokens; cap = max concurrent calls

	mu      sync.Mutex
	entries map[string]*cacheEntry
	stats   ExecStats
}

// NewExec returns an Exec running at most parallel simulations at once
// (0 or negative = GOMAXPROCS).
func NewExec(parallel int) *Exec {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel < 1 {
		parallel = 1
	}
	return &Exec{
		slots:   make(chan struct{}, parallel),
		entries: make(map[string]*cacheEntry),
	}
}

// Parallelism returns the worker-pool width.
func (e *Exec) Parallelism() int { return cap(e.slots) }

// Stats returns a snapshot of the orchestrator counters. PerJob is sorted
// by (Label, Bench, Seed) so its order is stable across runs.
func (e *Exec) Stats() ExecStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := e.stats
	out.Parallelism = cap(e.slots)
	out.PerJob = make([]JobMetric, len(e.stats.PerJob))
	copy(out.PerJob, e.stats.PerJob)
	sort.Slice(out.PerJob, func(i, j int) bool {
		a, b := out.PerJob[i], out.PerJob[j]
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		if a.Bench != b.Bench {
			return a.Bench < b.Bench
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		return !a.CacheHit && b.CacheHit
	})
	return out
}

// RunJobs executes a job matrix and returns the results in job order.
// Duplicate and previously executed jobs are served from the run-cache
// (in-flight duplicates wait for the first execution instead of
// recomputing). The first job error, in job order, fails the batch.
func (e *Exec) RunJobs(p Params, jobs []Job) ([]Result, error) {
	results := make([]Result, len(jobs))
	err := e.each(len(jobs), func(i int) error {
		var err error
		if results[i], err = e.runJob(p, jobs[i]); err != nil {
			return fmt.Errorf("job %s/%s: %w", jobs[i].Label, jobs[i].Bench.Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// each calls f(0), ..., f(n-1) on the worker pool, at most Parallelism()
// at once, and returns the first error in index order once all are done.
// f must not use the pool itself: a call holds its slot until it returns.
func (e *Exec) each(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		e.slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-e.slots; wg.Done() }()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runJob serves one job from the cache, computing it on the first
// sighting of its key. It runs under a pool slot (RunJobs), so a duplicate
// waiting for its in-flight twin holds one too; the twin needs no other.
func (e *Exec) runJob(p Params, j Job) (Result, error) {
	key := jobKey(p, j)
	e.mu.Lock()
	ent := e.entries[key]
	if ent == nil {
		ent = new(cacheEntry)
		e.entries[key] = ent
	}
	e.mu.Unlock()

	computed := false
	ent.once.Do(func() {
		computed = true
		start := time.Now()
		ent.res, ent.err = runConfig(p, j)
		e.observe(j, time.Since(start), false)
	})
	if !computed {
		e.observe(j, 0, true)
	}
	return ent.res, ent.err
}

func (e *Exec) observe(j Job, wall time.Duration, hit bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.Jobs++
	if hit {
		e.stats.CacheHits++
	} else {
		e.stats.CacheMisses++
		e.stats.SimWall += wall
	}
	e.stats.PerJob = append(e.stats.PerJob, JobMetric{
		Label: j.Label, Bench: j.Bench.Name, Seed: j.GenSeed, Wall: wall, CacheHit: hit,
	})
}

// suite is one configuration family to run across the benchmark suite.
// cfgFor receives the benchmark index and the derived config seed.
type suite struct {
	label  string
	cfgFor func(i int, seed uint64) (ringoram.Config, error)
}

// suiteJobs builds the job list for one configuration family: one job per
// benchmark, with the config and trace seeds derived per JobSeed. Configs
// are built exactly once, here, so callers can read static properties
// (e.g. SpaceBytesStatic) off the returned jobs without rebuilding.
func suiteJobs(p Params, s suite) ([]Job, error) {
	jobs := make([]Job, 0, len(p.Benchmarks))
	for i, b := range p.Benchmarks {
		cfg, err := s.cfgFor(i, JobSeed(p.Seed, "cfg/"+s.label, b.Name, i))
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", s.label, b.Name, err)
		}
		jobs = append(jobs, Job{
			Label:   s.label,
			Bench:   b,
			Config:  cfg,
			GenSeed: GeneratorSeed(p.Seed, b.Name, i),
		})
	}
	return jobs, nil
}

// runSuites flattens several configuration families into one job matrix,
// executes it on the experiment's Exec, and slices results and jobs back
// out per family, in declaration order.
func runSuites(p Params, suites []suite) (results [][]Result, jobs [][]Job, err error) {
	all := make([]Job, 0, len(suites)*len(p.Benchmarks))
	for _, s := range suites {
		js, err := suiteJobs(p, s)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, js...)
	}
	rs, err := p.exec().RunJobs(p, all)
	if err != nil {
		return nil, nil, err
	}
	nb := len(p.Benchmarks)
	results = make([][]Result, len(suites))
	jobs = make([][]Job, len(suites))
	for i := range suites {
		results[i] = rs[i*nb : (i+1)*nb]
		jobs[i] = all[i*nb : (i+1)*nb]
	}
	return results, jobs, nil
}

// runSuite runs a single configuration family across every benchmark.
func runSuite(p Params, label string, cfgFor func(i int, seed uint64) (ringoram.Config, error)) ([]Result, error) {
	rs, _, err := runSuites(p, []suite{{label, cfgFor}})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}
