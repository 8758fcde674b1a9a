package sim

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ringoram"
	"repro/internal/trace"
)

// TestGeneratorSeedsPairwiseDistinct is the regression test for the old
// `p.Seed + len(bench.Name)` derivation, under which every equal-length
// benchmark name (mcf/lbm/gcc, xal/x264...) replayed the same trace
// stream. Every benchmark in both suites must get its own generator seed.
func TestGeneratorSeedsPairwiseDistinct(t *testing.T) {
	benches := append(trace.SPEC17(), trace.PARSEC()...)
	for _, seed := range []uint64{0, 1, 42} {
		seen := map[uint64]string{}
		for _, b := range benches {
			got := GeneratorSeed(seed, b.Name, 0)
			if prev, dup := seen[got]; dup {
				t.Errorf("seed %d: %s and %s share generator seed %d", seed, prev, b.Name, got)
			}
			seen[got] = b.Name
		}
	}
	// The concrete trio from the bug report: all three names have length 3.
	mcf := GeneratorSeed(1, "mcf", 0)
	lbm := GeneratorSeed(1, "lbm", 0)
	gcc := GeneratorSeed(1, "gcc", 0)
	if mcf == lbm || mcf == gcc || lbm == gcc {
		t.Fatalf("equal-length names still collide: mcf=%d lbm=%d gcc=%d", mcf, lbm, gcc)
	}
}

func TestJobSeedComponentsMatter(t *testing.T) {
	base := JobSeed(1, "trace", "mcf", 0)
	if JobSeed(2, "trace", "mcf", 0) == base {
		t.Error("experiment seed ignored")
	}
	if JobSeed(1, "cfg/AB", "mcf", 0) == base {
		t.Error("role ignored")
	}
	if JobSeed(1, "trace", "mcf", 1) == base {
		t.Error("run index ignored")
	}
	if JobSeed(1, "trace", "mcf", 0) != base {
		t.Error("JobSeed not deterministic")
	}
}

// baselineJobs builds the Baseline-scheme job matrix for testing.
func baselineJobs(t *testing.T, p Params) []Job {
	t.Helper()
	jobs, err := suiteJobs(p, schemeSuite(p, core.SchemeBaseline))
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func TestExecCacheReuse(t *testing.T) {
	p := tinyParams()
	e := NewExec(4)
	p.Exec = e
	jobs := baselineJobs(t, p)

	first, err := e.RunJobs(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.RunJobs(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached results differ from computed results")
	}
	st := e.Stats()
	n := uint64(len(jobs))
	if st.Jobs != 2*n || st.CacheMisses != n || st.CacheHits != n {
		t.Fatalf("stats jobs=%d misses=%d hits=%d, want %d/%d/%d",
			st.Jobs, st.CacheMisses, st.CacheHits, 2*n, n, n)
	}
	if st.Parallelism != 4 {
		t.Fatalf("parallelism %d, want 4", st.Parallelism)
	}
	if len(st.PerJob) != int(2*n) {
		t.Fatalf("per-job metrics %d, want %d", len(st.PerJob), 2*n)
	}
	for _, m := range st.PerJob {
		if !m.CacheHit && m.Wall <= 0 {
			t.Errorf("computed job %s/%s has no wall time", m.Label, m.Bench)
		}
	}
}

// TestExecEach pins the worker pool every concurrent experiment runs on:
// the first error in index order wins even when a later index fails
// first, no more than Parallelism() calls run at once, and a batch that
// holds one job twice computes it once and serves the twin from the
// cache, on a one-slot pool too (the waiting twin holds the only slot
// the computing one no longer needs).
func TestExecEach(t *testing.T) {
	early, late := errors.New("index 1"), errors.New("index 3")
	failed := make(chan struct{})
	err := NewExec(2).each(5, func(i int) error {
		switch i {
		case 1:
			<-failed
			return early
		case 3:
			close(failed)
			return late
		}
		return nil
	})
	if err != early {
		t.Fatalf("each returned %v, want the lowest index's error %v", err, early)
	}

	e := NewExec(3)
	var running, peak atomic.Int32
	if err := e.each(40, func(int) error {
		n := running.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		running.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > int32(e.Parallelism()) {
		t.Fatalf("%d calls ran at once on a pool of %d", got, e.Parallelism())
	}

	for _, parallel := range []int{1, 2} {
		p := tinyParams()
		p.Warmup, p.Measure = 100, 200
		p.Exec = NewExec(parallel)
		job := baselineJobs(t, p)[0]
		rs, err := p.Exec.RunJobs(p, []Job{job, job})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rs[0], rs[1]) {
			t.Fatalf("parallel %d: the twin's result differs from the computed one", parallel)
		}
		if st := p.Exec.Stats(); st.CacheMisses != 1 || st.CacheHits != 1 {
			t.Fatalf("parallel %d: %d misses and %d hits, want 1 and 1", parallel, st.CacheMisses, st.CacheHits)
		}
	}
}

// TestCacheDiscriminates ensures the key covers the knobs that change a
// result: a different measurement window or generator seed must miss.
func TestCacheDiscriminates(t *testing.T) {
	p := tinyParams()
	e := NewExec(2)
	p.Exec = e
	jobs := baselineJobs(t, p)
	if _, err := e.RunJobs(p, jobs); err != nil {
		t.Fatal(err)
	}

	shorter := p
	shorter.Measure = p.Measure / 2
	if _, err := e.RunJobs(shorter, jobs); err != nil {
		t.Fatal(err)
	}
	reseeded := make([]Job, len(jobs))
	copy(reseeded, jobs)
	for i := range reseeded {
		reseeded[i].GenSeed++
	}
	if _, err := e.RunJobs(p, reseeded); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.CacheHits != 0 {
		t.Fatalf("distinct jobs hit the cache: %+v", st)
	}
}

// TestParallelMatchesSequential locks in the orchestrator's contract:
// result assembly is in job-declaration order, so any parallelism level
// produces identical results — and identical rendered tables.
func TestParallelMatchesSequential(t *testing.T) {
	render := func(parallel int) string {
		p := tinyParams()
		p.Exec = NewExec(parallel)
		var out string
		for _, id := range []string{"fig8", "fig11", "fig14", "fig2", "fig10", "stash", "xor"} {
			tables, err := Registry()[id](p)
			if err != nil {
				t.Fatalf("%s at parallel=%d: %v", id, parallel, err)
			}
			for _, tab := range tables {
				out += tab.String() + "\n"
			}
		}
		return out
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatal("parallel output differs from sequential output")
	}
}

// TestCrossExperimentCacheHits verifies the `-exp all` reuse path: with a
// shared Exec, the second experiment over the same scheme matrix is
// served entirely from the cache.
func TestCrossExperimentCacheHits(t *testing.T) {
	p := tinyParams()
	p.Exec = NewExec(4)
	if _, err := RunFig8(p); err != nil {
		t.Fatal(err)
	}
	missesAfterFig8 := p.Exec.Stats().CacheMisses
	if _, err := RunFig9(p); err != nil {
		t.Fatal(err)
	}
	st := p.Exec.Stats()
	if st.CacheMisses != missesAfterFig8 {
		t.Fatalf("fig9 recomputed %d jobs fig8 already ran", st.CacheMisses-missesAfterFig8)
	}
	if st.CacheHits == 0 {
		t.Fatal("fig9 produced no cache hits")
	}
}

// TestSuiteJobsSeedContract pins the seed wiring: trace seeds are
// label-independent (every scheme replays the same stream, the paper's
// paired-comparison methodology) while config seeds are label-dependent.
func TestSuiteJobsSeedContract(t *testing.T) {
	p := tinyParams()
	mk := func(label string) []Job {
		jobs, err := suiteJobs(p, suite{label, func(i int, seed uint64) (ringoram.Config, error) {
			cfg := ringoram.CompactedBaseline(p.Levels, p.Treetop, seed)
			return cfg, nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	a, b := mk("A"), mk("B")
	for i := range a {
		if a[i].GenSeed != b[i].GenSeed {
			t.Errorf("bench %s: trace seed depends on family label", a[i].Bench.Name)
		}
		if a[i].Config.Seed == b[i].Config.Seed {
			t.Errorf("bench %s: config seed ignores family label", a[i].Bench.Name)
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].GenSeed == a[0].GenSeed {
			t.Errorf("benchmarks %s and %s share a trace seed", a[0].Bench.Name, a[i].Bench.Name)
		}
	}
}
