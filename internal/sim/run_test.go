package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ringoram"
	"repro/internal/trace"
)

// refStep and refRun are Simulator.Step and its request loop as they stood
// before run became a two-stage pipeline: each request runs through the
// ORAM and then through the DRAM model, one after the other, on the
// calling goroutine. They are the reference model TestRunMatchesReference
// and TestRunError drive run against. Do not optimise them; their only job
// is to stay obviously equal to the original.
func refStep(s *Simulator, req trace.Request) error {
	// Non-memory instructions retire at fetch width in CPU cycles.
	s.now += req.Gap / (uint64(s.cpu.FetchWidth) * s.cpu.CPUPerDRAM)
	blk := int64(req.Block() % uint64(s.oram.Config().NumBlocks))
	ops, err := s.oram.Access(blk)
	if err != nil {
		return err
	}
	for _, op := range ops {
		done := s.mem.Batch(s.now, op.Reads, op.Writes)
		s.breakdown[op.Kind] += done - s.now
		s.now = done
	}
	s.accesses++
	return nil
}

func refRun(s *Simulator, next func() (trace.Request, error), n int) error {
	for i := 0; i < n; i++ {
		req, err := next()
		if err != nil {
			return err
		}
		if err := refStep(s, req); err != nil {
			return err
		}
	}
	return nil
}

// runLengths covers an empty run, one access, and both sides of the
// pipeline's chunk edge, plus a run of many chunks.
var runLengths = []int{0, 1, chunkAccesses - 1, chunkAccesses, chunkAccesses + 1, 1000}

// newSimPair builds two identical simulators of one scheme at the quick
// preset's geometry; data, when non-nil, makes each ORAM's data plane.
func newSimPair(t *testing.T, scheme core.Scheme, data func(blockB int) ringoram.DataPlane) [2]*Simulator {
	t.Helper()
	p := Quick()
	var pair [2]*Simulator
	for i := range pair {
		cfg, _, err := core.Build(scheme, p.options(0))
		if err != nil {
			t.Fatal(err)
		}
		if data != nil {
			cfg.Data = data(cfg.BlockB)
		}
		o, err := ringoram.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pair[i], err = New(o, p.DRAM, p.CPU); err != nil {
			t.Fatal(err)
		}
	}
	return pair
}

// countingSource is a generator-backed request source that counts how
// often it was called.
func countingSource(t *testing.T, calls *int) func() (trace.Request, error) {
	t.Helper()
	gen, err := trace.NewGenerator(Quick().Benchmarks[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	return func() (trace.Request, error) {
		*calls++
		return gen.Next(), nil
	}
}

// TestRunMatchesReference pins the pipelined run to the sequential loop:
// for every scheme and for warm-up and measured runs of each length, the
// simulated time after each run and the window's Result (cycles,
// breakdown, DRAM stats, ORAM stats, stash peak) are identical.
func TestRunMatchesReference(t *testing.T) {
	for _, scheme := range core.Schemes() {
		for i, warm := range runLengths {
			measure := runLengths[(i+1)%len(runLengths)]
			t.Run(fmt.Sprintf("%s/%d+%d", scheme, warm, measure), func(t *testing.T) {
				sims := newSimPair(t, scheme, nil)
				var calls [2]int
				got, want := sims[0], sims[1]
				next, refNext := countingSource(t, &calls[0]), countingSource(t, &calls[1])
				for _, n := range []int{warm, measure} {
					if err := got.run(next, n); err != nil {
						t.Fatal(err)
					}
					if err := refRun(want, refNext, n); err != nil {
						t.Fatal(err)
					}
					if got.now != want.now || calls[0] != calls[1] {
						t.Fatalf("after %d accesses: now %d, %d requests drawn; reference %d, %d",
							n, got.now, calls[0], want.now, calls[1])
					}
					if n == warm {
						got.startMeasurement()
						want.startMeasurement()
					}
				}
				if g, w := got.finish(), want.finish(); !reflect.DeepEqual(g, w) {
					t.Fatalf("results differ\n got %+v\nwant %+v", g, w)
				}
			})
		}
	}
}

var errInjected = errors.New("injected data-plane failure")

// failingPlane is an in-memory DataPlane whose failAt-th call fails.
type failingPlane struct {
	blockB        int
	calls, failAt int
	mem           map[uint64][]byte
}

func (f *failingPlane) call() error {
	f.calls++
	if f.calls == f.failAt {
		return errInjected
	}
	return nil
}

func (f *failingPlane) ReadBlock(addr uint64) ([]byte, error) {
	if err := f.call(); err != nil {
		return nil, err
	}
	if d, ok := f.mem[addr]; ok {
		return append([]byte(nil), d...), nil
	}
	return make([]byte, f.blockB), nil
}

func (f *failingPlane) WriteBlock(addr uint64, data []byte) error {
	if err := f.call(); err != nil {
		return err
	}
	f.mem[addr] = append([]byte(nil), data...)
	return nil
}

// waitGoroutines waits for the goroutine count to fall back to want; a
// goroutine that has closed its last channel may still be exiting.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after run, %d before", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunError stops a run with an ORAM error (a data plane failing on its
// k-th call) and with a request-source error. Simulator.run must return
// the error, price exactly the accesses the sequential loop priced, draw
// as many requests, and leave no goroutine behind.
func TestRunError(t *testing.T) {
	const n = 1000
	for _, failAt := range []int{1, 7, 400, 3000, 20000} {
		t.Run(fmt.Sprintf("dataplane/%d", failAt), func(t *testing.T) {
			sims := newSimPair(t, core.SchemeAB, func(blockB int) ringoram.DataPlane {
				return &failingPlane{blockB: blockB, failAt: failAt, mem: map[uint64][]byte{}}
			})
			var calls [2]int
			before := runtime.NumGoroutine()
			err := sims[0].run(countingSource(t, &calls[0]), n)
			waitGoroutines(t, before)
			refErr := refRun(sims[1], countingSource(t, &calls[1]), n)
			if !errors.Is(err, errInjected) || !errors.Is(refErr, errInjected) {
				t.Fatalf("run returned %v, reference %v; want %v", err, refErr, errInjected)
			}
			checkStopped(t, sims, calls)
		})
	}
	for _, failAt := range []int{1, chunkAccesses, chunkAccesses + 1, 300} {
		t.Run(fmt.Sprintf("source/%d", failAt), func(t *testing.T) {
			sims := newSimPair(t, core.SchemeBaseline, nil)
			var calls [2]int
			source := func(calls *int) func() (trace.Request, error) {
				next := countingSource(t, calls)
				return func() (trace.Request, error) {
					if *calls+1 == failAt {
						*calls++
						return trace.Request{}, errInjected
					}
					return next()
				}
			}
			before := runtime.NumGoroutine()
			err := sims[0].run(source(&calls[0]), n)
			waitGoroutines(t, before)
			refErr := refRun(sims[1], source(&calls[1]), n)
			if !errors.Is(err, errInjected) || !errors.Is(refErr, errInjected) {
				t.Fatalf("run returned %v, reference %v; want %v", err, refErr, errInjected)
			}
			checkStopped(t, sims, calls)
		})
	}
}

// checkStopped compares a stopped pipelined run with the reference.
func checkStopped(t *testing.T, sims [2]*Simulator, calls [2]int) {
	t.Helper()
	got, want := sims[0], sims[1]
	if got.accesses != want.accesses || got.now != want.now || calls[0] != calls[1] {
		t.Fatalf("priced %d accesses to cycle %d drawing %d requests; reference %d, %d, %d",
			got.accesses, got.now, calls[0], want.accesses, want.now, calls[1])
	}
	if got.mem.Stats() != want.mem.Stats() {
		t.Fatalf("DRAM stats differ\n got %+v\nwant %+v", got.mem.Stats(), want.mem.Stats())
	}
}
