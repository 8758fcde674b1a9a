// Tracereplay: drive the full evaluation stack — trace generator, cache
// hierarchy, ORAM controller, and DRAM timing model — the way the paper's
// methodology does, and compare AB-ORAM against the Baseline on the same
// request stream.
//
// The example also demonstrates the cache front end: raw loads/stores are
// filtered through the Table III L1/L2/LLC hierarchy, and only LLC misses
// and write-backs reach the ORAM, exactly as with the paper's Pin traces.
//
//	go run ./examples/tracereplay
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/trace"
)

// run replays cpuAccesses of the named benchmark through the cache front
// end and both scheme stacks at the given tree size, writing progress and
// the final comparison to w.
func run(w io.Writer, levels, cpuAccesses int, benchName string) error {
	bench, err := trace.Find(benchName)
	if err != nil {
		return err
	}

	// Stage 1: synthesize a CPU-level access stream and filter it through
	// the cache hierarchy to produce the ORAM-bound miss stream.
	gen, err := trace.NewGenerator(bench, 11)
	if err != nil {
		return err
	}
	hier := cache.DefaultHierarchy()
	var missTrace []trace.Request
	var reqs []cache.MemoryRequest
	for i := 0; i < cpuAccesses; i++ {
		r := gen.Next()
		reqs = hier.Access(r.Addr, r.Write, reqs[:0])
		for _, m := range reqs {
			missTrace = append(missTrace, trace.Request{Gap: r.Gap, Addr: m.Addr, Write: m.Write})
		}
	}
	fmt.Fprintf(w, "cache front end: %d CPU accesses -> %d memory requests (LLC miss rate %.1f%%)\n",
		cpuAccesses, len(missTrace), hier.LLC.MissRate()*100)
	if len(missTrace) == 0 {
		return fmt.Errorf("no LLC misses in %d accesses", cpuAccesses)
	}

	// Stage 2: replay the miss stream through each scheme's full stack.
	warm := len(missTrace) / 3
	type row struct {
		scheme core.Scheme
		cpa    float64
		space  uint64
	}
	var rows []row
	for _, scheme := range []core.Scheme{core.SchemeBaseline, core.SchemeAB} {
		o, _, err := core.New(scheme, core.DefaultOptions(levels, 3))
		if err != nil {
			return err
		}
		s, err := sim.New(o, dram.DDR3_1600(), sim.DefaultCPU())
		if err != nil {
			return err
		}
		replayed := 0
		next := func() (trace.Request, error) {
			replayed++
			return missTrace[replayed-1], nil
		}
		res, err := s.Measure(next, warm, len(missTrace)-warm)
		if err != nil {
			return err
		}
		rows = append(rows, row{scheme, res.CyclesPerAccess(), res.SpaceB})
		fmt.Fprintf(w, "%-9s %6.0f cycles/access, %5.1f MiB tree, row-buffer hit %.1f%%, stash peak %d\n",
			scheme, res.CyclesPerAccess(), float64(res.SpaceB)/(1<<20), res.Mem.RowHitRate()*100, res.StashPeak)
	}

	base, ab := rows[0], rows[1]
	fmt.Fprintf(w, "\nAB-ORAM vs Baseline: %.1f%% of the space at %.1f%% of the time\n",
		100*float64(ab.space)/float64(base.space), 100*ab.cpa/base.cpa)
	return nil
}

func main() {
	if err := run(os.Stdout, 12, 200000, "mcf"); err != nil {
		log.Fatal(err)
	}
}
