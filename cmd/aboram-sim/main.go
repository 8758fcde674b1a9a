// Command aboram-sim runs a single ORAM configuration against a single
// benchmark through the full timing stack and prints a result summary —
// the one-off counterpart to cmd/abench's batch experiments.
//
// Usage:
//
//	aboram-sim -scheme AB -bench mcf -levels 14 -accesses 50000
//	aboram-sim -scheme Baseline -trace lbm.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memop"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aboram-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("aboram-sim", flag.ContinueOnError)
	scheme := fs.String("scheme", "AB", "scheme: Baseline | IR | DR | NS | AB")
	bench := fs.String("bench", "mcf", "benchmark name (see cmd/abench -exp table4); unused with -trace")
	levels := fs.Int("levels", 14, "ORAM tree levels")
	warmup := fs.Int("warmup", 5000, "warm-up accesses")
	accesses := fs.Int("accesses", 20000, "measured accesses")
	seed := fs.Uint64("seed", 1, "random seed")
	tracePath := fs.String("trace", "", "replay a recorded trace file instead of generating one")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The run is labelled with its request source: the benchmark, or the
	// trace file, whatever workload recorded it.
	var next func() (trace.Request, error)
	label := filepath.Base(*tracePath)
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		r := trace.NewReader(f)
		read := 0
		next = func() (trace.Request, error) {
			req, err := r.Read()
			if err == io.EOF {
				return req, fmt.Errorf("trace exhausted after %d requests", read)
			}
			read++
			return req, err
		}
	} else {
		b, err := trace.Find(*bench)
		if err != nil {
			return err
		}
		gen, err := trace.NewGenerator(b, *seed)
		if err != nil {
			return err
		}
		next, label = sim.FromGenerator(gen), b.Name
	}

	opt := core.DefaultOptions(*levels, *seed)
	o, dq, err := core.New(core.Scheme(*scheme), opt)
	if err != nil {
		return err
	}
	s, err := sim.New(o, dram.DDR3_1600(), sim.DefaultCPU())
	if err != nil {
		return err
	}
	res, err := s.Measure(next, *warmup, *accesses)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "scheme            %s on %s (%d levels, seed %d)\n", *scheme, label, *levels, *seed)
	fmt.Fprintf(out, "tree space        %.1f MiB (utilization %.1f%%)\n",
		float64(res.SpaceB)/(1<<20), o.Utilization()*100)
	fmt.Fprintf(out, "accesses          %d measured (%d warm-up)\n", res.Accesses, *warmup)
	fmt.Fprintf(out, "cycles/access     %.0f\n", res.CyclesPerAccess())
	fmt.Fprintf(out, "bandwidth         %.2f bytes/cycle\n", res.BandwidthBytesPerCycle())
	fmt.Fprintf(out, "row-buffer hits   %.1f%%\n", res.Mem.RowHitRate()*100)
	fmt.Fprintf(out, "stash peak        %d (overflows %d)\n", res.StashPeak, res.Overflows)
	st := res.ORAM
	fmt.Fprintf(out, "ops               evict=%d earlyReshuffle=%d dummy=%d green=%d\n",
		st.EvictPaths, st.EarlyReshuffles, st.DummyAccesses, st.GreenBlocks)
	if st.ExtendAttempts > 0 {
		fmt.Fprintf(out, "S extension       %.1f%% of %d attempts (stale claims %d)\n",
			100*float64(st.ExtendGranted)/float64(st.ExtendAttempts), st.ExtendAttempts, st.StaleClaims)
	}
	if dq != nil {
		ds := dq.Stats()
		fmt.Fprintf(out, "deadq             accepted=%d claims=%d releases=%d\n", ds.Accepted, ds.Claims, ds.Releases)
	}
	var total uint64
	for _, v := range res.Breakdown {
		total += v
	}
	if total > 0 {
		fmt.Fprintf(out, "time breakdown    ")
		for _, k := range memop.Kinds() {
			if v := res.Breakdown[k]; v > 0 {
				fmt.Fprintf(out, "%s=%.1f%% ", k, 100*float64(v)/float64(total))
			}
		}
		fmt.Fprintln(out)
	}
	return nil
}
