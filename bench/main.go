// Command bench is the repository's benchmark: four named workloads, nine
// end-to-end metrics measured with tracing off, and a per-layer ledger
// from the wire to fsync measured by a separate traced run. See README.md
// in this directory and BENCHMARK.json at the repository root.
//
//	bash bench/run.sh --workload mem-read-uniform --seed 7 --seconds 10 --trace 0
//	cd bench && go run . -seed 7                    # every workload, end to end
//	cd bench && go run . -seed 7 -trace 1 -workload durable-write-uniform
//	cd bench && go run . -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all four)")
	seed := fs.Uint64("seed", 1, "workload seed: drives block choice, op mix and payload bytes only")
	seconds := fs.Float64("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics (traced in-process stack + probes)")
	runs := fs.Int("runs", 1, "repeat every workload this many times with seeds seed, seed+1, ... (gives -compare a spread)")
	scratch := fs.String("scratch", "", "directory for build outputs and data dirs (default: <root>/.bench_build)")
	compare := fs.Bool("compare", false, "compare two result documents: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants two result documents")
		}
		return compareDocs(spec, fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *scratch == "" {
		*scratch = filepath.Join(root, ".bench_build")
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		return err
	}
	run, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(run)
	// A terminating signal must not leave a daemon or a data directory
	// behind: the daemon dies with this process (Pdeathsig), the scratch
	// directory is removed here.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(run)
		os.Exit(130)
	}()

	todo := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		todo = []workload{w}
	}
	var bin string
	for _, w := range todo {
		if w.serving {
			if bin, err = buildDaemon(root, *scratch); err != nil {
				return err
			}
			break
		}
	}

	doc := newResultDoc(root, run, *seed, *trace)
	var last *runRecord
	for _, w := range todo {
		wr := workloadResult{Name: w.name}
		for i := 0; i < *runs; i++ {
			rec := runWorkload(spec, w, run, *seed+uint64(i), defaultPlan(*seconds, bin), *trace == 1)
			printRecord(w.name, rec)
			wr.Runs = append(wr.Runs, rec)
			last = rec
		}
		doc.Workloads = append(doc.Workloads, wr)
	}
	path, err := doc.write(root)
	if err != nil {
		return err
	}
	fmt.Printf("result document: %s\n", path)

	// The contract's last line: the result of the (last) run.
	line, err := json.Marshal(contractLine(last))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	for _, wr := range doc.Workloads {
		for _, r := range wr.Runs {
			if r.Error != "" {
				return fmt.Errorf("%s: %s", wr.Name, r.Error)
			}
		}
	}
	return nil
}

// runRecord is one run of one workload in the result document.
type runRecord struct {
	Seed      uint64    `json:"seed"`
	WallS     float64   `json:"wall_s"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"ops_attempted"`
	Failed    int       `json:"ops_failed"`
	Unsteady  bool      `json:"unsteady"`
	Metrics   metricSet `json:"metrics"`              // what the contract line carries
	Extra     metricSet `json:"layer,omitempty"`      // per-layer values an end-to-end run saw on the way
	Notes     []string  `json:"notes,omitempty"`      // sample counts, crash-check outcome, hashes
	Error     string    `json:"error,omitempty"`      // the run did not complete
	DaemonLog string    `json:"daemon_log,omitempty"` // kept on failure only
}

// runWorkload runs one workload once and conforms its metrics to the spec.
func runWorkload(spec *benchSpec, w workload, scratch string, seed uint64, pl plan, traced bool) *runRecord {
	t0 := time.Now()
	o, err := measureWorkload(w, scratch, seed, pl, traced)
	rec := &runRecord{Seed: seed, WallS: time.Since(t0).Seconds()}
	if o != nil {
		rec.Attempted, rec.Failed, rec.Unsteady = o.attempted, o.failed, o.unsteady
		rec.Notes, rec.DaemonLog = o.notes, o.log
	}
	if err == nil {
		want, got := spec.EndToEnd, o.e2e
		if traced {
			want, got = spec.PerLayer, o.layer
		} else {
			rec.Extra = o.layer
		}
		rec.Metrics, err = got.conform(want)
	}
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	return rec
}

// plan sizes one run. defaultPlan is what the benchmark measures; the
// self-tests shrink everything to run in a second.
type plan struct {
	seconds    float64 // measured window of the workload's main part
	libSeconds float64 // measured window of sim-fig8's bare-library slice
	setups     int     // set-ups per run; setup_s is their median
	warmup     int     // unmeasured ops of the workload's own mix before a window
	segmentOps int     // ops per traced (and per untraced) segment
	probeOps   int     // calls each probe times
	slice      sim.Params
	full       sim.Params
	backend    func(w workload, dataDir string) backend
}

func defaultPlan(seconds float64, daemonBin string) plan {
	return plan{
		seconds:    seconds,
		libSeconds: 5,
		setups:     3,
		warmup:     5000,
		segmentOps: 500,
		probeOps:   10000,
		slice:      sliceParams(),
		full:       simParams(),
		backend:    func(w workload, dir string) backend { return newDaemon(daemonBin, w, dir) },
	}
}

// measureWorkload is one run: the end-to-end part always, the traced
// stack and the probes on top when traced.
func measureWorkload(w workload, scratch string, seed uint64, pl plan, traced bool) (*outcome, error) {
	var o *outcome
	simP := pl.slice
	if w.serving {
		var err error
		if o, err = runServing(w, pl.backend(w, filepath.Join(scratch, "data")), seed, pl); err != nil {
			return o, err
		}
		slice, err := runSim(simP, 0, 1)
		if err != nil {
			return o, err
		}
		simMetrics(o, slice)
	} else {
		o = newOutcome()
		simP = pl.full
		var setupS []float64
		for i := 0; i < pl.setups; i++ {
			libSec := 0.0
			if i == pl.setups-1 {
				libSec = pl.libSeconds // the last set-up is the one measured
			}
			ts, err := simSetup(simP)
			if err != nil {
				return o, err
			}
			tl, err := runLibrary(o, w, seed, libSec, pl.warmup)
			if err != nil {
				return o, err
			}
			setupS = append(setupS, (ts + tl).Seconds())
		}
		o.e2e.timing("setup_s", median(setupS), len(setupS))
		full, err := runSim(simP, pl.seconds, 1)
		if err != nil {
			return o, err
		}
		simMetrics(o, full)
		for _, n := range []string{"aboramd.cpu_s_per_kop", "aboramd.peak_rss_mb", "aboramd.recovery_s", "durable.disk_bytes_per_user_byte"} {
			o.layer.set(n, 0) // no daemon, no data directory
		}
	}
	if !traced {
		return o, nil
	}
	pr, err := runProbes(w, seed, pl.probeOps, o)
	if err != nil {
		return o, err
	}
	var td *tracedData
	if w.serving {
		if td, err = runTraced(w, seed, scratch, pl, o); err != nil {
			return o, err
		}
	}
	tracedMetrics(o, td, pr)
	return o, simProbes(o, simP)
}

func printRecord(name string, r *runRecord) {
	fmt.Printf("== %s (seed %d, %.1fs wall)", name, r.Seed, r.WallS)
	switch {
	case r.Error != "":
		fmt.Printf(" ERROR: %s\n", r.Error)
	case r.Unsteady:
		fmt.Printf(" UNSTEADY\n")
	default:
		fmt.Println()
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("  %-38s %16.6g %-8s", n, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Printf(" n=%d", m.Samples)
		}
		fmt.Println()
	}
	fmt.Printf("  ops_attempted %d, ops_failed %d\n", r.Attempted, r.Failed)
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	if r.DaemonLog != "" {
		fmt.Printf("  daemon log:\n%s\n", r.DaemonLog)
	}
}

// contractLine is the object the driver reads off the last line of stdout.
func contractLine(r *runRecord) map[string]any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	for n, m := range r.Metrics {
		ms[n] = mv{m.Value, m.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return map[string]any{"correct": r.Correct, "attempted": attempted, "failed": r.Failed, "metrics": ms}
}

// resultDoc is the JSON document every invocation writes under
// bench/results/.
type resultDoc struct {
	UTC        string           `json:"utc"`
	Seed       uint64           `json:"seed"`
	Trace      int              `json:"trace"`
	Commit     string           `json:"git_commit"`
	Dirty      bool             `json:"git_dirty"`
	GoVersion  string           `json:"go_version"`
	NProc      int              `json:"nproc"`
	GoMaxProcs int              `json:"gomaxprocs_generator"`
	DaemonProc int              `json:"gomaxprocs_daemon"` // the daemon inherits the environment: same default
	Clients    int              `json:"clients"`
	Levels     int              `json:"served_levels"`
	ScratchFS  string           `json:"scratch_fs"`
	Workloads  []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name string       `json:"name"`
	Runs []*runRecord `json:"runs"`
}

func newResultDoc(root, scratch string, seed uint64, trace int) *resultDoc {
	d := &resultDoc{
		UTC:        time.Now().UTC().Format("20060102T150405Z"),
		Seed:       seed,
		Trace:      trace,
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		DaemonProc: runtime.GOMAXPROCS(0),
		Clients:    numClients(),
		Levels:     servedLevels,
		ScratchFS:  fsType(scratch),
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if c, err := git("rev-parse", "--short=12", "HEAD"); err == nil && c != "" {
		d.Commit = c
		if st, err := git("status", "--porcelain"); err == nil {
			d.Dirty = st != ""
		}
	}
	return d
}

func (d *resultDoc) write(root string) (string, error) {
	dir := filepath.Join(root, "bench", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d.json", d.UTC, d.Commit, os.Getpid()))
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// fsType names the filesystem under dir, so a result says what its fsync
// latencies were measured on.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	known := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
	}
	if n, ok := known[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
