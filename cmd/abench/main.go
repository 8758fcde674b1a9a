// Command abench regenerates the tables and figures of the AB-ORAM paper.
//
// Usage:
//
//	abench -exp fig8                 # one experiment, quick preset
//	abench -exp all -preset full     # everything, flagship preset
//	abench -list                     # enumerate experiment IDs
//	abench -exp fig8 -csv out/       # also write CSV series
//	abench -exp all -json run.json   # tables + run metadata as JSON
//	abench -exp all -parallel 1      # sequential (output is byte-identical)
//
// Each experiment prints one or more aligned text tables annotated with
// the paper's reported values for comparison. All experiments share one
// orchestrator (internal/sim.Exec): a bounded worker pool with a keyed
// run-cache, so `-exp all` computes each (config, benchmark, seed) job
// once and reuses it across experiments. Tables are byte-identical at any
// -parallel setting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/report"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "abench:", err)
		os.Exit(1)
	}
}

// jsonExperiment is one experiment's entry in the -json document.
type jsonExperiment struct {
	ID          string            `json:"id"`
	WallSeconds float64           `json:"wallSeconds"`
	Tables      []json.RawMessage `json:"tables"`
}

// jsonRun is the top-level -json document: every table plus the run
// metadata needed to reproduce and audit it.
type jsonRun struct {
	Preset      string           `json:"preset"`
	Levels      int              `json:"levels"`
	Treetop     int              `json:"treetop"`
	Warmup      int              `json:"warmup"`
	Measure     int              `json:"measure"`
	Seed        uint64           `json:"seed"`
	Parallel    int              `json:"parallel"`
	Benchmarks  []string         `json:"benchmarks"`
	Experiments []jsonExperiment `json:"experiments"`
	Cache       sim.ExecStats    `json:"cache"`
	Jobs        []sim.JobMetric  `json:"jobs"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("abench", flag.ContinueOnError)
	exp := fs.String("exp", "", "experiment ID (e.g. fig8) or 'all'")
	preset := fs.String("preset", "quick", "parameter preset: quick | full")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	levels := fs.Int("levels", 0, "override ORAM tree levels")
	warmup := fs.Int("warmup", 0, "override warm-up accesses")
	measure := fs.Int("measure", 0, "override measured accesses")
	seed := fs.Uint64("seed", 0, "override experiment seed")
	parallel := fs.Int("parallel", 0, "max concurrent simulation jobs (0 = GOMAXPROCS)")
	csvDir := fs.String("csv", "", "directory to write CSV copies of every table")
	jsonPath := fs.String("json", "", `write tables + run metadata as JSON to this file ("-" = stdout, suppressing text output)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Flags set explicitly on the command line, so a deliberate zero (e.g.
	// -seed 0) is honored instead of being mistaken for "unset".
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if *list {
		for _, id := range sim.ExperimentIDs() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}
	if *exp == "" {
		fs.Usage()
		return fmt.Errorf("missing -exp (or -list)")
	}

	var p sim.Params
	switch *preset {
	case "quick":
		p = sim.Quick()
	case "full":
		p = sim.Full()
	default:
		return fmt.Errorf("unknown preset %q", *preset)
	}
	if *levels > 0 {
		p.Levels = *levels
		p.Treetop = *levels * 10 / 24
	}
	if *warmup > 0 {
		p.Warmup = *warmup
	}
	if *measure > 0 {
		p.Measure = *measure
	}
	if explicit["seed"] {
		p.Seed = *seed
	}
	p.Parallel = *parallel
	// One orchestrator for the whole invocation: `-exp all` reuses cached
	// runs across experiments.
	p.Exec = sim.NewExec(*parallel)

	textOut := stdout
	jsonOut := io.Writer(nil)
	switch {
	case *jsonPath == "-":
		jsonOut = stdout
		textOut = io.Discard
	case *jsonPath != "":
		// Open upfront so a bad path fails before hours of simulation,
		// not after.
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		jsonOut = f
	}

	ids := []string{*exp}
	if *exp == "all" {
		// Wall-clock experiments (snapshot) are machine-dependent, which would
		// break `-exp all`'s byte-identical output contract; run them by name.
		ids = ids[:0]
		for _, id := range sim.ExperimentIDs() {
			if !sim.WallClock(id) {
				ids = append(ids, id)
			}
		}
	}
	reg := sim.Registry()
	doc := jsonRun{
		Preset: *preset, Levels: p.Levels, Treetop: p.Treetop,
		Warmup: p.Warmup, Measure: p.Measure, Seed: p.Seed,
		Parallel: p.Exec.Parallelism(),
	}
	for _, b := range p.Benchmarks {
		doc.Benchmarks = append(doc.Benchmarks, b.Name)
	}
	for _, id := range ids {
		runner, ok := reg[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		start := time.Now()
		tables, err := runner(p)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		wall := time.Since(start)
		fmt.Fprintf(textOut, "=== %s (%.1fs) ===\n", id, wall.Seconds())
		je := jsonExperiment{ID: id, WallSeconds: wall.Seconds()}
		for ti, t := range tables {
			if err := t.WriteText(textOut); err != nil {
				return err
			}
			fmt.Fprintln(textOut)
			if *csvDir != "" {
				if err := writeCSV(*csvDir, id, ti, t); err != nil {
					return err
				}
			}
			if *jsonPath != "" {
				var buf strings.Builder
				if err := t.WriteJSON(&buf); err != nil {
					return err
				}
				je.Tables = append(je.Tables, json.RawMessage(strings.TrimRight(buf.String(), "\n")))
			}
		}
		doc.Experiments = append(doc.Experiments, je)
	}
	if jsonOut != nil {
		stats := p.Exec.Stats()
		doc.Cache = stats
		doc.Jobs = stats.PerJob
		enc := json.NewEncoder(jsonOut)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	return nil
}

func writeCSV(dir, id string, idx int, t *report.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s_%d.csv", strings.ReplaceAll(id, "/", "_"), idx)
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}
