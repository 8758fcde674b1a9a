package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "nonsense"}, io.Discard); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
}

func TestMissingExp(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Fatal("expected usage error")
	}
}

func TestUnknownPreset(t *testing.T) {
	if err := run([]string{"-exp", "table1", "-preset", "bogus"}, io.Discard); err == nil {
		t.Fatal("expected preset error")
	}
}

func TestListAndStaticExperiment(t *testing.T) {
	if err := run([]string{"-list"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	// table1 and storage are closed-form: cheap smoke coverage of the full
	// command path including CSV output.
	dir := t.TempDir()
	if err := run([]string{"-exp", "table1", "-csv", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "table1_*.csv"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no CSV written: %v %v", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "field,category") {
		t.Fatalf("CSV content unexpected: %.80s", data)
	}
}

// TestCPUProfile runs a tiny simulation under -cpuprofile and checks that
// a gzip-compressed profile (pprof's on-disk format) was written.
func TestCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	if err := run([]string{"-exp", "fig8", "-levels", "8", "-warmup", "50", "-measure", "100", "-cpuprofile", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("profile does not start with the gzip magic: % x", data[:min(len(data), 4)])
	}
}

func TestOverrides(t *testing.T) {
	if err := run([]string{"-exp", "storage", "-levels", "20", "-seed", "9", "-warmup", "10", "-measure", "10"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// decodeRun parses the -json document written to path.
func decodeRun(t *testing.T, path string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("bad JSON document: %v", err)
	}
	return doc
}

// TestSeedZeroHonored is the regression test for the old `if *seed != 0`
// guard, which silently ignored an explicit -seed 0.
func TestSeedZeroHonored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	if err := run([]string{"-exp", "table3", "-seed", "0", "-json", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	doc := decodeRun(t, path)
	if got := doc["seed"].(float64); got != 0 {
		t.Fatalf("seed = %v, want explicit 0", got)
	}
	// And without the flag, the preset default (1) must survive.
	if err := run([]string{"-exp", "table3", "-json", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	doc = decodeRun(t, path)
	if got := doc["seed"].(float64); got != 1 {
		t.Fatalf("seed = %v, want preset default 1", got)
	}
}

func TestJSONOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	if err := run([]string{"-exp", "table1", "-json", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	doc := decodeRun(t, path)
	exps := doc["experiments"].([]any)
	if len(exps) != 1 {
		t.Fatalf("experiments = %d, want 1", len(exps))
	}
	exp := exps[0].(map[string]any)
	if exp["id"] != "table1" {
		t.Fatalf("id = %v", exp["id"])
	}
	tables := exp["tables"].([]any)
	if len(tables) == 0 {
		t.Fatal("no tables in JSON output")
	}
	tab := tables[0].(map[string]any)
	for _, key := range []string{"title", "columns", "rows"} {
		if _, ok := tab[key]; !ok {
			t.Errorf("table missing %q", key)
		}
	}
	if _, ok := doc["cache"]; !ok {
		t.Error("document missing cache counters")
	}
	// -json - writes the document to stdout and suppresses text tables.
	var buf bytes.Buffer
	if err := run([]string{"-exp", "table1", "-json", "-"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("stdout is not pure JSON: %.120s", buf.String())
	}
}

// stripTimings drops the `=== id (X.Ys) ===` headers, whose wall times
// legitimately vary run to run; everything else must be byte-identical.
func stripTimings(s string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "=== ") {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// TestExpAllParallelByteIdentical runs every experiment at a reduced
// scale, sequentially and with a wide worker pool, and requires the
// rendered tables to be byte-identical — the acceptance criterion for the
// orchestrator.
func TestExpAllParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment registry twice")
	}
	render := func(parallel string) string {
		var buf bytes.Buffer
		args := []string{"-exp", "all", "-levels", "10", "-warmup", "150", "-measure", "400", "-parallel", parallel}
		if err := run(args, &buf); err != nil {
			t.Fatalf("parallel=%s: %v", parallel, err)
		}
		return stripTimings(buf.String())
	}
	seq := render("1")
	par := render("8")
	if seq != par {
		t.Fatal("-exp all output differs between -parallel 1 and -parallel 8")
	}
	if !strings.Contains(seq, "Fig 8a") || !strings.Contains(seq, "Correctness audit") {
		t.Fatalf("output missing expected tables: %.200s", seq)
	}
}
