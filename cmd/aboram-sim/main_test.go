package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestUnknownScheme(t *testing.T) {
	if err := run([]string{"-scheme", "bogus", "-levels", "10", "-warmup", "10", "-accesses", "10"}, &strings.Builder{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestUnknownBench(t *testing.T) {
	if err := run([]string{"-bench", "bogus"}, &strings.Builder{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestSmallRunSummary(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-scheme", "AB", "-bench", "x264", "-levels", "10", "-warmup", "300", "-accesses", "800"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cycles/access", "stash peak", "S extension", "time breakdown"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestTraceReplayPath(t *testing.T) {
	// Generate a trace file, then replay it.
	dir := t.TempDir()
	path := filepath.Join(dir, "x.trace")
	b, _ := trace.Find("gcc")
	gen, _ := trace.NewGenerator(b, 2)
	f, err := createTraceFile(path, gen, 1500)
	if err != nil {
		t.Fatal(err)
	}
	_ = f
	var buf strings.Builder
	if err := run([]string{"-scheme", "Baseline", "-levels", "10", "-trace", path, "-warmup", "200", "-accesses", "800"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cycles/access") {
		t.Fatal("summary missing")
	}
	// The run is labelled with the trace file, not -bench's default.
	if first, _, _ := strings.Cut(buf.String(), "\n"); !strings.Contains(first, "Baseline on x.trace (") {
		t.Fatalf("summary labels the run %q, want the trace file's name", first)
	}
	// A trace shorter than warmup+accesses must error cleanly.
	if err := run([]string{"-scheme", "Baseline", "-levels", "10", "-trace", path, "-warmup", "1000", "-accesses", "5000"}, &strings.Builder{}); err == nil {
		t.Fatal("exhausted trace accepted")
	}
}

// createTraceFile writes n requests from gen to path.
func createTraceFile(path string, gen *trace.Generator, n int) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := trace.NewWriter(f)
	for i := 0; i < n; i++ {
		if err := w.Write(gen.Next()); err != nil {
			return "", err
		}
	}
	return path, w.Flush()
}
