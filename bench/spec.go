package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// servedLevels is the tree height of the serving workloads. ISSUE 11 asked
// for 14 (40 959 blocks); the contract's total-time cap binds — preloading
// that tree three times per run does not fit — so all three serving
// workloads were lowered together to 12 (10 237 blocks x 64 B). The sharded
// workload runs two trees of servedLevels-1 so its global block count
// matches the other two.
const servedLevels = 12

// workload is one named traffic mix. The names are final: later issues
// cite them.
type workload struct {
	name     string
	serving  bool    // false: sim-fig8 (simulator + bare library, no daemon)
	levels   int     // per-shard tree levels
	shards   int     // -shards
	durable  bool    // -data-dir + -group-commit + -delta-snapshots
	xor      bool    // -xor, reads ride OpXRead and are peeled client-side
	readFrac float64 // share of reads; the rest are writes
	zipf     float64 // zipf exponent; 0 = uniform
}

var workloads = []workload{
	{name: "mem-read-uniform", serving: true, levels: servedLevels, shards: 1, readFrac: 0.95},
	// 5 % reads keep read_p50_us defined here: the contract wants every
	// end-to-end metric on every workload (ISSUE 11 asked for 100 % writes).
	{name: "durable-write-uniform", serving: true, levels: servedLevels, shards: 1, durable: true, readFrac: 0.05},
	{name: "durable-mixed-zipf-p2", serving: true, levels: servedLevels - 1, shards: 2, durable: true, xor: true, readFrac: 0.5, zipf: 1.1},
	{name: "sim-fig8", levels: servedLevels, shards: 1, readFrac: 0.95},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// benchSpec mirrors BENCHMARK.json. It is the single source of metric
// names, units, directions and bounds: the code emits values by name and
// refuses to report a metric the file does not list, or to omit one it
// does.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot locates the checkout root — the directory holding
// BENCHMARK.json — from the working directory or its parent (so both
// `bash bench/run.sh` and `cd bench && go run .` work).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in %s or its parent", wd)
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(s.Workloads) != len(workloads) {
		return nil, fmt.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			return nil, fmt.Errorf("BENCHMARK.json workload %d is %q, the benchmark runs %q", i, w.Name, workloads[i].name)
		}
	}
	return &s, nil
}

// metric is one reported value. Samples is how many observations stand
// behind a timing (0 for counts and exact ratios).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metricSet collects values by name during a run.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64) { m[name] = metric{Value: v} }

func (m metricSet) timing(name string, v float64, samples int) {
	m[name] = metric{Value: v, Samples: samples}
}

// conform checks the collected metrics against the list the spec names
// for this mode — exactly those, no more, no fewer — and fills in units.
func (m metricSet) conform(want []specMetric) (metricSet, error) {
	out := make(metricSet, len(want))
	for _, sm := range want {
		v, ok := m[sm.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is named in BENCHMARK.json but was not measured", sm.Name)
		}
		v.Unit = sm.Unit
		out[sm.Name] = v
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not named in BENCHMARK.json", name)
		}
	}
	return out, nil
}
