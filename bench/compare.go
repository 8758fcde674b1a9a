package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// compareDocs prints one row per workload x end-to-end metric — both
// medians, the ratio with its base, the bound from BENCHMARK.json and a
// verdict — and fails on any `worse` or on a larger share of failed ops.
//
//	better      moved the good way by more than the bound
//	same        within the bound either way
//	worse       moved the bad way by more than the bound
//	unresolved  either side's own run-to-run spread (IQR / median, needs
//	            -runs >= 2) is wider than the bound: the runs cannot tell
func compareDocs(spec *benchSpec, oldPath, newPath string, out io.Writer) error {
	oldDoc, err := readDoc(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := readDoc(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\told (%s)\tnew (%s)\tnew/old\tbound\tverdict\n", oldDoc.Commit, newDoc.Commit)
	var failures []string
	for _, ow := range oldDoc.Workloads {
		nw := findResult(newDoc, ow.Name)
		if nw == nil {
			failures = append(failures, fmt.Sprintf("%s: missing from %s", ow.Name, newPath))
			continue
		}
		for _, sm := range spec.EndToEnd {
			ov, nv := values(ow, sm.Name), values(*nw, sm.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			om, nm := median(ov), median(nv)
			verdict := judge(sm, om, nm, iqrShare(ov), iqrShare(nv))
			if verdict == "worse" {
				failures = append(failures, fmt.Sprintf("%s %s is worse", ow.Name, sm.Name))
			}
			ratio := "n/a"
			if om != 0 {
				ratio = fmt.Sprintf("%.4f of %.6g", nm/om, om)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%s\t%.2f\t%s\n",
				ow.Name, sm.Name, om, sm.Unit, nm, sm.Unit, ratio, sm.Bound, verdict)
		}
		of, nf := failShare(ow), failShare(*nw)
		fmt.Fprintf(tw, "%s\tops_failed/ops_attempted\t%.6g\t%.6g\t\t\t\n", ow.Name, of, nf)
		if nf > of {
			failures = append(failures, fmt.Sprintf("%s: failed share rose from %g to %g", ow.Name, of, nf))
		}
	}
	tw.Flush()
	if len(failures) > 0 {
		return fmt.Errorf("%d regression(s): %v", len(failures), failures)
	}
	return nil
}

// judge classifies a change of one metric's median.
func judge(sm specMetric, oldV, newV, oldSpread, newSpread float64) string {
	if oldSpread > sm.Bound || newSpread > sm.Bound {
		return "unresolved"
	}
	if oldV == 0 {
		if newV == 0 {
			return "same"
		}
		return "unresolved"
	}
	change := newV/oldV - 1 // > 0: the value grew
	if sm.Better == "lower" {
		change = -change
	}
	switch { // change > 0 now means: moved the good way
	case change > sm.Bound:
		return "better"
	case change < -sm.Bound:
		return "worse"
	}
	return "same"
}

func readDoc(path string) (*resultDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d resultDoc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func findResult(d *resultDoc, name string) *workloadResult {
	for i := range d.Workloads {
		if d.Workloads[i].Name == name {
			return &d.Workloads[i]
		}
	}
	return nil
}

// values collects one metric over a workload's completed runs.
func values(w workloadResult, name string) []float64 {
	var out []float64
	for _, r := range w.Runs {
		if m, ok := r.Metrics[name]; ok && r.Error == "" {
			out = append(out, m.Value)
		}
	}
	return out
}

func failShare(w workloadResult) float64 {
	var attempted, failed int
	for _, r := range w.Runs {
		attempted += r.Attempted
		failed += r.Failed
		if r.Error != "" { // a run that did not complete failed everything it had left
			failed++
			attempted++
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
