package sim

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/ringoram"
)

// RunSweep reproduces the flavor of the Ring ORAM design-space exploration
// the paper's §III-B cites (Ren et al.): sweep the reserved-dummy count S
// and the eviction interval A around the typical setting and report the
// space/performance frontier. The paper's chosen point (S=7, A=5 classic;
// S=3, A=5, Y=4 compacted) should sit on or near the knee.
func RunSweep(p Params) ([]*report.Table, error) {
	t := report.New("Design-space sweep: S and A around the typical setting",
		"config", "space", "cycles/access", "earlyReshuffles/access", "stash peak")

	type point struct {
		name string
		mk   func(seed uint64) ringoram.Config
	}
	var points []point
	for _, s := range []int{3, 5, 7, 9} {
		s := s
		points = append(points, point{
			name: fmt.Sprintf("Ring S=%d A=5", s),
			mk: func(seed uint64) ringoram.Config {
				cfg := ringoram.TypicalRing(p.Levels, p.Treetop, seed)
				cfg.S = s
				return cfg
			},
		})
	}
	for _, a := range []int{3, 8} {
		a := a
		points = append(points, point{
			name: fmt.Sprintf("Ring S=7 A=%d", a),
			mk: func(seed uint64) ringoram.Config {
				cfg := ringoram.TypicalRing(p.Levels, p.Treetop, seed)
				cfg.A = a
				return cfg
			},
		})
	}
	points = append(points, point{
		name: "CB S=3 Y=4 A=5 (Baseline)",
		mk: func(seed uint64) ringoram.Config {
			return ringoram.CompactedBaseline(p.Levels, p.Treetop, seed)
		},
	})

	suites := make([]suite, 0, len(points))
	for _, pt := range points {
		pt := pt
		suites = append(suites, suite{pt.name,
			func(i int, seed uint64) (ringoram.Config, error) { return pt.mk(seed), nil }})
	}
	allRes, jobs, err := runSuites(p, suites)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	for pi, pt := range points {
		rs := allRes[pi]
		var peak float64
		for _, r := range rs {
			if float64(r.StashPeak) > peak {
				peak = float64(r.StashPeak)
			}
		}
		t.AddRow(pt.name,
			report.Bytes(uint64(ringoram.SpaceBytesStatic(jobs[pi][0].Config))),
			report.Float(meanCPA(rs), 0),
			report.Float(mean(rs, reshufflesPerAccess), 3),
			report.Float(peak, 0))
	}
	t.AddNote("larger S: more space, fewer reshuffles; smaller A: more evictions but lower stash pressure — the trade-off behind §IV-B")
	return []*report.Table{t}, nil
}
