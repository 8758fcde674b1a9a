package sim

import (
	"repro/internal/core"
	"repro/internal/memop"
	"repro/internal/report"
	"repro/internal/ringoram"
	"repro/internal/stats"
)

// RunStashStudy supports the correctness argument of §VI-D empirically:
// AB-ORAM must keep the stash as bounded as the Baseline, since it leaves
// the Z' portion and the position-map behaviour untouched. The experiment
// samples stash occupancy after every online access for each scheme and
// reports the distribution plus overflow counts (which must be zero).
func RunStashStudy(p Params) ([]*report.Table, error) {
	t := report.New("Stash occupancy by scheme (§VI-D correctness)",
		"scheme", "mean", "p50", "p99", "max", "capacity", "overflows", "bg dummies/access", "bg saturated")
	bounds := make([]float64, 0, 32)
	for b := 2.0; b <= 512; b *= 1.3 {
		bounds = append(bounds, b)
	}
	schemes := core.Schemes()
	rows := make([][]string, len(schemes))
	err := p.exec().each(len(schemes), func(si int) error {
		cfg, _, err := core.Build(schemes[si], p.options(0))
		if err != nil {
			return err
		}
		h := stats.NewHistogram(bounds)
		o, err := probe(cfg, p.Benchmarks[0], p.Seed, p.Warmup+p.Measure,
			func(i int, o *ringoram.ORAM, _ []memop.Op) error {
				if i >= p.Warmup {
					h.Observe(float64(o.Stash().Size()))
				}
				return nil
			})
		if err != nil {
			return err
		}
		st := o.Stats()
		bg := float64(st.DummyAccesses) / float64(st.OnlineAccesses)
		rows[si] = []string{string(schemes[si]),
			report.Float(h.Mean(), 1),
			report.Float(h.Quantile(0.5), 0),
			report.Float(h.Quantile(0.99), 0),
			report.Int(int64(o.Stash().Peak())),
			report.Int(int64(o.Config().StashCapacity)),
			report.Uint(o.Stash().Overflows()),
			report.Float(bg, 3),
			report.Uint(st.BGEvictSaturated)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("overflows must be 0 for every scheme; CB-based schemes rely on background eviction (dummy insertion) to cap occupancy")
	t.AddNote("bg saturated counts accesses whose background-eviction loop hit its iteration cap with the stash still over threshold — nonzero means the (threshold, A, Y) triple cannot keep up")
	return []*report.Table{t}, nil
}
