package sim

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/ringoram"
	"repro/internal/secmem"
	"repro/internal/trace"
)

// verifyBenchmarks returns the benchmark subset the audit iterates: up to
// three, so the audit catches workload-dependent corruption without
// multiplying the run time by the full suite.
func verifyBenchmarks(p Params) []trace.Benchmark {
	b := p.Benchmarks
	if len(b) > 3 {
		b = b[:3]
	}
	return b
}

// RunVerify is the §VI-D correctness audit as an executable experiment.
// The first table drives every scheme × benchmark-subset pair while
//
//  1. checking the full tree/stash/metadata invariants periodically,
//  2. round-tripping real payloads through the encrypted data plane, and
//  3. confirming the stash never overflows its hardware bound,
//
// reporting per row which benchmark (if any) failed. The second table is
// the internal/check harness: the differential oracle (all five schemes
// in lockstep against a plaintext model, checkpoint round trips included)
// and the statistical-obliviousness audit (chi-square leaf uniformity
// plus reverse-lexicographic eviction order). The table to run after any
// engine change.
func RunVerify(p Params) ([]*report.Table, error) {
	audit := report.New("Correctness audit (§VI-D)",
		"scheme", "benchmark", "accesses", "invariant checks", "payload round trips", "stash overflows", "verdict")
	total := p.Warmup + p.Measure
	// The rows are independent: audit them on the experiment's pool, then
	// add them in declaration order.
	schemes, benches := core.Schemes(), verifyBenchmarks(p)
	rows := make([][]string, len(schemes)*len(benches))
	err := p.exec().each(len(rows), func(i int) error {
		var err error
		rows[i], err = auditScheme(p, schemes[i/len(benches)], benches[i%len(benches)], total)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		audit.AddRow(row...)
	}
	audit.AddNote("the audit composes the encrypted data plane with every scheme and benchmark; any address error anywhere fails decryption or the payload comparison")

	harness, err := harnessTable(p, total)
	if err != nil {
		return nil, err
	}
	sweep, err := ringSweepTable(p, total)
	if err != nil {
		return nil, err
	}
	return []*report.Table{audit, harness, sweep}, nil
}

// ringSweepTable runs the engine-direct oracle over sweep-shaped
// configurations (non-default Z'/S/A geometries the aboram facade never
// builds), one row per shape. A divergence becomes a FAIL verdict, not an
// experiment error, matching harnessTable's convention.
func ringSweepTable(p Params, total int) (*report.Table, error) {
	t := report.New("Engine-direct oracle (sweep-shaped configs)",
		"config", "oracle ops", "divergence", "verdict")
	results, err := check.RunRingOracle(check.SweepConfigs(p.Levels, p.Treetop, p.Seed), p.Seed, total)
	if results == nil {
		return nil, err // construction failure, not a divergence
	}
	for _, r := range results {
		divergence, verdict := "none", "PASS"
		if r.Div != nil {
			divergence = r.Div.String()
			verdict = fmt.Sprintf("FAIL: diverged (replay seed %#x)", p.Seed)
		}
		t.AddRow(r.Label, report.Int(int64(r.Ops)), divergence, verdict)
	}
	t.AddNote("drives ringoram.ORAM directly (no facade) with an encrypted data plane; covers classic Ring knobs, per-level Z' reduction, bottom-S shrink, and DeadQ-backed remote allocation")
	return t, nil
}

// auditScheme runs the payload/invariant audit of one scheme under one
// benchmark and returns its table row. Only construction errors are
// returned; audit findings land in the verdict cell, naming the failing
// benchmark so a multi-row FAIL is attributable at a glance.
func auditScheme(p Params, s core.Scheme, bench trace.Benchmark, total int) ([]string, error) {
	cfg, _, err := core.Build(s, p.options(0))
	if err != nil {
		return nil, err
	}
	// Attach the encrypted data plane so payload integrity is part of the
	// audit.
	slots := int64(ringoram.SpaceBytesStatic(cfg)) / int64(cfg.BlockB)
	mem, err := secmem.New(slots, cfg.BlockB, []byte("0123456789abcdef"))
	if err != nil {
		return nil, err
	}
	cfg.Data = mem
	o, err := ringoram.New(cfg)
	if err != nil {
		return nil, err
	}
	gen, err := trace.NewGenerator(bench, p.Seed)
	if err != nil {
		return nil, err
	}

	n := o.Config().NumBlocks
	payload := func(blk int64) []byte {
		d := make([]byte, cfg.BlockB)
		for i := range d {
			d[i] = byte(blk) ^ byte(i*7)
		}
		return d
	}
	verdict := "PASS"
	fail := func(format string, args ...any) {
		if verdict == "PASS" {
			verdict = fmt.Sprintf("FAIL(%s): "+format, append([]any{bench.Name}, args...)...)
		}
	}

	written := map[int64]bool{}
	checks, roundTrips := 0, 0
	checkEvery := total/4 + 1
	for i := 0; i < total; i++ {
		blk := int64(gen.Next().Block() % uint64(n))
		switch i % 7 {
		case 0: // write a known payload
			if _, err := o.WriteBlock(blk, payload(blk)); err != nil {
				fail("write: %v", err)
			}
			written[blk] = true
		case 3: // read back and compare, if this block was written
			if written[blk] {
				got, _, err := o.ReadBlock(blk)
				if err != nil {
					fail("read: %v", err)
				} else if !bytes.Equal(got, payload(blk)) {
					fail("payload mismatch at block %d", blk)
				}
				roundTrips++
			} else if _, err := o.Access(blk); err != nil {
				fail("access: %v", err)
			}
		default:
			if _, err := o.Access(blk); err != nil {
				fail("access: %v", err)
			}
		}
		if (i+1)%checkEvery == 0 {
			if err := o.CheckInvariants(); err != nil {
				fail("invariants at access %d: %v", i, err)
			}
			checks++
		}
	}
	// Final exhaustive read-back of everything written, in sorted order so
	// the audit replays identically.
	blocks := make([]int64, 0, len(written))
	for blk := range written {
		blocks = append(blocks, blk)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	for _, blk := range blocks {
		got, _, err := o.ReadBlock(blk)
		if err != nil {
			fail("final read: %v", err)
		} else if !bytes.Equal(got, payload(blk)) {
			fail("final payload mismatch at block %d", blk)
		}
		roundTrips++
	}
	if err := o.CheckInvariants(); err != nil {
		fail("final invariants: %v", err)
	}
	checks++
	if o.Stash().Overflows() > 0 {
		fail("stash overflowed %d times", o.Stash().Overflows())
	}

	return []string{string(s), bench.Name, report.Int(int64(total)), report.Int(int64(checks)),
		report.Int(int64(roundTrips)), report.Uint(o.Stash().Overflows()), verdict}, nil
}

// harnessTable runs the internal/check differential oracle and
// obliviousness audit and renders one row per scheme. Divergences and
// eviction-order violations become FAIL verdicts (with the replayable
// seed in the cell), not experiment errors, so one broken scheme still
// leaves the other rows legible.
func harnessTable(p Params, total int) (*report.Table, error) {
	t := report.New("Differential oracle & statistical obliviousness",
		"scheme", "oracle ops", "divergence", "leaf χ²", "χ² critical", "evictions ok", "verdict")
	results, err := check.RunOracle(p.Levels, p.Seed, total)
	if results == nil {
		return nil, err // construction failure, not a divergence
	}
	bench := verifyBenchmarks(p)[0]
	for _, r := range results {
		gen, err := trace.NewGenerator(bench, p.Seed)
		if err != nil {
			return nil, err
		}
		workload := func(int) int64 { return int64(gen.Next().Block() >> 1) }
		obl, oblErr := check.CheckOblivious(r.Scheme, p.options(0), total, workload)

		verdict := "PASS"
		divergence := "none"
		if r.Failure != nil {
			divergence = r.Failure.Div.String()
			verdict = fmt.Sprintf("FAIL: oracle diverged (replay seed %#x, %d-op repro)", r.Failure.Seed, len(r.Failure.Repro))
		}
		switch {
		case oblErr != nil:
			if verdict == "PASS" {
				verdict = fmt.Sprintf("FAIL: %v", oblErr)
			}
		case !obl.Uniform():
			if verdict == "PASS" {
				verdict = fmt.Sprintf("FAIL: leaf distribution skewed over %d bins", obl.Bins)
			}
		}
		t.AddRow(string(r.Scheme), report.Int(int64(r.Ops)), divergence,
			report.Float(obl.Chi2, 1), report.Float(obl.Critical, 1),
			report.Int(int64(obl.EvictsChecked)), verdict)
	}
	t.AddNote("oracle: %d randomized read/write/access/checkpoint ops per scheme in lockstep against a plaintext model (seed %#x); obliviousness: observed-leaf chi-square at α=0.001 plus reverse-lexicographic eviction order, from emitted memory traffic only", total, p.Seed)
	return t, nil
}
