package check

import (
	"context"
	"fmt"

	"repro/aboram"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/server"
)

// Shard-leakage audit. Sharding Ring ORAM is a deliberate, bounded leak:
// an observer of per-shard traffic learns the shard index of every
// access — exactly the low log2(P) bits of its block id — and must learn
// NOTHING more. The audit pins both sides of that bound:
//
//   - exactly log2(P) bits: the observed per-shard access histogram of a
//     real P-shard engine must match, cell for cell, what the routing
//     law predicts from the workload (Pearson chi-square against the
//     predicted counts — a router that is biased, sticky, or
//     load-dependent shifts mass between shards and fails);
//   - nothing more: within each shard the revealed leaf sequence must
//     stay chi-square uniform under that shard's own seed, i.e. the
//     intra-shard access pattern remains oblivious (CheckOblivious per
//     shard, over the shard-local block sequence the workload induces).

// ShardLeakResult summarizes one audit run.
type ShardLeakResult struct {
	Shards   int
	Accesses int
	Observed []uint64  // per-shard ops served, from the engine's counters
	Expected []float64 // per-shard ops the routing law predicts
	Chi2     float64   // observed vs. expected (+Inf: op on an impossible shard)
	Critical float64
	Leaves   []ObliviousResult // per-shard leaf uniformity (empty cells skipped)
}

// Pass reports whether the observed leak is exactly the routing law's:
// shard histogram within the critical band and every audited shard's
// leaf distribution uniform.
func (r ShardLeakResult) Pass() bool {
	if r.Chi2 > r.Critical {
		return false
	}
	for _, l := range r.Leaves {
		if !l.Uniform() {
			return false
		}
	}
	return true
}

func (r ShardLeakResult) String() string {
	return fmt.Sprintf("shard leak audit: P=%d, %d accesses, histogram chi2 %.3f (critical %.3f), %d shards leaf-audited, pass=%v",
		r.Shards, r.Accesses, r.Chi2, r.Critical, len(r.Leaves), r.Pass())
}

// memFleet opens an in-memory P-shard fleet of scheme s through the
// daemon's own lifecycle, so the audited trees run under its seed law.
func memFleet(s core.Scheme, levels, shards int, seed uint64) (*server.Fleet, error) {
	return server.OpenFleet(server.FleetConfig{Engine: durable.Options{
		ORAM: aboram.Options{Scheme: s, Levels: levels, Seed: seed, EncryptionKey: oracleKey},
	}}, shards)
}

// routeHistogram bins a block sequence by a routing function. The audit
// uses the production law (server.RouteBlock); tests substitute biased
// routers as negative controls.
func routeHistogram(blocks []int64, shards int, route func(block int64, shards int) (int, int64)) []uint64 {
	counts := make([]uint64, shards)
	for _, b := range blocks {
		shard, _ := route(b, shards)
		counts[shard]++
	}
	return counts
}

// shardHistogramChi2 compares an observed per-shard histogram against
// the production routing law's prediction for the same block sequence.
func shardHistogramChi2(observed []uint64, blocks []int64, shards int) (stat float64, df int) {
	predicted := routeHistogram(blocks, shards, server.RouteBlock)
	expected := make([]float64, shards)
	for i, c := range predicted {
		expected[i] = float64(c)
	}
	return ChiSquareExpected(observed, expected)
}

// MigratingLeakResult summarizes one mid-migration audit run: the
// deployment is frozen mid-reshard (dual routing at a fixed watermark),
// so the observable cells are the old fleet's From shards followed by
// the target fleet's To shards.
type MigratingLeakResult struct {
	From, To  int
	Watermark int64
	Accesses  int
	Observed  []uint64  // ops served per cell: From old-fleet cells, then To target cells
	Expected  []float64 // what the dual routing law predicts per cell
	Chi2      float64   // observed vs. expected (+Inf: op in a cell the law forbids)
	Critical  float64
	Leaves    []ObliviousResult // per-cell leaf uniformity (thin cells skipped)
}

// Pass reports whether the mid-migration leak is exactly the dual
// routing law's: the cell histogram within the critical band and every
// audited cell's leaf distribution uniform.
func (r MigratingLeakResult) Pass() bool {
	if r.Chi2 > r.Critical {
		return false
	}
	for _, l := range r.Leaves {
		if !l.Uniform() {
			return false
		}
	}
	return true
}

func (r MigratingLeakResult) String() string {
	return fmt.Sprintf("mid-migration leak audit: %d→%d at watermark %d, %d accesses, histogram chi2 %.3f (critical %.3f), %d cells leaf-audited, pass=%v",
		r.From, r.To, r.Watermark, r.Accesses, r.Chi2, r.Critical, len(r.Leaves), r.Pass())
}

// migratingHistogram bins a block sequence into the From+To cells the
// dual routing law (RouteBlockMigrating at the given watermark) sends
// them to. The audit compares the engines' counters against the law at
// the true watermark; tests recompute it at a wrong watermark as a
// negative control (mass appears in cells the law gives zero
// expectation, driving the statistic to +Inf).
func migratingHistogram(blocks []int64, watermark int64, from, to int) []float64 {
	cells := make([]float64, from+to)
	for _, b := range blocks {
		shard, _, target := server.RouteBlockMigrating(b, watermark, from, to)
		if target {
			cells[from+shard]++
		} else {
			cells[shard]++
		}
	}
	return cells
}

// CheckShardLeakMigrating audits the leakage bound of a deployment
// frozen MID-migration: a From-shard fleet with a To-shard target fleet
// installed behind dual routing at a fixed watermark (the state a live
// reshard serves from between copy ranges, held still so the histogram
// has a single law to match). The bound generalizes the static one:
//
//   - an observer of per-tree traffic learns which cell (fleet, shard)
//     every access lands in — exactly what RouteBlockMigrating reveals
//     about the block id given the public watermark — and must learn
//     nothing more;
//   - within each cell the revealed leaf sequence must stay chi-square
//     uniform under that tree's own seed (old-fleet trees under the
//     generation-0 seeds, target trees under the generation-1 seeds).
//
// The copy traffic itself is excluded by freezing the watermark: what
// is audited is the serving path's routing, the part an adversary
// watching a mid-migration trace actually correlates with block ids.
func CheckShardLeakMigrating(s core.Scheme, levels, from, to int, watermark int64, seed uint64, accesses int, w Workload) (MigratingLeakResult, error) {
	res := MigratingLeakResult{From: from, To: to, Watermark: watermark, Accesses: accesses}
	// Both generations come from the daemon's own fleet law: generation 0
	// at `from` shards serving, generation 1 at `to` shards as the target.
	fleet, err := memFleet(s, levels, from, seed)
	if err != nil {
		return res, err
	}
	sh, err := server.NewSharded(fleet.Engines(), server.Config{Queue: 64, Batch: 8})
	if err != nil {
		return res, err
	}
	defer sh.Close()
	target, err := fleet.OpenTarget(to)
	if err != nil {
		return res, err
	}
	// Install dual routing at the frozen watermark — on the Sharded
	// directly, the fleet would start it at 0. The Resharder is
	// never run — no copier, no fences — so the deployment holds still
	// in the exact mid-migration state under audit. (Close stops the
	// never-started migration along with both fleets.)
	if _, err := sh.BeginReshard(target, server.ReshardConfig{Watermark: watermark, Gen: 1}); err != nil {
		return res, fmt.Errorf("check: freezing mid-migration state: %w", err)
	}

	// Drive the workload, recording the block sequence (for the cell
	// prediction) and each cell's local sequence (for the leaf audits).
	ctx := context.Background()
	n := sh.NumBlocks()
	blocks := make([]int64, accesses)
	locals := make([][]int64, from+to)
	for i := 0; i < accesses; i++ {
		blk := w(i) % n
		if blk < 0 {
			blk += n
		}
		blocks[i] = blk
		shard, local, isTarget := server.RouteBlockMigrating(blk, watermark, from, to)
		cell := shard
		if isTarget {
			cell = from + shard
		}
		locals[cell] = append(locals[cell], local)
		if err := sh.Access(ctx, blk); err != nil {
			return res, fmt.Errorf("check: access %d (block %d): %w", i, blk, err)
		}
	}

	// Side one: both fleets' served counters, cell for cell, against the
	// dual routing law. Cells the law gives zero expectation are dead
	// (ChiSquareExpected excludes them from df — and any observed op in
	// one is an immediate +Inf).
	res.Observed = make([]uint64, 0, from+to)
	for _, m := range sh.ShardMetrics() {
		res.Observed = append(res.Observed, m.Served())
	}
	for _, m := range sh.NextShardMetrics() {
		res.Observed = append(res.Observed, m.Served())
	}
	res.Expected = migratingHistogram(blocks, watermark, from, to)
	var df int
	res.Chi2, df = ChiSquareExpected(res.Observed, res.Expected)
	if df < 1 {
		df = 1
	}
	res.Critical = ChiSquareCritical(df, ZCrit999)

	// Side two: each cell's revealed leaf sequence must stay uniform
	// under its own tree's seed.
	for cell, seq := range locals {
		if len(seq) < 64 {
			continue
		}
		cellSeed := server.ShardSeed(seed, cell)
		if cell >= from {
			cellSeed = server.ShardSeed(server.GenSeed(seed, 1), cell-from)
		}
		leaf, err := CheckOblivious(s, core.DefaultOptions(levels, cellSeed), len(seq), func(j int) int64 { return seq[j] })
		if err != nil {
			return res, fmt.Errorf("check: cell %d leaf audit: %w", cell, err)
		}
		res.Leaves = append(res.Leaves, leaf)
	}
	return res, nil
}

// CheckShardLeak drives a real P-shard serving engine through `accesses`
// ops of the workload and audits the leak bound from both sides (see the
// package comment above). The returned result carries the verdict; the
// error covers build/serve failures and eviction-order violations inside
// the per-shard leaf audit.
func CheckShardLeak(s core.Scheme, levels, shards int, seed uint64, accesses int, w Workload) (ShardLeakResult, error) {
	res := ShardLeakResult{Shards: shards, Accesses: accesses}
	fleet, err := memFleet(s, levels, shards, seed)
	if err != nil {
		return res, err
	}
	sh, err := server.NewSharded(fleet.Engines(), server.Config{Queue: 64, Batch: 8})
	if err != nil {
		return res, err
	}
	defer sh.Close()

	// Drive the workload through the real router, recording the block
	// sequence (for the prediction) and each shard's local sequence (for
	// the per-shard leaf audit).
	ctx := context.Background()
	n := sh.NumBlocks()
	blocks := make([]int64, accesses)
	locals := make([][]int64, shards)
	for i := 0; i < accesses; i++ {
		blk := w(i) % n
		if blk < 0 {
			blk += n
		}
		blocks[i] = blk
		shard, local := server.RouteBlock(blk, shards)
		locals[shard] = append(locals[shard], local)
		if err := sh.Access(ctx, blk); err != nil {
			return res, fmt.Errorf("check: access %d (block %d): %w", i, blk, err)
		}
	}

	// Side one: the engine's own per-shard served counters against the
	// routing law's prediction.
	res.Observed = make([]uint64, shards)
	for i, m := range sh.ShardMetrics() {
		res.Observed[i] = m.Served()
	}
	res.Chi2, _ = shardHistogramChi2(res.Observed, blocks, shards)
	df := shards - 1
	if df < 1 {
		df = 1
	}
	res.Critical = ChiSquareCritical(df, ZCrit999)

	// Side two: each shard's revealed leaf sequence must stay uniform
	// under its own seed. Shards the workload barely touched are skipped
	// (too few samples for a meaningful histogram).
	for i := range locals {
		seq := locals[i]
		if len(seq) < 64 {
			continue
		}
		opt := core.DefaultOptions(levels, server.ShardSeed(seed, i))
		leaf, err := CheckOblivious(s, opt, len(seq), func(j int) int64 { return seq[j] })
		if err != nil {
			return res, fmt.Errorf("check: shard %d leaf audit: %w", i, err)
		}
		res.Leaves = append(res.Leaves, leaf)
	}
	return res, nil
}
