package server

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/aboram"
	"repro/internal/durable"
	"repro/internal/server/wire"
)

// newFleet builds p same-geometry encrypted engines with per-shard seeds
// derived from base, ready for NewSharded or BeginReshard.
func newFleet(t testing.TB, base uint64, p int) []Engine {
	t.Helper()
	f, err := OpenFleet(FleetConfig{Engine: durable.Options{
		ORAM: aboram.Options{Levels: 8, Seed: base, EncryptionKey: testKey},
	}}, p)
	if err != nil {
		t.Fatal(err)
	}
	return f.Engines()
}

// memJournal is an in-memory MigrationJournal recording the event
// sequence; failOn makes the named event fail once.
type memJournal struct {
	mu     sync.Mutex
	events []string
	failOn string
}

func (j *memJournal) record(ev string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failOn != "" && strings.HasPrefix(ev, j.failOn) {
		j.failOn = ""
		return fmt.Errorf("journal: injected failure at %s", ev)
	}
	j.events = append(j.events, ev)
	return nil
}

func (j *memJournal) RecordRange(w int64) error { return j.record(fmt.Sprintf("range %d", w)) }
func (j *memJournal) RecordCutover() error      { return j.record("cutover") }
func (j *memJournal) RecordAbortBegin() error   { return j.record("abort-begin") }
func (j *memJournal) RecordAborted() error      { return j.record("aborted") }

func (j *memJournal) log() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.events...)
}

// TestRouteBlockMigrating checks the dual-routing law: blocks below the
// watermark resolve in the target layout, everything else in the old
// one, and both legs agree with RouteBlock on their own layout.
func TestRouteBlockMigrating(t *testing.T) {
	for _, from := range shardWidths {
		for _, to := range shardWidths {
			if from == to {
				continue
			}
			for _, w := range []int64{0, 1, 17, 100, 255} {
				for b := int64(-2); b < 300; b++ {
					shard, local, target := RouteBlockMigrating(b, w, from, to)
					wantTarget := b >= 0 && b < w
					if target != wantTarget {
						t.Fatalf("from=%d to=%d w=%d block %d: target=%v, want %v", from, to, w, b, target, wantTarget)
					}
					layout := from
					if target {
						layout = to
					}
					ws, wl := RouteBlock(b, layout)
					if shard != ws || local != wl {
						t.Fatalf("from=%d to=%d w=%d block %d: (%d,%d), want (%d,%d)", from, to, w, b, shard, local, ws, wl)
					}
				}
			}
		}
	}
}

// TestGenSeed checks the generation seed derivation: generation 0 keeps
// the base (never-resharded deployments are unchanged) and no two
// generations of the same deployment share a seed.
func TestGenSeed(t *testing.T) {
	const base = 0xdecafbad
	if GenSeed(base, 0) != base {
		t.Fatalf("gen 0 seed %#x, want base %#x", GenSeed(base, 0), uint64(base))
	}
	seen := map[uint64]uint64{}
	for g := uint64(0); g < 32; g++ {
		s := GenSeed(base, g)
		if prev, dup := seen[s]; dup {
			t.Fatalf("generations %d and %d share seed %#x", prev, g, s)
		}
		seen[s] = g
	}
}

// TestShardedOutOfRange is the satellite regression test: out-of-domain
// block ids must increment the router's OutOfRange counter (and surface
// in the aggregate snapshot) while still producing the engine's range
// error, and during a migration a non-negative id past the served space
// is refused by the router itself.
func TestShardedOutOfRange(t *testing.T) {
	sh, err := NewSharded(newFleet(t, 11, 2), Config{Queue: 32, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ctx := context.Background()
	n := sh.NumBlocks()

	if err := sh.Access(ctx, -1); err == nil {
		t.Fatal("access of block -1 succeeded")
	}
	if _, err := sh.Read(ctx, n); err == nil {
		t.Fatalf("read of block %d (one past the space) succeeded", n)
	}
	if err := sh.Write(ctx, n+100, make([]byte, sh.BlockSize())); err == nil {
		t.Fatal("write far past the space succeeded")
	}
	if err := sh.Access(ctx, 0); err != nil {
		t.Fatalf("in-range access: %v", err)
	}
	if got := sh.Metrics().OutOfRange; got != 3 {
		t.Fatalf("OutOfRange = %d after three out-of-domain ops, want 3", got)
	}

	// During a migration the router refuses non-negative ids past the
	// served space (modulo routing would land them in tail space the
	// cutover drops) — and still counts them.
	r, err := sh.BeginReshard(newFleet(t, 12, 3), ReshardConfig{RangeSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	err = sh.Write(ctx, n, make([]byte, sh.BlockSize()))
	if err == nil || !strings.Contains(err.Error(), "resharding") {
		t.Fatalf("mid-migration write past the space: %v, want the router's resharding range error", err)
	}
	if got := sh.Metrics().OutOfRange; got != 4 {
		t.Fatalf("OutOfRange = %d, want 4", got)
	}
	r.Stop()
}

// TestEstimateWaitLaw checks the quoting law's contract directly:
// nonnegative always, monotone in depth and in both averages, own<=0
// falls back to the aggregate.
func TestEstimateWaitLaw(t *testing.T) {
	cases := []struct {
		depth    int
		agg, own int64
		want     time.Duration
	}{
		{0, 0, 0, 0},
		{5, 0, 0, 0},
		{0, 100, 0, 100},    // own unobserved → aggregate
		{0, 100, -7, 100},   // negative own → aggregate
		{0, -50, 0, 0},      // negative aggregate clamps to zero
		{-3, 100, 40, 40},   // negative depth clamps to zero
		{3, 100, 40, 340},   // depth*agg + own
		{3, 100, 900, 1200}, // expensive own kind dominates
	}
	for _, c := range cases {
		if got := estimateWait(c.depth, c.agg, c.own); got != c.want {
			t.Fatalf("estimateWait(%d, %d, %d) = %v, want %v", c.depth, c.agg, c.own, got, c.want)
		}
	}
	// Monotonicity sweeps: growing any input never shrinks the quote.
	for depth := 0; depth < 8; depth++ {
		for agg := int64(0); agg < 400; agg += 100 {
			for own := int64(0); own < 400; own += 100 {
				base := estimateWait(depth, agg, own)
				if base < 0 {
					t.Fatalf("estimateWait(%d, %d, %d) = %v negative", depth, agg, own, base)
				}
				if up := estimateWait(depth+1, agg, own); up < base {
					t.Fatalf("quote shrank with depth: (%d,%d,%d) %v → %v", depth, agg, own, base, up)
				}
				if up := estimateWait(depth, agg+100, own); up < base {
					t.Fatalf("quote shrank with aggregate: (%d,%d,%d) %v → %v", depth, agg, own, base, up)
				}
				if own > 0 {
					if up := estimateWait(depth, agg, own+100); up < base {
						t.Fatalf("quote shrank with own: (%d,%d,%d) %v → %v", depth, agg, own, base, up)
					}
				}
			}
		}
	}
}

// TestSeedServiceEstimates checks the cold-start seeding: zero-valued
// EWMAs take the snapshot's estimates (per-op kinds falling back to the
// aggregate when the source never observed the kind), while EWMAs the
// scheduler has already observed are left untouched.
func TestSeedServiceEstimates(t *testing.T) {
	o := newTestORAM(t, 5)
	s := newPaused(o, Config{})
	s.opEWMA[opWrite].Store(int64(9 * time.Millisecond)) // already observed

	s.SeedServiceEstimates(Metrics{
		ServiceEWMA: 2 * time.Millisecond,
		OpEWMA: OpEWMA{
			Read: 3 * time.Millisecond,
			// Access/Write/XRead unobserved at the source.
		},
	})
	if got := s.svcEWMA.Load(); got != int64(2*time.Millisecond) {
		t.Fatalf("aggregate seeded to %v, want 2ms", time.Duration(got))
	}
	if got := s.opEWMA[opRead].Load(); got != int64(3*time.Millisecond) {
		t.Fatalf("read EWMA seeded to %v, want its own source estimate 3ms", time.Duration(got))
	}
	for _, op := range []opKind{opAccess, opXRead} {
		if got := s.opEWMA[op].Load(); got != int64(2*time.Millisecond) {
			t.Fatalf("unobserved kind %d seeded to %v, want the aggregate fallback 2ms", op, time.Duration(got))
		}
	}
	if got := s.opEWMA[opWrite].Load(); got != int64(9*time.Millisecond) {
		t.Fatalf("observed write EWMA overwritten to %v, want 9ms untouched", time.Duration(got))
	}
	// Seeding is CompareAndSwap-based: a second snapshot must not clobber.
	s.SeedServiceEstimates(Metrics{ServiceEWMA: 40 * time.Millisecond})
	if got := s.svcEWMA.Load(); got != int64(2*time.Millisecond) {
		t.Fatalf("second seed clobbered the aggregate: %v", time.Duration(got))
	}
	// No kind quotes zero once any estimate exists.
	for _, op := range []opKind{opAccess, opRead, opWrite, opXRead} {
		if s.opCost(op) <= 0 {
			t.Fatalf("kind %d quotes %v after seeding, want positive", op, s.opCost(op))
		}
	}
}

// seedBlocks writes a recognizable value into a spread of blocks and
// returns the map used to verify them later.
func seedBlocks(t *testing.T, sh *Sharded, count int, tag byte) map[int64][]byte {
	t.Helper()
	ctx := context.Background()
	n := sh.NumBlocks()
	vals := map[int64][]byte{}
	for i := 0; i < count; i++ {
		blk := (int64(i)*37 + 3) % n
		d := make([]byte, sh.BlockSize())
		for j := range d {
			d[j] = tag ^ byte(blk) ^ byte(j*5)
		}
		if err := sh.Write(ctx, blk, d); err != nil {
			t.Fatalf("seed write %d: %v", blk, err)
		}
		vals[blk] = d
	}
	return vals
}

func verifyBlocks(t *testing.T, sh *Sharded, vals map[int64][]byte, stage string) {
	t.Helper()
	ctx := context.Background()
	for blk, want := range vals {
		if blk >= sh.NumBlocks() {
			continue
		}
		got, err := sh.Read(ctx, blk)
		if err != nil {
			t.Fatalf("%s: read %d: %v", stage, blk, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: block %d content lost", stage, blk)
		}
	}
}

// TestReshardGrow runs a live 2→3 migration end to end with concurrent
// writes: the migration must reach Done, the new layout must serve a
// larger address space from three shards, every pre-migration value and
// every value written during the copy must survive, and the journal must
// record a monotone watermark sequence capped by the cutover.
func TestReshardGrow(t *testing.T) {
	sh, err := NewSharded(newFleet(t, 21, 2), Config{Queue: 64, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ctx := context.Background()
	oldN := sh.NumBlocks()
	perShard := oldN / 2
	vals := seedBlocks(t, sh, 48, 0xA1)

	j := &memJournal{}
	r, err := sh.BeginReshard(newFleet(t, 22, 3), ReshardConfig{Journal: j, RangeSize: 96, Gen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sh.NumBlocks() != oldN {
		t.Fatalf("served space changed on a grow begin: %d, want %d", sh.NumBlocks(), oldN)
	}

	// Writers race the copy across the whole space; every acked write
	// must be visible after cutover.
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				blk := (int64(w)*131 + int64(i)*29) % oldN
				d := make([]byte, sh.BlockSize())
				for jj := range d {
					d[jj] = 0xB0 ^ byte(w) ^ byte(blk) ^ byte(jj)
				}
				if err := sh.Write(ctx, blk, d); err != nil {
					t.Errorf("concurrent write %d: %v", blk, err)
					return
				}
				mu.Lock()
				vals[blk] = d
				mu.Unlock()
			}
		}(w)
	}

	if err := r.Run(); err != nil {
		t.Fatalf("migration failed: %v", err)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if st := r.Status(); st.Phase != wire.ReshardPhaseDone || st.From != 2 || st.To != 3 || st.Watermark != st.Total {
		t.Fatalf("terminal status %+v, want Done 2→3 at full watermark", st)
	}
	if sh.Shards() != 3 {
		t.Fatalf("Shards() = %d after cutover, want 3", sh.Shards())
	}
	if want := perShard * 3; sh.NumBlocks() != want {
		t.Fatalf("NumBlocks = %d after grow, want %d", sh.NumBlocks(), want)
	}
	if sh.Generation() != 1 {
		t.Fatalf("Generation = %d after cutover, want 1", sh.Generation())
	}
	verifyBlocks(t, sh, vals, "after cutover")

	// Fresh tail space is serveable.
	tail := perShard*3 - 1
	if err := sh.Access(ctx, tail); err != nil {
		t.Fatalf("access of fresh tail block %d: %v", tail, err)
	}

	// Journal: strictly increasing watermarks, then exactly one cutover.
	log := j.log()
	if len(log) == 0 || log[len(log)-1] != "cutover" {
		t.Fatalf("journal did not end in a cutover: %v", log)
	}
	last := int64(0)
	for _, ev := range log[:len(log)-1] {
		var w int64
		if _, err := fmt.Sscanf(ev, "range %d", &w); err != nil {
			t.Fatalf("unexpected journal event %q in %v", ev, log)
		}
		if w <= last && !(w == 0 && last == 0) {
			t.Fatalf("watermarks not increasing: %v", log)
		}
		last = w
	}
	if last != oldN {
		t.Fatalf("final watermark %d, want the full source space %d", last, oldN)
	}

	info := sh.ReshardInfo()
	if info.Phase != wire.ReshardPhaseDone || info.Shards != 3 || info.Gen != 1 {
		t.Fatalf("ReshardInfo after cutover: %+v", info)
	}
}

// TestReshardShrink runs a live 3→2 migration: the served space contracts
// to perShard*2 at Begin (tail ids are refused, not silently dropped at
// cutover), kept-range values survive, and the old fleet retires.
func TestReshardShrink(t *testing.T) {
	sh, err := NewSharded(newFleet(t, 31, 3), Config{Queue: 64, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ctx := context.Background()
	perShard := sh.NumBlocks() / 3
	keptN := perShard * 2

	vals := seedBlocks(t, sh, 48, 0xC3)
	kept := map[int64][]byte{}
	for blk, d := range vals {
		if blk < keptN {
			kept[blk] = d
		}
	}

	j := &memJournal{}
	r, err := sh.BeginReshard(newFleet(t, 32, 2), ReshardConfig{Journal: j, RangeSize: 128, Gen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sh.NumBlocks() != keptN {
		t.Fatalf("served space %d at shrink begin, want the kept space %d", sh.NumBlocks(), keptN)
	}
	// The retired tail is refused from Begin on.
	if err := sh.Write(ctx, keptN, make([]byte, sh.BlockSize())); err == nil {
		t.Fatal("write into the retiring tail was accepted")
	}

	if err := r.Run(); err != nil {
		t.Fatalf("migration failed: %v", err)
	}
	if sh.Shards() != 2 || sh.NumBlocks() != keptN {
		t.Fatalf("after shrink: %d shards × space %d, want 2 × %d", sh.Shards(), sh.NumBlocks(), keptN)
	}
	verifyBlocks(t, sh, kept, "after shrink cutover")
}

// TestReshardAbort rolls a migration back mid-flight: the watermark must
// retreat to zero, the old layout must own everything again with every
// value intact (including writes landed while migrated), and the journal
// must record the direction flip before the rollback completion.
func TestReshardAbort(t *testing.T) {
	sh, err := NewSharded(newFleet(t, 41, 2), Config{Queue: 64, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ctx := context.Background()
	oldN := sh.NumBlocks()
	vals := seedBlocks(t, sh, 32, 0xD4)

	j := &memJournal{}
	// Small ranges plus a pace give Abort a window to land mid-copy.
	r, err := sh.BeginReshard(newFleet(t, 42, 3), ReshardConfig{Journal: j, RangeSize: 32, Pace: 2 * time.Millisecond, Gen: 1})
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- r.Run() }()

	// Wait until some progress, write a value into migrated space, abort.
	for r.Status().Watermark == 0 {
		time.Sleep(time.Millisecond)
	}
	d := make([]byte, sh.BlockSize())
	for i := range d {
		d[i] = 0xE5 ^ byte(i)
	}
	if err := sh.Write(ctx, 0, d); err != nil {
		t.Fatalf("write during migration: %v", err)
	}
	vals[0] = d
	if err := r.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if err := <-runDone; err != nil {
		t.Fatalf("aborted migration returned %v, want nil", err)
	}

	if st := r.Status(); st.Phase != wire.ReshardPhaseAborted || st.Watermark != 0 {
		t.Fatalf("status after abort %+v, want Aborted at watermark 0", st)
	}
	if sh.Shards() != 2 || sh.NumBlocks() != oldN || sh.Generation() != 0 {
		t.Fatalf("layout after abort: %d shards, %d blocks, gen %d — want the old 2×%d gen 0",
			sh.Shards(), sh.NumBlocks(), sh.Generation(), oldN)
	}
	verifyBlocks(t, sh, vals, "after abort")

	log := j.log()
	if len(log) < 2 || log[len(log)-1] != "aborted" {
		t.Fatalf("journal did not end in aborted: %v", log)
	}
	flip := -1
	for i, ev := range log {
		if ev == "abort-begin" {
			flip = i
			break
		}
	}
	if flip < 0 {
		t.Fatalf("no abort-begin in journal %v", log)
	}
	// After the flip the watermarks retreat monotonically.
	prev := int64(1 << 62)
	for _, ev := range log[flip+1 : len(log)-1] {
		var w int64
		if _, err := fmt.Sscanf(ev, "range %d", &w); err != nil {
			t.Fatalf("unexpected event %q after abort-begin: %v", ev, log)
		}
		if w >= prev {
			t.Fatalf("rollback watermarks not retreating: %v", log)
		}
		prev = w
	}

	// A second migration can start after the rollback retired the first.
	r2, err := sh.BeginReshard(newFleet(t, 43, 3), ReshardConfig{RangeSize: 256})
	if err != nil {
		t.Fatalf("begin after abort: %v", err)
	}
	r2.Stop()
}

// TestReshardPauseResume checks the pause gate: a paused migration's
// watermark freezes while dual routing keeps serving, and resume drives
// it to completion.
func TestReshardPauseResume(t *testing.T) {
	sh, err := NewSharded(newFleet(t, 51, 2), Config{Queue: 64, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	vals := seedBlocks(t, sh, 16, 0xF6)

	r, err := sh.BeginReshard(newFleet(t, 52, 3), ReshardConfig{RangeSize: 32, Pace: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- r.Run() }()
	for r.Status().Watermark == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := r.Pause(); err != nil {
		t.Fatalf("pause: %v", err)
	}
	if err := r.Pause(); err == nil {
		t.Fatal("pausing a paused migration succeeded")
	}
	// The copier parks between ranges; once parked the watermark is frozen.
	var w1 int64
	deadline := time.Now().Add(2 * time.Second)
	for {
		w1 = r.Status().Watermark
		time.Sleep(20 * time.Millisecond)
		if r.Status().Watermark == w1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("paused copier kept advancing")
		}
	}
	// Serving continues under the frozen dual layout.
	verifyBlocks(t, sh, vals, "while paused")
	if st := r.Status(); st.Phase != wire.ReshardPhasePaused {
		t.Fatalf("phase %v while paused", st.Phase)
	}
	if err := r.Resume(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := <-runDone; err != nil {
		t.Fatalf("resumed migration failed: %v", err)
	}
	if sh.Shards() != 3 {
		t.Fatalf("Shards() = %d after resume-to-done, want 3", sh.Shards())
	}
	verifyBlocks(t, sh, vals, "after resume cutover")
}

// TestReshardJournalFailureFreezes injects a journal failure mid-copy:
// the migration must freeze in Failed with the error surfaced, routing
// must keep serving the dual layout at the last durable watermark, and a
// shutdown Stop must not flip the terminal phase.
func TestReshardJournalFailureFreezes(t *testing.T) {
	sh, err := NewSharded(newFleet(t, 61, 2), Config{Queue: 64, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	vals := seedBlocks(t, sh, 16, 0x17)

	j := &memJournal{failOn: "range"}
	r, err := sh.BeginReshard(newFleet(t, 62, 3), ReshardConfig{Journal: j, RangeSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	var cbPhase wire.ReshardPhase
	var cbErr error
	cbDone := make(chan struct{})
	r.cfg.OnDone = func(p wire.ReshardPhase, e error) { cbPhase, cbErr = p, e; close(cbDone) }

	if err := r.Run(); err == nil {
		t.Fatal("migration succeeded through a failing journal")
	}
	<-cbDone
	if cbPhase != wire.ReshardPhaseFailed || cbErr == nil {
		t.Fatalf("OnDone(%v, %v), want (Failed, the journal error)", cbPhase, cbErr)
	}
	if st := r.Status(); st.Phase != wire.ReshardPhaseFailed || st.Watermark != 0 {
		t.Fatalf("status %+v, want Failed at the last durable watermark 0", st)
	}
	if r.Err() == nil {
		t.Fatal("Err() nil on a failed migration")
	}
	// Dual routing still serves every block.
	verifyBlocks(t, sh, vals, "while frozen")
	// The frozen migration refuses steering but not Stop.
	if err := r.Resume(); err == nil {
		t.Fatal("resumed a failed migration")
	}
	if err := r.Abort(); err == nil {
		t.Fatal("aborted a failed migration")
	}
	r.Stop()
	if st := r.Status(); st.Phase != wire.ReshardPhaseFailed {
		t.Fatalf("Stop flipped the terminal phase to %v", st.Phase)
	}
}

// TestBeginReshardRejections checks every Begin precondition.
func TestBeginReshardRejections(t *testing.T) {
	sh, err := NewSharded(newFleet(t, 71, 2), Config{Queue: 32, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	if _, err := sh.BeginReshard(nil, ReshardConfig{}); err == nil {
		t.Fatal("accepted an empty target fleet")
	}
	if _, err := sh.BeginReshard(newFleet(t, 72, 2), ReshardConfig{}); err == nil {
		t.Fatal("accepted a migration to the current width")
	}
	taller, err := aboram.New(aboram.Options{Levels: 9, Seed: 1, EncryptionKey: testKey})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.BeginReshard([]Engine{taller, newTestORAM(t, 73), newTestORAM(t, 74)}, ReshardConfig{}); err == nil {
		t.Fatal("accepted a target fleet with mismatched geometry")
	}
	if _, err := sh.BeginReshard(newFleet(t, 75, 3), ReshardConfig{Watermark: 1 << 40}); err == nil {
		t.Fatal("accepted a watermark past the space")
	}
	if _, err := sh.BeginReshard(newFleet(t, 76, 3), ReshardConfig{Watermark: -1}); err == nil {
		t.Fatal("accepted a negative watermark")
	}

	r, err := sh.BeginReshard(newFleet(t, 77, 3), ReshardConfig{})
	if err != nil {
		t.Fatalf("valid begin refused: %v", err)
	}
	if _, err := sh.BeginReshard(newFleet(t, 78, 4), ReshardConfig{}); err == nil {
		t.Fatal("accepted a second concurrent migration")
	}
	r.Stop()

	// An unencrypted fleet cannot be resharded: the copier needs a
	// readable data plane.
	plain := make([]Engine, 2)
	for i := range plain {
		o, err := aboram.New(aboram.Options{Levels: 8, Seed: ShardSeed(79, i)})
		if err != nil {
			t.Fatal(err)
		}
		plain[i] = o
	}
	psh, err := NewSharded(plain, Config{Queue: 32, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer psh.Close()
	plainTarget := make([]Engine, 3)
	for i := range plainTarget {
		o, err := aboram.New(aboram.Options{Levels: 8, Seed: ShardSeed(80, i)})
		if err != nil {
			t.Fatal(err)
		}
		plainTarget[i] = o
	}
	if _, err := psh.BeginReshard(plainTarget, ReshardConfig{}); err == nil {
		t.Fatal("accepted resharding an unencrypted fleet")
	}
}

// TestReshardResumeWatermark checks crash-resume plumbing at the serving
// layer: beginning with a nonzero watermark (as the daemon does from the
// recovered journal) serves the prefix from the target fleet and copies
// only the remainder.
func TestReshardResumeWatermark(t *testing.T) {
	// Build the "pre-crash" state by hand: target fleet already holds
	// blocks [0, w) — the copier put them there before the crash.
	src := newFleet(t, 81, 2)
	dst := newFleet(t, 82, 3)
	sh, err := NewSharded(src, Config{Queue: 64, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ctx := context.Background()
	vals := seedBlocks(t, sh, 24, 0x28)

	const w = 100
	// Mirror the already-migrated prefix into the target engines directly
	// (engine-level writes, like recovery replaying a journal would see).
	for b := int64(0); b < w; b++ {
		data, err := sh.Read(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		di, dl := RouteBlock(b, 3)
		if err := dst[di].Write(dl, data); err != nil {
			t.Fatal(err)
		}
	}

	j := &memJournal{}
	r, err := sh.BeginReshard(dst, ReshardConfig{Journal: j, RangeSize: 64, Watermark: w, Gen: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Status(); st.Watermark != w {
		t.Fatalf("resumed watermark %d, want %d", st.Watermark, w)
	}
	// The prefix serves from the target fleet before any further copying.
	verifyBlocks(t, sh, vals, "resumed dual layout")
	if err := r.Run(); err != nil {
		t.Fatalf("resumed migration failed: %v", err)
	}
	if sh.Shards() != 3 || sh.Generation() != 2 {
		t.Fatalf("after resumed cutover: %d shards gen %d, want 3 shards gen 2", sh.Shards(), sh.Generation())
	}
	verifyBlocks(t, sh, vals, "after resumed cutover")
	// The journal's first record starts from the resumed watermark, not 0.
	log := j.log()
	if len(log) == 0 {
		t.Fatal("empty journal")
	}
	var first int64
	if _, err := fmt.Sscanf(log[0], "range %d", &first); err != nil || first <= w {
		t.Fatalf("first resumed record %q, want a watermark above %d", log[0], w)
	}
}

// TestReshardWriteFenceHint checks the migration-aware backoff satellite:
// a write aimed into the fenced range is quoted extra wait covering the
// remaining copy work, while blocks outside the fence are not.
func TestReshardWriteFenceHint(t *testing.T) {
	sh, err := NewSharded(newFleet(t, 91, 2), Config{Queue: 32, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	// Warm the service EWMAs so opCost quotes nonzero.
	for i := int64(0); i < 8; i++ {
		if err := sh.Access(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	r, err := sh.BeginReshard(newFleet(t, 92, 3), ReshardConfig{RangeSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	// Publish a fenced table by hand (the copier would).
	rt := sh.rt.Load()
	fenced := *rt
	fenced.moveLo, fenced.moveHi, fenced.fence = 0, 16, make(chan struct{})
	sh.rt.Store(&fenced)
	defer func() {
		sh.rt.Store(rt)
		close(fenced.fence)
	}()

	in := sh.RetryAfterHint(3, wire.OpWrite)
	out := sh.RetryAfterHint(17, wire.OpWrite)
	if in <= out {
		t.Fatalf("fenced write hint %v not above unfenced %v", in, out)
	}
	// Reads are not fenced and must not pay the migration surcharge.
	if rh := sh.RetryAfterHint(3, wire.OpRead); rh >= in {
		t.Fatalf("read hint %v priced like a fenced write %v", rh, in)
	}
}
