package check

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/aboram"
	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/vfs"
)

// Reshard kill-recover oracle: a live P→P′ migration driven end to end
// — durable shard fleets, migration journal, dual-routing Sharded —
// over a fault-injecting filesystem that kills the "daemon" at seeded
// mutation counts. One injector covers every fleet directory AND the
// journal, so the kills land mid-range-copy (shard WAL appends and
// snapshot publishes), mid-journal-append (the reshard.tmp publish
// steps), mid-cutover, and inside recovery itself (the next round's
// engine opens). After every kill the oracle recovers through the same
// server.Fleet aboramd does — scan the journal, resolve the layout,
// reopen the fleets of the resolved generations, resume the migration
// from the durable watermark — and checks:
//
//   - zero acked-write loss: every write acknowledged before the kill
//     reads back with its exact content through the recovered routing,
//     in every incarnation;
//   - no double-apply / rollback: a block never surfaces a value other
//     than its latest acknowledged one (the single in-flight write at
//     the kill may legally surface either its old or its new content,
//     and is then pinned to whichever recovery chose);
//   - convergence: the schedule ends with the migration complete (or
//     rolled back, in Abort mode) and the final layout's content
//     fingerprint byte-identical to an offline rebuild — fresh P′
//     trees fed the acknowledged model directly.
//
// The fault schedule is a pure function of the seed; the copier runs
// concurrently with the writer, so the oracle asserts invariants, not
// exact interleavings.

// ReshardCrashOptions tunes one schedule.
type ReshardCrashOptions struct {
	// Seed drives the kill schedule, the workload, and the tree RNG.
	Seed uint64
	// Dir is the data directory (must start empty).
	Dir string
	// From and To are the shard counts to migrate between.
	From, To int
	// Levels is the per-shard tree height (default 8, the scheme
	// minimum).
	Levels int
	// Abort flips the schedule into a rollback: once the copy has made
	// progress the migration is aborted, and the oracle expects the old
	// layout back with every acknowledged write intact.
	Abort bool
	// RangeSize is the copier's fenced range (default 8 — small, so a
	// schedule crosses many journal records and kills can land inside
	// journal appends, not just shard-store writes).
	RangeSize int64
	// KillWindow bounds the injected kill: each incarnation dies after
	// 1 + seed mod KillWindow filesystem mutations (default 700 —
	// large enough for real copy progress between kills, small enough
	// that a schedule dies many times per migration).
	KillWindow int
	// WritesPerRound caps the client writes issued per incarnation
	// (default 60).
	WritesPerRound int
	// MaxRounds bounds incarnations before the schedule is declared
	// stuck (default 400).
	MaxRounds int
}

func (o ReshardCrashOptions) withDefaults() ReshardCrashOptions {
	if o.Levels <= 0 {
		o.Levels = 8
	}
	if o.RangeSize <= 0 {
		o.RangeSize = 8
	}
	if o.KillWindow <= 0 {
		o.KillWindow = 700
	}
	if o.WritesPerRound <= 0 {
		o.WritesPerRound = 60
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 400
	}
	return o
}

// ReshardCrashReport summarizes one schedule.
type ReshardCrashReport struct {
	Seed        uint64
	From, To    int
	Rounds      int            // incarnations, crashed or clean
	Crashes     int            // injected kills (serving or recovery)
	Resumes     int            // incarnations that resumed an in-flight migration
	Sites       map[string]int // crash-site histogram by file kind
	AckedWrites int            // writes acknowledged across all rounds
	Aborted     bool           // the journal shows a completed rollback
	FinalShards int
	FinalGen    uint64
	Fingerprint [32]byte // SHA-256 over the final layout's plaintext blocks in order
}

func (r *ReshardCrashReport) String() string {
	return fmt.Sprintf("reshard crash oracle seed %d (%d→%d): %d rounds, %d crashes (sites %v), %d resumes, %d acked writes, aborted=%v, final %d shards gen %d",
		r.Seed, r.From, r.To, r.Rounds, r.Crashes, r.Sites, r.Resumes, r.AckedWrites, r.Aborted, r.FinalShards, r.FinalGen)
}

// reshardCrashRun is one schedule's state threaded across incarnations.
type reshardCrashRun struct {
	opt     ReshardCrashOptions
	r       *rng.Source
	rep     *ReshardCrashReport
	blockB  int
	space   int64 // writable address space: perShard * min(From, To)
	model   map[int64][]byte
	pending *pendingWrite
	seq     uint64
}

// open recovers the deployment on fs: journal, layout, and the serving
// generation's engines.
func (run *reshardCrashRun) open(fs vfs.FS) (*server.Fleet, error) {
	return server.OpenFleet(server.FleetConfig{Engine: durable.Options{
		Dir:           run.opt.Dir,
		ORAM:          aboram.Options{Levels: run.opt.Levels, Seed: run.opt.Seed, EncryptionKey: oracleKey},
		SnapshotEvery: 16,
		FS:            fs,
	}}, run.opt.From)
}

// verify checks the recovered routing against the acknowledged model:
// pending first (either value legal, then pinned), then acknowledged
// blocks byte-exact. sample > 0 bounds how many model blocks the check
// reads (a per-round cost control — loss is permanent, so the full
// sweep in finish still catches anything a sample missed, just later).
func (run *reshardCrashRun) verify(sh *server.Sharded, stage string, sample int) error {
	ctx := context.Background()
	if p := run.pending; p != nil {
		got, err := sh.Read(ctx, p.block)
		if err != nil {
			return fmt.Errorf("%s: reading pending block %d: %w", stage, p.block, err)
		}
		old := p.old
		if old == nil {
			old = make([]byte, run.blockB)
		}
		switch {
		case bytes.Equal(got, p.new):
			run.model[p.block] = p.new
		case bytes.Equal(got, old):
			if p.old != nil {
				run.model[p.block] = p.old
			}
		default:
			return fmt.Errorf("%s: pending block %d holds neither its old nor its new content", stage, p.block)
		}
		run.pending = nil
	}
	checked := 0
	for blk, want := range run.model {
		if sample > 0 && checked >= sample {
			break
		}
		checked++
		got, err := sh.Read(ctx, blk)
		if err != nil {
			return fmt.Errorf("%s: reading block %d: %w", stage, blk, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s: block %d lost its acknowledged content", stage, blk)
		}
	}
	return nil
}

func reshardFill(blockB int, block int64, seq uint64) []byte {
	d := make([]byte, blockB)
	for i := range d {
		d[i] = byte(seq) ^ byte(block*7) ^ byte(i*13)
	}
	return d
}

// RunReshardCrashSchedule runs one seeded kill-recover schedule in
// opt.Dir and returns its report, or an error naming the first contract
// violation.
func RunReshardCrashSchedule(opt ReshardCrashOptions) (*ReshardCrashReport, error) {
	opt = opt.withDefaults()
	if opt.From == opt.To || opt.From < 1 || opt.To < 1 {
		return nil, fmt.Errorf("check: reshard oracle needs two distinct positive widths, got %d→%d", opt.From, opt.To)
	}
	probe, err := aboram.New(aboram.Options{Levels: opt.Levels, Seed: opt.Seed, EncryptionKey: oracleKey})
	if err != nil {
		return nil, err
	}
	run := &reshardCrashRun{
		opt:    opt,
		r:      rng.New(opt.Seed ^ 0x7265736864), // decorrelate from the trees' streams
		rep:    &ReshardCrashReport{Seed: opt.Seed, From: opt.From, To: opt.To, Sites: make(map[string]int)},
		blockB: probe.BlockSize(),
		space:  probe.NumBlocks() * int64(min(opt.From, opt.To)),
		model:  make(map[int64][]byte),
	}
	rep := run.rep

	for {
		if rep.Rounds >= opt.MaxRounds {
			return rep, fmt.Errorf("check: reshard schedule %d stuck after %d rounds", opt.Seed, rep.Rounds)
		}
		done, err := run.round()
		if err != nil {
			return rep, err
		}
		if done {
			break
		}
	}
	return rep, run.finish()
}

// round runs one faulted incarnation: recover, resume or begin the
// migration, serve writes until the kill (or completion), tear down.
// It reports done=true once the journal shows the migration terminal.
func (run *reshardCrashRun) round() (done bool, err error) {
	opt, rep := run.opt, run.rep
	rep.Rounds++
	in := faults.New(faults.Config{
		Seed:       run.r.Uint64(),
		CrashAfter: 1 + int(run.r.Uint64n(uint64(opt.KillWindow))),
		TornWrites: true,
	})
	fs := faults.WrapFS(vfs.OS{}, in)

	// crashRound adjudicates a recovery-stage failure: a kill ends the
	// round (the next one recovers); anything else is a contract
	// violation — in particular the journal publishes atomically, so a
	// crash must never leave an unresolvable history.
	crashRound := func(stage string, err error) (bool, error) {
		if !in.Crashed() {
			return false, fmt.Errorf("check: round %d: %s failed without a crash: %w", rep.Rounds, stage, err)
		}
		rep.Crashes++
		rep.Sites[crashSiteKind(in.CrashSite())]++
		return false, nil
	}

	fleet, err := run.open(fs)
	if err != nil {
		return crashRound("recovering the serving fleet", err)
	}
	defer fleet.Close()
	lay := fleet.Layout()
	if lay.Active == nil && lay.MaxGen > 0 {
		return true, nil // migration terminal (cut over or rolled back)
	}

	// Resume the journaled migration, or durably begin a new one.
	if lay.Active != nil {
		rep.Resumes++
	}
	target, err := fleet.OpenTarget(opt.To)
	if err != nil {
		return crashRound("beginning or recovering the target fleet", err)
	}

	sh, err := server.NewSharded(fleet.Engines(), server.Config{Queue: 64, Batch: 8})
	if err != nil {
		return false, fmt.Errorf("check: round %d: %w", rep.Rounds, err)
	}
	defer sh.Close() // error paths; runs before the fleet's, schedulers stop first
	sh.SetGeneration(lay.Gen)
	res, err := fleet.BeginReshard(sh, target, server.ReshardConfig{RangeSize: opt.RangeSize})
	if err != nil {
		return false, fmt.Errorf("check: round %d: begin: %w", rep.Rounds, err)
	}

	// The recovered dual routing must already serve the acked model (a
	// bounded sample per round; the final sweep reads everything).
	if err := run.verify(sh, fmt.Sprintf("round %d recovery", rep.Rounds), 48); err != nil {
		return false, err
	}

	runDone := make(chan error, 1)
	go func() { runDone <- res.Run() }()

	ctx := context.Background()
	var migErr error
	migDone, abortAsked, writes := false, false, 0
	writeOne := func() bool {
		blk := int64(run.r.Uint64n(uint64(run.space)))
		run.seq++
		data := reshardFill(run.blockB, blk, run.seq)
		if err := sh.Write(ctx, blk, data); err != nil {
			run.pending = &pendingWrite{block: blk, old: run.model[blk], new: data}
			return false
		}
		run.model[blk] = data
		rep.AckedWrites++
		return true
	}
	for !in.Crashed() && run.pending == nil {
		select {
		case migErr = <-runDone:
			migDone = true
		default:
		}
		if migDone {
			break
		}
		if opt.Abort && !abortAsked {
			if st := res.Status(); st.Watermark > 0 && st.Watermark < st.Total {
				res.Abort() // no-op when already rolling back
				abortAsked = true
			}
		}
		if writes < opt.WritesPerRound {
			if !writeOne() {
				break
			}
			writes++
		} else {
			time.Sleep(200 * time.Microsecond)
		}
	}
	if migDone && migErr == nil && !in.Crashed() {
		// Exercise the cut-over (or rolled-back) layout until the kill or
		// a small extra budget — the schedule also covers post-terminal
		// serving crashes.
		for extra := 0; extra < 24 && !in.Crashed(); extra++ {
			if !writeOne() {
				break
			}
		}
	}
	if !migDone {
		res.Stop()
		migErr = <-runDone
	}
	// Tear down before adjudicating: the closes sync the WALs, so the kill
	// may still land here. (The deferred closes are then no-ops.)
	sh.Close()
	fleet.Close()

	switch {
	case in.Crashed():
		rep.Crashes++
		rep.Sites[crashSiteKind(in.CrashSite())]++
	case run.pending != nil:
		return false, fmt.Errorf("check: round %d: write to block %d failed without a crash", rep.Rounds, run.pending.block)
	case migDone && migErr != nil:
		return false, fmt.Errorf("check: round %d: migration failed without a crash: %w", rep.Rounds, migErr)
	}
	return false, nil
}

// finish recovers the terminal layout on the clean filesystem, verifies
// the full model through it, and fingerprints it against an offline
// rebuild: fresh final-width trees fed the acknowledged model directly.
func (run *reshardCrashRun) finish() error {
	opt, rep := run.opt, run.rep
	rep.Rounds++
	fleet, err := run.open(vfs.OS{})
	if err != nil {
		return fmt.Errorf("check: final recovery: %w", err)
	}
	defer fleet.Close()
	lay := fleet.Layout()
	if lay.Active != nil {
		return fmt.Errorf("check: final recovery: migration still active (%+v)", lay.Active)
	}
	// A rollback leaves generation 0 serving with a generation burned.
	rep.Aborted = lay.Gen < lay.MaxGen
	rep.FinalShards, rep.FinalGen = lay.Shards, lay.Gen

	sh, err := server.NewSharded(fleet.Engines(), server.Config{Queue: 64, Batch: 8})
	if err != nil {
		return err
	}
	defer sh.Close()
	if err := run.verify(sh, "final recovery", 0); err != nil {
		return err
	}

	// Online fingerprint: plaintext content of every block, in order.
	ctx := context.Background()
	n := sh.NumBlocks()
	online := sha256.New()
	for b := int64(0); b < n; b++ {
		data, err := sh.Read(ctx, b)
		if err != nil {
			return fmt.Errorf("check: fingerprinting block %d: %w", b, err)
		}
		online.Write(data)
	}
	copy(rep.Fingerprint[:], online.Sum(nil))

	// Offline rebuild: fresh trees at the final width, fed the model.
	rebuilt := make([]*aboram.ORAM, lay.Shards)
	for i := range rebuilt {
		o, err := aboram.New(aboram.Options{Levels: opt.Levels, Seed: server.ShardSeed(server.GenSeed(opt.Seed, lay.Gen), i), EncryptionKey: oracleKey})
		if err != nil {
			return err
		}
		rebuilt[i] = o
	}
	for blk, data := range run.model {
		shard, local := server.RouteBlock(blk, lay.Shards)
		if err := rebuilt[shard].Write(local, data); err != nil {
			return fmt.Errorf("check: offline rebuild write %d: %w", blk, err)
		}
	}
	offline := sha256.New()
	for b := int64(0); b < n; b++ {
		shard, local := server.RouteBlock(b, lay.Shards)
		data, err := rebuilt[shard].Read(local)
		if err != nil {
			return fmt.Errorf("check: offline rebuild read %d: %w", b, err)
		}
		offline.Write(data)
	}
	if !bytes.Equal(online.Sum(nil), offline.Sum(nil)) {
		return fmt.Errorf("check: final layout fingerprint diverges from the offline %d→%d rebuild", opt.From, lay.Shards)
	}
	return nil
}
