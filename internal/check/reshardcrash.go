package check

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/aboram"
	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/server"
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
	// Abort flips the schedule into a rollback: once the copy has made
	// progress the migration is aborted, and the oracle expects the old
	// layout back with every acknowledged write intact.
	Abort bool
	// KillWindow bounds the injected kill: each incarnation dies after
	// 1 + seed mod KillWindow filesystem mutations (default 700 —
	// large enough for real copy progress between kills, small enough
	// that a schedule dies many times per migration).
	KillWindow int
}

const (
	// reshardRangeSize is the copier's fenced range: small, so a schedule
	// crosses many journal records and kills can land inside journal
	// appends, not just shard-store writes.
	reshardRangeSize = 8
	// reshardWritesPerRound caps the client writes issued per incarnation.
	reshardWritesPerRound = 60
	// reshardMaxRounds bounds incarnations before the schedule is
	// declared stuck.
	reshardMaxRounds = 400
	// reshardRoundSample bounds how many acknowledged blocks a round
	// re-reads after recovery (a per-round cost control; the window moves
	// with the round and the final sweep reads everything).
	reshardRoundSample = 48
)

// ReshardCrashReport summarizes one schedule.
type ReshardCrashReport struct {
	ScheduleHeader
	From, To    int
	Resumes     int  // incarnations that resumed an in-flight migration
	Aborted     bool // the journal shows a completed rollback
	FinalShards int
	FinalGen    uint64
	Fingerprint [32]byte // SHA-256 over the final layout's plaintext blocks in order
}

func (r *ReshardCrashReport) String() string {
	return fmt.Sprintf("reshard crash oracle %d→%d, %v, %d resumes, aborted=%v, final %d shards gen %d",
		r.From, r.To, &r.ScheduleHeader, r.Resumes, r.Aborted, r.FinalShards, r.FinalGen)
}

// reshardCrashRun is one schedule's state threaded across incarnations.
type reshardCrashRun struct {
	opt      ReshardCrashOptions
	r        *rng.Source
	rep      *ReshardCrashReport
	space    int64 // writable address space: perShard * min(From, To)
	model    *ackModel
	seq      uint64
	terminal bool // a round found the migration cut over or rolled back
}

// open recovers the deployment on fs: journal, layout, and the serving
// generation's engines.
func (run *reshardCrashRun) open(inc *incarnation) (*server.Fleet, error) {
	fleet, err := server.OpenFleet(server.FleetConfig{Engine: durable.Options{
		Dir:           run.opt.Dir,
		ORAM:          oracleORAM(run.opt.Seed),
		SnapshotEvery: 16,
		FS:            inc.fs,
	}}, run.opt.From)
	if err != nil {
		return nil, failed("recovering the serving fleet", err)
	}
	inc.onClose(func() { fleet.Close() })
	return fleet, nil
}

// serve puts the scheduler fleet the oracle reads and writes through in
// front of a recovered fleet's engines.
func (run *reshardCrashRun) serve(inc *incarnation, fleet *server.Fleet) (*server.Sharded, func(int64) ([]byte, error), error) {
	sh, err := server.NewSharded(fleet.Engines(), server.Config{Queue: 64, Batch: 8})
	if err != nil {
		return nil, nil, err
	}
	inc.onClose(func() { sh.Close() }) // registered after the fleet's, so the schedulers stop first
	return sh, func(b int64) ([]byte, error) { return sh.Read(context.Background(), b) }, nil
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
	if opt.KillWindow <= 0 {
		opt.KillWindow = 700
	}
	if opt.From == opt.To || opt.From < 1 || opt.To < 1 {
		return nil, fmt.Errorf("check: reshard oracle needs two distinct positive widths, got %d→%d", opt.From, opt.To)
	}
	perShard, blockB, err := oracleGeometry(opt.Seed)
	if err != nil {
		return nil, err
	}
	run := &reshardCrashRun{
		opt:   opt,
		r:     rng.New(opt.Seed ^ 0x7265736864), // decorrelate from the trees' streams
		rep:   &ReshardCrashReport{ScheduleHeader: newHeader(opt.Seed), From: opt.From, To: opt.To},
		space: perShard * int64(min(opt.From, opt.To)),
		model: newAckModel(blockB),
	}
	return run.rep, run.rep.run(schedule{
		name:      "reshard schedule",
		maxRounds: reshardMaxRounds,
		done:      func() bool { return run.terminal },
		draw:      func() faults.Config { return drawKill(run.r, opt.KillWindow) },
		round:     run.round,
		final:     run.finish,
	})
}

// round runs one faulted incarnation: recover, resume or begin the
// migration, serve writes until the kill (or completion). One injector
// covers every fleet directory and the journal; the journal publishes
// atomically, so a kill must never leave an unresolvable history — any
// recovery stage that fails without one is a contract violation.
func (run *reshardCrashRun) round(inc *incarnation) error {
	opt, rep := run.opt, run.rep
	fleet, err := run.open(inc)
	if err != nil {
		return err
	}
	lay := fleet.Layout()
	if lay.Active == nil && lay.MaxGen > 0 {
		run.terminal = true // cut over or rolled back
		return nil
	}

	// Resume the journaled migration, or durably begin a new one.
	if lay.Active != nil {
		rep.Resumes++
	}
	target, err := fleet.OpenTarget(opt.To)
	if err != nil {
		return failed("beginning or recovering the target fleet", err)
	}
	sh, read, err := run.serve(inc, fleet)
	if err != nil {
		return err
	}
	sh.SetGeneration(lay.Gen)
	res, err := fleet.BeginReshard(sh, target, server.ReshardConfig{RangeSize: reshardRangeSize})
	if err != nil {
		return fmt.Errorf("begin: %w", err)
	}

	// The recovered dual routing must already serve the acked model.
	if err := run.model.verifyWindow(read, inc.n, reshardRoundSample); err != nil {
		return err
	}

	runDone := make(chan error, 1)
	go func() { runDone <- res.Run() }()

	ctx := context.Background()
	var migErr, writeErr error
	migDone, abortAsked, writes := false, false, 0
	writeOne := func() bool {
		blk := int64(run.r.Uint64n(uint64(run.space)))
		run.seq++
		data := reshardFill(run.model.blockB, blk, run.seq)
		if err := sh.Write(ctx, blk, data); err != nil {
			run.model.doubt(blk, data)
			writeErr = failed(fmt.Sprintf("write to block %d", blk), err)
			return false
		}
		run.model.ack(blk, data)
		rep.AckedWrites++
		return true
	}
	for !inc.in.Crashed() && writeErr == nil {
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
		if writes < reshardWritesPerRound {
			if !writeOne() {
				break
			}
			writes++
		} else {
			time.Sleep(200 * time.Microsecond)
		}
	}
	if migDone && migErr == nil && !inc.in.Crashed() {
		// Exercise the cut-over (or rolled-back) layout until the kill or
		// a small extra budget — the schedule also covers post-terminal
		// serving crashes.
		for extra := 0; extra < 24 && !inc.in.Crashed(); extra++ {
			if !writeOne() {
				break
			}
		}
	}
	if !migDone {
		res.Stop()
		<-runDone // a stopped copier's error is the stop itself
	} else if migErr != nil && writeErr == nil {
		return failed("migration", migErr)
	}
	return writeErr
}

// finish recovers the terminal layout on the clean filesystem, verifies
// the full model through it, and fingerprints it against an offline
// rebuild: fresh final-width trees fed the acknowledged model directly.
func (run *reshardCrashRun) finish(inc *incarnation) error {
	opt, rep := run.opt, run.rep
	fleet, err := run.open(inc)
	if err != nil {
		return err
	}
	lay := fleet.Layout()
	if lay.Active != nil {
		return fmt.Errorf("migration still active (%+v)", lay.Active)
	}
	// A rollback leaves generation 0 serving with a generation burned.
	rep.Aborted = lay.Gen < lay.MaxGen
	rep.FinalShards, rep.FinalGen = lay.Shards, lay.Gen

	sh, read, err := run.serve(inc, fleet)
	if err != nil {
		return err
	}
	if err := run.model.verify(read); err != nil {
		return err
	}

	// Online fingerprint: plaintext content of every block, in order.
	n := sh.NumBlocks()
	if rep.Fingerprint, err = contentHash(n, read); err != nil {
		return fmt.Errorf("fingerprinting the recovered layout: %w", err)
	}

	// Offline rebuild: fresh trees at the final width, fed the model in
	// sorted block order.
	rebuilt := make([]*aboram.ORAM, lay.Shards)
	for i := range rebuilt {
		o, err := aboram.New(oracleORAM(server.ShardSeed(server.GenSeed(opt.Seed, lay.Gen), i)))
		if err != nil {
			return err
		}
		rebuilt[i] = o
	}
	for _, blk := range run.model.blocks() {
		shard, local := server.RouteBlock(blk, lay.Shards)
		if err := rebuilt[shard].Write(local, run.model.acked[blk]); err != nil {
			return fmt.Errorf("offline rebuild write %d: %w", blk, err)
		}
	}
	offline, err := contentHash(n, func(b int64) ([]byte, error) {
		shard, local := server.RouteBlock(b, lay.Shards)
		return rebuilt[shard].Read(local)
	})
	if err != nil {
		return fmt.Errorf("fingerprinting the offline rebuild: %w", err)
	}
	if rep.Fingerprint != offline {
		return fmt.Errorf("final layout fingerprint diverges from the offline %d→%d rebuild", opt.From, lay.Shards)
	}
	return nil
}

// contentHash is SHA-256 over the plaintext of blocks 0..n-1 in order.
func contentHash(n int64, read func(int64) ([]byte, error)) (sum [32]byte, err error) {
	h := sha256.New()
	for b := int64(0); b < n; b++ {
		data, err := read(b)
		if err != nil {
			return sum, fmt.Errorf("block %d: %w", b, err)
		}
		h.Write(data)
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}
