package check

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/vfs"
)

// This file is the kill-recover oracle for the durable engine: it drives
// a randomized op sequence against internal/durable through a
// fault-injecting filesystem, lets the injector "kill the process" at a
// seeded mutation count (mid-WAL-append, mid-snapshot-write, between
// publish steps — wherever the counter lands), reopens the directory the
// way a restarted daemon would, and checks the durability contract:
//
//   - every acknowledged write (Engine.Write returned nil) is present
//     after recovery, always;
//   - the single write in flight at the crash (returned an error) may
//     hold either its old or its new content, but nothing else;
//   - all other blocks are untouched.
//
// A schedule is a pure function of its seed, so a failing (seed, ops)
// pair is a repro, in the same spirit as the differential oracle. The
// model, the incarnation loop, and the adjudication of every failure are
// harness.go's; this file keeps the op stream and the recovery tallies.

// CrashReport summarizes one seeded kill-recover schedule.
type CrashReport struct {
	ScheduleHeader
	Replayed      int    // WAL records replayed by recoveries
	TornTails     int    // recoveries that truncated a damaged record
	DeltasApplied int    // chain deltas applied across all recoveries
	DeltasSkipped int    // unreadable deltas recoveries stopped short of
	DeltasWritten uint64 // delta checkpoints published across all rounds
	Compactions   uint64 // live-WAL compaction runs across all rounds
}

func (r *CrashReport) String() string {
	return fmt.Sprintf("%v, %d replayed, %d torn tails, %d deltas applied (%d skipped), %d deltas written, %d compactions",
		&r.ScheduleHeader, r.Replayed, r.TornTails, r.DeltasApplied, r.DeltasSkipped, r.DeltasWritten, r.Compactions)
}

// crashSiteKind buckets an injector crash site by the file it hit, so
// reports and tests can assert coverage of every crash phase (WAL append
// or compaction rewrite, full-snapshot publish, delta publish) without
// depending on exact op strings. Compaction temps are named wal-*.tmp,
// so a kill inside a compaction rewrite lands in the "wal" bucket.
func crashSiteKind(site string) string {
	switch {
	case strings.Contains(site, "wal-"):
		return "wal"
	case strings.Contains(site, "snap-"):
		return "snap"
	case strings.Contains(site, "delta-"):
		return "delta"
	case strings.Contains(site, "reshard."):
		return "reshard" // reshard.tmp / reshard.log — the migration journal
	case site == "":
		return "none"
	default:
		return strings.Fields(site)[0]
	}
}

// crashOptions builds the engine configuration for one incarnation.
// SnapshotEvery is tiny so a schedule of a few hundred writes crosses
// many epoch rotations and the crash counter can land inside snapshot
// publishes, not just WAL appends. The delta variant is the incremental
// configuration: most rotations publish a delta, every third a full
// base, the live segment compacts every 5 appends, and publishes are
// synchronous so the whole schedule stays a pure function of its seed.
func crashOptions(dir string, seed uint64, fs vfs.FS, delta bool) durable.Options {
	opt := durable.Options{
		Dir:           dir,
		ORAM:          oracleORAM(seed),
		SnapshotEvery: 8,
		FS:            fs,
	}
	if delta {
		opt.DeltaSnapshots = true
		opt.BaseEvery = 3
		opt.CompactEvery = 5
		opt.SyncPublish = true
	}
	return opt
}

// RunCrashSchedule runs one seeded schedule of totalOps operations in dir
// (which must be empty or a previous incarnation of the same schedule),
// crashing and recovering until the op budget is spent, then does a final
// clean recovery and full read-back. It returns the report, or an error
// describing the first contract violation.
func RunCrashSchedule(dir string, seed uint64, totalOps int) (*CrashReport, error) {
	return runCrashSchedule(dir, seed, totalOps, false)
}

// RunCrashScheduleDelta is RunCrashSchedule against the delta-snapshot
// engine configuration: incremental checkpoints chained on periodic full
// bases plus live-WAL compaction, so the seeded kills also land inside
// delta publishes and compaction rewrites. The durability contract being
// checked is identical.
func RunCrashScheduleDelta(dir string, seed uint64, totalOps int) (*CrashReport, error) {
	return runCrashSchedule(dir, seed, totalOps, true)
}

func runCrashSchedule(dir string, seed uint64, totalOps int, delta bool) (*CrashReport, error) {
	r := rng.New(seed ^ 0x6372617368) // decorrelate from the engine's protocol stream
	rep := &CrashReport{ScheduleHeader: newHeader(seed)}
	numBlocks, blockB, err := oracleGeometry(seed)
	if err != nil {
		return nil, err
	}
	// The op stream is generated up front and consumed across crashes, so
	// the workload is identical no matter where the kills land.
	ops := GenOps(seed, totalOps, numBlocks)
	model := newAckModel(blockB)
	next := 0 // index of the first unapplied op

	// reopen opens the directory the way a restarted daemon would and
	// checks what came back. A kill during recovery itself (replay or
	// epoch publish) acknowledged nothing new, so the contract is
	// unchanged and the next incarnation picks the pieces up.
	reopen := func(inc *incarnation) (*durable.Engine, error) {
		eng, err := inc.open(crashOptions(dir, seed, inc.fs, delta))
		if err != nil {
			return nil, err
		}
		rec := eng.Recovery()
		rep.Replayed += rec.RecordsReplayed
		rep.DeltasApplied += rec.DeltasApplied
		rep.DeltasSkipped += rec.DeltasSkipped
		if rec.TornTail {
			rep.TornTails++
		}
		if err := model.verify(eng.Read); err != nil {
			return nil, fmt.Errorf("recovery %+v: %w", rec, err)
		}
		return eng, nil
	}

	return rep, rep.run(schedule{
		name:      "schedule",
		maxRounds: totalOps + 16,
		done:      func() bool { return next >= len(ops) },
		draw:      func() faults.Config { return drawKill(r, 60) },
		round: func(inc *incarnation) error {
			eng, err := reopen(inc)
			if err != nil {
				return err
			}
			inc.onClose(func() {
				st := eng.Stats() // counters survive poisoning
				rep.DeltasWritten += st.DeltasWritten
				rep.Compactions += st.CompactionRuns
			})
			return serveGenOps(eng, model, ops, &next, &rep.ScheduleHeader, nil)
		},
		final: func(inc *incarnation) error {
			_, err := reopen(inc)
			return err
		},
	})
}

// serveGenOps applies the generated op stream to a durable engine from
// *next on, checking reads against the model and acknowledging writes
// into it, until the stream is spent or the engine dies inside an op. An
// op the kill interrupted is spent, not retried: no response reached a
// client, so a write is left in doubt. died, when set, reports a death
// the op did not surface as an error (the failover oracle's link kills).
func serveGenOps(eng *durable.Engine, model *ackModel, ops []Op, next *int, h *ScheduleHeader, died func() bool) error {
	for *next < len(ops) {
		i, op := *next, ops[*next]
		*next++
		var data []byte
		var err error
		switch op.Kind {
		case OpWrite:
			data = Fill(model.blockB, op.Block, op.Fill)
			err = eng.Write(op.Block, data)
		case OpRead:
			var got []byte
			if got, err = eng.Read(op.Block); err == nil && !bytes.Equal(got, model.want(op.Block)) {
				return fmt.Errorf("op %d: read(%d) diverged from model pre-crash", i, op.Block)
			}
		default: // OpAccess and OpCheckpoint both become pattern-only touches
			err = eng.Access(op.Block)
		}
		dead := died != nil && died()
		if err != nil || dead {
			if op.Kind == OpWrite {
				model.doubt(op.Block, data)
			}
			if err != nil {
				err = failed(fmt.Sprintf("op %d (%v)", i, op.Kind), err)
			}
			return err
		}
		if op.Kind == OpWrite {
			model.ack(op.Block, data)
			h.AckedWrites++
		}
	}
	return nil
}
