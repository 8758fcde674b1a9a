package check

import (
	"fmt"

	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/vfs"
)

// Group-commit kill-recover oracle. The driver plays the scheduler's
// role: it applies writes in batches through Engine.WriteIdentified and
// acknowledges a batch only after Engine.BatchSync returns — exactly the
// deferred-ack protocol internal/server runs under group commit. The
// injected filesystem runs in DropUnsynced mode (a volatile page cache:
// unsynced appends survive a crash only as a seeded prefix), which is
// the failure model that makes group commit's loss window observable.
//
// The contract checked is the same zero-acked-loss rule, generalized to
// multi-write in-doubt sets: after a crash, every batch-synced write must
// survive; each block touched by the unacknowledged batch in flight may
// hold either its pre-batch content or any value that batch wrote to it
// (recovery keeps the longest durable WAL prefix, so any prefix cut is
// legal); and the whole schedule must issue strictly fewer fsyncs than
// writes — the amortization group commit exists for.

// GroupReport summarizes one seeded group-commit schedule.
type GroupReport struct {
	ScheduleHeader
	Writes  uint64 // engine-acknowledged appends across all rounds
	Syncs   uint64 // WAL fsyncs across all rounds
	Batched uint64 // the subset issued by BatchSync
	Dropped int    // unsynced buffered writes the injector discarded
}

func (r *GroupReport) String() string {
	return fmt.Sprintf("%v, %d syncs (%d batched) for %d appends, %d dropped",
		&r.ScheduleHeader, r.Syncs, r.Batched, r.Writes, r.Dropped)
}

// groupOptions is crashOptions with group commit on and the max-delay
// safety net parked out of the way, so sync counts reflect BatchSync
// alone and the test is deterministic under scheduler stalls.
func groupOptions(dir string, seed uint64, fs vfs.FS) durable.Options {
	o := crashOptions(dir, seed, fs, false)
	o.GroupCommit = true
	o.MaxSyncDelay = 1 << 40 // ~18min: never fires inside a test
	return o
}

// RunGroupCommitSchedule runs a seeded schedule of batched writes with
// deferred acknowledgments, crashing under a volatile-page-cache fault
// model, and checks zero acked-write loss plus fsync amortization.
func RunGroupCommitSchedule(dir string, seed uint64, totalOps int) (*GroupReport, error) {
	r := rng.New(seed ^ 0x67726f7570)
	rep := &GroupReport{ScheduleHeader: newHeader(seed)}
	numBlocks, blockB, err := oracleGeometry(seed)
	if err != nil {
		return nil, err
	}
	model := newAckModel(blockB)
	nextID := uint64(0)
	opsDone := 0

	type batchWrite struct {
		block int64
		data  []byte
	}
	reopen := func(inc *incarnation) (*durable.Engine, error) {
		eng, err := inc.open(groupOptions(dir, seed, inc.fs))
		if err != nil {
			return nil, err
		}
		return eng, model.verify(eng.Read)
	}
	err = rep.run(schedule{
		name:      "group schedule",
		maxRounds: totalOps + 16,
		done:      func() bool { return opsDone >= totalOps },
		draw: func() faults.Config {
			cfg := drawKill(r, 50)
			cfg.DropUnsynced = true
			return cfg
		},
		round: func(inc *incarnation) error {
			// Registered first, so it runs last: a crashed Close is where
			// the page cache drops what was never synced.
			inc.onClose(func() { rep.Dropped += inc.in.Stats().Dropped })
			eng, err := reopen(inc)
			if err != nil {
				return err
			}
			inc.onClose(func() {
				st := eng.Stats()
				rep.Writes += st.Writes
				rep.Syncs += st.Syncs
				rep.Batched += st.BatchedSyncs
			})
			for opsDone < totalOps {
				batchN := min(1+int(r.Uint64n(8)), totalOps-opsDone)
				// Apply the batch; acks are deferred until BatchSync, and a
				// failure anywhere before then leaves the whole batch — the
				// failing write included — acknowledged to nobody.
				var batch []batchWrite
				unacked := func(stage string, err error) error {
					for _, w := range batch {
						model.doubt(w.block, w.data)
					}
					return failed(fmt.Sprintf("op %d: %s", opsDone, stage), err)
				}
				for i := 0; i < batchN; i++ {
					block := int64(r.Uint64n(uint64(numBlocks)))
					data := Fill(blockB, block, byte(r.Uint64()))
					nextID++
					opsDone++
					batch = append(batch, batchWrite{block, data})
					if err := eng.WriteIdentified(nextID, block, data); err != nil {
						return unacked("write", err)
					}
				}
				if err := eng.BatchSync(); err != nil {
					return unacked("batch sync", err)
				}
				// Acks released: the batch is durable.
				for _, w := range batch {
					model.ack(w.block, w.data)
					rep.AckedWrites++
				}
			}
			return nil
		},
		final: func(inc *incarnation) error {
			_, err := reopen(inc)
			return err
		},
	})
	if err == nil && rep.AckedWrites > 8 && rep.Syncs >= rep.Writes {
		err = fmt.Errorf("check: group commit issued %d syncs for %d appends — no amortization", rep.Syncs, rep.Writes)
	}
	return rep, err
}
