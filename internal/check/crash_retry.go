package check

import (
	"bytes"
	"fmt"

	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/rng"
)

// This file extends the kill-recover oracle with the exactly-once
// contract for retried writes: every write carries a wire request id,
// the durable engine logs the id in the WAL (and snapshot header), and a
// restarted daemon seeds its retry-dedup window from RecentWriteIDs. The
// schedule drives the retry protocol the real client+front-end pair
// implements, across injected kills:
//
//   - a write in doubt at a crash (errored, maybe applied) is retried
//     after recovery; if its id is in the recovered set, the retry is
//     answered from the window (not re-executed), otherwise it executes
//     for real — either way exactly-once;
//   - occasionally a duplicate of an ACKED write is held back and
//     replayed in a LATER incarnation, after a conflicting write to the
//     same block — the crash-straddling retry. A correct recovered
//     window absorbs it; re-executing it would roll the block back.
//
// RetryOptions.IgnoreRecoveredIDs is the negative control: it models a
// server whose dedup window forgot everything at restart (i.e. the id
// persistence reverted), so straddling duplicates re-execute and the
// schedule must FAIL — proving the oracle detects double-applies.

// RetryOptions tunes RunRetrySchedule.
type RetryOptions struct {
	// IgnoreRecoveredIDs makes the simulated server forget its dedup
	// window across restarts: cross-crash duplicates re-execute instead
	// of being answered from the recovered id set. The schedule is then
	// expected to fail its model check.
	IgnoreRecoveredIDs bool
}

// RetryReport summarizes one seeded retry schedule.
type RetryReport struct {
	ScheduleHeader
	InDoubt    int // writes retried because a crash left them in doubt
	DedupSkips int // retries/duplicates absorbed by the recovered id set
	Straddles  int // cross-crash duplicates staged and replayed
	Reexecuted int // retries that executed for real (id not recovered)
}

func (r *RetryReport) String() string {
	return fmt.Sprintf("%v, %d in-doubt retries, %d dedup skips, %d straddling dups, %d re-executed",
		&r.ScheduleHeader, r.InDoubt, r.DedupSkips, r.Straddles, r.Reexecuted)
}

// retryWrite is one identified write the schedule may retry or replay.
type retryWrite struct {
	id    uint64
	block int64
	data  []byte
}

// RunRetrySchedule runs a seeded schedule of identified writes against
// the durable engine through crash-injected filesystems, exercising the
// retry protocol across kills. It returns an error on the first
// exactly-once violation (a lost acked write, a rolled-back block, an
// acked id missing from the recovered set, or a recovered id whose write
// did not survive).
func RunRetrySchedule(dir string, seed uint64, totalOps int, opt RetryOptions) (*RetryReport, error) {
	r := rng.New(seed ^ 0x7265747279) // decorrelated schedule stream
	rep := &RetryReport{ScheduleHeader: newHeader(seed)}
	numBlocks, blockB, err := oracleGeometry(seed)
	if err != nil {
		return nil, err
	}
	model := newAckModel(blockB)
	acked := make(map[uint64]bool) // ids acknowledged across the whole schedule
	var inDoubt *retryWrite        // single write in flight at the last crash
	var staged *retryWrite         // acked write held back as a cross-crash duplicate
	nextID := uint64(0)
	opsDone := 0

	// reopen recovers the engine and its id set, and checks the
	// crash-durable dedup invariant: every acknowledged id must be in the
	// recovered set (the schedule stays far below DedupTrack, so capacity
	// eviction cannot excuse an absence).
	reopen := func(inc *incarnation) (*durable.Engine, map[uint64]bool, error) {
		eng, err := inc.open(crashOptions(dir, seed, inc.fs, false))
		if err != nil {
			return nil, nil, err
		}
		recovered := make(map[uint64]bool)
		for _, id := range eng.RecentWriteIDs() {
			recovered[id] = true
		}
		for id := range acked {
			if !recovered[id] {
				return nil, nil, fmt.Errorf("acked id %#x missing from recovered set (size %d)", id, len(recovered))
			}
		}
		return eng, recovered, nil
	}
	// issue executes w. A failure leaves it in doubt for the next
	// incarnation's retry; an ack makes it the block's content.
	issue := func(eng *durable.Engine, w *retryWrite, stage string) error {
		if err := eng.WriteIdentified(w.id, w.block, w.data); err != nil {
			if inDoubt != w { // a failed retry is in doubt already
				inDoubt = w
				model.doubt(w.block, w.data)
			}
			return failed(stage, err)
		}
		inDoubt = nil
		model.ack(w.block, w.data)
		acked[w.id] = true
		return nil
	}
	// readBack is the model's verify under this oracle's name for wrong
	// content: a block that lost its acknowledged value here was rolled
	// back by a re-executed duplicate.
	readBack := func(eng *durable.Engine) error {
		err := model.verify(eng.Read)
		if err != nil && !isOpFailure(err) {
			err = fmt.Errorf("exactly-once violation: %w", err)
		}
		return err
	}

	return rep, rep.run(schedule{
		name:      "retry schedule",
		maxRounds: totalOps + 16,
		done:      func() bool { return opsDone >= totalOps },
		draw:      func() faults.Config { return drawKill(r, 60) },
		round: func(inc *incarnation) error {
			eng, recovered, err := reopen(inc)
			if err != nil {
				return err
			}

			// Resolve the write in doubt from the previous incarnation. If its
			// id was recovered the write IS applied (recovered-implies-applied)
			// and the retry is a dedup hit; otherwise it executes for real.
			if w := inDoubt; w != nil {
				rep.InDoubt++
				if recovered[w.id] && !opt.IgnoreRecoveredIDs {
					got, err := eng.Read(w.block)
					if err != nil {
						return failed(fmt.Sprintf("reading recovered block %d", w.block), err)
					}
					if !bytes.Equal(got, w.data) {
						return fmt.Errorf("id %#x recovered but block %d does not hold its write", w.id, w.block)
					}
					rep.DedupSkips++
					inDoubt = nil
					model.ack(w.block, w.data)
					acked[w.id] = true
				} else {
					// Not recovered (or the control pretends it is not): the
					// retry executes. Either-value held before; after an ack it
					// must be the new value. A failure keeps it in doubt and
					// the next round retries again.
					if err := issue(eng, w, "retry"); err != nil {
						return err
					}
					rep.Reexecuted++
				}
			}

			// Replay the staged cross-crash duplicate: first a conflicting
			// write to the same block (fresh id), then the duplicate itself.
			// Correct dedup absorbs the duplicate and the conflict's value
			// stays; re-executing it rolls the block back, which the model
			// check below catches.
			if dup := staged; dup != nil && opsDone < totalOps {
				nextID++
				opsDone++
				conflict := &retryWrite{id: nextID, block: dup.block, data: Fill(blockB, dup.block, byte(r.Uint64())^0xA5)}
				if err := issue(eng, conflict, "conflict write"); err != nil {
					return err // the duplicate stays staged for the next round
				}
				rep.AckedWrites++
				rep.Straddles++
				staged = nil
				if recovered[dup.id] && !opt.IgnoreRecoveredIDs {
					rep.DedupSkips++ // absorbed: model keeps the conflict's value
				} else if err := eng.WriteIdentified(dup.id, dup.block, dup.data); err != nil {
					// The simulated server forgot the id: the duplicate
					// re-executes, but the MODEL keeps the conflict's value —
					// exactly-once semantics say a duplicate of an acked
					// write must not change state. The read-back check
					// reports the regression.
					return failed("duplicate write", err)
				}
			}

			// Normal serving until the op budget or the crash point.
			for opsDone < totalOps {
				block := int64(r.Uint64n(uint64(numBlocks)))
				nextID++
				opsDone++
				w := &retryWrite{id: nextID, block: block, data: Fill(blockB, block, byte(r.Uint64()))}
				if err := issue(eng, w, fmt.Sprintf("op %d: write", opsDone)); err != nil {
					return err
				}
				rep.AckedWrites++
				// Occasionally hold an acked write back as a future
				// cross-crash duplicate.
				if staged == nil && r.Float64() < 0.25 {
					staged = w
				}
				// Interleave reads to catch rollbacks early.
				if r.Float64() < 0.3 {
					got, err := eng.Read(block)
					if err != nil {
						return failed(fmt.Sprintf("op %d: read", opsDone), err)
					}
					if !bytes.Equal(got, model.want(block)) {
						return fmt.Errorf("op %d: block %d diverged from model pre-crash", opsDone, block)
					}
				}
			}
			// The budget ran out with the engine alive: nothing is in doubt,
			// so the whole model must read back.
			return readBack(eng)
		},
		// Final clean recovery: every acked id must still be recoverable, a
		// write the schedule ended on in doubt is pinned by the either-value
		// rule, and the full model must read back.
		final: func(inc *incarnation) error {
			eng, _, err := reopen(inc)
			if err != nil {
				return err
			}
			return readBack(eng)
		},
	})
}
