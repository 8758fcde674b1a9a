package check

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/server/wire"
	"repro/internal/vfs"
)

// This file is the failover kill-recover oracle: the replication
// analogue of the crash oracle in crash.go. A primary engine runs a
// seeded op schedule while shipping every durability event to a
// persistent replica directory through the real frame codec, in
// semi-sync mode (a write is acknowledged only after the replica has
// fsynced it). Seeded kills land in three different places:
//
//   - in the primary's filesystem (mid-WAL-append, mid-publish — the
//     crash oracle's kill, with replication attached),
//   - on the replication link before a frame is applied (the primary
//     dies mid-send: mid-WAL-batch or mid-snapshot-chunk),
//   - on the link after the frame is applied but before its ack returns
//     (the primary dies mid-ack).
//
// After the schedule's final kill the replica is promoted — durable.Open
// over the mirror directory plus a term bump — and the contract checked:
//
//   - every client-acknowledged write reads back exactly, always;
//   - the single op in flight at a kill (never acknowledged: the engine
//     died mid-send or mid-ack, so no response reached a client) may
//     hold either its old or its new content, but nothing else;
//   - after promotion, the deposed primary's attempt to re-attach and
//     ship its stale stream is refused by term fencing, and every
//     post-promotion acknowledged write survives the attempt.
//
// The negative control (FenceOff) disables fencing on the promoted
// directory's mirror; the deposed primary's bootstrap then wipes the
// promoted state, post-promotion writes vanish, and RunFailoverSchedule
// must return the data-loss error — proving the fence is what holds the
// split-brain line, and that the oracle can see it fall.

// FailoverOptions selects the control arm.
type FailoverOptions struct {
	// FenceOff is the negative control: the promoted directory accepts
	// the deposed primary's stale stream, and the schedule must FAIL.
	FenceOff bool
}

// FailoverReport summarizes one seeded failover schedule. Its Sites
// histogram holds the filesystem buckets (wal/snap/delta) beside the
// link kills (frame:<kind>, ack:<kind>) and "clean" for a primary that
// spent its op budget with the link healthy.
type FailoverReport struct {
	ScheduleHeader
	Promoted    bool   // the replica was promotable (booted) at the final kill
	PromoteTerm uint64 // fencing term the promotion installed
	FenceOK     bool   // deposed primary's re-attach was refused
}

func (r *FailoverReport) String() string {
	return fmt.Sprintf("%v, promoted=%v term=%d fenceOK=%v", &r.ScheduleHeader, r.Promoted, r.PromoteTerm, r.FenceOK)
}

// errLinkDead is what the oracle sink returns once its seeded kill has
// fired: the primary process is considered dead at that instant.
var errLinkDead = errors.New("check: replication link killed")

// oracleSink applies shipped frames to a mirror through the real codec,
// acking synchronously, with one seeded kill: after killAfter frames it
// fails — either dropping the frame before it applies (the primary died
// mid-send) or applying and fsyncing it but failing the ack (the
// primary died mid-ack).
type oracleSink struct {
	m         *durable.Mirror
	s         *durable.Shipper
	killAfter int  // frames before the kill; 0 = healthy link
	ackKill   bool // kill lands after apply, before ack
	n         int
	fired     bool
	firedKind string
}

func (os *oracleSink) SendFrame(f wire.ReplFrame) error {
	if os.fired {
		return errLinkDead
	}
	body, err := wire.AppendReplFrame(nil, f)
	if err != nil {
		return err
	}
	g, err := wire.DecodeReplFrame(body)
	if err != nil {
		return err
	}
	if os.killAfter > 0 && os.n+1 >= os.killAfter {
		os.fired = true
		if os.ackKill {
			os.firedKind = "ack:" + g.Kind.String()
			os.m.Apply(g) // applied and fsynced; the ack never arrives
		} else {
			os.firedKind = "frame:" + g.Kind.String()
		}
		return errLinkDead
	}
	os.n++
	if err := os.m.Apply(g); err != nil {
		os.fired = true
		os.firedKind = "apply-error"
		return err
	}
	switch g.Kind {
	case wire.ReplWALBatch, wire.ReplBootDone, wire.ReplHeartbeat:
		os.s.Ack(os.m.Seq())
	}
	return nil
}

// RunFailoverSchedule runs one seeded schedule of totalOps operations:
// primary incarnations under pdir replicate to rdir and die at seeded
// kill points; the final state of rdir is promoted and verified. dir
// layout: <dir>/primary and <dir>/replica.
func RunFailoverSchedule(dir string, seed uint64, totalOps int, opt FailoverOptions) (*FailoverReport, error) {
	r := rng.New(seed ^ 0xfa110f37) // decorrelate from the engine's streams
	rep := &FailoverReport{ScheduleHeader: newHeader(seed)}
	pdir, rdir := filepath.Join(dir, "primary"), filepath.Join(dir, "replica")
	numBlocks, blockB, err := oracleGeometry(seed)
	if err != nil {
		return nil, err
	}
	ops := GenOps(seed, totalOps, numBlocks)
	model := newAckModel(blockB)
	next := 0
	lastBooted := false
	var sink *oracleSink // this round's replication link

	return rep, rep.run(schedule{
		name:      "failover schedule",
		maxRounds: totalOps + 16,
		done:      func() bool { return next >= len(ops) },
		// One seeded kill per round: a filesystem crash on the primary, a
		// dropped frame, or a dropped ack.
		draw: func() faults.Config {
			sink = &oracleSink{}
			kind := r.Uint64n(3)
			if kind == 0 { // fs kill
				return drawKill(r, 60)
			}
			cfg := faults.Config{Seed: r.Uint64()}  // the disk stays healthy; the link dies:
			sink.killAfter = 1 + int(r.Uint64n(80)) // a frame kill (mid-send) ...
			sink.ackKill = kind == 2                // ... or an ack kill (applied, unacknowledged)
			return cfg
		},
		round: func(inc *incarnation) error {
			// The mirror opens first so that it closes last: the engine's
			// Close ships whatever its final sync covered. A booted mirror is
			// promotable no matter how the link died: a dropped frame was
			// never applied (in-flight assembly is in-memory only) and a
			// dropped ack was applied and fsynced.
			m, err := durable.NewMirror(rdir, durable.MirrorOptions{Shard: 0})
			if err != nil {
				return err
			}
			inc.onClose(func() {
				lastBooted = m.Booted()
				m.Close()
			})
			ship := &durable.Shipper{Shard: 0, SemiSync: true, AckTimeout: 10 * time.Millisecond, ChunkBytes: 2 << 10}
			sink.m, sink.s = m, ship
			engOpt := crashOptions(pdir, seed, inc.fs)
			engOpt.Ship = ship
			eng, err := inc.open(engOpt)
			if err != nil {
				return err
			}
			if err := model.verify(eng.Read); err != nil {
				return fmt.Errorf("primary recovery: %w", err)
			}
			ship.Attach(sink)

			// A fired link means the primary died inside the op (mid-send or
			// mid-ack), whether or not the op returned an error.
			err = serveGenOps(eng, model, ops, &next, &rep.ScheduleHeader, func() bool {
				if sink.fired {
					inc.site = sink.firedKind
				}
				return sink.fired
			})
			if err != nil || sink.fired {
				return err
			}
			// Op budget spent with the link healthy: the final kill is an
			// abrupt but quiescent death (everything acked is shipped).
			rep.Sites["clean"]++
			return nil
		},
		final: func(inc *incarnation) error {
			return failoverCoda(rep, r, model, opt, pdir, rdir, lastBooted)
		},
	})
}

// failoverCoda is the schedule's final incarnation. It promotes the
// replica if its mirror was promotable at the final kill — otherwise
// (died mid-bootstrap) the only copy is the primary's own directory, and
// that is recovered instead — then lets the deposed primary try to ship
// its stale stream into the promoted directory and checks the fence
// held.
func failoverCoda(rep *FailoverReport, r *rng.Source, model *ackModel, opt FailoverOptions, pdir, rdir string, promotable bool) error {
	seed := rep.Seed
	rep.Promoted = promotable
	src, what := rdir, "promoted replica"
	if !rep.Promoted {
		src, what = pdir, "primary-only recovery"
	}
	// The width-1 fleet over src is exactly the oracle's engine (the P=1
	// identity), opened and fenced the way a promoting daemon does it.
	fleet, err := server.OpenFleet(server.FleetConfig{Engine: crashOptions(src, seed, vfs.OS{})}, 1)
	if err != nil {
		return fmt.Errorf("promotion recovery: %w", err)
	}
	defer fleet.Close() // error paths; the success path checks its own Close
	prom := fleet.Engines()[0].(*durable.Engine)
	if err := model.verify(prom.Read); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if !rep.Promoted {
		return nil
	}
	if rep.PromoteTerm, err = fleet.Promote(); err != nil {
		return err
	}

	// Post-promotion writes: these are acknowledged by the new primary
	// and must survive the deposed primary's re-attach attempt below.
	post := newAckModel(model.blockB)
	for i := 0; i < 8; i++ {
		blk := int64(r.Uint64n(uint64(prom.NumBlocks())))
		data := Fill(model.blockB, blk, 0xD0+byte(i))
		if _, err := commitOne(prom, 0, blk, data); err != nil {
			return fmt.Errorf("post-promotion write: %w", err)
		}
		post.ack(blk, data)
		model.ack(blk, data)
	}
	if err := fleet.Close(); err != nil {
		return fmt.Errorf("closing promoted engine: %w", err)
	}

	// The deposed primary comes back and tries to resume shipping its
	// stale stream into the promoted directory.
	depShip := &durable.Shipper{Shard: 0, ChunkBytes: 2 << 10}
	depOpt := crashOptions(pdir, seed, vfs.OS{})
	depOpt.Ship = depShip
	dep, err := durable.Open(depOpt)
	if err != nil {
		return fmt.Errorf("deposed primary recovery: %w", err)
	}
	dm, err := durable.NewMirror(rdir, durable.MirrorOptions{Shard: 0, FenceOff: opt.FenceOff})
	if err != nil {
		dep.Close()
		return err
	}
	depShip.Attach(&oracleSink{m: dm, s: depShip})
	// A couple of ops service the attach (and, if the fence is off, let
	// the stale bootstrap finish wiping and rewriting the directory).
	for i := 0; i < 4; i++ {
		dep.Access(int64(i) % dep.NumBlocks())
	}
	st := depShip.Stats()
	dep.Close()
	dm.Close()
	rep.FenceOK = !st.Attached && st.SendErrors > 0 && st.Boots == 0

	// Reopen the promoted directory: the term must still be the promoted
	// one and every acknowledged write — the post-promotion ones first —
	// must read back. Under FenceOff this is where the oracle fires.
	fin, err := durable.Open(crashOptions(rdir, seed, vfs.OS{}))
	if err != nil {
		return fmt.Errorf("reopening promoted dir: %w", err)
	}
	defer fin.Close()
	if got := fin.Term(); got != rep.PromoteTerm {
		return fmt.Errorf("promoted term regressed: %d, want %d (deposed primary overwrote the promoted store)", got, rep.PromoteTerm)
	}
	if err := post.verify(fin.Read); err != nil {
		return fmt.Errorf("post-promotion state destroyed by the deposed primary: %w", err)
	}
	if err := model.verify(fin.Read); err != nil {
		return fmt.Errorf("promoted store after deposed re-attach: %w", err)
	}
	if !rep.FenceOK && !opt.FenceOff {
		return fmt.Errorf("deposed primary was not fenced: %+v", st)
	}
	return nil
}
