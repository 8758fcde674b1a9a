package check

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/aboram"
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

// FailoverOptions selects the engine configuration and the control arm.
type FailoverOptions struct {
	// Delta runs the delta-snapshot engine configuration (chained
	// incremental checkpoints plus live-WAL compaction).
	Delta bool
	// FenceOff is the negative control: the promoted directory accepts
	// the deposed primary's stale stream, and the schedule must FAIL.
	FenceOff bool
}

// FailoverReport summarizes one seeded failover schedule.
type FailoverReport struct {
	Seed        uint64
	Rounds      int            // primary incarnations
	Kills       int            // seeded kills (fs, frame, or ack)
	KillSites   map[string]int // histogram: wal/snap/delta buckets, frame:<kind>, ack:<kind>, clean
	AckedWrites int            // client-acknowledged writes across all rounds
	Promoted    bool           // the replica was promotable (booted) at the final kill
	PromoteTerm uint64         // fencing term the promotion installed
	FenceOK     bool           // deposed primary's re-attach was refused
}

func (r *FailoverReport) String() string {
	return fmt.Sprintf("seed %d: %d rounds, %d kills (sites %v), %d acked writes, promoted=%v term=%d fenceOK=%v",
		r.Seed, r.Rounds, r.Kills, r.KillSites, r.AckedWrites, r.Promoted, r.PromoteTerm, r.FenceOK)
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
	rep := &FailoverReport{Seed: seed, KillSites: make(map[string]int)}
	pdir, rdir := filepath.Join(dir, "primary"), filepath.Join(dir, "replica")

	probe, err := aboram.New(aboram.Options{Levels: 8, Seed: seed, EncryptionKey: oracleKey})
	if err != nil {
		return nil, err
	}
	numBlocks, blockB := probe.NumBlocks(), probe.BlockSize()
	ops := GenOps(seed, totalOps, numBlocks)

	model := make(map[int64][]byte)
	var pending *pendingWrite
	next := 0
	lastBooted := false

	maxRounds := totalOps + 16
	for next < len(ops) {
		if rep.Rounds >= maxRounds {
			return rep, fmt.Errorf("check: failover schedule %d made no progress after %d rounds", seed, rep.Rounds)
		}
		rep.Rounds++

		// One seeded kill per round: a filesystem crash on the primary, a
		// dropped frame, or a dropped ack.
		var in *faults.Injector
		ship := &durable.Shipper{Shard: 0, SemiSync: true, AckTimeout: 10 * time.Millisecond, ChunkBytes: 2 << 10}
		sink := &oracleSink{s: ship}
		switch r.Uint64n(3) {
		case 0: // fs kill
			in = faults.New(faults.Config{Seed: r.Uint64(), CrashAfter: 1 + int(r.Uint64n(60)), TornWrites: true})
		case 1: // frame kill (mid-send)
			in = faults.New(faults.Config{Seed: r.Uint64()})
			sink.killAfter = 1 + int(r.Uint64n(80))
		default: // ack kill (applied, unacknowledged)
			in = faults.New(faults.Config{Seed: r.Uint64()})
			sink.killAfter = 1 + int(r.Uint64n(80))
			sink.ackKill = true
		}

		engOpt := crashOptions(pdir, seed, faults.WrapFS(vfs.OS{}, in), opt.Delta)
		engOpt.Ship = ship
		eng, err := durable.Open(engOpt)
		if err != nil {
			if !in.Crashed() {
				return rep, fmt.Errorf("check: round %d: recovery failed without a crash: %w", rep.Rounds, err)
			}
			rep.Kills++
			rep.KillSites[crashSiteKind(in.CrashSite())]++
			continue
		}
		if err := verifyRecovered(eng, model, &pending, blockB); err != nil {
			eng.Close()
			return rep, fmt.Errorf("check: round %d primary recovery: %w", rep.Rounds, err)
		}
		m, err := durable.NewMirror(rdir, durable.MirrorOptions{Shard: 0})
		if err != nil {
			eng.Close()
			return rep, err
		}
		sink.m = m
		ship.Attach(sink)

		killed := false
		for next < len(ops) {
			op := ops[next]
			firedBefore := sink.fired
			var opErr error
			var newData []byte
			switch op.Kind {
			case OpWrite:
				newData = Fill(blockB, op.Block, op.Fill)
				opErr = eng.Write(op.Block, newData)
			case OpRead:
				var got []byte
				got, opErr = eng.Read(op.Block)
				if opErr == nil {
					if want := expect(model, blockB, op.Block); !bytes.Equal(got, want) {
						eng.Close()
						m.Close()
						return rep, fmt.Errorf("check: op %d: read(%d) diverged from model pre-kill", next, op.Block)
					}
				}
			default:
				opErr = eng.Access(op.Block)
			}
			linkFired := sink.fired && !firedBefore
			if opErr != nil && !in.Crashed() && !sink.fired {
				eng.Close()
				m.Close()
				return rep, fmt.Errorf("check: op %d failed without a kill: %w", next, opErr)
			}
			if opErr != nil || linkFired {
				// The primary died inside this op (its own disk, mid-send,
				// or mid-ack): no response reached a client, so recovery and
				// promotion may surface either value.
				if op.Kind == OpWrite {
					pending = &pendingWrite{block: op.Block, old: model[op.Block], new: newData}
				}
				next++
				killed = true
				break
			}
			if op.Kind == OpWrite {
				model[op.Block] = newData
				rep.AckedWrites++
			}
			next++
		}
		if killed {
			rep.Kills++
			switch {
			case sink.fired:
				rep.KillSites[sink.firedKind]++
			default:
				rep.KillSites[crashSiteKind(in.CrashSite())]++
			}
		} else {
			// Op budget spent with the link healthy: the final kill is an
			// abrupt but quiescent death (everything acked is shipped).
			rep.KillSites["clean"]++
		}
		eng.Close()
		// A booted mirror is promotable no matter how the link died: a
		// dropped frame was never applied (in-flight assembly is
		// in-memory only) and a dropped ack was applied and fsynced.
		lastBooted = m.Booted()
		m.Close()
	}

	// Failover: promote the replica if its mirror was promotable at the
	// final kill; otherwise (died mid-bootstrap) the only copy is the
	// primary's own directory — recover that instead.
	rep.Promoted = lastBooted
	src := rdir
	if !rep.Promoted {
		src = pdir
	}
	// The width-1 fleet over src is exactly the oracle's engine (the P=1
	// identity), opened and fenced the way a promoting daemon does it.
	fleet, err := server.OpenFleet(server.FleetConfig{Engine: crashOptions(src, seed, vfs.OS{}, opt.Delta)}, 1)
	if err != nil {
		return rep, fmt.Errorf("check: promotion recovery: %w", err)
	}
	defer fleet.Close() // error paths; the success path checks its own Close
	prom := fleet.Engines()[0].(*durable.Engine)
	if err := verifyRecovered(prom, model, &pending, blockB); err != nil {
		if rep.Promoted {
			return rep, fmt.Errorf("check: promoted replica: %w", err)
		}
		return rep, fmt.Errorf("check: primary-only recovery: %w", err)
	}
	if !rep.Promoted {
		return rep, nil
	}
	if rep.PromoteTerm, err = fleet.Promote(); err != nil {
		return rep, err
	}

	// Post-promotion writes: these are acknowledged by the new primary
	// and must survive the deposed primary's re-attach attempt below.
	postModel := make(map[int64][]byte)
	for i := 0; i < 8; i++ {
		blk := int64(r.Uint64n(uint64(numBlocks)))
		data := Fill(blockB, blk, 0xD0+byte(i))
		if err := prom.Write(blk, data); err != nil {
			return rep, fmt.Errorf("check: post-promotion write: %w", err)
		}
		postModel[blk] = data
		model[blk] = data
	}
	if err := fleet.Close(); err != nil {
		return rep, fmt.Errorf("check: closing promoted engine: %w", err)
	}

	// The deposed primary comes back and tries to resume shipping its
	// stale stream into the promoted directory.
	depShip := &durable.Shipper{Shard: 0, ChunkBytes: 2 << 10}
	depOpt := crashOptions(pdir, seed, vfs.OS{}, opt.Delta)
	depOpt.Ship = depShip
	dep, err := durable.Open(depOpt)
	if err != nil {
		return rep, fmt.Errorf("check: deposed primary recovery: %w", err)
	}
	dm, err := durable.NewMirror(rdir, durable.MirrorOptions{Shard: 0, FenceOff: opt.FenceOff})
	if err != nil {
		dep.Close()
		return rep, err
	}
	depSink := &oracleSink{m: dm, s: depShip}
	depShip.Attach(depSink)
	// A couple of ops service the attach (and, if the fence is off, let
	// the stale bootstrap finish wiping and rewriting the directory).
	for i := 0; i < 4; i++ {
		dep.Access(int64(i) % numBlocks)
	}
	st := depShip.Stats()
	dep.Close()
	dm.Close()
	rep.FenceOK = !st.Attached && st.SendErrors > 0 && st.Boots == 0

	// Reopen the promoted directory: the term must still be the promoted
	// one and every acknowledged write — including the post-promotion
	// ones — must read back. Under FenceOff this is where the oracle
	// fires.
	fin, err := durable.Open(crashOptions(rdir, seed, vfs.OS{}, opt.Delta))
	if err != nil {
		return rep, fmt.Errorf("check: reopening promoted dir: %w", err)
	}
	defer fin.Close()
	if got := fin.Term(); got != rep.PromoteTerm {
		return rep, fmt.Errorf("check: promoted term regressed: %d, want %d (deposed primary overwrote the promoted store)", got, rep.PromoteTerm)
	}
	for blk, want := range postModel {
		got, err := fin.Read(blk)
		if err != nil {
			return rep, fmt.Errorf("check: reading post-promotion block %d: %w", blk, err)
		}
		if !bytes.Equal(got, want) {
			return rep, fmt.Errorf("check: post-promotion acknowledged write to block %d destroyed by the deposed primary", blk)
		}
	}
	var noPending *pendingWrite
	if err := verifyRecovered(fin, model, &noPending, blockB); err != nil {
		return rep, fmt.Errorf("check: promoted store after deposed re-attach: %w", err)
	}
	if !rep.FenceOK && !opt.FenceOff {
		return rep, fmt.Errorf("check: deposed primary was not fenced: %+v", st)
	}
	return rep, nil
}
