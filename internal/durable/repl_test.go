package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/rng"
	"repro/internal/server/wire"
)

// mirrorSink wires a Shipper straight into a Mirror through the real
// frame codec (encode, decode, apply), acknowledging synchronously —
// the deterministic in-process stand-in for the TCP replication
// session.
type mirrorSink struct {
	m *Mirror
	s *Shipper
	// mute suppresses acks (a replica that applies but never confirms).
	mute bool
}

func (ms *mirrorSink) SendFrame(f wire.ReplFrame) error {
	body, err := wire.AppendReplFrame(nil, f)
	if err != nil {
		return err
	}
	g, err := wire.DecodeReplFrame(body)
	if err != nil {
		return err
	}
	if err := ms.m.Apply(g); err != nil {
		return err
	}
	if ms.mute {
		return nil
	}
	switch g.Kind {
	case wire.ReplWALBatch, wire.ReplBootDone, wire.ReplHeartbeat:
		ms.s.Ack(ms.m.Seq())
	}
	return nil
}

// captureSink records every frame after a round-trip through the real
// codec, so a frame the wire would refuse (an oversized body above all)
// fails exactly where the TCP link would fail.
type captureSink struct{ frames []wire.ReplFrame }

func (cs *captureSink) SendFrame(f wire.ReplFrame) error {
	body, err := wire.AppendReplFrame(nil, f)
	if err != nil {
		return err
	}
	g, err := wire.DecodeReplFrame(body)
	if err != nil {
		return err
	}
	g.Data = append([]byte(nil), g.Data...)
	cs.frames = append(cs.frames, g)
	return nil
}

// attachMirror builds a mirror over dir and stages it on the shipper;
// the engine's next operation services the bootstrap.
func attachMirror(t *testing.T, s *Shipper, dir string) *Mirror {
	t.Helper()
	m, err := NewMirror(dir, MirrorOptions{Shard: s.Shard})
	if err != nil {
		t.Fatalf("NewMirror: %v", err)
	}
	s.Attach(&mirrorSink{m: m, s: s})
	return m
}

// TestMirrorRefusesDamagedBatch: a wal-batch holding a record with one
// flipped body byte must not decode, so a booted mirror never appends it
// or advances the watermark it acknowledges — its own recovery would
// truncate the segment at that record and lose the records after it.
func TestMirrorRefusesDamagedBatch(t *testing.T) {
	m, err := NewMirror(t.TempDir(), MirrorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, f := range []wire.ReplFrame{
		{Kind: wire.ReplSnapChunk, File: wire.ReplFileWAL, Epoch: 1, Last: true},
		{Kind: wire.ReplBootDone},
	} {
		if err := m.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
	var recs []byte
	for i := 0; i < 2; i++ {
		if recs, err = AppendRecord(recs, wire.Request{Op: wire.OpWrite, ID: uint64(i + 1), Block: int64(i), Data: payload(64, byte(i))}); err != nil {
			t.Fatal(err)
		}
	}
	body, err := wire.AppendReplFrame(nil, wire.ReplFrame{Kind: wire.ReplWALBatch, FirstSeq: 1, Count: 2, Data: recs})
	if err != nil {
		t.Fatal(err)
	}
	body[len(body)-len(recs)+frame.Header+20] ^= 0x40 // a payload byte of the first record
	if f, err := wire.DecodeReplFrame(body); err == nil {
		if err := m.Apply(f); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("a damaged wal-batch decoded; the mirror acknowledges seq %d", m.Seq())
	}
	if m.Seq() != 0 {
		t.Fatalf("mirror watermark %d, want 0", m.Seq())
	}
}

// TestTermPersistsAcrossRecovery pins the fencing-term plumbing: SetTerm
// survives a crash (OpTerm record), stamps later checkpoints, refuses to
// move backward, and ReadDirTerm sees it without a recovery.
func TestTermPersistsAcrossRecovery(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(testOptions(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if e.Term() != 0 {
		t.Fatalf("fresh engine term = %d, want 0", e.Term())
	}
	if err := e.SetTerm(3); err != nil {
		t.Fatalf("SetTerm: %v", err)
	}
	if err := e.SetTerm(3); err == nil {
		t.Fatal("repeating the current term succeeded; terms must only rise")
	}
	if err := commit(e, 0, 1, payload(e.BlockSize(), 0xaa)); err != nil {
		t.Fatal(err)
	}
	// No Close: the term must survive the crash shape via the WAL record.
	if got, err := ReadDirTerm(e.fs, dir); err != nil || got != 3 {
		t.Fatalf("ReadDirTerm = %d, %v; want 3", got, err)
	}

	r, err := Open(testOptions(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if r.Term() != 3 {
		t.Fatalf("recovered term = %d, want 3", r.Term())
	}
	if err := r.SetTerm(2); err == nil {
		t.Fatal("lowering the term succeeded")
	}
	r.Close()
	// After recovery the fresh WAL has no OpTerm record; the term now
	// lives in the rotation's checkpoint header alone.
	if got, err := ReadDirTerm(r.fs, dir); err != nil || got != 3 {
		t.Fatalf("ReadDirTerm after reopen = %d, %v; want 3 from the header", got, err)
	}
}

// dirsIdentical demands two data directories hold the same file names
// with byte-identical contents — the mirror's core invariant.
func dirsIdentical(t *testing.T, a, b string) {
	t.Helper()
	la, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := os.ReadDir(b)
	if err != nil {
		t.Fatal(err)
	}
	names := func(l []os.DirEntry) []string {
		var out []string
		for _, e := range l {
			out = append(out, e.Name())
		}
		sort.Strings(out)
		return out
	}
	na, nb := names(la), names(lb)
	if len(na) != len(nb) {
		t.Fatalf("directory shapes diverge:\n  %s: %v\n  %s: %v", a, na, b, nb)
	}
	for i := range na {
		if na[i] != nb[i] {
			t.Fatalf("directory shapes diverge:\n  %s: %v\n  %s: %v", a, na, b, nb)
		}
		ba, err := os.ReadFile(filepath.Join(a, na[i]))
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(filepath.Join(b, nb[i]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("%s differs between primary and mirror (%d vs %d bytes)", na[i], len(ba), len(bb))
		}
	}
}

// TestMirrorStaysByteIdentical drives a primary — rotations, a mid-chain
// replica attach, write-hot compactions — and demands the mirror
// directory end byte-for-byte identical to the primary's, which is the
// property every downstream guarantee (fingerprint-identical recovery,
// clean promotion) reduces to.
func TestMirrorStaysByteIdentical(t *testing.T) {
	for _, mode := range []string{"full", "delta"} {
		t.Run(mode, func(t *testing.T) {
			pdir, mdir := t.TempDir(), t.TempDir()
			var opt Options
			if mode == "delta" {
				opt = deltaOptions(pdir)
			} else {
				opt = testOptions(pdir)
			}
			// Rotation resets the compaction counter, so compactions only
			// fire when CompactEvery trips first — and only ship when the
			// segment actually shrank, which the i%2 write pattern below
			// guarantees (two writes to block 0 per 3-record segment).
			opt.SnapshotEvery = 4
			opt.CompactEvery = 3
			ship := &Shipper{ChunkBytes: 1 << 10} // multi-chunk checkpoints
			opt.Ship = ship
			e, err := Open(opt)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			// Warm up before the attach so the bootstrap ships a
			// non-trivial chain, then keep writing through rotations and
			// compactions on the live link.
			for i := 0; i < 7; i++ {
				if err := commit(e, uint64(100+i), int64(i%2), payload(e.BlockSize(), byte(i))); err != nil {
					t.Fatal(err)
				}
			}
			m := attachMirror(t, ship, mdir)
			for i := 7; i < 25; i++ {
				if err := commit(e, uint64(100+i), int64(i%2), payload(e.BlockSize(), byte(i))); err != nil {
					t.Fatal(err)
				}
			}
			if !m.Booted() {
				t.Fatal("mirror never finished bootstrap")
			}
			if st := ship.Stats(); !st.Attached || st.SendErrors != 0 {
				t.Fatalf("ship stats = %+v, want a healthy attached link", st)
			}
			if e.Stats().CompactionRuns == 0 {
				t.Fatalf("stats = %+v, want compactions replicated", e.Stats())
			}
			if err := e.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			m.Close()
			dirsIdentical(t, pdir, mdir)

			// And the reduction itself: recovering the mirror directory
			// yields the same logical state as recovering the primary's.
			po, mo := opt, opt
			po.Ship, mo.Ship = nil, nil
			mo.Dir = mdir
			pe, err := Open(po)
			if err != nil {
				t.Fatalf("reopen primary: %v", err)
			}
			defer pe.Close()
			me, err := Open(mo)
			if err != nil {
				t.Fatalf("open promoted mirror: %v", err)
			}
			defer me.Close()
			fp, err1 := pe.Fingerprint()
			fm, err2 := me.Fingerprint()
			if err1 != nil || err2 != nil || fp != fm {
				t.Fatalf("promoted fingerprint diverges: %x vs %x (errs %v, %v)", fp[:8], fm[:8], err1, err2)
			}
			for i := 0; i < 25; i++ {
				got, err := me.Read(int64(i % 2))
				_ = got
				if err != nil {
					t.Fatalf("promoted read %d: %v", i, err)
				}
			}
		})
	}
}

// TestMirrorFencesStaleTerm is the split-brain pin: a deposed primary
// reconnecting to a promoted node's directory must be rejected by the
// term fence before it can wipe anything — and the negative control
// (fencing off) proves the fence is what stands between the stale
// stream and acknowledged-write loss.
func TestMirrorFencesStaleTerm(t *testing.T) {
	adir, bdir := t.TempDir(), t.TempDir()
	aopt := testOptions(adir)
	aopt.SnapshotEvery = 4
	ship := &Shipper{}
	aopt.Ship = ship
	a, err := Open(aopt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	attachMirror(t, ship, bdir)
	for i := 0; i < 6; i++ {
		if err := commit(a, 0, int64(i), payload(a.BlockSize(), byte(0x40+i))); err != nil {
			t.Fatal(err)
		}
	}
	// Link loss, then failover: B's directory is promoted under term 1.
	ship.Detach()
	bopt := testOptions(bdir)
	b, err := Open(bopt)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if err := b.SetTerm(a.Term() + 1); err != nil {
		t.Fatalf("SetTerm on promotion: %v", err)
	}
	promoted := payload(b.BlockSize(), 0x99)
	if err := commit(b, 0, 0, promoted); err != nil { // acked under the new term
		t.Fatal(err)
	}
	b.Close()

	// The deposed primary comes back and tries to resume shipping into
	// the promoted node's directory. The fence must reject the stream at
	// the first frame; the directory must be untouched.
	m, err := NewMirror(bdir, MirrorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Term() != 1 {
		t.Fatalf("mirror over promoted dir recovered term %d, want 1", m.Term())
	}
	ship.Attach(&mirrorSink{m: m, s: ship})
	if err := a.Access(0); err != nil { // services the attach; bootstrap must be refused
		t.Fatal(err)
	}
	if st := ship.Stats(); st.Attached || st.SendErrors == 0 {
		t.Fatalf("ship stats = %+v, want the stale link dropped with an error", st)
	}
	rb, err := Open(bopt)
	if err != nil {
		t.Fatalf("reopen promoted dir: %v", err)
	}
	if rb.Term() != 1 {
		t.Fatalf("promoted term fell to %d after the stale stream", rb.Term())
	}
	got, err := rb.Read(0)
	if err != nil || !bytes.Equal(got, promoted) {
		t.Fatalf("acked write under term 1 lost to the deposed primary (err %v)", err)
	}
	rb.Close()

	// Negative control: with fencing disabled the very same stale stream
	// wipes the promoted state — the loss the fence exists to prevent.
	m2, err := NewMirror(bdir, MirrorOptions{FenceOff: true})
	if err != nil {
		t.Fatal(err)
	}
	ship.Attach(&mirrorSink{m: m2, s: ship})
	if err := a.Access(0); err != nil {
		t.Fatal(err)
	}
	a.Close()
	m2.Close()
	rb2, err := Open(bopt)
	if err != nil {
		t.Fatalf("reopen after unfenced overwrite: %v", err)
	}
	defer rb2.Close()
	if rb2.Term() != 0 {
		t.Fatalf("unfenced control kept term %d; expected the stale wipe to erase it", rb2.Term())
	}
	if got, err := rb2.Read(0); err == nil && bytes.Equal(got, promoted) {
		t.Fatal("unfenced control kept the promoted write; the control must demonstrate the loss")
	}
}

// TestSemiSyncDegradesNotWedges pins the semi-sync liveness contract: a
// replica that applies but never acknowledges delays writes by the ack
// timeout, then the link degrades to async and serving continues at full
// speed — counted, never wedged, never poisoned.
func TestSemiSyncDegradesNotWedges(t *testing.T) {
	pdir, mdir := t.TempDir(), t.TempDir()
	opt := testOptions(pdir)
	ship := &Shipper{SemiSync: true, AckTimeout: 20 * time.Millisecond}
	opt.Ship = ship
	e, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer e.Close()

	// Unattached: semi-sync must not block at all.
	start := time.Now()
	if err := commit(e, 0, 0, payload(e.BlockSize(), 1)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("unattached semi-sync write took %v", d)
	}

	m, err := NewMirror(mdir, MirrorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ship.Attach(&mirrorSink{m: m, s: ship, mute: true})
	start = time.Now()
	if err := commit(e, 0, 1, payload(e.BlockSize(), 2)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("semi-sync write with a mute replica returned in %v, before the ack timeout", d)
	}
	st := ship.Stats()
	if st.AckTimeouts == 0 || !st.Degraded {
		t.Fatalf("ship stats = %+v, want a counted degradation", st)
	}
	// Degraded mode: later writes must skip the ack wait outright, not
	// re-pay the full timeout on every batch (which would cap the shard
	// at ~1/AckTimeout synced batches per second while the replica lags).
	// AckWaits counts entries into waitAcked; it must not grow.
	waits := st.AckWaits
	for i := 0; i < 3; i++ {
		if err := commit(e, 0, 2, payload(e.BlockSize(), byte(3+i))); err != nil {
			t.Fatal(err)
		}
	}
	if st2 := ship.Stats(); st2.AckWaits != waits {
		t.Fatalf("degraded writes still entered the ack wait (AckWaits %d -> %d); degraded mode must short-circuit", waits, st2.AckWaits)
	}
	if e.failed != nil {
		t.Fatalf("semi-sync degradation poisoned the engine: %v", e.failed)
	}
}

// TestFlushSplitsOversizedBatches pins the wal-batch size bound: a deep
// group commit of max-size writes buffers more record bytes than one
// frame may carry (wire.MaxReplBody); flush must split it on record
// boundaries into consecutive in-bound frames with contiguous
// FirstSeq/Count — not emit one oversized frame that the wire refuses
// and the link dies on, forever, under that workload.
func TestFlushSplitsOversizedBatches(t *testing.T) {
	s := &Shipper{}
	cs := &captureSink{}
	s.Attach(cs)
	if s.install() == nil {
		t.Fatal("install returned no sink for a staged attach")
	}
	const recs = 24 // ~64 KiB each: ~1.5 MiB buffered, > MaxReplBody
	var want []byte
	data := make([]byte, wire.MaxData)
	for i := 0; i < recs; i++ {
		frame, err := AppendRecord(nil, wire.Request{
			Op: wire.OpWrite, ID: uint64(i + 1), Block: int64(i), Data: data,
		})
		if err != nil {
			t.Fatalf("AppendRecord: %v", err)
		}
		s.record(frame)
		want = append(want, frame...)
	}
	s.flush(7)
	if st := s.Stats(); !st.Attached || st.SendErrors != 0 {
		t.Fatalf("ship stats = %+v, want the link to survive the oversized group commit", st)
	}
	if len(cs.frames) < 2 {
		t.Fatalf("%d bytes of records shipped as %d frame(s); want a split", len(want), len(cs.frames))
	}
	var got []byte
	next, count := uint64(1), 0
	for i, f := range cs.frames {
		if f.Kind != wire.ReplWALBatch {
			t.Fatalf("frame %d is %s, want wal-batch", i, f.Kind)
		}
		if f.Term != 7 {
			t.Fatalf("frame %d term = %d, want 7", i, f.Term)
		}
		if f.FirstSeq != next {
			t.Fatalf("frame %d starts at seq %d, want %d (the mirror's continuity check would desync)", i, f.FirstSeq, next)
		}
		next += uint64(f.Count)
		count += f.Count
		got = append(got, f.Data...)
	}
	if count != recs || !bytes.Equal(got, want) {
		t.Fatalf("split stream carries %d records / %d bytes, want %d / %d", count, len(got), recs, len(want))
	}
}

// TestInstallAttachRaceKeepsLiveSink pins the spurious-wakeup shape: an
// Attach landing between a previous install's staged-sink consumption
// and its pendingAttach clear leaves the flag set with nothing staged.
// Servicing that must be a no-op — the earlier behavior dropped the
// just-installed live sink, leaving an open connection shipping nothing.
func TestInstallAttachRaceKeepsLiveSink(t *testing.T) {
	s := &Shipper{}
	cs := &captureSink{}
	s.Attach(cs)
	if s.install() == nil {
		t.Fatal("install returned no sink for a staged attach")
	}
	s.pendingAttach.Store(true) // the race's residue: flag set, next nil
	if got := s.install(); got != nil {
		t.Fatalf("spurious install returned %v, want nil", got)
	}
	if s.pendingAttach.Load() {
		t.Fatal("spurious install left pendingAttach set; the engine would loop")
	}
	if !s.Stats().Attached {
		t.Fatal("spurious install dropped the live sink")
	}
	frame, err := AppendRecord(nil, wire.Request{Op: wire.OpWrite, ID: 1, Block: 0, Data: []byte{1}})
	if err != nil {
		t.Fatal(err)
	}
	s.record(frame)
	s.flush(1)
	if len(cs.frames) != 1 {
		t.Fatalf("live sink shipped %d frames after the spurious install, want 1", len(cs.frames))
	}
}

// TestDeltaReplicaFingerprintMatchesFull extends the delta-chain
// recovery-identity pin with replication (the PR's satellite): a replica
// that bootstraps from a base mid-chain and then follows the live stream
// must recover to the identical fingerprint a full-image (BaseEvery 1)
// engine's recovery produces on the same seeded op sequence.
func TestDeltaReplicaFingerprintMatchesFull(t *testing.T) {
	driveOps := func(t *testing.T, e *Engine, from, to int, r *rng.Source) {
		t.Helper()
		for i := from; i < to; i++ {
			blk := int64(r.Uint64n(uint64(e.NumBlocks())))
			switch {
			case r.Float64() < 0.6:
				if err := commit(e, 0, blk, payload(e.BlockSize(), byte(i))); err != nil {
					t.Fatalf("Write %d: %v", i, err)
				}
			default:
				if err := e.Access(blk); err != nil {
					t.Fatalf("Access %d: %v", i, err)
				}
			}
		}
	}

	// Reference: the full-image engine, crash shape, recovered.
	fullOpt := testOptions(t.TempDir())
	fullOpt.SnapshotEvery = 2
	fe, err := Open(fullOpt)
	if err != nil {
		t.Fatalf("Open full: %v", err)
	}
	driveOps(t, fe, 0, 40, rng.New(99))
	ref, err := Open(fullOpt)
	if err != nil {
		t.Fatalf("recover full: %v", err)
	}
	fpFull, err := ref.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()

	// Replicated delta engine: same seeded ops, replica attached mid-run
	// — after enough rotations that the bootstrap base sits mid-chain.
	ddir, mdir := t.TempDir(), t.TempDir()
	dopt := deltaOptions(ddir)
	ship := &Shipper{ChunkBytes: 1 << 10}
	dopt.Ship = ship
	de, err := Open(dopt)
	if err != nil {
		t.Fatalf("Open delta: %v", err)
	}
	r := rng.New(99)
	driveOps(t, de, 0, 22, r)
	m := attachMirror(t, ship, mdir)
	driveOps(t, de, 22, 40, r)
	if !m.Booted() {
		t.Fatal("replica never booted")
	}
	if st := ship.Stats(); !st.Attached {
		t.Fatalf("ship stats = %+v, want the link alive through the run", st)
	}
	// Crash shape on the primary: no Close. The replica has every synced
	// record (each write's BatchSync flushes it), so its recovery must land on
	// the same state the primary's own recovery does — which in turn
	// matches the full-image reference.
	m.Close()
	mopt := deltaOptions(mdir)
	me, err := Open(mopt)
	if err != nil {
		t.Fatalf("promote replica: %v", err)
	}
	defer me.Close()
	fpReplica, err := me.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpReplica != fpFull {
		t.Fatalf("replica recovery fingerprint %x, full recovery %x", fpReplica[:8], fpFull[:8])
	}
}
