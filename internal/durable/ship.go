package durable

import (
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server/wire"
	"repro/internal/vfs"
)

// Shipper streams one engine's durability events to a standby as
// replication frames (the wire repl sub-protocol): every fsynced WAL
// record, every rotation, every published checkpoint, and every
// compaction, in the exact order the engine performs them — so the
// standby's directory stays structurally identical to the primary's and
// a promotion is just durable.Open on the mirror plus a term bump.
//
// The engine drives the shipper from its own (single) goroutine at the
// existing hook points: record() after each WAL append, flush() at each
// successful fsync, rotate/compact around the corresponding
// housekeeping. A background checkpoint publish ships its blob from the
// publish goroutine; sendMu serializes the two senders so frames never
// interleave mid-operation. The replica side attaches and acknowledges
// from its own goroutines (Attach/Ack/Detach).
//
// Shipping failures never poison the engine: a broken link detaches the
// sink (the serving layer redials and re-attaches), and durability falls
// back to the local disk — exactly the async-replication contract. Under
// SemiSync the engine additionally waits for the replica's ack before
// acknowledging a write to the client; a wait that times out degrades
// that write (and the ones after it, until the replica catches up) to
// local-only durability rather than wedging serving, and the
// degradation is counted and observable.
type Shipper struct {
	// Shard is stamped into every frame so one connection can carry a
	// whole fleet's streams.
	Shard int
	// SemiSync makes the engine wait for the replica's fsync ack before
	// acknowledging a write (the -ack=replica policy).
	SemiSync bool
	// AckTimeout bounds a semi-sync wait. Default 250ms.
	AckTimeout time.Duration
	// ChunkBytes sizes checkpoint-file chunks. Default 256 KiB.
	ChunkBytes int
	// Logf receives rare link events. Default: discard.
	Logf func(format string, args ...any)

	// pendingAttach flags a sink waiting to be installed; the engine
	// polls it (one atomic load) at operation boundaries and services
	// the attach at a consistent point (Engine.maybeAttach).
	pendingAttach atomic.Bool

	// sendMu serializes frame emission: the engine goroutine and the
	// background checkpoint-publish goroutine both ship.
	sendMu sync.Mutex

	// mu guards the link state below. Lock order: sendMu before mu;
	// never acquire sendMu while holding mu.
	mu       sync.Mutex
	sink     FrameSink
	next     FrameSink // staged by Attach, installed by the engine
	seq      uint64    // records buffered or shipped on the current link
	flushed  uint64    // seq covered by sent wal-batches
	acked    uint64    // replica's durable watermark
	ackCh    chan struct{}
	batch    []byte    // framed records appended since the last flush
	recLens  []int     // per-record frame lengths in batch (split points)
	outBytes []shipOut // unacked flushes, for byte-lag accounting
	degraded bool
	stats    ShipStats
}

// shipOut tracks one unacked flush for lag accounting.
type shipOut struct {
	seq   uint64
	bytes uint64
}

// ShipStats is a point-in-time snapshot of the replication link, for
// counter dumps and the Info replication tail.
type ShipStats struct {
	Attached    bool
	Seq         uint64 // newest record buffered or shipped on this link
	AckedSeq    uint64 // replica's durable watermark
	LagRecords  uint64 // Seq - AckedSeq
	LagBytes    uint64 // record bytes not yet acknowledged
	Degraded    bool   // semi-sync currently falling back to local-only acks
	Boots       uint64 // bootstraps completed on this shipper
	SendErrors  uint64 // send failures (each drops the link)
	AckWaits    uint64 // semi-sync waits that blocked
	AckTimeouts uint64 // semi-sync waits that timed out (degradations)
}

// FrameSink carries replication frames to the replica. The shipper
// serializes SendFrame calls; an error detaches the link.
type FrameSink interface {
	SendFrame(f wire.ReplFrame) error
}

func (s *Shipper) ackTimeout() time.Duration {
	if s.AckTimeout > 0 {
		return s.AckTimeout
	}
	return 250 * time.Millisecond
}

func (s *Shipper) chunkBytes() int {
	if s.ChunkBytes > 0 {
		return s.ChunkBytes
	}
	return 256 << 10
}

func (s *Shipper) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Attach stages a sink for the engine to install at its next operation
// boundary: the engine ships a full bootstrap (checkpoint chain + live
// WAL image) through it before any incremental frames. Any previously
// live link keeps flowing until the swap. Safe from any goroutine.
func (s *Shipper) Attach(sink FrameSink) {
	s.mu.Lock()
	s.next = sink
	s.mu.Unlock()
	s.pendingAttach.Store(true)
}

// Detach drops the live link (and any staged one): shipping stops and
// semi-sync waits degrade immediately. Safe from any goroutine.
func (s *Shipper) Detach() {
	s.mu.Lock()
	s.dropLocked(nil)
	s.next = nil
	s.mu.Unlock()
	s.pendingAttach.Store(false)
}

// Ack records the replica's durable watermark: every record through seq
// — and every earlier frame — is applied and fsynced on the standby.
// Safe from any goroutine (the serving layer's ack reader calls it).
func (s *Shipper) Ack(seq uint64) {
	s.mu.Lock()
	if seq > s.acked {
		s.acked = seq
		for len(s.outBytes) > 0 && s.outBytes[0].seq <= seq {
			s.outBytes = s.outBytes[1:]
		}
		if s.degraded && s.acked >= s.flushed {
			s.degraded = false
			s.logf("durable: shard %d replica caught up, semi-sync restored", s.Shard)
		}
		s.wakeLocked()
	}
	s.mu.Unlock()
}

// isAttached reports a live link. Safe from any goroutine.
func (s *Shipper) isAttached() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sink != nil
}

// Stats snapshots the link state. Safe from any goroutine.
func (s *Shipper) Stats() ShipStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Attached = s.sink != nil
	st.Seq = s.seq
	st.AckedSeq = s.acked
	if s.seq > s.acked {
		st.LagRecords = s.seq - s.acked
	}
	for _, o := range s.outBytes {
		st.LagBytes += o.bytes
	}
	st.LagBytes += uint64(len(s.batch))
	st.Degraded = s.degraded
	return st
}

// wakeLocked broadcasts to semi-sync waiters by replacing the ack
// channel. Callers hold mu.
func (s *Shipper) wakeLocked() {
	if s.ackCh != nil {
		close(s.ackCh)
	}
	s.ackCh = make(chan struct{})
}

// dropLocked detaches the sink after a send failure (or an explicit
// Detach when err is nil). Callers hold mu.
func (s *Shipper) dropLocked(err error) {
	if s.sink == nil {
		return
	}
	s.sink = nil
	s.batch = nil
	s.recLens = nil
	s.outBytes = nil
	if err != nil {
		s.stats.SendErrors++
		s.logf("durable: shard %d replication link lost: %v", s.Shard, err)
	}
	// Wake any semi-sync waiter so it degrades instead of timing out.
	s.wakeLocked()
}

// record buffers one freshly appended WAL record frame for the next
// flush, assigning it the next stream sequence number. Engine goroutine
// only; the frame is copied (the WAL reuses its buffer).
func (s *Shipper) record(frame []byte) {
	s.mu.Lock()
	if s.sink != nil {
		s.seq++
		s.batch = append(s.batch, frame...)
		s.recLens = append(s.recLens, len(frame))
	}
	s.mu.Unlock()
}

// flush ships the buffered records as one wal-batch frame. The engine
// calls it after every successful WAL fsync, so a shipped record is
// always locally durable first. Engine or publish goroutine; the batch
// is detached from the buffer before the send, so records appended
// concurrently (engine thread during a publish-goroutine flush) land in
// the next batch.
func (s *Shipper) flush(term uint64) {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	s.flushLocked(term)
}

// maxBatchData bounds one wal-batch frame's records region, leaving
// headroom for the frame header and batch fields under wire.MaxReplBody.
// A single WAL record (body ≤ wire.MaxBody, ~64 KiB) always fits.
const maxBatchData = wire.MaxReplBody - 64

// flushLocked is flush for callers already holding sendMu. A deep group
// commit can buffer more record bytes than one frame may carry, so the
// batch is split on record boundaries into consecutive frames with
// contiguous FirstSeq/Count — the mirror's stream accounting sees one
// unbroken sequence.
func (s *Shipper) flushLocked(term uint64) {
	s.mu.Lock()
	if s.sink == nil || len(s.recLens) == 0 {
		s.mu.Unlock()
		return
	}
	sink := s.sink
	var frames []wire.ReplFrame
	data, lens := s.batch, s.recLens
	for len(lens) > 0 {
		n, size := 0, 0
		for n < len(lens) && (n == 0 || size+lens[n] <= maxBatchData) {
			size += lens[n]
			n++
		}
		frames = append(frames, wire.ReplFrame{
			Kind:     wire.ReplWALBatch,
			Term:     term,
			Shard:    s.Shard,
			FirstSeq: s.flushed + 1,
			Count:    n,
			Data:     data[:size],
		})
		s.flushed += uint64(n)
		s.outBytes = append(s.outBytes, shipOut{seq: s.flushed, bytes: uint64(size)})
		data, lens = data[size:], lens[n:]
	}
	s.batch = nil
	s.recLens = nil
	s.mu.Unlock()
	for _, f := range frames {
		if err := sink.SendFrame(f); err != nil {
			s.mu.Lock()
			s.dropLocked(err)
			s.mu.Unlock()
			return
		}
	}
}

// sendEvent ships one control frame (rotate, compact, heartbeat,
// boot-done), flushing buffered records first so the replica applies
// events in the engine's order. Engine or publish goroutine.
func (s *Shipper) sendEvent(f wire.ReplFrame) {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	s.flushLocked(f.Term)
	s.mu.Lock()
	sink := s.sink
	s.mu.Unlock()
	if sink == nil {
		return
	}
	if err := sink.SendFrame(f); err != nil {
		s.mu.Lock()
		s.dropLocked(err)
		s.mu.Unlock()
	}
}

// rotate announces a fresh WAL segment for epoch.
func (s *Shipper) rotate(term, epoch uint64) {
	s.sendEvent(wire.ReplFrame{Kind: wire.ReplRotate, Term: term, Shard: s.Shard, Epoch: epoch})
}

// compact announces a deterministic rewrite of the live segment; the
// replica re-runs the identical rewrite on its byte-identical copy.
func (s *Shipper) compact(term, epoch uint64) {
	s.sendEvent(wire.ReplFrame{Kind: wire.ReplCompact, Term: term, Shard: s.Shard, Epoch: epoch})
}

// Heartbeat ships the newest flushed seq, soliciting an ack carrying
// the replica's watermark. The serving layer's keepalive ticker calls
// it with the engine's current term. Safe from any goroutine.
func (s *Shipper) Heartbeat(term uint64) {
	s.mu.Lock()
	seq := s.flushed
	s.mu.Unlock()
	s.sendEvent(wire.ReplFrame{Kind: wire.ReplHeartbeat, Term: term, Shard: s.Shard, Seq: seq})
}

// shipFile streams one file's bytes as snap-chunk frames, flushing
// buffered records first to preserve order. Engine or publish
// goroutine. An empty file still ships (one empty final chunk).
func (s *Shipper) shipFile(term uint64, kind wire.ReplFileKind, epoch uint64, data []byte) {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	s.flushLocked(term)
	s.mu.Lock()
	sink := s.sink
	s.mu.Unlock()
	if sink == nil {
		return
	}
	chunk := s.chunkBytes()
	for off := 0; ; off += chunk {
		end := off + chunk
		last := end >= len(data)
		if last {
			end = len(data)
		}
		f := wire.ReplFrame{
			Kind: wire.ReplSnapChunk, Term: term, Shard: s.Shard,
			File: kind, Epoch: epoch, Last: last, Data: data[off:end],
		}
		if err := sink.SendFrame(f); err != nil {
			s.mu.Lock()
			s.dropLocked(err)
			s.mu.Unlock()
			return
		}
		if last {
			return
		}
	}
}

// install moves the staged sink live, resetting the stream accounting
// for the bootstrap. Engine goroutine (maybeAttach) only.
//
// An Attach can race a previous install (stage its sink after that
// install read next but before it cleared pendingAttach), leaving the
// flag set with no staged sink. That spurious wakeup must leave the
// live link untouched — dropping it here would strand an open, healthy
// connection with no sink behind it — so the flag is cleared and next
// is re-checked under the same mu section.
func (s *Shipper) install() FrameSink {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pendingAttach.Store(false)
	if s.next == nil {
		return nil
	}
	s.dropLocked(nil)
	s.sink = s.next
	s.next = nil
	s.seq = 0
	s.flushed = 0
	s.acked = 0
	s.degraded = false
	return s.sink
}

// finishBoot ends a bootstrap: the shipped WAL image already holds n
// records, so the stream resumes from seq n.
func (s *Shipper) finishBoot(term uint64, n uint64) {
	s.mu.Lock()
	if s.sink != nil {
		s.seq = n
		s.flushed = n
		s.stats.Boots++
	}
	s.mu.Unlock()
	s.sendEvent(wire.ReplFrame{Kind: wire.ReplBootDone, Term: term, Shard: s.Shard, Seq: n})
}

// waitAcked blocks until the replica acknowledges seq, the link drops,
// or the ack timeout passes. Returns whether the ack arrived — the
// semi-sync durability promise holds for this write. On timeout the
// link degrades to async (counted, logged once per episode) so serving
// is never wedged by a slow standby.
func (s *Shipper) waitAcked(seq uint64) bool {
	deadline := time.Now().Add(s.ackTimeout())
	timer := time.NewTimer(s.ackTimeout())
	defer timer.Stop()
	waited := false
	for {
		s.mu.Lock()
		if s.acked >= seq {
			s.mu.Unlock()
			return true
		}
		if s.sink == nil {
			s.degraded = true
			s.mu.Unlock()
			return false
		}
		if s.ackCh == nil {
			s.wakeLocked()
		}
		ch := s.ackCh
		if !waited {
			waited = true
			s.stats.AckWaits++
		}
		s.mu.Unlock()
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(time.Until(deadline))
		select {
		case <-ch:
		case <-timer.C:
			s.mu.Lock()
			timedOut := s.acked < seq
			if timedOut {
				s.stats.AckTimeouts++
				if !s.degraded {
					s.degraded = true
					s.logf("durable: shard %d semi-sync ack timeout at seq %d, degrading to async", s.Shard, seq)
				}
			}
			s.mu.Unlock()
			return !timedOut
		}
	}
}

// semiSyncWait is the engine-side ack gate: under SemiSync, block until
// the replica has fsynced everything flushed so far. While the link is
// degraded (an earlier wait timed out and the replica hasn't caught up)
// the wait is skipped entirely — re-paying the full timeout on every
// batch would cap the shard at ~1/AckTimeout synced batches per second.
// Ack clears the flag once the replica's watermark reaches the flushed
// seq, and full waits resume.
func (s *Shipper) semiSyncWait() {
	if !s.SemiSync {
		return
	}
	s.mu.Lock()
	seq := s.flushed
	attached := s.sink != nil
	degraded := s.degraded
	s.mu.Unlock()
	if !attached || seq == 0 || degraded {
		return
	}
	s.waitAcked(seq)
}

// --- engine-side integration -------------------------------------------

// maybeAttach services a staged replica attach at a consistent point:
// any in-flight checkpoint publish is awaited, dirty WAL records are
// fsynced, and the whole chain plus the live WAL image ship before
// incremental frames resume. Called from operation boundaries; one
// atomic load when nothing is staged.
func (e *Engine) maybeAttach() error {
	s := e.opt.Ship
	if s == nil || !s.pendingAttach.Load() {
		return nil
	}
	// The bootstrap reads published files back from the directory, so
	// everything captured must be on disk first; a publish failure
	// poisons exactly like pollPublish on the write path would.
	if err := e.awaitPublish(); err != nil {
		return e.fail(err)
	}
	if e.dirty != 0 || e.sinceSync != 0 {
		if err := e.syncWAL(); err != nil {
			return e.fail(err)
		}
	}
	if s.install() == nil {
		return nil
	}
	term := e.Term()
	base := e.epoch
	if e.opt.DeltaSnapshots {
		base = e.epoch - uint64(e.sinceBase)
	}
	drop := func(err error) error {
		// A bootstrap read failure is a local-disk problem for the next
		// recovery to surface, not a serving failure: the primary keeps
		// running, the link drops.
		s.logf("durable: shard %d replica bootstrap: %v", s.Shard, err)
		s.Detach()
		return nil
	}
	blob, err := readFile(e.fs, filepath.Join(e.opt.Dir, snapName(base)))
	if err != nil {
		return drop(err)
	}
	s.shipFile(term, wire.ReplFileBase, base, blob)
	for de := base + 1; de <= e.epoch; de++ {
		blob, err := readFile(e.fs, filepath.Join(e.opt.Dir, deltaName(de)))
		if err != nil {
			return drop(err)
		}
		s.shipFile(term, wire.ReplFileDelta, de, blob)
	}
	walData, err := readWAL(e.fs, filepath.Join(e.opt.Dir, walName(e.epoch)))
	if err != nil {
		return drop(err)
	}
	recs, _, _ := ScanWAL(walData)
	s.shipFile(term, wire.ReplFileWAL, e.epoch, walData)
	s.finishBoot(term, uint64(len(recs)))
	return nil
}

// shipRecord forwards one appended record frame to the shipper.
func (e *Engine) shipRecord(frame []byte) {
	if s := e.opt.Ship; s != nil {
		s.record(frame)
	}
}

// shipFlush ships buffered records after a successful fsync.
func (e *Engine) shipFlush() {
	if s := e.opt.Ship; s != nil {
		s.flush(e.Term())
	}
}

// shipSemiSync blocks the ack path until the replica catches up, when
// the semi-sync policy is on.
func (e *Engine) shipSemiSync() {
	if s := e.opt.Ship; s != nil {
		s.semiSyncWait()
	}
}

// readFile loads one file's bytes through the engine's filesystem.
func readFile(fs vfs.FS, path string) ([]byte, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}
