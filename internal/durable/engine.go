// Package durable is the persistence engine behind the serving layer: it
// makes an aboram.ORAM crash-safe by combining periodic atomic snapshots
// (aboram's checkpoint stream behind temp file + fsync + rename)
// with a write-ahead log of acknowledged mutating operations: wire-protocol
// requests in internal/frame's CRC-checked record frame (see wal.go).
//
// The engine has one write protocol, the one the serving scheduler
// drives for every drained batch:
//
//  1. Write / WriteIdentified apply the op and append its record to the
//     WAL. They do not fsync (except through the MaxSyncDelay safety net
//     below), and a nil return is not yet an acknowledgment.
//  2. BatchSync fsyncs everything appended since the last sync and, with
//     semi-sync replication, waits for the standby. It is the
//     acknowledgment point: the batch's writes are durable when it
//     returns nil, and only then may they be acknowledged.
//  3. MaybeCheckpoint, after the acknowledgments, performs any rotation
//     or WAL compaction the batch's writes made due, so a checkpoint cut
//     never lands between a write and its acknowledgment.
//
// A driver without batches is a batch of one: Write, BatchSync,
// acknowledge, MaybeCheckpoint. MaxSyncDelay bounds how long an
// appended-but-unsynced record may wait if no BatchSync arrives.
//
// The contract is zero acknowledged-write loss. Recovery loads the newest
// readable checkpoint chain, replays the WAL suffix up to the first
// damaged record, and discards the torn tail; an op that was never
// acknowledged may or may not survive, an acknowledged one always does.
// When a checkpoint file recovery cannot use holds writes that no WAL
// segment left on disk covers, Open fails closed: it returns an error
// and leaves the directory as it found it.
// internal/check's crash harness enforces exactly this contract at
// fault-injected kill points.
//
// Writes also carry wire request ids (WriteIdentified): each id is
// logged in the WAL record and the recent-id set rides in every
// checkpoint header, so recovery returns the ids of acknowledged writes
// (RecentWriteIDs) and the front end can seed its retry-dedup window —
// a retried write straddling a crash is recognized, not applied twice.
//
// Checkpoints form a chain: the instance stamps every bucket,
// position-map entry, and data slot it mutates, and a rotation captures
// only the state touched since the previous cut, except that every
// BaseEvery-th rotation captures a full base image, bounding the
// recovery chain (BaseEvery 1 makes every checkpoint a full image). The
// capture is an in-memory copy, so the serving pause is proportional to
// what it copies; the encoded checkpoint publishes in the background
// while serving continues, and publishes are serialized so a crash can
// leave at most the newest chain element unpublished — a temp file
// recovery ignores, while the WAL segments it would have made redundant
// are pruned only after it publishes. CompactEvery independently bounds
// replay work for write-hot blocks by rewriting the live WAL segment in
// place, shrinking superseded whole-block writes to id-only dedup stubs.
//
// The engine is fail-stop: any error on the durability path (append,
// fsync, checkpoint capture or publish, compaction) poisons the instance
// and every later operation returns the original error. A store that can
// no longer persist must stop acknowledging — the recovery path, not
// optimistic continuation, is the consistency story. A background
// publish failure is promoted to fail-stop at the next write, sync,
// rotation, or Close.
//
// Engine methods are not safe for concurrent use. The intended topology
// is the one cmd/aboramd builds: Engine implements internal/server's
// Engine interface and is driven only by the scheduler's single protocol
// goroutine, which also means the WAL write order equals the
// acknowledgment order.
package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/aboram"
	"repro/internal/server/wire"
	"repro/internal/vfs"
)

// Options configures an Engine.
type Options struct {
	// Dir is the data directory (created if missing).
	Dir string
	// ORAM is the instance configuration: the same values must be passed
	// on every open of the same directory (the snapshot image carries no
	// key material, so the encryption key in particular must match).
	ORAM aboram.Options
	// SnapshotEvery makes a rotation (checkpoint + fresh WAL) due after
	// this many writes; the next MaybeCheckpoint performs it. Default 1024.
	SnapshotEvery int
	// SnapshotPhase offsets the first rotation after Open by this many
	// writes (taken modulo SnapshotEvery), so a fleet of shards opened
	// together staggers its checkpoint work instead of pausing in
	// lockstep.
	SnapshotPhase int
	// BaseEvery is the full-base cadence: every BaseEvery-th rotation
	// writes a full base image, and the rotations between write deltas of
	// the state touched since the previous cut (bounding chain length and
	// reclaiming chain disk). 1 makes every rotation a full image.
	// Recovery follows whatever chain is on disk, so the cadence may
	// change between opens of one directory. Default 8.
	BaseEvery int
	// CompactEvery, when > 0, makes a rewrite of the live WAL segment due
	// after this many appends since the segment started (or was last
	// compacted): superseded whole-block writes shrink to id-only dedup
	// stubs. This bounds replay work and log disk for write-hot blocks
	// even when rotations are far apart.
	CompactEvery int
	// SyncPublish forces rotations to publish the encoded checkpoint
	// inline before returning, instead of in the background.
	// Deterministic crash tests use it; serving keeps the default.
	SyncPublish bool
	// MaxSyncDelay bounds how long an appended record may sit unsynced
	// before a later write syncs it anyway (a safety net for drivers that
	// never call BatchSync). Default 5ms.
	MaxSyncDelay time.Duration
	// DedupTrack is how many recent acknowledged write ids the engine
	// remembers for crash-durable retry dedup (checkpoint header + WAL
	// replay). Default 4096, matching the front end's dedup window.
	DedupTrack int
	// Ship, when set, streams every durability event (fsynced WAL
	// records, rotations, published checkpoints, compactions) to a
	// warm standby as replication frames; see Shipper. Under
	// Ship.SemiSync the ack path additionally waits for the replica's
	// durable watermark.
	Ship *Shipper
	// Logf, when set, receives rare operational warnings (e.g. stale-file
	// pruning failures). Default: discard.
	Logf func(format string, args ...any)
	// FS is the filesystem to write through; tests inject a
	// faults-wrapped one. Default vfs.OS{}.
	FS vfs.FS

	// Deprecated: group commit is the engine's only sync policy. Read
	// nowhere; kept until the benchmark harness stops setting it.
	GroupCommit bool
	// Deprecated: every rotation writes the checkpoint chain; BaseEvery
	// alone sets the full-base cadence. Read nowhere; kept until the
	// benchmark harness stops setting it.
	DeltaSnapshots bool
	// Deprecated: rotations and compactions always wait for
	// MaybeCheckpoint. Read nowhere; kept until the benchmark harness
	// stops setting it.
	DeferCheckpoints bool
}

func (o Options) withDefaults() Options {
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 1024
	}
	if o.BaseEvery <= 0 {
		o.BaseEvery = 8
	}
	if o.MaxSyncDelay <= 0 {
		o.MaxSyncDelay = 5 * time.Millisecond
	}
	if o.DedupTrack <= 0 {
		o.DedupTrack = 4096
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.FS == nil {
		o.FS = vfs.OS{}
	}
	return o
}

// RecoveryStats describes what Open found and replayed.
type RecoveryStats struct {
	// BaseEpoch is the epoch of the snapshot recovery started from;
	// 0 means no snapshot was readable (fresh directory, or a crash
	// before the first snapshot published).
	BaseEpoch uint64
	// SnapshotsSkipped counts newer snapshot files that failed to load
	// before one succeeded.
	SnapshotsSkipped int
	// DeltasApplied counts the consecutive delta checkpoints applied on
	// top of the base snapshot; the chain covers epochs
	// BaseEpoch+1 .. BaseEpoch+DeltasApplied.
	DeltasApplied int
	// DeltasSkipped counts delta files that failed to decode or apply —
	// recovery rebuilt from the base and stopped the chain short of the
	// damage.
	DeltasSkipped int
	// SegmentsReplayed and RecordsReplayed count the WAL suffix applied
	// on top of the recovered chain.
	SegmentsReplayed int
	RecordsReplayed  int
	// IDsRecovered counts the distinct request ids recovered from the
	// checkpoint header plus WAL replay — the ids RecentWriteIDs reports.
	IDsRecovered int
	// TornTail reports that a WAL segment ended in a damaged record,
	// which recovery truncated — the signature of a mid-append crash.
	TornTail bool
}

// String renders the recovery the way the daemon logs it: the always
// present counts first, then only the anomalies that occurred.
func (r RecoveryStats) String() string {
	s := fmt.Sprintf("base epoch %d, %d WAL records replayed (%d segments), %d dedup ids",
		r.BaseEpoch, r.RecordsReplayed, r.SegmentsReplayed, r.IDsRecovered)
	if r.DeltasApplied > 0 {
		s += fmt.Sprintf(", %d deltas applied", r.DeltasApplied)
	}
	if r.TornTail {
		s += ", torn tail truncated"
	}
	if r.SnapshotsSkipped > 0 {
		s += fmt.Sprintf(", %d unreadable snapshots skipped", r.SnapshotsSkipped)
	}
	if r.DeltasSkipped > 0 {
		s += fmt.Sprintf(", %d unreadable deltas skipped", r.DeltasSkipped)
	}
	return s
}

// Stats counts the engine's durability work since Open.
type Stats struct {
	Writes        uint64 // logged writes
	Syncs         uint64 // WAL fsyncs (all causes)
	BatchedSyncs  uint64 // the subset issued by BatchSync
	Snapshots     uint64 // full base images
	DeltasWritten uint64 // delta checkpoints (rotations between bases)
	// SnapshotPauseNanos is cumulative wall time serving was blocked by
	// rotations: the in-memory capture (the whole image for a base, the
	// dirty set for a delta), any final old-segment fsync, and
	// fresh-segment creation. The publish itself overlaps serving unless
	// SyncPublish is set, and is never counted.
	SnapshotPauseNanos uint64
	// LastSnapshotBytes is the encoded size of the newest checkpoint
	// (full or delta) encoded so far, metadata header included.
	LastSnapshotBytes uint64
	CompactionRuns    uint64 // live WAL segments rewritten by compaction
	PruneFailures     uint64 // stale files that could not be removed
}

// idRing is a fixed-capacity FIFO of recent acknowledged write ids.
type idRing struct {
	buf  []uint64
	head int // index of the oldest element
	n    int
}

func newIDRing(capacity int) *idRing { return &idRing{buf: make([]uint64, capacity)} }

func (r *idRing) push(id uint64) {
	if len(r.buf) == 0 {
		return
	}
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = id
		r.n++
		return
	}
	r.buf[r.head] = id
	r.head = (r.head + 1) % len(r.buf)
}

func (r *idRing) list() []uint64 {
	out := make([]uint64, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.head+i)%len(r.buf)])
	}
	return out
}

// Engine is a crash-safe aboram.ORAM: checkpoints + WAL on the write
// path, replay on Open. It implements internal/server's Engine
// interface, plus its IdentifiedEngine, BatchSyncer, and Checkpointer
// extensions.
type Engine struct {
	fs  vfs.FS
	opt Options

	oram  *aboram.ORAM
	w     *wal
	epoch uint64

	sinceSnap    int    // writes since the last rotation
	sinceBase    int    // delta rotations since the last full base
	sinceCompact int    // appends to the live segment since its last compaction
	lastCut      uint64 // instance mutation epoch of the newest capture's cut
	dirty        int    // appended-but-unsynced records
	firstDirty   time.Time
	failed       error

	ids         *idRing
	pruneLogged bool

	// Background checkpoint publish: at most one in flight,
	// serialized by awaitPublish before the next rotation or compaction.
	pubWG  sync.WaitGroup
	pubMu  sync.Mutex
	pubErr error

	// statsMu guards stats and epoch only: the engine itself is
	// single-goroutine (the scheduler's), but Stats and Epoch serve
	// observability readers — a SIGUSR1 dump, a metrics poller — that
	// run concurrently with serving, as does the publish goroutine's
	// counter bookkeeping.
	statsMu  sync.Mutex
	stats    Stats
	recovery RecoveryStats
	// term is the promotion-fencing term (term.go), recovered by Open
	// and raised only by SetTerm. Guarded by statsMu for the same
	// reason as stats: observability readers and the publish goroutine
	// read it concurrently with serving.
	term uint64
}

// bump applies one counter update under the stats lock.
func (e *Engine) bump(f func(*Stats)) {
	e.statsMu.Lock()
	f(&e.stats)
	e.statsMu.Unlock()
}

// Open recovers (or initializes) the data directory and returns a
// serving-ready engine. On return a fresh epoch has been published: the
// newest checkpoint (always a full base image) reflects everything
// recovered, and the WAL is empty. Open refuses a directory holding a
// checkpoint it cannot use (damaged, of an older format, or above a
// damaged chain element) whose writes the WAL segments on disk do not
// cover; the refusal changes nothing in the directory.
func Open(opt Options) (*Engine, error) {
	opt = opt.withDefaults()
	fs := opt.FS
	if err := fs.MkdirAll(opt.Dir); err != nil {
		return nil, fmt.Errorf("durable: creating %s: %w", opt.Dir, err)
	}
	files, err := listDir(fs, opt.Dir)
	if err != nil {
		return nil, fmt.Errorf("durable: listing %s: %w", opt.Dir, err)
	}
	var snaps, wals []uint64
	var maxTerm, maxEpoch uint64
	deltaSet := map[uint64]bool{}
	for _, f := range files {
		switch f.kind {
		case kindSnap:
			snaps = append(snaps, f.epoch)
		case kindDelta:
			deltaSet[f.epoch] = true
		case kindWAL:
			wals = append(wals, f.epoch)
		default:
			continue
		}
		maxTerm = max(maxTerm, fileTerm(fs, opt.Dir, f))
		maxEpoch = max(maxEpoch, f.epoch)
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })

	e := &Engine{fs: fs, opt: opt, ids: newIDRing(opt.DedupTrack)}

	// Newest readable base extended by the longest cleanly-applying run
	// of consecutive deltas wins. A delta that fails to decode or apply
	// may have partially mutated the instance, so the chain is rebuilt
	// from the base, stopping short of the damage; an unreadable base
	// falls back an epoch. Either is safe only while the WAL segments the
	// skipped file made redundant survive (checked below).
	var chainIDs []uint64
	var chainTail uint64 // epoch of the newest applied chain element
	var cause error      // the newest file's load failure
	var causeEpoch uint64
	failed := func(epoch uint64, err error) {
		if cause == nil || epoch > causeEpoch {
			cause, causeEpoch = err, epoch
		}
	}
baseLoop:
	for _, se := range snaps {
		limit := -1 // deltas to apply; <0 = every consecutive one, shrinks on damage
		for {
			var o *aboram.ORAM
			ids, _, err := readCheckpoint(fs, opt.Dir, snapName(se), snapMagic, func(r io.Reader) (err error) {
				o, err = aboram.Load(opt.ORAM, r)
				return err
			})
			if err != nil {
				e.recovery.SnapshotsSkipped++
				failed(se, fmt.Errorf("%s: %w", snapName(se), err))
				continue baseLoop
			}
			applied, damaged := 0, false
			for de := se + 1; deltaSet[de] && (limit < 0 || applied < limit); de++ {
				dids, _, err := readCheckpoint(fs, opt.Dir, deltaName(de), deltaMagic, o.ApplyDelta)
				if err != nil {
					e.recovery.DeltasSkipped++
					failed(de, fmt.Errorf("%s: %w", deltaName(de), err))
					limit = applied
					damaged = true
					break
				}
				ids = dids
				applied++
			}
			if damaged {
				continue // rebuild from the base, stopping before the bad delta
			}
			e.oram = o
			chainIDs = ids
			e.recovery.BaseEpoch = se
			e.recovery.DeltasApplied = applied
			chainTail = se + uint64(applied)
			break baseLoop
		}
	}
	if err := checkCovered(opt.Dir, files, e.recovery.BaseEpoch, chainTail, cause); err != nil {
		return nil, err
	}
	if e.oram == nil {
		o, err := aboram.New(opt.ORAM)
		if err != nil {
			return nil, fmt.Errorf("durable: building instance: %w", err)
		}
		e.oram = o
	}
	// The newest applied chain element carries the id window as of its
	// cut; WAL replay pushes anything acknowledged after it.
	for _, id := range chainIDs {
		e.ids.push(id)
	}

	// Replay every WAL segment at or above the newest applied chain
	// element, oldest first. OpWrite records mutate content; OpAccess
	// records with an id are compaction stubs and only reseed the dedup
	// window (in original acknowledgment order). Anything else in a
	// segment is skipped (forward compatibility), and each segment is
	// truncated at its first damaged record.
	for _, we := range wals {
		if we < chainTail {
			continue
		}
		data, err := readWAL(fs, filepath.Join(opt.Dir, walName(we)))
		if err != nil {
			return nil, err
		}
		recs, _, torn := ScanWAL(data)
		for _, rec := range recs {
			switch rec.Op {
			case wire.OpWrite:
				if err := e.oram.Write(rec.Block, rec.Data); err != nil {
					return nil, fmt.Errorf("durable: replaying write(%d): %w", rec.Block, err)
				}
				if rec.ID != 0 {
					e.ids.push(rec.ID)
				}
				e.recovery.RecordsReplayed++
			case wire.OpAccess:
				if rec.ID != 0 {
					e.ids.push(rec.ID)
				}
			case wire.OpTerm:
				// A fencing-term bump (SetTerm); the ID field holds the
				// term. Checkpoint headers carry the term too, so the
				// maximum over both sources survives any crash.
				maxTerm = max(maxTerm, rec.ID)
			}
		}
		e.recovery.SegmentsReplayed++
		e.recovery.TornTail = e.recovery.TornTail || torn
	}
	e.recovery.IDsRecovered = e.ids.n

	// Publish the recovered state as a fresh epoch, then drop the old
	// generation. This first rotation must be a full base (the recovered
	// instance's mutation stamps don't line up with any on-disk cut),
	// which sinceBase = BaseEvery forces. Failing to publish fails Open:
	// an engine that cannot checkpoint must not start acknowledging
	// writes.
	e.epoch = maxEpoch
	e.sinceBase = e.opt.BaseEvery
	e.term = maxTerm // before the rotation below, so the fresh base stamps it
	if err := e.rotate(true); err != nil {
		if e.w != nil { // the fresh segment opens before the base publishes
			e.w.close()
		}
		return nil, err
	}
	e.statsMu.Lock()
	e.stats = Stats{} // rotation above is recovery work, not serving work
	e.statsMu.Unlock()
	if opt.SnapshotPhase > 0 {
		e.sinceSnap = opt.SnapshotPhase % opt.SnapshotEvery
	}
	return e, nil
}

// checkCovered is Open's fail-closed rule. Let S be the newest epoch of
// a checkpoint file outside the applied chain (base..tail; tail 0 when
// no base loaded): unreadable, of an older format, or stranded above a
// damaged element. A checkpoint at S captured every write in wal-1 ..
// wal-(S-1), and publishing it pruned the segments below it, so unless
// wal-max(tail,1) .. wal-(S-1) are all still on disk, recovering from
// the chain would silently lose acknowledged writes. wal-S must be there
// too: the engine creates it before S publishes and only a newer
// checkpoint prunes it, so without it nothing bounds what S held (a
// snap-1 is the empty initial base only in a directory the engine
// wrote). cause is the newest load failure, wrapped into the refusal.
func checkCovered(dir string, files []dirFile, base, tail uint64, cause error) error {
	var s uint64
	for _, f := range files {
		if (f.kind == kindSnap && f.epoch != base) || (f.kind == kindDelta && (f.epoch <= base || f.epoch > tail)) {
			s = max(s, f.epoch)
		}
	}
	if s <= tail {
		return nil
	}
	lo, have := max(tail, 1), uint64(0)
	for _, f := range files {
		if f.kind == kindWAL && f.epoch >= lo && f.epoch <= s {
			have++
		}
	}
	if have == s-lo+1 {
		return nil
	}
	if cause == nil {
		cause = errors.New("no readable chain reaches it")
	}
	return fmt.Errorf("durable: refusing to recover %s: the checkpoint at epoch %d is unusable and WAL segments %d..%d are not all on disk, so recovery would lose acknowledged writes: %w",
		dir, s, lo, s, cause)
}

// Recovery returns what Open found and replayed.
func (e *Engine) Recovery() RecoveryStats { return e.recovery }

// Stats returns the durability counters since Open. It is safe to call
// from any goroutine.
func (e *Engine) Stats() Stats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.stats
}

// Epoch returns the current checkpoint epoch. It is safe to call from
// any goroutine.
func (e *Engine) Epoch() uint64 {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.epoch
}

// NumBlocks returns the number of addressable blocks.
func (e *Engine) NumBlocks() int64 { return e.oram.NumBlocks() }

// BlockSize returns the block size in bytes.
func (e *Engine) BlockSize() int { return e.oram.BlockSize() }

// Encrypted reports whether the data plane is active.
func (e *Engine) Encrypted() bool { return e.oram.Encrypted() }

// Fingerprint hashes the complete logical state of the underlying
// instance (see aboram.Fingerprint). Recovery-identity tests compare
// engines recovered through different checkpoint formats with it.
func (e *Engine) Fingerprint() ([32]byte, error) { return e.oram.Fingerprint() }

// RecentWriteIDs returns the request ids of recently acknowledged
// identified writes, oldest first — after Open, the ids recovered from
// the checkpoint header and WAL replay. Seed the front end's retry-dedup
// window with them before serving.
func (e *Engine) RecentWriteIDs() []uint64 { return e.ids.list() }

// GroupCommit reports that BatchSync carries the fsync duty (satisfies
// internal/server's BatchSyncer). Always true: it is the only protocol.
func (e *Engine) GroupCommit() bool { return true }

// Durability reports the engine's durability counters in wire form, for
// the serving layer's Info response (satisfies internal/server's
// DurabilityReporter). Safe to call from any goroutine.
func (e *Engine) Durability() wire.DurabilityInfo {
	st := e.Stats()
	return wire.DurabilityInfo{
		Epoch:              e.Epoch(),
		Snapshots:          st.Snapshots,
		Deltas:             st.DeltasWritten,
		Compactions:        st.CompactionRuns,
		SnapshotPauseNanos: st.SnapshotPauseNanos,
		LastSnapshotBytes:  st.LastSnapshotBytes,
		Syncs:              st.Syncs,
	}
}

// fail poisons the engine: the durability layer can no longer keep its
// promise, so every later operation refuses with the original cause.
func (e *Engine) fail(err error) error {
	e.failed = err
	return err
}

// enter is the prologue of every serving call: a poisoned engine
// refuses with its cause, and a staged replica attach is serviced first.
func (e *Engine) enter() error {
	if e.failed != nil {
		return e.failed
	}
	return e.maybeAttach()
}

// pollPublish reports a background publish failure without waiting.
func (e *Engine) pollPublish() error {
	e.pubMu.Lock()
	defer e.pubMu.Unlock()
	return e.pubErr
}

// awaitPublish blocks until any in-flight background publish completes,
// then reports its failure if it had one.
func (e *Engine) awaitPublish() error {
	e.pubWG.Wait()
	return e.pollPublish()
}

// Access obliviously touches a block. Accesses mutate only the
// randomized protocol state, never content, so they are not logged:
// recovery reconstructs an equivalent (not bit-identical) position map
// from the checkpoint, which preserves every correctness and
// obliviousness property.
func (e *Engine) Access(block int64) error {
	if err := e.enter(); err != nil {
		return err
	}
	return e.oram.Access(block)
}

// Read obliviously fetches a block's content.
func (e *Engine) Read(block int64) ([]byte, error) {
	if err := e.enter(); err != nil {
		return nil, err
	}
	return e.oram.Read(block)
}

// ReadXOR fetches a block's content as an online-transfer payload
// (server.XORReader). Reads mutate no durable content, so — like Read —
// nothing is logged.
func (e *Engine) ReadXOR(block int64) (*aboram.XORResult, error) {
	if err := e.enter(); err != nil {
		return nil, err
	}
	return e.oram.ReadXOR(block)
}

// Write applies and logs one mutating op with no request id. A nil
// return is not an acknowledgment: the write is durable once the next
// BatchSync returns nil (see the package doc for the protocol).
func (e *Engine) Write(block int64, data []byte) error {
	return e.WriteIdentified(0, block, data)
}

// WriteIdentified is Write carrying the client's retry-dedup request id
// (0 = unidentified). The id is logged in the WAL record and kept in the
// recent-id set that every checkpoint header carries, so recovery can
// rebuild the retry-dedup window.
func (e *Engine) WriteIdentified(id uint64, block int64, data []byte) error {
	if err := e.enter(); err != nil {
		return err
	}
	if err := e.pollPublish(); err != nil {
		// A background checkpoint publish failed: stop acknowledging
		// before the WAL segments the lost checkpoint covers go stale.
		return e.fail(err)
	}
	if err := e.oram.Write(block, data); err != nil {
		// A domain error (bad block, wrong size) touched nothing durable
		// and does not poison the engine. A data-plane integrity error is
		// different: it is sticky in the ORAM, which returns it from every
		// later access and capture, so the engine fail-stops at its next
		// checkpoint capture. Retrying here cannot succeed.
		return err
	}
	rec, err := e.w.append(wire.Request{Op: wire.OpWrite, ID: id, Block: block, Data: data})
	if err != nil {
		return e.fail(err)
	}
	e.shipRecord(rec)
	if id != 0 {
		e.ids.push(id)
	}
	// Safety net: a record that has waited MaxSyncDelay for a BatchSync
	// is synced by the next write. The record just appended has waited
	// no time, so a batch of one never trips it. The semi-sync replica
	// wait stays at BatchSync — no ack is released before then anyway.
	e.dirty++
	switch {
	case e.dirty == 1:
		e.firstDirty = time.Now()
	case time.Since(e.firstDirty) >= e.opt.MaxSyncDelay:
		if err := e.syncWAL(); err != nil {
			return e.fail(err)
		}
	}
	e.bump(func(s *Stats) { s.Writes++ })
	e.sinceSnap++
	if e.opt.CompactEvery > 0 {
		e.sinceCompact++
	}
	return nil
}

// MaybeCheckpoint performs any rotation or compaction the writes made
// due (satisfies internal/server's Checkpointer). The scheduler calls it
// at batch boundaries, after the batch's acknowledgments, so the cut is
// consistent: no request is between its apply and its acknowledgment
// when the capture happens. A rotation wins over a compaction (the fresh
// segment starts empty). A no-op when nothing is due.
func (e *Engine) MaybeCheckpoint() error {
	if err := e.enter(); err != nil {
		return err
	}
	var err error
	switch {
	case e.sinceSnap >= e.opt.SnapshotEvery:
		err = e.rotate(e.opt.SyncPublish)
	case e.opt.CompactEvery > 0 && e.sinceCompact >= e.opt.CompactEvery:
		err = e.compactWAL()
	}
	if err != nil {
		return e.fail(err)
	}
	return nil
}

// BatchSync flushes every appended-but-unsynced WAL record to stable
// storage and, under semi-sync replication, waits for the standby: the
// acknowledgment point for every write since the previous call. The
// scheduler calls it once per drained batch, before acknowledging the
// batch's writes. The fsync is skipped when nothing is dirty.
func (e *Engine) BatchSync() error {
	if err := e.enter(); err != nil {
		return err
	}
	if e.dirty != 0 {
		if err := e.syncWAL(); err != nil {
			return e.fail(err)
		}
		e.bump(func(s *Stats) { s.BatchedSyncs++ })
	}
	// Semi-sync: hold the batch's acknowledgments until the replica has
	// fsynced everything flushed so far — including records the safety
	// net synced mid-batch, which is why this runs even with no dirty
	// records.
	e.shipSemiSync()
	return nil
}

// syncWAL fsyncs the open segment and resets the dirty accounting. The
// replication flush rides here — after the fsync, so a shipped record
// is always locally durable first. The flush only sends (never waits
// for acks): rotation and compaction call syncWAL too, and a replica
// stall must not poison housekeeping.
func (e *Engine) syncWAL() error {
	if err := e.w.sync(); err != nil {
		return err
	}
	e.bump(func(s *Stats) { s.Syncs++ })
	e.dirty = 0
	e.firstDirty = time.Time{}
	e.shipFlush()
	return nil
}

// Snapshot forces an epoch rotation (checkpoint + fresh WAL) now; the
// checkpoint is whichever chain element is due.
func (e *Engine) Snapshot() error {
	if e.failed != nil {
		return e.failed
	}
	if err := e.rotate(e.opt.SyncPublish); err != nil {
		return e.fail(err)
	}
	return nil
}

// rotate publishes epoch+1 and opens its fresh WAL segment, in two
// halves: a serving pause (the in-memory capture — the whole state for
// a base, the dirty set for a delta — any final fsync of the old
// segment, fresh segment creation) and a publish — encoding the captured
// checkpoint and writing it out — that runs in the background unless
// syncPublish is set. Bases and deltas differ only in what is captured
// and in the file it lands in.
func (e *Engine) rotate(syncPublish bool) error {
	// Publishes are serialized: the previous chain element must be
	// durable before its successor captures (and before the WAL segments
	// it covers are pruned), so a crash can tear at most the newest
	// element — whose writes the surviving WAL still covers.
	if err := e.awaitPublish(); err != nil {
		return err
	}
	start := time.Now()
	next := e.epoch + 1
	term := e.Term()
	isBase := e.sinceBase+1 >= e.opt.BaseEvery
	capture := func() (*aboram.DeltaSnapshot, uint64, error) { return e.oram.CaptureDelta(e.lastCut) }
	final, magic, kind := deltaName(next), deltaMagic, wire.ReplFileDelta
	if isBase {
		capture = e.oram.CaptureBase
		final, magic, kind = snapName(next), snapMagic, wire.ReplFileBase
	}
	meta := appendMeta(nil, magic, term, e.ids.list())
	snap, cut, err := capture()
	if err != nil {
		return fmt.Errorf("durable: capturing checkpoint: %w", err)
	}
	e.lastCut = cut
	// The in-memory capture is not durable until the publish lands, so
	// the old segment — which covers everything the capture holds — must
	// be fully on stable storage before it stops being the newest. When
	// every append already is (the BatchSync that preceded the scheduler's
	// MaybeCheckpoint), the fsync is skipped and the serving pause holds
	// only the capture and the segment handoff.
	if e.w != nil {
		if e.dirty != 0 {
			if err := e.syncWAL(); err != nil {
				return err
			}
		}
		e.w.close()
	}
	w, err := createWAL(e.fs, filepath.Join(e.opt.Dir, walName(next)))
	if err != nil {
		return fmt.Errorf("durable: creating WAL segment: %w", err)
	}
	e.w = w
	if isBase {
		e.sinceBase = 0
	} else {
		e.sinceBase++
	}
	// The old segment was synced above, so the fresh one starts clean.
	e.statsMu.Lock()
	e.epoch = next
	e.statsMu.Unlock()
	e.sinceSnap, e.sinceCompact = 0, 0
	// The rotate frame ships from the engine thread, before the
	// checkpoint blob (which publishes — and ships — in the background):
	// the replica opens its fresh segment in lockstep and the blob
	// catches up later, exactly as the local directory does.
	if s := e.opt.Ship; s != nil {
		s.rotate(term, next)
	}
	e.bump(func(s *Stats) {
		if isBase {
			s.Snapshots++
		} else {
			s.DeltasWritten++
		}
		s.SnapshotPauseNanos += uint64(time.Since(start))
	})
	publish := func() error {
		buf := bytes.NewBuffer(meta)
		if err := snap.Encode(buf); err != nil {
			return fmt.Errorf("durable: encoding checkpoint: %w", err)
		}
		blob := buf.Bytes()
		// The encoded size is known only now; bump is lock-protected, so
		// the async path updates it safely when the publish lands.
		e.bump(func(s *Stats) { s.LastSnapshotBytes = uint64(len(blob)) })
		if _, err := publish(e.fs, e.opt.Dir, final, blob, false); err != nil {
			return err
		}
		e.prune(next, isBase)
		if s := e.opt.Ship; s != nil {
			s.shipFile(term, kind, next, blob)
		}
		return nil
	}
	if syncPublish {
		return publish()
	}
	e.pubWG.Add(1)
	go func() {
		defer e.pubWG.Done()
		if err := publish(); err != nil {
			e.pubMu.Lock()
			e.pubErr = err
			e.pubMu.Unlock()
		}
	}()
	return nil
}

// prune removes the files the checkpoint just published at epoch pub
// made stale (dirFile.stale). Failures are counted (and logged once) so
// leaked disk is observable.
func (e *Engine) prune(pub uint64, base bool) {
	pruneDir(e.fs, e.opt.Dir, pub, base, func(name string, err error) {
		e.bump(func(s *Stats) { s.PruneFailures++ })
		if !e.pruneLogged {
			e.pruneLogged = true
			e.opt.Logf("durable: pruning stale %s: %v (counting further failures silently)", name, err)
		}
	})
}

// compactWAL rewrites the live segment in place, shrinking superseded
// whole-block writes to id-only dedup stubs. Records are whole-content
// writes, so for each block only its newest record matters to recovery;
// the ids of older ones must still survive for retry dedup, encoded as
// OpAccess records at their original positions so replay reseeds the id
// window in exact acknowledgment order.
func (e *Engine) compactWAL() error {
	// Serialized with background publishes: the publish prune sweep
	// removes temp files and must not race the compaction temp.
	if err := e.awaitPublish(); err != nil {
		return err
	}
	// The rewrite replaces the segment, so every append must be durable
	// (and shipped) first — already true after the BatchSync that
	// precedes the scheduler's MaybeCheckpoint.
	if e.dirty != 0 {
		if err := e.syncWAL(); err != nil {
			return err
		}
	}
	f, err := compactSegment(e.fs, e.opt.Dir, e.epoch)
	if err != nil {
		return err
	}
	e.sinceCompact = 0
	if f == nil {
		return nil
	}
	e.w.close() // orphaned pre-compaction inode
	e.w = &wal{f: f}
	e.bump(func(s *Stats) { s.CompactionRuns++ })
	// The rewrite is a pure function of the segment bytes, and the
	// replica's copy is byte-identical (wal-batches ship records
	// verbatim): announcing the compaction is enough for it to re-run
	// the same rewrite and stay byte-identical.
	if s := e.opt.Ship; s != nil {
		s.compact(e.Term(), e.epoch)
	}
	return nil
}

// Close syncs and closes the WAL. It does not checkpoint: recovery
// replays the log instead, and a crash immediately before Close must
// behave identically to Close itself.
func (e *Engine) Close() error {
	// A background publish may still be writing into the directory; wait
	// it out even when poisoned, so Close is a clean barrier.
	e.pubWG.Wait()
	if e.w == nil {
		return nil
	}
	if e.failed != nil {
		e.w.close()
		return nil
	}
	if err := e.pollPublish(); err != nil {
		e.w.close()
		return err
	}
	if err := e.w.sync(); err != nil {
		e.w.close()
		return err
	}
	// Ship whatever the final sync covered, so a clean shutdown leaves
	// the standby holding every acknowledged write.
	e.shipFlush()
	return e.w.close()
}
