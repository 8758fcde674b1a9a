package durable

import (
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/server/wire"
	"repro/internal/vfs"
)

// ErrStaleTerm rejects a replication frame whose fencing term is below
// the mirror directory's: the sender is a deposed primary. The replica
// drops the connection instead of letting the stale stream wipe or
// overwrite state a promoted node has acknowledged — the split-brain
// guard the failover oracle's negative control proves necessary.
var ErrStaleTerm = errors.New("durable: replication frame from a stale term")

// MirrorOptions configures a Mirror.
type MirrorOptions struct {
	// Shard is the expected frame shard, for cross-wiring checks.
	Shard int
	// FenceOff disables term fencing — only the failover oracle's
	// negative control sets it, to prove fencing is what prevents a
	// deposed primary from destroying acknowledged writes.
	FenceOff bool
	// Logf receives rare events. Default: discard.
	Logf func(format string, args ...any)
	// FS is the filesystem to mirror into. Default vfs.OS{}.
	FS vfs.FS
}

// Mirror applies a primary's replication stream to a local directory,
// keeping it byte-identical to the primary's data directory: checkpoint
// blobs land via the same temp-fsync-rename publish, WAL records append
// verbatim to the same segment files, rotations and compactions replay
// as events (compaction re-runs the primary's deterministic rewrite on
// the identical bytes). Because the directory is a structural clone —
// not a live engine's re-derived state — a recovery from it makes
// exactly the choices a recovery on the primary would, and promotion is
// durable.Open plus a term bump.
//
// A Mirror serves one replication session for one shard: the serving
// layer builds a fresh one per connection (the bootstrap re-ships the
// chain anyway) over the shard's persistent directory. Methods are not
// safe for concurrent use; the session goroutine owns the mirror.
type Mirror struct {
	fs    vfs.FS
	dir   string
	opt   MirrorOptions
	term  uint64 // highest term ever seen durable in dir or on the stream
	seq   uint64 // records applied and fsynced (the ack watermark)
	boot  bool   // bootstrap complete; incremental frames are flowing
	wiped bool   // bootstrap wipe done

	wal      vfs.File // live mirrored segment
	walEpoch uint64

	// In-flight multi-chunk file assembly.
	curActive bool
	curFile   wire.ReplFileKind
	curEpoch  uint64
	curBuf    []byte
}

// NewMirror opens (creating if missing) a mirror over dir. The fencing
// term is recovered from the directory's own contents, so a mirror
// restarted after a promotion elsewhere still refuses the deposed
// primary.
func NewMirror(dir string, opt MirrorOptions) (*Mirror, error) {
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	if opt.FS == nil {
		opt.FS = vfs.OS{}
	}
	fs := opt.FS
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("durable: creating mirror dir %s: %w", dir, err)
	}
	term, err := ReadDirTerm(fs, dir)
	if err != nil {
		return nil, err
	}
	return &Mirror{fs: fs, dir: dir, opt: opt, term: term}, nil
}

// Term returns the highest fencing term the mirror has seen.
func (m *Mirror) Term() uint64 { return m.term }

// Seq returns the mirror's durable watermark: records applied and
// fsynced. This is what the session acknowledges to the primary.
func (m *Mirror) Seq() uint64 { return m.seq }

// Booted reports bootstrap completion — before it, the mirror's
// directory is not a usable recovery source.
func (m *Mirror) Booted() bool { return m.boot }

// Close releases the live segment handle (before a promotion opens the
// directory, or on session teardown).
func (m *Mirror) Close() error {
	if m.wal == nil {
		return nil
	}
	err := m.wal.Close()
	m.wal = nil
	return err
}

// fence admits or rejects a frame by term. Terms only ratchet up; a
// frame below the high-water mark is a deposed primary's.
func (m *Mirror) fence(term uint64) error {
	if term < m.term {
		if m.opt.FenceOff {
			m.opt.Logf("durable: mirror %s accepting stale term %d < %d (fencing disabled)", m.dir, term, m.term)
			return nil
		}
		return fmt.Errorf("%w: frame term %d below directory term %d", ErrStaleTerm, term, m.term)
	}
	m.term = term
	return nil
}

// Apply applies one replication frame. Any error means the stream can
// no longer be trusted byte-for-byte — the session must drop the
// connection and let a fresh bootstrap rebuild the mirror.
func (m *Mirror) Apply(f wire.ReplFrame) error {
	if err := m.fence(f.Term); err != nil {
		return err
	}
	if f.Kind != wire.ReplHello && f.Shard != m.opt.Shard {
		return fmt.Errorf("durable: mirror %s got a frame for shard %d, want %d", m.dir, f.Shard, m.opt.Shard)
	}
	switch f.Kind {
	case wire.ReplHello:
		return nil // the fence check above is the hello's whole job
	case wire.ReplSnapChunk:
		return m.applyChunk(f)
	case wire.ReplRotate:
		return m.openWAL(f.Epoch, nil) // the fresh segment the primary rotated to
	case wire.ReplWALBatch:
		return m.applyBatch(f)
	case wire.ReplCompact:
		return m.applyCompact(f.Epoch)
	case wire.ReplBootDone:
		m.seq = f.Seq
		m.boot = true
		m.curActive = false
		return nil
	case wire.ReplHeartbeat:
		return nil // the session acks the current watermark
	default:
		return fmt.Errorf("durable: mirror cannot apply %s frame", f.Kind)
	}
}

// applyChunk assembles one file from its chunk frames and lands it.
func (m *Mirror) applyChunk(f wire.ReplFrame) error {
	// The first bootstrap frame wipes whatever the directory held: the
	// primary re-ships its whole chain, and leftover files from an
	// earlier life would corrupt recovery's newest-generation choice.
	// The wipe runs only after the fence admitted the stream — a stale
	// primary must never get this far.
	if !m.boot && !m.wiped {
		if err := m.wipe(); err != nil {
			return err
		}
		m.wiped = true
	}
	if m.curActive && (m.curFile != f.File || m.curEpoch != f.Epoch) {
		return fmt.Errorf("durable: mirror chunk for %s epoch %d interleaves %s epoch %d", f.File, f.Epoch, m.curFile, m.curEpoch)
	}
	m.curActive, m.curFile, m.curEpoch = true, f.File, f.Epoch
	m.curBuf = append(m.curBuf, f.Data...)
	if !f.Last {
		return nil
	}
	data := m.curBuf
	m.curActive, m.curBuf = false, nil
	switch f.File {
	case wire.ReplFileBase, wire.ReplFileDelta:
		base := f.File == wire.ReplFileBase
		name := deltaName(f.Epoch)
		if base {
			name = snapName(f.Epoch)
		}
		if _, err := publish(m.fs, m.dir, name, data, false); err != nil {
			return err
		}
		// The primary's prune law, applied as the engine does after every
		// publish: a delta makes older WAL segments redundant, a full base
		// the older chain too.
		pruneDir(m.fs, m.dir, f.Epoch, base, func(name string, err error) {
			m.opt.Logf("durable: mirror pruning stale %s: %v", name, err)
		})
		return nil
	case wire.ReplFileWAL:
		// Bootstrap only: the live segment image, which stays open as
		// the append target for the wal-batches that follow.
		if m.boot {
			return fmt.Errorf("durable: mirror got a WAL image outside bootstrap")
		}
		return m.openWAL(f.Epoch, data)
	}
	return fmt.Errorf("durable: mirror cannot land file kind %d", uint8(f.File))
}

// openWAL installs a live segment with the given initial contents.
func (m *Mirror) openWAL(epoch uint64, data []byte) error {
	m.Close()
	w, err := m.fs.Create(filepath.Join(m.dir, walName(epoch)))
	if err != nil {
		return fmt.Errorf("durable: mirror creating WAL segment: %w", err)
	}
	if len(data) > 0 {
		if _, err := w.Write(data); err != nil {
			w.Close()
			return fmt.Errorf("durable: mirror writing WAL image: %w", err)
		}
	}
	if err := w.Sync(); err != nil {
		w.Close()
		return fmt.Errorf("durable: mirror syncing WAL segment: %w", err)
	}
	if err := m.fs.SyncDir(m.dir); err != nil {
		w.Close()
		return fmt.Errorf("durable: mirror syncing directory: %w", err)
	}
	m.wal, m.walEpoch = w, epoch
	return nil
}

// applyBatch appends freshly shipped records to the live segment,
// byte-for-byte, and fsyncs them — the ack that follows promises
// durability.
func (m *Mirror) applyBatch(f wire.ReplFrame) error {
	if m.wal == nil {
		return fmt.Errorf("durable: mirror got wal-batch with no live segment")
	}
	if !m.boot {
		return fmt.Errorf("durable: mirror got wal-batch before boot-done")
	}
	if f.FirstSeq != m.seq+1 {
		return fmt.Errorf("durable: mirror stream desync: batch starts at seq %d, watermark %d", f.FirstSeq, m.seq)
	}
	if _, err := m.wal.Write(f.Data); err != nil {
		return fmt.Errorf("durable: mirror appending records: %w", err)
	}
	if err := m.wal.Sync(); err != nil {
		return fmt.Errorf("durable: mirror syncing records: %w", err)
	}
	m.seq += uint64(f.Count)
	return nil
}

// applyCompact re-runs the primary's deterministic live-segment rewrite
// on the mirror's byte-identical copy.
func (m *Mirror) applyCompact(epoch uint64) error {
	if m.wal == nil || epoch != m.walEpoch {
		return fmt.Errorf("durable: mirror compact for epoch %d, live segment %d", epoch, m.walEpoch)
	}
	f, err := compactSegment(m.fs, m.dir, epoch)
	if err != nil || f == nil {
		return err
	}
	m.wal.Close() // orphaned pre-compaction inode
	m.wal = f
	return nil
}

// wipe clears the directory for a bootstrap.
func (m *Mirror) wipe() error {
	m.Close()
	names, err := m.fs.ReadDir(m.dir)
	if err != nil {
		return fmt.Errorf("durable: mirror listing %s: %w", m.dir, err)
	}
	for _, name := range names {
		if err := m.fs.Remove(filepath.Join(m.dir, name)); err != nil {
			return fmt.Errorf("durable: mirror wiping %s: %w", name, err)
		}
	}
	return m.fs.SyncDir(m.dir)
}
