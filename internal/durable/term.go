package durable

import (
	"fmt"
	"path/filepath"

	"repro/internal/server/wire"
	"repro/internal/vfs"
)

// Promotion-term fencing. A replicated deployment stamps a
// monotonically increasing term into everything durable: every
// checkpoint header carries the engine's term at capture (snapshot.go),
// and every term change appends an OpTerm record — whose ID field holds
// the new term — to the WAL before anything under the new term is
// acknowledged. Recovery takes the maximum over both sources, so a
// directory's term survives any crash the data itself survives.
//
// Failover uses the term as a fence: promoting a standby bumps its
// term past the old primary's, and a mirror refuses replication frames
// from a lower term (mirror.go) — a deposed primary that comes back and
// tries to resume shipping is rejected instead of silently overwriting
// the promoted node's acknowledged writes.

// Term returns the engine's current fencing term. Safe to call from
// any goroutine.
func (e *Engine) Term() uint64 {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.term
}

// SetTerm raises the engine's fencing term: the change is appended to
// the WAL as an OpTerm record and fsynced before SetTerm returns, so a
// crash immediately after still recovers the new term. Later
// checkpoints stamp it into their headers. Lowering or repeating the
// current term is an error — terms only move forward.
func (e *Engine) SetTerm(term uint64) error {
	if e.failed != nil {
		return e.failed
	}
	if term <= e.Term() {
		return fmt.Errorf("durable: term %d not above current term %d", term, e.Term())
	}
	rec, err := e.w.append(wire.Request{Op: wire.OpTerm, ID: term})
	if err != nil {
		return e.fail(err)
	}
	e.shipRecord(rec)
	if err := e.syncWAL(); err != nil {
		return e.fail(err)
	}
	e.statsMu.Lock()
	e.term = term
	e.statsMu.Unlock()
	e.shipFlush()
	return nil
}

// fileTerm reads the term a checkpoint file's header claims, without
// loading the image. Other files, and an unreadable header, report term
// 0 — the caller is computing a maximum, and a file recovery would skip
// cannot raise the directory's term anyway.
func fileTerm(fs vfs.FS, dir string, f dirFile) uint64 {
	var magic []byte
	switch f.kind {
	case kindSnap:
		magic = snapMagic
	case kindDelta:
		magic = deltaMagic
	default:
		return 0
	}
	_, term, _ := readCheckpoint(fs, dir, f.name, magic, nil)
	return term
}

// ReadDirTerm scans a data directory for its fencing term without
// recovering it: the maximum over every readable checkpoint header and
// every OpTerm record in every WAL segment. A fresh or empty directory
// is term 0. Mirrors use it to fence a stale primary before accepting
// a bootstrap that would wipe the directory.
func ReadDirTerm(fs vfs.FS, dir string) (uint64, error) {
	files, err := listDir(fs, dir)
	if err != nil {
		return 0, fmt.Errorf("durable: listing %s: %w", dir, err)
	}
	var term uint64
	for _, f := range files {
		term = max(term, fileTerm(fs, dir, f))
		if f.kind != kindWAL {
			continue
		}
		data, err := readWAL(fs, filepath.Join(dir, f.name))
		if err != nil {
			return 0, err
		}
		recs, _, _ := ScanWAL(data)
		for _, rec := range recs {
			if rec.Op == wire.OpTerm {
				term = max(term, rec.ID)
			}
		}
	}
	return term, nil
}
