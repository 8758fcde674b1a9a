package durable

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"path/filepath"

	"repro/internal/frame"
	"repro/internal/server/wire"
	"repro/internal/vfs"
)

// WAL records. Each acknowledged mutating op is one record: a frame of
// internal/frame (the one record frame of every durable stream) whose
// body is the op's wire request encoding. Recovery accepts the longest
// prefix of intact records and discards everything from the first
// damaged byte on — a damaged record can only be the torn tail of a
// crash, because records are written with a single Write call and
// fsynced before the op is acknowledged.

// AppendRecord appends the framed WAL encoding of req to dst. The body
// is encoded in place, so a reused dst makes the append allocation-free.
func AppendRecord(dst []byte, req wire.Request) ([]byte, error) {
	out, err := frame.Append(dst, func(b []byte) ([]byte, error) { return wire.AppendRequest(b, req) })
	if err != nil {
		return nil, fmt.Errorf("durable: encoding WAL record: %w", err)
	}
	return out, nil
}

// ScanWAL parses a WAL image into its longest valid record prefix. It
// returns the decoded records (aliasing data's bytes), the offset where
// the valid prefix ends, and whether damaged/torn bytes follow it.
// ScanWAL never fails and never panics: arbitrary input is simply a
// (possibly empty) valid prefix plus a torn tail.
func ScanWAL(data []byte) (recs []wire.Request, off int, torn bool) {
	return scanRecords(data, wire.DecodeRequest)
}

// scanRecords splits an image of frames into its longest prefix of
// intact frames whose bodies decode, returning the decoded records, the
// offset where that prefix ends, and whether bytes follow it.
func scanRecords[T any](data []byte, decode func([]byte) (T, error)) (recs []T, off int, torn bool) {
	for rest := data; len(rest) > 0; {
		body, next, ok := frame.Next(rest)
		if !ok {
			return recs, len(data) - len(rest), true
		}
		rec, err := decode(body)
		if err != nil {
			return recs, len(data) - len(rest), true
		}
		recs = append(recs, rec)
		rest = next
	}
	return recs, len(data), false
}

// wal is one open write-ahead log segment.
type wal struct {
	f   vfs.File
	buf []byte // reusable frame buffer
}

// createWAL creates (truncates) a WAL segment.
func createWAL(fs vfs.FS, path string) (*wal, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	return &wal{f: f}, nil
}

// append frames one record and writes it with a single Write call, so a
// crash can tear at most the final record. It returns the framed bytes
// so a replication shipper can forward them without re-encoding; the
// slice is valid only until the next append (the buffer is reused).
func (w *wal) append(req wire.Request) ([]byte, error) {
	rec, err := AppendRecord(w.buf[:0], req)
	if err != nil {
		return nil, err
	}
	w.buf = rec[:0]
	if _, err := w.f.Write(rec); err != nil {
		return nil, fmt.Errorf("durable: WAL append: %w", err)
	}
	return rec, nil
}

// sync flushes appended records to stable storage.
func (w *wal) sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: WAL sync: %w", err)
	}
	return nil
}

// close closes the segment file.
func (w *wal) close() error { return w.f.Close() }

// compactRecords rewrites a WAL segment image, shrinking superseded
// whole-block writes to id-only dedup stubs (or dropping them when
// unidentified). Records are whole-content writes, so for each block
// only its newest record matters to recovery; the ids of older ones
// must still survive for retry dedup, encoded as OpAccess records at
// their original positions so replay reseeds the id window in exact
// acknowledgment order. The rewrite is a pure function of the segment
// bytes — a replication mirror re-runs it on its copy and lands on the
// identical output (mirror.go).
func compactRecords(data []byte) (out []byte, shrunk int, err error) {
	recs, _, _ := ScanWAL(data)
	lastWrite := make(map[int64]int, len(recs))
	for i, rec := range recs {
		if rec.Op == wire.OpWrite {
			lastWrite[rec.Block] = i
		}
	}
	out = make([]byte, 0, len(data))
	for i, rec := range recs {
		if rec.Op == wire.OpWrite && lastWrite[rec.Block] != i {
			shrunk++
			if rec.ID == 0 {
				continue // nothing a replay would need
			}
			rec = wire.Request{Op: wire.OpAccess, ID: rec.ID}
		}
		if out, err = AppendRecord(out, rec); err != nil {
			return nil, 0, fmt.Errorf("durable: compacting WAL: %w", err)
		}
	}
	return out, shrunk, nil
}

// compactSegment rewrites dir's WAL segment for epoch with
// compactRecords and publishes the rewrite over it. It returns the
// rewritten segment's open handle, or nil when nothing shrank and the
// segment stands. The engine and a replication mirror both call it, on
// byte-identical segments, and land on byte-identical rewrites.
func compactSegment(fs vfs.FS, dir string, epoch uint64) (vfs.File, error) {
	data, err := readWAL(fs, filepath.Join(dir, walName(epoch)))
	if err != nil {
		return nil, err
	}
	out, shrunk, err := compactRecords(data)
	if err != nil || shrunk == 0 {
		return nil, err
	}
	return publish(fs, dir, walName(epoch), out, true)
}

// readWAL loads a whole log file: a WAL segment or the reshard journal.
// Only a missing file is empty (the epoch crashed before its first
// record); every other failure propagates so recovery fails loudly —
// treating a transient EIO/EACCES as empty would silently drop
// acknowledged writes.
func readWAL(fs vfs.FS, path string) ([]byte, error) {
	data, err := readFile(fs, path)
	if errors.Is(err, iofs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("durable: reading %s: %w", path, err)
	}
	return data, nil
}

// readFile loads one file's bytes through fs.
func readFile(fs vfs.FS, path string) ([]byte, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}
