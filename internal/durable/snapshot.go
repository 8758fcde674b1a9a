package durable

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"repro/internal/frame"
	"repro/internal/vfs"
)

// On-disk layout: one directory, epoch-numbered files.
//
//	snap-<epoch>.ab    full checkpoint (metadata header + aboram.Save image)
//	delta-<epoch>.abd  incremental checkpoint (metadata header + aboram.SaveDelta stream)
//	*.tmp              publish in flight; never read, deleted by the next prune
//	wal-<epoch>.log    acknowledged writes since epoch <epoch> was captured
//
// Every record on disk — each checkpoint stream record, each WAL record
// (wal.go), each reshard journal record (reshard.go) — is a frame of
// internal/frame, the one record frame: u32 length | u32 CRC-32C | body.
// listDir is the one parse of this layout, dirFile.stale the one prune
// law, and publish the one temp + fsync + rename + directory fsync.
//
// Both checkpoint bodies are one format, aboram's checkpoint stream: a
// base is the stream of a full image (every bucket, position, and store
// slot; header flag Full), a delta the stream of the state dirtied since
// the previous cut. Both are captured in the rotation's serving pause
// and encoded at publish. The stream's header carries its format
// version; a file of any older format is unreadable
// (aboram.ErrFormatTooOld for a stream without a version).
//
// Most epochs are delta files over the previous chain element, with a
// full snap every BaseEvery rotations (BaseEvery 1: every epoch is a
// snap file, the layout that predates deltas); a delta at epoch E
// applies on top of the chain snap-B, delta-(B+1), ..., delta-(E-1).
//
// Invariant: wal-<E>.log is created only after the epoch-E checkpoint
// is captured, and the checkpoint is durably published (temp file +
// fsync + rename + directory fsync) before wal-(E-1) is pruned — so the
// chain element covering a WAL segment always exists before the segment
// is dropped. Recovery loads the newest readable snapshot, extends it
// with the longest cleanly-applying run of consecutive deltas above it,
// and replays every WAL segment with epoch >= the newest applied chain
// element in ascending order: records are whole-content writes, so
// replaying an older segment under a newer checkpoint is idempotent. A
// checkpoint file lost to bit rot is survivable only while the WAL
// segments it made redundant are still on disk; otherwise Open refuses
// the directory rather than recover an older state (engine.go).
//
// Metadata header:
//
//	magic | uint64 term | uint32 count |
//	count x uint64 request ids |
//	uint32 CRC-32C (frame.Checksum) over (term + count + ids)
//
// followed by the checkpoint stream. The ids are the engine's recent
// acknowledged write ids at snapshot time, oldest first; recovery seeds
// the retry-dedup window from them so a retried write that straddles a
// crash is recognized instead of applied twice. The term is the
// engine's fencing term at capture (see term.go): a standby promoted
// under a higher term stamps it into every checkpoint, so a deposed
// primary's stale replication stream is rejected by the header alone.
// A missing or damaged header makes the file unreadable.

// snapMagic and deltaMagic open a snapshot and a delta checkpoint file.
var (
	snapMagic  = []byte("ABSNAP02")
	deltaMagic = []byte("ABDELT02")
)

// maxSnapIDs bounds the id count a header may claim, so a corrupt count
// cannot drive a giant allocation before the CRC check.
const maxSnapIDs = 1 << 20

// snapName / deltaName / walName render the epoch file names.
func snapName(epoch uint64) string  { return fmt.Sprintf("snap-%016d.ab", epoch) }
func deltaName(epoch uint64) string { return fmt.Sprintf("delta-%016d.abd", epoch) }
func walName(epoch uint64) string   { return fmt.Sprintf("wal-%016d.log", epoch) }

// fileKind classifies the files of a data directory.
type fileKind uint8

const (
	kindForeign fileKind = iota
	kindSnap
	kindDelta
	kindWAL
	kindTmp // a publish in flight, or its orphan
)

// epochFiles are the epoch-numbered file shapes: prefix, 16-digit
// epoch, suffix.
var epochFiles = [...]struct {
	kind           fileKind
	prefix, suffix string
}{{kindSnap, "snap-", ".ab"}, {kindDelta, "delta-", ".abd"}, {kindWAL, "wal-", ".log"}}

// dirFile is one entry of a data directory listing.
type dirFile struct {
	name  string
	kind  fileKind
	epoch uint64 // snap, delta and WAL files only
}

// listDir lists dir with each file's kind and epoch: the one parse of
// the directory layout that recovery, the term scan and both prune
// sweeps consume.
func listDir(fs vfs.FS, dir string) ([]dirFile, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := make([]dirFile, len(names))
	for i, name := range names {
		files[i] = dirFile{name: name}
		if filepath.Ext(name) == ".tmp" {
			files[i].kind = kindTmp
		}
		for _, p := range epochFiles {
			if !strings.HasPrefix(name, p.prefix) || !strings.HasSuffix(name, p.suffix) {
				continue
			}
			mid := name[len(p.prefix) : len(name)-len(p.suffix)]
			var epoch uint64
			if _, err := fmt.Sscanf(mid, "%d", &epoch); err == nil && len(mid) == 16 {
				files[i].kind, files[i].epoch = p.kind, epoch
			}
		}
	}
	return files, nil
}

// stale is the prune law: once the checkpoint at epoch pub is durable,
// the WAL segments below it are redundant (chain element N captures
// everything through wal-(N-1)), older snapshots and deltas only when
// pub is a full base (a delta still needs its base and predecessors),
// and any temp file is an orphan.
func (f dirFile) stale(pub uint64, base bool) bool {
	switch f.kind {
	case kindSnap, kindDelta:
		return base && f.epoch < pub
	case kindWAL:
		return f.epoch < pub
	}
	return f.kind == kindTmp
}

// pruneDir removes the files of dir the checkpoint at epoch pub made
// stale. Cleanup is best-effort — stale files cost disk, not
// correctness — so each removal failure goes to failed and the sweep
// goes on.
func pruneDir(fs vfs.FS, dir string, pub uint64, base bool, failed func(name string, err error)) {
	files, err := listDir(fs, dir)
	if err != nil {
		return
	}
	for _, f := range files {
		if !f.stale(pub, base) {
			continue
		}
		if err := fs.Remove(filepath.Join(dir, f.name)); err != nil {
			failed(f.name, err)
		}
	}
}

// appendMeta appends a metadata header (magic, term, id count, ids,
// CRC) to dst; snapshots and deltas share the shape and differ in the
// magic.
func appendMeta(dst []byte, magic []byte, term uint64, ids []uint64) []byte {
	dst = append(dst, magic...)
	body := make([]byte, 0, 8+4+8*len(ids))
	body = binary.BigEndian.AppendUint64(body, term)
	body = binary.BigEndian.AppendUint32(body, uint32(len(ids)))
	for _, id := range ids {
		body = binary.BigEndian.AppendUint64(body, id)
	}
	dst = append(dst, body...)
	return binary.BigEndian.AppendUint32(dst, frame.Checksum(body))
}

// readMeta consumes a metadata header that opens with magic and
// returns its ids and term. A missing magic, a truncation, or a CRC
// mismatch is an error, and recovery treats the file as unreadable.
func readMeta(br *bufio.Reader, magic []byte) ([]uint64, uint64, error) {
	head := make([]byte, len(magic)+12)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, 0, fmt.Errorf("durable: checkpoint metadata: %w", err)
	}
	if !bytes.Equal(head[:len(magic)], magic) {
		return nil, 0, fmt.Errorf("durable: no %s checkpoint header", magic)
	}
	term := binary.BigEndian.Uint64(head[len(magic):])
	count := binary.BigEndian.Uint32(head[len(magic)+8:])
	if count > maxSnapIDs {
		return nil, 0, fmt.Errorf("durable: checkpoint metadata claims %d ids", count)
	}
	body := make([]byte, 12+8*int(count)+4)
	copy(body, head[len(magic):])
	if _, err := io.ReadFull(br, body[12:]); err != nil {
		return nil, 0, fmt.Errorf("durable: checkpoint metadata ids: %w", err)
	}
	sum := body[len(body)-4:]
	body = body[:len(body)-4]
	if frame.Checksum(body) != binary.BigEndian.Uint32(sum) {
		return nil, 0, fmt.Errorf("durable: checkpoint metadata checksum mismatch")
	}
	ids := make([]uint64, count)
	for i := range ids {
		ids[i] = binary.BigEndian.Uint64(body[12+8*i:])
	}
	return ids, term, nil
}

// publish durably replaces dir/name with data: a temp file (name with
// its extension replaced by ".tmp"), one write, fsync, rename into
// place, directory fsync. Any error leaves at most a stale temp file,
// which recovery ignores and the next prune removes. The temp file is
// closed before the rename, unless keepOpen: then its handle is
// returned, still open — a POSIX fd follows the file, not the name, and
// the vfs has no append-open to reacquire one — for a rewritten WAL
// segment to go on appending through.
func publish(fs vfs.FS, dir, name string, data []byte, keepOpen bool) (vfs.File, error) {
	tmp := strings.TrimSuffix(name, filepath.Ext(name)) + ".tmp"
	tmpPath := filepath.Join(dir, tmp)
	f, err := fs.Create(tmpPath)
	if err != nil {
		return nil, fmt.Errorf("durable: creating %s: %w", tmp, err)
	}
	open := true
	fail := func(step string, err error) (vfs.File, error) {
		if open {
			f.Close()
		}
		return nil, fmt.Errorf("durable: %s %s: %w", step, tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		return fail("writing", err)
	}
	if err := f.Sync(); err != nil {
		return fail("syncing", err)
	}
	if !keepOpen {
		open = false
		if err := f.Close(); err != nil {
			return fail("closing", err)
		}
	}
	if err := fs.Rename(tmpPath, filepath.Join(dir, name)); err != nil {
		return fail("renaming", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return fail("syncing the directory after", err)
	}
	if !open {
		return nil, nil
	}
	return f, nil
}

// readCheckpoint opens the checkpoint file dir/name, consumes its
// metadata header (which must open with magic), and hands the stream
// after it to body — aboram.Load for a base, ApplyDelta for a delta, nil
// to read the header alone. It returns the header's ids and term. When
// body fails on a delta the instance it was applying to may be
// partially mutated; the caller discards it and rebuilds from the base.
func readCheckpoint(fs vfs.FS, dir, name string, magic []byte, body func(io.Reader) error) ([]uint64, uint64, error) {
	f, err := fs.Open(filepath.Join(dir, name))
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	size := 1 << 16
	if body == nil {
		size = 1 << 12
	}
	br := bufio.NewReaderSize(f, size)
	ids, term, err := readMeta(br, magic)
	if err == nil && body != nil {
		err = body(br)
	}
	return ids, term, err
}
