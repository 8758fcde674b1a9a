package durable

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"strings"

	"repro/aboram"
	"repro/internal/vfs"
)

// On-disk layout: one directory, epoch-numbered files.
//
//	snap-<epoch>.ab    full checkpoint (metadata header + aboram.Save image)
//	delta-<epoch>.abd  incremental checkpoint (metadata header + aboram.SaveDelta stream)
//	*.tmp              checkpoint in flight; never read, deleted on recovery
//	wal-<epoch>.log    acknowledged writes since epoch <epoch> was captured
//
// Both bodies are one format, aboram's CRC-framed checkpoint stream: a
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
//	uint32 CRC-32C over (term + count + ids)
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

// Temp names keep the ".tmp" extension (the prune sweep removes any
// orphan) and the "snap-"/"delta-"/"wal-" prefix (fault-injection tests
// bucket crash sites by it).
func snapTmpName(epoch uint64) string  { return fmt.Sprintf("snap-%016d.tmp", epoch) }
func deltaTmpName(epoch uint64) string { return fmt.Sprintf("delta-%016d.tmp", epoch) }

// parseEpoch extracts the epoch from a snapshot or WAL file name,
// returning ok=false for foreign files.
func parseEpoch(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	var epoch uint64
	if _, err := fmt.Sscanf(mid, "%d", &epoch); err != nil || len(mid) != 16 {
		return 0, false
	}
	return epoch, true
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
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(body, crcTable))
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
	if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(sum) {
		return nil, 0, fmt.Errorf("durable: checkpoint metadata checksum mismatch")
	}
	ids := make([]uint64, count)
	for i := range ids {
		ids[i] = binary.BigEndian.Uint64(body[12+8*i:])
	}
	return ids, term, nil
}

// writeBlob durably publishes one already-encoded checkpoint blob:
// temp file, single write, fsync, rename into place, directory fsync.
// Any error leaves at most a stale .tmp behind, which recovery (and the
// next successful publish) ignores and cleans up.
func writeBlob(fs vfs.FS, dir, tmpName, finalName string, data []byte) error {
	tmp := filepath.Join(dir, tmpName)
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: creating checkpoint temp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("durable: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: closing checkpoint: %w", err)
	}
	if err := fs.Rename(tmp, filepath.Join(dir, finalName)); err != nil {
		return fmt.Errorf("durable: publishing checkpoint: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("durable: syncing directory: %w", err)
	}
	return nil
}

// loadSnapshot restores an instance (and its recent-write-id and term
// metadata) from one snapshot file.
func loadSnapshot(fs vfs.FS, dir string, epoch uint64, opt aboram.Options) (*aboram.ORAM, []uint64, uint64, error) {
	f, err := fs.Open(filepath.Join(dir, snapName(epoch)))
	if err != nil {
		return nil, nil, 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	ids, term, err := readMeta(br, snapMagic)
	if err != nil {
		return nil, nil, 0, err
	}
	o, err := aboram.Load(opt, br)
	if err != nil {
		return nil, nil, 0, err
	}
	return o, ids, term, nil
}

// loadDelta applies one delta checkpoint file on top of o and returns
// the recent-id set and term it carried. On error o may be partially
// mutated — the caller discards it and rebuilds from the base.
func loadDelta(fs vfs.FS, dir string, epoch uint64, o *aboram.ORAM) ([]uint64, uint64, error) {
	f, err := fs.Open(filepath.Join(dir, deltaName(epoch)))
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	ids, term, err := readMeta(br, deltaMagic)
	if err != nil {
		return nil, 0, err
	}
	if err := o.ApplyDelta(br); err != nil {
		return nil, 0, err
	}
	return ids, term, nil
}
