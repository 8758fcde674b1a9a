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
// and encoded at publish. A snap file written before bases became full
// streams holds a gob image instead; aboram.Load still reads it.
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
// replaying an older segment under a newer checkpoint is idempotent,
// and the scheme survives a checkpoint file lost to bit rot by falling
// back to an older base or a shorter chain.
//
// Snapshot metadata header (since wire v2 retry dedup became
// crash-durable):
//
//	magic "ABSNAP02" | uint64 term | uint32 count |
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
// The previous format "ABSNAP01" omitted the term and loads as term 0;
// a file without either magic is a legacy snapshot and loads with an
// empty id set; a corrupt header fails the load, which recovery treats
// like any unreadable snapshot (fall back one epoch).

// snapMagic opens a snapshot file that carries a term-bearing metadata
// header; snapMagicV1 is the pre-term format, still readable.
var (
	snapMagic   = []byte("ABSNAP02")
	snapMagicV1 = []byte("ABSNAP01")
)

// deltaMagic opens a delta checkpoint file (same meta header shape as
// ABSNAP02, followed by an aboram.SaveDelta stream). Deltas postdate the
// header format, so unlike snapshots they have no headerless legacy form:
// a delta file without one of the magics is corrupt, never legacy.
var (
	deltaMagic   = []byte("ABDELT02")
	deltaMagicV1 = []byte("ABDELT01")
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

// readSnapMeta consumes the metadata header, if present. A stream that
// does not begin with either magic is a legacy snapshot: nothing is
// consumed, the id set is empty, and the term is 0. A stream that does
// begin with a magic must carry an intact header — truncation or a CRC
// mismatch is an error, and the caller skips the snapshot.
func readSnapMeta(br *bufio.Reader) ([]uint64, uint64, error) {
	head, err := br.Peek(len(snapMagic))
	if err != nil {
		// Too short to carry a magic: leave the stream alone and let
		// aboram.Load judge it.
		return nil, 0, nil
	}
	withTerm := bytes.Equal(head, snapMagic)
	if !withTerm && !bytes.Equal(head, snapMagicV1) {
		// Legacy image: no header to consume.
		return nil, 0, nil
	}
	if _, err := br.Discard(len(snapMagic)); err != nil {
		return nil, 0, fmt.Errorf("durable: snapshot metadata: %w", err)
	}
	return readMetaBody(br, withTerm)
}

// readDeltaMeta consumes a delta checkpoint's metadata header. Deltas
// postdate the header format, so unlike snapshots there is no
// headerless legacy form to tolerate: a missing or damaged header is an
// error, and recovery treats the file as unreadable.
func readDeltaMeta(br *bufio.Reader) ([]uint64, uint64, error) {
	head := make([]byte, len(deltaMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, 0, fmt.Errorf("durable: delta metadata: %w", err)
	}
	withTerm := bytes.Equal(head, deltaMagic)
	if !withTerm && !bytes.Equal(head, deltaMagicV1) {
		return nil, 0, fmt.Errorf("durable: not a delta checkpoint")
	}
	return readMetaBody(br, withTerm)
}

// readMetaBody reads the post-magic portion of a metadata header;
// withTerm selects the current (term-bearing) or the V1 body layout.
func readMetaBody(br *bufio.Reader, withTerm bool) ([]uint64, uint64, error) {
	var term uint64
	pre := 4
	if withTerm {
		pre = 12
	}
	head := make([]byte, pre)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, 0, fmt.Errorf("durable: snapshot metadata count: %w", err)
	}
	cnt := head[pre-4:]
	if withTerm {
		term = binary.BigEndian.Uint64(head[:8])
	}
	count := binary.BigEndian.Uint32(cnt)
	if count > maxSnapIDs {
		return nil, 0, fmt.Errorf("durable: snapshot metadata claims %d ids", count)
	}
	body := make([]byte, pre+8*int(count))
	copy(body, head)
	if _, err := io.ReadFull(br, body[pre:]); err != nil {
		return nil, 0, fmt.Errorf("durable: snapshot metadata ids: %w", err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, 0, fmt.Errorf("durable: snapshot metadata checksum: %w", err)
	}
	if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(sum[:]) {
		return nil, 0, fmt.Errorf("durable: snapshot metadata checksum mismatch")
	}
	ids := make([]uint64, count)
	for i := range ids {
		ids[i] = binary.BigEndian.Uint64(body[pre+8*i:])
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
	ids, term, err := readSnapMeta(br)
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
	ids, term, err := readDeltaMeta(br)
	if err != nil {
		return nil, 0, err
	}
	if err := o.ApplyDelta(br); err != nil {
		return nil, 0, err
	}
	return ids, term, nil
}
