package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/frame"
)

// Replication sub-protocol. A standby dials the primary's normal TCP
// port and sends an OpReplJoin request; after the StatusOK response both
// sides abandon the request/response exchange and speak replication
// frames on the same socket — primary→replica data frames,
// replica→primary acknowledgements. Every frame carries the sender's
// fencing term and the shard the frame belongs to:
//
//	repl-frame := kind u8 | term uint64 | shard uint32 | payload
//
// framed on the wire as uint32 big-endian body length | body, like the
// request protocol but with its own, larger bound (MaxReplBody): a
// snapshot chunk or a batch of WAL records can exceed a request body.
//
// Frame kinds and payloads (all integers big-endian):
//
//	hello      := shards uint16                      (primary→replica, once)
//	snap-chunk := file u8 | epoch uint64 | last u8 | data
//	rotate     := epoch uint64
//	wal-batch  := firstSeq uint64 | count uint32 | records
//	compact    := epoch uint64
//	boot-done  := seq uint64
//	heartbeat  := seq uint64
//	ack        := seq uint64                         (replica→primary)
//
// The stream sequence number counts WAL records shipped on the link,
// per shard: a wal-batch covers records [firstSeq, firstSeq+count), a
// boot-done announces the records already contained in the bootstrap
// WAL image, and an ack reports the highest record the replica has
// fsynced. Frames apply strictly in order, so an ack of seq n also
// confirms every earlier snapshot-chunk, rotate, and compact frame.
// The records region of a wal-batch is WAL records verbatim — frames of
// internal/frame, the one record frame of every durable stream, around
// request encodings — so the replica can append it to its mirrored
// segment byte-for-byte. The decoder checks every record the way the
// replica's recovery will, so a standby never acknowledges a record its
// own recovery would drop.
//
// Like the rest of the protocol the encoding is canonical: one byte
// representation per valid frame, which FuzzReplStream exploits to
// check decode→encode identity.

// ReplKind identifies a replication frame.
type ReplKind uint8

const (
	// ReplHello opens the stream: the primary announces its fencing term
	// and shard count before any data flows. A replica whose mirror holds
	// a higher term drops the connection (stale primary, fenced off).
	ReplHello ReplKind = 1
	// ReplSnapChunk carries a piece of a checkpoint or WAL file: the
	// bootstrap chain (base, deltas, live WAL image) and, in steady
	// state, every newly published checkpoint. Last marks the file's
	// final chunk.
	ReplSnapChunk ReplKind = 2
	// ReplRotate tells the replica the primary rotated to a fresh WAL
	// segment for the given epoch.
	ReplRotate ReplKind = 3
	// ReplWALBatch carries freshly fsynced WAL records.
	ReplWALBatch ReplKind = 4
	// ReplCompact tells the replica the primary compacted the given live
	// segment; the replica re-runs the same deterministic rewrite.
	ReplCompact ReplKind = 5
	// ReplBootDone ends the bootstrap: the replica is caught up through
	// Seq and acks resume from there.
	ReplBootDone ReplKind = 6
	// ReplHeartbeat carries the primary's newest shipped seq when no data
	// is flowing, soliciting an ack.
	ReplHeartbeat ReplKind = 7
	// ReplAck is the replica's durable watermark: every record through
	// Seq — and every earlier frame — is applied and fsynced.
	ReplAck ReplKind = 8
)

// String names a frame kind for logs.
func (k ReplKind) String() string {
	switch k {
	case ReplHello:
		return "hello"
	case ReplSnapChunk:
		return "snap-chunk"
	case ReplRotate:
		return "rotate"
	case ReplWALBatch:
		return "wal-batch"
	case ReplCompact:
		return "compact"
	case ReplBootDone:
		return "boot-done"
	case ReplHeartbeat:
		return "heartbeat"
	case ReplAck:
		return "ack"
	}
	return fmt.Sprintf("repl-kind(%d)", uint8(k))
}

// ReplFileKind identifies which file a snap-chunk belongs to.
type ReplFileKind uint8

const (
	// ReplFileBase is a full-image checkpoint (snap-*.ab).
	ReplFileBase ReplFileKind = 1
	// ReplFileDelta is a delta checkpoint (delta-*.abd).
	ReplFileDelta ReplFileKind = 2
	// ReplFileWAL is a live WAL segment image (wal-*.log), shipped only
	// during bootstrap.
	ReplFileWAL ReplFileKind = 3
)

// String names a file kind for logs.
func (f ReplFileKind) String() string {
	switch f {
	case ReplFileBase:
		return "base"
	case ReplFileDelta:
		return "delta"
	case ReplFileWAL:
		return "wal"
	}
	return fmt.Sprintf("repl-file(%d)", uint8(f))
}

// MaxReplBody bounds a replication frame body: header plus the largest
// chunk or batch a primary ships in one frame. Checkpoint files are
// split into chunks well under this.
const MaxReplBody = 1 << 20

// replHeader is the fixed frame prefix: kind, term, shard.
const replHeader = 1 + 8 + 4

// ReplFrame is one decoded replication frame. Only the fields of its
// kind are meaningful; the rest must be zero (the encoding is
// canonical).
type ReplFrame struct {
	Kind  ReplKind
	Term  uint64 // sender's fencing term
	Shard int    // shard the frame belongs to (0 on hello)

	Shards int // hello: primary's shard count

	File  ReplFileKind // snap-chunk: which file
	Epoch uint64       // snap-chunk, rotate, compact: checkpoint epoch
	Last  bool         // snap-chunk: final chunk of the file
	Data  []byte       // snap-chunk: file bytes; wal-batch: records region

	FirstSeq uint64 // wal-batch: seq of the first record
	Count    int    // wal-batch: records in Data

	Seq uint64 // boot-done, heartbeat, ack: stream watermark
}

// AppendReplFrame appends the canonical body encoding of f to dst.
func AppendReplFrame(dst []byte, f ReplFrame) ([]byte, error) {
	if err := validateReplFrame(f); err != nil {
		return nil, err
	}
	dst = append(dst, byte(f.Kind))
	dst = binary.BigEndian.AppendUint64(dst, f.Term)
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.Shard))
	switch f.Kind {
	case ReplHello:
		dst = binary.BigEndian.AppendUint16(dst, uint16(f.Shards))
	case ReplSnapChunk:
		dst = append(dst, byte(f.File))
		dst = binary.BigEndian.AppendUint64(dst, f.Epoch)
		if f.Last {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = append(dst, f.Data...)
	case ReplRotate, ReplCompact:
		dst = binary.BigEndian.AppendUint64(dst, f.Epoch)
	case ReplWALBatch:
		dst = binary.BigEndian.AppendUint64(dst, f.FirstSeq)
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.Count))
		dst = append(dst, f.Data...)
	case ReplBootDone, ReplHeartbeat, ReplAck:
		dst = binary.BigEndian.AppendUint64(dst, f.Seq)
	}
	return dst, nil
}

// DecodeReplFrame parses a frame body. The returned frame aliases
// body's data bytes.
func DecodeReplFrame(body []byte) (ReplFrame, error) {
	if len(body) < replHeader {
		return ReplFrame{}, fmt.Errorf("wire: repl frame body %d bytes, need at least %d", len(body), replHeader)
	}
	f := ReplFrame{
		Kind:  ReplKind(body[0]),
		Term:  binary.BigEndian.Uint64(body[1:9]),
		Shard: int(binary.BigEndian.Uint32(body[9:13])),
	}
	p := body[replHeader:]
	switch f.Kind {
	case ReplHello:
		if len(p) != 2 {
			return ReplFrame{}, fmt.Errorf("wire: hello payload %d bytes, want 2", len(p))
		}
		f.Shards = int(binary.BigEndian.Uint16(p))
	case ReplSnapChunk:
		if len(p) < 10 {
			return ReplFrame{}, fmt.Errorf("wire: snap-chunk payload %d bytes, need at least 10", len(p))
		}
		f.File = ReplFileKind(p[0])
		f.Epoch = binary.BigEndian.Uint64(p[1:9])
		f.Last = p[9] == 1
		if p[9] > 1 {
			return ReplFrame{}, fmt.Errorf("wire: snap-chunk last byte %d", p[9])
		}
		if len(p) > 10 {
			f.Data = p[10:]
		}
	case ReplRotate, ReplCompact:
		if len(p) != 8 {
			return ReplFrame{}, fmt.Errorf("wire: %s payload %d bytes, want 8", f.Kind, len(p))
		}
		f.Epoch = binary.BigEndian.Uint64(p)
	case ReplWALBatch:
		if len(p) < 12 {
			return ReplFrame{}, fmt.Errorf("wire: wal-batch payload %d bytes, need at least 12", len(p))
		}
		f.FirstSeq = binary.BigEndian.Uint64(p[0:8])
		f.Count = int(binary.BigEndian.Uint32(p[8:12]))
		if len(p) > 12 {
			f.Data = p[12:]
		}
	case ReplBootDone, ReplHeartbeat, ReplAck:
		if len(p) != 8 {
			return ReplFrame{}, fmt.Errorf("wire: %s payload %d bytes, want 8", f.Kind, len(p))
		}
		f.Seq = binary.BigEndian.Uint64(p)
	default:
		return ReplFrame{}, fmt.Errorf("wire: unknown repl frame kind %d", uint8(f.Kind))
	}
	if err := validateReplFrame(f); err != nil {
		return ReplFrame{}, err
	}
	return f, nil
}

// validateReplFrame enforces the canonical-form invariants shared by
// the encoder and the decoder: each kind's fields in range, every other
// field zero, so every frame has exactly one encoding.
func validateReplFrame(f ReplFrame) error {
	if f.Shard < 0 || f.Shard > 1<<32-1 {
		return fmt.Errorf("wire: repl shard %d out of range", f.Shard)
	}
	// carries is the set of field groups (bits of the table below) the
	// kind encodes.
	const shards, epoch, chunk, data, batch, seq = 1, 2, 4, 8, 16, 32
	var carries int
	switch f.Kind {
	case ReplHello:
		carries = shards
		if f.Shards < 1 || f.Shards > 1<<16-1 {
			return fmt.Errorf("wire: hello with %d shards", f.Shards)
		}
		if f.Shard != 0 {
			return fmt.Errorf("wire: hello with shard %d, must be 0", f.Shard)
		}
	case ReplSnapChunk:
		carries = epoch | chunk | data
		if f.File != ReplFileBase && f.File != ReplFileDelta && f.File != ReplFileWAL {
			return fmt.Errorf("wire: snap-chunk file kind %d", uint8(f.File))
		}
		if len(f.Data) > MaxReplBody-replHeader-10 {
			return fmt.Errorf("wire: snap-chunk data %d bytes exceeds frame bound", len(f.Data))
		}
	case ReplRotate, ReplCompact:
		carries = epoch
	case ReplWALBatch:
		carries = batch | data
		if f.Count < 1 {
			return fmt.Errorf("wire: wal-batch with count %d", f.Count)
		}
		if err := validateWALRecords(f.Data, f.Count); err != nil {
			return err
		}
	case ReplBootDone, ReplHeartbeat, ReplAck:
		carries = seq
	default:
		return fmt.Errorf("wire: unknown repl frame kind %d", uint8(f.Kind))
	}
	for _, g := range [...]struct {
		bit  int
		name string
		zero bool
	}{
		{shards, "shards", f.Shards == 0},
		{epoch, "epoch", f.Epoch == 0},
		{chunk, "chunk fields", f.File == 0 && !f.Last},
		{data, "data", len(f.Data) == 0},
		{batch, "batch fields", f.FirstSeq == 0 && f.Count == 0},
		{seq, "seq", f.Seq == 0},
	} {
		if carries&g.bit == 0 && !g.zero {
			return fmt.Errorf("wire: %s frame with stray %s", f.Kind, g.name)
		}
	}
	return nil
}

// validateWALRecords walks a wal-batch records region: count intact WAL
// records (frame CRC checked, body a valid request), nothing before,
// between, or after.
func validateWALRecords(data []byte, count int) error {
	for i := 0; i < count; i++ {
		if len(data) == 0 {
			return fmt.Errorf("wire: wal-batch holds %d records, count says %d", i, count)
		}
		body, rest, ok := frame.Next(data)
		if !ok {
			return fmt.Errorf("wire: wal-batch record %d torn or damaged", i)
		}
		if _, err := DecodeRequest(body); err != nil {
			return fmt.Errorf("wire: wal-batch record %d: %w", i, err)
		}
		data = rest
	}
	if len(data) != 0 {
		return fmt.Errorf("wire: wal-batch carries %d trailing bytes after %d records", len(data), count)
	}
	return nil
}

// WriteReplFrame frames and writes one replication frame.
func WriteReplFrame(w io.Writer, f ReplFrame) error {
	body, err := AppendReplFrame(nil, f)
	if err != nil {
		return err
	}
	return WriteFrame(w, body, MaxReplBody)
}

// ReadReplFrame reads and parses one framed replication frame,
// rejecting oversized length prefixes before allocating.
func ReadReplFrame(r io.Reader) (ReplFrame, error) {
	body, err := ReadFrame(r, MaxReplBody)
	if err != nil {
		return ReplFrame{}, err
	}
	return DecodeReplFrame(body)
}

// promoteInfoLen is the fixed OpPromote response payload size.
const promoteInfoLen = 8 + 2

// PromoteInfo is the OpPromote response payload: the promoted node's
// new fencing term and the shard count it now serves.
type PromoteInfo struct {
	Term   uint64
	Shards int
}

// EncodePromoteInfo renders a promotion result payload.
func EncodePromoteInfo(info PromoteInfo) ([]byte, error) {
	if err := validatePromoteInfo(info); err != nil {
		return nil, err
	}
	out := make([]byte, promoteInfoLen)
	binary.BigEndian.PutUint64(out[0:8], info.Term)
	binary.BigEndian.PutUint16(out[8:10], uint16(info.Shards))
	return out, nil
}

// DecodePromoteInfo parses a promotion result payload.
func DecodePromoteInfo(data []byte) (PromoteInfo, error) {
	if len(data) != promoteInfoLen {
		return PromoteInfo{}, fmt.Errorf("wire: promote info payload %d bytes, want %d", len(data), promoteInfoLen)
	}
	info := PromoteInfo{
		Term:   binary.BigEndian.Uint64(data[0:8]),
		Shards: int(binary.BigEndian.Uint16(data[8:10])),
	}
	if err := validatePromoteInfo(info); err != nil {
		return PromoteInfo{}, err
	}
	return info, nil
}

func validatePromoteInfo(info PromoteInfo) error {
	if info.Shards < 1 || info.Shards > 1<<16-1 {
		return fmt.Errorf("wire: promote info shard count %d out of range", info.Shards)
	}
	return nil
}
