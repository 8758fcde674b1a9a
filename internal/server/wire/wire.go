// Package wire defines the binary protocol (v3) spoken between
// cmd/aboramd and its clients (cmd/abload, internal/server.Client).
// Frames are length-prefixed so a stream socket can carry a sequence of
// request/response pairs without ambiguity:
//
//	frame    := uint32 big-endian body length | body
//	request  := op byte | id uint64 big-endian | block int64 big-endian |
//	            payload (OpWrite only)
//	response := status byte | payload (ok) or error text (error) or
//	            retry-after millis uint32 big-endian (overloaded)
//
// The id is a client-assigned request identifier: a retrying client
// resends a failed mutating request under its original id, and the
// server's dedup window (internal/server) answers a replay from cache
// instead of executing it twice. id 0 means "unassigned" and opts out of
// deduplication. The same request encoding frames the write-ahead-log
// records of internal/durable, so one canonical codec covers both the
// network and the crash-recovery surface.
//
// The encoding is canonical: every valid body has exactly one byte
// representation, which lets the fuzz target check decode→encode identity
// in addition to encode→decode identity.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Op identifies a request operation.
type Op uint8

const (
	// OpAccess touches a block obliviously without transferring content.
	OpAccess Op = 1
	// OpRead fetches a block's content.
	OpRead Op = 2
	// OpWrite stores a block's content (exactly the server's block size).
	OpWrite Op = 3
	// OpInfo asks for the store geometry (block count, block size,
	// encryption flag); Block must be 0.
	OpInfo Op = 4
	// OpXRead (protocol v3) fetches a block's content as an online-transfer
	// payload: the XOR fast path's combined block plus pad descriptors, the
	// baseline per-bucket path transfer, or the inline plaintext — see the
	// XRead codec in xread.go.
	OpXRead Op = 5
	// OpReshard (protocol v3) is the live-resharding admin op: the Data
	// field carries a ReshardReq command (status/start/pause/resume/abort)
	// and a successful response carries a ReshardInfo payload — see the
	// codec in reshard.go. Block must be 0.
	OpReshard Op = 6
	// OpTerm (protocol v3) never crosses the network: it is the
	// write-ahead-log record internal/durable appends when the promotion
	// term changes. The ID field carries the new term; Block must be 0 and
	// there is no payload. It rides the request encoding because the WAL
	// reuses this codec for its records.
	OpTerm Op = 7
	// OpPromote (protocol v3) is the failover admin op: it orders a
	// standby to promote itself to primary under the next fencing term. A
	// successful response carries a PromoteInfo payload — see the codec in
	// repl.go. Block must be 0 and there is no payload.
	OpPromote Op = 8
	// OpReplJoin (protocol v3) upgrades the connection to a replication
	// stream: after the server answers StatusOK the request/response
	// exchange ends and both sides switch to the replication frame
	// sub-protocol (repl.go), primary→replica data frames and
	// replica→primary acks. Block must be 0 and there is no payload.
	OpReplJoin Op = 9
)

// String returns the op's display name.
func (op Op) String() string {
	switch op {
	case OpAccess:
		return "access"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpInfo:
		return "info"
	case OpXRead:
		return "xread"
	case OpReshard:
		return "reshard"
	case OpTerm:
		return "term"
	case OpPromote:
		return "promote"
	case OpReplJoin:
		return "repljoin"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Response status bytes.
const (
	// StatusOK marks a successful response; the rest of the body is the
	// result payload (block content for OpRead, geometry for OpInfo).
	StatusOK = 0
	// StatusError marks a failed response; the rest of the body is a
	// human-readable error message.
	StatusError = 1
	// StatusOverloaded marks a request the server shed without executing
	// it: admission control rejected it (queue full, or its deadline
	// could not be met) before it touched the store. The body is a
	// uint32 big-endian retry-after hint in milliseconds. Unlike
	// StatusError, an overloaded response guarantees the op was not — and
	// never will be — applied, so a client may retry it freely (under the
	// original request id) after backing off.
	StatusOverloaded = 2
	// StatusNotPrimary marks a request refused because the node is a
	// standby: data ops are only served by the primary. Like
	// StatusOverloaded it guarantees the op was not applied here, so a
	// client should rotate to the next address in its list and resend
	// under the original request id. The body is the refusing node's
	// current fencing term as a uint64 big-endian.
	StatusNotPrimary = 3
)

// MaxData bounds the variable-length tail of a frame (write payloads,
// read results, error texts). The ORAM block size is 64 bytes today; the
// bound leaves room for larger configurations while keeping a malicious
// length prefix from forcing a huge allocation.
const MaxData = 1 << 16

// reqHeader is the fixed request prefix: op byte, request id, block.
const reqHeader = 1 + 8 + 8

// MaxBody is the largest legal frame body: request header plus data.
// It also bounds the record bodies of internal/durable's write-ahead
// log, which reuses this encoding.
const MaxBody = reqHeader + MaxData

// Request is one client operation.
type Request struct {
	Op    Op
	ID    uint64 // client-assigned request id; 0 = no deduplication
	Block int64
	Data  []byte // OpWrite payload or OpReshard command; nil otherwise
}

// Response is the server's answer to one Request.
type Response struct {
	Data []byte // OpRead content or OpInfo geometry
	Err  string // non-empty marks a failed request
	// Overloaded marks a shed request (StatusOverloaded): definitively
	// not executed, retry after RetryAfterMillis.
	Overloaded       bool
	RetryAfterMillis uint32
	// NotPrimary marks a request refused by a standby
	// (StatusNotPrimary): definitively not executed here, resend to the
	// primary. Term is the refusing node's fencing term.
	NotPrimary bool
	Term       uint64
}

// InfoPayload is the OpInfo response body: the store geometry a load
// generator needs to choose keys. NumBlocks is the global address space;
// when Shards > 1 the daemon routes block b to shard b mod Shards, which
// a load generator uses to report per-shard balance. Durability, when
// non-nil, is the optional counter tail a durability-backed server
// appends (summed across shards); servers without a durable engine omit
// it, and old clients ignore it by length.
type InfoPayload struct {
	NumBlocks  int64
	BlockSize  int
	Encrypted  bool
	Shards     int
	Durability *DurabilityInfo
	// Replication, when non-nil, is the optional standby-health tail a
	// replication-enabled server appends after the durability tail; it is
	// never present without Durability.
	Replication *ReplicationInfo
}

// DurabilityInfo is the optional durability-counter tail of an OpInfo
// response: checkpoint and log-maintenance totals since the server
// started. Epoch is the newest checkpoint epoch (the maximum across
// shards when sharded); the remaining fields are sums.
type DurabilityInfo struct {
	Epoch              uint64
	Snapshots          uint64 // full-image checkpoints published
	Deltas             uint64 // delta checkpoints published
	Compactions        uint64 // live WAL segments rewritten
	SnapshotPauseNanos uint64 // cumulative serving pause spent capturing
	LastSnapshotBytes  uint64 // size of the newest checkpoint (sum of per-shard newest)
	Syncs              uint64 // WAL fsyncs
}

// durabilityTail is the encoded size of DurabilityInfo: 7 uint64 fields.
const durabilityTail = 7 * 8

// Replication roles reported in ReplicationInfo.
const (
	// RolePrimary serves data ops and ships its log to a standby.
	RolePrimary uint8 = 1
	// RoleReplica mirrors a primary and refuses data ops.
	RoleReplica uint8 = 2
)

// ReplicationInfo is the optional replication tail of an OpInfo
// response: standby health as the answering node sees it. On a primary,
// ShippedSeq/AckedSeq are the newest shipped and replica-acknowledged
// stream sequence numbers (summed lag across shards is
// ShippedSeq-AckedSeq per shard); on a replica they are the applied
// watermark. Term is the node's fencing term.
type ReplicationInfo struct {
	Role       uint8
	Attached   bool // primary: a replica is connected; replica: the link is up
	Term       uint64
	ShippedSeq uint64
	AckedSeq   uint64
	LagBytes   uint64 // bytes shipped but not yet acknowledged
}

// replicationTail is the encoded size of ReplicationInfo: role byte,
// attached flag, then 4 uint64 fields.
const replicationTail = 1 + 1 + 4*8

// AppendRequest appends the canonical body encoding of req to dst. It
// validates the same invariants DecodeRequest enforces, so only decodable
// requests can be produced.
func AppendRequest(dst []byte, req Request) ([]byte, error) {
	if err := validateRequest(req); err != nil {
		return nil, err
	}
	dst = append(dst, byte(req.Op))
	dst = binary.BigEndian.AppendUint64(dst, req.ID)
	dst = binary.BigEndian.AppendUint64(dst, uint64(req.Block))
	dst = append(dst, req.Data...)
	return dst, nil
}

// DecodeRequest parses a frame body into a Request. The returned request
// aliases body's data bytes.
func DecodeRequest(body []byte) (Request, error) {
	if len(body) < reqHeader {
		return Request{}, fmt.Errorf("wire: request body %d bytes, need at least %d", len(body), reqHeader)
	}
	req := Request{
		Op:    Op(body[0]),
		ID:    binary.BigEndian.Uint64(body[1:9]),
		Block: int64(binary.BigEndian.Uint64(body[9:17])),
	}
	if len(body) > reqHeader {
		req.Data = body[reqHeader:]
	}
	if err := validateRequest(req); err != nil {
		return Request{}, err
	}
	return req, nil
}

// validateRequest enforces the canonical-form invariants shared by the
// encoder and the decoder.
func validateRequest(req Request) error {
	switch req.Op {
	case OpAccess, OpRead, OpXRead:
		if len(req.Data) != 0 {
			return fmt.Errorf("wire: %s request carries %d payload bytes", req.Op, len(req.Data))
		}
	case OpWrite:
		if len(req.Data) == 0 {
			return fmt.Errorf("wire: write request without payload")
		}
		if len(req.Data) > MaxData {
			return fmt.Errorf("wire: write payload %d bytes exceeds limit %d", len(req.Data), MaxData)
		}
	case OpInfo:
		if len(req.Data) != 0 {
			return fmt.Errorf("wire: info request carries %d payload bytes", len(req.Data))
		}
		if req.Block != 0 {
			return fmt.Errorf("wire: info request with block %d, must be 0", req.Block)
		}
	case OpReshard:
		if req.Block != 0 {
			return fmt.Errorf("wire: reshard request with block %d, must be 0", req.Block)
		}
		if _, err := DecodeReshardReq(req.Data); err != nil {
			return err
		}
	case OpTerm:
		// WAL-only record: the ID field carries the term.
		if len(req.Data) != 0 {
			return fmt.Errorf("wire: term record carries %d payload bytes", len(req.Data))
		}
		if req.Block != 0 {
			return fmt.Errorf("wire: term record with block %d, must be 0", req.Block)
		}
	case OpPromote, OpReplJoin:
		if len(req.Data) != 0 {
			return fmt.Errorf("wire: %s request carries %d payload bytes", req.Op, len(req.Data))
		}
		if req.Block != 0 {
			return fmt.Errorf("wire: %s request with block %d, must be 0", req.Op, req.Block)
		}
	default:
		return fmt.Errorf("wire: unknown op %d", uint8(req.Op))
	}
	if req.Block < 0 {
		return fmt.Errorf("wire: negative block %d", req.Block)
	}
	return nil
}

// AppendResponse appends the canonical body encoding of resp to dst.
func AppendResponse(dst []byte, resp Response) ([]byte, error) {
	if err := validateResponse(resp); err != nil {
		return nil, err
	}
	if resp.Overloaded {
		dst = append(dst, StatusOverloaded)
		return binary.BigEndian.AppendUint32(dst, resp.RetryAfterMillis), nil
	}
	if resp.NotPrimary {
		dst = append(dst, StatusNotPrimary)
		return binary.BigEndian.AppendUint64(dst, resp.Term), nil
	}
	if resp.Err != "" {
		dst = append(dst, StatusError)
		return append(dst, resp.Err...), nil
	}
	dst = append(dst, StatusOK)
	return append(dst, resp.Data...), nil
}

// DecodeResponse parses a frame body into a Response. The returned
// response aliases body's data bytes.
func DecodeResponse(body []byte) (Response, error) {
	if len(body) < 1 {
		return Response{}, fmt.Errorf("wire: empty response body")
	}
	switch body[0] {
	case StatusOK:
		resp := Response{}
		if len(body) > 1 {
			resp.Data = body[1:]
		}
		return resp, nil
	case StatusError:
		if len(body) == 1 {
			return Response{}, fmt.Errorf("wire: error response without message")
		}
		return Response{Err: string(body[1:])}, nil
	case StatusOverloaded:
		if len(body) != 5 {
			return Response{}, fmt.Errorf("wire: overloaded response body %d bytes, want 5", len(body))
		}
		return Response{Overloaded: true, RetryAfterMillis: binary.BigEndian.Uint32(body[1:5])}, nil
	case StatusNotPrimary:
		if len(body) != 9 {
			return Response{}, fmt.Errorf("wire: not-primary response body %d bytes, want 9", len(body))
		}
		return Response{NotPrimary: true, Term: binary.BigEndian.Uint64(body[1:9])}, nil
	default:
		return Response{}, fmt.Errorf("wire: unknown response status %d", body[0])
	}
}

func validateResponse(resp Response) error {
	if resp.Overloaded && (resp.Err != "" || len(resp.Data) != 0) {
		return fmt.Errorf("wire: overloaded response carries error or data")
	}
	if !resp.Overloaded && resp.RetryAfterMillis != 0 {
		return fmt.Errorf("wire: retry-after %d ms on a non-overloaded response", resp.RetryAfterMillis)
	}
	if resp.NotPrimary && (resp.Overloaded || resp.Err != "" || len(resp.Data) != 0) {
		return fmt.Errorf("wire: not-primary response carries error, data, or overload")
	}
	if !resp.NotPrimary && resp.Term != 0 {
		return fmt.Errorf("wire: term %d on a non-not-primary response", resp.Term)
	}
	if resp.Err != "" && len(resp.Data) != 0 {
		return fmt.Errorf("wire: response carries both error and %d data bytes", len(resp.Data))
	}
	if len(resp.Data) > MaxData {
		return fmt.Errorf("wire: response payload %d bytes exceeds limit %d", len(resp.Data), MaxData)
	}
	if len(resp.Err) > MaxData {
		return fmt.Errorf("wire: error text %d bytes exceeds limit %d", len(resp.Err), MaxData)
	}
	return nil
}

// EncodeInfo renders an OpInfo response payload: 8 bytes of block count,
// 4 bytes of block size, 1 flag byte, 2 bytes of shard count, then —
// only when the server reports durability counters — 56 bytes of
// DurabilityInfo (7 big-endian uint64s in struct order), then — only
// when the server reports replication health — 34 bytes of
// ReplicationInfo (role byte, attached flag byte, 4 big-endian uint64s
// in struct order). Shards 0 ("unset") encodes as 1, the unsharded
// geometry. A replication tail without a durability tail is not
// encodable: replicated servers always run a durable engine.
func EncodeInfo(info InfoPayload) []byte {
	out := make([]byte, 15, 15+durabilityTail+replicationTail)
	binary.BigEndian.PutUint64(out[0:8], uint64(info.NumBlocks))
	binary.BigEndian.PutUint32(out[8:12], uint32(info.BlockSize))
	if info.Encrypted {
		out[12] = 1
	}
	shards := info.Shards
	if shards <= 0 {
		shards = 1
	}
	binary.BigEndian.PutUint16(out[13:15], uint16(shards))
	if d := info.Durability; d != nil {
		for _, v := range [7]uint64{
			d.Epoch, d.Snapshots, d.Deltas, d.Compactions,
			d.SnapshotPauseNanos, d.LastSnapshotBytes, d.Syncs,
		} {
			out = binary.BigEndian.AppendUint64(out, v)
		}
		if r := info.Replication; r != nil {
			out = append(out, r.Role)
			if r.Attached {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
			for _, v := range [4]uint64{r.Term, r.ShippedSeq, r.AckedSeq, r.LagBytes} {
				out = binary.BigEndian.AppendUint64(out, v)
			}
		}
	}
	return out
}

// DecodeInfo parses an OpInfo response payload, with or without the
// durability and replication tails.
func DecodeInfo(data []byte) (InfoPayload, error) {
	if len(data) != 15 && len(data) != 15+durabilityTail && len(data) != 15+durabilityTail+replicationTail {
		return InfoPayload{}, fmt.Errorf("wire: info payload %d bytes, want 15, %d, or %d",
			len(data), 15+durabilityTail, 15+durabilityTail+replicationTail)
	}
	if data[12] > 1 {
		return InfoPayload{}, fmt.Errorf("wire: info flag byte %d", data[12])
	}
	info := InfoPayload{
		NumBlocks: int64(binary.BigEndian.Uint64(data[0:8])),
		BlockSize: int(int32(binary.BigEndian.Uint32(data[8:12]))),
		Encrypted: data[12] == 1,
		Shards:    int(binary.BigEndian.Uint16(data[13:15])),
	}
	if info.NumBlocks < 0 || info.BlockSize < 0 {
		return InfoPayload{}, fmt.Errorf("wire: negative geometry %d/%d", info.NumBlocks, info.BlockSize)
	}
	if info.Shards == 0 {
		return InfoPayload{}, fmt.Errorf("wire: info shard count 0")
	}
	if len(data) >= 15+durabilityTail {
		d := &DurabilityInfo{}
		fields := [7]*uint64{
			&d.Epoch, &d.Snapshots, &d.Deltas, &d.Compactions,
			&d.SnapshotPauseNanos, &d.LastSnapshotBytes, &d.Syncs,
		}
		for i, p := range fields {
			*p = binary.BigEndian.Uint64(data[15+8*i:])
		}
		info.Durability = d
	}
	if len(data) == 15+durabilityTail+replicationTail {
		tail := data[15+durabilityTail:]
		if tail[0] != RolePrimary && tail[0] != RoleReplica {
			return InfoPayload{}, fmt.Errorf("wire: replication role byte %d", tail[0])
		}
		if tail[1] > 1 {
			return InfoPayload{}, fmt.Errorf("wire: replication attached byte %d", tail[1])
		}
		r := &ReplicationInfo{Role: tail[0], Attached: tail[1] == 1}
		fields := [4]*uint64{&r.Term, &r.ShippedSeq, &r.AckedSeq, &r.LagBytes}
		for i, p := range fields {
			*p = binary.BigEndian.Uint64(tail[2+8*i:])
		}
		info.Replication = r
	}
	return info, nil
}

// WriteFrame writes one length-prefixed frame body of at most limit
// bytes: requests and responses under MaxBody, replication frames under
// MaxReplBody.
func WriteFrame(w io.Writer, body []byte, limit int) error {
	if len(body) > limit {
		return fmt.Errorf("wire: frame body %d bytes exceeds limit %d", len(body), limit)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one length-prefixed frame body of at most limit bytes,
// rejecting a longer length prefix before allocating.
func ReadFrame(r io.Reader, limit int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if uint64(n) > uint64(limit) {
		return nil, fmt.Errorf("wire: frame length %d exceeds limit %d", n, limit)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return body, nil
}

// WriteRequest frames and writes one request.
func WriteRequest(w io.Writer, req Request) error {
	body, err := AppendRequest(nil, req)
	if err != nil {
		return err
	}
	return WriteFrame(w, body, MaxBody)
}

// ReadRequest reads and parses one framed request.
func ReadRequest(r io.Reader) (Request, error) {
	body, err := ReadFrame(r, MaxBody)
	if err != nil {
		return Request{}, err
	}
	return DecodeRequest(body)
}

// WriteResponse frames and writes one response.
func WriteResponse(w io.Writer, resp Response) error {
	body, err := AppendResponse(nil, resp)
	if err != nil {
		return err
	}
	return WriteFrame(w, body, MaxBody)
}

// ReadResponse reads and parses one framed response.
func ReadResponse(r io.Reader) (Response, error) {
	body, err := ReadFrame(r, MaxBody)
	if err != nil {
		return Response{}, err
	}
	return DecodeResponse(body)
}
