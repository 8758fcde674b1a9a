package wire

import (
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"testing"

	"repro/internal/frame"
)

// walRecords builds a records region of WAL records (frames of
// internal/frame) from raw record bodies.
func walRecords(bodies ...[]byte) []byte {
	var out []byte
	for _, b := range bodies {
		out, _ = frame.Append(out, func(dst []byte) ([]byte, error) { return append(dst, b...), nil })
	}
	return out
}

func replSeedFrames(t testing.TB) []ReplFrame {
	t.Helper()
	rec, err := AppendRequest(nil, Request{Op: OpWrite, ID: 7, Block: 3, Data: []byte("abcd")})
	if err != nil {
		t.Fatal(err)
	}
	return []ReplFrame{
		{Kind: ReplHello, Term: 3, Shards: 2},
		{Kind: ReplSnapChunk, Term: 3, Shard: 1, File: ReplFileBase, Epoch: 12, Last: true, Data: []byte("snapshot bytes")},
		{Kind: ReplSnapChunk, Term: 3, File: ReplFileDelta, Epoch: 13, Data: []byte("delta bytes")},
		{Kind: ReplSnapChunk, Term: 1, File: ReplFileWAL, Epoch: 14, Last: true},
		{Kind: ReplRotate, Term: 3, Shard: 1, Epoch: 15},
		{Kind: ReplWALBatch, Term: 3, FirstSeq: 41, Count: 2, Data: walRecords(rec, rec)},
		{Kind: ReplCompact, Term: 3, Epoch: 15},
		{Kind: ReplBootDone, Term: 3, Seq: 40},
		{Kind: ReplHeartbeat, Term: 3, Shard: 1, Seq: 42},
		{Kind: ReplAck, Term: 3, Shard: 1, Seq: 42},
	}
}

// TestReplFrameRoundTrip drives every frame kind through the codec and
// the stream transport.
func TestReplFrameRoundTrip(t *testing.T) {
	for _, f := range replSeedFrames(t) {
		body, err := AppendReplFrame(nil, f)
		if err != nil {
			t.Fatalf("%s: encode: %v", f.Kind, err)
		}
		got, err := DecodeReplFrame(body)
		if err != nil {
			t.Fatalf("%s: decode: %v", f.Kind, err)
		}
		if !replFrameEqual(got, f) {
			t.Fatalf("%s: round trip changed %+v into %+v", f.Kind, f, got)
		}
		// And through the length-prefixed transport.
		var buf bytes.Buffer
		if err := WriteReplFrame(&buf, f); err != nil {
			t.Fatalf("%s: write: %v", f.Kind, err)
		}
		got, err = ReadReplFrame(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", f.Kind, err)
		}
		if !replFrameEqual(got, f) {
			t.Fatalf("%s: transport round trip changed %+v into %+v", f.Kind, f, got)
		}
	}
}

func replFrameEqual(a, b ReplFrame) bool {
	return a.Kind == b.Kind && a.Term == b.Term && a.Shard == b.Shard &&
		a.Shards == b.Shards && a.File == b.File && a.Epoch == b.Epoch &&
		a.Last == b.Last && bytes.Equal(a.Data, b.Data) &&
		a.FirstSeq == b.FirstSeq && a.Count == b.Count && a.Seq == b.Seq
}

// TestReplFrameRejects pins the validator: frames that would admit a
// second byte representation (stray fields) or malformed batches must
// not encode.
func TestReplFrameRejects(t *testing.T) {
	bad := []ReplFrame{
		{Kind: ReplKind(99), Term: 1},
		{Kind: ReplHello, Shards: 0},
		{Kind: ReplHello, Shards: 2, Shard: 1},
		{Kind: ReplHello, Shards: 2, Seq: 1},
		{Kind: ReplAck, Seq: 1, Data: []byte("x")},
		{Kind: ReplRotate, Epoch: 3, Last: true},
		{Kind: ReplSnapChunk, File: ReplFileKind(9), Epoch: 1},
		{Kind: ReplWALBatch, Count: 0},
		{Kind: ReplWALBatch, Count: 1, Data: []byte{0, 0, 0}}, // truncated header
	}
	for i, f := range bad {
		if _, err := AppendReplFrame(nil, f); err == nil {
			t.Errorf("bad frame %d (%s) encoded successfully: %+v", i, f.Kind, f)
		}
	}
	// Count mismatches are built from intact records, so the refusal
	// must come from the count check itself, not from a record's frame
	// or body.
	rec, err := AppendRequest(nil, Request{Op: OpWrite, ID: 7, Block: 3, Data: []byte("abcd")})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		f    ReplFrame
		want string
	}{
		{ReplFrame{Kind: ReplWALBatch, Count: 1, Data: walRecords(rec, rec)}, "trailing bytes after 1 records"},
		{ReplFrame{Kind: ReplWALBatch, Count: 2, Data: walRecords(rec)}, "holds 1 records, count says 2"},
	} {
		_, err := AppendReplFrame(nil, tc.f)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("count %d over %d bytes: got error %v, want one naming %q", tc.f.Count, len(tc.f.Data), err, tc.want)
		}
	}
}

// TestReplWALBatchDamageRefused flips every bit of a wal-batch's records
// region in turn: each damaged batch must fail to decode, since the
// replica would otherwise append and acknowledge a record its recovery
// truncates.
func TestReplWALBatchDamageRefused(t *testing.T) {
	var f ReplFrame
	for _, fr := range replSeedFrames(t) {
		if fr.Kind == ReplWALBatch {
			f = fr
		}
	}
	body, err := AppendReplFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	start := len(body) - len(f.Data)
	for bit := 8 * start; bit < 8*len(body); bit++ {
		bad := append([]byte(nil), body...)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, err := DecodeReplFrame(bad); err == nil {
			t.Fatalf("wal-batch with bit %d of its records flipped decoded", bit-8*start)
		}
	}
}

// TestReplFrameOversizeRejected checks both transport directions refuse
// frames past MaxReplBody before allocating or writing.
func TestReplFrameOversizeRejected(t *testing.T) {
	huge := ReplFrame{Kind: ReplSnapChunk, File: ReplFileBase, Data: make([]byte, MaxReplBody)}
	if _, err := AppendReplFrame(nil, huge); err == nil {
		t.Fatal("oversized chunk encoded")
	}
	// A length prefix past the bound must be rejected without reading the
	// (absent) body.
	cli, srv := net.Pipe()
	defer srv.Close()
	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], MaxReplBody+1)
		cli.Write(hdr[:])
		cli.Close()
	}()
	if _, err := ReadReplFrame(srv); err == nil {
		t.Fatal("oversized length prefix accepted")
	}
}

// TestPromoteInfoRoundTrip pins the OpPromote response codec.
func TestPromoteInfoRoundTrip(t *testing.T) {
	want := PromoteInfo{Term: 9, Shards: 4}
	body, err := EncodePromoteInfo(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePromoteInfo(body)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip changed %+v into %+v", want, got)
	}
	if _, err := EncodePromoteInfo(PromoteInfo{Term: 1}); err == nil {
		t.Fatal("promote info with 0 shards encoded")
	}
	if _, err := DecodePromoteInfo(body[:5]); err == nil {
		t.Fatal("truncated promote info decoded")
	}
}

// FuzzReplStream feeds arbitrary bytes to the replication frame decoder.
// Invariants: no panic on any input, and any body that decodes must
// re-encode to the identical bytes (the encoding is canonical), then
// decode again to an equal frame. The promote-info codec rides along.
func FuzzReplStream(f *testing.F) {
	for _, fr := range replSeedFrames(f) {
		body, err := AppendReplFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(ReplHello)})
	f.Add([]byte{byte(ReplWALBatch), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	if body, err := EncodePromoteInfo(PromoteInfo{Term: 2, Shards: 1}); err == nil {
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		if fr, err := DecodeReplFrame(body); err == nil {
			re, err := AppendReplFrame(nil, fr)
			if err != nil {
				t.Fatalf("decoded frame %+v does not re-encode: %v", fr, err)
			}
			if !bytes.Equal(re, body) {
				t.Fatalf("repl encoding not canonical:\n in % x\nout % x", body, re)
			}
			again, err := DecodeReplFrame(re)
			if err != nil {
				t.Fatalf("re-encoded frame does not decode: %v", err)
			}
			if !replFrameEqual(again, fr) {
				t.Fatalf("frame round trip changed %+v into %+v", fr, again)
			}
		}
		if info, err := DecodePromoteInfo(body); err == nil {
			re, err := EncodePromoteInfo(info)
			if err != nil {
				t.Fatalf("decoded promote info %+v does not re-encode: %v", info, err)
			}
			if !bytes.Equal(re, body) {
				t.Fatalf("promote info encoding not canonical:\n in % x\nout % x", body, re)
			}
		}
	})
}
