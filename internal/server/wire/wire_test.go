package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpAccess, Block: 0},
		{Op: OpAccess, Block: 1<<62 + 12345, ID: 1},
		{Op: OpRead, Block: 42, ID: ^uint64(0)},
		{Op: OpWrite, Block: 7, ID: 0xcafe, Data: []byte{0xde, 0xad, 0xbe, 0xef}},
		{Op: OpWrite, Block: 0, Data: bytes.Repeat([]byte{1}, MaxData)},
		{Op: OpInfo},
	}
	for _, req := range reqs {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatalf("%v: write: %v", req.Op, err)
		}
		got, err := ReadRequest(&buf)
		if err != nil {
			t.Fatalf("%v: read: %v", req.Op, err)
		}
		if got.Op != req.Op || got.ID != req.ID || got.Block != req.Block || !bytes.Equal(got.Data, req.Data) {
			t.Fatalf("round trip changed %+v into %+v", req, got)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{},
		{Data: []byte("payload")},
		{Err: "block out of range"},
		{Overloaded: true},
		{Overloaded: true, RetryAfterMillis: 1500},
	}
	for _, resp := range resps {
		var buf bytes.Buffer
		if err := WriteResponse(&buf, resp); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := ReadResponse(&buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got.Data, resp.Data) || got.Err != resp.Err ||
			got.Overloaded != resp.Overloaded || got.RetryAfterMillis != resp.RetryAfterMillis {
			t.Fatalf("round trip changed %+v into %+v", resp, got)
		}
	}
	// An overloaded response excludes data and error; retry-after demands
	// the overloaded status.
	for _, bad := range []Response{
		{Overloaded: true, Err: "x"},
		{Overloaded: true, Data: []byte{1}},
		{RetryAfterMillis: 9},
	} {
		if _, err := AppendResponse(nil, bad); err == nil {
			t.Errorf("encoder accepted invalid response %+v", bad)
		}
	}
}

func TestInvalidRequestsRejected(t *testing.T) {
	bad := []Request{
		{Op: 0, Block: 1},
		{Op: 99, Block: 1},
		{Op: OpAccess, Block: -1},
		{Op: OpAccess, Block: 1, Data: []byte{1}},
		{Op: OpRead, Block: 1, Data: []byte{1}},
		{Op: OpWrite, Block: 1},
		{Op: OpWrite, Block: 1, Data: bytes.Repeat([]byte{1}, MaxData+1)},
		{Op: OpInfo, Block: 3},
		{Op: OpInfo, Data: []byte{1}},
	}
	for _, req := range bad {
		if _, err := AppendRequest(nil, req); err == nil {
			t.Errorf("encoder accepted invalid request %+v", req)
		}
	}
}

func TestInvalidBodiesRejected(t *testing.T) {
	hdr := func(op byte, tail ...byte) []byte {
		body := make([]byte, 0, 17+len(tail))
		body = append(body, op)
		body = append(body, make([]byte, 8)...) // id 0
		return append(body, tail...)
	}
	bodies := [][]byte{
		{},
		{byte(OpAccess)},               // truncated header
		{0, 0, 0, 0, 0, 0, 0, 0, 0},    // v1-length body (no id field)
		hdr(0, 0, 0, 0, 0, 0, 0, 0, 0), // op 0
		hdr(byte(OpWrite), 0, 0, 0, 0, 0, 0, 0, 1),        // write without payload
		hdr(byte(OpAccess), 0xff, 0, 0, 0, 0, 0, 0, 0, 1), // negative block + payload
	}
	for _, body := range bodies {
		if _, err := DecodeRequest(body); err == nil {
			t.Errorf("decoder accepted invalid body % x", body)
		}
	}
	if _, err := DecodeResponse(nil); err == nil {
		t.Error("decoder accepted empty response")
	}
	if _, err := DecodeResponse([]byte{StatusError}); err == nil {
		t.Error("decoder accepted error response without message")
	}
	if _, err := DecodeResponse([]byte{7, 1}); err == nil {
		t.Error("decoder accepted unknown status")
	}
}

func TestFrameLimits(t *testing.T) {
	// A hostile length prefix must be rejected before allocation.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<31)
	if _, err := ReadFrame(bytes.NewReader(hdr[:]), MaxBody); err == nil {
		t.Fatal("oversized frame length accepted")
	}
	if err := WriteFrame(io.Discard, make([]byte, MaxBody+1), MaxBody); err == nil {
		t.Fatal("oversized frame body accepted")
	}
	// A truncated body is an error, not a short read.
	var buf bytes.Buffer
	binary.BigEndian.PutUint32(hdr[:], 10)
	buf.Write(hdr[:])
	buf.WriteString("short")
	if _, err := ReadFrame(&buf, MaxBody); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated frame: got %v", err)
	}
}

func TestInfoRoundTrip(t *testing.T) {
	in := InfoPayload{NumBlocks: 81900, BlockSize: 64, Encrypted: true, Shards: 4}
	got, err := DecodeInfo(EncodeInfo(in))
	if err != nil {
		t.Fatal(err)
	}
	if got != in {
		t.Fatalf("info round trip changed %+v into %+v", in, got)
	}
	// Shards 0 means "unset": it encodes as the unsharded geometry.
	unset := InfoPayload{NumBlocks: 10, BlockSize: 64}
	got, err = DecodeInfo(EncodeInfo(unset))
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards != 1 {
		t.Fatalf("unset shard count decoded as %d, want 1", got.Shards)
	}
	if _, err := DecodeInfo([]byte{1, 2, 3}); err == nil {
		t.Fatal("short info payload accepted")
	}
	bad := EncodeInfo(in)
	bad[12] = 9
	if _, err := DecodeInfo(bad); err == nil {
		t.Fatal("bad flag byte accepted")
	}
	zero := EncodeInfo(in)
	zero[13], zero[14] = 0, 0
	if _, err := DecodeInfo(zero); err == nil {
		t.Fatal("zero shard count accepted")
	}
}

// TestStreamOfFrames checks that several frames on one stream parse in
// order — the shape of a real connection.
func TestStreamOfFrames(t *testing.T) {
	var buf bytes.Buffer
	want := []Request{
		{Op: OpInfo},
		{Op: OpWrite, Block: 3, Data: []byte("abc")},
		{Op: OpRead, Block: 3},
	}
	for _, req := range want {
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatal(err)
		}
	}
	for i, exp := range want {
		got, err := ReadRequest(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Op != exp.Op || got.Block != exp.Block || !bytes.Equal(got.Data, exp.Data) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, exp)
		}
	}
	if _, err := ReadRequest(&buf); err != io.EOF {
		t.Fatalf("expected EOF at stream end, got %v", err)
	}
}
