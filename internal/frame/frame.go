// Package frame is the one record frame of every durable byte stream
// the system writes: aboram's checkpoint stream, internal/durable's
// write-ahead log and reshard journal, and the WAL records a
// replication wal-batch carries verbatim.
//
//	frame := uint32 big-endian body length | uint32 big-endian CRC-32C | body
//
// The CRC covers the body only. The length is validated by range,
// 1..MaxBody, so a torn length prefix fails the bound or the CRC with
// overwhelming probability; each caller then checks its own body shape.
// This package is the only code that knows the layout, its bound and
// the checksum, so sealing the frame (ROADMAP item 10) is an edit here.
package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Header is the frame prefix: the body length and its CRC-32C.
const Header = 4 + 4

// MaxBody bounds a frame body, so a hostile length prefix cannot force
// an arbitrary allocation before the CRC is checked.
const MaxBody = 1 << 24

// ErrLength marks a length prefix of zero or over MaxBody.
var ErrLength = errors.New("frame: length out of range")

// table is the Castagnoli polynomial, the standard choice for storage
// checksums (hardware-accelerated on amd64/arm64).
var table = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, table) }

// Append appends one frame to dst. Its body is whatever body appends to
// the slice it is given, so a caller encodes the body in place, with no
// buffer of its own. An error from body, or a body length out of range,
// is returned and dst's extension is abandoned.
func Append(dst []byte, body func([]byte) ([]byte, error)) ([]byte, error) {
	start := len(dst)
	out, err := body(append(dst, make([]byte, Header)...))
	if err != nil {
		return nil, err
	}
	b := out[start+Header:]
	if len(b) == 0 || len(b) > MaxBody {
		return nil, fmt.Errorf("%w: body of %d bytes", ErrLength, len(b))
	}
	binary.BigEndian.PutUint32(out[start:], uint32(len(b)))
	binary.BigEndian.PutUint32(out[start+4:], Checksum(b))
	return out, nil
}

// Next splits the frame at the start of data into its body (aliasing
// data) and the bytes after it. ok is false when data does not open
// with an intact frame: too short, a length out of range, or a CRC
// mismatch.
func Next(data []byte) (body, rest []byte, ok bool) {
	if len(data) < Header {
		return nil, data, false
	}
	n := binary.BigEndian.Uint32(data)
	if n == 0 || n > MaxBody || uint64(len(data)-Header) < uint64(n) {
		return nil, data, false
	}
	body = data[Header : Header+n]
	if Checksum(body) != binary.BigEndian.Uint32(data[4:]) {
		return nil, data, false
	}
	return body, data[Header+n:], true
}

// Read reads one frame from r and returns its body. The buffer grows as
// bytes arrive rather than trusting the length prefix, so a damaged
// header cannot force a large allocation. A length out of range wraps
// ErrLength.
func Read(r io.Reader) ([]byte, error) {
	var hdr [Header]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("frame: torn header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxBody {
		return nil, fmt.Errorf("%w: %d", ErrLength, n)
	}
	var body bytes.Buffer
	if m, err := io.CopyN(&body, r, int64(n)); err != nil {
		return nil, fmt.Errorf("frame: torn body (%d of %d bytes): %w", m, n, err)
	}
	if Checksum(body.Bytes()) != binary.BigEndian.Uint32(hdr[4:]) {
		return nil, errors.New("frame: CRC mismatch")
	}
	return body.Bytes(), nil
}
