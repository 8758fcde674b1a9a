package frame

import (
	"bytes"
	"errors"
	"testing"
)

func bodyOf(p []byte) func([]byte) ([]byte, error) {
	return func(b []byte) ([]byte, error) { return append(b, p...), nil }
}

// TestRoundTrip frames three bodies back to back and checks that Next
// and Read both return them in order, and that the layout is the
// documented one.
func TestRoundTrip(t *testing.T) {
	bodies := [][]byte{[]byte("a"), bytes.Repeat([]byte{0xee}, 300), []byte("third")}
	var data []byte
	for _, b := range bodies {
		var err error
		if data, err = Append(data, bodyOf(b)); err != nil {
			t.Fatal(err)
		}
	}
	if want := []byte{0, 0, 0, 1}; !bytes.Equal(data[:4], want) || data[Header] != 'a' {
		t.Fatalf("first frame % x", data[:Header+1])
	}
	rest, r := data, bytes.NewReader(data)
	for i, want := range bodies {
		body, next, ok := Next(rest)
		if !ok || !bytes.Equal(body, want) {
			t.Fatalf("Next frame %d: ok=%v body %q", i, ok, body)
		}
		rest = next
		got, err := Read(r)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Read frame %d: %v", i, err)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(rest))
	}
}

// TestDamageRejected: every cut short of a whole frame, every flipped
// bit, and a length out of range make Next refuse and Read fail;
// Append refuses an empty body and keeps dst's contents.
func TestDamageRejected(t *testing.T) {
	data, err := Append([]byte("prefix"), bodyOf([]byte("body bytes")))
	if err != nil {
		t.Fatal(err)
	}
	data = data[len("prefix"):]
	for cut := 0; cut < len(data); cut++ {
		if _, _, ok := Next(data[:cut]); ok {
			t.Fatalf("cut at %d accepted", cut)
		}
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("Read of a cut at %d succeeded", cut)
		}
	}
	for bit := 0; bit < 8*len(data); bit++ {
		bad := append([]byte(nil), data...)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, _, ok := Next(bad); ok {
			t.Fatalf("flip of bit %d accepted", bit)
		}
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Fatalf("Read after a flip of bit %d succeeded", bit)
		}
	}
	for _, n := range []uint32{0, MaxBody + 1, 1 << 31} {
		hdr := []byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n), 0, 0, 0, 0}
		if _, err := Read(bytes.NewReader(hdr)); !errors.Is(err, ErrLength) {
			t.Fatalf("length %d: %v, want ErrLength", n, err)
		}
	}
	if _, err := Append(nil, bodyOf(nil)); !errors.Is(err, ErrLength) {
		t.Fatalf("empty body: %v, want ErrLength", err)
	}
}
