package aboram

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// FuzzDataPlaneTamper runs a Read/Write/ReadXOR script on a small encrypted
// AB tree with an on-chip treetop, XOR reads on or off, and flips one byte
// of one written off-chip slot — real content or a dummy — at a
// fuzz-chosen point. Before the flip every read returns exactly what a
// plain map remembers. After it, every operation returns the map's bytes
// or an integrity error, never wrong bytes; the script stops at the first
// error, since a failed access loses the content it was moving. A final
// sweep reads every block the same way.
//
// Input: byte 0 bit 0 turns XOR reads on; bytes 1-2 pick the slot and
// byte 3 the flipped byte; byte 4 is the number of operations before the
// flip; then 3 bytes per operation (kind, block high, block low).
func FuzzDataPlaneTamper(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2, 0, 0, 1, 0, 0, 2, 1, 0, 1, 2, 0, 1, 1, 0, 1})
	f.Add([]byte{1, 0, 9, 5, 3, 0, 0, 7, 0, 0, 9, 2, 0, 7, 1, 0, 9, 2, 0, 9})
	f.Add([]byte{1, 3, 200, 63, 1, 0, 1, 44, 2, 1, 44, 1, 1, 44, 0, 0, 3})
	f.Fuzz(runTamperScript)
}

// TestDataPlaneTamper runs random tamper scripts, so every test run
// flips bytes in many real and dummy slots with XOR reads on and off.
func TestDataPlaneTamper(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		script := make([]byte, 5+3*(16+r.Intn(48)))
		r.Read(script)
		script[4] %= 64
		t.Run(fmt.Sprintf("%x", script[:5]), func(t *testing.T) { runTamperScript(t, script) })
	}
}

func runTamperScript(t *testing.T, data []byte) {
	if len(data) < 5 {
		return
	}
	if len(data) > 5+3*64 {
		data = data[:5+3*64]
	}
	o, err := New(Options{Scheme: SchemeAB, Levels: 8, Seed: 11, EncryptionKey: key, XORRead: data[0]&1 == 1})
	if err != nil {
		t.Fatal(err)
	}
	if o.mem.Treetop() == 0 {
		t.Fatal("the tree has no on-chip treetop")
	}
	nb, bs := o.NumBlocks(), o.BlockSize()
	model := map[int64][]byte{}
	tampered := false
	// do runs one operation and reports whether the script goes on.
	do := func(kind byte, blk int64, fill byte) bool {
		var got []byte
		var err error
		switch kind % 3 {
		case 0:
			d := fuzzPayload(bs, blk, fill)
			if err = o.Write(blk, d); err == nil {
				model[blk] = d
			}
		case 1:
			got, err = o.Read(blk)
		case 2:
			var res *XORResult
			if res, err = o.ReadXOR(blk); err == nil {
				got = res.Data
			}
		}
		if err != nil {
			if !tampered || !strings.Contains(err.Error(), "integrity failure") {
				t.Fatalf("block %d (tampered=%v): %v", blk, tampered, err)
			}
			return false
		}
		if got != nil {
			want := model[blk]
			if want == nil {
				want = make([]byte, bs)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("block %d (tampered=%v): read wrong bytes", blk, tampered)
			}
		}
		return true
	}
	tamper := func() {
		var offChip []int64
		for _, i := range o.mem.CaptureDirty(0).Idx {
			if i >= o.mem.Treetop() {
				offChip = append(offChip, i)
			}
		}
		if len(offChip) == 0 {
			return
		}
		slot := offChip[(int(data[1])<<8|int(data[2]))%len(offChip)]
		if err := o.mem.InjectFault(slot, int(data[3])%bs); err != nil {
			t.Fatal(err)
		}
		tampered = true
	}
	ops, before := data[5:], int(data[4])
	for i := 0; i+2 < len(ops); i += 3 {
		if i/3 == before {
			tamper()
		}
		if !do(ops[i], (int64(ops[i+1])<<8|int64(ops[i+2]))%nb, ops[i+2]) {
			return
		}
	}
	if !tampered {
		tamper()
	}
	for blk := int64(0); blk < nb; blk++ {
		if !do(1, blk, 0) {
			return
		}
	}
}
