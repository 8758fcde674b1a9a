package aboram

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// FuzzDataPlaneTamper runs a Read/Write/ReadXOR script on a small encrypted
// AB tree with an on-chip treetop, XOR reads on or off, and flips one byte
// of one written off-chip slot — real content or a dummy — at a
// fuzz-chosen point. Before the flip every read returns exactly what a
// plain map remembers. After it, every operation returns the map's bytes
// or an integrity error, never wrong bytes. A failed access loses the
// content it was moving, so the failure is sticky: the script runs on
// and every later operation must fail too. A final sweep reads every
// block the same way.
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
	tampered, failed := false, false
	// do runs one operation.
	do := func(kind byte, blk int64, fill byte) {
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
			failed = true
			return
		}
		if failed {
			t.Fatalf("block %d: an operation succeeded after an integrity failure", blk)
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
		do(ops[i], (int64(ops[i+1])<<8|int64(ops[i+2]))%nb, ops[i+2])
	}
	if !tampered {
		tamper()
	}
	for blk := int64(0); blk < nb; blk++ {
		do(1, blk, 0)
	}
	if _, err := o.Fingerprint(); failed != (err != nil) {
		t.Fatalf("Fingerprint after the script (failed=%v): %v", failed, err)
	}
}

// TestDataPlaneFailureSticky flips every off-chip slot of a levels-8 AB
// tree. The first Read of block 0 fails, having stashed the block
// without its content; every later operation and checkpoint capture
// must fail as well rather than serve zeros or capture the loss.
func TestDataPlaneFailureSticky(t *testing.T) {
	o, err := New(Options{Scheme: SchemeAB, Levels: 8, Seed: 1, EncryptionKey: key})
	if err != nil {
		t.Fatal(err)
	}
	for b := int64(0); b < 64; b++ {
		if err := o.Write(b, fuzzPayload(o.BlockSize(), b, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range o.mem.CaptureDirty(0).Idx {
		if i >= o.mem.Treetop() {
			if err := o.mem.InjectFault(i, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := o.Read(0); err == nil {
		t.Fatal("the first read of a tampered store succeeded")
	}
	if got, err := o.Read(0); err == nil {
		t.Fatalf("the second read succeeded with % x", got)
	}
	for name, op := range map[string]func() error{
		"Access":       func() error { return o.Access(1) },
		"Write":        func() error { return o.Write(1, make([]byte, o.BlockSize())) },
		"ReadXOR":      func() error { _, err := o.ReadXOR(1); return err },
		"Save":         func() error { return o.Save(io.Discard) },
		"CaptureBase":  func() error { _, _, err := o.CaptureBase(); return err },
		"CaptureDelta": func() error { _, _, err := o.CaptureDelta(0); return err },
	} {
		if err := op(); err == nil {
			t.Errorf("%s succeeded after a data-plane failure", name)
		}
	}
}
