package aboram

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestCheckpointStreamGolden pins the exact bytes of a Save image and a
// SaveDelta stream of a fixed levels-8 AB instance after a fixed op
// script. A change to the frame layout, the record order, or any
// payload encoding changes these hashes; such a change must bump
// checkpointVersion and the hashes together.
func TestCheckpointStreamGolden(t *testing.T) {
	const (
		wantSave  = "bba7744bf0eaa9a27409e93bb7fce73236f112236fc5608f40244dc8f8b8e8d5"
		wantDelta = "166ddba37c84a5c6cefb3f4d1e8bdca7fce6fd97505a29138f607da443bf3684"
	)
	o, err := New(Options{Scheme: SchemeAB, Levels: 8, Seed: 23, EncryptionKey: key})
	if err != nil {
		t.Fatal(err)
	}
	deltaOps(t, o, nil, 3, 80)
	cut := o.CutEpoch()
	deltaOps(t, o, nil, 41, 30)
	var delta, img bytes.Buffer
	if _, err := o.SaveDelta(&delta, cut); err != nil {
		t.Fatal(err)
	}
	if err := o.Save(&img); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{{"Save", img.Bytes(), wantSave}, {"SaveDelta", delta.Bytes(), wantDelta}} {
		sum := sha256.Sum256(c.data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s stream (%d bytes) sha256 %s, want %s", c.name, len(c.data), got, c.want)
		}
	}
}
