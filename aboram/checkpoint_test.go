package aboram

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"strings"
	"testing"
)

func TestFacadeSaveLoadEncrypted(t *testing.T) {
	opt := Options{Scheme: SchemeAB, Levels: 10, Seed: 11, EncryptionKey: key}
	o, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5c}, o.BlockSize())
	if err := o.Write(3, payload); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 1000; i++ {
		if err := o.Access((i * 31) % o.NumBlocks()); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := o.Save(&buf); err != nil {
		t.Fatal(err)
	}
	clone, err := Load(opt, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := clone.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	got, err := clone.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload lost across facade checkpoint")
	}
	// DR/AB DeadQ contents travelled too: the clone keeps extending.
	for i := int64(0); i < 2000; i++ {
		if err := clone.Access((i * 17) % clone.NumBlocks()); err != nil {
			t.Fatal(err)
		}
	}
	if clone.Stats().ExtendRatio <= 0 {
		t.Fatal("restored AB instance never extends")
	}
	if err := clone.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSaveLoadPatternOnly(t *testing.T) {
	opt := Options{Scheme: SchemeBaseline, Levels: 10, Seed: 2}
	o, _ := New(opt)
	for i := int64(0); i < 500; i++ {
		if err := o.Access(i % o.NumBlocks()); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := o.Save(&buf); err != nil {
		t.Fatal(err)
	}
	clone, err := Load(opt, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if clone.Stats().Accesses != o.Stats().Accesses {
		t.Fatal("stats not preserved")
	}
	if clone.Encrypted() {
		t.Fatal("pattern-only checkpoint restored with a data plane")
	}
}

func TestFacadeLoadKeyMismatch(t *testing.T) {
	opt := Options{Scheme: SchemeBaseline, Levels: 10, EncryptionKey: key}
	o, _ := New(opt)
	var buf bytes.Buffer
	if err := o.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Encrypted image, no key.
	noKey := opt
	noKey.EncryptionKey = nil
	if _, err := Load(noKey, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("encrypted checkpoint loaded without a key")
	}
	// Pattern-only image, spurious key.
	plain, _ := New(Options{Scheme: SchemeBaseline, Levels: 10})
	var buf2 bytes.Buffer
	_ = plain.Save(&buf2)
	if _, err := Load(opt, &buf2); err == nil {
		t.Fatal("pattern-only checkpoint loaded with a key")
	}
}

func TestFacadeLoadGarbage(t *testing.T) {
	if _, err := Load(Options{Levels: 10}, bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("garbage accepted")
	}
}

// A wrong key must be caught by the integrity layer on the first read of
// authenticated content, not silently decrypt to garbage.
func TestFacadeLoadWrongKeyDetected(t *testing.T) {
	opt := Options{Scheme: SchemeBaseline, Levels: 10, Seed: 4, EncryptionKey: key}
	o, _ := New(opt)
	if err := o.Write(1, bytes.Repeat([]byte{9}, o.BlockSize())); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 300; i++ {
		_ = o.Access(i % o.NumBlocks())
	}
	var buf bytes.Buffer
	if err := o.Save(&buf); err != nil {
		t.Fatal(err)
	}
	bad := opt
	bad.EncryptionKey = []byte("fedcba9876543210")
	clone, err := Load(bad, &buf)
	if err != nil {
		// Also acceptable: rejected at load time.
		return
	}
	if _, err := clone.Read(1); err == nil {
		// The block may be in the stash (plaintext); flush with accesses
		// and retry.
		for i := int64(0); i < 500; i++ {
			_ = clone.Access((i * 7) % clone.NumBlocks())
		}
		got, err := clone.Read(1)
		if err == nil && bytes.Equal(got, bytes.Repeat([]byte{9}, clone.BlockSize())) {
			t.Fatal("wrong key decrypted the right plaintext?!")
		}
	}
}

// TestFingerprintDeterministic pins the fingerprint contract: repeated
// calls on an unchanged instance agree, a Save/Load round trip preserves
// the fingerprint, and any state change moves it.
func TestFingerprintDeterministic(t *testing.T) {
	opt := Options{Scheme: SchemeAB, Levels: 10, Seed: 5, EncryptionKey: key}
	o, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 300; i++ {
		if err := o.Access((i * 13) % o.NumBlocks()); err != nil {
			t.Fatal(err)
		}
	}
	fp1, err := o.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := o.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("fingerprint not deterministic on an unchanged instance:\n %x\n %x", fp1, fp2)
	}

	var buf bytes.Buffer
	if err := o.Save(&buf); err != nil {
		t.Fatal(err)
	}
	clone, err := Load(opt, &buf)
	if err != nil {
		t.Fatal(err)
	}
	fp3, err := clone.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp3 != fp1 {
		t.Fatalf("Save/Load round trip changed the fingerprint:\n before %x\n after  %x", fp1, fp3)
	}

	if err := o.Write(7, bytes.Repeat([]byte{0xd7}, o.BlockSize())); err != nil {
		t.Fatal(err)
	}
	fp4, err := o.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp4 == fp1 {
		t.Fatal("a write left the fingerprint unchanged")
	}
}

// TestCheckpointStreamsDeterministic: two instances built from one seed
// and driven through one op sequence write byte-identical Save images
// and SaveDelta streams in every scheme — no map iteration order reaches
// the bytes — and Fingerprint is SHA-256 of the Save image.
func TestCheckpointStreamsDeterministic(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBaseline, SchemeIR, SchemeDR, SchemeNS, SchemeAB} {
		t.Run(string(scheme), func(t *testing.T) {
			opt := Options{Scheme: scheme, Levels: 9, Seed: 17, EncryptionKey: key}
			var saves, deltas [2][]byte
			for i := range saves {
				o, err := New(opt)
				if err != nil {
					t.Fatal(err)
				}
				deltaOps(t, o, nil, 5, 300)
				cut := o.CutEpoch()
				deltaOps(t, o, nil, 77, 120)
				var d bytes.Buffer
				if _, err := o.SaveDelta(&d, cut); err != nil {
					t.Fatal(err)
				}
				var img bytes.Buffer
				if err := o.Save(&img); err != nil {
					t.Fatal(err)
				}
				fp, err := o.Fingerprint()
				if err != nil {
					t.Fatal(err)
				}
				if fp != sha256.Sum256(img.Bytes()) {
					t.Fatal("Fingerprint is not SHA-256 of the Save image")
				}
				saves[i], deltas[i] = img.Bytes(), d.Bytes()
			}
			if !bytes.Equal(saves[0], saves[1]) {
				t.Fatalf("same-seed instances wrote different Save images (%d and %d bytes)", len(saves[0]), len(saves[1]))
			}
			if !bytes.Equal(deltas[0], deltas[1]) {
				t.Fatalf("same-seed instances wrote different SaveDelta streams (%d and %d bytes)", len(deltas[0]), len(deltas[1]))
			}
		})
	}
}

// TestSaveImageBitFlipsRejected flips one bit in a sample of bytes of a
// genuine image (every bit of the first frame header, then one bit in
// every 251st byte): Load must reject every one, never return a
// different state.
func TestSaveImageBitFlipsRejected(t *testing.T) {
	opt := Options{Scheme: SchemeAB, Levels: 8, Seed: 3, EncryptionKey: key}
	o, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	deltaOps(t, o, nil, 1, 300)
	var img bytes.Buffer
	if err := o.Save(&img); err != nil {
		t.Fatal(err)
	}
	image := img.Bytes()
	flip := func(at int, bit byte) {
		mut := append([]byte(nil), image...)
		mut[at] ^= bit
		if _, err := Load(opt, bytes.NewReader(mut)); err == nil {
			t.Fatalf("image with bit %#x of byte %d flipped loaded", bit, at)
		}
	}
	for at := 0; at < 9; at++ {
		for bit := 0; bit < 8; bit++ {
			flip(at, 1<<bit)
		}
	}
	for at := 9; at < len(image); at += 251 {
		flip(at, 1<<(at%8))
	}
}

// TestLoadLegacyImageWithoutProtocol is the regression for a gob image
// that lacks its protocol section (what a one-bit flip in a genuine image
// can produce): Load must return an error, not dereference nil.
func TestLoadLegacyImageWithoutProtocol(t *testing.T) {
	opt := Options{Scheme: SchemeAB, Levels: 8, Seed: 3, EncryptionKey: key}
	o, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	// A genuine store section (right shape, right key check), so only the
	// missing protocol section is wrong.
	all := o.mem.CaptureAll()
	img := legacyImage{Memory: &legacyMemory{
		BlockB: o.BlockSize(), Store: all.Data, Versions: all.Versions,
		Written: all.Written, KeyCheck: o.mem.KeyCheck(),
	}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&img); err != nil {
		t.Fatal(err)
	}
	_, err = Load(opt, &buf)
	if err == nil || !strings.Contains(err.Error(), "no protocol state") {
		t.Fatalf("Load of an image without protocol state: %v", err)
	}
}

// TestLoadRejectsDelta: Load takes full images only — a delta stream is
// a window over some base, not a state.
func TestLoadRejectsDelta(t *testing.T) {
	opt := Options{Scheme: SchemeAB, Levels: 8, Seed: 3, EncryptionKey: key}
	o, _ := New(opt)
	var d bytes.Buffer
	if _, err := o.SaveDelta(&d, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(opt, &d); err == nil {
		t.Fatal("delta stream loaded as a full image")
	}
}
