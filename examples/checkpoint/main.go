// Checkpoint: suspend an encrypted oblivious store to a file and resume
// it — e.g. across process restarts of a secure service. The saved image
// never holds the key (only a key-check value, so a wrong key is
// rejected at load), but it does hold the protocol state and the stash's
// plaintext, so it needs the protection the running process has. The
// resumed instance continues with bit-identical protocol behaviour.
//
//	go run ./examples/checkpoint
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"repro/aboram"
)

// run populates an encrypted store, checkpoints it to path, proves a
// wrong key is refused, resumes with the right key, and verifies every
// record survived. Sizes are parameters so the smoke test stays fast.
func run(w io.Writer, path string, levels int, records, accesses int64) error {
	key := []byte("0123456789abcdef")
	opt := aboram.Options{Scheme: aboram.SchemeAB, Levels: levels, Seed: 21, EncryptionKey: key}

	// Phase 1: a service populates its protected store...
	o, err := aboram.New(opt)
	if err != nil {
		return err
	}
	record := func(i int64) []byte {
		d := make([]byte, o.BlockSize())
		copy(d, fmt.Sprintf("session-token-%04d", i))
		return d
	}
	// i*37 mod NumBlocks hits distinct slots while NumBlocks (a multiple
	// of a power of two coprime to 37) exceeds the record count.
	if records > o.NumBlocks() {
		return fmt.Errorf("%d records exceed %d blocks", records, o.NumBlocks())
	}
	for i := int64(0); i < records; i++ {
		if err := o.Write(i*37%o.NumBlocks(), record(i)); err != nil {
			return err
		}
	}
	for i := int64(0); i < accesses; i++ { // ...and serves traffic
		if err := o.Access((i * 2654435761) % o.NumBlocks()); err != nil {
			return err
		}
	}

	// ...then suspends to disk.
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.Save(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "checkpoint written: %s (%.1f MiB, no key material)\n", path, float64(info.Size())/(1<<20))

	// Phase 2: a new process resumes. The wrong key is refused...
	bad := opt
	bad.EncryptionKey = []byte("xxxxxxxxxxxxxxxx")
	rf, err := os.Open(path)
	if err != nil {
		return err
	}
	if _, err := aboram.Load(bad, rf); err != nil {
		fmt.Fprintln(w, "wrong key rejected:", err)
	} else {
		rf.Close()
		return fmt.Errorf("wrong key accepted?!")
	}
	rf.Close()

	// ...the right key resumes seamlessly.
	rf, err = os.Open(path)
	if err != nil {
		return err
	}
	defer rf.Close()
	resumed, err := aboram.Load(opt, rf)
	if err != nil {
		return err
	}
	ok := int64(0)
	for i := int64(0); i < records; i++ {
		got, err := resumed.Read(i * 37 % resumed.NumBlocks())
		if err != nil {
			return err
		}
		if bytes.Equal(got, record(i)) {
			ok++
		}
	}
	if ok != records {
		return fmt.Errorf("only %d/%d records intact after resume", ok, records)
	}
	if err := resumed.CheckIntegrity(); err != nil {
		return err
	}
	st := resumed.Stats()
	fmt.Fprintf(w, "resumed: %d/%d records intact, %d lifetime accesses carried over, integrity OK\n",
		ok, records, st.Accesses)
	return nil
}

func main() {
	path := filepath.Join(os.TempDir(), "aboram.ckpt")
	err := run(os.Stdout, path, 12, 50, 3000)
	os.Remove(path)
	if err != nil {
		log.Fatal(err)
	}
}
