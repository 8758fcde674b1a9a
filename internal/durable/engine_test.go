package durable

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/aboram"
	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/server/wire"
	"repro/internal/vfs"
)

var testKey = []byte("0123456789abcdef")

// testOptions is a small, fast engine configuration at the full-image
// cadence: every rotation writes a base, so each epoch is one snap file.
// Publishes are synchronous so tests see the directory settle
// deterministically.
func testOptions(dir string) Options {
	return Options{
		Dir:         dir,
		ORAM:        aboram.Options{Levels: 8, Seed: 7, EncryptionKey: testKey},
		BaseEvery:   1,
		SyncPublish: true,
	}
}

// commit drives one identified write the way the scheduler drives a
// batch of one: apply and append, BatchSync (the acknowledgment point),
// then MaybeCheckpoint for any rotation or compaction it made due.
func commit(e *Engine, id uint64, block int64, data []byte) error {
	if err := e.WriteIdentified(id, block, data); err != nil {
		return err
	}
	if err := e.BatchSync(); err != nil {
		return err
	}
	return e.MaybeCheckpoint()
}

// payload builds a distinguishable block content.
func payload(size int, tag byte) []byte {
	d := make([]byte, size)
	for i := range d {
		d[i] = tag ^ byte(i*7)
	}
	return d
}

// TestRecoverReplaysAcknowledgedWrites writes through the engine, drops
// it without Close (the crash shape), reopens, and demands every
// acknowledged write back.
func TestRecoverReplaysAcknowledgedWrites(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(testOptions(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		if err := commit(e, 0, int64(i), payload(e.BlockSize(), byte(i))); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	// No Close: BatchSync already made every acknowledged write durable.

	r, err := Open(testOptions(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	rec := r.Recovery()
	if rec.BaseEpoch == 0 || rec.RecordsReplayed != n {
		t.Fatalf("recovery = %+v, want base epoch > 0 and %d records", rec, n)
	}
	for i := 0; i < n; i++ {
		got, err := r.Read(int64(i))
		if err != nil {
			t.Fatalf("Read %d after recovery: %v", i, err)
		}
		want := payload(r.BlockSize(), byte(i))
		if string(got) != string(want) {
			t.Fatalf("block %d diverged after recovery", i)
		}
	}
}

// TestRotationPrunesOldEpochs checks snapshot cadence, directory
// hygiene, and that recovery replays only the post-snapshot suffix.
func TestRotationPrunesOldEpochs(t *testing.T) {
	dir := t.TempDir()
	opt := testOptions(dir)
	opt.SnapshotEvery = 4
	e, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := commit(e, 0, int64(i), payload(e.BlockSize(), byte(i))); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	if got := e.Stats().Snapshots; got != 2 {
		t.Fatalf("snapshots = %d, want 2 (10 writes / every 4)", got)
	}
	names, err := vfs.OS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("directory holds %v, want exactly one snap + one wal", names)
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "snap-") && !strings.HasPrefix(name, "wal-") {
			t.Fatalf("unexpected file %q", name)
		}
	}
	e.Close()

	r, err := Open(opt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if got := r.Recovery().RecordsReplayed; got != 2 {
		t.Fatalf("replayed %d records, want the 2 after the last snapshot", got)
	}
}

// TestTornTailDiscarded appends garbage to the live WAL segment and
// checks recovery truncates it while keeping every acknowledged write.
func TestTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(testOptions(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := commit(e, 0, int64(i), payload(e.BlockSize(), byte(i+1))); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	e.Close()

	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("wal segments %v (err %v), want exactly one", wals, err)
	}
	f, err := os.OpenFile(wals[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Half a record header then junk: the shape a mid-append crash leaves.
	if _, err := f.Write([]byte{0, 0, 0, 42, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Open(testOptions(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	rec := r.Recovery()
	if !rec.TornTail || rec.RecordsReplayed != 5 {
		t.Fatalf("recovery = %+v, want torn tail and 5 intact records", rec)
	}
	for i := 0; i < 5; i++ {
		got, err := r.Read(int64(i))
		if err != nil || string(got) != string(payload(r.BlockSize(), byte(i+1))) {
			t.Fatalf("block %d wrong after torn-tail recovery (err %v)", i, err)
		}
	}
}

// noRemoveFS keeps every old generation on disk, simulating a crash (or
// slow cleaner) between publishing an epoch and pruning the previous one.
type noRemoveFS struct{ vfs.FS }

func (noRemoveFS) Remove(string) error { return errors.New("remove disabled") }

// TestCorruptSnapshotFallsBackOneEpoch damages the newest snapshot and
// checks recovery restores from the previous generation plus full WAL
// replay, with zero acknowledged-write loss.
func TestCorruptSnapshotFallsBackOneEpoch(t *testing.T) {
	dir := t.TempDir()
	opt := testOptions(dir)
	opt.SnapshotEvery = 3
	opt.FS = noRemoveFS{vfs.OS{}}
	e, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 8 // crosses two rotations at SnapshotEvery=3
	for i := 0; i < n; i++ {
		if err := commit(e, 0, int64(i), payload(e.BlockSize(), byte(0x40+i))); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	e.Close()

	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.ab"))
	if err != nil || len(snaps) < 2 {
		t.Fatalf("snapshots %v (err %v), want at least two generations", snaps, err)
	}
	newest := snaps[len(snaps)-1]
	if err := os.WriteFile(newest, []byte("rot"), 0o644); err != nil {
		t.Fatal(err)
	}

	ropt := testOptions(dir) // plain OS fs for recovery
	r, err := Open(ropt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if got := r.Recovery().SnapshotsSkipped; got < 1 {
		t.Fatalf("SnapshotsSkipped = %d, want >= 1", got)
	}
	for i := 0; i < n; i++ {
		got, err := r.Read(int64(i))
		if err != nil || string(got) != string(payload(r.BlockSize(), byte(0x40+i))) {
			t.Fatalf("block %d lost after snapshot fallback (err %v)", i, err)
		}
	}
}

// dirDigest maps every file in dir to the sha256 of its bytes.
func dirDigest(t *testing.T, dir string) map[string][32]byte {
	t.Helper()
	names, err := vfs.OS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][32]byte{}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = sha256.Sum256(data)
	}
	return out
}

// mustRefuse opens opt.Dir, demands the fail-closed outcome — an error
// naming the directory and the epoch of the unusable checkpoint, and no
// file added, removed or changed — and returns the error.
func mustRefuse(t *testing.T, opt Options, epoch uint64) error {
	t.Helper()
	before := dirDigest(t, opt.Dir)
	e, err := Open(opt)
	if err == nil {
		e.Close()
		t.Fatalf("Open recovered; want a refusal (recovery %+v)", e.Recovery())
	}
	if msg := err.Error(); !strings.Contains(msg, opt.Dir) || !strings.Contains(msg, fmt.Sprintf("epoch %d ", epoch)) {
		t.Fatalf("refusal %q does not name the directory and epoch %d", msg, epoch)
	}
	if after := dirDigest(t, opt.Dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("a refused Open changed the directory: before %v, after %v", before, after)
	}
	return err
}

// TestUnreadableOnlyBaseFailsClosed damages the only base of a directory
// whose earlier WAL segments were pruned when it published: six of the
// eight acknowledged writes exist nowhere else, so Open must refuse
// instead of recovering an empty tree (and then pruning the evidence).
func TestUnreadableOnlyBaseFailsClosed(t *testing.T) {
	dir := t.TempDir()
	opt := testOptions(dir)
	opt.SnapshotEvery = 3
	e, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 8; i++ {
		if err := commit(e, 0, int64(i), payload(e.BlockSize(), byte(0x40+i))); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	e.Close()
	if err := os.WriteFile(filepath.Join(dir, snapName(3)), []byte("rot"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustRefuse(t, opt, 3)
}

// TestUnreadableNewestDeltaFailsClosed damages the newest delta of a
// chain whose WAL segments were pruned as the chain grew: the writes it
// captured are on no other file, so Open must refuse.
func TestUnreadableNewestDeltaFailsClosed(t *testing.T) {
	dir := t.TempDir()
	opt := deltaOptions(dir)
	e, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 7; i++ { // base + a 3-delta chain at every-2, BaseEvery=4
		if err := commit(e, 0, int64(i), payload(e.BlockSize(), byte(0x20+i))); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	e.Close()
	if err := os.WriteFile(filepath.Join(dir, deltaName(4)), []byte("rot"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustRefuse(t, opt, 4)
}

// TestOrphanFirstWALOpens: a first Open killed before its base published
// leaves wal-1 and no checkpoint. That directory holds nothing a
// checkpoint captured, so it opens and replays the segment.
func TestOrphanFirstWALOpens(t *testing.T) {
	dir := t.TempDir()
	opt := testOptions(dir)
	o, err := aboram.New(opt.ORAM)
	if err != nil {
		t.Fatal(err)
	}
	data := payload(o.BlockSize(), 0x33)
	rec, err := AppendRecord(nil, wire.Request{Op: wire.OpWrite, ID: 9, Block: 5, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName(1)), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := Open(opt)
	if err != nil {
		t.Fatalf("Open over an orphan wal-1: %v", err)
	}
	defer e.Close()
	if r := e.Recovery(); r.BaseEpoch != 0 || r.RecordsReplayed != 1 {
		t.Fatalf("recovery = %+v, want no base and 1 replayed record", r)
	}
	if got, err := e.Read(5); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("orphan wal-1 write lost (err %v)", err)
	}
}

// TestVersionlessDirectoryFailsClosed: a directory whose checkpoints
// were written before the stream header carried a format version is
// refused with aboram.ErrFormatTooOld, and left unchanged.
func TestVersionlessDirectoryFailsClosed(t *testing.T) {
	dir := t.TempDir()
	opt := testOptions(dir)
	opt.SnapshotEvery = 3
	e, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := commit(e, 0, int64(i), payload(e.BlockSize(), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	path := filepath.Join(dir, snapName(2))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, stripStreamVersion(t, raw), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mustRefuse(t, opt, 2); !errors.Is(err, aboram.ErrFormatTooOld) {
		t.Fatalf("refusal %v does not wrap aboram.ErrFormatTooOld", err)
	}
}

// stripStreamVersion rewrites a snapshot file's stream header record
// without its format version, as every release before the version
// existed wrote it: the header is re-encoded from a struct that lacks
// the field and re-framed with its length and CRC-32C.
func stripStreamVersion(t *testing.T, file []byte) []byte {
	t.Helper()
	ids, _, err := readMeta(bufio.NewReader(bytes.NewReader(file)), snapMagic)
	if err != nil {
		t.Fatal(err)
	}
	meta := file[:len(appendMeta(nil, snapMagic, 0, ids))]
	stream := file[len(meta):]
	n := binary.BigEndian.Uint32(stream)
	body := stream[8 : 8+n]
	if body[0] != 'H' {
		t.Fatalf("stream opens with record %q, want the header", body[0])
	}
	var hdr struct {
		Levels              int
		Since, Cut          uint64
		Encrypted, HasDeadQ bool
		Full                bool
		KeyCheck            [32]byte
	}
	if err := gob.NewDecoder(bytes.NewReader(body[1:])).Decode(&hdr); err != nil {
		t.Fatal(err)
	}
	var nb bytes.Buffer
	nb.WriteByte('H')
	if err := gob.NewEncoder(&nb).Encode(&hdr); err != nil {
		t.Fatal(err)
	}
	out, err := frame.Append(append([]byte(nil), meta...), func(b []byte) ([]byte, error) { return append(b, nb.Bytes()...), nil })
	if err != nil {
		t.Fatal(err)
	}
	return append(out, stream[8+n:]...)
}

// TestFailStop checks the engine poisons itself on the first durability
// error and refuses everything afterwards with the original cause.
func TestFailStop(t *testing.T) {
	dir := t.TempDir()
	opt := testOptions(dir)
	in := faults.New(faults.Config{Seed: 11, CrashAfter: 40, TornWrites: true})
	opt.FS = faults.WrapFS(vfs.OS{}, in)
	e, err := Open(opt)
	if err != nil {
		t.Fatalf("Open survived %d mutations budget: %v", 40, err)
	}
	var failAt = -1
	for i := 0; i < 100; i++ {
		if err := commit(e, 0, int64(i%4), payload(e.BlockSize(), byte(i))); err != nil {
			failAt = i
			if !errors.Is(err, faults.ErrCrash) {
				t.Fatalf("write %d failed with %v, want ErrCrash", i, err)
			}
			break
		}
	}
	if failAt < 0 {
		t.Fatal("crash point never fired")
	}
	if err := e.Write(0, payload(e.BlockSize(), 1)); !errors.Is(err, faults.ErrCrash) {
		t.Fatalf("post-failure Write: %v, want ErrCrash", err)
	}
	if _, err := e.Read(0); !errors.Is(err, faults.ErrCrash) {
		t.Fatalf("post-failure Read: %v, want ErrCrash", err)
	}
	if err := e.Access(0); !errors.Is(err, faults.ErrCrash) {
		t.Fatalf("post-failure Access: %v, want ErrCrash", err)
	}
}

// TestAccessAndReadNotLogged checks only writes reach the WAL.
func TestAccessAndReadNotLogged(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(testOptions(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := commit(e, 0, 1, payload(e.BlockSize(), 0xaa)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := e.Access(int64(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Read(1); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	r, err := Open(testOptions(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if got := r.Recovery().RecordsReplayed; got != 1 {
		t.Fatalf("replayed %d records, want only the single write", got)
	}
}
