package durable

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/vfs"
)

// TestIDRecoveryFromWAL checks the crash-durable dedup path with no
// snapshot involved: identified writes land in the WAL, and a reopen
// rebuilds the recent-id ring from replay alone.
func TestIDRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(testOptions(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := []uint64{101, 102, 103, 104}
	for i, id := range want {
		if err := commit(e, id, int64(i), payload(e.BlockSize(), byte(i))); err != nil {
			t.Fatalf("WriteIdentified %d: %v", id, err)
		}
	}
	// Unidentified writes must not pollute the ring.
	if err := commit(e, 0, 9, payload(e.BlockSize(), 0x9)); err != nil {
		t.Fatal(err)
	}
	// No Close: the crash shape.

	r, err := Open(testOptions(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if got := r.Recovery().IDsRecovered; got != len(want) {
		t.Fatalf("IDsRecovered = %d, want %d", got, len(want))
	}
	got := r.RecentWriteIDs()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("RecentWriteIDs = %v, want %v (oldest first)", got, want)
	}
}

// TestIDRecoveryFromSnapshotHeader forces rotations so the WAL records
// carrying the oldest ids are pruned: those ids must come back from the
// snapshot metadata header instead.
func TestIDRecoveryFromSnapshotHeader(t *testing.T) {
	dir := t.TempDir()
	opt := testOptions(dir)
	opt.SnapshotEvery = 4
	e, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var want []uint64
	for i := 0; i < 9; i++ { // two rotations at every-4, one trailing record
		id := uint64(0x500 + i)
		want = append(want, id)
		if err := commit(e, id, int64(i), payload(e.BlockSize(), byte(i))); err != nil {
			t.Fatalf("WriteIdentified %d: %v", id, err)
		}
	}
	e.Close()

	r, err := Open(opt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if rec := r.Recovery(); rec.RecordsReplayed != 1 || rec.IDsRecovered != len(want) {
		t.Fatalf("recovery = %+v, want 1 replayed record and %d ids (snapshot carries the rest)", rec, len(want))
	}
	if got := r.RecentWriteIDs(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("RecentWriteIDs = %v, want %v", got, want)
	}
}

// TestIDRingCapacity checks DedupTrack bounds the ring FIFO: only the
// newest ids survive, oldest first.
func TestIDRingCapacity(t *testing.T) {
	dir := t.TempDir()
	opt := testOptions(dir)
	opt.DedupTrack = 3
	e, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer e.Close()
	for id := uint64(1); id <= 7; id++ {
		if err := commit(e, id, int64(id%4), payload(e.BlockSize(), byte(id))); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.RecentWriteIDs(); fmt.Sprint(got) != fmt.Sprint([]uint64{5, 6, 7}) {
		t.Fatalf("RecentWriteIDs = %v, want the newest 3 oldest-first", got)
	}
}

// TestSnapMetaRoundTrip pins the snapshot header codec: a round trip,
// and an error for a file without the header, a corrupt header, and a
// truncated one.
func TestSnapMetaRoundTrip(t *testing.T) {
	ids := []uint64{1, 2, 1 << 60}
	buf := appendMeta(nil, snapMagic, 42, ids)
	rest := []byte("snapshot image bytes")
	br := bufio.NewReader(bytes.NewReader(append(append([]byte(nil), buf...), rest...)))
	got, term, err := readMeta(br, snapMagic)
	if err != nil {
		t.Fatalf("readMeta: %v", err)
	}
	if fmt.Sprint(got) != fmt.Sprint(ids) {
		t.Fatalf("ids = %v, want %v", got, ids)
	}
	if term != 42 {
		t.Fatalf("term = %d, want 42", term)
	}
	if tail, _ := br.Peek(len(rest)); string(tail) != string(rest) {
		t.Fatalf("header read consumed into the image: %q", tail)
	}

	// Headerless file: unreadable, not a legacy snapshot.
	if _, _, err := readMeta(bufio.NewReader(bytes.NewReader(rest)), snapMagic); err == nil {
		t.Fatal("headerless snapshot accepted")
	}
	// A delta header is not a snapshot header.
	if _, _, err := readMeta(bufio.NewReader(bytes.NewReader(buf)), deltaMagic); err == nil {
		t.Fatal("snapshot header accepted as a delta header")
	}

	// Flip a bit inside an id: the CRC must catch it.
	bad := append([]byte(nil), buf...)
	bad[len(snapMagic)+12+3] ^= 0x40
	if _, _, err := readMeta(bufio.NewReader(bytes.NewReader(bad)), snapMagic); err == nil {
		t.Fatal("corrupt header accepted")
	}
	// Truncated header: error.
	if _, _, err := readMeta(bufio.NewReader(bytes.NewReader(buf[:10])), snapMagic); err == nil {
		t.Fatal("truncated header accepted")
	}
}

// TestLegacySnapshotLoads: a snapshot file without the metadata header
// (the format before ids were persisted) is unreadable. Publishing it
// pruned the WAL segment holding its writes, so Open refuses and
// changes nothing.
func TestLegacySnapshotLoads(t *testing.T) {
	dir := t.TempDir()
	opt := testOptions(dir)
	opt.SnapshotEvery = 3
	e, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ { // exactly one rotation, empty WAL after
		if err := commit(e, uint64(20+i), int64(i), payload(e.BlockSize(), byte(0x70+i))); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()

	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.ab"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots %v (err %v), want one", snaps, err)
	}
	raw, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	// Strip the metadata header, leaving the bare image — the old format.
	hdr := len(appendMeta(nil, snapMagic, 0, []uint64{20, 21, 22}))
	if err := os.WriteFile(snaps[0], raw[hdr:], 0o644); err != nil {
		t.Fatal(err)
	}
	mustRefuse(t, opt, 2)
}

// TestGroupCommitBatchSync pins the one protocol and its fsync
// accounting. With Options left at their defaults (only the safety net
// parked), writes past SnapshotEvery neither fsync nor rotate; BatchSync
// issues exactly one fsync per dirty batch and none when clean; and the
// rotation the writes made due waits for MaybeCheckpoint.
func TestGroupCommitBatchSync(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, ORAM: testOptions(dir).ORAM, MaxSyncDelay: time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer e.Close()
	if !e.GroupCommit() {
		t.Fatal("GroupCommit() = false; BatchSync is the only acknowledgment point")
	}

	rotations := func(st Stats) uint64 { return st.Snapshots + st.DeltasWritten }
	n := e.opt.SnapshotEvery + 1
	for i := 0; i < n; i++ {
		blk := int64(i) % e.NumBlocks()
		if err := e.WriteIdentified(uint64(i+1), blk, payload(e.BlockSize(), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Syncs != 0 || rotations(st) != 0 {
		t.Fatalf("%d writes past SnapshotEvery: %d syncs, %d rotations; want 0 and 0 before the batch boundary",
			n, st.Syncs, rotations(st))
	}
	if err := e.BatchSync(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Syncs != 1 || st.BatchedSyncs != 1 || rotations(st) != 0 {
		t.Fatalf("after BatchSync: %+v, want 1 batched sync and no rotation", st)
	}
	// A clean BatchSync is free.
	if err := e.BatchSync(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Syncs != 1 || st.BatchedSyncs != 1 {
		t.Fatalf("clean BatchSync issued an fsync: %+v", st)
	}
	// The due rotation runs at the boundary, on an already-synced segment.
	if err := e.MaybeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Syncs != 1 || rotations(st) != 1 {
		t.Fatalf("after MaybeCheckpoint: %+v, want exactly the one due rotation and no extra sync", st)
	}
}

// TestGroupCommitMaxSyncDelay checks the safety net: with the delay
// bound at zero-ish, the write path syncs on its own even if BatchSync
// never runs, so an unsynced record cannot sit indefinitely.
func TestGroupCommitMaxSyncDelay(t *testing.T) {
	dir := t.TempDir()
	opt := testOptions(dir)
	opt.MaxSyncDelay = time.Nanosecond
	e, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer e.Close()
	for i := 0; i < 4; i++ {
		if err := e.WriteIdentified(uint64(i+1), int64(i), payload(e.BlockSize(), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats(); got.Syncs == 0 || got.BatchedSyncs != 0 {
		t.Fatalf("safety net never fired: %+v", got)
	}
}

// TestPruneFailuresCounted injects Remove failures and checks rotation
// counts them in Stats, keeps serving, and logs the condition exactly
// once rather than per occurrence.
func TestPruneFailuresCounted(t *testing.T) {
	dir := t.TempDir()
	opt := testOptions(dir)
	opt.SnapshotEvery = 2
	in := faults.New(faults.Config{Seed: 5, RemoveErrRate: 1})
	opt.FS = faults.WrapFS(vfs.OS{}, in)
	var logged []string
	opt.Logf = func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	e, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 8; i++ { // several rotations, each failing its prunes
		if err := commit(e, 0, int64(i), payload(e.BlockSize(), byte(i))); err != nil {
			t.Fatalf("Write %d under failing prunes: %v", i, err)
		}
	}
	st := e.Stats()
	if st.Snapshots < 3 {
		t.Fatalf("snapshots = %d, want rotations to continue despite prune failures", st.Snapshots)
	}
	if st.PruneFailures == 0 {
		t.Fatal("PruneFailures = 0 with Remove always failing")
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "pruning stale") {
		t.Fatalf("logged %q, want exactly one prune warning", logged)
	}
	e.Close()

	// The stale generations are garbage, not corruption: recovery still
	// picks the newest snapshot and loses nothing.
	r, err := Open(testOptions(dir))
	if err != nil {
		t.Fatalf("reopen amid stale generations: %v", err)
	}
	defer r.Close()
	for i := 0; i < 8; i++ {
		got, err := r.Read(int64(i))
		if err != nil || string(got) != string(payload(r.BlockSize(), byte(i))) {
			t.Fatalf("block %d wrong after recovery with stale files (err %v)", i, err)
		}
	}
}
