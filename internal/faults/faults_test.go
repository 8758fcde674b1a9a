package faults

import (
	"bytes"
	"errors"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/vfs"
)

// TestScheduleDeterminism replays the same (seed, op sequence) twice and
// demands identical decisions — the property every seed-replay claim in
// the harness rests on.
func TestScheduleDeterminism(t *testing.T) {
	run := func() ([]int, []error, Stats) {
		in := New(Config{Seed: 42, ErrRate: 0.3, TornWrites: true})
		tears := make([]int, 0, 64)
		errs := make([]error, 0, 64)
		for i := 0; i < 64; i++ {
			tear, err := in.mutation("write x", 100)
			tears = append(tears, tear)
			errs = append(errs, err)
		}
		return tears, errs, in.Stats()
	}
	t1, e1, s1 := run()
	t2, e2, s2 := run()
	for i := range t1 {
		if t1[i] != t2[i] || !errors.Is(e2[i], e1[i]) && e1[i] != e2[i] {
			t.Fatalf("decision %d diverged: (%d,%v) vs (%d,%v)", i, t1[i], e1[i], t2[i], e2[i])
		}
	}
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if s1.Errors == 0 {
		t.Fatalf("ErrRate 0.3 over 64 ops injected no errors: %+v", s1)
	}
}

// TestCrashPoint verifies the crash fires exactly at the configured
// mutation, records its site, closes Dead then and not before, and pins
// every later operation dead.
func TestCrashPoint(t *testing.T) {
	in := New(Config{Seed: 1, CrashAfter: 3})
	for i := 1; i <= 2; i++ {
		if _, err := in.mutation("warm", 0); err != nil {
			t.Fatalf("mutation %d failed early: %v", i, err)
		}
	}
	select {
	case <-in.Dead():
		t.Fatal("Dead closed before the fatal mutation")
	default:
	}
	if _, err := in.mutation("write wal-1.log", 0); !errors.Is(err, ErrCrash) {
		t.Fatalf("mutation 3: err = %v, want ErrCrash", err)
	}
	select {
	case <-in.Dead():
	default:
		t.Fatal("Dead still open after the fatal mutation")
	}
	if !in.Crashed() || in.CrashSite() != "write wal-1.log" {
		t.Fatalf("crashed=%v site=%q", in.Crashed(), in.CrashSite())
	}
	// Dead means dead: later ops — each one a further attempt to reach
	// the crash point, which must not close Dead again — fail without
	// advancing the count.
	for i := 0; i < 2; i++ {
		if _, err := in.mutation("after", 0); !errors.Is(err, ErrCrash) {
			t.Fatalf("post-crash mutation: err = %v, want ErrCrash", err)
		}
	}
	if got := in.Stats().Mutations; got != 3 {
		t.Fatalf("mutations counted after death: %d, want 3", got)
	}
}

// TestFSTornWrite checks that a crashing write persists exactly the torn
// prefix through to the real file — the on-disk state recovery sees.
func TestFSTornWrite(t *testing.T) {
	dir := t.TempDir()
	// CrashAfter 2: op 1 is Create, op 2 the Write.
	in := New(Config{Seed: 7, CrashAfter: 2, TornWrites: true})
	ffs := WrapFS(vfs.OS{}, in)

	f, err := ffs.Create(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	payload := bytes.Repeat([]byte{0xab}, 100)
	n, err := f.Write(payload)
	if !errors.Is(err, ErrCrash) {
		t.Fatalf("Write: err = %v, want ErrCrash", err)
	}
	if n < 0 || n >= len(payload) {
		t.Fatalf("torn write persisted %d of %d bytes, want a proper prefix", n, len(payload))
	}
	f.Close()

	r, err := vfs.OS{}.Open(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got, _ := io.ReadAll(r)
	r.Close()
	if len(got) != n || !bytes.Equal(got, payload[:n]) {
		t.Fatalf("on-disk bytes %d, want the %d-byte torn prefix", len(got), n)
	}

	// The crashed FS exposes nothing anymore.
	if _, err := ffs.Open(filepath.Join(dir, "wal.log")); !errors.Is(err, ErrCrash) {
		t.Fatalf("post-crash Open: err = %v, want ErrCrash", err)
	}
	if _, err := ffs.ReadDir(dir); !errors.Is(err, ErrCrash) {
		t.Fatalf("post-crash ReadDir: err = %v, want ErrCrash", err)
	}
}

// TestConnReset drives a pipe through a reset-heavy schedule and checks
// that a reset closes the underlying conn.
func TestConnReset(t *testing.T) {
	client, srv := net.Pipe()
	defer srv.Close()
	in := New(Config{Seed: 3, ResetRate: 1})
	fc := WrapConn(client, in)

	if _, err := fc.Write([]byte("x")); !errors.Is(err, ErrReset) {
		t.Fatalf("Write under ResetRate 1: err = %v, want ErrReset", err)
	}
	// The underlying conn is closed: the peer sees EOF.
	buf := make([]byte, 1)
	srv.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := srv.Read(buf); err == nil {
		t.Fatalf("peer read succeeded after reset, want closed")
	}
	if got := in.Stats().Resets; got != 1 {
		t.Fatalf("resets = %d, want 1", got)
	}
}

// TestConnLatency checks that the latency schedule delays but does not
// corrupt traffic.
func TestConnLatency(t *testing.T) {
	client, srv := net.Pipe()
	defer client.Close()
	defer srv.Close()
	in := New(Config{Seed: 9, LatencyRate: 1, MaxLatency: 5 * time.Millisecond})
	fc := WrapConn(client, in)

	go func() {
		io.Copy(io.Discard, srv)
	}()
	start := time.Now()
	for i := 0; i < 4; i++ {
		if _, err := fc.Write([]byte("ping")); err != nil {
			t.Errorf("Write %d: %v", i, err)
			return
		}
	}
	if in.Stats().Delays == 0 {
		t.Fatalf("LatencyRate 1 injected no delays in %v", time.Since(start))
	}
}

// TestWriterTear checks the bare io.Writer wrapper persists the torn
// prefix of a failing write.
func TestWriterTear(t *testing.T) {
	var buf bytes.Buffer
	in := New(Config{Seed: 5, CrashAfter: 1, TornWrites: true})
	w := &Writer{W: &buf, In: in, Site: "enc"}
	payload := bytes.Repeat([]byte{7}, 64)
	n, err := w.Write(payload)
	if !errors.Is(err, ErrCrash) {
		t.Fatalf("err = %v, want ErrCrash", err)
	}
	if n != buf.Len() || n >= len(payload) {
		t.Fatalf("wrote %d, buffer holds %d, payload %d", n, buf.Len(), len(payload))
	}
}

// TestDropUnsynced models the volatile page cache: buffered writes are
// invisible to durability until a Sync; a crashed Close salvages only a
// seeded prefix; a clean Close flushes everything.
func TestDropUnsynced(t *testing.T) {
	read := func(path string) []byte {
		t.Helper()
		r, err := vfs.OS{}.Open(path)
		if err != nil {
			return nil
		}
		defer r.Close()
		got, _ := io.ReadAll(r)
		return got
	}

	// Clean close: nothing may be lost without a crash.
	dir := t.TempDir()
	in := New(Config{Seed: 9, DropUnsynced: true})
	ffs := WrapFS(vfs.OS{}, in)
	path := filepath.Join(dir, "clean.log")
	f, err := ffs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("aaaa"))
	f.Write([]byte("bbbb"))
	if err := f.Close(); err != nil {
		t.Fatalf("clean Close: %v", err)
	}
	if got := read(path); string(got) != "aaaabbbb" {
		t.Fatalf("clean close lost buffered writes: %q", got)
	}
	if in.Stats().Dropped != 0 {
		t.Fatalf("clean close dropped %d chunks", in.Stats().Dropped)
	}

	// Sync is the durability boundary: synced chunks survive any crash,
	// post-sync chunks survive only as a seeded prefix. Mutation ops:
	// create=1, write=2, sync=3, write x1=4, write x2=5, write x3=6 — the
	// crash fires on x3 (which, with TornWrites off, buffers nothing).
	dir = t.TempDir()
	in = New(Config{Seed: 9, CrashAfter: 6, DropUnsynced: true})
	ffs = WrapFS(vfs.OS{}, in)
	path = filepath.Join(dir, "crash.log")
	f, err = ffs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("SYNCED"))
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	f.Write([]byte("x1"))
	f.Write([]byte("x2"))
	if _, err := f.Write([]byte("x3")); !errors.Is(err, ErrCrash) {
		t.Fatalf("crashing write: err = %v, want ErrCrash", err)
	}
	if err := f.Close(); !errors.Is(err, ErrCrash) {
		t.Fatalf("crashed Close: err = %v, want ErrCrash", err)
	}
	got := read(path)
	if !bytes.HasPrefix(got, []byte("SYNCED")) {
		t.Fatalf("synced prefix lost: %q", got)
	}
	tail := string(got[len("SYNCED"):])
	switch tail {
	case "", "x1", "x1x2":
	default:
		t.Fatalf("crash salvaged a non-prefix of the unsynced chunks: %q", tail)
	}
	if kept, dropped := len(tail)/2, in.Stats().Dropped; kept+dropped != 2 {
		t.Fatalf("kept %d + dropped %d chunks, want the 2 buffered ones", kept, dropped)
	}
}

// TestRemoveErrRate checks the targeted Remove failure: the file stays,
// the error is ErrInjected (not a crash), and the schedule is seeded.
func TestRemoveErrRate(t *testing.T) {
	dir := t.TempDir()
	in := New(Config{Seed: 4, RemoveErrRate: 1})
	ffs := WrapFS(vfs.OS{}, in)
	path := filepath.Join(dir, "stale.ab")
	f, err := ffs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("old"))
	f.Close()

	if err := ffs.Remove(path); !errors.Is(err, ErrInjected) {
		t.Fatalf("Remove: err = %v, want ErrInjected", err)
	}
	if in.Crashed() {
		t.Fatal("an injected remove failure must not be a crash")
	}
	if _, err := (vfs.OS{}).Open(path); err != nil {
		t.Fatalf("file gone despite failed Remove: %v", err)
	}
	if in.Stats().Errors == 0 {
		t.Fatal("remove failure not counted in Stats.Errors")
	}
	// At rate 0 the same op succeeds.
	in2 := New(Config{Seed: 4})
	if err := WrapFS(vfs.OS{}, in2).Remove(path); err != nil {
		t.Fatalf("Remove at rate 0: %v", err)
	}
}

// TestDiskBudget checks the ENOSPC schedule: writes within the budget
// pass, the crossing write persists exactly the fitting prefix and
// fails with ErrNoSpace, and from then on every mutation except removal
// fails the same way (deleting is how a full disk recovers).
func TestDiskBudget(t *testing.T) {
	in := New(Config{Seed: 3, DiskBudget: 250})
	for i := 1; i <= 2; i++ {
		if tear, err := in.mutation("write wal-1", 100); err != nil || tear != -1 {
			t.Fatalf("write %d within budget: tear=%d err=%v", i, tear, err)
		}
	}
	tear, err := in.mutation("write snap-2", 100)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("crossing write: err = %v, want ErrNoSpace", err)
	}
	if tear != 50 {
		t.Fatalf("crossing write persisted %d bytes, want the fitting 50", tear)
	}
	if got := in.NoSpaceSite(); got != "write snap-2" {
		t.Fatalf("NoSpaceSite = %q, want the crossing write's site", got)
	}
	// The disk is full: creates, writes, syncs, renames all refuse.
	for _, site := range []string{"create snap-3", "write snap-3", "sync wal-1", "rename snap.tmp", "syncdir d"} {
		if _, err := in.mutation(site, 10); !errors.Is(err, ErrNoSpace) {
			t.Fatalf("%s on full disk: err = %v, want ErrNoSpace", site, err)
		}
	}
	// Removal still works — pruning may be the only way out.
	for _, site := range []string{"remove wal-0", "removeall gen-000001"} {
		if _, err := in.mutation(site, 0); err != nil {
			t.Fatalf("%s on full disk: err = %v, want nil", site, err)
		}
	}
	st := in.Stats()
	if st.NoSpace != 6 {
		t.Fatalf("NoSpace = %d, want 6", st.NoSpace)
	}
}

// TestFSDiskBudgetShortWrite checks the FS wrapper persists the fitting
// prefix of the crossing write to the real file — the torn on-disk state
// recovery must tolerate.
func TestFSDiskBudgetShortWrite(t *testing.T) {
	dir := t.TempDir()
	in := New(Config{Seed: 9, DiskBudget: 64})
	ffs := WrapFS(vfs.OS{}, in)
	f, err := ffs.Create(filepath.Join(dir, "wal-1.log"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	payload := bytes.Repeat([]byte{0xcd}, 100)
	n, err := f.Write(payload)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Write: err = %v, want ErrNoSpace", err)
	}
	if n != 64 {
		t.Fatalf("short write persisted %d bytes, want 64", n)
	}
	f.Close()
	r, err := vfs.OS{}.Open(filepath.Join(dir, "wal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(r)
	r.Close()
	if !bytes.Equal(got, payload[:64]) {
		t.Fatalf("on-disk bytes %d, want the 64-byte prefix", len(got))
	}
}

// TestConnOneWayPartition exercises the asymmetric-partition mode in
// both directions, standalone: a dropped send direction blackholes
// writes while the other direction flows, and a dropped receive
// direction stalls reads without erroring until it heals.
func TestConnOneWayPartition(t *testing.T) {
	t.Run("drop-send", func(t *testing.T) {
		// net.Pipe is synchronous: an honest write blocks until the peer
		// reads, so a blackholed write returning immediately proves the
		// bytes were dropped rather than delivered.
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		c := WrapConn(a, New(Config{Seed: 1}))
		c.SetPartition(true, false)
		done := make(chan error, 1)
		go func() {
			n, err := c.Write([]byte("lost"))
			if err == nil && n != 4 {
				err = io.ErrShortWrite
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("blackholed write should claim success, got %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("blackholed write blocked: bytes were delivered, not dropped")
		}
		// The other direction still flows: the peer writes, this side reads.
		go b.Write([]byte("ok"))
		buf := make([]byte, 2)
		if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "ok" {
			t.Fatalf("healthy direction broken during send partition: %q, %v", buf, err)
		}
		// Healing restores delivery.
		c.SetPartition(false, false)
		got := make([]byte, 5)
		go io.ReadFull(b, got)
		if _, err := c.Write([]byte("alive")); err != nil {
			t.Fatalf("post-heal write: %v", err)
		}
	})

	t.Run("drop-recv", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		accepted := make(chan net.Conn, 1)
		go func() {
			conn, err := ln.Accept()
			if err == nil {
				accepted <- conn
			}
		}()
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		peer := <-accepted
		defer peer.Close()
		c := WrapConn(raw, New(Config{Seed: 2}))
		defer c.Close()

		c.SetPartition(false, true)
		if _, err := peer.Write([]byte("late")); err != nil {
			t.Fatal(err)
		}
		read := make(chan struct{})
		buf := make([]byte, 4)
		go func() {
			io.ReadFull(c, buf)
			close(read)
		}()
		select {
		case <-read:
			t.Fatal("read returned during receive partition")
		case <-time.After(100 * time.Millisecond):
		}
		// Writes still flow out during the receive partition.
		go io.ReadFull(peer, make([]byte, 3))
		if _, err := c.Write([]byte("out")); err != nil {
			t.Fatalf("healthy direction broken during recv partition: %v", err)
		}
		// Healing delivers the stalled bytes (the retransmit burst).
		c.SetPartition(false, false)
		select {
		case <-read:
			if string(buf) != "late" {
				t.Fatalf("post-heal read got %q", buf)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("read never unblocked after the partition healed")
		}
	})

	t.Run("close-unblocks-stalled-read", func(t *testing.T) {
		a, b := net.Pipe()
		defer b.Close()
		c := WrapConn(a, New(Config{Seed: 3}))
		c.SetPartition(false, true)
		read := make(chan struct{})
		go func() {
			c.Read(make([]byte, 1))
			close(read)
		}()
		time.Sleep(20 * time.Millisecond)
		c.Close()
		select {
		case <-read:
		case <-time.After(2 * time.Second):
			t.Fatal("Close did not unblock a partition-stalled read")
		}
	})
}
