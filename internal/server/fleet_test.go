package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/aboram"
	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/server/wire"
	"repro/internal/vfs"
)

const fleetSeed = 7

// fleetConfig is the tests' fleet description: durable under dir on fs,
// in-memory when dir is empty.
func fleetConfig(dir string, fs vfs.FS) FleetConfig {
	return FleetConfig{Engine: durable.Options{
		Dir:           dir,
		ORAM:          aboram.Options{Levels: 8, Seed: fleetSeed, EncryptionKey: testKey},
		SnapshotEvery: 8,
		FS:            fs,
	}}
}

func openFleet(t *testing.T, cfg FleetConfig, shards int) *Fleet {
	t.Helper()
	f, err := OpenFleet(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// fleetTerms reads every serving shard's own fencing term.
func fleetTerms(f *Fleet) []uint64 {
	var out []uint64
	for _, e := range f.Engines() {
		out = append(out, e.(*durable.Engine).Term())
	}
	return out
}

// refFingerprint is a standalone engine's state fingerprint: the tree a
// given seed builds with no fleet involved.
func refFingerprint(t *testing.T, seed uint64, ops func(Engine)) [32]byte {
	t.Helper()
	opt := fleetConfig(t.TempDir(), nil).Engine
	opt.ORAM.Seed = seed
	e, err := durable.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if ops != nil {
		ops(e)
	}
	fp, err := e.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// commitWrite writes through a durable engine the way the scheduler
// drives a batch of one: Write, BatchSync (the acknowledgment point),
// then MaybeCheckpoint.
func commitWrite(t *testing.T, e Engine, block int64, data []byte) {
	t.Helper()
	d := e.(*durable.Engine)
	if err := d.Write(block, data); err != nil {
		t.Fatal(err)
	}
	if err := d.BatchSync(); err != nil {
		t.Fatal(err)
	}
	if err := d.MaybeCheckpoint(); err != nil {
		t.Fatal(err)
	}
}

func fingerprint(t *testing.T, e Engine) [32]byte {
	t.Helper()
	fp, err := e.(*durable.Engine).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestFleetSeedDirLaw pins the seed / directory / stagger law: generation
// 0 shard 0 of a width-1 fleet is the base seed in the bare directory —
// the P=1 identity the shard audit relies on — wider fleets and later
// generations derive per-shard seeds and subdirectories, and checkpoint
// schedules are phase-staggered across a fleet.
func TestFleetSeedDirLaw(t *testing.T) {
	writes := func(e Engine) {
		for b := int64(0); b < 5; b++ {
			commitWrite(t, e, b, bytes.Repeat([]byte{byte(b + 1)}, e.BlockSize()))
		}
	}
	dir := t.TempDir()
	f1 := openFleet(t, fleetConfig(dir, nil), 1)
	writes(f1.Engines()[0])
	if got, want := fingerprint(t, f1.Engines()[0]), refFingerprint(t, fleetSeed, writes); got != want {
		t.Fatal("width-1 fleet diverges from the unsharded engine under the base seed")
	}
	names, err := vfs.OS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if all := strings.Join(names, " "); !strings.Contains(all, "wal-") || strings.Contains(all, "shard-") {
		t.Fatalf("width-1 generation 0 must live in the bare data dir, found %v", names)
	}

	dir = t.TempDir()
	f3 := openFleet(t, fleetConfig(dir, nil), 3)
	for i, e := range f3.Engines() {
		if fingerprint(t, e) != refFingerprint(t, ShardSeed(fleetSeed, i), nil) {
			t.Fatalf("shard %d is not the tree ShardSeed(base, %d) builds", i, i)
		}
		if names, err := (vfs.OS{}).ReadDir(durable.ShardDir(dir, 0, i, 3)); err != nil || len(names) == 0 {
			t.Fatalf("shard %d directory: %v %v", i, names, err)
		}
	}
	target, err := f3.OpenTarget(2)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range target {
		if fingerprint(t, e) != refFingerprint(t, ShardSeed(GenSeed(fleetSeed, 1), i), nil) {
			t.Fatalf("target shard %d is not the tree of generation 1's seed", i)
		}
		if names, err := (vfs.OS{}).ReadDir(durable.ShardDir(dir, 1, i, 2)); err != nil || len(names) == 0 {
			t.Fatalf("target shard %d directory: %v %v", i, names, err)
		}
	}
	// Every engine is labelled with its place in the fleet.
	var labels []string
	for _, s := range f3.Stats() {
		l := "serving"
		if s.Target {
			l = "target"
		}
		labels = append(labels, fmt.Sprintf("%s%d%d", l, s.Gen, s.Shard))
	}
	if got := strings.Join(labels, " "); got != "serving00 serving01 serving02 target10 target11" {
		t.Fatalf("stats labels %q", got)
	}

	// Stagger: with SnapshotEvery 8 over 2 shards, shard 1 rotates 4
	// writes early; shard 0 has not rotated yet.
	f2 := openFleet(t, fleetConfig(t.TempDir(), nil), 2)
	before := f2.Stats()
	for _, e := range f2.Engines() {
		for b := int64(0); b < 4; b++ {
			commitWrite(t, e, b, make([]byte, e.BlockSize()))
		}
	}
	after := f2.Stats()
	if after[0].Epoch != before[0].Epoch || after[1].Epoch != before[1].Epoch+1 {
		t.Fatalf("epochs %d,%d -> %d,%d: want only shard 1 rotated after half a period",
			before[0].Epoch, before[1].Epoch, after[0].Epoch, after[1].Epoch)
	}
}

// countFS counts file handles opened through it and not yet closed.
type countFS struct {
	vfs.FS
	open *atomic.Int64
}

type countFile struct {
	vfs.File
	open *atomic.Int64
	once sync.Once
}

func (c countFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	c.open.Add(1)
	return &countFile{File: f, open: c.open}, nil
}
func (c countFS) Create(name string) (vfs.File, error) { return c.wrap(c.FS.Create(name)) }
func (c countFS) Open(name string) (vfs.File, error)   { return c.wrap(c.FS.Open(name)) }
func (f *countFile) Close() error {
	f.once.Do(func() { f.open.Add(-1) })
	return f.File.Close()
}

// TestFleetOpenFailureClosesPrefix kills the filesystem inside shard 2's
// open and checks shards 0 and 1, already open, were closed again: no
// file handle survives the failed OpenFleet.
func TestFleetOpenFailureClosesPrefix(t *testing.T) {
	// A healthy dry run prices one shard's open in filesystem mutations.
	dry := faults.New(faults.Config{Seed: 1})
	f := openFleet(t, fleetConfig(t.TempDir(), faults.WrapFS(vfs.OS{}, dry)), 3)
	perShard := dry.Stats().Mutations / 3
	f.Close()

	in := faults.New(faults.Config{Seed: 1, CrashAfter: 2*perShard + perShard/2})
	var open atomic.Int64
	_, err := OpenFleet(fleetConfig(t.TempDir(), countFS{faults.WrapFS(vfs.OS{}, in), &open}), 3)
	if err == nil || !in.Crashed() {
		t.Fatalf("OpenFleet = %v with crashed=%v, want the injected kill", err, in.Crashed())
	}
	if !strings.Contains(err.Error(), "gen 0 shard 2") {
		t.Fatalf("error %q does not name the failing shard", err)
	}
	if n := open.Load(); n != 0 {
		t.Fatalf("%d file handles left open after the failed OpenFleet", n)
	}
}

// TestFleetPromote checks the fencing-term law: Promote writes max+1 to
// every shard, the term survives a reopen, and a retry after a failure
// part way through the shards converges on one common higher term.
func TestFleetPromote(t *testing.T) {
	dir := t.TempDir()
	dry := faults.New(faults.Config{Seed: 1})
	f := openFleet(t, fleetConfig(dir, faults.WrapFS(vfs.OS{}, dry)), 3)
	opened := dry.Stats().Mutations
	term, err := f.Promote()
	if err != nil || term != 1 {
		t.Fatalf("first Promote = %d, %v; want term 1", term, err)
	}
	perShard := (dry.Stats().Mutations - opened) / 3
	if got := fleetTerms(f); got[0] != 1 || got[1] != 1 || got[2] != 1 || f.Term() != 1 {
		t.Fatalf("terms %v (fleet %d) after Promote, want all 1", got, f.Term())
	}
	f.Close()
	f = openFleet(t, fleetConfig(dir, nil), 3)
	if got := fleetTerms(f); got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("terms %v after reopen, want all 1", got)
	}
	if term, err = f.Promote(); err != nil || term != 2 {
		t.Fatalf("second Promote = %d, %v; want term 2", term, err)
	}
	f.Close()

	// Same sequence in a fresh directory, but the filesystem dies while
	// shard 1's term record is being written.
	dir = t.TempDir()
	in := faults.New(faults.Config{Seed: 1, CrashAfter: opened + perShard + 1})
	f = openFleet(t, fleetConfig(dir, faults.WrapFS(vfs.OS{}, in)), 3)
	if _, err := f.Promote(); err == nil || !in.Crashed() {
		t.Fatalf("Promote = %v with crashed=%v, want the injected kill", err, in.Crashed())
	}
	f.Close()
	f = openFleet(t, fleetConfig(dir, nil), 3)
	if got := fleetTerms(f); got[0] != 1 || got[2] != 0 {
		t.Fatalf("terms %v after the torn promotion, want shard 0 fenced and shard 2 not", got)
	}
	if term, err = f.Promote(); err != nil || term != 2 {
		t.Fatalf("retried Promote = %d, %v; want term 2 (max+1)", term, err)
	}
	f.Close()
	f = openFleet(t, fleetConfig(dir, nil), 3)
	if got := fleetTerms(f); got[0] != 2 || got[1] != 2 || got[2] != 2 {
		t.Fatalf("terms %v after the retry, want all 2", got)
	}
}

// fleetFill writes a recognizable value into the first n blocks.
func fleetFill(t *testing.T, srv *Sharded, n int64) {
	t.Helper()
	for b := int64(0); b < n; b++ {
		if err := srv.Write(context.Background(), b, bytes.Repeat([]byte{byte(b*3 + 1)}, srv.BlockSize())); err != nil {
			t.Fatalf("write %d: %v", b, err)
		}
	}
}

func fleetVerify(t *testing.T, srv *Sharded, n int64) {
	t.Helper()
	for b := int64(0); b < n; b++ {
		got, err := srv.Read(context.Background(), b)
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(b*3 + 1)}, srv.BlockSize())) {
			t.Fatalf("block %d after the migration: %v", b, err)
		}
	}
}

// TestFleetReshardResume begins a 2→3 migration, stops the "daemon"
// part way, and checks a reopened fleet reports the journaled migration,
// resumes it at the journaled watermark, and finishes it: generation 1
// serves 3 shards, generation 0 is retired, and a third open agrees.
func TestFleetReshardResume(t *testing.T) {
	dir := t.TempDir()
	var log syncLog
	cfg := fleetConfig(dir, nil)
	cfg.Engine.Logf = log.logf

	f := openFleet(t, cfg, 2)
	srv, err := NewSharded(f.Engines(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	fleetFill(t, srv, 40)
	target, err := f.OpenTarget(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.OpenTarget(3); err == nil || !strings.Contains(err.Error(), "migration already") {
		t.Fatalf("second OpenTarget = %v, want the in-flight refusal", err)
	}
	r, err := f.BeginReshard(srv, target, ReshardConfig{RangeSize: 8, Pace: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	go r.Run()
	for r.Status().Watermark == 0 {
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	if err := f.Close(); err != nil { // joins the copier
		t.Fatal(err)
	}
	select {
	case <-r.Done():
	default:
		t.Fatal("Fleet.Close returned with the copier still running")
	}

	j, err := durable.OpenReshardJournal(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := durable.ResolveReshard(j.Records(), 0)
	if err != nil || want.Active == nil || want.Active.Watermark == 0 || want.Active.Watermark >= r.Status().Total {
		t.Fatalf("journal after the stop: %+v (active %+v), %v; want a migration part way", want, want.Active, err)
	}

	// Restart with a stale width: the journal is authoritative.
	f = openFleet(t, cfg, 5)
	lay := f.Layout()
	if lay.Gen != 0 || lay.Shards != 2 || lay.Active == nil || *lay.Active != *want.Active {
		t.Fatalf("reopened layout %+v (active %+v), want the journal's %+v", lay, lay.Active, want.Active)
	}
	srv, err = NewSharded(f.Engines(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if target, err = f.OpenTarget(0); err != nil {
		t.Fatal(err)
	}
	done := make(chan wire.ReshardPhase, 1)
	r, err = f.BeginReshard(srv, target, ReshardConfig{OnDone: func(ph wire.ReshardPhase, _ error) { done <- ph }})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Status(); st.Watermark != want.Active.Watermark || st.From != 2 || st.To != 3 {
		t.Fatalf("resumed status %+v, want watermark %d of 2->3", st, want.Active.Watermark)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if ph := <-done; ph != wire.ReshardPhaseDone {
		t.Fatalf("caller's OnDone saw %s", ph)
	}
	if lay := f.Layout(); lay.Gen != 1 || lay.Shards != 3 || lay.Active != nil || len(f.Engines()) != 3 {
		t.Fatalf("layout after cutover %+v", lay)
	}
	for _, s := range f.Stats() {
		if s.Gen != 1 || s.Target {
			t.Fatalf("stats after cutover still list %+v", s)
		}
	}
	fleetVerify(t, srv, 40)
	for _, wantLine := range []string{"reshard: migrating 2 -> 3 shards (generation 1)", "reshard: resuming migration 2 -> 3 shards (generation 1) at watermark", "reshard: done (generation 1, now 3 shards)"} {
		if !strings.Contains(log.String(), wantLine) {
			t.Errorf("fleet log missing %q:\n%s", wantLine, log.String())
		}
	}
	srv.Close()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close = %v, want a no-op", err)
	}

	f = openFleet(t, cfg, 2)
	if lay := f.Layout(); lay.Gen != 1 || lay.Shards != 3 || lay.MaxGen != 1 || lay.Active != nil {
		t.Fatalf("layout on the third open %+v", lay)
	}
}

// syncLog collects Logf lines from any goroutine.
type syncLog struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (l *syncLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(&l.buf, format+"\n", args...)
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// gateFS parks the journal publish that carries the Cutover record until
// released, holding the copier inside cutover for as long as a test likes.
type gateFS struct {
	vfs.FS
	parked  chan struct{} // closed when the copier reaches the gate
	release chan struct{}
}

func (g *gateFS) Rename(oldname, newname string) error {
	if filepath.Base(newname) == "reshard.log" {
		if f, err := g.FS.Open(oldname); err == nil {
			img, _ := io.ReadAll(f)
			f.Close()
			if recs, _, _ := durable.ScanReshardJournal(img); len(recs) > 0 && recs[len(recs)-1].Op == durable.ReshardCutover {
				close(g.parked)
				<-g.release
			}
		}
	}
	return g.FS.Rename(oldname, newname)
}

// TestFleetCloseJoinsCutover is the shutdown-during-cutover regression:
// with the copier parked inside its cutover, a shutdown (Sharded.Close,
// then Fleet.Close) must wait for it — the cutover goes on to retire and
// close the old generation's engines on the copier goroutine — and every
// engine must be closed exactly once (durable.Engine.Close is not
// idempotent: a second close fails on the closed WAL).
func TestFleetCloseJoinsCutover(t *testing.T) {
	dir := t.TempDir()
	gate := &gateFS{FS: vfs.OS{}, parked: make(chan struct{}), release: make(chan struct{})}
	var log syncLog
	cfg := fleetConfig(dir, gate)
	cfg.Engine.Logf = log.logf
	f := openFleet(t, cfg, 2)
	srv, err := NewSharded(f.Engines(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	fleetFill(t, srv, 16)
	target, err := f.OpenTarget(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.BeginReshard(srv, target, ReshardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	go r.Run()
	<-gate.parked

	closed := make(chan error, 1)
	go func() {
		srv.Close()
		closed <- f.Close()
	}()
	select {
	case err := <-closed:
		t.Fatalf("Fleet.Close returned (%v) with the copier still inside its cutover", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(gate.release)
	if err := <-closed; err != nil {
		t.Fatalf("Fleet.Close: %v", err)
	}
	select {
	case <-r.Done():
	default:
		t.Fatal("Fleet.Close returned before the copier did")
	}
	if strings.Contains(log.String(), "closing gen") {
		t.Fatalf("an engine was closed twice:\n%s", log.String())
	}
	if lay := f.Layout(); lay.Gen != 1 || lay.Shards != 3 || lay.Active != nil {
		t.Fatalf("layout after the joined cutover %+v", lay)
	}
	// The journaled cutover is what the next start serves.
	f = openFleet(t, fleetConfig(dir, nil), 2)
	if lay := f.Layout(); lay.Gen != 1 || lay.Shards != 3 {
		t.Fatalf("reopened layout %+v, want generation 1 at 3 shards", lay)
	}
}

// TestFleetInMemory checks the volatile fleet: no journal, no shippers,
// no hub, yet the same begin/retire lifecycle.
func TestFleetInMemory(t *testing.T) {
	f := openFleet(t, fleetConfig("", nil), 2)
	if f.Hub(nil) != nil || len(f.ShipStats()) != 0 || len(f.Stats()) != 0 || len(f.RecentWriteIDs()) != 0 {
		t.Fatal("an in-memory fleet has no log to ship and no durable counters")
	}
	srv, err := NewSharded(f.Engines(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	fleetFill(t, srv, 16)
	if _, err := f.OpenTarget(2); err == nil {
		t.Fatal("OpenTarget to the serving width succeeded")
	}
	target, err := f.OpenTarget(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.BeginReshard(srv, target, ReshardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if lay := f.Layout(); lay.Gen != 1 || lay.Shards != 3 || lay.MaxGen != 1 {
		t.Fatalf("layout %+v", lay)
	}
	fleetVerify(t, srv, 16)
}
