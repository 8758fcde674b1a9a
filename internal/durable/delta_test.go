package durable

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/vfs"
)

// deltaOptions is testOptions at a chain cadence: a rotation every 2
// writes, a full base every 4th rotation (three deltas between bases).
func deltaOptions(dir string) Options {
	opt := testOptions(dir)
	opt.SnapshotEvery = 2
	opt.BaseEvery = 4
	return opt
}

// TestDeltaChainRecovery drives enough writes through a delta engine to
// publish a base plus a chain of deltas, drops it without Close (the
// crash shape), and demands recovery apply the chain and lose nothing.
func TestDeltaChainRecovery(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(deltaOptions(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 13 // 6 rotations at every-2: a base, deltas, another base, deltas
	for i := 0; i < n; i++ {
		if err := commit(e, 0, int64(i), payload(e.BlockSize(), byte(0x10+i))); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	st := e.Stats()
	if st.Snapshots == 0 || st.DeltasWritten == 0 {
		t.Fatalf("stats = %+v, want both full bases and deltas published", st)
	}
	// No Close: BatchSync already made every acknowledged write durable.

	r, err := Open(deltaOptions(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	rec := r.Recovery()
	if rec.DeltasApplied == 0 {
		t.Fatalf("recovery = %+v, want a delta chain applied", rec)
	}
	for i := 0; i < n; i++ {
		got, err := r.Read(int64(i))
		if err != nil || !bytes.Equal(got, payload(r.BlockSize(), byte(0x10+i))) {
			t.Fatalf("block %d wrong after chain recovery (err %v)", i, err)
		}
	}
}

// TestCorruptMiddleDeltaShortensChain damages a delta in the middle of
// the chain and checks recovery rebuilds from the base, stops the chain
// short of the damage, and covers the gap from the retained WAL segments
// — zero acknowledged-write loss. Old generations are kept on disk
// (noRemoveFS) because a pruned-away WAL segment is only redundant while
// the chain element covering it stays readable.
func TestCorruptMiddleDeltaShortensChain(t *testing.T) {
	dir := t.TempDir()
	opt := deltaOptions(dir)
	opt.FS = noRemoveFS{vfs.OS{}}
	e, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 7 // base + a 3-delta chain at every-2, BaseEvery=4
	for i := 0; i < n; i++ {
		if err := commit(e, 0, int64(i), payload(e.BlockSize(), byte(0x20+i))); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	e.Close()

	deltas, err := filepath.Glob(filepath.Join(dir, "delta-*.abd"))
	if err != nil || len(deltas) < 2 {
		t.Fatalf("deltas %v (err %v), want a chain of at least two", deltas, err)
	}
	sort.Strings(deltas)
	middle := deltas[len(deltas)-2] // not the newest: the chain must stop early
	if err := os.WriteFile(middle, []byte("rot"), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(deltaOptions(dir)) // plain OS fs for recovery
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	rec := r.Recovery()
	if rec.DeltasSkipped == 0 {
		t.Fatalf("recovery = %+v, want the damaged delta skipped", rec)
	}
	if want := len(deltas) - 2; rec.DeltasApplied > want {
		t.Fatalf("recovery = %+v, applied past the damaged delta (chain of %d)", rec, len(deltas))
	}
	for i := 0; i < n; i++ {
		got, err := r.Read(int64(i))
		if err != nil || !bytes.Equal(got, payload(r.BlockSize(), byte(0x20+i))) {
			t.Fatalf("block %d lost after mid-chain damage (err %v)", i, err)
		}
	}
}

// TestCrossModeDirectories checks the full-base cadence may change
// between opens of one directory: recovery is driven by the files
// present, BaseEvery only selects what new rotations write. A
// full-image directory (BaseEvery 1) is extended into a chain under
// BaseEvery 3, and the chain is pruned at the first base once the
// cadence switches back.
func TestCrossModeDirectories(t *testing.T) {
	dir := t.TempDir()
	full := testOptions(dir)
	full.SnapshotEvery = 3
	chain := full
	chain.SnapshotEvery = 2
	chain.BaseEvery = 3
	files := func(prefix string) (n int) {
		names, err := vfs.OS{}.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if strings.HasPrefix(name, prefix) {
				n++
			}
		}
		return n
	}

	e, err := Open(full)
	if err != nil {
		t.Fatalf("Open at BaseEvery 1: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := commit(e, 0, int64(i), payload(e.BlockSize(), byte(0x30+i))); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	if n := files("delta-"); n != 0 {
		t.Fatalf("BaseEvery 1 wrote %d deltas, want full images only", n)
	}

	// The full-image directory, extended into a chain: Open's base, then
	// two deltas (every third rotation would be the next base).
	d, err := Open(chain)
	if err != nil {
		t.Fatalf("Open at BaseEvery 3 over full images: %v", err)
	}
	for i := 5; i < 10; i++ {
		if err := commit(d, 0, int64(i), payload(d.BlockSize(), byte(0x30+i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Stats(); st.DeltasWritten != 2 || st.Snapshots != 0 {
		t.Fatalf("stats = %+v, want the chain extended by 2 deltas", st)
	}
	d.Close()

	// Back to BaseEvery 1: recovery applies the chain, and Open's base
	// prunes it.
	r, err := Open(full)
	if err != nil {
		t.Fatalf("Open at BaseEvery 1 over a chain: %v", err)
	}
	defer r.Close()
	if rec := r.Recovery(); rec.DeltasApplied != 2 {
		t.Fatalf("recovery = %+v, want the 2-delta chain applied", rec)
	}
	if n := files("delta-"); n != 0 {
		t.Fatalf("%d chain files alive after the first base at BaseEvery 1", n)
	}
	for i := 0; i < 10; i++ {
		got, err := r.Read(int64(i))
		if err != nil || !bytes.Equal(got, payload(r.BlockSize(), byte(0x30+i))) {
			t.Fatalf("block %d wrong after the cadence round-trip (err %v)", i, err)
		}
	}
}

// copyFixture copies a committed testdata directory into a fresh temp
// directory, so a test that expects Open to change nothing can still
// not touch the committed files if it does.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join("testdata", name)
	names, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(src, n.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, n.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLegacyHeaderlessSnapshotLoads: the oldest checkpoint format — a
// raw gob image from the removed image writer, with neither the
// metadata header nor the checkpoint stream framing — dropped into a
// directory under a snapshot name is unreadable. The image (the
// legacy-full fixture's snapshot with its header stripped) holds eight
// writes no WAL segment covers, so Open refuses and changes nothing.
func TestLegacyHeaderlessSnapshotLoads(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy-full", snapName(3)))
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(bytes.NewReader(raw))
	if _, _, err := readMeta(br, snapMagic); err != nil {
		t.Fatal(err)
	}
	image, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName(1)), image, 0o644); err != nil {
		t.Fatal(err)
	}
	mustRefuse(t, deltaOptions(dir), 1)
}

// TestLegacyImageWithoutProtocolFallsBack: a gob snapshot that lacks its
// protocol section, placed above the legacy-full fixture's own gob
// snapshot, is unreadable like the one below it. Neither can be used and
// their WAL segments are gone, so Open refuses instead of dereferencing
// nil or recovering an empty tree, and changes nothing.
func TestLegacyImageWithoutProtocolFallsBack(t *testing.T) {
	dir := copyFixture(t, "legacy-full")
	// The fixture's own image minus its protocol section: the store (and
	// its key check) stays genuine, so only the missing section is wrong.
	f, err := os.Open(filepath.Join(dir, snapName(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if _, _, err := readMeta(br, snapMagic); err != nil {
		t.Fatal(err)
	}
	var hollow struct {
		Memory *struct {
			BlockB   int
			Store    []byte
			Versions []uint64
			Written  []bool
			KeyCheck [32]byte
		}
	}
	if err := gob.NewDecoder(br).Decode(&hollow); err != nil || hollow.Memory == nil {
		t.Fatalf("decoding the fixture image: %v", err)
	}
	var image bytes.Buffer
	if err := gob.NewEncoder(&image).Encode(&hollow); err != nil {
		t.Fatal(err)
	}
	blob := append(appendMeta(nil, snapMagic, 0, nil), image.Bytes()...)
	if err := os.WriteFile(filepath.Join(dir, snapName(4)), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	mustRefuse(t, testOptions(dir), 4)
}

// TestLegacyFullDirectoryRecovers opens a directory written by the
// removed full-image writer (testOptions, SnapshotEvery 4, ten writes to
// blocks 0..9, Close): one gob snapshot at epoch 3 plus a two-record
// WAL. The gob image is below the format floor and the WAL covers only
// the last two writes, so Open refuses and changes nothing.
func TestLegacyFullDirectoryRecovers(t *testing.T) {
	mustRefuse(t, testOptions(copyFixture(t, "legacy-full")), 3)
}

// TestLegacyChainDirectoryRecovers opens a chain directory written before
// bases became full checkpoint streams (testOptions, SnapshotEvery 4,
// BaseEvery 4; fourteen writes, Close): a gob base at epoch 1, deltas
// 2..4 in a stream without a format version, and a two-record WAL.
// Nothing in it is readable and the WAL covers only the last two writes,
// so Open refuses, naming the newest delta, and changes nothing.
func TestLegacyChainDirectoryRecovers(t *testing.T) {
	mustRefuse(t, testOptions(copyFixture(t, "legacy-chain")), 4)
}

// TestDeltaRecoveryFingerprintMatchesFull is the correctness pin for the
// whole incremental path: two engines — one full-image (BaseEvery 1),
// one chaining deltas — are driven through the identical seeded op
// sequence, dropped without Close,
// and recovered. Their logical-state fingerprints must be identical: the
// chain of base + deltas + WAL replay reconstructs bit-for-bit the state
// the full snapshot + WAL replay does.
func TestDeltaRecoveryFingerprintMatchesFull(t *testing.T) {
	run := func(t *testing.T, opt Options, clean bool) [32]byte {
		e, err := Open(opt)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		r := rng.New(99)
		for i := 0; i < 40; i++ {
			blk := int64(r.Uint64n(uint64(e.NumBlocks())))
			switch {
			case r.Float64() < 0.6:
				if err := commit(e, 0, blk, payload(e.BlockSize(), byte(i))); err != nil {
					t.Fatalf("Write %d: %v", i, err)
				}
			default:
				if err := e.Access(blk); err != nil {
					t.Fatalf("Access %d: %v", i, err)
				}
			}
		}
		if clean {
			e.Close()
		}
		rec, err := Open(opt)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer rec.Close()
		fp, err := rec.Fingerprint()
		if err != nil {
			t.Fatalf("Fingerprint: %v", err)
		}
		return fp
	}

	for _, clean := range []bool{false, true} {
		name := "crash"
		if clean {
			name = "clean-close"
		}
		t.Run(name, func(t *testing.T) {
			fullOpt := testOptions(t.TempDir())
			fullOpt.SnapshotEvery = 2
			fpFull := run(t, fullOpt, clean)

			// Same rotation cadence on both engines: the recovered protocol
			// state is a function of (checkpoint cut, replayed suffix), and
			// the fingerprint is bit-exact, so only the checkpoint FORMAT
			// may differ between the two runs.
			deltaOpt := deltaOptions(t.TempDir())
			fpDelta := run(t, deltaOpt, clean)
			if fpFull != fpDelta {
				t.Fatalf("recovered fingerprints diverge: full %x, delta %x", fpFull[:8], fpDelta[:8])
			}
		})
	}
}

// TestDeferredCheckpoints checks the write path only makes rotations
// due, and MaybeCheckpoint — the scheduler's batch boundary — performs
// them.
func TestDeferredCheckpoints(t *testing.T) {
	e, err := Open(deltaOptions(t.TempDir()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer e.Close()
	for i := 0; i < 4; i++ { // two rotations due at every-2
		if err := commit(e, 0, int64(i), payload(e.BlockSize(), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Snapshots+st.DeltasWritten != 2 {
		t.Fatalf("stats = %+v, want deferred rotations performed at the batch boundary", st)
	}

	// Without the MaybeCheckpoint call nothing rotates, however many
	// writes pass: the work only becomes due.
	e2, err := Open(deltaOptions(t.TempDir()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer e2.Close()
	for i := 0; i < 6; i++ {
		if err := e2.Write(int64(i), payload(e2.BlockSize(), byte(i))); err != nil {
			t.Fatal(err)
		}
		if err := e2.BatchSync(); err != nil {
			t.Fatal(err)
		}
	}
	if st := e2.Stats(); st.Snapshots != 0 || st.DeltasWritten != 0 {
		t.Fatalf("stats = %+v, want no rotation without MaybeCheckpoint", st)
	}
}

// TestDeprecatedOptionsInert pins that the three deprecated Options
// fields change nothing: one op sequence run with all of them set and
// with none of them set must leave the same recovered fingerprint, the
// same durability counters (the wall-clock pause aside), and the same
// directory listing.
func TestDeprecatedOptionsInert(t *testing.T) {
	type outcome struct {
		fp    [32]byte
		stats Stats
		files []string
	}
	run := func(set bool) outcome {
		dir := t.TempDir()
		opt := deltaOptions(dir)
		opt.SnapshotEvery, opt.CompactEvery = 8, 3
		opt.GroupCommit, opt.DeltaSnapshots, opt.DeferCheckpoints = set, set, set
		e, err := Open(opt)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		r := rng.New(5)
		for i := 0; i < 30; i++ {
			blk := int64(r.Uint64n(4))
			if err := commit(e, uint64(i+1), blk, payload(e.BlockSize(), byte(i))); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		var out outcome
		out.stats = e.Stats()
		out.stats.SnapshotPauseNanos = 0
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if out.files, err = (vfs.OS{}).ReadDir(dir); err != nil {
			t.Fatal(err)
		}
		sort.Strings(out.files)
		rec, err := Open(opt)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer rec.Close()
		if out.fp, err = rec.Fingerprint(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	on, off := run(true), run(false)
	if on.stats != off.stats {
		t.Fatalf("stats diverge: deprecated fields set %+v, unset %+v", on.stats, off.stats)
	}
	if fmt.Sprint(on.files) != fmt.Sprint(off.files) {
		t.Fatalf("directories diverge: set %v, unset %v", on.files, off.files)
	}
	if on.fp != off.fp {
		t.Fatalf("recovered fingerprints diverge: set %x, unset %x", on.fp[:8], off.fp[:8])
	}
	if on.stats.DeltasWritten == 0 || on.stats.CompactionRuns == 0 {
		t.Fatalf("stats = %+v, want the sequence to cross deltas and compactions", on.stats)
	}
}

// TestCompactionShrinksReplay hammers two blocks so the live segment
// fills with superseded writes, compacts, and checks recovery replays
// the shrunken log with full dedup-id fidelity.
func TestCompactionShrinksReplay(t *testing.T) {
	dir := t.TempDir()
	opt := testOptions(dir)
	opt.SnapshotEvery = 1 << 20 // no rotations: the segment only compacts
	opt.CompactEvery = 10
	e, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var lastA, lastB []byte
	var ids []uint64
	for i := 0; i < 20; i++ {
		blk := int64(i % 2)
		data := payload(e.BlockSize(), byte(0x60+i))
		id := uint64(1000 + i)
		if err := commit(e, id, blk, data); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
		ids = append(ids, id)
		if blk == 0 {
			lastA = data
		} else {
			lastB = data
		}
	}
	if got := e.Stats().CompactionRuns; got == 0 {
		t.Fatalf("compactions = %d, want at least one at every-10 over 20 appends", got)
	}
	e.Close()

	r, err := Open(opt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if rec := r.Recovery(); rec.RecordsReplayed >= 20 {
		t.Fatalf("recovery = %+v, want fewer whole-content records than the %d appends", rec, 20)
	}
	gotA, errA := r.Read(0)
	gotB, errB := r.Read(1)
	if errA != nil || errB != nil || !bytes.Equal(gotA, lastA) || !bytes.Equal(gotB, lastB) {
		t.Fatalf("final contents wrong after compacted replay (errs %v, %v)", errA, errB)
	}
	// Every acknowledged id must survive compaction, in order: superseded
	// writes shrink to id stubs, they don't vanish.
	got := r.RecentWriteIDs()
	if len(got) != len(ids) {
		t.Fatalf("recovered %d ids, want %d", len(got), len(ids))
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("id order diverged at %d: got %d, want %d", i, got[i], ids[i])
		}
	}
}
