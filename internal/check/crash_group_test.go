package check

import (
	"testing"

	"repro/internal/vfs"
)

// TestGroupCommitSchedules is the acceptance gate for group commit:
// seeded batched-write schedules under a volatile-page-cache fault model
// (unsynced appends survive crashes only as seeded prefixes) must lose
// no batch-synced write, and the whole run must fsync strictly less
// often than it appends — the amortization the feature exists for.
func TestGroupCommitSchedules(t *testing.T) {
	opsPer := 260
	seeds := 10
	if testing.Short() {
		opsPer, seeds = 120, 4
	}

	total := &GroupReport{}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		rep, err := RunGroupCommitSchedule(t.TempDir(), seed, opsPer)
		if err != nil {
			t.Fatalf("schedule %d: %v (report so far: %v)", seed, err, rep)
		}
		t.Logf("%v", rep)
		total.Crashes += rep.Crashes
		total.AckedWrites += rep.AckedWrites
		total.Writes += rep.Writes
		total.Syncs += rep.Syncs
		total.Batched += rep.Batched
		total.Dropped += rep.Dropped
	}

	if total.Crashes == 0 {
		t.Fatal("no crashes were injected; the schedules prove nothing")
	}
	if total.AckedWrites == 0 || total.Batched == 0 {
		t.Fatalf("degenerate schedules: %d acked, %d batched syncs", total.AckedWrites, total.Batched)
	}
	if total.Syncs >= total.Writes {
		t.Fatalf("no amortization across the run: %d syncs for %d appends", total.Syncs, total.Writes)
	}
	if total.Dropped == 0 {
		t.Fatalf("the volatile page cache never dropped an unsynced write; the loss window was not exercised: %v", total)
	}
}

// TestGroupCommitScheduleDeterminism locks in seed-purity, down to the
// fingerprint of the engine each run's directory recovers to.
func TestGroupCommitScheduleDeterminism(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a, err := RunGroupCommitSchedule(dirA, 99, 150)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGroupCommitSchedule(dirB, 99, 150)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same seed diverged:\n  %v\n  %v", a, b)
	}
	fa := recoveredFingerprint(t, groupOptions(dirA, 99, vfs.OS{}))
	fb := recoveredFingerprint(t, groupOptions(dirB, 99, vfs.OS{}))
	if fa != fb {
		t.Fatalf("same seed, same report, different engine state: fingerprints %x vs %x", fa[:8], fb[:8])
	}
}
