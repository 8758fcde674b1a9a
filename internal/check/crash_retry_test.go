package check

import (
	"strings"
	"testing"

	"repro/internal/vfs"
)

// TestRetrySchedules is the acceptance gate for crash-durable dedup: a
// batch of seeded kill-recover schedules drives the retry protocol
// (in-doubt retries after crashes, duplicates replayed across restarts
// after conflicting writes) and must find zero exactly-once violations.
// Across the run the interesting events must actually occur: crashes,
// in-doubt retries, dedup absorptions, cross-crash duplicates, and at
// least one genuine re-execution.
func TestRetrySchedules(t *testing.T) {
	opsPer := 260
	seeds := 10
	if testing.Short() {
		opsPer, seeds = 120, 4
	}

	total := &RetryReport{}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		rep, err := RunRetrySchedule(t.TempDir(), seed, opsPer, RetryOptions{})
		if err != nil {
			t.Fatalf("schedule %d: %v (report so far: %v)", seed, err, rep)
		}
		t.Logf("%v", rep)
		total.Crashes += rep.Crashes
		total.AckedWrites += rep.AckedWrites
		total.InDoubt += rep.InDoubt
		total.DedupSkips += rep.DedupSkips
		total.Straddles += rep.Straddles
		total.Reexecuted += rep.Reexecuted
	}

	if total.Crashes == 0 {
		t.Fatal("no crashes were injected; the schedules prove nothing")
	}
	if total.InDoubt == 0 || total.DedupSkips == 0 {
		t.Fatalf("degenerate schedules: %d in-doubt retries, %d dedup skips", total.InDoubt, total.DedupSkips)
	}
	if total.Straddles == 0 {
		t.Fatalf("no cross-crash duplicate was ever replayed: %v", total)
	}
}

// TestRetryScheduleNegativeControl reverts dedup persistence in
// simulation (the recovered id set is ignored, as if the snapshot/WAL
// ids were never read back) and demands the oracle FAIL: a harness that
// cannot see double-applies is not protecting anything. The observed
// failure must be a state divergence, not a harness plumbing error.
func TestRetryScheduleNegativeControl(t *testing.T) {
	detected := 0
	for seed := uint64(1); seed <= 8; seed++ {
		rep, err := RunRetrySchedule(t.TempDir(), seed, 260, RetryOptions{IgnoreRecoveredIDs: true})
		if err == nil {
			// A schedule with no cross-crash duplicate replay can pass
			// honestly; only count runs where the control had a chance.
			if rep.Straddles > 0 && rep.Reexecuted > 0 {
				t.Fatalf("seed %d: schedule passed despite forgetting the dedup window (%v)", seed, rep)
			}
			continue
		}
		if !strings.Contains(err.Error(), "exactly-once violation") &&
			!strings.Contains(err.Error(), "diverged") {
			t.Fatalf("seed %d: control failed for the wrong reason: %v", seed, err)
		}
		detected++
		t.Logf("seed %d: control detected as expected: %v", seed, err)
	}
	if detected == 0 {
		t.Fatal("negative control never tripped: the oracle cannot detect a reverted dedup window")
	}
}

// TestRetryScheduleDeterminism locks in seed-purity of the retry
// schedules, same as the base crash oracle: equal reports and equal
// recovered engine fingerprints.
func TestRetryScheduleDeterminism(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a, err := RunRetrySchedule(dirA, 77, 150, RetryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRetrySchedule(dirB, 77, 150, RetryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same seed diverged:\n  %v\n  %v", a, b)
	}
	fa := recoveredFingerprint(t, crashOptions(dirA, 77, vfs.OS{}, false))
	fb := recoveredFingerprint(t, crashOptions(dirB, 77, vfs.OS{}, false))
	if fa != fb {
		t.Fatalf("same seed, same report, different engine state: fingerprints %x vs %x", fa[:8], fb[:8])
	}
}
