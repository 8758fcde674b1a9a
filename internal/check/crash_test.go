package check

import (
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/vfs"
)

// TestCrashRecoverySchedules is the acceptance gate for the durability
// contract: a dozen seeded kill-recover schedules, each a few hundred
// ops with crashes injected at seeded mutation counts. Across the run
// both crash phases — mid-WAL-append and mid-snapshot-publish — must
// actually be exercised, and no schedule may lose an acknowledged write.
func TestCrashRecoverySchedules(t *testing.T) {
	opsPer := 300
	seeds := 12
	if testing.Short() {
		opsPer, seeds = 120, 4
	}

	total := &CrashReport{ScheduleHeader: newHeader(0)}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		rep, err := RunCrashSchedule(t.TempDir(), seed, opsPer)
		if err != nil {
			t.Fatalf("schedule %d: %v (report so far: %v)", seed, err, rep)
		}
		t.Logf("%v", rep)
		total.Crashes += rep.Crashes
		total.AckedWrites += rep.AckedWrites
		total.Replayed += rep.Replayed
		total.TornTails += rep.TornTails
		for site, n := range rep.Sites {
			total.Sites[site] += n
		}
	}

	if total.Crashes == 0 {
		t.Fatal("no crashes were injected; the harness is not testing anything")
	}
	if total.AckedWrites == 0 || total.Replayed == 0 {
		t.Fatalf("degenerate schedules: %d acked writes, %d replayed", total.AckedWrites, total.Replayed)
	}
	if !testing.Short() {
		// Phase coverage: kills must land both in WAL appends/syncs and
		// inside snapshot publishes (write/sync/rename of snap files).
		if total.Sites["wal"] == 0 || total.Sites["snap"] == 0 {
			t.Fatalf("crash phases not covered: sites %v", total.Sites)
		}
		if total.TornTails == 0 {
			t.Fatalf("no torn WAL tail was ever produced: sites %v", total.Sites)
		}
	}
}

// TestCrashRecoveryDeltaSchedules runs the same kill-recover oracle
// against the delta-snapshot engine configuration: incremental
// checkpoints chained on periodic full bases plus live-WAL compaction.
// Beyond the zero-acked-loss contract, the run must actually exercise
// the new crash phases — kills inside delta publishes as well as base
// publishes and WAL work — and recoveries must both apply delta chains
// and survive damaged ones.
func TestCrashRecoveryDeltaSchedules(t *testing.T) {
	opsPer := 300
	seeds := 12
	if testing.Short() {
		opsPer, seeds = 120, 4
	}

	total := &CrashReport{ScheduleHeader: newHeader(0)}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		rep, err := RunCrashScheduleDelta(t.TempDir(), seed, opsPer)
		if err != nil {
			t.Fatalf("delta schedule %d: %v (report so far: %v)", seed, err, rep)
		}
		t.Logf("%v", rep)
		total.Crashes += rep.Crashes
		total.AckedWrites += rep.AckedWrites
		total.Replayed += rep.Replayed
		total.TornTails += rep.TornTails
		total.DeltasApplied += rep.DeltasApplied
		total.DeltasSkipped += rep.DeltasSkipped
		total.DeltasWritten += rep.DeltasWritten
		total.Compactions += rep.Compactions
		for site, n := range rep.Sites {
			total.Sites[site] += n
		}
	}

	if total.Crashes == 0 {
		t.Fatal("no crashes were injected; the harness is not testing anything")
	}
	if total.AckedWrites == 0 || total.Replayed == 0 {
		t.Fatalf("degenerate schedules: %d acked writes, %d replayed", total.AckedWrites, total.Replayed)
	}
	if total.DeltasWritten == 0 {
		t.Fatalf("delta machinery idle: %d deltas written", total.DeltasWritten)
	}
	if total.DeltasApplied == 0 {
		t.Fatal("no recovery ever applied a delta chain; the chain path is untested")
	}
	if !testing.Short() {
		// Phase coverage: kills must land in WAL work (appends, syncs,
		// compaction rewrites), full-base publishes, and delta publishes —
		// and compactions must actually rewrite something (CompactionRuns
		// counts only shrinking runs, which short schedules' few writes
		// per segment rarely produce).
		if total.Compactions == 0 {
			t.Fatal("no compaction ever shrank a segment; the rewrite path is untested")
		}
		if total.Sites["wal"] == 0 || total.Sites["snap"] == 0 || total.Sites["delta"] == 0 {
			t.Fatalf("crash phases not covered: sites %v", total.Sites)
		}
	}
}

// recoveredFingerprint reopens a finished schedule's directory the way a
// restarted daemon would and fingerprints the recovered engine: the
// complete protocol state, not just what a report counts.
func recoveredFingerprint(t *testing.T, opt durable.Options) [32]byte {
	t.Helper()
	eng, err := durable.Open(opt)
	if err != nil {
		t.Fatalf("reopening %s: %v", opt.Dir, err)
	}
	defer eng.Close()
	fp, err := eng.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestCrashScheduleDeterminism locks in that a schedule is a pure
// function of its seed: same seed, same report, and — because the access
// sequence itself must not depend on anything but the seed — the same
// engine state down to the fingerprint of the directory it leaves. The
// delta configuration must be just as pure: synchronous publishes keep
// the whole schedule a function of the seed.
func TestCrashScheduleDeterminism(t *testing.T) {
	for _, delta := range []bool{false, true} {
		run := RunCrashSchedule
		if delta {
			run = RunCrashScheduleDelta
		}
		dirA, dirB := t.TempDir(), t.TempDir()
		a, err := run(dirA, 42, 150)
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(dirB, 42, 150)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("delta=%v: same seed diverged:\n  %v\n  %v", delta, a, b)
		}
		if a.Crashes == 0 {
			t.Fatalf("delta=%v: seed 42 never crashed: %v", delta, a)
		}
		fa := recoveredFingerprint(t, crashOptions(dirA, 42, vfs.OS{}, delta))
		fb := recoveredFingerprint(t, crashOptions(dirB, 42, vfs.OS{}, delta))
		if fa != fb {
			t.Fatalf("delta=%v: same seed, same report, different engine state: fingerprints %x vs %x", delta, fa[:8], fb[:8])
		}
	}
}

// TestCrashSiteKind pins the site classifier used for coverage
// accounting.
func TestCrashSiteKind(t *testing.T) {
	cases := map[string]string{
		"write wal-0000000000000003.log":    "wal",
		"sync wal-0000000000000003.log":     "wal",
		"write wal-0000000000000003.tmp":    "wal", // compaction rewrite temp
		"write snap-0000000000000002.tmp":   "snap",
		"rename snap-0000000000000002.ab":   "snap",
		"write delta-0000000000000004.tmp":  "delta",
		"rename delta-0000000000000004.abd": "delta",
		"write reshard.tmp":                 "reshard",
		"rename reshard.tmp reshard.log":    "reshard",
		"syncdir data":                      "syncdir",
		"":                                  "none",
	}
	for site, want := range cases {
		if got := crashSiteKind(site); got != want {
			t.Errorf("crashSiteKind(%q) = %q, want %q", site, got, want)
		}
	}
	if strings.Contains(crashSiteKind("remove wal-01.log"), " ") {
		t.Error("site kinds must be single tokens")
	}
}
