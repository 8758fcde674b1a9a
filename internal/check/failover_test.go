package check

import (
	"strings"
	"testing"
)

// TestFailoverSmoke is the short race-gated arm of the failover oracle:
// a few seeds through both engine configurations. The full sweep with
// kill-site coverage assertions is TestFailoverSchedules.
func TestFailoverSmoke(t *testing.T) {
	for _, delta := range []bool{false, true} {
		rep, err := RunFailoverSchedule(t.TempDir(), 1, 60, FailoverOptions{Delta: delta})
		if err != nil {
			t.Fatalf("delta=%v: %v\n%s", delta, err, rep)
		}
		if rep.AckedWrites == 0 || rep.Crashes == 0 {
			t.Fatalf("delta=%v: schedule exercised nothing: %s", delta, rep)
		}
		t.Logf("delta=%v: %s", delta, rep)
	}
}

// TestFailoverSchedules sweeps seeds and asserts the kill-site coverage
// the oracle exists for: kills must land on the primary's own disk, on
// frames mid-send (WAL batches and snapshot chunks), and on acks — and
// at least one schedule must promote and fence the deposed primary.
func TestFailoverSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	sites := make(map[string]int)
	var promoted, fenced, acked int
	for seed := uint64(1); seed <= 10; seed++ {
		rep, err := RunFailoverSchedule(t.TempDir(), seed, 90, FailoverOptions{Delta: seed%2 == 0})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, rep)
		}
		for k, n := range rep.Sites {
			sites[k] += n
		}
		if rep.Promoted {
			promoted++
			if rep.FenceOK {
				fenced++
			}
		}
		acked += rep.AckedWrites
		t.Logf("seed %d: %s", seed, rep)
	}
	t.Logf("kill sites across seeds: %v (%d acked writes, %d promotions, %d fenced)", sites, acked, promoted, fenced)
	var sawWAL, sawFrame, sawAck, sawChunk bool
	for k := range sites {
		sawWAL = sawWAL || k == "wal" || k == "snap" || k == "delta"
		sawFrame = sawFrame || strings.HasPrefix(k, "frame:")
		sawAck = sawAck || strings.HasPrefix(k, "ack:")
		sawChunk = sawChunk || k == "frame:snap-chunk" || k == "ack:snap-chunk" ||
			strings.Contains(k, "chunk")
	}
	if !sawWAL || !sawFrame || !sawAck {
		t.Fatalf("kill-site coverage incomplete: %v", sites)
	}
	if !sawChunk {
		t.Fatalf("no schedule killed mid-snapshot-chunk: %v", sites)
	}
	if promoted == 0 || fenced != promoted {
		t.Fatalf("want every promotion fenced: %d promotions, %d fenced", promoted, fenced)
	}
}

// TestFailoverNegativeControl disables term fencing and demands the
// oracle fire: the deposed primary's stale stream must destroy
// post-promotion acknowledged state, and RunFailoverSchedule must see
// it. If this test fails, the oracle has gone blind.
func TestFailoverNegativeControl(t *testing.T) {
	fired := false
	for seed := uint64(1); seed <= 6 && !fired; seed++ {
		rep, err := RunFailoverSchedule(t.TempDir(), seed, 60, FailoverOptions{FenceOff: true})
		if err != nil && rep != nil && rep.Promoted {
			fired = true
			t.Logf("seed %d: oracle fired as required: %v", seed, err)
		}
	}
	if !fired {
		t.Fatal("fencing disabled, yet no schedule lost post-promotion state: the oracle cannot detect split brain")
	}
}
