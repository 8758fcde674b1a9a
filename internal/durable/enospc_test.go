package durable

import (
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/vfs"
)

// TestNoSpaceFailStop fills the disk at a sweep of budgets and checks
// the engine's contract under ENOSPC: the write that could not be made
// durable is refused (never silently acknowledged), every later
// operation fail-stops with the same cause, and a reopen on a healthy
// disk recovers exactly the writes that WERE acknowledged. The sweep is
// wide enough that the disk fills at every stage of the pipeline —
// WAL appends, base publishes, and delta publishes: a coarse pass over
// the whole range, plus a fine pass just past the bytes Open's first
// base spends, where the first segment's appends are the next writes.
func TestNoSpaceFailStop(t *testing.T) {
	var budgets []int
	for budget := 2_000; budget <= 200_000; budget += 6_000 {
		budgets = append(budgets, budget)
	}
	first := openBytes(t)
	for budget := first; budget < first+8_000; budget += 250 {
		budgets = append(budgets, budget)
	}
	sites := map[string]bool{}
	for _, budget := range budgets {
		for _, mode := range []struct {
			name      string
			baseEvery int
		}{{"full", 1}, {"delta", 3}} {
			in := faults.New(faults.Config{Seed: uint64(budget), DiskBudget: budget})
			dir := t.TempDir()
			// testOptions publishes inline: a budget that runs out
			// mid-publish surfaces on the checkpoint that triggered it, not
			// on a background goroutine a later write would poll.
			opt := testOptions(dir)
			opt.SnapshotEvery = 4
			opt.BaseEvery = mode.baseEvery
			opt.FS = faults.WrapFS(vfs.OS{}, in)
			e, err := Open(opt)
			if err != nil {
				// The budget ran out during recovery/bootstrap; nothing was
				// acknowledged, so there is nothing to check.
				if !errors.Is(err, faults.ErrNoSpace) {
					t.Fatalf("budget %d (%s): Open failed with %v, want ErrNoSpace", budget, mode.name, err)
				}
				continue
			}
			// A batch of one per write: acknowledged once BatchSync
			// returns, whatever its checkpoint then hits.
			acked := 0
			var failErr error
			for i := 0; i < 64 && failErr == nil; i++ {
				blk := int64(i % int(e.NumBlocks()))
				if failErr = e.Write(blk, payload(e.BlockSize(), byte(i))); failErr != nil {
					break
				}
				if failErr = e.BatchSync(); failErr != nil {
					break
				}
				acked++
				failErr = e.MaybeCheckpoint()
			}
			if failErr == nil {
				t.Fatalf("budget %d (%s): 64 writes all acknowledged without filling the disk; shrink the budget", budget, mode.name)
			}
			if !errors.Is(failErr, faults.ErrNoSpace) {
				t.Fatalf("budget %d (%s): write failed with %v, want ErrNoSpace in the chain", budget, mode.name, failErr)
			}
			sites[siteKind(in.NoSpaceSite())] = true
			// Fail-stop: the engine is poisoned — no later write or access may
			// pretend durability still holds.
			if err := e.Write(0, payload(e.BlockSize(), 0xff)); err == nil {
				t.Fatalf("budget %d (%s): write acknowledged after ENOSPC poisoning", budget, mode.name)
			}
			if err := e.Access(0); err == nil {
				t.Fatalf("budget %d (%s): access served after ENOSPC poisoning", budget, mode.name)
			}

			// Every acknowledged write must be recoverable from the surviving
			// on-disk state (the fitting prefix of the crossing write is at
			// worst a torn record recovery truncates).
			r, err := Open(testOptions(dir))
			if err != nil {
				t.Fatalf("budget %d (%s): reopen on healthy disk: %v", budget, mode.name, err)
			}
			last := map[int64]byte{}
			for i := 0; i < acked; i++ {
				last[int64(i%int(r.NumBlocks()))] = byte(i)
			}
			for blk, tag := range last {
				got, err := r.Read(blk)
				if err != nil {
					t.Fatalf("budget %d (%s): read %d after recovery: %v", budget, mode.name, blk, err)
				}
				want := payload(r.BlockSize(), tag)
				if string(got) != string(want) {
					t.Fatalf("budget %d (%s): block %d lost its acknowledged content", budget, mode.name, blk)
				}
			}
			r.Close()
		}
	}
	// The sweep must have filled the disk mid-WAL-append, mid-rotation,
	// and mid-delta-publish — otherwise it is not testing the sites the
	// contract names.
	for _, want := range []string{"wal", "snap", "delta"} {
		if !sites[want] {
			t.Errorf("no budget in the sweep filled the disk during a %q write (saw %v)", want, sites)
		}
	}
}

// openBytes is what a healthy Open of a fresh directory writes: the
// first base image plus the empty segment beside it.
func openBytes(t *testing.T) int {
	dir := t.TempDir()
	e, err := Open(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, de := range names {
		fi, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += int(fi.Size())
	}
	return n
}

// siteKind buckets an injector site ("write snap-000...01") by the file
// family it touched.
func siteKind(site string) string {
	for _, kind := range []string{"snap", "delta", "wal", "reshard"} {
		if strings.Contains(site, kind) {
			return kind
		}
	}
	return site
}
