package check

import (
	"os"
	"testing"
	"time"
)

// soakTest runs the soak at opt for dur (short under -short; SOAKTIME
// overrides both), logs the report and every violation, and asserts the
// floors every mode shares. The soak is only evidence if the hostile
// conditions occurred; TCP scheduling is nondeterministic, so these are
// floors, not counts.
func soakTest(t *testing.T, opt SoakOptions, dur, short time.Duration) *SoakReport {
	t.Helper()
	opt.Duration = dur
	if testing.Short() {
		opt.Duration = short
	}
	if env := os.Getenv("SOAKTIME"); env != "" {
		d, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("SOAKTIME=%q: %v", env, err)
		}
		opt.Duration = d
	}
	opt.Dir = t.TempDir()

	rep, err := RunSoak(opt)
	if rep != nil {
		t.Logf("%v", rep)
		for _, v := range rep.Violations {
			t.Errorf("violation: %s", v)
		}
	}
	if err != nil {
		t.Fatalf("soak: %v", err)
	}

	if rep.AckedWrites == 0 {
		t.Fatal("no write was ever acknowledged; the soak served nothing")
	}
	if rep.Crashes == 0 {
		t.Error("no incarnation ever crashed; the fault injector never fired")
	}
	sites := 0
	for _, n := range rep.Sites {
		sites += n
	}
	if sites != rep.Crashes {
		t.Errorf("kill sites %v sum to %d, but %d crashes were counted", rep.Sites, sites, rep.Crashes)
	}
	if !testing.Short() && rep.Sites["wal"] == 0 {
		// Most mutations are WAL appends and syncs, but a short run under
		// the race detector may see only two or three kills.
		t.Errorf("no kill ever landed in the WAL (sites %v)", rep.Sites)
	}
	if rep.Applies == 0 {
		t.Error("the apply tracker saw no identified writes; correlation is broken")
	}
	return rep
}

// TestChaosSoak runs the full-stack chaos soak: engine restarts under
// injected crashes, overload bursts, one blackout, retrying breaker
// clients — and requires zero exactly-once or shed-contract violations.
// The engine runs its one configuration with background publishes
// racing the kills, so on top the checkpoint chain and compaction must
// have actually run.
//
// The default run is short and suitable for `go test`; set SOAKTIME to a
// duration (e.g. SOAKTIME=2m) to run the long soak.
func TestChaosSoak(t *testing.T) {
	chaosSoakSingle(t, 1)
}

// TestChaosSoakDelta runs the same single-engine soak under a second
// seed. Since the delta chain became the engine's only configuration the
// two differ only in seed; each must show the chain and compaction
// actually running under the kills on its own.
func TestChaosSoakDelta(t *testing.T) {
	chaosSoakSingle(t, 3)
}

// chaosSoakSingle runs the single-engine soak at seed and asserts its
// contracts and that every hostile condition actually occurred.
func chaosSoakSingle(t *testing.T, seed uint64) {
	t.Helper()
	rep := soakTest(t, SoakOptions{Seed: seed}, 1500*time.Millisecond, 800*time.Millisecond)
	if rep.IDsRecovered == 0 {
		t.Error("no ids were ever recovered across restarts; dedup persistence untested")
	}
	if rep.Overloaded == 0 {
		t.Error("no overloaded response was ever observed; the bursts never overflowed the queue")
	}
	if rep.ShedWrites == 0 {
		t.Error("no write was ever shed; graceful degradation untested")
	}
	if rep.BreakerOpens == 0 {
		t.Error("no circuit breaker ever opened despite the blackout")
	}
	if rep.PostBlackoutAcks == 0 {
		t.Error("no ack after the blackout; breakers never closed again")
	}
	if rep.EngineWrites > 0 && rep.EngineSyncs >= rep.EngineWrites {
		t.Errorf("group commit never amortized: %d syncs for %d appends", rep.EngineSyncs, rep.EngineWrites)
	}
	if rep.EngineDeltas == 0 {
		t.Error("no delta checkpoint was ever published; the incremental path never ran")
	}
	if rep.EngineCompactions == 0 {
		t.Error("no WAL compaction ever ran; the compaction path is untested")
	}
	if !testing.Short() && rep.DeltasApplied == 0 {
		// A short run may crash only right after a base; the full run has
		// enough incarnations that some restart must see a delta tail.
		t.Error("no recovery ever applied a delta chain; restarts never exercised chain recovery")
	}
}

// TestChaosSoakSharded runs the same chaos soak against a 2-shard fleet:
// every kill -9 takes down both trees at once, recovery must bring both
// shards back consistent, and on top of the exactly-once and shed
// contracts the ledger asserts no write is ever applied on a shard other
// than the one the routing law names (cross-shard double-apply).
func TestChaosSoakSharded(t *testing.T) {
	rep := soakTest(t, SoakOptions{Seed: 2, Shards: 2}, 1500*time.Millisecond, 800*time.Millisecond)
	if rep.IDsRecovered == 0 {
		t.Error("no ids were ever recovered across restarts; per-shard dedup persistence untested")
	}
}

// TestChaosSoakReshard runs the chaos soak across the live resharding
// plan: the fleet starts at 2 shards and the supervisor drives 2→3 and
// 3→2 live migrations through the crash-safe journal while kills,
// overload bursts, and the blackout keep landing. Every incarnation
// recovers whatever layout the journal names and resumes any in-flight
// migration from its durable watermark; after the serving budget the
// plan is driven to completion cleanly and the final sweep reads every
// owned block through the terminal 2-shard layout. On top of the
// exactly-once and shed contracts, the ledger judges every apply
// against the width of the generation it landed in — a write applied on
// the wrong tree of EITHER layout mid-migration is a violation.
func TestChaosSoakReshard(t *testing.T) {
	rep := soakTest(t, SoakOptions{Seed: 4, Reshard: true}, 2*time.Second, time.Second)
	if rep.ReshardsStarted < 2 {
		t.Errorf("the plan began only %d migration(s); both 2→3 and 3→2 must run", rep.ReshardsStarted)
	}
	if rep.ReshardsCompleted != rep.ReshardsStarted {
		t.Errorf("%d migrations begun but %d completed; the journal left the plan unfinished",
			rep.ReshardsStarted, rep.ReshardsCompleted)
	}
	if rep.FinalShards != 2 || rep.FinalGen != 2 {
		t.Errorf("terminal layout %d shards gen %d, want the plan's 2 shards gen 2", rep.FinalShards, rep.FinalGen)
	}
}

// TestChaosSoakReplicate runs the chaos soak in failover mode: a
// 2-shard fleet ships its durability stream semi-sync to a long-lived
// standby session while a chaos goroutine subjects the replication link
// to blackouts and one-way partitions (acks vanish while frames flow,
// and the reverse) on top of the usual kills, bursts, and the blackout.
// After the budget the standby drains against a clean fleet, its
// directories are promoted, and every owned block is re-verified
// through the promoted replica under the pins the primary's final sweep
// set — acked-write loss or divergence on the standby fails the soak
// exactly like loss on the primary.
func TestChaosSoakReplicate(t *testing.T) {
	rep := soakTest(t, SoakOptions{Seed: 5, Shards: 2, Replicate: true}, 1500*time.Millisecond, 800*time.Millisecond)
	if rep.ReplBoots == 0 {
		t.Error("the standby never completed a bootstrap; replication never attached")
	}
	if rep.ReplicaReads == 0 {
		t.Fatal("no block was ever verified through the promoted replica")
	}
	// The primary's sweep spent every doubt, so the replica's reads each
	// owned block exactly once, against the pinned value.
	if want := uint64(soakWorkers * soakWorkerBlocks); rep.ReplicaReads != want {
		t.Errorf("the promoted replica sweep took %d reads, want one per owned block (%d) under inherited pins", rep.ReplicaReads, want)
	}
	if rep.ReplPromoteTerm == 0 {
		t.Error("the promoted replica took no fencing term")
	}
	if rep.ReplDegraded == 0 {
		// Partitions outlive the 20ms ack timeout by an order of
		// magnitude; some semi-sync wait must have degraded.
		t.Error("semi-sync never degraded despite the link chaos; the partitions never bit")
	}
}
