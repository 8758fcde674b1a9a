package sim

import "testing"

// TestRunSnapshot runs the checkpoint bench end to end at a tiny scale:
// one row per touched fraction, and the incremental path must already
// beat the full image on encoded size at the lightly-touched epoch even
// on a small tree.
func TestRunSnapshot(t *testing.T) {
	p := Params{Levels: 8, Seed: 1}
	tables, err := RunSnapshot(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("RunSnapshot returned %d tables, want 1", len(tables))
	}
	rows := tables[0].Rows
	if len(rows) != len(snapshotFractions) {
		t.Fatalf("table has %d rows, want %d fractions", len(rows), len(snapshotFractions))
	}

	// Re-measure the 1%% cell directly so the assertion uses numbers, not
	// the table's formatted strings.
	full, err := runSnapshotCell(p, false, snapshotFractions[0])
	if err != nil {
		t.Fatal(err)
	}
	delta, err := runSnapshotCell(p, true, snapshotFractions[0])
	if err != nil {
		t.Fatal(err)
	}
	if delta.bytes == 0 || full.bytes <= delta.bytes {
		t.Fatalf("1%%-touched epoch: delta checkpoint %d B not smaller than full %d B", delta.bytes, full.bytes)
	}
}

// TestWallClockFilter pins down which experiments are excluded from
// `-exp all`: exactly the wall-clock ones — snapshot alone — and it must
// still exist in the registry for by-name runs.
func TestWallClockFilter(t *testing.T) {
	reg := Registry()
	var found []string
	for _, id := range ExperimentIDs() {
		if WallClock(id) {
			found = append(found, id)
			if reg[id] == nil {
				t.Errorf("wall-clock experiment %q missing from registry", id)
			}
		}
	}
	if len(found) != 1 || found[0] != "snapshot" {
		t.Fatalf("wall-clock experiments %v, want exactly [snapshot]", found)
	}
}
