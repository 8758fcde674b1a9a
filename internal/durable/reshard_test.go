package durable

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/vfs"
)

// TestReshardRecordRoundTrip encodes every record kind and scans it back.
func TestReshardRecordRoundTrip(t *testing.T) {
	recs := []ReshardRecord{
		{Op: ReshardBegin, Gen: 1, From: 2, To: 3},
		{Op: ReshardRange, Gen: 1, Watermark: 0},
		{Op: ReshardRange, Gen: 1, Watermark: 4096},
		{Op: ReshardAbortBegin, Gen: 1},
		{Op: ReshardRange, Gen: 1, Watermark: 64},
		{Op: ReshardAborted, Gen: 1},
		{Op: ReshardBegin, Gen: 2, From: 2, To: 5},
		{Op: ReshardCutover, Gen: 2, To: 5},
	}
	var img []byte
	var err error
	for _, rec := range recs {
		if img, err = AppendReshardRecord(img, rec); err != nil {
			t.Fatalf("append %+v: %v", rec, err)
		}
	}
	got, off, torn := ScanReshardJournal(img)
	if torn || off != len(img) {
		t.Fatalf("clean image scanned as torn=%v off=%d (len %d)", torn, off, len(img))
	}
	if len(got) != len(recs) {
		t.Fatalf("scanned %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// TestReshardRecordValidation rejects malformed records at encode time.
func TestReshardRecordValidation(t *testing.T) {
	bad := []ReshardRecord{
		{Op: ReshardBegin, Gen: 0, From: 2, To: 3}, // gen 0 reserved
		{Op: ReshardBegin, Gen: 1, From: 2, To: 2}, // no-op migration
		{Op: ReshardBegin, Gen: 1, From: 0, To: 2}, // zero shards
		{Op: ReshardBegin, Gen: 1, From: 2, To: 3, Watermark: 1},
		{Op: ReshardRange, Gen: 1, Watermark: -1},
		{Op: ReshardRange, Gen: 1, Watermark: 1, From: 2},
		{Op: ReshardCutover, Gen: 1},                 // missing To
		{Op: ReshardCutover, Gen: 1, To: 2, From: 2}, // stray From
		{Op: ReshardAbortBegin, Gen: 1, To: 2},       // stray field
		{Op: ReshardAborted, Gen: 1, Watermark: 3},   // stray field
		{Op: ReshardOp(9), Gen: 1},                   // unknown kind
	}
	for _, rec := range bad {
		if _, err := AppendReshardRecord(nil, rec); err == nil {
			t.Errorf("append %+v succeeded, want error", rec)
		}
	}
}

// TestReshardScanTornTail checks the scanner stops at the longest valid
// prefix: truncation, bit flips, and garbage all degrade to the intact
// records before the damage.
func TestReshardScanTornTail(t *testing.T) {
	var img []byte
	var err error
	recs := []ReshardRecord{
		{Op: ReshardBegin, Gen: 1, From: 1, To: 2},
		{Op: ReshardRange, Gen: 1, Watermark: 128},
		{Op: ReshardCutover, Gen: 1, To: 2},
	}
	for _, rec := range recs {
		if img, err = AppendReshardRecord(img, rec); err != nil {
			t.Fatal(err)
		}
	}
	recLen := len(img) / len(recs)

	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
		want int // intact records expected
	}{
		{"truncated mid-record", func(b []byte) []byte { return b[:len(b)-recLen/2] }, 2},
		{"flipped body bit", func(b []byte) []byte {
			b[2*recLen+frame.Header+3] ^= 0x40
			return b
		}, 2},
		{"flipped length", func(b []byte) []byte {
			b[recLen] ^= 0xff
			return b
		}, 1},
		{"garbage appended", func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe, 0xef) }, 3},
		{"empty", func(b []byte) []byte { return nil }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, _, _ := ScanReshardJournal(tc.mut(append([]byte(nil), img...)))
			if len(got) != tc.want {
				t.Fatalf("scanned %d records, want %d", len(got), tc.want)
			}
			for i := range got {
				if got[i] != recs[i] {
					t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
				}
			}
		})
	}
}

// TestResolveReshard drives the journal state machine through the legal
// histories and checks the layouts they resolve to.
func TestResolveReshard(t *testing.T) {
	for _, tc := range []struct {
		name    string
		recs    []ReshardRecord
		def     int
		gen     uint64
		shards  int
		maxGen  uint64
		active  *ReshardProgress
		wantErr bool
	}{
		{name: "empty journal", def: 4, shards: 4},
		{
			name: "completed migration",
			recs: []ReshardRecord{
				{Op: ReshardBegin, Gen: 1, From: 2, To: 3},
				{Op: ReshardRange, Gen: 1, Watermark: 512},
				{Op: ReshardCutover, Gen: 1, To: 3},
			},
			def: 2, gen: 1, shards: 3, maxGen: 1,
		},
		{
			name: "mid-flight migration",
			recs: []ReshardRecord{
				{Op: ReshardBegin, Gen: 1, From: 2, To: 3},
				{Op: ReshardRange, Gen: 1, Watermark: 256},
			},
			def: 2, shards: 2, maxGen: 1,
			active: &ReshardProgress{Gen: 1, From: 2, To: 3, Watermark: 256},
		},
		{
			name: "mid-flight rollback",
			recs: []ReshardRecord{
				{Op: ReshardBegin, Gen: 1, From: 3, To: 2},
				{Op: ReshardRange, Gen: 1, Watermark: 256},
				{Op: ReshardAbortBegin, Gen: 1},
				{Op: ReshardRange, Gen: 1, Watermark: 128},
			},
			def: 3, shards: 3, maxGen: 1,
			active: &ReshardProgress{Gen: 1, From: 3, To: 2, Watermark: 128, Aborting: true},
		},
		{
			name: "aborted then completed",
			recs: []ReshardRecord{
				{Op: ReshardBegin, Gen: 1, From: 2, To: 3},
				{Op: ReshardAbortBegin, Gen: 1},
				{Op: ReshardAborted, Gen: 1},
				{Op: ReshardBegin, Gen: 2, From: 2, To: 3},
				{Op: ReshardCutover, Gen: 2, To: 3},
			},
			def: 2, gen: 2, shards: 3, maxGen: 2,
		},
		{
			name: "journal pins the pre-reshard count",
			recs: []ReshardRecord{{Op: ReshardBegin, Gen: 1, From: 2, To: 3}},
			def:  0, shards: 2, maxGen: 1,
			active: &ReshardProgress{Gen: 1, From: 2, To: 3},
		},
		{
			name:    "begin contradicting the default",
			recs:    []ReshardRecord{{Op: ReshardBegin, Gen: 1, From: 2, To: 3}},
			def:     4,
			wantErr: true,
		},
		{
			name: "double begin",
			recs: []ReshardRecord{
				{Op: ReshardBegin, Gen: 1, From: 2, To: 3},
				{Op: ReshardBegin, Gen: 2, From: 2, To: 4},
			},
			def: 2, wantErr: true,
		},
		{
			name: "stale generation reused",
			recs: []ReshardRecord{
				{Op: ReshardBegin, Gen: 1, From: 2, To: 3},
				{Op: ReshardCutover, Gen: 1, To: 3},
				{Op: ReshardBegin, Gen: 1, From: 3, To: 2},
			},
			def: 2, wantErr: true,
		},
		{
			name:    "range with no migration",
			recs:    []ReshardRecord{{Op: ReshardRange, Gen: 1, Watermark: 1}},
			def:     2,
			wantErr: true,
		},
		{
			name: "cutover of an aborting migration",
			recs: []ReshardRecord{
				{Op: ReshardBegin, Gen: 1, From: 2, To: 3},
				{Op: ReshardAbortBegin, Gen: 1},
				{Op: ReshardCutover, Gen: 1, To: 3},
			},
			def: 2, wantErr: true,
		},
		{
			name: "aborted without abort-begin",
			recs: []ReshardRecord{
				{Op: ReshardBegin, Gen: 1, From: 2, To: 3},
				{Op: ReshardAborted, Gen: 1},
			},
			def: 2, wantErr: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lay, err := ResolveReshard(tc.recs, tc.def)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("resolved %+v, want error", lay)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if lay.Gen != tc.gen || lay.Shards != tc.shards || lay.MaxGen != tc.maxGen {
				t.Fatalf("layout gen=%d shards=%d maxGen=%d, want %d/%d/%d",
					lay.Gen, lay.Shards, lay.MaxGen, tc.gen, tc.shards, tc.maxGen)
			}
			switch {
			case tc.active == nil && lay.Active != nil:
				t.Fatalf("unexpected active migration %+v", *lay.Active)
			case tc.active != nil && lay.Active == nil:
				t.Fatalf("no active migration, want %+v", *tc.active)
			case tc.active != nil && *lay.Active != *tc.active:
				t.Fatalf("active = %+v, want %+v", *lay.Active, *tc.active)
			}
		})
	}
}

// TestReshardJournalPersistence appends through the journal object and
// re-opens it, checking the on-disk image survives and stays canonical.
func TestReshardJournalPersistence(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenReshardJournal(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(j.Records()); n != 0 {
		t.Fatalf("fresh journal has %d records", n)
	}
	recs := []ReshardRecord{
		{Op: ReshardBegin, Gen: 1, From: 1, To: 2},
		{Op: ReshardRange, Gen: 1, Watermark: 32},
		{Op: ReshardRange, Gen: 1, Watermark: 64},
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j2, err := OpenReshardJournal(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	got := j2.Records()
	if len(got) != len(recs) {
		t.Fatalf("reloaded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
	// Invalid appends must not touch the journal.
	if err := j2.Append(ReshardRecord{Op: ReshardRange, Gen: 0}); err == nil {
		t.Fatal("appending an invalid record succeeded")
	}
	if n := len(j2.Records()); n != len(recs) {
		t.Fatalf("failed append changed the journal to %d records", n)
	}
}

// TestReshardJournalCrashedAppend kills the filesystem at every mutation
// site of an append and checks each crash image re-opens to either the
// old or the new journal — never a torn or illegal one.
func TestReshardJournalCrashedAppend(t *testing.T) {
	base := []ReshardRecord{
		{Op: ReshardBegin, Gen: 1, From: 1, To: 2},
		{Op: ReshardRange, Gen: 1, Watermark: 32},
	}
	next := ReshardRecord{Op: ReshardRange, Gen: 1, Watermark: 64}
	for site := 1; site <= 8; site++ {
		dir := t.TempDir()
		j, err := OpenReshardJournal(vfs.OS{}, dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range base {
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		in := faults.New(faults.Config{CrashAfter: site, TornWrites: true, Seed: uint64(site)})
		ffs := faults.WrapFS(vfs.OS{}, in)
		jf, err := OpenReshardJournal(ffs, dir)
		if err != nil {
			t.Fatal(err)
		}
		appendErr := jf.Append(next)
		recovered, err := OpenReshardJournal(vfs.OS{}, dir)
		if err != nil {
			t.Fatalf("site %d: reopen: %v", site, err)
		}
		got := recovered.Records()
		switch len(got) {
		case len(base):
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("site %d: old-journal record %d = %+v, want %+v", site, i, got[i], base[i])
				}
			}
		case len(base) + 1:
			if appendErr != nil && !in.Crashed() {
				// A reported failure may still have published (e.g. the
				// directory fsync failed after the rename landed); that is the
				// crash-consistent outcome the journal allows.
				t.Logf("site %d: append error %v but new journal visible", site, appendErr)
			}
			if got[len(base)] != next {
				t.Fatalf("site %d: appended record = %+v, want %+v", site, got[len(base)], next)
			}
		default:
			t.Fatalf("site %d: recovered %d records, want %d or %d", site, len(got), len(base), len(base)+1)
		}
	}
}

// TestGenDirs checks the generation directory layout keeps generation 0
// exactly where pre-reshard daemons put it.
func TestGenDirs(t *testing.T) {
	if got := GenDir("d", 0); got != "d" {
		t.Errorf("GenDir(d, 0) = %q", got)
	}
	if got := GenDir("d", 3); got != filepath.Join("d", "gen-000003") {
		t.Errorf("GenDir(d, 3) = %q", got)
	}
	if got := ShardDir("d", 0, 0, 1); got != "d" {
		t.Errorf("ShardDir(d, 0, 0, 1) = %q", got)
	}
	if got := ShardDir("d", 0, 2, 4); got != filepath.Join("d", "shard-2") {
		t.Errorf("ShardDir(d, 0, 2, 4) = %q", got)
	}
	if got := ShardDir("d", 2, 0, 1); got != filepath.Join("d", "gen-000002", "shard-0") {
		t.Errorf("ShardDir(d, 2, 0, 1) = %q", got)
	}
}

// TestPruneGens builds three generation trees and prunes all but the
// keeper.
func TestPruneGens(t *testing.T) {
	dir := t.TempDir()
	for gen := uint64(1); gen <= 3; gen++ {
		sub := ShardDir(dir, gen, 0, 2)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, "snap-0000000000000001"), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n := PruneGens(vfs.OS{}, dir, 3, 2); n != 2 {
		t.Fatalf("pruned %d generations, want 2", n)
	}
	if _, err := os.Stat(GenDir(dir, 2)); err != nil {
		t.Fatalf("kept generation gone: %v", err)
	}
	for _, gen := range []uint64{1, 3} {
		if _, err := os.Stat(GenDir(dir, gen)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("generation %d not pruned: %v", gen, err)
		}
	}
	// Pruning again is a no-op.
	if n := PruneGens(vfs.OS{}, dir, 3, 2); n != 2 {
		// RemoveAll on a missing dir succeeds, so dead gens count again;
		// what matters is it neither errors nor touches the keeper.
		t.Logf("second prune reported %d", n)
	}
	if _, err := os.Stat(GenDir(dir, 2)); err != nil {
		t.Fatalf("kept generation gone after reprune: %v", err)
	}
}
