package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"repro/internal/server/wire"
)

// The golden tests pin the exact bytes of every durable stream this
// package writes or ships: a WAL image (with a term record and the
// dedup stub compaction leaves), a reshard journal image, and one
// encoded wal-batch replication frame. A change to the record frame or
// to any record's body encoding changes these hashes.

// goldenRecords is a fixed WAL request list covering each record kind
// recovery replays.
func goldenRecords() []wire.Request {
	return []wire.Request{
		{Op: wire.OpWrite, ID: 11, Block: 4, Data: bytes.Repeat([]byte{0x5a}, 64)},
		{Op: wire.OpWrite, Block: 9, Data: []byte("unidentified")},
		{Op: wire.OpTerm, ID: 3},
		{Op: wire.OpAccess, ID: 12}, // a compaction stub
		{Op: wire.OpWrite, ID: 13, Block: 1 << 40, Data: []byte{0}},
	}
}

func goldenHash(t *testing.T, what string, data []byte, want string) {
	t.Helper()
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s (%d bytes) sha256 %s, want %s", what, len(data), got, want)
	}
}

func TestWALImageGolden(t *testing.T) {
	var img []byte
	for _, req := range goldenRecords() {
		var err error
		if img, err = AppendRecord(img, req); err != nil {
			t.Fatal(err)
		}
	}
	goldenHash(t, "WAL image", img, "221b5f75423f256f54d8a56a414239d68a8aff60ebb374f37f323e65e94df74b")
	out, shrunk, err := compactRecords(append(img, img...))
	if err != nil || shrunk == 0 {
		t.Fatalf("compacting the doubled image: shrunk %d, %v", shrunk, err)
	}
	goldenHash(t, "compacted WAL image", out, "1a76757f94049e15164ec822a673ae23d9f9b1afc5a991b581156c93fa59e30b")
}

func TestReshardJournalGolden(t *testing.T) {
	var img []byte
	for _, rec := range []ReshardRecord{
		{Op: ReshardBegin, Gen: 1, From: 2, To: 3},
		{Op: ReshardRange, Gen: 1, Watermark: 4096},
		{Op: ReshardCutover, Gen: 1, To: 3},
	} {
		var err error
		if img, err = AppendReshardRecord(img, rec); err != nil {
			t.Fatal(err)
		}
	}
	goldenHash(t, "reshard journal image", img, "4646af7dac2532e1e11233f5f278b106f3c3ffa90a03388cfa5e6376affd50fa")
}

func TestReplWALBatchGolden(t *testing.T) {
	var recs []byte
	for _, req := range goldenRecords() {
		var err error
		if recs, err = AppendRecord(recs, req); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	f := wire.ReplFrame{Kind: wire.ReplWALBatch, Term: 3, Shard: 1, FirstSeq: 7, Count: len(goldenRecords()), Data: recs}
	if err := wire.WriteReplFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	goldenHash(t, "wal-batch frame", buf.Bytes(), "2c3cf2b0a2dd95b78d686cab300ad6c25019584717fddf58c4cb7e8e4467ea59")
}

// TestGoldenDirectoryRecovers opens testdata/golden, a directory the
// engine wrote (levels 8, SnapshotEvery 5, BaseEvery 4, CompactEvery 3;
// thirteen identified writes, a SetTerm(3) among them, no Close): a
// base, two deltas, and a live WAL holding a compaction stub, the term
// record and two writes. Recovery must land on the recorded state,
// term and dedup window.
func TestGoldenDirectoryRecovers(t *testing.T) {
	e, err := Open(goldenOptions(copyFixture(t, "golden")))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fp, err := e.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(fp[:]); got != "684559663717f522208c7ebea770381de0d30d2050bfbb052f24344de0dde1ad" {
		t.Errorf("recovered fingerprint %s", got)
	}
	if e.Term() != 3 {
		t.Errorf("recovered term %d, want 3", e.Term())
	}
	want := RecoveryStats{BaseEpoch: 1, DeltasApplied: 2, SegmentsReplayed: 1, RecordsReplayed: 2, IDsRecovered: 13}
	if rec := e.Recovery(); rec != want {
		t.Errorf("recovery %+v, want %+v", rec, want)
	}
	var ids []uint64
	for id := uint64(101); id <= 113; id++ {
		ids = append(ids, id)
	}
	if got := e.RecentWriteIDs(); !slices.Equal(got, ids) {
		t.Errorf("recovered dedup window %v, want %v", got, ids)
	}
}

// goldenOptions is the configuration testdata/golden was written under.
func goldenOptions(dir string) Options {
	opt := testOptions(dir)
	opt.SnapshotEvery = 5
	opt.BaseEvery = 4
	opt.CompactEvery = 3
	return opt
}
