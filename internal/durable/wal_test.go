package durable

import (
	"bytes"
	"errors"
	iofs "io/fs"
	"testing"

	"repro/internal/frame"
	"repro/internal/server/wire"
	"repro/internal/vfs"
)

// sampleRecords builds a few representative WAL records.
func sampleRecords(t testing.TB) ([]wire.Request, []byte) {
	t.Helper()
	reqs := []wire.Request{
		{Op: wire.OpWrite, ID: 1, Block: 0, Data: []byte("first")},
		{Op: wire.OpWrite, ID: 2, Block: 9000, Data: bytes.Repeat([]byte{0xee}, 64)},
		{Op: wire.OpWrite, Block: 3, Data: []byte{0}},
	}
	var log []byte
	for _, req := range reqs {
		var err error
		log, err = AppendRecord(log, req)
		if err != nil {
			t.Fatalf("AppendRecord: %v", err)
		}
	}
	return reqs, log
}

// TestScanRoundTrip checks that an intact log scans back exactly.
func TestScanRoundTrip(t *testing.T) {
	reqs, log := sampleRecords(t)
	recs, off, torn := ScanWAL(log)
	if torn || off != len(log) {
		t.Fatalf("intact log reported torn=%v off=%d (len %d)", torn, off, len(log))
	}
	if len(recs) != len(reqs) {
		t.Fatalf("scanned %d records, want %d", len(recs), len(reqs))
	}
	for i, rec := range recs {
		want := reqs[i]
		if rec.Op != want.Op || rec.ID != want.ID || rec.Block != want.Block || !bytes.Equal(rec.Data, want.Data) {
			t.Fatalf("record %d: got %+v want %+v", i, rec, want)
		}
	}
}

// TestScanTruncatesEveryTornTail cuts the log at every possible byte
// boundary and demands the scan return exactly the records that fit
// wholly before the cut — the property mid-record crash recovery needs.
func TestScanTruncatesEveryTornTail(t *testing.T) {
	reqs, log := sampleRecords(t)
	// Record end offsets.
	ends := make([]int, 0, len(reqs))
	var prefix []byte
	for _, req := range reqs {
		var err error
		prefix, err = AppendRecord(prefix, req)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(prefix))
	}
	for cut := 0; cut <= len(log); cut++ {
		wantN := 0
		wantOff := 0
		for i, end := range ends {
			if end <= cut {
				wantN = i + 1
				wantOff = end
			}
		}
		recs, off, torn := ScanWAL(log[:cut])
		if len(recs) != wantN || off != wantOff {
			t.Fatalf("cut %d: scanned %d records to off %d, want %d to %d", cut, len(recs), off, wantN, wantOff)
		}
		if wantTorn := cut != wantOff; torn != wantTorn {
			t.Fatalf("cut %d: torn = %v, want %v", cut, torn, wantTorn)
		}
	}
}

// TestScanStopsAtCorruption flips one byte inside an inner record and
// demands the scan keep only the records before it.
func TestScanStopsAtCorruption(t *testing.T) {
	_, log := sampleRecords(t)
	// Corrupt a body byte of the second record: after the first record's
	// frame, skip the second header and damage its body.
	first, err := AppendRecord(nil, wire.Request{Op: wire.OpWrite, ID: 1, Block: 0, Data: []byte("first")})
	if err != nil {
		t.Fatal(err)
	}
	firstEnd := len(first)
	bad := append([]byte(nil), log...)
	bad[firstEnd+frame.Header+2] ^= 0xff
	recs, off, torn := ScanWAL(bad)
	if len(recs) != 1 || off != firstEnd || !torn {
		t.Fatalf("corrupted log: %d records, off %d, torn %v; want 1, %d, true", len(recs), off, torn, firstEnd)
	}
}

// failOpenFS fails every Open with a fixed error.
type failOpenFS struct {
	vfs.FS
	openErr error
}

func (f failOpenFS) Open(string) (vfs.File, error) { return nil, f.openErr }

// TestReadWALOpenErrors pins the recovery-time error taxonomy: only a
// missing segment reads as empty; any other open failure (EIO, EACCES)
// must propagate, or recovery would silently drop acknowledged writes.
func TestReadWALOpenErrors(t *testing.T) {
	data, err := readWAL(failOpenFS{openErr: iofs.ErrNotExist}, "wal-1.log")
	if err != nil || data != nil {
		t.Fatalf("missing segment: got (%v, %v), want empty segment", data, err)
	}
	eio := errors.New("injected I/O error")
	if _, err := readWAL(failOpenFS{openErr: eio}, "wal-1.log"); !errors.Is(err, eio) {
		t.Fatalf("transient open failure returned %v; must propagate so recovery fails loudly", err)
	}
}

// TestAppendRecordRejectsInvalid checks undecodable requests cannot be
// framed (the WAL can only ever contain decodable records).
func TestAppendRecordRejectsInvalid(t *testing.T) {
	if _, err := AppendRecord(nil, wire.Request{Op: wire.OpWrite, Block: 1}); err == nil {
		t.Fatal("write without payload framed")
	}
	if _, err := AppendRecord(nil, wire.Request{Op: 77, Block: 1}); err == nil {
		t.Fatal("unknown op framed")
	}
}

// discardFile is a vfs.File whose writes go nowhere.
type discardFile struct{ vfs.File }

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }

// TestWALAppendAllocationFree: at steady state a WAL append encodes the
// record in place in the segment's reused frame buffer, allocating
// nothing per record.
func TestWALAppendAllocationFree(t *testing.T) {
	w := &wal{f: discardFile{}}
	req := wire.Request{Op: wire.OpWrite, ID: 9, Block: 3, Data: bytes.Repeat([]byte{7}, 64)}
	if _, err := w.append(req); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := w.append(req); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("%v allocations per WAL append, want 0", n)
	}
}
