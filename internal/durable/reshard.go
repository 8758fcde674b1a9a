package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"slices"

	"repro/internal/frame"
	"repro/internal/vfs"
)

// Live-reshard migration journal. A resharding P → P′ moves every block
// from the generation-G shard trees into a fresh set of P′ trees under
// generation G+1 while the daemon keeps serving. The journal is the
// single crash-safe source of truth for that process: which generation
// is authoritative, whether a migration is in flight, how far its
// watermark has advanced, and whether it is rolling back.
//
// Records are frames of internal/frame, like the WAL's:
//
//	body := op u8 | gen u64 BE | a u64 BE | b u64 BE
//
// but the journal file itself is replaced whole on every append
// (temp + fsync + rename + dir fsync) rather than appended in place:
// appends are rare — one per migrated range — and a whole-file publish
// means a crash mid-append leaves the previous journal intact rather
// than a torn tail. The scanner still accepts the longest valid prefix
// of an arbitrary image, so even externally damaged journals degrade to
// a consistent earlier state instead of a panic.
const (
	reshardLogName = "reshard.log"

	reshardBody = 1 + 8 + 8 + 8
)

// maxReshardShards bounds shard counts to what the wire admin op can
// carry (a uint16 field).
const maxReshardShards = 1<<16 - 1

// ReshardOp is a journal record kind.
type ReshardOp uint8

// Journal record kinds, in the order a migration emits them:
// Begin, Range..., then either Cutover, or AbortBegin, Range..., Aborted.
const (
	// ReshardBegin opens migration gen: From-shard layout → To-shard
	// layout. The target generation's trees start empty.
	ReshardBegin ReshardOp = 1
	// ReshardRange records that blocks [0, Watermark) are now
	// authoritative in the target layout (during rollback the watermark
	// retreats instead: blocks >= Watermark have been copied back).
	ReshardRange ReshardOp = 2
	// ReshardCutover makes the target generation authoritative; the old
	// generation's trees are dead and may be pruned.
	ReshardCutover ReshardOp = 3
	// ReshardAbortBegin marks the migration as rolling back toward the
	// old layout.
	ReshardAbortBegin ReshardOp = 4
	// ReshardAborted marks the rollback complete; the target
	// generation's trees are dead and may be pruned.
	ReshardAborted ReshardOp = 5
)

// String names a record kind for logs.
func (op ReshardOp) String() string {
	switch op {
	case ReshardBegin:
		return "begin"
	case ReshardRange:
		return "range"
	case ReshardCutover:
		return "cutover"
	case ReshardAbortBegin:
		return "abort-begin"
	case ReshardAborted:
		return "aborted"
	}
	return fmt.Sprintf("reshard-op(%d)", uint8(op))
}

// ReshardRecord is one decoded journal record. Which fields are
// meaningful depends on Op: Begin carries From and To, Range carries
// Watermark, Cutover carries To; AbortBegin and Aborted carry only Gen.
type ReshardRecord struct {
	Op        ReshardOp
	Gen       uint64
	From, To  int
	Watermark int64
}

// validate checks the canonical-form rules the codec enforces.
func (r ReshardRecord) validate() error {
	if r.Gen == 0 {
		return fmt.Errorf("durable: reshard record %s: generation 0 is the pre-reshard layout", r.Op)
	}
	shardsOK := func(n int) bool { return n >= 1 && n <= maxReshardShards }
	switch r.Op {
	case ReshardBegin:
		if !shardsOK(r.From) || !shardsOK(r.To) || r.From == r.To {
			return fmt.Errorf("durable: reshard begin: bad shard counts %d -> %d", r.From, r.To)
		}
		if r.Watermark != 0 {
			return errors.New("durable: reshard begin: unexpected watermark")
		}
	case ReshardRange:
		if r.Watermark < 0 {
			return fmt.Errorf("durable: reshard range: negative watermark %d", r.Watermark)
		}
		if r.From != 0 || r.To != 0 {
			return errors.New("durable: reshard range: unexpected shard counts")
		}
	case ReshardCutover:
		if !shardsOK(r.To) {
			return fmt.Errorf("durable: reshard cutover: bad shard count %d", r.To)
		}
		if r.From != 0 || r.Watermark != 0 {
			return errors.New("durable: reshard cutover: unexpected fields")
		}
	case ReshardAbortBegin, ReshardAborted:
		if r.From != 0 || r.To != 0 || r.Watermark != 0 {
			return fmt.Errorf("durable: reshard %s: unexpected fields", r.Op)
		}
	default:
		return fmt.Errorf("durable: unknown reshard op %d", uint8(r.Op))
	}
	return nil
}

// fields packs the per-kind payload into the two generic u64 slots.
func (r ReshardRecord) fields() (a, b uint64) {
	switch r.Op {
	case ReshardBegin:
		return uint64(r.From), uint64(r.To)
	case ReshardRange:
		return uint64(r.Watermark), 0
	case ReshardCutover:
		return uint64(r.To), 0
	}
	return 0, 0
}

// unpackReshard rebuilds a record from the generic slots, rejecting
// non-canonical encodings so scan/re-encode is an identity.
func unpackReshard(op ReshardOp, gen, a, b uint64) (ReshardRecord, error) {
	rec := ReshardRecord{Op: op, Gen: gen}
	switch op {
	case ReshardBegin:
		rec.From, rec.To = int(a), int(b)
		if uint64(rec.From) != a || uint64(rec.To) != b {
			return rec, errors.New("durable: reshard begin: shard count overflow")
		}
	case ReshardRange:
		rec.Watermark = int64(a)
		if b != 0 || rec.Watermark < 0 {
			return rec, errors.New("durable: reshard range: non-canonical")
		}
	case ReshardCutover:
		rec.To = int(a)
		if uint64(rec.To) != a || b != 0 {
			return rec, errors.New("durable: reshard cutover: non-canonical")
		}
	default:
		if a != 0 || b != 0 {
			return rec, errors.New("durable: reshard record: non-canonical")
		}
	}
	return rec, rec.validate()
}

// AppendReshardRecord appends the framed encoding of rec to dst.
func AppendReshardRecord(dst []byte, rec ReshardRecord) ([]byte, error) {
	if err := rec.validate(); err != nil {
		return nil, err
	}
	a, b := rec.fields()
	return frame.Append(dst, func(body []byte) ([]byte, error) {
		body = append(body, byte(rec.Op))
		for _, v := range [...]uint64{rec.Gen, a, b} {
			body = binary.BigEndian.AppendUint64(body, v)
		}
		return body, nil
	})
}

// ScanReshardJournal parses a journal image into its longest valid
// record prefix. Like ScanWAL it never fails and never panics: it
// returns the decoded records, the offset where the valid prefix ends,
// and whether damaged bytes follow it.
func ScanReshardJournal(data []byte) (recs []ReshardRecord, off int, torn bool) {
	return scanRecords(data, func(body []byte) (ReshardRecord, error) {
		if len(body) != reshardBody {
			return ReshardRecord{}, fmt.Errorf("durable: reshard record of %d bytes", len(body))
		}
		u64 := binary.BigEndian.Uint64
		return unpackReshard(ReshardOp(body[0]), u64(body[1:]), u64(body[9:]), u64(body[17:]))
	})
}

// ReshardProgress describes an in-flight migration.
type ReshardProgress struct {
	Gen       uint64 // target generation
	From, To  int    // shard counts
	Watermark int64  // blocks [0, Watermark) live in the target layout
	Aborting  bool   // rolling back toward the From layout
}

// ReshardLayout is what a journal resolves to: the authoritative
// generation and shard count, plus the in-flight migration if any.
type ReshardLayout struct {
	Gen    uint64 // authoritative generation (0 = pre-reshard layout)
	Shards int    // authoritative shard count; the caller's default if the journal never said
	MaxGen uint64 // highest generation any record mentions (next migration uses MaxGen+1)
	Active *ReshardProgress
}

// ResolveReshard replays journal records into the layout they describe.
// defaultShards is the configured shard count of the pre-reshard layout
// (what the daemon was started with); pass 0 to accept whatever the
// first Begin claims. Records that do not form a legal migration
// history are an error — the journal is written atomically, so an
// illegal sequence means external damage, and recovery must fail loudly
// rather than guess a layout.
func ResolveReshard(recs []ReshardRecord, defaultShards int) (ReshardLayout, error) {
	lay := ReshardLayout{Shards: defaultShards}
	for i, rec := range recs {
		if err := rec.validate(); err != nil {
			return lay, fmt.Errorf("record %d: %w", i, err)
		}
		lay.MaxGen = max(lay.MaxGen, rec.Gen)
		switch rec.Op {
		case ReshardBegin:
			if lay.Active != nil {
				return lay, fmt.Errorf("durable: reshard record %d: begin gen %d while gen %d is in flight", i, rec.Gen, lay.Active.Gen)
			}
			if rec.Gen <= lay.Gen {
				return lay, fmt.Errorf("durable: reshard record %d: begin gen %d not after gen %d", i, rec.Gen, lay.Gen)
			}
			if lay.Shards != 0 && rec.From != lay.Shards {
				return lay, fmt.Errorf("durable: reshard record %d: begin from %d shards but layout has %d", i, rec.From, lay.Shards)
			}
			lay.Shards = rec.From
			lay.Active = &ReshardProgress{Gen: rec.Gen, From: rec.From, To: rec.To}
		case ReshardRange:
			if lay.Active == nil || lay.Active.Gen != rec.Gen {
				return lay, fmt.Errorf("durable: reshard record %d: range for gen %d with no matching migration", i, rec.Gen)
			}
			lay.Active.Watermark = rec.Watermark
		case ReshardCutover:
			if lay.Active == nil || lay.Active.Gen != rec.Gen || lay.Active.Aborting || rec.To != lay.Active.To {
				return lay, fmt.Errorf("durable: reshard record %d: cutover for gen %d does not match in-flight migration", i, rec.Gen)
			}
			lay.Gen, lay.Shards, lay.Active = rec.Gen, rec.To, nil
		case ReshardAbortBegin:
			if lay.Active == nil || lay.Active.Gen != rec.Gen || lay.Active.Aborting {
				return lay, fmt.Errorf("durable: reshard record %d: abort-begin for gen %d with no matching migration", i, rec.Gen)
			}
			lay.Active.Aborting = true
		case ReshardAborted:
			if lay.Active == nil || lay.Active.Gen != rec.Gen || !lay.Active.Aborting {
				return lay, fmt.Errorf("durable: reshard record %d: aborted for gen %d with no matching rollback", i, rec.Gen)
			}
			lay.Active = nil
		}
	}
	return lay, nil
}

// ReshardJournal is the on-disk journal for one data directory. It is
// not safe for concurrent Appends; the resharder serializes them.
type ReshardJournal struct {
	fs   vfs.FS
	dir  string
	recs []ReshardRecord
}

// OpenReshardJournal loads dir's journal. A missing file is an empty
// journal; a damaged tail is truncated at the last intact record (the
// whole-file publish makes that possible only under external damage,
// and the truncated state is always a consistent earlier layout).
func OpenReshardJournal(fsys vfs.FS, dir string) (*ReshardJournal, error) {
	data, err := readWAL(fsys, filepath.Join(dir, reshardLogName))
	if err != nil {
		return nil, err
	}
	j := &ReshardJournal{fs: fsys, dir: dir}
	j.recs, _, _ = ScanReshardJournal(data)
	return j, nil
}

// Records returns a copy of the journal's records.
func (j *ReshardJournal) Records() []ReshardRecord {
	return append([]ReshardRecord(nil), j.recs...)
}

// Append durably publishes the journal extended by rec: the whole image
// is written to a temp file, fsynced, renamed over the live journal,
// and the directory fsynced. On error the in-memory (and on-disk)
// journal is unchanged.
func (j *ReshardJournal) Append(rec ReshardRecord) error {
	var img []byte
	var err error
	for _, r := range append(j.Records(), rec) {
		if img, err = AppendReshardRecord(img, r); err != nil {
			return err
		}
	}
	if _, err := publish(j.fs, j.dir, reshardLogName, img, false); err != nil {
		return fmt.Errorf("durable: reshard journal: %w", err)
	}
	j.recs = append(j.recs, rec)
	return nil
}

// GenDir returns the directory of generation gen under the data dir:
// the data dir itself for generation 0 (the pre-reshard layout) and
// dir/gen-<g> for generations a reshard created.
func GenDir(dir string, gen uint64) string {
	if gen == 0 {
		return dir
	}
	return filepath.Join(dir, fmt.Sprintf("gen-%06d", gen))
}

// ShardDir returns shard i's data directory within a generation.
// Generation 0 keeps the layout aboramd has always used (the data dir
// itself for a single shard, shard-<i> subdirectories otherwise); later
// generations always use shard-<i> subdirectories.
func ShardDir(dir string, gen uint64, shard, shards int) string {
	if gen == 0 && shards <= 1 {
		return dir
	}
	return filepath.Join(GenDir(dir, gen), fmt.Sprintf("shard-%d", shard))
}

// PruneGens best-effort removes the trees of dead generations 1..maxGen
// — every generation not listed in keep. It returns how many
// generation directories were removed; errors are swallowed (a
// generation that would not delete is retried after the next reshard).
func PruneGens(fsys vfs.FS, dir string, maxGen uint64, keep ...uint64) int {
	removed := 0
	for gen := uint64(1); gen <= maxGen; gen++ {
		if !slices.Contains(keep, gen) && fsys.RemoveAll(GenDir(dir, gen)) == nil {
			removed++
		}
	}
	return removed
}
