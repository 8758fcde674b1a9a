package sim

import (
	"fmt"
	"os"
	"slices"
	"time"

	"repro/aboram"
	"repro/internal/durable"
	"repro/internal/report"
	"repro/internal/rng"
)

// Snapshot bench mode: the durable engine's checkpoint cost, full-base
// rotations against delta rotations, as a function of how much of the
// store an epoch actually touches. Both columns run the one engine
// configuration through the one chain writer and differ only in
// BaseEvery: 1 (every rotation a full base) against effectively
// infinite (every rotation after Open's base a delta). The claim being
// measured is the one internal/durable's checkpoint chain makes: the
// serving pause and the encoded checkpoint size should be proportional
// to the epoch's dirty set, not to the tree — so at a lightly-touched
// epoch both should drop by an order of magnitude, and at a
// fully-rewritten epoch the delta should cost about what the full image
// does.

// snapshotFractions are the touched-per-epoch fractions the table sweeps.
var snapshotFractions = []float64{0.01, 0.10, 0.50, 1.00}

// snapshotEpochs is how many forced checkpoints each cell measures; the
// cell reports the median, which shrugs off the occasional epoch where
// the container steals the CPU mid-publish.
const snapshotEpochs = 5

// snapshotCell is one engine's median checkpoint cost at one fraction.
type snapshotCell struct {
	pause time.Duration // median serving pause per forced checkpoint
	bytes uint64        // median encoded checkpoint size
}

// runSnapshotCell measures one (cadence, fraction) cell: populate the
// store, cut a first checkpoint so the measured epochs start clean, then
// alternate "touch frac·N random blocks" with a forced rotation,
// averaging the engine's own pause and size counters.
func runSnapshotCell(p Params, delta bool, frac float64) (snapshotCell, error) {
	dir, err := os.MkdirTemp("", "aboram-snapbench-")
	if err != nil {
		return snapshotCell{}, err
	}
	defer os.RemoveAll(dir)

	opt := durable.Options{
		Dir:           dir,
		ORAM:          aboram.Options{Levels: p.Levels, Seed: p.Seed, EncryptionKey: []byte("0123456789abcdef")},
		SnapshotEvery: 1 << 30, // rotations happen only when forced below
		BaseEvery:     1,       // every rotation a full base
		SyncPublish:   true,    // directories settle before the next epoch starts
	}
	if delta {
		opt.BaseEvery = 1 << 30 // after Open's base, every forced rotation is a delta
	}
	e, err := durable.Open(opt)
	if err != nil {
		return snapshotCell{}, err
	}
	defer e.Close()

	n := e.NumBlocks()
	blockB := e.BlockSize()
	r := rng.New(p.Seed ^ 0x736e6170) // "snap"
	buf := make([]byte, blockB)
	write := func(blk int64) error {
		for i := range buf {
			buf[i] = byte(r.Uint64())
		}
		return e.Write(blk, buf)
	}

	// Populate, then cut: the measured epochs' dirty sets must cover only
	// their own writes, not store construction.
	pop := n
	if pop > 4096 {
		pop = 4096
	}
	for b := int64(0); b < pop; b++ {
		if err := write(b); err != nil {
			return snapshotCell{}, err
		}
	}
	if err := e.BatchSync(); err != nil {
		return snapshotCell{}, err
	}
	if err := e.Snapshot(); err != nil {
		return snapshotCell{}, err
	}

	touched := int64(frac*float64(n) + 0.5)
	if touched < 1 {
		touched = 1
	}
	pauses := make([]uint64, 0, snapshotEpochs)
	sizes := make([]uint64, 0, snapshotEpochs)
	for ep := 0; ep < snapshotEpochs; ep++ {
		for i := int64(0); i < touched; i++ {
			if err := write(int64(r.Uint64n(uint64(n)))); err != nil {
				return snapshotCell{}, err
			}
		}
		// The batch-boundary flush the scheduler would issue before the
		// deferred checkpoint runs: the epoch's records are durable before
		// the measured pause starts.
		if err := e.BatchSync(); err != nil {
			return snapshotCell{}, err
		}
		before := e.Stats().SnapshotPauseNanos
		if err := e.Snapshot(); err != nil {
			return snapshotCell{}, err
		}
		st := e.Stats()
		pauses = append(pauses, st.SnapshotPauseNanos-before)
		sizes = append(sizes, st.LastSnapshotBytes)
	}
	slices.Sort(pauses)
	slices.Sort(sizes)
	return snapshotCell{
		pause: time.Duration(pauses[len(pauses)/2]),
		bytes: sizes[len(sizes)/2],
	}, nil
}

// RunSnapshot benchmarks checkpoint pause and encoded size, full-image
// vs delta rotations, at epochs touching 1%, 10%, 50%, and 100% of the
// block address space. Like `serve` and `shards` the numbers are
// wall-clock and machine-dependent: excluded from `-exp all`, run by
// name.
func RunSnapshot(p Params) ([]*report.Table, error) {
	t := report.New("incremental durability: checkpoint pause and size, full vs delta",
		"touched", "full pause", "full bytes", "delta pause", "delta bytes", "pause ratio", "bytes ratio")
	for _, frac := range snapshotFractions {
		full, err := runSnapshotCell(p, false, frac)
		if err != nil {
			return nil, fmt.Errorf("snapshot full %.0f%%: %w", frac*100, err)
		}
		delta, err := runSnapshotCell(p, true, frac)
		if err != nil {
			return nil, fmt.Errorf("snapshot delta %.0f%%: %w", frac*100, err)
		}
		pauseRatio, bytesRatio := 0.0, 0.0
		if delta.pause > 0 {
			pauseRatio = float64(full.pause) / float64(delta.pause)
		}
		if delta.bytes > 0 {
			bytesRatio = float64(full.bytes) / float64(delta.bytes)
		}
		t.AddRow(
			report.Percent(frac),
			full.pause.Round(time.Microsecond).String(),
			report.Bytes(full.bytes),
			delta.pause.Round(time.Microsecond).String(),
			report.Bytes(delta.bytes),
			report.Float(pauseRatio, 1),
			report.Float(bytesRatio, 1),
		)
	}
	t.AddNote("each row: median of %d measured epochs per engine, %d-level tree, every rotation forced at the epoch boundary; full = BaseEvery 1, delta = BaseEvery ∞", snapshotEpochs, p.Levels)
	t.AddNote("pause is the engine's own SnapshotPauseNanos counter: the in-memory capture (whole image for full, dirty set for delta) plus WAL handoff; the publish is never inside it (records BatchSync-flushed before the pause, as the serving scheduler does)")
	t.AddNote("ratio columns are full/delta: how much the incremental path saves at that epoch's touch rate")
	t.AddNote("wall-clock measurement: numbers vary by machine and are excluded from -exp all")
	return []*report.Table{t}, nil
}
