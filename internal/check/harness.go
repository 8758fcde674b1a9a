package check

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"repro/aboram"
	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/vfs"
)

// This file is the core the kill-recover oracles share, each part
// written once: the acknowledged-write model (ackModel), the seeded
// incarnation loop with its one adjudication rule (ScheduleHeader.run,
// incarnation.adjudicate), and the report header their reports embed.
// All six oracles are round bodies on it: crash, group commit, retry,
// live reshard, failover, and the chaos soak, which keeps only its
// exactly-once ledger beside the model.

// ScheduleHeader opens every kill-recover report.
type ScheduleHeader struct {
	Seed        uint64
	Rounds      int            // incarnations, crashed or clean, the final one included
	Crashes     int            // injected kills: while serving, recovering, or tearing down
	Sites       map[string]int // kill-site histogram: crashSiteKind buckets, plus sites an oracle declares itself
	AckedWrites int            // writes acknowledged across all rounds
}

func newHeader(seed uint64) ScheduleHeader {
	return ScheduleHeader{Seed: seed, Sites: make(map[string]int)}
}

func (h *ScheduleHeader) String() string {
	return fmt.Sprintf("seed %d: %d rounds, %d crashes (sites %v), %d acked writes",
		h.Seed, h.Rounds, h.Crashes, h.Sites, h.AckedWrites)
}

// oracleLevels is the tree height every kill-recover oracle runs at: 8,
// the scheme minimum, so a schedule of a few hundred ops rewrites blocks
// instead of touching each once.
const oracleLevels = 8

// oracleORAM is the tree configuration the oracles' engines run.
func oracleORAM(seed uint64) aboram.Options {
	return aboram.Options{Levels: oracleLevels, Seed: seed, EncryptionKey: oracleKey}
}

// oracleGeometry probes the address space and block size of that tree.
func oracleGeometry(seed uint64) (numBlocks int64, blockB int, err error) {
	probe, err := aboram.New(oracleORAM(seed))
	if err != nil {
		return 0, 0, err
	}
	return probe.NumBlocks(), probe.BlockSize(), nil
}

// ackModel is the acknowledged-write model: the content every block
// must hold, and the blocks an unacknowledged write left in doubt. A
// write that failed (or whose ack was never released) was acknowledged to
// nobody, so recovery may surface the block's acknowledged content or a
// value such a write carried — one candidate for a single in-flight
// write, several when a whole batch was in flight — but nothing else.
// Anything that touches an engine walks the model in sorted block order,
// so the ORAM access sequence — and with it every snapshot byte and kill
// site downstream — is a function of the seed, never of Go's map order.
type ackModel struct {
	blockB  int
	acked   map[int64][]byte   // acknowledged content; absent = never written, reads as zeros
	inDoubt map[int64][][]byte // values the unacknowledged write(s) may have left
}

func newAckModel(blockB int) *ackModel {
	return &ackModel{blockB: blockB, acked: make(map[int64][]byte), inDoubt: make(map[int64][][]byte)}
}

// want is the content block must hold: its latest acknowledged write,
// or zeros.
func (m *ackModel) want(block int64) []byte { return expect(m.acked, m.blockB, block) }

// ack records an acknowledged write; the acknowledgment also ends any
// doubt about the block.
func (m *ackModel) ack(block int64, data []byte) {
	m.acked[block] = data
	delete(m.inDoubt, block)
}

// doubt records a write that was applied, or begun, and never
// acknowledged.
func (m *ackModel) doubt(block int64, data []byte) {
	m.inDoubt[block] = append(m.inDoubt[block], data)
}

// holds reports whether got is a value block may hold while writes are
// still in flight: its acknowledged content or a value in doubt. Unlike
// verify it pins nothing, because a live read may see an applied but
// unsynced write that a later kill legally loses.
func (m *ackModel) holds(block int64, got []byte) bool {
	return bytes.Equal(got, m.want(block)) || slices.ContainsFunc(m.inDoubt[block], func(v []byte) bool { return bytes.Equal(got, v) })
}

// sortedKeys lists a block-keyed map's keys in ascending order.
func sortedKeys[V any](m map[int64]V) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// blocks lists the acknowledged blocks in ascending order.
func (m *ackModel) blocks() []int64 { return sortedKeys(m.acked) }

// verify checks recovered state, as read serves it, against the model.
// Every in-doubt block is adjudicated first: it must hold its
// acknowledged content or one of the values in doubt, and is pinned to
// whichever recovery chose. Then every acknowledged block is swept
// byte-exact, in sorted order.
//
// A failing read comes back as an opFailure for the incarnation's
// adjudicator; wrong content is a contract violation outright.
func (m *ackModel) verify(read func(int64) ([]byte, error)) error {
	return m.verifyWindow(read, 0, 0)
}

// verifyWindow is verify with the sweep bounded to window blocks (0 =
// all): a slice of the sorted list that advances with round, so that
// successive rounds cover the whole model without an RNG draw. Loss is
// permanent, so the exhaustive verify a schedule ends on still catches
// anything a window missed, just later.
func (m *ackModel) verifyWindow(read func(int64) ([]byte, error), round, window int) error {
	for _, blk := range sortedKeys(m.inDoubt) {
		got, err := read(blk)
		if err != nil {
			return failed(fmt.Sprintf("reading in-doubt block %d", blk), err)
		}
		if !bytes.Equal(got, m.want(blk)) {
			i := slices.IndexFunc(m.inDoubt[blk], func(v []byte) bool { return bytes.Equal(got, v) })
			if i < 0 {
				return fmt.Errorf("in-doubt block %d holds neither its acknowledged content nor a value an unacknowledged write carried", blk)
			}
			m.acked[blk] = m.inDoubt[blk][i]
		}
		delete(m.inDoubt, blk)
	}
	blocks := m.blocks()
	if window > 0 && window < len(blocks) {
		start := round * window % len(blocks)
		blocks = slices.Concat(blocks[start:], blocks[:start])[:window]
	}
	for _, blk := range blocks {
		got, err := read(blk)
		if err != nil {
			return failed(fmt.Sprintf("reading block %d", blk), err)
		}
		if !bytes.Equal(got, m.acked[blk]) {
			return fmt.Errorf("acknowledged write to block %d lost or corrupted after recovery", blk)
		}
	}
	return nil
}

// commitOne drives one write through a durable engine the way the
// scheduler drives a batch of one: apply and append, BatchSync — the
// acknowledgment point — then MaybeCheckpoint for whatever the write
// made due. acked reports whether the write reached its
// acknowledgment; an error alongside it is the checkpoint's.
func commitOne(eng *durable.Engine, id uint64, block int64, data []byte) (acked bool, err error) {
	if err := eng.WriteIdentified(id, block, data); err != nil {
		return false, err
	}
	if err := eng.BatchSync(); err != nil {
		return false, err
	}
	return true, eng.MaybeCheckpoint()
}

// opFailure is an operation the system under test failed — as opposed
// to a wrong answer, which is a violation whatever else happened. Only
// the adjudicator decides what a failure means.
type opFailure struct {
	stage string
	err   error
}

func (f *opFailure) Error() string { return f.stage + ": " + f.err.Error() }
func (f *opFailure) Unwrap() error { return f.err }

// failed marks err as the failure of the named stage, for adjudicate.
func failed(stage string, err error) error { return &opFailure{stage: stage, err: err} }

// isOpFailure reports whether err is (or wraps) a failed operation
// rather than a violation.
func isOpFailure(err error) bool {
	var f *opFailure
	return errors.As(err, &f)
}

// incarnation is one life of the system under test: a filesystem that
// dies at a seeded mutation count (or the real one, for the final clean
// incarnation), plus whatever the round body opened on it.
type incarnation struct {
	n       int              // 1-based round number
	in      *faults.Injector // nil on the clean incarnation
	fs      vfs.FS
	site    string // set by a body that killed the incarnation by its own means (the failover oracle's link kills)
	closers []func()
}

// drawKill draws the usual injector configuration from an oracle's
// schedule stream: die at a seeded mutation count within window, tearing
// the fatal write.
func drawKill(r *rng.Source, window int) faults.Config {
	return faults.Config{Seed: r.Uint64(), CrashAfter: 1 + int(r.Uint64n(uint64(window))), TornWrites: true}
}

// newIncarnation draws round n's injector — the one place a
// filesystem-kill incarnation is made.
func newIncarnation(n int, cfg faults.Config) *incarnation {
	in := faults.New(cfg)
	return &incarnation{n: n, in: in, fs: faults.WrapFS(vfs.OS{}, in)}
}

func (inc *incarnation) String() string {
	if inc.in == nil {
		return "final recovery"
	}
	return fmt.Sprintf("round %d", inc.n)
}

// onClose registers teardown for something the round opened. Closers run
// last-opened-first on every exit path, before the round is adjudicated:
// closes sync WALs, so the kill may still land there.
func (inc *incarnation) onClose(f func()) { inc.closers = append(inc.closers, f) }

func (inc *incarnation) close() {
	for len(inc.closers) > 0 {
		f := inc.closers[len(inc.closers)-1]
		inc.closers = inc.closers[:len(inc.closers)-1]
		f()
	}
}

// open recovers a durable engine (opt.FS should be the incarnation's
// filesystem) and owns its Close.
func (inc *incarnation) open(opt durable.Options) (*durable.Engine, error) {
	eng, err := durable.Open(opt)
	if err != nil {
		return nil, failed("recovery", err)
	}
	inc.onClose(func() { eng.Close() }) // post-kill this reports the crash; either way the incarnation is over
	return eng, nil
}

// adjudicate is the one place the kill-recover rule is written. A
// violation the body found stands, kill or no kill. A failed operation
// is a contract violation too unless the incarnation was killed — by
// its injector or by the body's own declared kill; the durability stack
// publishes atomically, so nothing but a kill may make it fail. A
// killed incarnation, whether or not any operation noticed, returns the
// site to count: nothing it left unacknowledged is owed to anyone, and
// the next incarnation recovers.
func (inc *incarnation) adjudicate(err error) (site string, _ error) {
	var f *opFailure
	switch {
	case err != nil && !errors.As(err, &f):
		return "", fmt.Errorf("check: %v: %w", inc, err)
	case inc.site != "":
		return inc.site, nil
	case inc.in != nil && inc.in.Crashed():
		return crashSiteKind(inc.in.CrashSite()), nil
	case err != nil:
		return "", fmt.Errorf("check: %v: %s failed without a crash: %w", inc, f.stage, f.err)
	}
	return "", nil
}

// schedule is what one oracle brings to the loop: everything else about
// a seeded kill-recover schedule is the same for all of them.
type schedule struct {
	name      string // names the oracle in the no-progress error
	maxRounds int    // a kill consumes no ops, so incarnations are bounded explicitly
	done      func() bool
	draw      func() faults.Config     // this round's injector, drawn from the oracle's own stream
	round     func(*incarnation) error // recover, verify, serve until the kill or the budget
	final     func(*incarnation) error // clean recovery and exhaustive read-back
}

// run drives s to completion: faulted incarnations until the oracle says
// its budget is spent, then one clean incarnation on the real
// filesystem.
func (h *ScheduleHeader) run(s schedule) error {
	for !s.done() {
		if h.Rounds >= s.maxRounds {
			return fmt.Errorf("check: %s %d made no progress after %d rounds", s.name, h.Seed, h.Rounds)
		}
		h.Rounds++
		if err := h.settle(newIncarnation(h.Rounds, s.draw()), s.round); err != nil {
			return err
		}
	}
	h.Rounds++
	return h.settle(&incarnation{n: h.Rounds, fs: vfs.OS{}}, s.final)
}

// settle runs one incarnation's body, tears down what it opened, and
// adjudicates the outcome into the header.
func (h *ScheduleHeader) settle(inc *incarnation, body func(*incarnation) error) error {
	err := func() error {
		defer inc.close()
		return body(inc)
	}()
	site, err := inc.adjudicate(err)
	if site != "" {
		h.Crashes++
		h.Sites[site]++
	}
	return err
}
