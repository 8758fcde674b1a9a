package check

import (
	"bytes"
	"errors"
	"maps"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
)

// TestAckModelAdjudication drives the one either-value adjudicator over
// every shape of doubt an oracle can hand it (a never-written block, a
// single in-flight write over acknowledged content, a multi-value batch)
// against every answer recovery can give (the acknowledged content, a
// value in doubt, garbage), and pins pin-then-sweep: whatever recovery
// chose becomes the block's acknowledged content for every later sweep,
// and the doubt is spent.
func TestAckModelAdjudication(t *testing.T) {
	const blockB = 8
	zero := make([]byte, blockB)
	old, v1, v2, junk := Fill(blockB, 5, 1), Fill(blockB, 5, 2), Fill(blockB, 5, 3), Fill(blockB, 5, 9)
	for _, tc := range []struct {
		name    string
		acked   []byte   // block 5's acknowledged content; nil = never written
		doubt   [][]byte // values left in doubt
		reads   []byte   // what recovery surfaces
		wantErr string
		pinned  []byte // block 5's content afterwards; nil = still never written
	}{
		{"never written, reads zeros", nil, [][]byte{v1}, zero, "", nil},
		{"never written, reads the write", nil, [][]byte{v1}, v1, "", v1},
		{"never written, reads garbage", nil, [][]byte{v1}, junk, "holds neither", nil},
		{"single write, reads old", old, [][]byte{v1}, old, "", old},
		{"single write, reads new", old, [][]byte{v1}, v1, "", v1},
		{"single write, reads garbage", old, [][]byte{v1}, junk, "holds neither", nil},
		{"batch, reads old", old, [][]byte{v1, v2}, old, "", old},
		{"batch, reads its first value", old, [][]byte{v1, v2}, v1, "", v1},
		{"batch, reads its last value", old, [][]byte{v1, v2}, v2, "", v2},
		{"batch, reads garbage", old, [][]byte{v1, v2}, junk, "holds neither", nil},
		{"no doubt, reads old", old, nil, old, "", old},
		{"no doubt, reads a lost write", old, nil, zero, "lost or corrupted", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newAckModel(blockB)
			if tc.acked != nil {
				m.ack(5, tc.acked)
			}
			for _, v := range tc.doubt {
				m.doubt(5, v)
			}
			read := func(int64) ([]byte, error) { return tc.reads, nil }
			err := m.verify(read)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("verify = %v, want an error containing %q", err, tc.wantErr)
				}
				if isOpFailure(err) {
					t.Fatalf("wrong content must be a violation, not an adjudicable failure: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("verify = %v, want nil", err)
			}
			if len(m.inDoubt) != 0 {
				t.Fatalf("doubt survived adjudication: %v", m.inDoubt)
			}
			if got, ok := m.acked[5]; (tc.pinned == nil) != !ok || !slices.Equal(got, tc.pinned) {
				t.Fatalf("block pinned to %x (present=%v), want %x", got, ok, tc.pinned)
			}
			// Pinned means pinned: the same answer passes again, any other
			// answer is now a lost acknowledged write.
			if err := m.verify(read); err != nil {
				t.Fatalf("second sweep of the pinned value: %v", err)
			}
			if tc.pinned != nil {
				err := m.verify(func(int64) ([]byte, error) { return junk, nil })
				if err == nil || !strings.Contains(err.Error(), "lost or corrupted") {
					t.Fatalf("sweep after pinning accepted a different value: %v", err)
				}
			}
		})
	}

	// A read the system under test fails is not the model's to judge.
	m := newAckModel(blockB)
	m.ack(1, old)
	boom := errors.New("boom")
	err := m.verify(func(int64) ([]byte, error) { return nil, boom })
	if !isOpFailure(err) || !errors.Is(err, boom) {
		t.Fatalf("read failure came back as %v, want an opFailure wrapping it", err)
	}
}

// seqRule is the sequence-number rule the soak's reads were checked
// against before its workers kept an ackModel: all-zeros while nothing
// is acknowledged, otherwise this worker's payload for this block at an
// issued, unshed seq no older than the last acknowledged one.
func seqRule(worker uint64, block int64, issued, shed map[uint64]bool, lastAcked uint64, got []byte) bool {
	w, seq, b, ok := decodePayload(got)
	if !ok {
		return lastAcked == 0 && !slices.ContainsFunc(got, func(c byte) bool { return c != 0 })
	}
	return w == worker && b == block && issued[seq] && !shed[seq] && seq >= lastAcked
}

// TestAckModelHolds runs the soak's live-read check over every shape of
// write history a worker can build — acknowledged, in doubt, shed — and
// every answer a read can give. Each verdict must equal the
// sequence-number rule's on the same history, holds must never change
// the model, and verify must still pin what a read chose.
func TestAckModelHolds(t *testing.T) {
	const blockB, worker, block = 40, 1, int64(7)
	pay := func(seq uint64) []byte { return encodePayload(blockB, worker, seq, block) }
	zero := make([]byte, blockB)
	type event struct {
		kind byte // 'a' acknowledged, 'd' in doubt, 's' shed
		seq  uint64
	}
	for _, tc := range []struct {
		name    string
		history []event
		got     []byte
		want    bool
	}{
		{"zeros before any ack", nil, zero, true},
		{"zeros with a write in doubt", []event{{'d', 1}}, zero, true},
		{"zeros after an ack", []event{{'a', 1}}, zero, false},
		{"the acked value", []event{{'a', 1}}, pay(1), true},
		{"the acked value under a later doubt", []event{{'a', 1}, {'d', 2}}, pay(1), true},
		{"an in-doubt value after an ack", []event{{'a', 1}, {'d', 2}}, pay(2), true},
		{"one of several values in doubt", []event{{'a', 1}, {'d', 2}, {'d', 3}}, pay(2), true},
		{"a shed value", []event{{'a', 1}, {'s', 2}}, pay(2), false},
		{"a shed value before any ack", []event{{'s', 1}}, pay(1), false},
		{"an in-doubt value superseded by a later ack", []event{{'a', 1}, {'d', 2}, {'a', 3}}, pay(2), false},
		{"an older acked value", []event{{'a', 1}, {'a', 2}}, pay(1), false},
		{"a never-issued value", []event{{'a', 1}}, pay(9), false},
		{"a foreign worker's payload", []event{{'a', 1}}, encodePayload(blockB, worker+1, 1, block), false},
		{"another block's payload", []event{{'a', 1}}, encodePayload(blockB, worker, 1, block+1), false},
		{"garbage", []event{{'a', 1}}, Fill(blockB, block, 9), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newAckModel(blockB)
			issued, shed, lastAcked := make(map[uint64]bool), make(map[uint64]bool), uint64(0)
			for _, e := range tc.history {
				issued[e.seq] = true
				switch e.kind {
				case 'a':
					m.ack(block, pay(e.seq))
					lastAcked = e.seq
				case 'd':
					m.doubt(block, pay(e.seq))
				case 's':
					shed[e.seq] = true
				}
			}
			before := cloneAckModel(m)
			if got := m.holds(block, tc.got); got != tc.want {
				t.Fatalf("holds = %v, want %v", got, tc.want)
			}
			if ref := seqRule(worker, block, issued, shed, lastAcked, tc.got); ref != tc.want {
				t.Fatalf("the sequence-number rule says %v, the table %v", ref, tc.want)
			}
			if !reflect.DeepEqual(m, before) {
				t.Fatalf("holds changed the model: %+v, was %+v", m, before)
			}
		})
	}

	// verify still pins: once a sweep has read a value in doubt, that value
	// is the block's acknowledged content and the older one no longer holds.
	m := newAckModel(blockB)
	m.ack(block, pay(1))
	m.doubt(block, pay(2))
	if err := m.verify(func(int64) ([]byte, error) { return pay(2), nil }); err != nil {
		t.Fatal(err)
	}
	if len(m.inDoubt) != 0 || !m.holds(block, pay(2)) || m.holds(block, pay(1)) {
		t.Fatalf("verify did not pin the value it read: %+v", m)
	}
}

// cloneAckModel deep-copies m, so a test can tell whether it changed.
func cloneAckModel(m *ackModel) *ackModel {
	c := newAckModel(m.blockB)
	for b, v := range m.acked {
		c.acked[b] = bytes.Clone(v)
	}
	for b, vs := range m.inDoubt {
		for _, v := range vs {
			c.inDoubt[b] = append(c.inDoubt[b], bytes.Clone(v))
		}
	}
	return c
}

// TestAckModelSweepOrder pins seed-purity at its root: the block
// sequence verify reads is sorted — in-doubt blocks first, then the
// acknowledged ones — and is the same for two models holding the same
// content built in different insertion orders; a bounded window walks
// that sorted list and covers all of it as the round number advances.
func TestAckModelSweepOrder(t *testing.T) {
	const blockB = 4
	build := func(order []int64) *ackModel {
		m := newAckModel(blockB)
		for _, b := range order {
			m.ack(b, Fill(blockB, b, 1))
			if b < 3 {
				m.doubt(b+100, Fill(blockB, b+100, 2))
			}
		}
		return m
	}
	trace := func(m *ackModel, round, window int) []int64 {
		var seq []int64
		err := m.verifyWindow(func(b int64) ([]byte, error) {
			seq = append(seq, b)
			return m.want(b), nil
		}, round, window)
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	fwd := []int64{9, 2, 7, 4, 0, 5, 3, 8, 1, 6}
	rev := slices.Clone(fwd)
	slices.Reverse(rev)
	a, b := build(fwd), build(rev)
	want := []int64{100, 101, 102, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if sa, sb := trace(a, 0, 0), trace(b, 0, 0); !slices.Equal(sa, want) || !slices.Equal(sb, want) {
		t.Fatalf("read sequences %v / %v, want in-doubt blocks then acknowledged ones, each sorted: %v", sa, sb, want)
	}

	// Windows: a pure function of (model, round), identical across
	// insertion orders, together covering every block.
	seen := make(map[int64]bool)
	for round := 1; round <= 4; round++ {
		wa, wb := trace(a, round, 3), trace(b, round, 3)
		if len(wa) != 3 || !slices.Equal(wa, wb) {
			t.Fatalf("round %d windows differ or are not 3 wide: %v / %v", round, wa, wb)
		}
		for _, blk := range wa {
			seen[blk] = true
		}
	}
	if len(seen) != len(fwd) {
		t.Fatalf("four 3-wide windows over 10 blocks covered only %v", seen)
	}
}

// stubSchedule is a schedule with a two-round budget whose every round
// opens two resources before handing over to the test's body.
type stubSchedule struct {
	t                      *testing.T
	served, opened, closed int
	finalRan               bool
}

func (s *stubSchedule) run(h *ScheduleHeader, draw func() faults.Config, body func(*incarnation) error) error {
	err := h.run(schedule{
		name:      "stub schedule",
		maxRounds: 5,
		done:      func() bool { return s.served >= 2 },
		draw:      draw,
		round: func(inc *incarnation) error {
			if s.opened != s.closed {
				s.t.Errorf("round %d began with the previous round's resources still open", inc.n)
			}
			for i := 0; i < 2; i++ {
				s.opened++
				inc.onClose(func() { s.closed++ })
			}
			return body(inc)
		},
		final: func(inc *incarnation) error {
			if inc.in != nil {
				s.t.Error("the final incarnation runs on an injected filesystem")
			}
			s.finalRan = true
			return nil
		},
	})
	if s.opened != s.closed {
		s.t.Errorf("%d resources opened, %d closed", s.opened, s.closed)
	}
	return err
}

// TestScheduleLoop runs the incarnation loop over stub bodies: a failure
// no kill explains aborts naming its stage; a kill is counted under its
// site and the next incarnation runs; a schedule whose budget never
// moves trips the round bound; and whatever a round opened is closed on
// every one of those paths, before the loop moves on.
func TestScheduleLoop(t *testing.T) {
	dir := t.TempDir()
	killFirstMutation := func() faults.Config { return faults.Config{Seed: 1, CrashAfter: 1} }
	neverKill := func() faults.Config { return faults.Config{Seed: 1} }
	boom := errors.New("boom")

	t.Run("failure without a kill aborts with its stage", func(t *testing.T) {
		h, s := newHeader(7), &stubSchedule{t: t}
		err := s.run(&h, neverKill, func(*incarnation) error { return failed("stub stage", boom) })
		if err == nil || !strings.Contains(err.Error(), "round 1: stub stage failed without a crash") || !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
		if h.Rounds != 1 || h.Crashes != 0 || s.finalRan {
			t.Fatalf("an unexplained failure was counted or survived: %+v, final ran %v", h, s.finalRan)
		}
	})

	t.Run("kills are counted by site until the round budget trips", func(t *testing.T) {
		h, s := newHeader(7), &stubSchedule{t: t}
		err := s.run(&h, killFirstMutation, func(inc *incarnation) error {
			switch inc.n {
			case 1: // the injector fires inside an operation, which reports it
				_, err := inc.fs.Create(filepath.Join(dir, "wal-0000000000000001.log"))
				return failed("append", err)
			case 2: // the injector fires and no operation notices
				inc.fs.Create(filepath.Join(dir, "snap-0000000000000001.tmp"))
			case 3: // the body kills the incarnation by its own means
				inc.site = "frame:wal-batch"
				return failed("ship", boom)
			}
			return nil // rounds 4 and 5: alive, but the budget never moves
		})
		if err == nil || !strings.Contains(err.Error(), "stub schedule 7 made no progress after 5 rounds") {
			t.Fatalf("err = %v, want the round bound", err)
		}
		want := map[string]int{"wal": 1, "snap": 1, "frame:wal-batch": 1}
		if h.Rounds != 5 || h.Crashes != 3 || !maps.Equal(h.Sites, want) {
			t.Fatalf("tallied %+v, want 5 rounds and sites %v", h, want)
		}
		if s.finalRan {
			t.Fatal("a stuck schedule reached its final incarnation")
		}
	})

	t.Run("a violation stands even under a kill", func(t *testing.T) {
		h, s := newHeader(7), &stubSchedule{t: t}
		err := s.run(&h, killFirstMutation, func(inc *incarnation) error {
			inc.fs.Create(filepath.Join(dir, "wal-1.log"))
			return errors.New("block 3 diverged")
		})
		if err == nil || !strings.Contains(err.Error(), "check: round 1: block 3 diverged") || h.Crashes != 0 {
			t.Fatalf("err = %v, crashes %d", err, h.Crashes)
		}
	})

	t.Run("a spent budget ends on the clean incarnation", func(t *testing.T) {
		h, s := newHeader(7), &stubSchedule{t: t}
		err := s.run(&h, neverKill, func(*incarnation) error { s.served++; return nil })
		if err != nil || h.Rounds != 3 || h.Crashes != 0 || !s.finalRan || s.closed != 4 {
			t.Fatalf("err %v, header %+v, final ran %v, %d closed", err, h, s.finalRan, s.closed)
		}
	})
}
