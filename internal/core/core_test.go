package core

import (
	"testing"
	"testing/quick"

	"repro/internal/ringoram"
)

func TestDeadQValidation(t *testing.T) {
	cases := []struct{ lo, hi, cap int }{
		{-1, 5, 10}, {5, 4, 10}, {2, 5, 0},
	}
	for _, c := range cases {
		if _, err := NewDeadQ(c.lo, c.hi, c.cap); err == nil {
			t.Errorf("NewDeadQ(%d, %d, %d) accepted", c.lo, c.hi, c.cap)
		}
	}
	q, err := NewDeadQ(4, 9, 100)
	if err != nil {
		t.Fatal(err)
	}
	if q.TrackedLevels() != 6 {
		t.Fatalf("tracked levels = %d", q.TrackedLevels())
	}
}

func TestDeadQFIFOOrder(t *testing.T) {
	q := MustNewDeadQ(3, 5, 10)
	refs := []ringoram.SlotRef{{Bucket: 1, Slot: 0}, {Bucket: 2, Slot: 1}, {Bucket: 3, Slot: 2}}
	for _, r := range refs {
		if !q.Offer(4, r) {
			t.Fatal("offer rejected")
		}
	}
	got := q.Claim(4, 2)
	if len(got) != 2 || got[0] != refs[0] || got[1] != refs[1] {
		t.Fatalf("FIFO violated: %+v", got)
	}
	got = q.Claim(4, 5)
	if len(got) != 1 || got[0] != refs[2] {
		t.Fatalf("remainder wrong: %+v", got)
	}
	if q.Len(4) != 0 {
		t.Fatalf("queue not drained: %d", q.Len(4))
	}
}

func TestDeadQLevelIsolation(t *testing.T) {
	q := MustNewDeadQ(3, 5, 10)
	q.Offer(3, ringoram.SlotRef{Bucket: 7})
	if got := q.Claim(4, 1); len(got) != 0 {
		t.Fatalf("level 4 claim returned level 3 slot: %+v", got)
	}
	if got := q.Claim(3, 1); len(got) != 1 {
		t.Fatal("level 3 slot lost")
	}
}

func TestDeadQRejectsUntracked(t *testing.T) {
	q := MustNewDeadQ(3, 5, 10)
	if q.Offer(2, ringoram.SlotRef{}) || q.Offer(6, ringoram.SlotRef{}) {
		t.Fatal("untracked level accepted")
	}
	if q.Stats().RejectedLevel != 2 {
		t.Fatalf("stats: %+v", q.Stats())
	}
	if q.Len(2) != 0 || q.Len(99) != 0 {
		t.Fatal("Len for untracked levels must be 0")
	}
	if q.Claim(2, 1) != nil {
		t.Fatal("claim outside range returned slots")
	}
}

func TestDeadQCapacity(t *testing.T) {
	q := MustNewDeadQ(0, 0, 3)
	for i := 0; i < 3; i++ {
		if !q.Offer(0, ringoram.SlotRef{Bucket: int64(i)}) {
			t.Fatal("offer under capacity rejected")
		}
	}
	if q.Offer(0, ringoram.SlotRef{Bucket: 99}) {
		t.Fatal("offer over capacity accepted")
	}
	st := q.Stats()
	if st.Accepted != 3 || st.RejectedFull != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDeadQReleaseRepools(t *testing.T) {
	q := MustNewDeadQ(0, 0, 2)
	if !q.Release(0, ringoram.SlotRef{Bucket: 5}) {
		t.Fatal("release rejected with space available")
	}
	if got := q.Claim(0, 1); len(got) != 1 || got[0].Bucket != 5 {
		t.Fatal("released slot not claimable")
	}
	q.Offer(0, ringoram.SlotRef{})
	q.Offer(0, ringoram.SlotRef{Slot: 1})
	if q.Release(0, ringoram.SlotRef{Slot: 2}) {
		t.Fatal("release into full queue accepted")
	}
	if q.Release(7, ringoram.SlotRef{}) {
		t.Fatal("release outside tracked range accepted")
	}
}

// Property: the queue never loses or duplicates slots across arbitrary
// offer/claim interleavings.
func TestQuickDeadQConservation(t *testing.T) {
	f := func(actions []uint8) bool {
		q := MustNewDeadQ(0, 0, 16)
		nextID := int64(0)
		inQueue := 0
		for _, a := range actions {
			if a%3 == 0 {
				if q.Offer(0, ringoram.SlotRef{Bucket: nextID}) {
					inQueue++
				}
				nextID++
			} else {
				want := int(a % 3) // 1 or 2
				got := q.Claim(0, want)
				inQueue -= len(got)
			}
			if q.Len(0) != inQueue {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuildAllSchemes(t *testing.T) {
	opt := DefaultOptions(12, 1)
	for _, s := range Schemes() {
		cfg, dq, err := Build(s, opt)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s config invalid: %v", s, err)
		}
		needsQ := s == SchemeDR || s == SchemeAB
		if (dq != nil) != needsQ {
			t.Errorf("%s: DeadQ presence = %v", s, dq != nil)
		}
	}
	if _, _, err := Build(Scheme("nope"), opt); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, _, err := Build(SchemeAB, DefaultOptions(4, 1)); err == nil {
		t.Fatal("tiny tree accepted")
	}
}

func TestSchemeSpaceOrdering(t *testing.T) {
	// Fig 8a's qualitative ordering: AB < DR < NS < IR ~= Baseline.
	opt := DefaultOptions(12, 1)
	space := map[Scheme]uint64{}
	for _, s := range Schemes() {
		cfg, _, err := Build(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		space[s] = ringoram.SpaceBytesStatic(cfg)
	}
	if !(space[SchemeAB] < space[SchemeDR] && space[SchemeDR] < space[SchemeNS] && space[SchemeNS] < space[SchemeBaseline]) {
		t.Errorf("space ordering violated: %+v", space)
	}
	if space[SchemeIR] > space[SchemeBaseline] {
		t.Errorf("IR should not exceed baseline space: %+v", space)
	}
}

func TestSchemesRunCorrectly(t *testing.T) {
	opt := DefaultOptions(10, 7)
	for _, s := range Schemes() {
		o, _, err := New(s, opt)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		n := o.Config().NumBlocks
		for i := 0; i < 2500; i++ {
			if _, err := o.Access(int64(uint64(i*2654435761) % uint64(n))); err != nil {
				t.Fatalf("%s access %d: %v", s, i, err)
			}
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("%s invariants: %v", s, err)
		}
		if o.Stash().Overflows() != 0 {
			t.Errorf("%s: stash overflows (peak %d)", s, o.Stash().Peak())
		}
	}
}

func TestABExtendsViaDeadQ(t *testing.T) {
	opt := DefaultOptions(10, 3)
	o, dq, err := New(SchemeAB, opt)
	if err != nil {
		t.Fatal(err)
	}
	n := o.Config().NumBlocks
	for i := 0; i < 6000; i++ {
		if _, err := o.Access(int64(uint64(i*7919) % uint64(n))); err != nil {
			t.Fatal(err)
		}
	}
	st := o.Stats()
	if st.ExtendGranted == 0 {
		t.Fatalf("AB never extended: %+v, deadq %+v", st, dq.Stats())
	}
	ratio := float64(st.ExtendGranted) / float64(st.ExtendAttempts)
	if ratio < 0.2 {
		t.Errorf("extend ratio %.2f implausibly low (Fig 14 reports ~0.74 for AB)", ratio)
	}
	if dq.Stats().Accepted == 0 || dq.Stats().Claims == 0 {
		t.Errorf("DeadQ unused: %+v", dq.Stats())
	}
}

func TestDRVariants(t *testing.T) {
	opt := DefaultOptions(12, 1)
	var prev uint64
	for depth := 1; depth <= 6; depth++ {
		cfg, dq, err := DRVariant(opt, depth)
		if err != nil {
			t.Fatal(err)
		}
		if dq == nil {
			t.Fatal("DR variant without DeadQ")
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("depth %d invalid: %v", depth, err)
		}
		space := ringoram.SpaceBytesStatic(cfg)
		if depth > 1 && space >= prev {
			t.Errorf("depth %d space %d not below depth %d space %d", depth, space, depth-1, prev)
		}
		prev = space
	}
	if _, _, err := DRVariant(opt, 0); err == nil {
		t.Fatal("depth 0 accepted")
	}
	if _, _, err := DRVariant(opt, 7); err == nil {
		t.Fatal("depth 7 accepted")
	}
}

func TestNSVariants(t *testing.T) {
	opt := DefaultOptions(12, 1)
	for _, c := range []struct{ ly, sx int }{{1, 1}, {2, 2}, {3, 3}, {3, 1}} {
		cfg, err := NSVariant(opt, c.ly, c.sx)
		if err != nil {
			t.Fatalf("L%d-S%d: %v", c.ly, c.sx, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("L%d-S%d invalid: %v", c.ly, c.sx, err)
		}
		if ringoram.SpaceBytesStatic(cfg) >= ringoram.SpaceBytesStatic(mustBase(t, opt)) {
			t.Errorf("L%d-S%d saves no space", c.ly, c.sx)
		}
	}
	if _, err := NSVariant(opt, 0, 1); err == nil {
		t.Fatal("Ly=0 accepted")
	}
	if _, err := NSVariant(opt, 2, 99); err == nil {
		t.Fatal("huge shrink accepted")
	}
}

func mustBase(t *testing.T, opt Options) ringoram.Config {
	t.Helper()
	cfg, _, err := Build(SchemeBaseline, opt)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestPatternAccessAllocs pins pattern-mode Access (no data plane) at zero
// allocations per access at steady state for every scheme: the op lists,
// the eviction plan, the claimed-slot lists and the DeadQ's claim results
// all reuse storage the instance owns. A remote-slot list that grows past
// its previous high-water mark still allocates, so the bound is on the
// (truncated) mean over a window, after a warm-up that lets the lists grow.
func TestPatternAccessAllocs(t *testing.T) {
	for _, s := range Schemes() {
		o, _, err := New(s, DefaultOptions(12, 1))
		if err != nil {
			t.Fatal(err)
		}
		n := uint64(o.Config().NumBlocks)
		i := uint64(0)
		access := func() {
			i++
			if _, err := o.Access(int64(i * 2654435761 % n)); err != nil {
				t.Fatal(err)
			}
		}
		for range 20000 {
			access()
		}
		if got := testing.AllocsPerRun(2000, access); got != 0 {
			t.Errorf("%s: %.0f allocations per pattern-mode access, want 0", s, got)
		}
	}
}

func BenchmarkABAccess(b *testing.B) {
	o, _, err := New(SchemeAB, DefaultOptions(16, 1))
	if err != nil {
		b.Fatal(err)
	}
	n := o.Config().NumBlocks
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = o.Access(int64(uint64(i*2654435761) % uint64(n)))
	}
}
