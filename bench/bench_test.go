package main

import (
	"math"
	"os"
	"syscall"
	"testing"

	"repro/internal/sim"
)

func TestLedgerSelfTime(t *testing.T) {
	sp := func(name string, req uint64, start, end int64) span {
		return span{name: name, req: req, start: start, end: end}
	}
	spans := []span{
		sp(rootSpan, 1, 0, 100),
		sp("tcp.request", 1, 10, 90),
		sp("engine.write", 1, 20, 60),
		sp("vfs.write", 1, 25, 35),
		sp("vfs.sync", 1, 35, 55),
		sp("engine.batchsync", 1, 60, 80),
		sp("vfs.sync", 1, 62, 78),
		// A background publish overlaps request 1 in time and must not
		// enter its ledger.
		{name: "durable.publish", req: 1, start: 30, end: 50, background: true},
		// Request 2: its reply write returns after the client already has
		// the answer, so tcp.request crosses the root's end and is clipped.
		sp(rootSpan, 2, 200, 260),
		sp("tcp.request", 2, 210, 270),
		sp("engine.read", 2, 220, 250),
		// A foreground span of a request with no root is an orphan.
		sp("engine.read", 3, 300, 310),
	}
	l := buildLedger(spans)
	want := map[string]int64{
		rootSpan:           20 + 10,
		"tcp.request":      (80 - 40 - 20) + (50 - 30),
		"engine.write":     40 - 10 - 20,
		"vfs.write":        10,
		"vfs.sync":         20 + 16,
		"engine.batchsync": 20 - 16,
		"engine.read":      30,
	}
	for name, w := range want {
		if got := l.selfTotal[name]; got != w {
			t.Errorf("self time of %s = %d, want %d", name, got, w)
		}
	}
	if len(l.selfTotal) != len(want) {
		t.Errorf("ledger has layers %v, want exactly %d", l.selfTotal, len(want))
	}
	if l.roots != 2 || l.rootTotal != 160 {
		t.Errorf("roots = %d over %d ns, want 2 over 160", l.roots, l.rootTotal)
	}
	if l.selfSum() != l.rootTotal {
		t.Errorf("self times sum to %d, roots to %d: they must be equal by construction", l.selfSum(), l.rootTotal)
	}
	if l.orphans != 1 {
		t.Errorf("orphans = %d, want 1", l.orphans)
	}
	if got := l.share("vfs.write", "vfs.sync"); math.Abs(got-46.0/160) > 1e-12 {
		t.Errorf("vfs share = %v, want %v", got, 46.0/160)
	}
	// Full durations keep background spans and ignore clipping.
	if v, n := l.quantDurUs("durable.publish", 0.5); n != 1 || v != 0.02 {
		t.Errorf("durable.publish duration = %v us over %d, want 0.02 over 1", v, n)
	}
}

func TestFrameScanner(t *testing.T) {
	frame := []byte{0, 0, 0, 3, 'a', 'b', 'c'}
	f := newFrameScanner()
	if f.feed(frame[:4]) || f.feed(frame[4:6]) {
		t.Fatal("frame reported complete before its last byte")
	}
	if !f.feed(frame[6:]) {
		t.Fatal("frame not reported complete")
	}
	// A header split across reads, then a frame and a half in one read.
	f = newFrameScanner()
	if f.feed(frame[:2]) {
		t.Fatal("complete on half a header")
	}
	if !f.feed(append(append([]byte{}, frame[2:]...), frame[:5]...)) {
		t.Fatal("first of one-and-a-half frames not reported")
	}
	if !f.feed(frame[5:]) {
		t.Fatal("second frame not reported")
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false}, {20, 0.5, true}, {99, 0.5, true}, {100, 0.9, true},
		{200, 0.95, true}, {999, 0.95, true}, {1000, 0.99, true}, {10000, 0.999, true},
	} {
		got, ok := highestPercentile(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.99: 10, 1: 10, 0: 1} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples must be 0")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if got := iqrShare(s); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
}

func TestGeneratorIsPureAndSlicesDoNotAliasTheRouter(t *testing.T) {
	const numBlocks, clients = 10236, 2
	for _, w := range workloads {
		draw := func(seed uint64, c int) (reads []bool, blocks []int64, payloads [][]byte) {
			g := newGenerator(seed, w, c, clients, numBlocks)
			for i := 0; i < 2000; i++ {
				buf := make([]byte, 64)
				r, b := g.next(buf)
				reads, blocks, payloads = append(reads, r), append(blocks, b), append(payloads, buf)
			}
			return
		}
		r1, b1, p1 := draw(7, 0)
		r2, b2, p2 := draw(7, 0)
		_, b3, _ := draw(8, 0)
		same, differs := true, false
		for i := range b1 {
			same = same && r1[i] == r2[i] && b1[i] == b2[i] && string(p1[i]) == string(p2[i])
			differs = differs || b1[i] != b3[i]
		}
		if !same || !differs {
			t.Errorf("%s: generator must be a pure function of (seed, workload, client): same=%v differs-by-seed=%v", w.name, same, differs)
		}
		// Slices are contiguous, disjoint and cover the space, and every
		// client reaches both shards of a `b mod 2` router — also under
		// zipf, whose hot blocks the permutation spreads.
		next := int64(0)
		for c := 0; c < clients; c++ {
			lo, n := clientSlice(numBlocks, c, clients)
			if lo != next || n <= 0 {
				t.Fatalf("client %d owns [%d,+%d), want it to start at %d", c, lo, n, next)
			}
			next = lo + n
			_, blocks, _ := draw(7, c)
			shard := [2]int{}
			for _, b := range blocks {
				if b < lo || b >= lo+n {
					t.Fatalf("%s: client %d drew block %d outside its slice [%d,%d)", w.name, c, b, lo, lo+n)
				}
				shard[b%2]++
			}
			if min(shard[0], shard[1])*4 < len(blocks) {
				t.Errorf("%s: client %d sends %v ops to the two shards: its slice aliases the router", w.name, c, shard)
			}
		}
		if next != numBlocks {
			t.Errorf("slices cover %d of %d blocks", next, numBlocks)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "p99_us", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	exact := specMetric{Name: "tree_bytes_per_user_byte", Better: "lower", Bound: 0}
	for _, c := range []struct {
		sm                     specMetric
		old, new, oldSp, newSp float64
		want                   string
	}{
		{lower, 100, 105, 0.02, 0.02, "same"},
		{lower, 100, 120, 0.02, 0.02, "worse"},
		{lower, 100, 80, 0.02, 0.02, "better"},
		{higher, 100, 120, 0.02, 0.02, "better"},
		{higher, 100, 85, 0.02, 0.02, "worse"},
		{higher, 100, 85, 0.02, 0.15, "unresolved"},
		{exact, 2.0623, 2.0623, 0, 0, "same"},
		{exact, 2.0623, 2.07, 0, 0, "worse"},
	} {
		if got := judge(c.sm, c.old, c.new, c.oldSp, c.newSp); got != c.want {
			t.Errorf("judge(%s, %v -> %v, spreads %v/%v) = %s, want %s", c.sm.Name, c.old, c.new, c.oldSp, c.newSp, got, c.want)
		}
	}
}

// inproc runs a workload against the in-process stack behind the backend
// interface, so the self-tests can exercise the whole end-to-end path
// without building or spawning the daemon. kill is an orderly close — a
// process cannot SIGKILL itself — and the resource figures are this
// process's own.
type inproc struct {
	w       workload
	dataDir string
	t       *tracer
	s       *stack
}

func (b *inproc) start() (string, error) {
	s, err := openStack(b.w, b.dataDir, b.t)
	if err != nil {
		return "", err
	}
	b.s = s
	return s.addr(), nil
}

func (b *inproc) kill() {
	if b.s != nil {
		b.s.close()
		b.s = nil
	}
}

func (b *inproc) wipe() error      { return os.RemoveAll(b.dataDir) }
func (b *inproc) diskBytes() int64 { return dirBytes(b.dataDir) }
func (b *inproc) log() string      { return "" }

func (b *inproc) cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func (b *inproc) peakRSSMB() float64 { return procPeakRSSMB(os.Getpid()) }

// testPlan shrinks every size so a whole traced run of one workload takes
// well under a second, against the in-process stack instead of the daemon.
func testPlan(tr *tracer) plan {
	tiny := sim.Quick()
	tiny.Levels, tiny.Treetop, tiny.Warmup, tiny.Measure, tiny.Parallel = 10, 4, 100, 200, 1
	tiny.Benchmarks = tiny.Benchmarks[:1]
	return plan{
		seconds: 0.15, libSeconds: 0.1, setups: 1, warmup: 60, segmentOps: 12, probeOps: 300,
		slice: tiny, full: tiny,
		backend: func(w workload, dir string) backend { return &inproc{w: w, dataDir: dir, t: tr} },
	}
}

// TestSmokeEveryWorkload runs each workload once on a tiny tree — end to end
// against the in-process stack, then traced and probed — and checks the
// contract: no model mismatch, and exactly the metrics BENCHMARK.json
// names, in both modes.
func TestSmokeEveryWorkload(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := w
		w.levels = 8 // the smallest tree the schemes accept
		if w.shards == 1 {
			w.levels = 9 // the router probe halves a single tree into two
		}
		t.Run(w.name, func(t *testing.T) {
			o, err := measureWorkload(w, t.TempDir(), 3, testPlan(newTracer()), true)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("%d of %d ops failed: %v", o.failed, o.attempted, o.notes)
			}
			for mode, pair := range map[string]struct {
				got  metricSet
				want []specMetric
			}{"end_to_end": {o.e2e, spec.EndToEnd}, "per_layer": {o.layer, spec.PerLayer}} {
				ms, err := pair.got.conform(pair.want)
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				for name, m := range ms {
					if m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s: %s = %v %q", mode, name, m.Value, m.Unit)
					}
				}
			}
			for _, sm := range spec.EndToEnd {
				if o.e2e[sm.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0 on %s; the contract wants it never 0", sm.Name, w.name)
				}
			}
			if o.layer["stash.overflows"].Value != 0 {
				t.Errorf("stash overflowed")
			}
		})
	}
}

func TestMeasureRefusesAnEmptyTree(t *testing.T) {
	w := workloads[0]
	w.levels = 8
	store, err := filled(shardOptions(w, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	lc := newLoadClient(store, 1, w, 0, 1, store.NumBlocks(), store.BlockSize())
	if _, err := measure([]*loadClient{lc}, 1); err == nil {
		t.Fatal("measure started a window before every block was written once")
	}
}
