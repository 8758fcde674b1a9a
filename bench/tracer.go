package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. req is the id of the
// client request in flight when it started: the traced run has a single
// closed-loop client, so everything between that request's send and its
// reply belongs to it. A span's parent is not recorded — the calls cross
// goroutines the benchmark does not own — it is derived: the innermost
// span of the same request whose interval contains it.
type span struct {
	name       string
	req        uint64
	start, end int64 // ns since the tracer's epoch
	// background spans run off the request path (checkpoint publishes, the
	// batch-boundary checkpoint cut): they are parentless and never count
	// toward a request's ledger, whatever they overlap in time.
	background bool
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory; the ledger is computed when the run ends.
// Every wrapper checks one atomic and does nothing when tracing is off, so
// the same stack serves the untraced comparison run.
type tracer struct {
	on    atomic.Bool
	cur   atomic.Uint64 // request in flight (0 = none)
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// mark is an open span: its start stamp and the request in flight then.
// start is -1 with tracing off.
type mark struct {
	start int64
	req   uint64
}

func (t *tracer) begin() mark {
	if !t.on.Load() {
		return mark{start: -1}
	}
	return mark{start: int64(time.Since(t.epoch)), req: t.cur.Load()}
}

// finish records the span opened by begin.
func (t *tracer) finish(name string, m mark, background bool) {
	if m.start < 0 {
		return
	}
	s := span{name: name, req: m.req, start: m.start, end: int64(time.Since(t.epoch)), background: background}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// rootSpan names the span that opens a request: the client's round trip.
const rootSpan = "client.roundtrip"

// ledger is the per-layer account of a traced run.
type ledger struct {
	roots     int
	rootTotal int64              // sum of root durations, ns
	selfTotal map[string]int64   // span name -> summed self time over all requests, ns
	selfPer   map[string][]int64 // span name -> self time per occurrence, ns
	durPer    map[string][]int64 // span name -> full duration per occurrence, ns (background ones too)
	orphans   int                // foreground spans outside every root of their request
}

// buildLedger nests each request's spans by interval containment and
// computes self times: a span's duration minus the part of it its children
// cover (children clipped to the parent, overlaps between siblings counted
// once). By construction the self times of one request sum to its root's
// duration.
func buildLedger(spans []span) *ledger {
	l := &ledger{
		selfTotal: map[string]int64{},
		selfPer:   map[string][]int64{},
		durPer:    map[string][]int64{},
	}
	byReq := map[uint64][]span{}
	for _, s := range spans {
		l.durPer[s.name] = append(l.durPer[s.name], s.dur())
		if s.background {
			continue
		}
		byReq[s.req] = append(byReq[s.req], s)
	}
	for _, group := range byReq {
		l.addRequest(group)
	}
	return l
}

type node struct {
	span
	children []*node
}

func (l *ledger) addRequest(group []span) {
	// Outer spans first: earlier start, and on a tie the longer one.
	sort.Slice(group, func(i, j int) bool {
		if group[i].start != group[j].start {
			return group[i].start < group[j].start
		}
		return group[i].end > group[j].end
	})
	var root *node
	var stack []*node
	for _, s := range group {
		n := &node{span: s}
		if s.name == rootSpan {
			root = n
			stack = []*node{n}
			l.roots++
			l.rootTotal += s.dur()
			continue
		}
		// Pop to the innermost open span that still contains this start.
		for len(stack) > 0 && stack[len(stack)-1].end <= s.start {
			stack = stack[:len(stack)-1]
		}
		if root == nil || len(stack) == 0 {
			l.orphans++
			continue
		}
		parent := stack[len(stack)-1]
		if n.end > parent.end { // crosses its parent's end: clip
			n.end = parent.end
		}
		parent.children = append(parent.children, n)
		stack = append(stack, n)
	}
	if root != nil {
		l.account(root)
	}
}

func (l *ledger) account(n *node) {
	covered, reach := int64(0), n.start
	for _, c := range n.children { // already in start order
		lo := c.start
		if lo < reach {
			lo = reach
		}
		if c.end > lo {
			covered += c.end - lo
			reach = c.end
		}
		l.account(c)
	}
	self := n.dur() - covered
	l.selfTotal[n.name] += self
	l.selfPer[n.name] = append(l.selfPer[n.name], self)
}

// selfSum is the total self time over every layer; it equals rootTotal.
func (l *ledger) selfSum() int64 {
	var t int64
	for _, v := range l.selfTotal {
		t += v
	}
	return t
}

// share is a layer's summed self time as a share of the summed root time.
func (l *ledger) share(names ...string) float64 {
	if l.rootTotal == 0 {
		return 0
	}
	var t int64
	for _, n := range names {
		t += l.selfTotal[n]
	}
	return float64(t) / float64(l.rootTotal)
}

// p50SelfUs / p50DurUs / quantDurUs read timings out of the ledger in µs.
func (l *ledger) p50SelfUs(name string) (float64, int) {
	s := sortedCopy(nsToUs(l.selfPer[name]))
	return quantile(s, 0.5), len(s)
}

func (l *ledger) quantDurUs(name string, q float64) (float64, int) {
	s := sortedCopy(nsToUs(l.durPer[name]))
	return quantile(s, q), len(s)
}
