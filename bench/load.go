package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/rng"
)

// store is what a load client drives: server.Client against a daemon or an
// in-process stack, or a bare *aboram.ORAM for the library slice.
type store interface {
	Read(block int64) ([]byte, error)
	Write(block int64, data []byte) error
}

// loadClient is one closed-loop client: one outstanding request, its own
// contiguous slice of the block space, and an exact plaintext model of
// that slice (the last payload it wrote per block).
type loadClient struct {
	st    store
	gen   *generator
	pre   *rng.Source // preload payload stream
	lo    int64
	model [][]byte
	buf   []byte

	attempted, failed int
	firstErr          string
	recent            []int64 // blocks written by the most recent ops, ring of recentOps
	recentAt          int

	// Samples of the current measured window.
	endNs, latNs []int64
	isRead       []bool
}

// recentOps is how many trailing ops' written blocks are re-read after a
// crash: these are the writes a lost WAL tail would take with it.
const recentOps = 1024

func newLoadClient(st store, seed uint64, w workload, c, clients int, numBlocks int64, blockSize int) *loadClient {
	lo, n := clientSlice(numBlocks, c, clients)
	return &loadClient{
		st:     st,
		gen:    newGenerator(seed, w, c, clients, numBlocks),
		pre:    rng.New(streamSeed(seed, w.name, c, "preload")),
		lo:     lo,
		model:  make([][]byte, n),
		buf:    make([]byte, blockSize),
		recent: make([]int64, 0, recentOps),
	}
}

func (c *loadClient) fail(format string, args ...any) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf(format, args...)
	}
}

// preload writes every block of the slice once, in block order. A measured
// window may only start after this: an ORAM tree that is still filling
// gets slower run by run (the empty-tree trap of the old serve numbers).
func (c *loadClient) preload() {
	for i := range c.model {
		fillPayload(c.pre, c.buf)
		c.attempted++
		if err := c.st.Write(c.lo+int64(i), c.buf); err != nil {
			c.fail("preload write %d: %v", c.lo+int64(i), err)
			continue
		}
		c.model[i] = append([]byte(nil), c.buf...)
	}
}

// preloaded reports whether the model covers every block of the slice.
func (c *loadClient) preloaded() bool {
	for _, m := range c.model {
		if m == nil {
			return false
		}
	}
	return true
}

// step issues one op, verifies it against the model and returns its
// latency; ok is false when it failed (error or model mismatch).
func (c *loadClient) step() (lat time.Duration, read, ok bool) {
	read, block := c.gen.next(c.buf)
	c.attempted++
	t0 := time.Now()
	if read {
		got, err := c.st.Read(block)
		lat = time.Since(t0)
		switch {
		case err != nil:
			c.fail("read %d: %v", block, err)
		case !bytes.Equal(got, c.model[block-c.lo]):
			c.fail("read %d: content differs from the model", block)
		default:
			ok = true
		}
		c.noteRecent(-1)
		return lat, read, ok
	}
	err := c.st.Write(block, c.buf)
	lat = time.Since(t0)
	if err != nil {
		c.fail("write %d: %v", block, err)
		c.noteRecent(-1)
		return lat, read, false
	}
	copy(c.model[block-c.lo], c.buf)
	c.noteRecent(block)
	return lat, read, true
}

func (c *loadClient) noteRecent(block int64) {
	if len(c.recent) < recentOps {
		c.recent = append(c.recent, block)
		return
	}
	c.recent[c.recentAt] = block
	c.recentAt = (c.recentAt + 1) % recentOps
}

// runOps issues n unmeasured ops (warm-up).
func (c *loadClient) runOps(n int) {
	for i := 0; i < n; i++ {
		c.step()
	}
}

// runWindow issues ops until d has passed since start, recording samples.
func (c *loadClient) runWindow(start time.Time, d time.Duration) {
	c.endNs, c.latNs, c.isRead = c.endNs[:0], c.latNs[:0], c.isRead[:0]
	for {
		lat, read, ok := c.step()
		end := time.Since(start)
		if ok {
			c.endNs = append(c.endNs, int64(end))
			c.latNs = append(c.latNs, int64(lat))
			c.isRead = append(c.isRead, read)
		}
		if end >= d {
			return
		}
	}
}

// window is the pooled outcome of one measured window.
type window struct {
	wall              time.Duration
	attempted, failed int
	readUs, writeUs   []float64 // sorted
	allUs             []float64 // sorted
	drift             float64   // last-quarter ops/s over first-quarter ops/s, minus 1
	firstErr          string
}

func (w *window) opsPerS() float64 {
	return float64(w.attempted-w.failed) / w.wall.Seconds()
}

// unsteady reports a throughput drift of more than 10 % between the first
// and the last quarter of the window.
func (w *window) unsteady() bool { return math.Abs(w.drift) > 0.10 }

// forAll runs f on every client concurrently and waits.
func forAll(clients []*loadClient, f func(*loadClient)) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *loadClient) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

// measure runs one measured window of length d over all clients. It
// refuses to start unless every block has been written once.
func measure(clients []*loadClient, d time.Duration) (*window, error) {
	for i, c := range clients {
		if !c.preloaded() {
			return nil, fmt.Errorf("client %d: measured window refused: not every block has been written once", i)
		}
	}
	before := make([][2]int, len(clients))
	for i, c := range clients {
		before[i] = [2]int{c.attempted, c.failed}
	}
	start := time.Now()
	forAll(clients, func(c *loadClient) { c.runWindow(start, d) })

	w := &window{}
	var ends []int64
	for i, c := range clients {
		w.attempted += c.attempted - before[i][0]
		w.failed += c.failed - before[i][1]
		if w.firstErr == "" {
			w.firstErr = c.firstErr
		}
		ends = append(ends, c.endNs...)
		us := nsToUs(c.latNs)
		w.allUs = append(w.allUs, us...)
		for j, v := range us {
			if c.isRead[j] {
				w.readUs = append(w.readUs, v)
			} else {
				w.writeUs = append(w.writeUs, v)
			}
		}
	}
	sort.Float64s(w.readUs)
	sort.Float64s(w.writeUs)
	sort.Float64s(w.allUs)
	for _, e := range ends {
		if time.Duration(e) > w.wall {
			w.wall = time.Duration(e)
		}
	}
	if w.wall <= 0 {
		return nil, fmt.Errorf("measured window completed no op: %s", w.firstErr)
	}
	var first, last int
	q := int64(w.wall) / 4
	for _, e := range ends {
		switch {
		case e <= q:
			first++
		case e > 3*q:
			last++
		}
	}
	if first > 0 {
		w.drift = float64(last)/float64(first) - 1
	}
	return w, nil
}
