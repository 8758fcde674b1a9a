package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/aboram"
	"repro/internal/core"
	"repro/internal/ringoram"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/server/wire"
)

// numClients is the closed-loop client count of the serving workloads:
// min(nproc, 2). The reference box has two cores — the daemon takes about
// one and the generator the other; more clients would measure the OS
// scheduler, not the stack.
func numClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// outcome is what one workload run produced.
type outcome struct {
	e2e, layer        metricSet
	attempted, failed int
	unsteady          bool
	notes             []string
	log               string // daemon output, kept when the run failed
}

func newOutcome() *outcome { return &outcome{e2e: metricSet{}, layer: metricSet{}} }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// connect dials n clients and fetches the served geometry (the daemon is
// ready when it answers OpInfo).
func connect(addr string, w workload, n int) ([]*server.Client, wire.InfoPayload, error) {
	cfg := server.ClientConfig{Timeout: 30 * time.Second}
	if w.xor {
		cfg.XORKey = devKey
	}
	var clients []*server.Client
	closeAll := func() {
		for _, c := range clients {
			c.Close()
		}
	}
	for i := 0; i < n; i++ {
		c, err := server.DialConfig(addr, cfg)
		if err != nil {
			closeAll()
			return nil, wire.InfoPayload{}, err
		}
		clients = append(clients, c)
	}
	info, err := clients[0].Info()
	if err != nil {
		closeAll()
		return nil, wire.InfoPayload{}, fmt.Errorf("OpInfo: %w", err)
	}
	return clients, info, nil
}

// treeBytesPerUserByte is the paper's headline for the served
// configuration: SpaceBytes / (NumBlocks x BlockSize), exact.
func treeBytesPerUserByte(w workload, info wire.InfoPayload) (float64, error) {
	cfg, _, err := core.Build(core.SchemeAB, core.DefaultOptions(w.levels, 1))
	if err != nil {
		return 0, err
	}
	space := float64(ringoram.SpaceBytesStatic(cfg)) * float64(w.shards)
	return space / (float64(info.NumBlocks) * float64(info.BlockSize)), nil
}

// latencyMetrics fills the client-observed numbers of one measured window.
func latencyMetrics(o *outcome, win *window, clientsN int) {
	o.e2e.timing("ops_per_s", win.opsPerS(), win.attempted-win.failed)
	o.e2e.timing("read_p50_us", quantile(win.readUs, 0.5), len(win.readUs))
	o.e2e.timing("write_p50_us", quantile(win.writeUs, 0.5), len(win.writeUs))
	o.e2e.timing("p99_us", quantile(win.allUs, 0.99), len(win.allUs))
	o.layer.timing("client.read_p95_us", quantile(win.readUs, 0.95), len(win.readUs))
	o.layer.timing("client.write_p95_us", quantile(win.writeUs, 0.95), len(win.writeUs))
	o.layer.timing("client.max_us", quantile(win.allUs, 1), len(win.allUs))
	if q, ok := highestPercentile(len(win.allUs)); ok {
		o.note("window: %d ops by %d closed-loop client(s) in %.2fs; highest supported percentile p%g = %.1f us",
			len(win.allUs), clientsN, win.wall.Seconds(), q*100, quantile(win.allUs, q))
	}
	if win.unsteady() {
		o.unsteady = true
		o.note("unsteady: last-quarter throughput differs from first-quarter by %+.1f%%", win.drift*100)
	}
}

// runServing drives one serving workload end to end against a backend:
// set-up (repeated setups times, median reported), warm-up, one measured
// window, and for durable workloads a kill + restart + re-read. Tracing is
// off; this is what a user of the daemon sees.
func runServing(w workload, be backend, seed uint64, pl plan) (o *outcome, err error) {
	o = newOutcome()
	defer func() {
		be.kill()
		if werr := be.wipe(); werr != nil && err == nil {
			err = werr
		}
		if err != nil || o.failed > 0 {
			o.log = be.log()
		}
	}()
	nc := numClients()

	// Set-up: start, wait for OpInfo, write every block once in block
	// order. Repeated so that setup_s is a median; the last incarnation
	// is the one measured.
	var (
		clients []*server.Client
		loads   []*loadClient
		info    wire.InfoPayload
		setupS  []float64
	)
	closeClients := func() {
		for _, c := range clients {
			c.Close()
		}
		clients = nil
	}
	defer closeClients()
	for i := 0; i < pl.setups; i++ {
		closeClients()
		be.kill()
		if err := be.wipe(); err != nil {
			return o, err
		}
		t0 := time.Now()
		addr, err := be.start()
		if err != nil {
			return o, err
		}
		if clients, info, err = connect(addr, w, nc); err != nil {
			return o, err
		}
		loads = loads[:0]
		for c := range clients {
			loads = append(loads, newLoadClient(clients[c], seed, w, c, nc, info.NumBlocks, info.BlockSize))
		}
		forAll(loads, (*loadClient).preload)
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	o.e2e.timing("setup_s", median(setupS), len(setupS))

	forAll(loads, func(c *loadClient) { c.runOps(pl.warmup / nc) })

	cpu0 := be.cpuSeconds()
	win, err := measure(loads, time.Duration(pl.seconds*float64(time.Second)))
	if err != nil {
		return o, err
	}
	cpu := be.cpuSeconds() - cpu0
	latencyMetrics(o, win, nc)

	ratio, err := treeBytesPerUserByte(w, info)
	if err != nil {
		return o, err
	}
	o.e2e.set("tree_bytes_per_user_byte", ratio)

	userBytes := float64(info.NumBlocks) * float64(info.BlockSize)
	o.layer.set("aboramd.cpu_s_per_kop", cpu/(float64(win.attempted)/1000))
	o.layer.set("aboramd.peak_rss_mb", be.peakRSSMB())
	o.layer.set("durable.disk_bytes_per_user_byte", float64(be.diskBytes())/userBytes)
	var cs server.ClientStats
	for _, c := range clients {
		s := c.Stats()
		cs.Retries += s.Retries
		cs.Overloaded += s.Overloaded
		cs.ReadOps += s.ReadOps
		cs.ReadBytes += s.ReadBytes
	}
	o.layer.set("client.retries", float64(cs.Retries))
	o.layer.set("client.overloaded", float64(cs.Overloaded))
	perRead := 0.0
	if cs.ReadOps > 0 {
		perRead = float64(cs.ReadBytes) / float64(cs.ReadOps)
	}
	o.layer.set("client.wire_bytes_per_read", perRead)

	recovery := 0.0
	if w.durable {
		// Crash check: SIGKILL, restart on the same directory, re-read a
		// seeded sample plus every block the last ops wrote.
		closeClients()
		be.kill()
		t0 := time.Now()
		addr, err := be.start()
		if err != nil {
			return o, fmt.Errorf("restart after kill: %w", err)
		}
		if clients, _, err = connect(addr, w, 1); err != nil {
			return o, fmt.Errorf("restart after kill: %w", err)
		}
		recovery = time.Since(t0).Seconds()
		checked, bad, first := rereadAfterCrash(clients[0], loads, seed, w, info.NumBlocks)
		o.attempted += checked
		o.failed += bad
		if bad > 0 {
			o.note("after SIGKILL: %d of %d re-read blocks differ from the model (first: %s)", bad, checked, first)
		} else {
			o.note("after SIGKILL: %d re-read blocks all match the model; recovery %.3fs", checked, recovery)
		}
	}
	o.layer.set("aboramd.recovery_s", recovery)

	for _, c := range loads {
		o.attempted += c.attempted
		o.failed += c.failed
		if c.firstErr != "" {
			o.note("first failure: %s", c.firstErr)
		}
	}
	return o, nil
}

// crashSample is how many seeded blocks the post-crash check re-reads on
// top of the recently written ones.
const crashSample = 2000

func rereadAfterCrash(c *server.Client, loads []*loadClient, seed uint64, w workload, numBlocks int64) (checked, bad int, first string) {
	want := map[int64]bool{}
	pick := rng.New(streamSeed(seed, w.name, 0, "crash-sample"))
	for i := 0; i < crashSample && int64(len(want)) < numBlocks; i++ {
		want[int64(pick.Uint64n(uint64(numBlocks)))] = true
	}
	for _, l := range loads {
		for _, b := range l.recent {
			if b >= 0 {
				want[b] = true
			}
		}
	}
	expect := func(block int64) []byte {
		for _, l := range loads {
			if block >= l.lo && block < l.lo+int64(len(l.model)) {
				return l.model[block-l.lo]
			}
		}
		return nil
	}
	for block := range want {
		checked++
		got, err := c.Read(block)
		if err == nil && bytes.Equal(got, expect(block)) {
			continue
		}
		bad++
		if first == "" {
			first = fmt.Sprintf("block %d: err=%v", block, err)
		}
	}
	return checked, bad, first
}

// runLibrary is the bare-library slice of sim-fig8: the same 95/5 uniform
// generator as mem-read-uniform, one goroutine, straight into
// aboram.Read/Write — no wire, no TCP, no scheduler, no daemon. It gives
// the paper-reproduction workload honest values for the client-observed
// metrics: what the protocol layers cost with every serving layer
// bypassed. It returns the time the build + preload took.
func runLibrary(o *outcome, w workload, seed uint64, seconds float64, warmup int) (setup time.Duration, err error) {
	t0 := time.Now()
	store, err := aboram.New(shardOptions(w, 0))
	if err != nil {
		return 0, err
	}
	lc := newLoadClient(store, seed, w, 0, 1, store.NumBlocks(), store.BlockSize())
	lc.preload()
	setup = time.Since(t0)
	if seconds <= 0 {
		return setup, nil
	}
	lc.runOps(warmup)
	win, err := measure([]*loadClient{lc}, time.Duration(seconds*float64(time.Second)))
	if err != nil {
		return 0, err
	}
	latencyMetrics(o, win, 1)
	o.e2e.set("tree_bytes_per_user_byte",
		float64(store.SpaceBytes())/(float64(store.NumBlocks())*float64(store.BlockSize())))
	o.layer.set("client.wire_bytes_per_read", 0)
	o.layer.set("client.retries", 0)
	o.layer.set("client.overloaded", 0)
	if st := store.Stats(); st.StashOverflows > 0 {
		lc.fail("library: %d stash overflows", st.StashOverflows)
	}
	o.attempted += lc.attempted
	o.failed += lc.failed
	if lc.firstErr != "" {
		o.note("first failure: %s", lc.firstErr)
	}
	return setup, nil
}
