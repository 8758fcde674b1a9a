package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/durable"
	"repro/internal/server"
)

// tracedStore opens the root span of every request: it stamps the request
// id the wrappers below will see, then times the client call itself
// (client codec, loopback both ways, XOR peel, and everything server-side).
type tracedStore struct {
	st   store
	t    *tracer
	next uint64
}

func (s *tracedStore) open() mark {
	s.next++
	s.t.cur.Store(s.next)
	return s.t.begin()
}

func (s *tracedStore) Read(block int64) ([]byte, error) {
	m := s.open()
	data, err := s.st.Read(block)
	s.t.finish(rootSpan, m, false)
	return data, err
}

func (s *tracedStore) Write(block int64, data []byte) error {
	m := s.open()
	err := s.st.Write(block, data)
	s.t.finish(rootSpan, m, false)
	return err
}

// segments is the shape of the traced run: after the same preload and
// warm-up as the end-to-end run, one client alternates untraced and traced
// segments on the same stack. 20 x 500 traced ops give the ledger; each
// traced segment is held against the untraced one right before it — short
// and adjacent, so that both see the same speed of a box whose speed
// wanders — and the median of the 20 ratios gives the tracing overhead.
const segments = 20

// tracedData is everything the traced run measured.
type tracedData struct {
	led                                         *ledger
	spans                                       int
	tracedOps                                   int
	tracedWrites                                int
	blockSize                                   int
	tcpIn, tcpOut                               int64
	walWrites, walSyncs, walBytes, publishBytes int64
	srv0, srv1                                  server.Metrics
	dur0, dur1                                  durable.Stats
	onRate, offRate                             []float64 // ops/s per traced / untraced segment
}

// runTraced re-composes the workload's stack in-process, drives it with
// one client and returns the trace. One client, so that every span between
// a request's send and its reply belongs to that request.
func runTraced(w workload, seed uint64, scratch string, pl plan, o *outcome) (*tracedData, error) {
	t := newTracer()
	dir := filepath.Join(scratch, "traced-data")
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	s, err := openStack(w, dir, t)
	if err != nil {
		return nil, err
	}
	defer s.close()
	clients, info, err := connect(s.addr(), w, 1)
	if err != nil {
		return nil, err
	}
	defer clients[0].Close()

	lc := newLoadClient(&tracedStore{st: clients[0], t: t}, seed, w, 0, 1, info.NumBlocks, info.BlockSize)
	lc.preload()
	if !lc.preloaded() {
		return nil, fmt.Errorf("traced run: preload failed: %s", lc.firstErr)
	}
	lc.runOps(pl.warmup)

	d := &tracedData{blockSize: info.BlockSize, srv0: s.srv.Metrics(), dur0: s.durableStats()}
	segment := func() float64 {
		t0 := time.Now()
		lc.runOps(pl.segmentOps)
		return float64(pl.segmentOps) / time.Since(t0).Seconds()
	}
	for i := 0; i < segments; i++ {
		d.offRate = append(d.offRate, segment())
		w0 := s.srv.Metrics().Writes
		t.on.Store(true)
		d.onRate = append(d.onRate, segment())
		t.on.Store(false)
		d.tracedWrites += int(s.srv.Metrics().Writes - w0)
	}
	d.srv1, d.dur1 = s.srv.Metrics(), s.durableStats()
	d.tracedOps = segments * pl.segmentOps
	d.tcpIn, d.tcpOut = s.tcp.bytesIn.Load(), s.tcp.bytesOut.Load()
	d.walWrites, d.walSyncs = s.vfs.writes.Load(), s.vfs.syncs.Load()
	d.walBytes, d.publishBytes = s.vfs.bytes.Load(), s.vfs.publishBytes.Load()

	spans := t.take()
	d.spans = len(spans)
	d.led = buildLedger(spans)
	// The layers' self times must account for the client's round trips
	// exactly — by construction; a difference is a bug in the ledger.
	if d.led.selfSum() != d.led.rootTotal {
		return nil, fmt.Errorf("traced run: layer self times sum to %d ns, root spans to %d ns", d.led.selfSum(), d.led.rootTotal)
	}
	if d.led.roots != d.tracedOps {
		return nil, fmt.Errorf("traced run: %d root spans for %d traced ops", d.led.roots, d.tracedOps)
	}
	o.attempted += lc.attempted
	o.failed += lc.failed
	if lc.firstErr != "" {
		o.note("traced run, first failure: %s", lc.firstErr)
	}
	return d, nil
}

var (
	engineSpans = []string{"engine.read", "engine.write", "engine.xread", "engine.batchsync", "engine.access"}
	vfsSpans    = []string{"vfs.write", "vfs.sync", "vfs.meta"}
)

// tracedMetrics turns the trace into the per-layer metrics. With d == nil
// (sim-fig8 has no serving stack to trace) every one of them is zero.
// pr carries the isolated aboram timings the in-situ ones are held against.
func tracedMetrics(o *outcome, d *tracedData, pr probeResult) {
	if d == nil {
		d = &tracedData{led: buildLedger(nil)}
	}
	l, m := d.led, o.layer
	per := func(total, n float64) float64 {
		if n == 0 {
			return 0
		}
		return total / n
	}
	selfUs := func(name, span string) {
		v, n := l.p50SelfUs(span)
		m.timing(name, v, n)
	}
	durUs := func(name, span string, q float64) float64 {
		v, n := l.quantDurUs(span, q)
		m.timing(name, v, n)
		return v
	}
	ops := float64(d.tracedOps)

	selfUs("tcp.client_side_self_us", rootSpan)
	selfUs("tcp.server_side_self_us", "tcp.request")
	m.set("tcp.bytes_in_per_op", per(float64(d.tcpIn), ops))
	m.set("tcp.bytes_out_per_op", per(float64(d.tcpOut), ops))

	engRead := durUs("engine.read_us", "engine.read", 0.5)
	durUs("engine.write_us", "engine.write", 0.5)
	engXRead := durUs("engine.xread_us", "engine.xread", 0.5)
	durUs("engine.batchsync_us", "engine.batchsync", 0.5)
	durUs("engine.checkpoint_pause_us_p50", "engine.checkpoint", 0.5)
	durUs("engine.checkpoint_pause_us_max", "engine.checkpoint", 1)
	m.set("engine.checkpoints", float64(len(l.durPer["engine.checkpoint"])))

	// What the durable engine adds around the ORAM write: the in-situ
	// write span, minus the file work under it, minus the isolated
	// aboram.Write.
	writeSelf, n := l.p50SelfUs("engine.write")
	if n > 0 && d.dur1.Writes > d.dur0.Writes {
		m.timing("durable.write_self_us", writeSelf-pr.writeUs, n)
	} else {
		m.set("durable.write_self_us", 0)
	}
	durWrites := float64(d.dur1.Writes - d.dur0.Writes)
	m.set("durable.syncs_per_write", per(float64(d.dur1.Syncs-d.dur0.Syncs), durWrites))
	m.set("durable.snapshots", float64(d.dur1.Snapshots-d.dur0.Snapshots))
	m.set("durable.deltas", float64(d.dur1.DeltasWritten-d.dur0.DeltasWritten))
	m.set("durable.checkpoint_pause_ms_total", float64(d.dur1.SnapshotPauseNanos-d.dur0.SnapshotPauseNanos)/1e6)
	m.set("durable.last_checkpoint_bytes", float64(d.dur1.LastSnapshotBytes))

	durUs("vfs.write_us_p50", "vfs.write", 0.5)
	durUs("vfs.sync_us_p50", "vfs.sync", 0.5)
	durUs("vfs.sync_us_p99", "vfs.sync", 0.99)
	m.set("vfs.writes_per_op", per(float64(d.walWrites), ops))
	m.set("vfs.syncs_per_op", per(float64(d.walSyncs), ops))
	m.set("vfs.bytes_written_per_user_byte", per(float64(d.walBytes+d.publishBytes), float64(d.tracedWrites*d.blockSize)))
	m.set("vfs.publish_bytes_total", float64(d.publishBytes))

	served := float64(d.srv1.Served() - d.srv0.Served())
	m.set("server.mean_batch", per(served, float64(d.srv1.Batches-d.srv0.Batches)))
	m.set("server.dup_hits_per_kop", per(float64(d.srv1.DupHits-d.srv0.DupHits)*1000, served))
	m.set("server.queue_high_water", float64(d.srv1.QueueHighWater))
	m.set("server.rejected", float64(d.srv1.Rejected-d.srv0.Rejected))
	m.set("server.shed", float64(d.srv1.Shed-d.srv0.Shed))
	m.set("server.group_syncs_per_write", per(float64(d.srv1.GroupSyncs-d.srv0.GroupSyncs), float64(d.srv1.Writes-d.srv0.Writes)))

	if l.roots > 0 {
		mean := func(names ...string) float64 {
			return l.share(names...) * float64(l.rootTotal) / 1e3 / float64(l.roots)
		}
		o.note("ledger, mean us per request over %d requests: roundtrip %.1f = client side %.1f + server side %.1f + engine %.1f + vfs %.1f (isolated aboram read %.1f, write %.1f; %d spans outside every request)",
			l.roots, float64(l.rootTotal)/1e3/float64(l.roots), mean(rootSpan), mean("tcp.request"),
			mean(engineSpans...), mean(vfsSpans...), pr.readUs, pr.writeUs, l.orphans)
	}
	m.set("share.client_side", l.share(rootSpan))
	m.set("share.server_side", l.share("tcp.request"))
	m.set("share.engine", l.share(engineSpans...))
	m.set("share.vfs", l.share(vfsSpans...))

	overhead := make([]float64, len(d.onRate))
	for i := range overhead {
		overhead[i] = 1 - d.onRate[i]/d.offRate[i]
	}
	m.timing("tracer.overhead_frac", median(overhead), len(overhead))
	m.set("tracer.spans", float64(d.spans))
	// The in-situ and the isolated measurement of the same layer must
	// agree: engine.read against aboram.Read, or their XOR counterparts on
	// the workload whose reads are OpXRead.
	gap := 0.0
	switch {
	case engRead > 0:
		gap = math.Abs(engRead-pr.readUs) / engRead
	case engXRead > 0:
		gap = math.Abs(engXRead-pr.readXORUs) / engXRead
	}
	m.set("tracer.ladder_gap_frac", gap)
}
