package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/aboram"
	"repro/internal/core"
	"repro/internal/merkle"
	"repro/internal/ringoram"
	"repro/internal/rng"
	"repro/internal/secmem"
	"repro/internal/server"
	"repro/internal/server/wire"
)

// Probes are direct timed calls into one layer at a time: one goroutine,
// the workload's own seeded block stream, the workload's own geometry.
// They give the isolated cost of the layers the traced run can only see
// from outside (everything below server.Engine), and the allocation
// counts, which repeat exactly.

// probeResult carries the isolated aboram timings the traced run's in-situ
// engine spans are compared against.
type probeResult struct {
	readUs, writeUs, readXORUs float64
}

// mallocs runs f and returns how many heap objects and bytes it allocated.
func mallocs(f func()) (objects, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// timeEach calls f n times and returns the sorted per-call times in µs.
func timeEach(n int, f func(i int)) []float64 {
	ns := make([]int64, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		f(i)
		ns[i] = int64(time.Since(t0))
	}
	return sortedCopy(nsToUs(ns))
}

// timeBatchNs times a whole batch of n cheap calls at once — a single
// call is below the clock's resolution — and returns the median ns per
// call over reps batches.
func timeBatchNs(reps, n int, f func(i int)) float64 {
	per := make([]float64, reps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// blockStream draws n block ids from the workload's own generator.
func blockStream(seed uint64, w workload, numBlocks int64, n int) []int64 {
	g := newGenerator(seed, w, 0, 1, numBlocks)
	out := make([]int64, n)
	buf := make([]byte, 64)
	for i := range out {
		_, out[i] = g.next(buf)
	}
	return out
}

// filled builds an encrypted AB store with the workload's geometry and
// writes every block once.
func filled(opt aboram.Options, seed uint64) (*aboram.ORAM, error) {
	o, err := aboram.New(opt)
	if err != nil {
		return nil, err
	}
	r := rng.New(seed)
	buf := make([]byte, o.BlockSize())
	for b := int64(0); b < o.NumBlocks(); b++ {
		fillPayload(r, buf)
		if err := o.Write(b, buf); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// runProbes runs every probe and fills the per-layer metrics below
// server.Engine.
func runProbes(w workload, seed uint64, probeOps int, o *outcome) (probeResult, error) {
	var pr probeResult
	m := o.layer
	payload := make([]byte, 64)
	fillPayload(rng.New(seed), payload)

	// aboram: the encrypted store the daemon's engine wraps.
	opt := shardOptions(w, 0)
	store, err := filled(opt, seed)
	if err != nil {
		return pr, err
	}
	blocks := blockStream(seed, w, store.NumBlocks(), probeOps)
	var reads, writes []float64
	var perr error
	check := func(err error) {
		if err != nil && perr == nil {
			perr = err
		}
	}
	readObj, readBytes := mallocs(func() {
		reads = timeEach(probeOps, func(i int) { _, err := store.Read(blocks[i]); check(err) })
	})
	writeObj, writeBytes := mallocs(func() {
		writes = timeEach(probeOps, func(i int) { check(store.Write(blocks[i], payload)) })
	})
	pr.readUs, pr.writeUs = quantile(reads, 0.5), quantile(writes, 0.5)
	m.timing("aboram.read_us", pr.readUs, probeOps)
	m.timing("aboram.write_us", pr.writeUs, probeOps)
	m.set("aboram.read_allocs_per_op", readObj/float64(probeOps))
	m.set("aboram.write_allocs_per_op", writeObj/float64(probeOps))
	m.set("aboram.alloc_bytes_per_op", (readBytes+writeBytes)/float64(2*probeOps))

	xopt := opt
	xopt.XORRead = true
	xstore := store
	if !opt.XORRead {
		if xstore, err = filled(xopt, seed); err != nil {
			return pr, err
		}
	}
	var envs []*secmem.XORRead
	xreads := timeEach(probeOps, func(i int) {
		res, err := xstore.ReadXOR(blocks[i])
		check(err)
		if err == nil && res.Env != nil && len(envs) < 2000 {
			envs = append(envs, res.Env)
		}
	})
	pr.readXORUs = quantile(xreads, 0.5)
	m.timing("aboram.readxor_us", pr.readXORUs, probeOps)
	if perr != nil {
		return pr, fmt.Errorf("aboram probe: %w", perr)
	}
	if len(envs) == 0 {
		return pr, fmt.Errorf("aboram probe: no read produced an XOR envelope")
	}
	peel := timeEach(len(envs), func(i int) { _, err := secmem.PeelPayload(devKey, envs[i]); check(err) })
	m.timing("secmem.peelpayload_us", quantile(peel, 0.5), len(envs))

	if err := wireProbe(w, m, blocks, payload, envs); err != nil {
		return pr, err
	}
	if err := ringProbe(w, seed, m, blocks, payload); err != nil {
		return pr, err
	}
	if err := secmemProbe(w, m, probeOps, payload); err != nil {
		return pr, err
	}
	if err := serverProbe(w, seed, m, store, blocks, payload); err != nil {
		return pr, err
	}
	return pr, perr
}

// wireProbe times the codec on the workload's own messages.
func wireProbe(w workload, m metricSet, blocks []int64, payload []byte, envs []*secmem.XORRead) error {
	n := min(1000, len(blocks))
	g := rng.New(1)
	reqs := make([]wire.Request, n)
	resps := make([]wire.Response, n)
	for i := range reqs {
		if g.Float64() < w.readFrac {
			op := wire.OpRead
			if w.xor {
				op = wire.OpXRead
			}
			reqs[i] = wire.Request{Op: op, Block: blocks[i]}
			resps[i] = wire.Response{Data: payload}
		} else {
			reqs[i] = wire.Request{Op: wire.OpWrite, ID: uint64(i + 1), Block: blocks[i], Data: payload}
		}
	}
	var err error
	reqBodies := make([][]byte, n)
	respBodies := make([][]byte, n)
	for i := range reqs {
		if reqBodies[i], err = wire.AppendRequest(nil, reqs[i]); err != nil {
			return err
		}
		if respBodies[i], err = wire.AppendResponse(nil, resps[i]); err != nil {
			return err
		}
	}
	buf := make([]byte, 0, 256)
	const reps = 25
	m.timing("wire.encode_req_ns", timeBatchNs(reps, n, func(i int) { buf, _ = wire.AppendRequest(buf[:0], reqs[i]) }), reps*n)
	m.timing("wire.decode_req_ns", timeBatchNs(reps, n, func(i int) { wire.DecodeRequest(reqBodies[i]) }), reps*n)
	m.timing("wire.encode_resp_ns", timeBatchNs(reps, n, func(i int) { buf, _ = wire.AppendResponse(buf[:0], resps[i]) }), reps*n)
	m.timing("wire.decode_resp_ns", timeBatchNs(reps, n, func(i int) { wire.DecodeResponse(respBodies[i]) }), reps*n)

	xbodies := make([][]byte, len(envs))
	for i, e := range envs {
		if xbodies[i], err = wire.EncodeXRead(wire.XReadPayload{Mode: wire.XReadXOR, Env: e}); err != nil {
			return err
		}
	}
	ne := len(envs)
	m.timing("wire.xread_encode_ns", timeBatchNs(reps, ne, func(i int) {
		wire.EncodeXRead(wire.XReadPayload{Mode: wire.XReadXOR, Env: envs[i]})
	}), reps*ne)
	m.timing("wire.xread_decode_ns", timeBatchNs(reps, ne, func(i int) { wire.DecodeXRead(xbodies[i]) }), reps*ne)

	// One round trip as the client and the front end code it: encode and
	// decode of the request, encode and decode of the response.
	objs, _ := mallocs(func() {
		for i := range reqs {
			body, _ := wire.AppendRequest(nil, reqs[i])
			wire.DecodeRequest(body)
			body, _ = wire.AppendResponse(nil, resps[i])
			wire.DecodeResponse(body)
		}
	})
	m.set("wire.allocs_per_roundtrip", objs/float64(n))
	return nil
}

// timedPlane is the span-recording ringoram.DataPlane: it times every call
// into secmem and accumulates what one access spent there.
type timedPlane struct {
	inner             *secmem.Memory
	readNs, writeNs   []int64
	xorNs             []int64
	accessNs, totalNs int64
	calls             int64
}

func (p *timedPlane) spent(since time.Time, into *[]int64) {
	d := int64(time.Since(since))
	*into = append(*into, d)
	p.accessNs += d
	p.totalNs += d
	p.calls++
}

func (p *timedPlane) ReadBlock(addr uint64) ([]byte, error) {
	defer p.spent(time.Now(), &p.readNs)
	return p.inner.ReadBlock(addr)
}

func (p *timedPlane) WriteBlock(addr uint64, data []byte) error {
	defer p.spent(time.Now(), &p.writeNs)
	return p.inner.WriteBlock(addr, data)
}

func (p *timedPlane) ReadBlocksXOR(realAddr uint64, dummyAddrs []uint64) (*secmem.XORRead, []byte, error) {
	defer p.spent(time.Now(), &p.xorNs)
	return p.inner.ReadBlocksXOR(realAddr, dummyAddrs)
}

// timedAllocator is the span-recording ringoram.RemoteAllocator around the
// DeadQ.
type timedAllocator struct {
	inner             ringoram.RemoteAllocator
	accessNs, totalNs int64
}

func (a *timedAllocator) spent(since time.Time) {
	d := int64(time.Since(since))
	a.accessNs += d
	a.totalNs += d
}

func (a *timedAllocator) Offer(level int, ref ringoram.SlotRef) bool {
	defer a.spent(time.Now())
	return a.inner.Offer(level, ref)
}

func (a *timedAllocator) Claim(level, want int) []ringoram.SlotRef {
	defer a.spent(time.Now())
	return a.inner.Claim(level, want)
}

func (a *timedAllocator) Release(level int, ref ringoram.SlotRef) bool {
	defer a.spent(time.Now())
	return a.inner.Release(level, ref)
}

// ringRun is one instrumented protocol-engine run.
type ringRun struct {
	selfUs   []float64 // per access: total minus data plane minus allocator, sorted
	accessNs int64
	plane    *timedPlane
	alloc    *timedAllocator
	st       ringoram.Stats // counters over the measured accesses
	dq       core.DeadQStats
	peak     int
	overflow uint64
}

// ringRunWith builds the AB engine the way aboram.New does — core.Build +
// ringoram.New over a secmem data plane — but with the span-recording
// plane and allocator in between, preloads it, and times probeOps accesses
// (the workload's read share as ReadBlock, the rest as WriteBlock).
func ringRunWith(w workload, seed uint64, xor bool, blocks []int64, payload []byte) (*ringRun, error) {
	cfg, dq, err := core.Build(core.SchemeAB, core.DefaultOptions(w.levels, 1))
	if err != nil {
		return nil, err
	}
	mem, err := secmem.New(int64(ringoram.SpaceBytesStatic(cfg))/int64(cfg.BlockB), cfg.BlockB, devKey)
	if err != nil {
		return nil, err
	}
	r := &ringRun{plane: &timedPlane{inner: mem}, alloc: &timedAllocator{inner: dq}}
	cfg.Data, cfg.Allocator, cfg.XORRead = r.plane, r.alloc, xor
	eng, err := ringoram.New(cfg)
	if err != nil {
		return nil, err
	}
	for b := int64(0); b < cfg.NumBlocks; b++ {
		if _, err := eng.WriteBlock(b, payload); err != nil {
			return nil, err
		}
	}
	*r.plane = timedPlane{inner: mem}
	*r.alloc = timedAllocator{inner: dq}
	st0, dq0 := eng.Stats(), dq.Stats()
	mix := rng.New(seed)
	self := make([]float64, len(blocks))
	for i, b := range blocks {
		r.plane.accessNs, r.alloc.accessNs = 0, 0
		t0 := time.Now()
		if mix.Float64() < w.readFrac {
			_, _, err = eng.ReadBlock(b)
		} else {
			_, err = eng.WriteBlock(b, payload)
		}
		d := int64(time.Since(t0))
		if err != nil {
			return nil, err
		}
		r.accessNs += d
		self[i] = float64(d-r.plane.accessNs-r.alloc.accessNs) / 1e3
	}
	r.selfUs = sortedCopy(self)
	st1, dq1 := eng.Stats(), dq.Stats()
	r.st = ringoram.Stats{
		EvictPaths:       st1.EvictPaths - st0.EvictPaths,
		EarlyReshuffles:  st1.EarlyReshuffles - st0.EarlyReshuffles,
		BlocksRead:       st1.BlocksRead - st0.BlocksRead,
		BlocksWritten:    st1.BlocksWritten - st0.BlocksWritten,
		RemoteReads:      st1.RemoteReads - st0.RemoteReads,
		XORReads:         st1.XORReads - st0.XORReads,
		BGEvictSaturated: st1.BGEvictSaturated - st0.BGEvictSaturated,
		ExtendAttempts:   st1.ExtendAttempts - st0.ExtendAttempts,
		ExtendGranted:    st1.ExtendGranted - st0.ExtendGranted,
	}
	r.dq = core.DeadQStats{Claims: dq1.Claims - dq0.Claims}
	r.peak, r.overflow = eng.Stash().Peak(), eng.Stash().Overflows()
	return r, nil
}

// ringProbe fills ringoram.*, core.*, stash.* and the secmem.* metrics
// seen through the data-plane wrapper.
func ringProbe(w workload, seed uint64, m metricSet, blocks []int64, payload []byte) error {
	r, err := ringRunWith(w, seed, w.xor, blocks, payload)
	if err != nil {
		return fmt.Errorf("ringoram probe: %w", err)
	}
	xr := r
	if !w.xor { // the XOR data-plane call only exists with the fast path on
		if xr, err = ringRunWith(w, seed, true, blocks, payload); err != nil {
			return fmt.Errorf("ringoram probe (xor): %w", err)
		}
	}
	n := float64(len(blocks))
	m.timing("ringoram.access_self_us", quantile(r.selfUs, 0.5), len(blocks))
	m.set("ringoram.evict_paths_per_access", float64(r.st.EvictPaths)/n)
	m.set("ringoram.early_reshuffles_per_access", float64(r.st.EarlyReshuffles)/n)
	m.set("ringoram.blocks_read_per_access", float64(r.st.BlocksRead)/n)
	m.set("ringoram.blocks_written_per_access", float64(r.st.BlocksWritten)/n)
	m.set("ringoram.remote_reads_per_access", float64(r.st.RemoteReads)/n)
	m.set("ringoram.xor_reads_per_access", float64(xr.st.XORReads)/n)
	m.set("ringoram.bg_evict_saturated", float64(r.st.BGEvictSaturated))
	ratio := 0.0
	if r.st.ExtendAttempts > 0 {
		ratio = float64(r.st.ExtendGranted) / float64(r.st.ExtendAttempts)
	}
	m.set("core.extend_ratio", ratio)
	m.set("core.deadq_claims_per_access", float64(r.dq.Claims)/n)
	m.set("core.deadq_self_us", float64(r.alloc.totalNs)/1e3/n) // mean: most accesses never touch the queues
	m.set("stash.peak", float64(r.peak))
	m.set("stash.overflows", float64(r.overflow))
	if r.overflow > 0 {
		return fmt.Errorf("ringoram probe: %d stash overflows", r.overflow)
	}

	rd, wr, xo := sortedCopy(nsToUs(r.plane.readNs)), sortedCopy(nsToUs(r.plane.writeNs)), sortedCopy(nsToUs(xr.plane.xorNs))
	m.timing("secmem.readblock_us", quantile(rd, 0.5), len(rd))
	m.timing("secmem.writeblock_us", quantile(wr, 0.5), len(wr))
	m.timing("secmem.readblocksxor_us", quantile(xo, 0.5), len(xo))
	m.set("secmem.calls_per_access", float64(r.plane.calls)/n)
	m.set("secmem.share_of_access", float64(r.plane.totalNs)/float64(r.accessNs))

	// Allocations of the protocol engine alone: pattern-only, the mode the
	// simulator runs it in.
	bare, _, err := core.New(core.SchemeAB, core.DefaultOptions(w.levels, 1))
	if err != nil {
		return err
	}
	var aerr error
	objs, _ := mallocs(func() {
		for _, b := range blocks {
			if _, err := bare.Access(b); err != nil {
				aerr = err
			}
		}
	})
	m.set("ringoram.access_allocs_per_op", objs/n)
	return aerr
}

// secmemProbe times secmem and merkle directly, at the slot count the
// workload's tree gives the data plane.
func secmemProbe(w workload, m metricSet, probeOps int, payload []byte) error {
	cfg, _, err := core.Build(core.SchemeAB, core.DefaultOptions(w.levels, 1))
	if err != nil {
		return err
	}
	slots := int64(ringoram.SpaceBytesStatic(cfg)) / int64(cfg.BlockB)
	mem, err := secmem.New(slots, cfg.BlockB, devKey)
	if err != nil {
		return err
	}
	pick := rng.New(7)
	idx := make([]int64, probeOps)
	for i := range idx {
		idx[i] = int64(pick.Uint64n(uint64(slots)))
	}
	var perr error
	wobj, _ := mallocs(func() {
		for _, i := range idx {
			if err := mem.Write(i, payload); err != nil {
				perr = err
			}
		}
	})
	robj, _ := mallocs(func() {
		for _, i := range idx {
			if _, err := mem.Read(i); err != nil {
				perr = err
			}
		}
	})
	m.set("secmem.write_allocs_per_op", wobj/float64(probeOps))
	m.set("secmem.read_allocs_per_op", robj/float64(probeOps))

	tree, err := merkle.New(int(slots))
	if err != nil {
		return err
	}
	leaf := make([]byte, 16+cfg.BlockB) // secmem authenticates (index, version, ciphertext)
	copy(leaf[16:], payload)
	var upd []float64
	uobj, _ := mallocs(func() {
		upd = timeEach(probeOps, func(i int) {
			if err := tree.Update(int(idx[i]), leaf); err != nil {
				perr = err
			}
		})
	})
	ver := timeEach(probeOps, func(i int) {
		if err := tree.Verify(int(idx[i]), leaf); err != nil {
			perr = err
		}
	})
	m.timing("merkle.update_us", quantile(upd, 0.5), probeOps)
	m.timing("merkle.verify_us", quantile(ver, 0.5), probeOps)
	m.set("merkle.update_allocs_per_op", uobj/float64(probeOps))
	return perr
}

// timedEngine accumulates the time a scheduler spends inside its engine.
// The scheduler goroutine writes ns before it answers the request, and the
// probe reads it after the answer arrived, so the channel orders the two.
type timedEngine struct {
	*aboram.ORAM
	ns int64
}

func (e *timedEngine) Read(block int64) ([]byte, error) {
	t0 := time.Now()
	defer func() { e.ns += int64(time.Since(t0)) }()
	return e.ORAM.Read(block)
}

func (e *timedEngine) Write(block int64, data []byte) error {
	t0 := time.Now()
	defer func() { e.ns += int64(time.Since(t0)) }()
	return e.ORAM.Write(block, data)
}

// serverProbe measures what the scheduler adds around an engine call:
// server.Server.Read/Write called directly, minus the wrapped engine span
// — admission, the queue, the wake-up, batch bookkeeping, the reply
// channel — and the same through the Sharded router at P = 2.
func serverProbe(w workload, seed uint64, m metricSet, store *aboram.ORAM, blocks []int64, payload []byte) error {
	ctx := context.Background()
	mix := rng.New(seed)
	var perr error
	drive := func(b server.Backend, engines ...*timedEngine) []float64 {
		us := make([]float64, len(blocks))
		for i, blk := range blocks {
			for _, e := range engines {
				e.ns = 0
			}
			blk %= b.NumBlocks()
			t0 := time.Now()
			var err error
			if mix.Float64() < w.readFrac {
				_, err = b.Read(ctx, blk)
			} else {
				err = b.Write(ctx, blk, payload)
			}
			d := int64(time.Since(t0))
			if err != nil {
				perr = err
			}
			for _, e := range engines {
				d -= e.ns
			}
			us[i] = float64(d) / 1e3
		}
		return sortedCopy(us)
	}

	eng := &timedEngine{ORAM: store}
	srv := server.New(eng, server.Config{Queue: 256, Batch: 16})
	m.timing("server.submit_overhead_us", quantile(drive(srv, eng), 0.5), len(blocks))
	srv.Close()

	half := shardOptions(w, 0)
	if w.shards == 1 {
		half.Levels-- // two shards holding the same block count as the one tree
	}
	var pair []*timedEngine
	for i := 0; i < 2; i++ {
		half.Seed = server.ShardSeed(1, i)
		s, err := filled(half, seed)
		if err != nil {
			return err
		}
		pair = append(pair, &timedEngine{ORAM: s})
	}
	sh, err := server.NewSharded([]server.Engine{pair[0], pair[1]}, server.Config{Queue: 256, Batch: 16})
	if err != nil {
		return err
	}
	m.timing("sharded.route_overhead_us", quantile(drive(sh, pair...), 0.5), len(blocks))
	sh.Close()
	if perr != nil {
		return fmt.Errorf("server probe: %w", perr)
	}
	return nil
}
