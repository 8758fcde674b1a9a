package main

import (
	"encoding/binary"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// streamSeed derives one independent random stream, with the simulator's
// own FNV-1a job-seed derivation. The benchmark seed drives only block
// choice, op mix and payload bytes; a stream is a pure function of (seed,
// workload, client index, role), so two runs with the same seed issue
// identical requests whatever the system under test does.
func streamSeed(seed uint64, workload string, client int, role string) uint64 {
	return sim.JobSeed(seed, role, workload, client)
}

// clientSlice returns the contiguous share [lo, lo+n) of the block space
// that client c of clients owns. Contiguous, not `b mod clients`: that
// would alias the daemon's `b mod P` shard router and pin each client to
// one shard.
func clientSlice(numBlocks int64, c, clients int) (lo, n int64) {
	lo = numBlocks * int64(c) / int64(clients)
	hi := numBlocks * int64(c+1) / int64(clients)
	return lo, hi - lo
}

// generator produces one client's op stream over its own slice.
type generator struct {
	ops      *rng.Source
	lo, n    int64
	readFrac float64
	zipf     *trace.Zipf
	perm     []int // zipf rank -> offset within the slice
}

func newGenerator(seed uint64, w workload, client, clients int, numBlocks int64) *generator {
	lo, n := clientSlice(numBlocks, client, clients)
	g := &generator{
		ops:      rng.New(streamSeed(seed, w.name, client, "ops")),
		lo:       lo,
		n:        n,
		readFrac: w.readFrac,
	}
	if w.zipf > 0 {
		// Ranks go through a seeded permutation so the hot set is spread
		// over the slice (and over both shards) instead of sitting at its
		// low end.
		g.zipf = trace.NewZipf(rng.New(streamSeed(seed, w.name, client, "zipf")), w.zipf, uint64(n))
		g.perm = rng.New(streamSeed(seed, w.name, client, "perm")).Perm(int(n))
	}
	return g
}

// next draws one op. For a write it fills payload (one block) with fresh
// random bytes.
func (g *generator) next(payload []byte) (read bool, block int64) {
	read = g.ops.Float64() < g.readFrac
	if g.zipf != nil {
		block = g.lo + int64(g.perm[g.zipf.Next()])
	} else {
		block = g.lo + int64(g.ops.Uint64n(uint64(g.n)))
	}
	if !read {
		fillPayload(g.ops, payload)
	}
	return read, block
}

func fillPayload(r *rng.Source, payload []byte) {
	for i := 0; i+8 <= len(payload); i += 8 {
		binary.LittleEndian.PutUint64(payload[i:], r.Uint64())
	}
	for i := len(payload) &^ 7; i < len(payload); i++ {
		payload[i] = byte(r.Uint64())
	}
}
