package check

import (
	"bytes"
	"fmt"

	"repro/aboram"
	"repro/internal/core"
	"repro/internal/server"
)

// Sharded differential oracle: the same plaintext-model lockstep the
// unsharded oracle runs, but over a partitioned address space — P
// independent aboram instances behind the serving layer's routing law
// (block b on shard b mod P, shard seeds derived by server.ShardSeed).
// The target mirrors internal/server.Sharded's data plane exactly, so a
// routing bug there has a pure, scheduler-free repro here; and because
// each shard is a full instance with its own Save/Load surface, the
// oracle can additionally prove isolation — an op routed to shard i
// leaves every other shard's state fingerprint unchanged.

// shardTarget is a Target over P independent aboram instances with the
// serving layer's modulo routing. Checkpoint round-trips every shard
// through Save/Load, so checkpoint fidelity is validated per shard.
type shardTarget struct {
	shards []*aboram.ORAM
	opts   []aboram.Options
	per    int64 // blocks per shard
}

// NewShardTarget builds a P-shard oracle target of the given scheme.
// Shard i runs under server.ShardSeed(seed, i), matching what a sharded
// daemon builds from the same base seed.
func NewShardTarget(s core.Scheme, levels, shards int, seed uint64) (Target, error) {
	if shards < 1 {
		return nil, fmt.Errorf("check: shard target needs >= 1 shards, got %d", shards)
	}
	t := &shardTarget{
		shards: make([]*aboram.ORAM, shards),
		opts:   make([]aboram.Options, shards),
	}
	for i := range t.shards {
		opt := aboram.Options{
			Scheme: s, Levels: levels,
			Seed:          server.ShardSeed(seed, i),
			EncryptionKey: oracleKey,
		}
		o, err := aboram.New(opt)
		if err != nil {
			return nil, fmt.Errorf("check: building shard %d: %w", i, err)
		}
		t.shards[i] = o
		t.opts[i] = opt
	}
	t.per = t.shards[0].NumBlocks()
	return t, nil
}

// route maps a global block id onto (shard instance, local id) by the
// serving layer's law. Out-of-domain ids pass through to shard 0 so the
// target reports the same range error an unsharded instance would.
func (t *shardTarget) route(block int64) (*aboram.ORAM, int64) {
	if block < 0 || block >= t.NumBlocks() {
		return t.shards[0], block
	}
	shard, local := server.RouteBlock(block, len(t.shards))
	return t.shards[shard], local
}

func (t *shardTarget) NumBlocks() int64 { return t.per * int64(len(t.shards)) }
func (t *shardTarget) BlockSize() int   { return t.shards[0].BlockSize() }

func (t *shardTarget) Access(block int64) error {
	o, local := t.route(block)
	return o.Access(local)
}

func (t *shardTarget) Read(block int64) ([]byte, error) {
	o, local := t.route(block)
	return o.Read(local)
}

func (t *shardTarget) Write(block int64, data []byte) error {
	o, local := t.route(block)
	return o.Write(local, data)
}

// Checkpoint saves every shard and continues on the restored copies —
// the per-shard analogue of the unsharded target's Save/Load swap.
func (t *shardTarget) Checkpoint() error {
	for i, o := range t.shards {
		var buf bytes.Buffer
		if err := o.Save(&buf); err != nil {
			return fmt.Errorf("shard %d save: %w", i, err)
		}
		restored, err := aboram.Load(t.opts[i], &buf)
		if err != nil {
			return fmt.Errorf("shard %d load: %w", i, err)
		}
		t.shards[i] = restored
	}
	return nil
}

func (t *shardTarget) CheckIntegrity() error {
	for i, o := range t.shards {
		if err := o.CheckIntegrity(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// image fingerprints one shard's complete state (the SHA-256 of its
// canonical Save bytes); isolation is judged on fingerprint equality.
func (t *shardTarget) image(shard int) ([32]byte, error) {
	return t.shards[shard].Fingerprint()
}

// RunShardOracle drives a P-shard target through a seeded op sequence
// over the GLOBAL address space against the plaintext model (the same
// GenOps/RunTarget machinery as the unsharded oracle, so read-back,
// checkpoint fidelity, periodic and final integrity all apply per
// shard). It returns the first divergence, nil on a clean run.
func RunShardOracle(s core.Scheme, levels, shards int, seed uint64, n int) (*Divergence, error) {
	t, err := NewShardTarget(s, levels, shards, seed)
	if err != nil {
		return nil, err
	}
	return RunTarget(t, GenOps(seed, n, t.NumBlocks())), nil
}

// CheckShardIsolation proves the routing law confines every op to its
// shard: for each of n seeded ops it fingerprints all P shards, applies
// the op, and requires the P-1 shards the routing law did not name to
// fingerprint identically afterwards. Any drift — a stash spill, an RNG
// draw, a position-map touch on the wrong tree — is reported with the op
// that caused it. Ops that route to a checkpoint are skipped (they
// legitimately touch every shard).
func CheckShardIsolation(s core.Scheme, levels, shards int, seed uint64, n int) error {
	if shards < 2 {
		return fmt.Errorf("check: isolation needs >= 2 shards, got %d", shards)
	}
	ti, err := NewShardTarget(s, levels, shards, seed)
	if err != nil {
		return err
	}
	t := ti.(*shardTarget)
	ops := GenOps(seed, n, t.NumBlocks())
	blockB := t.BlockSize()
	model := make(map[int64][]byte)

	before := make([][32]byte, shards)
	for i, op := range ops {
		if op.Kind == OpCheckpoint {
			if err := t.Checkpoint(); err != nil {
				return fmt.Errorf("check: isolation op %d: %w", i, err)
			}
			continue
		}
		target, _ := server.RouteBlock(op.Block, shards)
		for si := range before {
			if si == target {
				continue
			}
			if before[si], err = t.image(si); err != nil {
				return fmt.Errorf("check: isolation op %d: imaging shard %d: %w", i, si, err)
			}
		}

		var want []byte
		switch op.Kind {
		case OpWrite:
			want = Fill(blockB, op.Block, op.Fill)
		case OpRead:
			want = expect(model, blockB, op.Block)
		}
		if d := applyOp(t, i, op, want); d != nil {
			return fmt.Errorf("check: isolation run diverged: %s", d)
		}
		if op.Kind == OpWrite {
			model[op.Block] = want
		}

		for si := range before {
			if si == target {
				continue
			}
			after, err := t.image(si)
			if err != nil {
				return fmt.Errorf("check: isolation op %d: re-imaging shard %d: %w", i, si, err)
			}
			if before[si] != after {
				return fmt.Errorf("check: op %d (%s) routed to shard %d perturbed shard %d (state fingerprint drifted)",
					i, op, target, si)
			}
		}
	}
	return nil
}
