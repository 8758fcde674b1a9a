// Fleet lifecycle: everything between "a data directory, a seed, and an
// engine template" and "engines a Sharded can serve" — the reshard
// journal and the layout it resolves to, opening any generation's
// engines under one seed/directory/stagger law, the log shippers and
// ReplicaHub of the boot-time layout with the fencing-term law,
// begin/resume/retire/prune of a live migration, and a once-only Close.
// The fleet hands engines out rather than owning the schedulers, so a
// harness can wrap each one (the chaos soak's apply tracker does) before
// building its Sharded. cmd/aboramd and internal/check's kill-recover
// oracles all drive this type: the orderings the oracles prove are the
// ones the daemon runs.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/aboram"
	"repro/internal/durable"
	"repro/internal/server/wire"
	"repro/internal/vfs"
)

// FleetConfig describes a fleet.
type FleetConfig struct {
	// Engine is the engine template and the fleet's identity: exactly
	// shard 0 of generation 0 of a width-1 fleet (P=1 is the unsharded
	// engine, byte for byte). Dir is the data directory root (empty =
	// in-memory engines), ORAM.Seed the base seed, FS also carries the
	// journal, Logf also serves the fleet, its shippers, and its hub. Per
	// shard the fleet sets Dir, ORAM.Seed, SnapshotPhase, and Ship; every
	// other field reaches durable.Open as given.
	Engine durable.Options
	// SemiSync, AckTimeout, and ChunkBytes configure every shard's
	// durable.Shipper (fields of the same names; zero = its defaults).
	SemiSync   bool
	AckTimeout time.Duration
	ChunkBytes int
	// HeartbeatEvery is the hub's (zero = its default).
	HeartbeatEvery time.Duration
}

// generation is one layout generation's open engines.
type generation struct {
	gen     uint64
	engines []Engine          // what a Sharded serves, index = shard
	durable []*durable.Engine // the same engines; nil for an in-memory fleet
}

// Fleet is an open deployment: the serving generation's engines plus,
// during a live reshard, the target generation's.
type Fleet struct {
	cfg     FleetConfig
	fs      vfs.FS
	journal *durable.ReshardJournal // nil in memory: migrations are volatile
	// ships and boot belong to the generation serving at open: a standby
	// mirrors that one layout, so the fencing term lives with it too.
	ships []*durable.Shipper
	boot  *generation

	mu sync.Mutex
	// lay is the live layout: Gen/Shards name the serving generation,
	// Active the migration journaled or in flight.
	lay     durable.ReshardLayout
	resumed bool          // lay.Active came from the journal, not from this process
	gens    []*generation // open generations: serving, then Active's target once opened
	mig     *Resharder    // latest installed migration, possibly finished
	closed  bool
}

// OpenFleet resolves the layout and opens the serving generation. shards
// is the configured width of the pre-reshard layout; once a migration has
// ever been journaled, the journal — whose first record pins that width —
// is authoritative instead, so a restart with a stale width still finds
// the layout the journal proves.
func OpenFleet(cfg FleetConfig, shards int) (*Fleet, error) {
	f := &Fleet{cfg: cfg, fs: cfg.Engine.FS, lay: durable.ReshardLayout{Shards: shards}}
	if f.fs == nil {
		f.fs = vfs.OS{}
	}
	if dir := cfg.Engine.Dir; dir != "" {
		j, err := durable.OpenReshardJournal(f.fs, dir)
		if err != nil {
			return nil, err
		}
		recs := j.Records()
		if len(recs) > 0 {
			shards = 0 // accept the width the first Begin record claims
		}
		if f.lay, err = durable.ResolveReshard(recs, shards); err != nil {
			return nil, fmt.Errorf("reshard journal: %w", err)
		}
		f.journal, f.resumed = j, f.lay.Active != nil
	}
	boot, err := f.openGen(f.lay.Gen, f.lay.Shards, true)
	if err != nil {
		return nil, err
	}
	f.boot, f.gens = boot, []*generation{boot}
	return f, nil
}

func (f *Fleet) logf(format string, args ...any) {
	if f.cfg.Engine.Logf != nil {
		f.cfg.Engine.Logf(format, args...)
	}
}

// openGen opens generation gen's engines. Each shard draws from its own
// seed and directory, and checkpoint schedules are staggered: shard i's
// first rotation lands i/P of a period early, so a fleet opened together
// never pauses (or publishes) in lockstep. Durable fleets ship the boot
// generation's log whether or not a standby ever attaches (ship; the
// shipper must exist before its engine opens); migration targets are
// never shipped. On failure the opened prefix is closed.
func (f *Fleet) openGen(gen uint64, shards int, ship bool) (*generation, error) {
	g := &generation{gen: gen}
	base := f.cfg.Engine
	genSeed := GenSeed(base.ORAM.Seed, gen)
	for i := 0; i < shards; i++ {
		opt := base
		opt.ORAM.Seed = ShardSeed(genSeed, i)
		if base.Dir == "" {
			o, err := aboram.New(opt.ORAM)
			if err != nil {
				return nil, err
			}
			g.engines = append(g.engines, o)
			continue
		}
		opt.Dir = durable.ShardDir(base.Dir, gen, i, shards)
		opt.SnapshotPhase = base.SnapshotEvery * i / shards
		opt.Ship = nil
		if ship {
			opt.Ship = &durable.Shipper{
				Shard: i, SemiSync: f.cfg.SemiSync, AckTimeout: f.cfg.AckTimeout,
				ChunkBytes: f.cfg.ChunkBytes, Logf: base.Logf,
			}
			f.ships = append(f.ships, opt.Ship)
		}
		e, err := durable.Open(opt)
		if err != nil {
			g.close() // the open error is the one worth reporting
			return nil, fmt.Errorf("gen %d shard %d: %w", gen, i, err)
		}
		f.logf("recovered %s: %s", opt.Dir, e.Recovery())
		g.engines = append(g.engines, e)
		g.durable = append(g.durable, e)
	}
	return g, nil
}

// close closes the generation's durable engines; their schedulers must
// be stopped. Each syncs and closes its WAL for the next open to replay.
func (g *generation) close() error {
	var errs []error
	for i, e := range g.durable {
		if err := e.Close(); err != nil {
			errs = append(errs, fmt.Errorf("closing gen %d shard %d data dir: %w", g.gen, i, err))
		}
	}
	return errors.Join(errs...)
}

// Layout reports the serving generation and width, the highest
// generation ever begun, and the migration journaled or in flight.
func (f *Fleet) Layout() durable.ReshardLayout {
	f.mu.Lock()
	defer f.mu.Unlock()
	lay := f.lay
	if lay.Active != nil {
		p := *lay.Active
		lay.Active = &p
	}
	return lay
}

// Engines returns the serving generation's engines, index = shard, for
// the caller to build its Sharded over.
func (f *Fleet) Engines() []Engine {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Engine(nil), f.gens[0].engines...)
}

// RecentWriteIDs concatenates the write ids every open engine recovered,
// for seeding the front end's retry-dedup window: a write retried across
// the restart is then answered from the window, not applied twice. Call
// it while the engines are quiescent — before traffic and the copier.
func (f *Fleet) RecentWriteIDs() []uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var ids []uint64
	for _, g := range f.gens {
		for _, e := range g.durable {
			ids = append(ids, e.RecentWriteIDs()...)
		}
	}
	return ids
}

// ShardStats is one durable engine's counters, labelled with its place
// in the fleet.
type ShardStats struct {
	Gen      uint64
	Shard    int
	Target   bool // part of the in-flight migration's target generation
	Epoch    uint64
	Durable  durable.Stats
	Recovery durable.RecoveryStats
}

// Stats snapshots every durable engine, serving generation first, then
// the migration target's; it keeps answering after Close. Safe from any
// goroutine.
func (f *Fleet) Stats() []ShardStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []ShardStats
	for gi, g := range f.gens {
		for i, e := range g.durable {
			out = append(out, ShardStats{
				Gen: g.gen, Shard: i, Target: gi > 0,
				Epoch: e.Epoch(), Durable: e.Stats(), Recovery: e.Recovery(),
			})
		}
	}
	return out
}

// ShipStats snapshots each shard's replication link (none in memory).
func (f *Fleet) ShipStats() []durable.ShipStats {
	out := make([]durable.ShipStats, len(f.ships))
	for i, s := range f.ships {
		out[i] = s.Stats()
	}
	return out
}

// Term is the fleet's fencing term: the max across shards.
func (f *Fleet) Term() uint64 {
	var t uint64
	for _, e := range f.boot.durable {
		t = max(t, e.Term())
	}
	return t
}

// Promote fences the fleet as the new primary: every shard is durably
// raised to one past the highest term any shard holds, so a retry after
// a failure part way through still lands all shards on one higher term.
// Call it before the engines are handed to schedulers.
func (f *Fleet) Promote() (uint64, error) {
	term := f.Term() + 1
	for i, e := range f.boot.durable {
		if err := e.SetTerm(term); err != nil {
			return 0, fmt.Errorf("fencing term %d on shard %d: %w", term, i, err)
		}
	}
	return term, nil
}

// Hub builds the primary side of the replication link over the fleet's
// shippers; srv, the Sharded serving Engines, is prodded so idle shards
// service a standby's bootstrap promptly. nil in memory (no log to ship).
func (f *Fleet) Hub(srv *Sharded) *ReplicaHub {
	if f.ships == nil {
		return nil
	}
	return &ReplicaHub{
		Shippers:       f.ships,
		Term:           f.Term,
		Nudge:          func(shard int) { srv.Access(context.Background(), int64(shard)) },
		HeartbeatEvery: f.cfg.HeartbeatEvery,
		Logf:           f.cfg.Engine.Logf,
	}
}

// fleetJournal binds the data directory's journal to one migration's
// generation: the MigrationJournal a Resharder records through.
type fleetJournal struct {
	j   *durable.ReshardJournal
	gen uint64
	to  int
}

func (g fleetJournal) RecordRange(w int64) error {
	return g.j.Append(durable.ReshardRecord{Op: durable.ReshardRange, Gen: g.gen, Watermark: w})
}
func (g fleetJournal) RecordCutover() error {
	return g.j.Append(durable.ReshardRecord{Op: durable.ReshardCutover, Gen: g.gen, To: g.to})
}
func (g fleetJournal) RecordAbortBegin() error {
	return g.j.Append(durable.ReshardRecord{Op: durable.ReshardAbortBegin, Gen: g.gen})
}
func (g fleetJournal) RecordAborted() error {
	return g.j.Append(durable.ReshardRecord{Op: durable.ReshardAborted, Gen: g.gen})
}

// OpenTarget opens a migration's target generation and returns its
// engines for BeginReshard. A migration journaled in flight
// (Layout().Active) is reopened — its trees recover from their own
// snapshots and WALs — and to is ignored. Otherwise one to `to` shards
// begins: the Begin record is journaled first, then the fresh generation
// opens, so a crash between the two resumes at watermark 0 into trees
// the next open creates.
func (f *Fleet) OpenTarget(to int) ([]Engine, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, errors.New("reshard: fleet closed")
	}
	if len(f.gens) > 1 {
		phase := wire.ReshardPhaseRunning
		if f.mig != nil {
			phase = f.mig.Status().Phase
		}
		return nil, fmt.Errorf("reshard: migration already %s", phase)
	}
	if f.lay.Active == nil {
		from := f.lay.Shards
		if to == from {
			return nil, fmt.Errorf("reshard: already serving %d shards", from)
		}
		if to < 1 || to > 1<<16-1 {
			return nil, fmt.Errorf("reshard: target %d out of range [1, %d]", to, 1<<16-1)
		}
		// Replication covers the layout the standby joined: a migration
		// would cut service over to a fleet the standby never hears about.
		for _, s := range f.ships {
			if s.Stats().Attached {
				return nil, errors.New("reshard: unsupported while a standby is attached (detach the replica first)")
			}
		}
		gen := f.lay.MaxGen + 1
		if f.journal != nil {
			if err := f.journal.Append(durable.ReshardRecord{Op: durable.ReshardBegin, Gen: gen, From: from, To: to}); err != nil {
				return nil, err
			}
		}
		f.lay.MaxGen, f.lay.Active, f.resumed = gen, &durable.ReshardProgress{Gen: gen, From: from, To: to}, false
	}
	g, err := f.openGen(f.lay.Active.Gen, f.lay.Active.To, false)
	if err != nil {
		f.abandonLocked()
		return nil, err
	}
	f.gens = append(f.gens, g)
	return append([]Engine(nil), g.engines...), nil
}

// BeginReshard installs OpenTarget's engines (or the caller's wrappers
// around them) as srv's migration target, at the journaled watermark and
// direction when resuming. The fleet fills cfg's Journal, Gen, Watermark,
// and Aborting and chains OnDone behind its own retirement of the losing
// generation; the caller runs the returned Resharder.
func (f *Fleet) BeginReshard(srv *Sharded, engines []Engine, cfg ReshardConfig) (*Resharder, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || len(f.gens) < 2 || (f.mig != nil && f.mig.cfg.Gen == f.lay.Active.Gen) {
		return nil, errors.New("reshard: BeginReshard needs a freshly opened target")
	}
	p := *f.lay.Active
	cfg.Gen, cfg.Watermark, cfg.Aborting = p.Gen, p.Watermark, p.Aborting
	if f.journal != nil {
		cfg.Journal = fleetJournal{f.journal, p.Gen, p.To}
	}
	onDone := cfg.OnDone
	cfg.OnDone = func(phase wire.ReshardPhase, err error) {
		f.finished(srv, p.Gen, phase, err)
		if onDone != nil {
			onDone(phase, err)
		}
	}
	r, err := srv.BeginReshard(engines, cfg)
	if err != nil {
		if cerr := f.gens[1].close(); cerr != nil {
			f.logf("%v", cerr)
		}
		f.gens = f.gens[:1]
		f.abandonLocked()
		return nil, err
	}
	f.mig = r
	switch {
	case !f.resumed:
		f.logf("reshard: migrating %d -> %d shards (generation %d)", p.From, p.To, p.Gen)
	case p.Aborting:
		f.logf("reshard: resuming rollback of migration %d -> %d shards (generation %d) at watermark %d", p.From, p.To, p.Gen, p.Watermark)
	default:
		f.logf("reshard: resuming migration %d -> %d shards (generation %d) at watermark %d", p.From, p.To, p.Gen, p.Watermark)
	}
	return r, nil
}

// abandonLocked gives up on a migration that never reached dual routing.
// One this process began is retired in the journal with an immediate
// (empty) rollback, so the next start does not resume a migration that
// never ran; one the journal handed down stays for the next start.
func (f *Fleet) abandonLocked() {
	if f.resumed {
		return
	}
	if gen := f.lay.Active.Gen; f.journal != nil {
		if f.journal.Append(durable.ReshardRecord{Op: durable.ReshardAbortBegin, Gen: gen}) == nil {
			f.journal.Append(durable.ReshardRecord{Op: durable.ReshardAborted, Gen: gen})
		}
	}
	f.lay.Active = nil
}

// finished runs on the copier goroutine at a terminal phase: it retires
// whichever generation lost (the old one after a cutover, the target
// after a rollback), closes its engines — their schedulers are already
// stopped — and prunes dead generation directories.
func (f *Fleet) finished(srv *Sharded, gen uint64, phase wire.ReshardPhase, err error) {
	f.mu.Lock()
	var retired *generation
	switch phase {
	case wire.ReshardPhaseDone:
		retired, f.gens = f.gens[0], f.gens[1:]
		f.lay.Gen, f.lay.Shards = gen, f.lay.Active.To
	case wire.ReshardPhaseAborted:
		retired, f.gens = f.gens[1], f.gens[:1]
	default:
		// Failed: both generations stay open — routing keeps serving the
		// last durable watermark, and a restart resumes the migration.
		f.mu.Unlock()
		f.logf("reshard: migration to generation %d failed: %v (serving continues; restart resumes)", gen, err)
		return
	}
	f.lay.Active = nil
	keep, maxGen := f.lay.Gen, f.lay.MaxGen
	f.mu.Unlock()
	// Off the fleet's books before it closes: Close can no longer reach
	// these engines, so each closes exactly once.
	if cerr := retired.close(); cerr != nil {
		f.logf("%v", cerr)
	}
	if f.journal != nil {
		if n := durable.PruneGens(f.fs, f.cfg.Engine.Dir, maxGen, keep); n > 0 {
			f.logf("reshard: pruned %d dead generation directories", n)
		}
	}
	f.logf("reshard: %s (generation %d, now %d shards)", phase, srv.Generation(), srv.Shards())
}

// Close stops and joins any in-flight migration (the copier, its OnDone
// included, must be out of the engines), then closes every engine the
// fleet still holds, each exactly once. Close the Sharded serving them
// first. A second Close is a no-op.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	mig := f.mig
	f.mu.Unlock()
	if mig != nil {
		mig.halt()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var errs []error
	for _, g := range f.gens {
		errs = append(errs, g.close())
	}
	return errors.Join(errs...)
}
