// Live resharding: migrating a serving Sharded deployment from P to P′
// shard trees without downtime. The Resharder is a paced background
// copier walking the global block space range by range:
//
//	for each range [lo, hi):
//	    1. publish the routing table with [lo, hi) fenced — writes to the
//	       range wait on a brief barrier; reads keep flowing
//	    2. copy each block through the shard schedulers: read from the
//	       source layout, write into the target layout (the copy ops are
//	       ordinary scheduler requests, so they queue behind — and are
//	       shed alongside — client traffic)
//	    3. durably record the new watermark in the migration journal
//	    4. publish the advanced watermark and release the fence
//
// Dual routing (routeTable / RouteBlockMigrating in sharded.go) serves
// every block from whichever layout owns it: below the watermark the
// target fleet, at or above it the old fleet. The fence plus the write
// re-apply protocol in Sharded.WriteID make the copy linearizable with
// concurrent writes: a write that lands while its block's ownership
// moves is re-applied through the new layout before it is acknowledged,
// so an acknowledgment always implies visibility in the owning layout.
//
// Crash safety is delegated to the journal (internal/durable's
// ReshardJournal behind the MigrationJournal interface): the watermark
// is recorded durably before routing advances past it, and copied
// blocks are themselves durable before the record (the shard schedulers
// acknowledge writes only after their engine persisted them). A daemon
// killed at any point re-resolves the journal on boot and resumes the
// copy from the last durable watermark; re-copying a partially copied
// range is idempotent (whole-block writes, values re-read at copy time).
//
// Abort is a reverse migration: the watermark retreats, copying blocks
// back from the target layout into the old one, until the old layout
// owns everything again. The same journal, fence, and re-apply
// machinery covers both directions.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/server/wire"
)

// MigrationJournal is the durable progress record a Resharder writes.
// internal/durable's ReshardJournal implements it (behind a thin
// adapter binding the generation); each call must be durable on return.
type MigrationJournal interface {
	// RecordRange records the migrated watermark: blocks [0, watermark)
	// are owned by the target layout.
	RecordRange(watermark int64) error
	// RecordCutover marks the target layout authoritative.
	RecordCutover() error
	// RecordAbortBegin marks the migration rolling back.
	RecordAbortBegin() error
	// RecordAborted marks the rollback complete.
	RecordAborted() error
}

// ReshardConfig tunes one migration.
type ReshardConfig struct {
	// Journal persists migration progress; nil runs a volatile migration
	// (tests only — a crash then loses the layout).
	Journal MigrationJournal
	// RangeSize is the number of blocks fenced and copied per step
	// (default 64). Smaller ranges mean shorter write stalls.
	RangeSize int64
	// Pace sleeps between ranges, bounding the migration's share of
	// scheduler time (default 0: copy as fast as shedding allows).
	Pace time.Duration
	// OpTimeout is the deadline on each copy read/write (default 2s);
	// shed or timed-out copy ops back off and retry, so client traffic
	// outranks migration work under overload.
	OpTimeout time.Duration
	// Watermark resumes a recovered migration: blocks [0, Watermark) are
	// already owned by the target layout.
	Watermark int64
	// Aborting resumes a recovered migration that was rolling back.
	Aborting bool
	// Gen is the target generation, recorded for status reporting.
	Gen uint64
	// OnDone, when non-nil, is called exactly once from the migration
	// goroutine when the migration reaches a terminal phase (Done,
	// Aborted, or Failed — not on Stop). The retired fleet's schedulers
	// are already closed; the caller typically closes their engines and
	// prunes the dead generation's directory.
	OnDone func(phase wire.ReshardPhase, err error)
}

func (cfg ReshardConfig) withDefaults() ReshardConfig {
	if cfg.RangeSize <= 0 {
		cfg.RangeSize = 64
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 2 * time.Second
	}
	return cfg
}

// Resharder is one in-flight (or finished) migration. Run drives it;
// Pause/Resume/Abort/Stop steer it from other goroutines.
type Resharder struct {
	sh       *Sharded
	cfg      ReshardConfig
	from, to int
	total    int64 // blocks to move: perShard * min(from, to)

	mu          sync.Mutex
	cond        *sync.Cond
	phase       wire.ReshardPhase
	watermark   int64
	abortWanted bool
	stopped     bool
	running     bool // Run has been entered
	err         error
	done        chan struct{}
}

// BeginReshard installs dual routing toward a fresh fleet of target
// engines and returns the Resharder that will drive the copy; the
// caller runs it (`go r.Run()`). The target engines must have the same
// per-shard geometry as the current fleet and — when resuming after a
// crash — already hold the blocks below cfg.Watermark. From Begin on,
// the served address space is perShard*min(P, P′): on a shrink the tail
// range is retired immediately (refused with a range error) rather than
// accepted into space the cutover would drop.
func (sh *Sharded) BeginReshard(engines []Engine, cfg ReshardConfig) (*Resharder, error) {
	cfg = cfg.withDefaults()
	sh.reshardMu.Lock()
	defer sh.reshardMu.Unlock()
	rt := sh.rt.Load()
	if rt.next != nil {
		return nil, errors.New("server: reshard already in flight")
	}
	if len(engines) == 0 {
		return nil, errors.New("server: reshard needs at least one target shard")
	}
	if len(engines) == rt.curShards {
		return nil, fmt.Errorf("server: reshard to the current width %d", rt.curShards)
	}
	if !sh.encrypted {
		return nil, errors.New("server: resharding requires an encrypted data plane (block content must be copied)")
	}
	for i, e := range engines {
		if e.NumBlocks() != sh.perShard || e.BlockSize() != sh.blockB || e.Encrypted() != sh.encrypted {
			return nil, fmt.Errorf("server: reshard target shard %d geometry %d×%dB/enc=%v differs from %d×%dB/enc=%v",
				i, e.NumBlocks(), e.BlockSize(), e.Encrypted(), sh.perShard, sh.blockB, sh.encrypted)
		}
	}
	to := len(engines)
	total := sh.perShard * int64(min(rt.curShards, to))
	if cfg.Watermark < 0 || cfg.Watermark > total {
		return nil, fmt.Errorf("server: reshard watermark %d outside [0,%d]", cfg.Watermark, total)
	}
	// Seed the cold target schedulers' service estimates from the loaded
	// fleet, so their retry-after hints and deadline shedding are sane
	// from the first op.
	seed := AggregateMetrics(sh.ShardMetrics())
	next := make([]*Server, 0, to)
	for _, e := range engines {
		srv := New(e, sh.cfg)
		srv.SeedServiceEstimates(seed)
		next = append(next, srv)
	}
	sh.rt.Store(&routeTable{
		cur:        rt.cur,
		curShards:  rt.curShards,
		numBlocks:  total,
		next:       next,
		nextShards: to,
		watermark:  cfg.Watermark,
	})
	r := &Resharder{
		sh:        sh,
		cfg:       cfg,
		from:      rt.curShards,
		to:        to,
		total:     total,
		phase:     wire.ReshardPhaseRunning,
		watermark: cfg.Watermark,
		done:      make(chan struct{}),
	}
	if cfg.Aborting {
		r.phase = wire.ReshardPhaseAborting
	}
	r.cond = sync.NewCond(&r.mu)
	sh.resharder = r
	return r, nil
}

// CurrentReshard returns the latest migration (possibly finished), or
// nil if none has been started on this Sharded.
func (sh *Sharded) CurrentReshard() *Resharder {
	sh.reshardMu.Lock()
	defer sh.reshardMu.Unlock()
	return sh.resharder
}

// ReshardInfo reports the serving layout and migration status in wire
// form, ready for the OpReshard response.
func (sh *Sharded) ReshardInfo() wire.ReshardInfo {
	rt := sh.rt.Load()
	info := wire.ReshardInfo{
		Phase:     wire.ReshardPhaseIdle,
		Shards:    rt.curShards,
		NumBlocks: rt.numBlocks,
		Gen:       sh.gen.Load(),
	}
	if r := sh.CurrentReshard(); r != nil {
		st := r.Status()
		info.Phase, info.From, info.To = st.Phase, st.From, st.To
		info.Watermark, info.Total = st.Watermark, st.Total
	}
	return info
}

// Run drives the migration to a terminal phase and returns its error
// (nil for Done and Aborted). Call it from a dedicated goroutine.
func (r *Resharder) Run() error {
	r.mu.Lock()
	r.running = true
	r.mu.Unlock()
	err := r.run()
	close(r.done)
	return err
}

func (r *Resharder) run() error {
	for {
		r.mu.Lock()
		for r.phase == wire.ReshardPhasePaused && !r.stopped && !r.abortWanted {
			r.cond.Wait()
		}
		if r.stopped {
			err := r.err
			r.mu.Unlock()
			return err
		}
		if r.abortWanted && r.phase != wire.ReshardPhaseAborting {
			r.mu.Unlock()
			// The direction flip must be durable before any copy-back:
			// otherwise a crash could resume forward over ranges already
			// rolled back.
			if r.cfg.Journal != nil {
				if err := r.cfg.Journal.RecordAbortBegin(); err != nil {
					return r.fail(err)
				}
			}
			r.mu.Lock()
			r.phase = wire.ReshardPhaseAborting
		}
		phase, w := r.phase, r.watermark
		r.mu.Unlock()

		if phase == wire.ReshardPhaseAborting {
			if w == 0 {
				return r.finishAbort()
			}
			if err := r.copyRange(max(0, w-r.cfg.RangeSize), w, true); err != nil {
				return r.fail(err)
			}
		} else {
			if w == r.total {
				return r.cutover()
			}
			if err := r.copyRange(w, min(w+r.cfg.RangeSize, r.total), false); err != nil {
				return r.fail(err)
			}
		}
		if r.cfg.Pace > 0 {
			time.Sleep(r.cfg.Pace)
		}
	}
}

// copyRange fences [lo, hi), copies each block from the owning layout
// into the other one, durably journals the new watermark, then
// publishes it and releases the fence. On any failure the fence is
// released with the watermark unchanged — routing stays consistent with
// the last durable record, and a resume re-copies the range.
func (r *Resharder) copyRange(lo, hi int64, reverse bool) error {
	sh := r.sh
	rt := sh.rt.Load()
	fence := make(chan struct{})
	fenced := *rt
	fenced.moveLo, fenced.moveHi, fenced.fence = lo, hi, fence
	sh.rt.Store(&fenced)
	release := func(w int64) {
		clean := *rt
		clean.watermark = w
		sh.rt.Store(&clean)
		close(fence)
	}
	for b := lo; b < hi; b++ {
		var src, dst *Server
		var srcLocal, dstLocal int64
		if reverse {
			si, sl := RouteBlock(b, rt.nextShards)
			di, dl := RouteBlock(b, rt.curShards)
			src, srcLocal, dst, dstLocal = rt.next[si], sl, rt.cur[di], dl
		} else {
			si, sl := RouteBlock(b, rt.curShards)
			di, dl := RouteBlock(b, rt.nextShards)
			src, srcLocal, dst, dstLocal = rt.cur[si], sl, rt.next[di], dl
		}
		var data []byte
		err := r.copyOp(func(ctx context.Context) error {
			var e error
			data, e = src.Read(ctx, srcLocal)
			return e
		})
		if err == nil {
			err = r.copyOp(func(ctx context.Context) error {
				return dst.WriteID(ctx, 0, dstLocal, data)
			})
		}
		if err != nil {
			release(rt.watermark)
			return fmt.Errorf("server: reshard copy of block %d: %w", b, err)
		}
	}
	w := hi
	if reverse {
		w = lo
	}
	if r.cfg.Journal != nil {
		if err := r.cfg.Journal.RecordRange(w); err != nil {
			release(rt.watermark)
			return err
		}
	}
	release(w)
	r.mu.Lock()
	r.watermark = w
	r.mu.Unlock()
	return nil
}

// copyOp runs one copy read/write with the configured deadline,
// retrying with backoff when the shard shed it (queue full, deadline
// shed, timeout) — client traffic outranks the migration. Any other
// error, or a Stop, is final.
func (r *Resharder) copyOp(f func(context.Context) error) error {
	backoff := time.Millisecond
	for {
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.OpTimeout)
		err := f(ctx)
		cancel()
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrDeadlineShed) &&
			!errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		r.mu.Lock()
		stopped := r.stopped
		r.mu.Unlock()
		if stopped {
			return err
		}
		time.Sleep(backoff)
		if backoff < 50*time.Millisecond {
			backoff *= 2
		}
	}
}

// cutover makes the target layout authoritative: durable journal record
// first, then the routing flip, then the retired fleet's schedulers are
// closed (in-flight ops that raced the flip re-route via the re-apply
// protocol). The served address space becomes perShard*P′.
func (r *Resharder) cutover() error {
	if r.cfg.Journal != nil {
		if err := r.cfg.Journal.RecordCutover(); err != nil {
			return r.fail(err)
		}
	}
	sh := r.sh
	sh.reshardMu.Lock()
	rt := sh.rt.Load()
	sh.rt.Store(&routeTable{
		cur:       rt.next,
		curShards: rt.nextShards,
		numBlocks: sh.perShard * int64(rt.nextShards),
	})
	sh.gen.Store(r.cfg.Gen)
	sh.reshardMu.Unlock()
	for _, s := range rt.cur {
		s.Close()
	}
	return r.finish(wire.ReshardPhaseDone, r.total)
}

// finishAbort completes a rollback: the old layout owns everything
// again, the target fleet's schedulers are closed, and the full old
// address space is restored.
func (r *Resharder) finishAbort() error {
	if r.cfg.Journal != nil {
		if err := r.cfg.Journal.RecordAborted(); err != nil {
			return r.fail(err)
		}
	}
	sh := r.sh
	sh.reshardMu.Lock()
	rt := sh.rt.Load()
	sh.rt.Store(&routeTable{
		cur:       rt.cur,
		curShards: rt.curShards,
		numBlocks: sh.perShard * int64(rt.curShards),
	})
	sh.reshardMu.Unlock()
	for _, s := range rt.next {
		s.Close()
	}
	return r.finish(wire.ReshardPhaseAborted, 0)
}

func (r *Resharder) finish(phase wire.ReshardPhase, w int64) error {
	r.mu.Lock()
	r.phase = phase
	r.watermark = w
	cb := r.cfg.OnDone
	r.mu.Unlock()
	if cb != nil {
		cb(phase, nil)
	}
	return nil
}

// fail freezes the migration: routing keeps serving the dual layout at
// the last durable watermark, and a daemon restart resumes from the
// journal. Stop-induced failures (daemon shutdown) skip OnDone.
func (r *Resharder) fail(err error) error {
	r.mu.Lock()
	stopped := r.stopped
	if r.phase != wire.ReshardPhaseDone && r.phase != wire.ReshardPhaseAborted {
		r.phase = wire.ReshardPhaseFailed
		if r.err == nil {
			r.err = err
		}
	}
	cb := r.cfg.OnDone
	r.mu.Unlock()
	if cb != nil && !stopped {
		cb(wire.ReshardPhaseFailed, err)
	}
	return err
}

// Pause suspends the background copy between ranges; dual routing keeps
// serving. Only a running migration can pause.
func (r *Resharder) Pause() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.phase != wire.ReshardPhaseRunning {
		return fmt.Errorf("server: cannot pause a %s migration", r.phase)
	}
	r.phase = wire.ReshardPhasePaused
	return nil
}

// Resume restarts a paused copy.
func (r *Resharder) Resume() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.phase != wire.ReshardPhasePaused {
		return fmt.Errorf("server: cannot resume a %s migration", r.phase)
	}
	r.phase = wire.ReshardPhaseRunning
	r.cond.Broadcast()
	return nil
}

// Abort requests a rollback to the old layout. The direction flip is
// journaled durably before any block is copied back. Aborting an
// already-aborting migration is a no-op.
func (r *Resharder) Abort() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.phase {
	case wire.ReshardPhaseRunning, wire.ReshardPhasePaused:
		r.abortWanted = true
		r.cond.Broadcast()
		return nil
	case wire.ReshardPhaseAborting:
		return nil
	}
	return fmt.Errorf("server: cannot abort a %s migration", r.phase)
}

// Stop makes the migration goroutine exit at the next opportunity
// without reaching a terminal journal record (daemon shutdown). Routing
// is left on the last durable watermark; a restart resumes.
func (r *Resharder) Stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.phase == wire.ReshardPhaseDone || r.phase == wire.ReshardPhaseAborted {
		return
	}
	r.stopped = true
	if r.err == nil {
		r.err = errors.New("server: migration stopped")
	}
	r.cond.Broadcast()
}

// halt stops the migration and waits out a Run that was ever entered,
// OnDone included: on return the copier goroutine is out of the engines
// for good. A Run that only starts afterwards sees the stop before it
// touches anything.
func (r *Resharder) halt() {
	r.Stop()
	r.mu.Lock()
	running := r.running
	r.mu.Unlock()
	if running {
		<-r.done
	}
}

// Done is closed when Run returns.
func (r *Resharder) Done() <-chan struct{} { return r.done }

// Err reports the terminal error (nil unless Failed/stopped).
func (r *Resharder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Status reports the migration's own progress (the serving-layout
// fields of wire.ReshardInfo are filled by Sharded.ReshardInfo).
func (r *Resharder) Status() wire.ReshardInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return wire.ReshardInfo{
		Phase:     r.phase,
		From:      r.from,
		To:        r.to,
		Watermark: r.watermark,
		Total:     r.total,
	}
}
