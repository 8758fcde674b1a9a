package check

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/vfs"
)

// Chaos soak: the whole serving stack — durable engine on a
// fault-injected filesystem, scheduler, TCP front end with a seeded
// retry-dedup window, retrying clients with circuit breakers — run
// in-process under seeded kill/restart schedules, overload bursts, and
// one full blackout, then verified end to end:
//
//   - zero acked-write loss: each worker keeps the harness's ackModel
//     over its blocks. A live read must return a block's acknowledged
//     content or a write still in doubt; the final sweep pins each doubt
//     to what recovery chose, and the promoted replica, in Replicate
//     mode, must then match those pins byte for byte;
//   - zero double-apply: the engine never applies a write id after that
//     id was acknowledged (per-id write fingerprints, checked inline by
//     an engine wrapper and again in the final sweep);
//   - shed means shed: a request the client saw fail with ErrOverloaded
//     or ErrBreakerOpen (the definitively-not-executed contract) is
//     never observed applied.
//
// The fault schedule is a pure function of the seed; TCP and goroutine
// interleavings are not, so the soak asserts invariants, not exact
// counts. Workers own disjoint block sets and stamp every payload with
// (worker, seq, block), which is what makes loss, rollback, and
// double-apply distinguishable at read time. Every incarnation, the
// final clean one included, is a round body on the harness's loop
// (harness.go), whose adjudicator alone decides crash or bug.

// SoakOptions tunes RunSoak.
type SoakOptions struct {
	// Seed drives the fault schedules and workload mix.
	Seed uint64
	// Duration is the serving-time budget (excluding final verification).
	Duration time.Duration
	// Shards is the number of independent ORAM trees behind the router
	// (block b on shard b mod Shards). 1 (the default) is the unsharded
	// soak; larger values run every incarnation as a sharded fleet whose
	// shards share one fault injector, so a kill takes down all trees at
	// once and recovery must bring every shard back consistent.
	Shards int
	// Reshard runs the soak across a live resharding plan: the fleet
	// starts at 2 shards and the supervisor drives 2→3 and then 3→2
	// live migrations through the crash-safe journal, so kills land
	// mid-copy, mid-journal-append, and mid-cutover while clients keep
	// writing. Each incarnation recovers the layout the journal names
	// (resuming any in-flight migration from its durable watermark),
	// and after the serving budget any unfinished migration is driven
	// to completion cleanly before the final sweep. Forces Shards=2.
	Reshard bool
	// Replicate runs the whole soak with warm-standby replication live:
	// every incarnation's shards ship their durability stream (semi-sync,
	// short ack timeout) to one long-lived ReplicaSession mirroring into
	// a sibling replica directory, while a chaos goroutine subjects the
	// replication link to blackouts (hard drops) and one-way partitions
	// — frames vanishing while acks flow, and the reverse. After the
	// serving budget a final clean incarnation lets the link drain
	// (bootstrap + acked == shipped), then the replica directory is
	// promoted and every owned block re-verified through the promoted
	// fleet: acked-write loss on the standby fails the soak exactly as
	// it would on the primary. Incompatible with Reshard (a standby pins
	// one layout generation).
	Replicate bool
	// Dir is the engine data directory (must be empty). With Shards > 1
	// each shard keeps its own snapshot+WAL under Dir/shard-<i>, the
	// daemon's layout.
	Dir string
}

const (
	// soakWorkers is the number of writer/reader clients, each owning a
	// disjoint block set.
	soakWorkers = 3
	// soakWorkerBlocks caps each worker's block set, so blocks are
	// rewritten, not touched once.
	soakWorkerBlocks = 8
	// soakBurstClients is the number of extra overload generators that
	// hammer the server during burst windows.
	soakBurstClients = 6
)

func (o SoakOptions) withDefaults() SoakOptions {
	if o.Reshard {
		o.Shards = 2 // the plan's starting (and final) width
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Duration <= 0 {
		o.Duration = 2 * time.Second
	}
	return o
}

// SoakReport summarizes a soak run; its header counts the incarnations,
// the kills by site, and the writes acknowledged to workers.
type SoakReport struct {
	ScheduleHeader
	Shards int // ORAM trees behind the router

	ShedWrites    uint64 // writes definitively not executed (overload/breaker)
	Indeterminate uint64 // writes whose fate a crash left unknown
	Reads         uint64 // verified reads served
	Pinned        int    // blocks still in doubt that the final recovery resolved

	Overloaded       uint64 // overloaded responses clients received
	BreakerOpens     uint64 // breaker open transitions across all clients
	BreakerFastFails uint64 // ops failed fast while a breaker was open
	PostBlackoutAcks uint64 // acks after the blackout (breakers closed again)

	Applies      uint64 // identified write applies seen by the tracker
	EngineWrites uint64 // engine-logged appends across incarnations
	EngineSyncs  uint64 // WAL fsyncs across incarnations
	BatchedSyncs uint64 // fsyncs issued by the scheduler's group commit
	Deduped      uint64 // retries answered from the dedup window
	IDsRecovered int    // ids recovered across all restarts

	EngineDeltas      uint64 // delta checkpoints published
	EngineCompactions uint64 // live-WAL compaction runs
	DeltasApplied     int    // chain deltas applied across all recoveries

	ReshardsStarted   int    // Begin records in the journal (Reshard mode)
	ReshardsResumed   int    // incarnations that resumed an in-flight migration
	ReshardsCompleted int    // cutovers + completed rollbacks in the journal
	FinalShards       int    // serving width after the plan completed
	FinalGen          uint64 // serving generation after the plan completed

	ReplBoots       uint64 // replica bootstraps completed (Replicate mode)
	ReplDegraded    uint64 // semi-sync waits that timed out into local-only acks
	ReplSendErrors  uint64 // frame sends that dropped the replication link
	ReplPromoteTerm uint64 // fencing term the promoted replica took
	ReplicaReads    uint64 // blocks verified through the promoted replica

	Violations []string // exactly-once / shed-contract violations
}

func (r *SoakReport) String() string {
	s := fmt.Sprintf("%v; %d shards: %d shed, %d indeterminate, %d reads, %d pinned, "+
		"%d overloaded, %d breaker opens, %d applies, %d syncs (%d batched) for %d appends, %d deduped, %d ids recovered, "+
		"%d deltas (%d applied on recovery), %d compactions, %d violations",
		&r.ScheduleHeader, r.Shards, r.ShedWrites, r.Indeterminate, r.Reads, r.Pinned,
		r.Overloaded, r.BreakerOpens, r.Applies, r.EngineSyncs, r.BatchedSyncs, r.EngineWrites,
		r.Deduped, r.IDsRecovered, r.EngineDeltas, r.DeltasApplied, r.EngineCompactions, len(r.Violations))
	if r.ReshardsStarted > 0 {
		s += fmt.Sprintf(", %d reshards (%d resumed, %d completed) → %d shards gen %d",
			r.ReshardsStarted, r.ReshardsResumed, r.ReshardsCompleted, r.FinalShards, r.FinalGen)
	}
	if r.ReplicaReads > 0 || r.ReplBoots > 0 {
		s += fmt.Sprintf(", replication: %d boots, %d degradations, %d send errors, %d replica reads at term %d",
			r.ReplBoots, r.ReplDegraded, r.ReplSendErrors, r.ReplicaReads, r.ReplPromoteTerm)
	}
	return s
}

// soakMagic marks a payload written by a soak worker; anything else read
// from an owned block (other than all-zeros) is corruption.
const soakMagic = uint64(0x41425355414b3031) // "ABSUAK01"

// encodePayload stamps (worker, seq, block) into a blockB-byte payload.
func encodePayload(blockB int, worker, seq uint64, block int64) []byte {
	d := make([]byte, blockB)
	binary.BigEndian.PutUint64(d[0:], soakMagic)
	binary.BigEndian.PutUint64(d[8:], worker)
	binary.BigEndian.PutUint64(d[16:], seq)
	binary.BigEndian.PutUint64(d[24:], uint64(block))
	for i := 32; i < blockB; i++ {
		d[i] = byte(seq) ^ byte(i*7)
	}
	return d
}

// decodePayload inverts encodePayload; ok=false for anything a worker
// never wrote (including the all-zero never-written block).
func decodePayload(d []byte) (worker, seq uint64, block int64, ok bool) {
	if len(d) < 32 || binary.BigEndian.Uint64(d[0:]) != soakMagic {
		return 0, 0, 0, false
	}
	return binary.BigEndian.Uint64(d[8:]), binary.BigEndian.Uint64(d[16:]),
		int64(binary.BigEndian.Uint64(d[24:])), true
}

// soakKey identifies one issued write.
type soakKey struct {
	worker, seq uint64
}

// soakIssue is the ledger's record of one issued write: its identity and
// the block it targets (the routing law derives the owning shard from
// the block and the width of whichever layout generation applies it).
type soakIssue struct {
	key   soakKey
	block int64
}

// ledger is the shared exactly-once bookkeeping between the client side
// (issues, acks, sheds) and the engine side (applies). The request-id
// registry lives here — not in a per-incarnation structure — so a retry
// that straddles a server restart is still correlated to its write.
// widths maps each layout generation to its shard count, so the
// cross-shard check stays exact while a live migration has two layouts
// applying writes at once (an apply is judged against the width of the
// generation whose tree it landed in).
type ledger struct {
	mu         sync.Mutex
	ids        map[uint64]soakIssue // request id -> issued write
	widths     map[uint64]int       // layout generation -> shard count
	acked      map[soakKey]bool
	shed       map[soakKey]bool
	applies    map[soakKey]int
	applyCount uint64
	violations []string
}

func newLedger() *ledger {
	return &ledger{
		ids:     make(map[uint64]soakIssue),
		widths:  make(map[uint64]int),
		acked:   make(map[soakKey]bool),
		shed:    make(map[soakKey]bool),
		applies: make(map[soakKey]int),
	}
}

// setWidth registers a layout generation's shard count before any of its
// trees can apply writes.
func (l *ledger) setWidth(gen uint64, shards int) {
	l.mu.Lock()
	l.widths[gen] = shards
	l.mu.Unlock()
}

func (l *ledger) violate(format string, args ...any) {
	l.mu.Lock()
	l.violations = append(l.violations, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// registerID records an issued write — and the block that determines the
// shard that must serve it — before its first network attempt.
func (l *ledger) registerID(id uint64, k soakKey, block int64) {
	l.mu.Lock()
	l.ids[id] = soakIssue{key: k, block: block}
	l.mu.Unlock()
}

// apply records one engine-level apply of an identified write on the
// given (generation, shard) tree and checks it against the ledger:
// applying a write AFTER its ack is the double-apply the dedup window
// exists to prevent, and applying it on any shard but the one the
// routing law names for that generation's width is a cross-shard leak —
// the router executed a write on the wrong tree. (During a migration the
// write re-apply protocol may legally apply one write in both layouts
// before acknowledging it; each apply must still land on the shard its
// own layout's law names.)
func (l *ledger) apply(id uint64, gen uint64, shard int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	iss, ok := l.ids[id]
	if !ok {
		return // a foreign id (e.g. an access op's); not a tracked write
	}
	k := iss.key
	l.applyCount++
	l.applies[k]++
	width := l.widths[gen]
	if width == 0 {
		l.violations = append(l.violations,
			fmt.Sprintf("write (worker %d, seq %d) applied in unknown layout generation %d", k.worker, k.seq, gen))
	} else if want, _ := server.RouteBlock(iss.block, width); shard != want {
		l.violations = append(l.violations,
			fmt.Sprintf("write (worker %d, seq %d) applied on gen-%d shard %d, routing law names shard %d (cross-shard apply)",
				k.worker, k.seq, gen, shard, want))
	}
	if l.acked[k] {
		l.violations = append(l.violations,
			fmt.Sprintf("write (worker %d, seq %d) applied after acknowledgment (double-apply)", k.worker, k.seq))
	}
}

// settle records a write the client saw acknowledged, or shed.
func (l *ledger) settle(k soakKey, acked bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if acked {
		l.acked[k] = true
	} else {
		l.shed[k] = true
	}
}

// finalSweepChecks runs the whole-run ledger assertions: no shed write
// was ever applied.
func (l *ledger) finalSweepChecks() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for k := range l.shed {
		if l.applies[k] > 0 {
			l.violations = append(l.violations,
				fmt.Sprintf("shed write (worker %d, seq %d) was applied %d time(s) despite the not-executed contract",
					k.worker, k.seq, l.applies[k]))
		}
	}
}

// applyTracker wraps one shard's durable engine for the scheduler,
// recording every identified write apply (tagged with the generation
// and shard it landed on) in the ledger. It forwards the group commit
// interface so the scheduler's deferred-ack path stays active. Reshard
// copy traffic writes with id 0 and is not tracked — the copier moves
// already-applied content, it does not apply client writes.
type applyTracker struct {
	eng   *durable.Engine
	led   *ledger
	gen   uint64
	shard int
}

func (t *applyTracker) NumBlocks() int64 { return t.eng.NumBlocks() }
func (t *applyTracker) BlockSize() int   { return t.eng.BlockSize() }
func (t *applyTracker) Encrypted() bool  { return t.eng.Encrypted() }

func (t *applyTracker) Access(block int64) error         { return t.eng.Access(block) }
func (t *applyTracker) Read(block int64) ([]byte, error) { return t.eng.Read(block) }

func (t *applyTracker) Write(block int64, data []byte) error {
	return t.WriteIdentified(0, block, data)
}

func (t *applyTracker) WriteIdentified(id uint64, block int64, data []byte) error {
	err := t.eng.WriteIdentified(id, block, data)
	if err == nil && id != 0 {
		// Count only successful applies: a failed write poisons the
		// engine fail-stop and never produces an ack, and recovery's
		// recovered-id set adjudicates whatever prefix survived.
		t.led.apply(id, t.gen, t.shard)
	}
	return err
}

func (t *applyTracker) BatchSync() error  { return t.eng.BatchSync() }
func (t *applyTracker) GroupCommit() bool { return t.eng.GroupCommit() }

// MaybeCheckpoint forwards the scheduler's batch-boundary checkpoint
// hook, so deferred rotations and compactions stay active behind the
// tracker (the scheduler discovers the hook by type assertion).
func (t *applyTracker) MaybeCheckpoint() error { return t.eng.MaybeCheckpoint() }

// soakState is the shared runtime the supervisor, workers, and burst
// clients coordinate through.
type soakState struct {
	addr     atomic.Value // string; "" while the server is down
	start    time.Time    // the burst windows' phase origin
	stop     atomic.Bool
	blackout atomic.Bool // set once the blackout has ended
	led      *ledger
}

// bursting reports whether an overload window is open: the first 80 ms
// of every 200 since the soak started, the rest calm.
func (s *soakState) bursting() bool {
	return time.Since(s.start)%(200*time.Millisecond) < 80*time.Millisecond
}

func (s *soakState) dialer(timeout time.Duration) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		addr, _ := s.addr.Load().(string)
		if addr == "" {
			return nil, errors.New("soak: server down")
		}
		return net.DialTimeout("tcp", addr, timeout)
	}
}

// soakWorker drives identified writes and verifying reads over its own
// block partition.
type soakWorker struct {
	id     uint64
	blocks []int64
	r      *rng.Source
	st     *soakState

	seq    uint64
	model  *ackModel          // the worker's blocks; every one starts acknowledged as zeros
	client server.ClientStats // its client's counters, once it stops

	acked, shed, indeterminate, reads, postBlackoutAcks uint64
}

func (w *soakWorker) run(clientSeed uint64) {
	cfg := server.ClientConfig{
		Timeout:          500 * time.Millisecond,
		MaxAttempts:      3,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       20 * time.Millisecond,
		Seed:             clientSeed,
		Dialer:           w.st.dialer(200 * time.Millisecond),
		BreakerThreshold: 5,
		BreakerCooldown:  15 * time.Millisecond,
	}
	c, err := server.DialConfig("", cfg)
	for ; err != nil; c, err = server.DialConfig("", cfg) {
		if w.st.stop.Load() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer func() {
		w.client = c.Stats()
		c.Close()
	}()

	for !w.st.stop.Load() {
		block := w.blocks[w.r.Uint64n(uint64(len(w.blocks)))]
		switch p := w.r.Float64(); {
		case p < 0.55:
			w.seq++
			key := soakKey{w.id, w.seq}
			data := encodePayload(w.model.blockB, w.id, w.seq, block)
			id := soakWriteID(w.id, w.seq)
			w.st.led.registerID(id, key, block)
			err := c.WriteID(id, block, data)
			switch {
			case err == nil:
				w.st.led.settle(key, true)
				w.model.ack(block, data)
				w.acked++
				if w.st.blackout.Load() {
					w.postBlackoutAcks++
				}
			case errors.Is(err, server.ErrOverloaded) || errors.Is(err, server.ErrBreakerOpen):
				// Definitively not executed: never a candidate value.
				w.st.led.settle(key, false)
				w.shed++
				time.Sleep(time.Millisecond) // shed means back off
			default:
				// Crash, connection break, or server error: in doubt.
				w.model.doubt(block, data)
				w.indeterminate++
				time.Sleep(2 * time.Millisecond)
			}
		case p < 0.85:
			got, err := c.Read(block)
			if err != nil {
				continue
			}
			w.reads++
			if !w.model.holds(block, got) {
				w.st.led.violate("worker %d block %d: read %s, neither its acknowledged content nor a write in doubt",
					w.id, block, payloadString(got))
			}
		default:
			c.Access(block) // pattern-only load; outcome irrelevant
		}
	}
}

// payloadString names what a block held, for a violation message.
func payloadString(d []byte) string {
	if worker, seq, block, ok := decodePayload(d); ok {
		return fmt.Sprintf("the write (worker %d, seq %d) to block %d", worker, seq, block)
	}
	return "content no worker wrote"
}

// soakWriteID derives the wire request id a worker uses for (worker,
// seq) — the high bits identify the worker so ids never collide across
// workers (and are far from the nonce-based ids clients mint for access
// ops).
func soakWriteID(worker, seq uint64) uint64 {
	return (worker+1)<<40 | (seq & 0xffffffffff)
}

// runBurst hammers Access ops during burst windows to push the
// scheduler into overload, and returns its client's counters.
func runBurst(st *soakState, seed uint64, numBlocks int64) (stats server.ClientStats) {
	cfg := server.ClientConfig{
		Timeout:          100 * time.Millisecond,
		MaxAttempts:      1,
		Seed:             seed,
		Dialer:           st.dialer(50 * time.Millisecond),
		BreakerThreshold: 3,
		BreakerCooldown:  10 * time.Millisecond,
	}
	r := rng.New(seed ^ 0xb0057)
	var c *server.Client
	for !st.stop.Load() {
		if !st.bursting() {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		if c == nil {
			var err error
			if c, err = server.DialConfig("", cfg); err != nil {
				time.Sleep(2 * time.Millisecond)
				continue
			}
		}
		c.Access(int64(r.Uint64n(uint64(numBlocks))))
	}
	if c != nil {
		stats = c.Stats()
		c.Close()
	}
	return stats
}

// soakRun is one soak's state threaded across incarnations: the clients
// that outlive every kill, the standby session, and the serving clock.
type soakRun struct {
	opt     SoakOptions
	r       *rng.Source
	rep     *SoakReport
	st      *soakState
	workers []*soakWorker
	bursts  []server.ClientStats // one per overload generator, once it stops
	clients sync.WaitGroup
	sess    *server.ReplicaSession // Replicate mode's standby

	deadline, blackoutAt time.Time
	blackedOut           bool
}

// RunSoak runs the chaos soak and returns its report; the error is
// non-nil when any exactly-once, shed-contract, or cross-shard
// violation was found.
func RunSoak(opt SoakOptions) (*SoakReport, error) {
	opt = opt.withDefaults()
	if opt.Replicate && opt.Reshard {
		return nil, errors.New("soak: Replicate and Reshard are mutually exclusive (a standby pins one layout generation)")
	}
	// Every fleet below opens through server.Fleet, the daemon's own
	// lifecycle: per-shard seeds, directories, and shippers follow its law
	// (generation 0 keeps the base seed and the bare directory, so
	// Shards=1 is the pre-sharding soak unchanged).
	perShard, blockB, err := oracleGeometry(opt.Seed)
	if err != nil {
		return nil, err
	}
	run := &soakRun{
		opt:    opt,
		r:      rng.New(opt.Seed ^ 0x736f616b),
		rep:    &SoakReport{ScheduleHeader: newHeader(opt.Seed), Shards: opt.Shards},
		st:     &soakState{led: newLedger(), start: time.Now()},
		bursts: make([]server.ClientStats, soakBurstClients),
	}
	st := run.st
	st.led.setWidth(0, opt.Shards)
	defer run.stopClients()
	// Global address space the workers write: the plan's minimum width,
	// so every owned block stays in range through every layout the
	// Reshard plan serves (migrations serve perShard*min(P, P′)).
	numBlocks := perShard * int64(opt.Shards)

	// Workers own disjoint block partitions: worker i gets blocks
	// congruent to i modulo soakWorkers. Every one starts acknowledged as
	// zeros, so each sweep reads the whole partition.
	for i := 0; i < soakWorkers; i++ {
		w := &soakWorker{
			id: uint64(i + 1), model: newAckModel(blockB),
			r: rng.New(opt.Seed ^ (0x77<<8 | uint64(i))), st: st,
		}
		for b := int64(i); b < numBlocks && len(w.blocks) < soakWorkerBlocks; b += soakWorkers {
			w.blocks = append(w.blocks, b)
			w.model.ack(b, make([]byte, blockB))
		}
		run.workers = append(run.workers, w)
	}

	// Replicate mode: one standby session lives across every primary
	// incarnation, redialing whatever address the supervisor publishes;
	// its link runs through a faults.Conn so the chaos goroutine can
	// partition it one direction at a time or drop it outright.
	if opt.Replicate {
		link := new(atomic.Pointer[faults.Conn]) // the standby's live link, for the chaos goroutine
		linkIn := faults.New(faults.Config{Seed: run.r.Uint64()})
		dial := st.dialer(250 * time.Millisecond)
		run.sess = server.NewReplicaSession(server.ReplicaSessionConfig{
			Addrs:         []string{"soak-primary"}, // placeholder; the dial hook resolves st.addr
			DataDir:       opt.Dir + "-replica",
			Shards:        opt.Shards,
			Timeout:       250 * time.Millisecond,
			RedialBackoff: 15 * time.Millisecond,
			Dial: func(string) (net.Conn, error) {
				raw, err := dial()
				if err != nil {
					return nil, err
				}
				c := faults.WrapConn(raw, linkIn)
				link.Store(c)
				return c, nil
			},
		})
		go run.sess.Run()
		defer run.sess.Stop()
		chaosSeed := run.r.Uint64()
		run.spawn(func() { runLinkChaos(st, link, chaosSeed) })
	}
	for i := 0; i < soakBurstClients; i++ {
		seed := opt.Seed ^ (0xb0<<8 | uint64(i))
		run.spawn(func() { run.bursts[i] = runBurst(st, seed, numBlocks) })
	}
	for i, w := range run.workers {
		seed := opt.Seed ^ (0xc0<<8 | uint64(i))
		run.spawn(func() { w.run(seed) })
	}

	run.deadline = time.Now().Add(opt.Duration)
	run.blackoutAt = time.Now().Add(opt.Duration / 2)
	return run.rep, run.rep.run(schedule{
		name:      "soak",
		maxRounds: math.MaxInt, // the serving deadline, not a round count, bounds a soak
		done:      run.done,
		draw: func() faults.Config {
			// One injector shared by every shard's filesystem: the kill hits
			// the whole fleet at once, the daemon's failure mode.
			return faults.Config{Seed: run.r.Uint64(), CrashAfter: 60 + int(run.r.Uint64n(400)), TornWrites: true, DropUnsynced: true}
		},
		round: run.round,
		final: run.final,
	})
}

// spawn starts one client-side goroutine the soak stops and joins
// before its final incarnation.
func (run *soakRun) spawn(f func()) {
	run.clients.Add(1)
	go func() {
		defer run.clients.Done()
		f()
	}()
}

// stopClients stops and joins every client-side goroutine, then folds
// the workers' and burst generators' counters into the report. Only the
// first call does anything.
func (run *soakRun) stopClients() {
	if run.st.stop.Swap(true) {
		return
	}
	run.clients.Wait()
	rep, clients := run.rep, run.bursts
	for _, w := range run.workers {
		rep.AckedWrites += int(w.acked)
		rep.ShedWrites += w.shed
		rep.Indeterminate += w.indeterminate
		rep.Reads += w.reads
		rep.PostBlackoutAcks += w.postBlackoutAcks
		clients = append(clients, w.client)
	}
	for _, cs := range clients {
		rep.Overloaded += cs.Overloaded
		rep.BreakerOpens += cs.BreakerOpens
		rep.BreakerFastFails += cs.BreakerFastFails
	}
}

// done reports the serving budget spent. It runs between incarnations,
// with the last one torn down and its address withdrawn, so it is also
// where the one blackout happens: once half the budget has passed, the
// server stays down long enough for every worker's breaker to open, and
// the deadline moves out far enough to see the breakers close again,
// whatever the overall budget.
func (run *soakRun) done() bool {
	if !run.blackedOut && time.Now().After(run.blackoutAt) {
		run.blackedOut = true
		time.Sleep(250 * time.Millisecond)
		run.st.blackout.Store(true)
		if min := time.Now().Add(400 * time.Millisecond); run.deadline.Before(min) {
			run.deadline = min
		}
	}
	return !time.Now().Before(run.deadline)
}

// track wraps a generation's engines in apply trackers for the ledger.
func (run *soakRun) track(gen uint64, engines []server.Engine) []server.Engine {
	out := make([]server.Engine, len(engines))
	for si, eng := range engines {
		out[si] = &applyTracker{eng: eng.(*durable.Engine), led: run.st.led, gen: gen, shard: si}
	}
	return out
}

// round is one faulted incarnation of the daemon: recover the layout the
// migration journal names (the static one unless Reshard has begun a
// migration), resume or begin the plan's next migration, and serve TCP
// until the kill or the deadline.
func (run *soakRun) round(inc *incarnation) error {
	opt, st := run.opt, run.st
	fleet, err := server.OpenFleet(soakFleetConfig(opt, opt.Dir, inc.fs), opt.Shards)
	if err != nil {
		return failed("recovery", err)
	}
	inc.onClose(func() {
		fleet.Close() // joins the copier, then closes each engine once
		run.rep.tally(fleet)
	})
	lay := fleet.Layout()

	// A tiny queue relative to the client population guarantees the
	// burst windows actually overflow it (overloaded responses). The
	// Reshard soak runs slightly deeper: the copier's persistent ops
	// share the queue, and with depth 2 they plus the bursts can
	// starve the workers of every single ack.
	queue := 2
	if opt.Reshard {
		queue = 8
	}
	srv, err := server.NewSharded(run.track(lay.Gen, fleet.Engines()), server.Config{Queue: queue, Batch: 8})
	if err != nil {
		return failed("scheduler", err)
	}
	inc.onClose(func() { srv.Close() }) // stops any in-flight migration before draining the schedulers
	srv.SetGeneration(lay.Gen)

	// Pick this incarnation's migration: resume the journaled one from
	// its durable watermark, or durably begin the next step of the
	// 2→3→2 plan. Small fenced ranges keep write stalls short while the
	// copy competes with client and burst traffic, and the pace
	// guarantees client ops a window between ranges.
	if to := soakPlanStep(lay); opt.Reshard && to != 0 {
		if lay.Active != nil {
			run.rep.ReshardsResumed++
		}
		targets, err := fleet.OpenTarget(to)
		if err != nil {
			return failed("target recovery", err)
		}
		tgen := fleet.Layout().Active.Gen
		st.led.setWidth(tgen, to)
		res, err := fleet.BeginReshard(srv, run.track(tgen, targets), server.ReshardConfig{RangeSize: 16, Pace: 2 * time.Millisecond})
		if err != nil {
			return failed("begin reshard", err)
		}
		go res.Run() // terminal state is adjudicated by the journal
	}

	// Replicate mode's shippers run semi-sync; their short ack timeout
	// means a partitioned link degrades to local-only acks instead of
	// wedging the schedulers.
	tcfg := server.TCPConfig{
		RequestTimeout: 250 * time.Millisecond,
		DedupWindow:    4096,
	}
	if opt.Replicate {
		hub := fleet.Hub(srv)
		tcfg.ReplJoin = hub.Serve
		tcfg.Replication = hub.Info
	}
	tsrv := server.NewTCP(srv, tcfg)
	tsrv.SeedDedup(fleet.RecentWriteIDs())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return failed("listen", err)
	}
	serveDone := make(chan struct{})
	go func() { tsrv.Serve(ln); close(serveDone) }()
	st.addr.Store(ln.Addr().String())
	inc.onClose(func() {
		st.addr.Store("")
		// A killed daemon drains nothing: its connections die with it. Only
		// a budget-end incarnation gets the graceful drain — waiting it out
		// on a dead one would spend the soak's serving time on idle client
		// connections instead of under chaos.
		grace := time.Second
		if inc.in.Crashed() {
			grace = 0
		}
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		tsrv.Shutdown(ctx)
		cancel()
		<-serveDone
		run.rep.Deduped += tsrv.Metrics().Deduped
	})

	timer := time.NewTimer(time.Until(run.deadline))
	defer timer.Stop()
	select {
	case <-inc.in.Dead():
	case <-timer.C:
	}
	return nil
}

// final is the clean incarnation after the serving budget. In Reshard
// mode it first drives the migration plan to completion, as a daemon
// restarted after the chaos would, so the sweep reads through the plan's
// terminal layout. In Replicate mode it drains the standby against the
// recovered fleet, then promotes the replica and sweeps it too: the
// standby must satisfy the zero-acked-loss contract exactly as the
// primary does, or a failover after this soak would lose writes.
func (run *soakRun) final(inc *incarnation) error {
	opt, rep := run.opt, run.rep
	run.stopClients()
	fleet, err := run.recoverTerminal(inc)
	if err != nil {
		return err
	}
	lay := fleet.Layout()
	rep.FinalShards, rep.FinalGen = lay.Shards, lay.Gen
	if opt.Reshard {
		// Plan activity is counted from the journal itself, so chaos-time
		// and clean-coda work land in the same tallies.
		jn, err := durable.OpenReshardJournal(inc.fs, opt.Dir)
		if err != nil {
			return failed("recounting the journal", err)
		}
		for _, rec := range jn.Records() {
			switch rec.Op {
			case durable.ReshardBegin:
				rep.ReshardsStarted++
			case durable.ReshardCutover, durable.ReshardAborted:
				rep.ReshardsCompleted++
			}
		}
	}
	// The standby drains before anything is read, so the replica directory
	// is a durable image of exactly the state the sweep pins.
	if opt.Replicate {
		if err := drainReplica(run.st, fleet, run.sess); err != nil {
			return err
		}
	}
	rep.tally(fleet)
	for _, w := range run.workers {
		rep.Pinned += len(w.model.inDoubt)
	}
	if _, err := run.sweep(fleet, "final"); err != nil {
		return err
	}
	if opt.Replicate {
		promoted, err := server.OpenFleet(soakFleetConfig(opt, opt.Dir+"-replica", inc.fs), opt.Shards)
		if err != nil {
			return failed("promoting the replica", err)
		}
		inc.onClose(func() { promoted.Close() })
		if rep.ReplPromoteTerm, err = promoted.Promote(); err != nil {
			return failed("fencing the promoted replica", err)
		}
		if rep.ReplicaReads, err = run.sweep(promoted, "promoted replica"); err != nil {
			return err
		}
	}

	led := run.st.led
	led.finalSweepChecks()
	led.mu.Lock()
	rep.Applies = led.applyCount
	rep.Violations = slices.Clone(led.violations)
	led.mu.Unlock()
	if len(rep.Violations) > 0 {
		return fmt.Errorf("%d violation(s); first: %s", len(rep.Violations), rep.Violations[0])
	}
	return nil
}

// sweep verifies every worker's model through a quiescent fleet's
// engines under the routing law and counts the reads it took. The first
// sweep pins each block in doubt to whatever recovery chose; a later one
// holds the fleet it reads to those pins.
func (run *soakRun) sweep(fleet *server.Fleet, what string) (reads uint64, _ error) {
	engines := fleet.Engines()
	read := func(block int64) ([]byte, error) {
		reads++
		shard, local := server.RouteBlock(block, len(engines))
		return engines[shard].Read(local)
	}
	for _, w := range run.workers {
		if err := w.model.verify(read); err != nil {
			return reads, fmt.Errorf("%s sweep, worker %d: %w", what, w.id, err)
		}
	}
	return reads, nil
}

// soakFleetConfig describes the soak's fleet under dir: the crash
// oracle's engine template, with semi-sync shipping in Replicate mode.
// Two cadence knobs differ, for the soak's longer wall-clock
// incarnations: rotations every 32 writes and compactions every 12.
// And publishes run in the background as when serving — unlike the
// deterministic crash schedules — so kills race genuinely concurrent
// publish goroutines. The short ack timeout is the soak's liveness
// guarantee: a blackholed or partitioned link degrades to local-only
// acks within one client timeout instead of wedging a shard's scheduler.
func soakFleetConfig(opt SoakOptions, dir string, fs vfs.FS) server.FleetConfig {
	eng := crashOptions(dir, opt.Seed, fs)
	eng.SnapshotEvery, eng.CompactEvery = 32, 12
	eng.SyncPublish = false
	return server.FleetConfig{
		Engine:         eng,
		SemiSync:       opt.Replicate,
		AckTimeout:     20 * time.Millisecond,
		ChunkBytes:     4 << 10,
		HeartbeatEvery: 20 * time.Millisecond,
	}
}

// soakPlanStep names the width the 2→3→2 migration plan moves to next
// from lay: the journaled migration's own while one is in flight, 3 from
// the initial layout, 2 from generation 1, and 0 once generation 2
// serves.
func soakPlanStep(lay durable.ReshardLayout) int {
	switch {
	case lay.Active != nil:
		return lay.Active.To
	case lay.Gen == 0:
		return 3
	case lay.Gen == 1:
		return 2
	}
	return 0
}

// tally folds a stopped fleet's recovery, engine, and replication-link
// counters into the report.
func (r *SoakReport) tally(fleet *server.Fleet) {
	for _, s := range fleet.Stats() {
		r.IDsRecovered += s.Recovery.IDsRecovered
		r.DeltasApplied += s.Recovery.DeltasApplied
		r.EngineWrites += s.Durable.Writes
		r.EngineSyncs += s.Durable.Syncs
		r.BatchedSyncs += s.Durable.BatchedSyncs
		r.EngineDeltas += s.Durable.DeltasWritten
		r.EngineCompactions += s.Durable.CompactionRuns
	}
	for _, s := range fleet.ShipStats() {
		r.ReplBoots += s.Boots
		r.ReplDegraded += s.AckTimeouts
		r.ReplSendErrors += s.SendErrors
	}
}

// runLinkChaos subjects the replication link to seeded blackouts and
// one-way partitions while the soak serves: the standby's sends
// (acks) vanish while frames still arrive, or the wire goes silent
// while acks still flow out, or the link drops outright and the
// session redials. Every other action is a partition, so even a soak
// with only a handful of live links between its kills cannot draw a
// schedule that never partitions one. On exit it heals the current link
// so the final drain isn't reading a stalled connection.
func runLinkChaos(st *soakState, link *atomic.Pointer[faults.Conn], seed uint64) {
	r := rng.New(seed ^ 0x1e4c4a05)
	for acts := 0; !st.stop.Load(); {
		sleepUnlessStopped(st, time.Duration(20+r.Uint64n(100))*time.Millisecond)
		// Only act while a primary is serving: a partition nobody is
		// writing through exercises nothing.
		if addr, _ := st.addr.Load().(string); addr == "" {
			continue
		}
		// Nor on the previous incarnation's dead link, until the session
		// has redialed the live one.
		c := link.Load()
		if c == nil || c.Closed() {
			continue
		}
		acts++
		switch {
		case acts%2 == 1:
			if r.Uint64n(2) == 0 {
				c.SetPartition(true, false) // acks vanish; the primary's semi-sync degrades
			} else {
				c.SetPartition(false, true) // frames stall; delivered in a burst on heal
			}
			// Dwell for several ack timeouts so the partition provably
			// outlives the semi-sync wait, then heal — or move on as soon
			// as a kill takes the link down, to partition its successor.
			end := time.Now().Add(time.Duration(100+r.Uint64n(100)) * time.Millisecond)
			for time.Now().Before(end) && !c.Closed() && !st.stop.Load() {
				time.Sleep(2 * time.Millisecond)
			}
			c.SetPartition(false, false)
		case r.Uint64n(3) == 0:
			c.Close() // blackout: the session redials and re-bootstraps
		default:
			// A quiet turn: the healed link carries traffic undisturbed.
		}
	}
	if c := link.Load(); c != nil {
		c.SetPartition(false, false)
	}
}

// drainReplica serves the final clean fleet to the standby — no chaos,
// no clients — until every shard's mirror bootstraps and the standby's
// durable watermark matches everything shipped, then tears the link
// down. Afterwards the replica directories hold a byte-faithful image
// of the final fleet's durable state.
func drainReplica(st *soakState, fleet *server.Fleet, sess *server.ReplicaSession) error {
	srv, err := server.NewSharded(fleet.Engines(), server.Config{Queue: 64, Batch: 8})
	if err != nil {
		return fmt.Errorf("soak: replica drain: %w", err)
	}
	hub := fleet.Hub(srv)
	tsrv := server.NewTCP(srv, server.TCPConfig{ReplJoin: hub.Serve, Replication: hub.Info})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return fmt.Errorf("soak: replica drain: %w", err)
	}
	serveDone := make(chan struct{})
	go func() { tsrv.Serve(ln); close(serveDone) }()
	st.addr.Store(ln.Addr().String())

	drained := func() bool {
		hi, si := hub.Info(), sess.Info()
		return hi.Attached && si.Attached && hi.AckedSeq == hi.ShippedSeq
	}
	for deadline := time.Now().Add(15 * time.Second); !drained() && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	ok := drained()
	st.addr.Store("")
	// The session must be fully stopped before promotion opens the
	// mirror directories: a live link would still be writing them.
	sess.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	tsrv.Shutdown(ctx)
	cancel()
	srv.Close() // drains the schedulers; the engines stay open for the sweep
	<-serveDone
	if !ok {
		return fmt.Errorf("soak: replication never drained: primary %+v, standby %+v", hub.Info(), sess.Info())
	}
	return nil
}

// recoverTerminal recovers the fleet on the final incarnation's
// filesystem. In Reshard mode it first drives any journaled migration,
// and the rest of the 2→3→2 plan, to completion, the way a daemon
// restarted after the chaos would.
func (run *soakRun) recoverTerminal(inc *incarnation) (*server.Fleet, error) {
	for step := 0; step <= 8; step++ {
		fleet, err := server.OpenFleet(soakFleetConfig(run.opt, run.opt.Dir, inc.fs), run.opt.Shards)
		if err != nil {
			return nil, failed("recovery", err)
		}
		inc.onClose(func() { fleet.Close() })
		lay := fleet.Layout()
		to := soakPlanStep(lay)
		if !run.opt.Reshard || to == 0 {
			return fleet, nil
		}
		targets, err := fleet.OpenTarget(to)
		if err != nil {
			return nil, failed("reshard coda target", err)
		}
		sh, err := server.NewSharded(fleet.Engines(), server.Config{Queue: 64, Batch: 8})
		if err != nil {
			return nil, failed("reshard coda scheduler", err)
		}
		sh.SetGeneration(lay.Gen)
		// No client traffic to stall; big strides for speed.
		res, err := fleet.BeginReshard(sh, targets, server.ReshardConfig{RangeSize: 128})
		if err == nil {
			err = res.Run()
		}
		sh.Close()
		fleet.Close()
		if err != nil {
			return nil, failed(fmt.Sprintf("reshard coda to %d shards", to), err)
		}
	}
	return nil, errors.New("reshard plan failed to converge")
}

func sleepUnlessStopped(st *soakState, d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) && !st.stop.Load() {
		time.Sleep(5 * time.Millisecond)
	}
}
