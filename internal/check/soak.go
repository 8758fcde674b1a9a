package check

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
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
//   - zero acked-write loss: every block's final content is an issued
//     write with sequence >= the last acknowledged one for that block;
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
// double-apply distinguishable at read time.

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
	// Delta switches every incarnation to the incremental durability
	// configuration: delta checkpoints with periodic full bases, live-WAL
	// compaction, rotations deferred to batch boundaries, and — unlike
	// the deterministic crash schedules — background checkpoint
	// publishes, so kills race genuinely concurrent publish goroutines.
	Delta bool
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

// SoakReport summarizes a soak run.
type SoakReport struct {
	Seed         uint64
	Shards       int // ORAM trees behind the router
	Incarnations int // engine incarnations (including the final clean one)
	Crashes      int

	AckedWrites   uint64 // writes acknowledged to workers
	ShedWrites    uint64 // writes definitively not executed (overload/breaker)
	Indeterminate uint64 // writes whose fate a crash left unknown
	Reads         uint64 // verified reads served

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

	EngineDeltas      uint64 // delta checkpoints published (Delta mode)
	EngineCompactions uint64 // live-WAL compaction runs (Delta mode)
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
	s := fmt.Sprintf("seed %d (%d shards): %d incarnations (%d crashes), %d acked, %d shed, %d indeterminate, %d reads, "+
		"%d overloaded, %d breaker opens, %d applies, %d syncs (%d batched) for %d appends, %d deduped, %d ids recovered, "+
		"%d deltas (%d applied on recovery), %d compactions, %d violations",
		r.Seed, r.Shards, r.Incarnations, r.Crashes, r.AckedWrites, r.ShedWrites, r.Indeterminate, r.Reads,
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

func (l *ledger) markAcked(k soakKey) {
	l.mu.Lock()
	l.acked[k] = true
	l.mu.Unlock()
}

func (l *ledger) markShed(k soakKey) {
	l.mu.Lock()
	l.shed[k] = true
	l.mu.Unlock()
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
	burstOn  atomic.Bool
	stop     atomic.Bool
	blackout atomic.Bool // set once the blackout has ended
	led      *ledger
}

func (s *soakState) dialer(timeout time.Duration) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		addr, _ := s.addr.Load().(string)
		if addr == "" {
			return nil, errors.New("soak: server down (blackout)")
		}
		return net.DialTimeout("tcp", addr, timeout)
	}
}

// blockState is a worker's view of one owned block.
type blockState struct {
	lastAcked uint64          // highest acknowledged seq
	issued    map[uint64]bool // every seq ever sent for this block
	shed      map[uint64]bool // seqs definitively not executed
}

// soakWorker drives identified writes and verifying reads over its own
// block partition.
type soakWorker struct {
	id     uint64
	blocks []int64
	blockB int
	r      *rng.Source
	st     *soakState

	seq    uint64
	per    map[int64]*blockState
	report struct {
		acked, shed, indeterminate, reads uint64
		overloaded, opens, fastFails      uint64
		postBlackoutAcks                  uint64
	}
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
	var c *server.Client
	dial := func() bool {
		var err error
		c, err = server.DialConfig("", cfg)
		return err == nil
	}
	for !dial() {
		if w.st.stop.Load() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer func() {
		st := c.Stats()
		w.report.overloaded += st.Overloaded
		w.report.opens += st.BreakerOpens
		w.report.fastFails += st.BreakerFastFails
		c.Close()
	}()

	for !w.st.stop.Load() {
		block := w.blocks[w.r.Uint64n(uint64(len(w.blocks)))]
		bs := w.per[block]
		if bs == nil {
			bs = &blockState{issued: make(map[uint64]bool), shed: make(map[uint64]bool)}
			w.per[block] = bs
		}
		switch p := w.r.Float64(); {
		case p < 0.55:
			w.seq++
			seq := w.seq
			data := encodePayload(w.blockB, w.id, seq, block)
			bs.issued[seq] = true
			id := soakWriteID(w.id, seq)
			w.st.led.registerID(id, soakKey{w.id, seq}, block)
			err := c.WriteID(id, block, data)
			switch {
			case err == nil:
				w.st.led.markAcked(soakKey{w.id, seq})
				bs.lastAcked = seq
				w.report.acked++
				if w.st.blackout.Load() {
					w.report.postBlackoutAcks++
				}
			case errors.Is(err, server.ErrOverloaded) || errors.Is(err, server.ErrBreakerOpen):
				w.st.led.markShed(soakKey{w.id, seq})
				bs.shed[seq] = true
				w.report.shed++
				time.Sleep(time.Millisecond) // shed means back off
			default:
				// Crash, connection break, or server error: in doubt.
				w.report.indeterminate++
				time.Sleep(2 * time.Millisecond)
			}
		case p < 0.85:
			got, err := c.Read(block)
			if err != nil {
				continue
			}
			w.report.reads++
			if v := w.checkRead(block, got); v != "" {
				w.st.led.violate("%s", v)
			}
		default:
			c.Access(block) // pattern-only load; outcome irrelevant
		}
	}
}

// checkRead validates one read of an owned block against the worker's
// issue history: the value must be all-zeros (nothing acked yet), or an
// issued seq that is neither shed nor older than the last ack.
func (w *soakWorker) checkRead(block int64, got []byte) string {
	bs := w.per[block]
	if bs == nil {
		bs = &blockState{issued: make(map[uint64]bool), shed: make(map[uint64]bool)}
		w.per[block] = bs
	}
	rw, rseq, rblock, ok := decodePayload(got)
	if !ok {
		allZero := true
		for _, b := range got {
			if b != 0 {
				allZero = false
				break
			}
		}
		if allZero && bs.lastAcked == 0 {
			return ""
		}
		return fmt.Sprintf("worker %d block %d: unrecognized content (acked through seq %d)", w.id, block, bs.lastAcked)
	}
	switch {
	case rw != w.id || rblock != block:
		return fmt.Sprintf("worker %d block %d: holds foreign payload (worker %d, block %d)", w.id, block, rw, rblock)
	case !bs.issued[rseq]:
		return fmt.Sprintf("worker %d block %d: holds never-issued seq %d", w.id, block, rseq)
	case bs.shed[rseq]:
		return fmt.Sprintf("worker %d block %d: holds SHED seq %d (not-executed contract broken)", w.id, block, rseq)
	case rseq < bs.lastAcked:
		return fmt.Sprintf("worker %d block %d: rolled back to seq %d below acked seq %d", w.id, block, rseq, bs.lastAcked)
	}
	return ""
}

// soakWriteID derives the wire request id a worker uses for (worker,
// seq) — the high bits identify the worker so ids never collide across
// workers (and are far from the nonce-based ids clients mint for access
// ops).
func soakWriteID(worker, seq uint64) uint64 {
	return (worker+1)<<40 | (seq & 0xffffffffff)
}

// burstStats aggregates the overload generators' client counters.
type burstStats struct {
	mu                           sync.Mutex
	overloaded, opens, fastFails uint64
}

// runBurst hammers Access ops during burst windows to push the
// scheduler into overload.
func runBurst(st *soakState, seed uint64, numBlocks int64, stats *burstStats) {
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
		if !st.burstOn.Load() {
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
		s := c.Stats()
		stats.mu.Lock()
		stats.overloaded += s.Overloaded
		stats.opens += s.BreakerOpens
		stats.fastFails += s.BreakerFastFails
		stats.mu.Unlock()
		c.Close()
	}
}

// RunSoak runs the chaos soak and returns its report; the error is
// non-nil when any exactly-once, shed-contract, or cross-shard
// violation was found.
func RunSoak(opt SoakOptions) (*SoakReport, error) {
	opt = opt.withDefaults()
	if opt.Replicate && opt.Reshard {
		return nil, errors.New("soak: Replicate and Reshard are mutually exclusive (a standby pins one layout generation)")
	}
	r := rng.New(opt.Seed ^ 0x736f616b)
	rep := &SoakReport{Seed: opt.Seed, Shards: opt.Shards}

	// Every fleet below opens through server.Fleet, the daemon's own
	// lifecycle: per-shard seeds, directories, and shippers follow its law
	// (generation 0 keeps the base seed and the bare directory, so
	// Shards=1 is the pre-sharding soak unchanged).
	perShard, blockB, err := oracleGeometry(opt.Seed)
	if err != nil {
		return nil, err
	}
	// Global address space the workers write: the plan's minimum width,
	// so every owned block stays in range through every layout the
	// Reshard plan serves (migrations serve perShard*min(P, P′)).
	numBlocks := perShard * int64(opt.Shards)

	st := &soakState{led: newLedger()}
	st.addr.Store("")
	st.led.setWidth(0, opt.Shards)

	// Workers own disjoint block partitions: worker i gets blocks
	// congruent to i modulo soakWorkers (capped to a small working set so
	// blocks are rewritten, not touched once).
	workers := make([]*soakWorker, soakWorkers)
	var wg sync.WaitGroup
	for i := range workers {
		var blocks []int64
		for b := int64(i); b < numBlocks && len(blocks) < 8; b += soakWorkers {
			blocks = append(blocks, b)
		}
		workers[i] = &soakWorker{
			id: uint64(i + 1), blocks: blocks, blockB: blockB,
			r: rng.New(opt.Seed ^ (0x77<<8 | uint64(i))), st: st,
			per: make(map[int64]*blockState),
		}
	}

	// Replicate mode: one standby session lives across every primary
	// incarnation, redialing whatever address the supervisor publishes;
	// its link runs through a faults.Conn so the chaos goroutine can
	// partition it one direction at a time or drop it outright.
	var sess *server.ReplicaSession
	var link *soakReplLink
	if opt.Replicate {
		link = &soakReplLink{}
		linkIn := faults.New(faults.Config{Seed: r.Uint64()})
		sess = server.NewReplicaSession(server.ReplicaSessionConfig{
			Addrs:         []string{"soak-primary"}, // placeholder; the dial hook resolves st.addr
			DataDir:       opt.Dir + "-replica",
			Shards:        opt.Shards,
			Timeout:       250 * time.Millisecond,
			RedialBackoff: 15 * time.Millisecond,
			Dial: func(string) (net.Conn, error) {
				addr, _ := st.addr.Load().(string)
				if addr == "" {
					return nil, errors.New("soak: primary down")
				}
				raw, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
				if err != nil {
					return nil, err
				}
				c := faults.WrapConn(raw, linkIn)
				link.set(c)
				return c, nil
			},
		})
		go sess.Run()
		defer sess.Stop()
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			runLinkChaos(st, link, seed)
		}(r.Uint64())
	}

	var bstats burstStats
	for i := 0; i < soakBurstClients; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			runBurst(st, seed, numBlocks, &bstats)
		}(opt.Seed ^ (0xb0<<8 | uint64(i)))
	}
	for i, w := range workers {
		wg.Add(1)
		go func(w *soakWorker, seed uint64) {
			defer wg.Done()
			w.run(seed)
		}(w, opt.Seed^(0xc0<<8|uint64(i)))
	}

	// Burst scheduler: overload windows alternate with calm ones.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !st.stop.Load() {
			st.burstOn.Store(true)
			sleepUnlessStopped(st, 80*time.Millisecond)
			st.burstOn.Store(false)
			sleepUnlessStopped(st, 120*time.Millisecond)
		}
	}()

	// Supervisor: run incarnations until the time budget is spent,
	// inserting one full blackout at roughly half time.
	deadline := time.Now().Add(opt.Duration)
	blackoutAt := time.Now().Add(opt.Duration / 2)
	blackoutDone := false
	for time.Now().Before(deadline) {
		rep.Incarnations++
		// One injector shared by every shard's filesystem: the kill hits
		// the whole fleet at once, the daemon's failure mode.
		inc := newIncarnation(rep.Incarnations, faults.Config{
			Seed:         r.Uint64(),
			CrashAfter:   60 + int(r.Uint64n(400)),
			TornWrites:   true,
			DropUnsynced: true,
		})
		in, fs := inc.in, inc.fs

		// crashSkip puts an incarnation-setup failure to the harness's
		// adjudicator: under an injected crash the incarnation simply ends
		// and the next one recovers; without one the failure is a soak bug.
		crashSkip := func(stage string, err error) error {
			if _, err := inc.adjudicate(failed(stage, err)); err != nil {
				st.stop.Store(true)
				wg.Wait()
				return err
			}
			rep.Crashes++
			return nil
		}

		// Recover whatever layout the migration journal names — the static
		// one unless Reshard has ever begun a migration — exactly as a
		// restarted daemon does. Replicate mode's shippers run semi-sync;
		// their short ack timeout means a partitioned link degrades to
		// local-only acks instead of wedging the schedulers.
		fleet, openErr := server.OpenFleet(soakFleetConfig(opt, opt.Dir, fs), opt.Shards)
		if openErr != nil {
			if err := crashSkip("recovery", openErr); err != nil {
				return rep, err
			}
			continue
		}
		lay := fleet.Layout()

		// Pick this incarnation's migration: resume the journaled one from
		// its durable watermark, or durably begin the next step of the
		// 2→3→2 plan.
		var targets []server.Engine
		var tgen uint64
		if to := soakPlanStep(lay); opt.Reshard && to != 0 {
			if lay.Active != nil {
				rep.ReshardsResumed++
			}
			var terr error
			if targets, terr = fleet.OpenTarget(to); terr != nil {
				fleet.Close()
				if err := crashSkip("target recovery", terr); err != nil {
					return rep, err
				}
				continue
			}
			tgen = fleet.Layout().Active.Gen
			st.led.setWidth(tgen, to)
		}

		track := func(gen uint64, engines []server.Engine) []server.Engine {
			out := make([]server.Engine, len(engines))
			for si, eng := range engines {
				out[si] = &applyTracker{eng: eng.(*durable.Engine), led: st.led, gen: gen, shard: si}
			}
			return out
		}
		// fail ends the whole soak on a setup failure no crash explains.
		fail := func(what string, err error, closers ...func() error) (*SoakReport, error) {
			st.stop.Store(true)
			wg.Wait()
			for _, c := range closers {
				c()
			}
			return rep, fmt.Errorf("soak: incarnation %d: %s: %w", rep.Incarnations, what, err)
		}
		// A tiny queue relative to the client population guarantees the
		// burst windows actually overflow it (overloaded responses). The
		// Reshard soak runs slightly deeper: the copier's persistent ops
		// share the queue, and with depth 2 they plus the bursts can
		// starve the workers of every single ack.
		queue := 2
		if opt.Reshard {
			queue = 8
		}
		srv, err := server.NewSharded(track(lay.Gen, fleet.Engines()), server.Config{Queue: queue, Batch: 8})
		if err != nil {
			return fail("sharded", err, fleet.Close)
		}
		srv.SetGeneration(lay.Gen)
		var res *server.Resharder
		if targets != nil {
			// Small fenced ranges keep write stalls short while the copy
			// competes with client and burst traffic, and the pace
			// guarantees client ops a window between ranges.
			res, err = fleet.BeginReshard(srv, track(tgen, targets), server.ReshardConfig{
				RangeSize: 16,
				Pace:      2 * time.Millisecond,
			})
			if err != nil {
				return fail("begin reshard", err, srv.Close, fleet.Close)
			}
		}
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
		if res != nil {
			go res.Run() // terminal state is adjudicated by the journal
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail("listen", err, srv.Close, fleet.Close)
		}
		serveDone := make(chan struct{})
		go func() { tsrv.Serve(ln); close(serveDone) }()
		st.addr.Store(ln.Addr().String())

		// Serve until the injector kills the incarnation or time is up.
		for !in.Crashed() && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		crashed := in.Crashed()
		st.addr.Store("")
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		tsrv.Shutdown(ctx)
		cancel()
		srv.Close()   // stops any in-flight migration before draining the schedulers
		fleet.Close() // joins the copier, then closes each engine once
		<-serveDone
		rep.Deduped += tsrv.Metrics().Deduped
		rep.tally(fleet)
		if crashed {
			rep.Crashes++
		}

		// One blackout: leave the server down long enough for every
		// worker's breaker to open, then continue — guaranteeing enough
		// post-blackout serving time to observe the breakers close again,
		// whatever the overall budget.
		if !blackoutDone && time.Now().After(blackoutAt) {
			blackoutDone = true
			time.Sleep(250 * time.Millisecond)
			st.blackout.Store(true)
			if min := time.Now().Add(400 * time.Millisecond); deadline.Before(min) {
				deadline = min
			}
		}
	}
	st.stop.Store(true)
	wg.Wait()

	for _, w := range workers {
		rep.AckedWrites += w.report.acked
		rep.ShedWrites += w.report.shed
		rep.Indeterminate += w.report.indeterminate
		rep.Reads += w.report.reads
		rep.Overloaded += w.report.overloaded
		rep.BreakerOpens += w.report.opens
		rep.BreakerFastFails += w.report.fastFails
		rep.PostBlackoutAcks += w.report.postBlackoutAcks
	}
	rep.Overloaded += bstats.overloaded
	rep.BreakerOpens += bstats.opens
	rep.BreakerFastFails += bstats.fastFails

	// In Reshard mode, drive the migration plan to completion on the
	// clean filesystem first — a daemon restarted after the chaos does
	// the same — so the final sweep reads through the plan's terminal
	// layout.
	if opt.Reshard {
		if err := finishReshardPlan(opt); err != nil {
			return rep, err
		}
		// Plan activity is counted from the journal itself, so chaos-time
		// and clean-coda work land in the same tallies.
		jn, err := durable.OpenReshardJournal(vfs.OS{}, opt.Dir)
		if err != nil {
			return rep, fmt.Errorf("soak: recounting the journal: %w", err)
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

	// sweep reads every owned block back through a quiescent fleet's
	// engines under the routing law.
	sweep := func(fleet *server.Fleet, what string) (reads uint64, err error) {
		engines := fleet.Engines()
		for _, w := range workers {
			for _, block := range w.blocks {
				shard, local := server.RouteBlock(block, len(engines))
				got, err := engines[shard].Read(local)
				if err != nil {
					return reads, fmt.Errorf("soak: %s read of block %d (shard %d): %w", what, block, shard, err)
				}
				if v := w.checkRead(block, got); v != "" {
					st.led.violate("%s sweep: %s", what, v)
				}
				reads++
			}
		}
		return reads, nil
	}

	// Final clean incarnation: recover every shard and read back every
	// owned block through the routing law.
	rep.Incarnations++
	finals, err := server.OpenFleet(soakFleetConfig(opt, opt.Dir, vfs.OS{}), opt.Shards)
	if err != nil {
		return rep, fmt.Errorf("soak: final recovery: %w", err)
	}
	defer finals.Close()
	lay := finals.Layout()
	rep.FinalShards, rep.FinalGen = lay.Shards, lay.Gen
	// Replicate mode: before reading anything, serve the final fleet to
	// the standby with the chaos stopped, until every shard bootstraps
	// and the whole stream is acknowledged — the replica directory is
	// then a durable image of the final state, ready for promotion.
	if opt.Replicate {
		if err := drainReplica(st, finals, sess); err != nil {
			return rep, err
		}
	}
	rep.tally(finals)
	if _, err := sweep(finals, "final"); err != nil {
		return rep, err
	}
	// Promote the drained replica and run the same sweep through it: the
	// standby must satisfy the zero-acked-loss contract exactly as the
	// primary does, or a failover after this soak would lose writes.
	if opt.Replicate {
		promoted, err := server.OpenFleet(soakFleetConfig(opt, opt.Dir+"-replica", vfs.OS{}), opt.Shards)
		if err != nil {
			return rep, fmt.Errorf("soak: promoting the replica: %w", err)
		}
		defer promoted.Close()
		if rep.ReplPromoteTerm, err = promoted.Promote(); err != nil {
			return rep, fmt.Errorf("soak: fencing the promoted replica: %w", err)
		}
		if rep.ReplicaReads, err = sweep(promoted, "promoted replica"); err != nil {
			return rep, err
		}
	}
	st.led.finalSweepChecks()

	st.led.mu.Lock()
	rep.Applies = st.led.applyCount
	rep.Violations = append([]string(nil), st.led.violations...)
	st.led.mu.Unlock()
	if len(rep.Violations) > 0 {
		return rep, fmt.Errorf("soak: %d violation(s); first: %s", len(rep.Violations), rep.Violations[0])
	}
	return rep, nil
}

// soakFleetConfig describes the soak's fleet under dir: the crash
// oracle's engine template under group commit, with semi-sync shipping
// in Replicate mode. The short ack timeout is the soak's liveness
// guarantee: a blackholed or partitioned link degrades to local-only
// acks within one client timeout instead of wedging a shard's scheduler.
func soakFleetConfig(opt SoakOptions, dir string, fs vfs.FS) server.FleetConfig {
	eng := crashOptions(dir, opt.Seed, fs, false)
	eng.SnapshotEvery = 32
	eng.GroupCommit = true
	if opt.Delta {
		eng.DeltaSnapshots = true
		eng.BaseEvery = 3
		eng.CompactEvery = 12
		eng.DeferCheckpoints = true // cuts land at batch boundaries via MaybeCheckpoint
	}
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

// soakReplLink hands the chaos goroutine the standby's most recently
// dialed connection, the one the session is currently reading.
type soakReplLink struct {
	mu  sync.Mutex
	cur *faults.Conn
}

func (l *soakReplLink) set(c *faults.Conn) {
	l.mu.Lock()
	l.cur = c
	l.mu.Unlock()
}

func (l *soakReplLink) current() *faults.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur
}

// runLinkChaos subjects the replication link to seeded blackouts and
// one-way partitions while the soak serves: the standby's sends
// (acks) vanish while frames still arrive, or the wire goes silent
// while acks still flow out, or the link drops outright and the
// session redials. On exit it heals the current link so the final
// drain isn't reading a stalled connection.
func runLinkChaos(st *soakState, link *soakReplLink, seed uint64) {
	r := rng.New(seed ^ 0x1e4c4a05)
	for !st.stop.Load() {
		sleepUnlessStopped(st, time.Duration(20+r.Uint64n(100))*time.Millisecond)
		// Only act while a primary is serving: a partition nobody is
		// writing through exercises nothing.
		if addr, _ := st.addr.Load().(string); addr == "" {
			continue
		}
		c := link.current()
		if c == nil {
			continue
		}
		switch r.Uint64n(6) {
		case 0, 1:
			if r.Uint64n(2) == 0 {
				c.SetPartition(true, false) // acks vanish; the primary's semi-sync degrades
			} else {
				c.SetPartition(false, true) // frames stall; delivered in a burst on heal
			}
			// Dwell for several ack timeouts so the partition provably
			// outlives the semi-sync wait, then heal.
			sleepUnlessStopped(st, time.Duration(100+r.Uint64n(100))*time.Millisecond)
			c.SetPartition(false, false)
		case 2:
			c.Close() // blackout: the session redials and re-bootstraps
		default:
			c.SetPartition(false, false) // heal anything a dead link left set
		}
	}
	if c := link.current(); c != nil {
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

	deadline := time.Now().Add(15 * time.Second)
	drained := false
	for time.Now().Before(deadline) {
		hi, si := hub.Info(), sess.Info()
		if hi.Attached && si.Attached && hi.AckedSeq == hi.ShippedSeq {
			drained = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st.addr.Store("")
	// The session must be fully stopped before promotion opens the
	// mirror directories: a live link would still be writing them.
	sess.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	tsrv.Shutdown(ctx)
	cancel()
	srv.Close() // drains the schedulers; the engines stay open for the sweep
	<-serveDone
	if !drained {
		return fmt.Errorf("soak: replication never drained: primary %+v, standby %+v", hub.Info(), sess.Info())
	}
	return nil
}

// finishReshardPlan drives any journaled in-flight migration — and the
// remaining steps of the 2→3→2 plan — to completion on the clean
// filesystem, the way a restarted daemon would.
func finishReshardPlan(opt SoakOptions) error {
	for step := 0; ; step++ {
		if step > 8 {
			return errors.New("soak: reshard plan failed to converge")
		}
		fleet, err := server.OpenFleet(soakFleetConfig(opt, opt.Dir, vfs.OS{}), opt.Shards)
		if err != nil {
			return fmt.Errorf("soak: reshard coda recovery: %w", err)
		}
		lay := fleet.Layout()
		to := soakPlanStep(lay)
		if to == 0 {
			return fleet.Close()
		}
		err = func() error {
			targets, err := fleet.OpenTarget(to)
			if err != nil {
				return err
			}
			sh, err := server.NewSharded(fleet.Engines(), server.Config{Queue: 64, Batch: 8})
			if err != nil {
				return err
			}
			defer sh.Close()
			sh.SetGeneration(lay.Gen)
			// No client traffic to stall; big strides for speed.
			res, err := fleet.BeginReshard(sh, targets, server.ReshardConfig{RangeSize: 128})
			if err != nil {
				return err
			}
			return res.Run()
		}()
		fleet.Close()
		if err != nil {
			return fmt.Errorf("soak: reshard coda migration to %d shards: %w", to, err)
		}
	}
}

func sleepUnlessStopped(st *soakState, d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) && !st.stop.Load() {
		time.Sleep(5 * time.Millisecond)
	}
}
