// Package server is the concurrent serving layer: it multiplexes many
// clients onto one aboram.ORAM instance.
//
// The ORAM protocol is inherently serial — its obliviousness argument
// depends on a single totally-ordered access sequence — so the server does
// not try to parallelize the engine. Instead it funnels every client
// operation through one protocol goroutine behind a bounded queue:
//
//	client ──┐
//	client ──┼── bounded queue ──► scheduler goroutine ──► aboram.ORAM
//	client ──┘      (admission        (drains up to K
//	                 control)          requests per wakeup)
//
// Admission control is reject-on-full (ErrQueueFull), never block-on-full,
// so a saturated server sheds load with bounded latency instead of
// building an unbounded convoy. Waiting requests honor context
// cancellation: a request whose context expires before service is answered
// with the context error and never touches the ORAM.
//
// Batch coalescing drains up to Batch queued requests per scheduler
// wakeup. Requests are still served one at a time, in arrival order — the
// protocol forbids merging two accesses into one — but draining in batches
// amortizes scheduler wakeups and lets the server observe request-stream
// locality: the duplicate-hit counter (several queued requests for the
// same block in one batch) quantifies the coalescing opportunity a
// position-map lookaside or result cache would exploit.
//
// The TCP front end (tcp.go, cmd/aboramd) sits on top of this type; the
// bench/ module measures the stack end to end.
package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/aboram"
)

// Engine is the block store the scheduler serializes onto: the protocol
// surface of aboram.ORAM. Two implementations exist: a bare
// *aboram.ORAM (in-memory, state dies with the process) and
// internal/durable's Engine (snapshot + write-ahead log, so an op
// acknowledged by Write has been made durable before the scheduler
// answers the client). The scheduler guarantees single-goroutine use,
// which is the concurrency contract both implementations require.
type Engine interface {
	NumBlocks() int64
	BlockSize() int
	Encrypted() bool
	Access(block int64) error
	Read(block int64) ([]byte, error)
	// Write must return only once the op is applied — and, for durable
	// engines, persisted: the scheduler acknowledges the client
	// immediately after.
	Write(block int64, data []byte) error
}

// IdentifiedEngine is implemented by engines that want the client-assigned
// request id attached to a write. The durable engine logs the id in the
// write's WAL record (and snapshot metadata), so a restarted daemon can
// rebuild its retry-dedup window and a retry straddling a crash is still
// applied exactly once.
type IdentifiedEngine interface {
	Engine
	// WriteIdentified is Write with the request id attached; id 0 is
	// equivalent to Write.
	WriteIdentified(id uint64, block int64, data []byte) error
}

// BatchSyncer is implemented by engines that support group commit: Write
// applies and logs the op but defers the WAL fsync, and BatchSync makes
// every applied-but-unsynced write durable at once. When GroupCommit
// reports true the scheduler holds back write acknowledgments until the
// end of the drained batch, calls BatchSync once, and only then answers
// the writers — one fsync amortized over the whole batch, with the loss
// window still limited to unacknowledged ops.
type BatchSyncer interface {
	// BatchSync makes every applied-but-unsynced write durable. A non-nil
	// error means none of the deferred writes may be acknowledged.
	BatchSync() error
	// GroupCommit reports whether writes are deferred (acknowledgment
	// requires BatchSync).
	GroupCommit() bool
}

// Checkpointer is implemented by engines that defer checkpoint work to
// batch boundaries (the durable engine, always): the
// write path only marks a rotation or log compaction due, and the
// scheduler calls MaybeCheckpoint once per drained batch — after the
// batch's acknowledgments — so the checkpoint's consistent cut never
// lands between a write and its acknowledgment, and no client waits on
// checkpoint housekeeping.
type Checkpointer interface {
	// MaybeCheckpoint performs any deferred rotation or compaction; a
	// no-op when nothing is due.
	MaybeCheckpoint() error
}

// XORReader is implemented by engines that serve reads through the online
// transfer surface (aboram.ORAM and the durable engine): the result
// carries, alongside the plaintext, either the XOR fast path's combined
// block + pad descriptors or the baseline per-bucket path transfer, which
// the TCP front end ships to remote clients as an OpXRead response.
type XORReader interface {
	ReadXOR(block int64) (*aboram.XORResult, error)
}

// Errors returned by the admission path. ErrQueueFull and
// ErrDeadlineShed both mean the request was never enqueued: it was not
// and never will be executed, so the caller may retry it freely.
var (
	// ErrQueueFull is returned when the bounded request queue is at
	// capacity; the caller should back off and retry.
	ErrQueueFull = errors.New("server: request queue full")
	// ErrDeadlineShed is returned when admission control predicts the
	// request's deadline will expire before the scheduler can reach it
	// (estimated queue wait exceeds the remaining budget), so queueing it
	// would only waste scheduler work on a guaranteed timeout.
	ErrDeadlineShed = errors.New("server: shed: deadline expires before estimated service")
	// ErrClosed is returned for requests submitted after Close.
	ErrClosed = errors.New("server: closed")
)

// Config tunes the scheduler.
type Config struct {
	// Queue bounds the number of waiting requests (admission control).
	// Default 256.
	Queue int
	// Batch bounds how many queued requests one scheduler wakeup drains.
	// 1 disables coalescing. Default 16.
	Batch int
}

func (c Config) withDefaults() Config {
	if c.Queue <= 0 {
		c.Queue = 256
	}
	if c.Batch <= 0 {
		c.Batch = 16
	}
	return c
}

// request is one queued client operation. resp is buffered so the
// scheduler never blocks on a caller that already gave up.
//
// state makes cancellation atomic with execution. Without it there is a
// window between the scheduler's ctx check and the engine call where the
// submitter's ctx expires: the op would be applied while the caller sees
// a deadline error, the dedup window would forget the id, and the
// client's retry would apply the write a second time — clobbering any
// interleaved write by another client. The CAS closes the window: an op
// is executed if and only if its submitter receives the real outcome.
type request struct {
	ctx   context.Context
	op    opKind
	id    uint64 // client-assigned request id; 0 = unidentified
	block int64
	data  []byte
	resp  chan result
	state atomic.Uint32 // reqPending → reqClaimed (scheduler) | reqAbandoned (submitter)
}

const (
	reqPending   uint32 = iota
	reqClaimed          // scheduler committed to delivering the authoritative outcome
	reqAbandoned        // submitter returned ctx.Err(); the engine must not be touched
)

// claim is the scheduler's side of the cancellation race: true means the
// submitter is now committed to reading the result from resp.
func (r *request) claim() bool { return r.state.CompareAndSwap(reqPending, reqClaimed) }

// abandon is the submitter's side: true means the scheduler has not (and
// now never will) execute this request.
func (r *request) abandon() bool { return r.state.CompareAndSwap(reqPending, reqAbandoned) }

type opKind uint8

const (
	opAccess opKind = iota
	opRead
	opWrite
	opXRead
)

type result struct {
	data []byte
	xres *aboram.XORResult // opXRead only
	err  error
}

// Server serializes concurrent Access/Read/Write calls onto one Engine.
type Server struct {
	eng   Engine
	ident IdentifiedEngine   // eng, when it accepts request ids; else nil
	group BatchSyncer        // eng, when group commit is active; else nil
	xread XORReader          // eng, when it serves online-transfer reads; else nil
	ckpt  Checkpointer       // eng, when it defers checkpoints to batch ends; else nil
	durab DurabilityReporter // eng, when it exposes durability counters; else nil
	cfg   Config

	reqs chan *request
	done chan struct{}

	// svcEWMA is an exponentially weighted moving average of per-request
	// service time in nanoseconds, maintained by the scheduler and read
	// by the admission path to predict queue wait (load shedding) and by
	// EstimatedWait (retry-after hints).
	svcEWMA atomic.Int64

	// opEWMA breaks the service-time average down by op kind: an XOR read
	// and a group-committed write differ by an order of magnitude, so
	// shedding and retry-after quotes use the cost of the op actually
	// being admitted, not the mixed average. Zero until that kind has
	// been served; readers fall back to svcEWMA.
	opEWMA [4]atomic.Int64

	// admission guards the closed flag against the channel close: senders
	// hold it shared while enqueueing, Close holds it exclusively while
	// flipping closed, so no send can race the close(reqs).
	admission sync.RWMutex
	closed    bool

	metrics metrics
}

// New starts the scheduler goroutine for the given engine. The engine
// must not be used directly (or wrapped by another Server) while this
// Server owns it.
func New(e Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		eng:  e,
		cfg:  cfg,
		reqs: make(chan *request, cfg.Queue),
		done: make(chan struct{}),
	}
	s.ident, _ = e.(IdentifiedEngine)
	s.xread, _ = e.(XORReader)
	s.ckpt, _ = e.(Checkpointer)
	s.durab, _ = e.(DurabilityReporter)
	if bs, ok := e.(BatchSyncer); ok && bs.GroupCommit() {
		s.group = bs
	}
	s.metrics.init()
	go s.loop()
	return s
}

// NumBlocks returns the number of addressable blocks of the served store.
func (s *Server) NumBlocks() int64 { return s.eng.NumBlocks() }

// BlockSize returns the block size in bytes of the served store.
func (s *Server) BlockSize() int { return s.eng.BlockSize() }

// Encrypted reports whether the served store has an active data plane
// (Read/Write available), as opposed to pattern-only Access.
func (s *Server) Encrypted() bool { return s.eng.Encrypted() }

// Config returns the scheduler configuration (after defaulting).
func (s *Server) Config() Config { return s.cfg }

// Access obliviously touches a block without transferring content.
func (s *Server) Access(ctx context.Context, block int64) error {
	return s.submit(ctx, opAccess, 0, block, nil).err
}

// Read obliviously fetches a block's content.
func (s *Server) Read(ctx context.Context, block int64) ([]byte, error) {
	res := s.submit(ctx, opRead, 0, block, nil)
	return res.data, res.err
}

// ReadXOR fetches a block's content as an online-transfer payload (XOR
// combined block, baseline path transfer, or inline plaintext). Requires
// the engine to implement XORReader.
func (s *Server) ReadXOR(ctx context.Context, block int64) (*aboram.XORResult, error) {
	if s.xread == nil {
		return nil, errors.New("server: engine does not support XOR reads")
	}
	res := s.submit(ctx, opXRead, 0, block, nil)
	return res.xres, res.err
}

// Write obliviously stores a block's content. The data slice is copied
// before Write returns from enqueueing, so the caller may reuse it.
func (s *Server) Write(ctx context.Context, block int64, data []byte) error {
	return s.WriteID(ctx, 0, block, data)
}

// WriteID is Write with the client-assigned request id attached. When the
// engine is an IdentifiedEngine (the durable engine), the id is logged
// with the write's WAL record so the retry-dedup window survives a crash;
// other engines serve it as a plain Write. id 0 means unidentified.
func (s *Server) WriteID(ctx context.Context, id uint64, block int64, data []byte) error {
	return s.submit(ctx, opWrite, id, block, append([]byte(nil), data...)).err
}

// EstimatedWait predicts how long a newly admitted request would sit in
// the queue: current depth (plus itself) times the moving average of
// observed service time. Zero until the scheduler has served anything.
func (s *Server) EstimatedWait() time.Duration {
	agg := s.svcEWMA.Load()
	return estimateWait(len(s.reqs), agg, agg)
}

// estimatedWaitOp is EstimatedWait specialized to one op kind: the
// requests already queued ahead are a mix of kinds and cost the aggregate
// average each, but the admitted op itself costs its own kind's average —
// so a cheap access behind a short queue is not quoted a write-sized
// wait. Falls back to the aggregate until the kind has been observed.
func (s *Server) estimatedWaitOp(op opKind) time.Duration {
	return estimateWait(len(s.reqs), s.svcEWMA.Load(), s.opEWMA[op].Load())
}

// estimateWait is the pure quoting law shared by EstimatedWait,
// estimatedWaitOp, and the retry-after hints: depth queued requests at
// the aggregate average each, plus the admitted op at its own kind's
// average (falling back to the aggregate while the kind is unobserved).
// The result is nonnegative and monotone in depth and in both averages.
func estimateWait(depth int, agg, own int64) time.Duration {
	if agg < 0 {
		agg = 0
	}
	if own <= 0 {
		own = agg
	}
	if depth < 0 {
		depth = 0
	}
	return time.Duration(int64(depth)*agg + own)
}

// opCost is the scheduler's per-op service estimate without queueing —
// the op kind's EWMA, falling back to the aggregate. The resharder uses
// it to price the remaining blocks of a fenced range copy into
// retry-after hints.
func (s *Server) opCost(op opKind) time.Duration {
	return estimateWait(0, s.svcEWMA.Load(), s.opEWMA[op].Load())
}

// SeedServiceEstimates pre-loads zero-valued service EWMAs from another
// scheduler's snapshot. A freshly started scheduler quotes a zero wait
// until its first op of each kind completes — harmless at daemon boot
// (nothing is queued yet), but wrong for the fresh target fleet of a
// live reshard joining a loaded deployment: its cold shards would
// under-quote retry-after hints and never shed. Seeding from the old
// fleet's aggregate closes the cold-start window; observed service times
// take over from the first real op (the EWMA fold replaces a seeded
// value at the usual 1/8 weight).
func (s *Server) SeedServiceEstimates(m Metrics) {
	seed := func(a *atomic.Int64, d time.Duration) {
		if d > 0 {
			a.CompareAndSwap(0, int64(d))
		}
	}
	seed(&s.svcEWMA, m.ServiceEWMA)
	// Per-op kinds fall back to the kind's own average from the source,
	// then to its aggregate — the satellite fix: no kind may quote zero
	// once any estimate exists.
	for op, d := range map[opKind]time.Duration{
		opAccess: m.OpEWMA.Access,
		opRead:   m.OpEWMA.Read,
		opWrite:  m.OpEWMA.Write,
		opXRead:  m.OpEWMA.XRead,
	} {
		if d == 0 {
			d = m.ServiceEWMA
		}
		seed(&s.opEWMA[op], d)
	}
}

// submit enqueues one operation and waits for its result or for ctx; any
// failure travels in the result's err field.
func (s *Server) submit(ctx context.Context, op opKind, id uint64, block int64, data []byte) result {
	if err := ctx.Err(); err != nil {
		return result{err: err}
	}
	// Load shedding: if the queue is deep enough that the request's
	// deadline will expire before the scheduler reaches it, refuse now —
	// definitively unexecuted — instead of queueing a guaranteed timeout.
	if dl, ok := ctx.Deadline(); ok {
		if est := s.estimatedWaitOp(op); est > 0 && time.Until(dl) < est {
			s.metrics.shed()
			return result{err: ErrDeadlineShed}
		}
	}
	r := &request{ctx: ctx, op: op, id: id, block: block, data: data, resp: make(chan result, 1)}

	s.admission.RLock()
	if s.closed {
		s.admission.RUnlock()
		return result{err: ErrClosed}
	}
	select {
	case s.reqs <- r:
		depth := len(s.reqs)
		s.admission.RUnlock()
		s.metrics.enqueued(depth)
	default:
		s.admission.RUnlock()
		s.metrics.rejected()
		return result{err: ErrQueueFull}
	}

	select {
	case res := <-r.resp:
		return res
	case <-ctx.Done():
		if r.abandon() {
			// The scheduler has not claimed this request and now never
			// will execute it; the ctx error is the authoritative outcome.
			return result{err: ctx.Err()}
		}
		// The scheduler claimed the request before we could abandon it:
		// it is executing (or has executed) right now. Returning ctx.Err()
		// here would report failure for an op that was applied — the
		// retry-double-apply hazard — so wait for the real outcome; one
		// engine op, not ctx, bounds this wait.
		return <-r.resp
	}
}

// Close drains the queue, serves everything already admitted, stops the
// scheduler goroutine, and rejects all later submissions with ErrClosed.
// It is safe to call more than once.
func (s *Server) Close() error {
	s.admission.Lock()
	if s.closed {
		s.admission.Unlock()
		<-s.done
		return nil
	}
	s.closed = true
	s.admission.Unlock()
	// No submitter can be inside a send now (sends happen under the read
	// lock, and every future lock holder sees closed), so closing the
	// channel is race-free; the scheduler drains what was admitted.
	close(s.reqs)
	<-s.done
	return nil
}

// loop is the protocol goroutine: the only place the ORAM is touched.
func (s *Server) loop() {
	defer close(s.done)
	batch := make([]*request, 0, s.cfg.Batch)
	seen := make(map[int64]int, s.cfg.Batch)
	for {
		first, ok := <-s.reqs
		if !ok {
			return
		}
		// Coalesce: drain whatever else is already queued, up to the batch
		// bound, without sleeping for more.
		batch = append(batch[:0], first)
		closed := false
	drain:
		for len(batch) < s.cfg.Batch {
			select {
			case r, ok := <-s.reqs:
				if !ok {
					// Receiving !ok from the closed channel means it is
					// also empty: everything admitted is in this batch.
					closed = true
					break drain
				}
				batch = append(batch, r)
			default:
				break drain
			}
		}
		s.serveBatch(batch, seen)
		if closed {
			return
		}
	}
}

// serveBatch executes one drained batch in arrival order, recording batch
// shape and duplicate-block hits. Under group commit, successful writes
// are held back until one BatchSync at the end of the batch makes them
// durable; only then are the writers answered, so an acknowledgment still
// implies durability while the batch shares a single fsync.
func (s *Server) serveBatch(batch []*request, seen map[int64]int) {
	if len(batch) == 0 {
		return
	}
	clear(seen)
	dups := 0
	for _, r := range batch {
		seen[r.block]++
		if seen[r.block] > 1 {
			dups++
		}
	}
	s.metrics.batch(len(batch), dups)
	var deferred []*request // applied writes awaiting the batch fsync
	for _, r := range batch {
		if !r.claim() {
			// The submitter abandoned the request on ctx expiry and has
			// already returned; nobody reads resp, nothing to execute.
			s.metrics.canceled()
			continue
		}
		// Claimed: from here the submitter waits for resp, so whatever is
		// delivered — including a cancellation — is the authoritative
		// outcome and can never disagree with what the engine did.
		if err := r.ctx.Err(); err != nil {
			// Expired while queued: answer without touching the ORAM, so a
			// dead client cannot force protocol work.
			s.metrics.canceled()
			r.resp <- result{err: err}
			continue
		}
		var res result
		begin := time.Now()
		switch r.op {
		case opAccess:
			res.err = s.eng.Access(r.block)
		case opRead:
			res.data, res.err = s.eng.Read(r.block)
		case opXRead:
			res.xres, res.err = s.xread.ReadXOR(r.block)
		case opWrite:
			if s.ident != nil {
				res.err = s.ident.WriteIdentified(r.id, r.block, r.data)
			} else {
				res.err = s.eng.Write(r.block, r.data)
			}
		}
		s.observeService(r.op, time.Since(begin))
		s.metrics.served(r.op)
		if r.op == opWrite && res.err == nil && s.group != nil {
			deferred = append(deferred, r)
			continue
		}
		r.resp <- res
	}
	if len(deferred) > 0 {
		// One fsync covers the whole batch; a sync failure means none of
		// the deferred writes became durable, so none may be acknowledged.
		err := s.group.BatchSync()
		s.metrics.groupSync(len(deferred))
		for _, r := range deferred {
			r.resp <- result{err: err}
		}
	}
	if s.ckpt != nil {
		// Deferred checkpoint work runs after the batch is fully answered:
		// the cut lands between batches, and no client in this batch waits
		// on it. The error is intentionally dropped — a failing engine
		// poisons itself and the next client op surfaces the cause.
		_ = s.ckpt.MaybeCheckpoint()
	}
}

// observeService folds one measured service time into the EWMAs the
// admission path sheds against (weight 1/8: responsive to load changes,
// stable against single-op noise) — both the aggregate and the op kind's
// own average.
func (s *Server) observeService(op opKind, d time.Duration) {
	fold := func(a *atomic.Int64) {
		old := a.Load()
		if old == 0 {
			a.Store(int64(d))
			return
		}
		a.Store(old - old/8 + int64(d)/8)
	}
	fold(&s.svcEWMA)
	fold(&s.opEWMA[op])
}
