package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/aboram"
	"repro/internal/server/wire"
)

// TCPConfig tunes the network front end.
type TCPConfig struct {
	// MaxConns caps concurrently served connections; a connection beyond
	// the cap receives one error response and is closed. 0 = unlimited.
	MaxConns int
	// IdleTimeout bounds how long a connection may sit between requests
	// (the per-read deadline). 0 = no deadline.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write. 0 = no deadline.
	WriteTimeout time.Duration
	// RequestTimeout bounds one request's queue wait + service time; an
	// expired request is answered with the deadline error. 0 = no bound.
	RequestTimeout time.Duration
	// DedupWindow is how many completed mutating request ids the server
	// remembers for retry idempotency (wire protocol v2). A retried
	// write whose original already executed is answered from this cache
	// instead of being applied twice. Default 4096.
	DedupWindow int
	// Reshard handles OpReshard admin commands (live P→P′ migration).
	// The daemon wires it to its Fleet and Sharded; nil refuses the op.
	Reshard func(cmd wire.ReshardCmd, target int) (wire.ReshardInfo, error)
	// ReplJoin takes over a connection that sent OpReplJoin, after the
	// front end has written the OK response: from then on the connection
	// speaks the replication sub-protocol, owned by ReplJoin until it
	// returns (the front end closes the conn afterwards). nil refuses
	// the op — this node does not ship a log.
	ReplJoin func(conn net.Conn) error
	// Promote handles the OpPromote admin op (standby → primary
	// failover). nil refuses the op.
	Promote func() (wire.PromoteInfo, error)
	// Replication supplies the optional replication tail of OpInfo
	// responses; nil omits it.
	Replication func() *wire.ReplicationInfo
}

// TCPMetrics counts front-end connection events.
type TCPMetrics struct {
	Accepted uint64 // connections served
	Refused  uint64 // connections turned away by MaxConns
	Active   int    // connections being served right now
	Deduped  uint64 // retried mutating requests answered from the dedup window
	Shed     uint64 // requests answered with the overloaded status (never executed)
}

// TCPServer speaks the wire protocol on a listener and forwards requests
// to a Backend — one Server, or a Sharded router over P of them.
type TCPServer struct {
	srv atomic.Pointer[Backend] // swapped by promotion (see SwapBackend)
	cfg TCPConfig

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	shutdown bool
	accepted uint64
	refused  uint64
	deduped  uint64
	shed     uint64

	dedup *dedupWindow

	handlers sync.WaitGroup
}

// NewTCP wraps a serving backend (a single Server or a Sharded router)
// with a wire-protocol front end.
func NewTCP(srv Backend, cfg TCPConfig) *TCPServer {
	if cfg.DedupWindow <= 0 {
		cfg.DedupWindow = 4096
	}
	t := &TCPServer{
		cfg:   cfg,
		conns: make(map[net.Conn]struct{}),
		dedup: newDedupWindow(cfg.DedupWindow),
	}
	t.srv.Store(&srv)
	return t
}

// backend returns the current serving backend (promotion swaps it).
func (t *TCPServer) backend() Backend { return *t.srv.Load() }

// SwapBackend atomically replaces the serving backend and returns the
// previous one. A promoted standby uses this to go from the
// not-a-primary stub to the real engine fleet without restarting the
// front end: requests already in flight finish against whichever
// backend they loaded, everything after the swap serves from the new
// one. The caller owns closing the returned backend.
func (t *TCPServer) SwapBackend(next Backend) Backend {
	old := t.srv.Swap(&next)
	return *old
}

// Serve accepts connections on ln until Shutdown closes it. It always
// returns a non-nil error; after Shutdown the error is ErrServerClosed.
func (t *TCPServer) Serve(ln net.Listener) error {
	t.mu.Lock()
	if t.shutdown {
		t.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	t.ln = ln
	t.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			t.mu.Lock()
			down := t.shutdown
			t.mu.Unlock()
			if down {
				return ErrServerClosed
			}
			return err
		}
		t.mu.Lock()
		if t.shutdown {
			t.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		if t.cfg.MaxConns > 0 && len(t.conns) >= t.cfg.MaxConns {
			t.refused++
			t.mu.Unlock()
			// Tell the client why before hanging up, best-effort under a
			// short deadline so a stalled peer cannot block the acceptor.
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			wire.WriteResponse(conn, wire.Response{Err: "server at connection capacity"})
			conn.Close()
			continue
		}
		t.accepted++
		t.conns[conn] = struct{}{}
		t.handlers.Add(1)
		t.mu.Unlock()
		go func() {
			defer t.handlers.Done()
			t.handle(conn)
			t.mu.Lock()
			delete(t.conns, conn)
			t.mu.Unlock()
		}()
	}
}

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("server: tcp server closed")

// Shutdown gracefully drains the front end: stop accepting, let in-flight
// connections finish, force-close whatever remains when ctx expires. The
// underlying Server is left running; the caller closes it separately
// (after Shutdown, so queued requests still get answers).
func (t *TCPServer) Shutdown(ctx context.Context) error {
	t.mu.Lock()
	t.shutdown = true
	ln := t.ln
	t.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	finished := make(chan struct{})
	go func() {
		t.handlers.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		t.mu.Lock()
		for conn := range t.conns {
			conn.Close()
		}
		t.mu.Unlock()
		<-finished
		return ctx.Err()
	}
}

// Metrics returns a snapshot of the connection counters.
func (t *TCPServer) Metrics() TCPMetrics {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TCPMetrics{Accepted: t.accepted, Refused: t.refused, Active: len(t.conns),
		Deduped: t.deduped, Shed: t.shed}
}

// SeedDedup preloads the retry-dedup window with request ids recovered by
// a durable engine (oldest first). Call before Serve: a retry whose
// original write was acknowledged before a crash is then answered from
// the window instead of being applied a second time.
func (t *TCPServer) SeedDedup(ids []uint64) {
	t.dedup.seed(ids)
}

// handle serves one connection: a loop of framed request/response pairs.
func (t *TCPServer) handle(conn net.Conn) {
	defer conn.Close()
	for {
		if t.cfg.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(t.cfg.IdleTimeout))
		}
		req, err := wire.ReadRequest(conn)
		if err != nil {
			// EOF, closed connections, and idle-deadline expiry end the
			// conversation silently; a malformed frame earns a best-effort
			// final error response before the hang-up, since frame sync is
			// lost either way.
			var ne net.Error
			silent := err == io.EOF || errors.Is(err, net.ErrClosed) ||
				(errors.As(err, &ne) && ne.Timeout())
			if !silent {
				t.reply(conn, wire.Response{Err: err.Error()})
			}
			return
		}
		if req.Op == wire.OpReplJoin {
			// Protocol upgrade: acknowledge, then hand the raw connection
			// to the replication hub. The request/response framing ends
			// here; the conn speaks replication frames until it dies.
			if t.cfg.ReplJoin == nil {
				t.reply(conn, wire.Response{Err: "repl-join: this node does not ship a log"})
				return
			}
			if !t.reply(conn, wire.Response{}) {
				return
			}
			// Replication sessions outlive the request/response idle
			// deadline model; the hub owns liveness from here.
			conn.SetReadDeadline(time.Time{})
			conn.SetWriteDeadline(time.Time{})
			t.cfg.ReplJoin(conn)
			return
		}
		resp := t.dispatch(req)
		if !t.reply(conn, resp) {
			return
		}
	}
}

// reply writes one response under the write deadline; false means the
// connection is unusable.
func (t *TCPServer) reply(conn net.Conn, resp wire.Response) bool {
	if t.cfg.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
	}
	return wire.WriteResponse(conn, resp) == nil
}

// dispatch executes one wire request against the scheduler, routing
// identified mutating ops through the dedup window first.
func (t *TCPServer) dispatch(req wire.Request) wire.Response {
	ctx := context.Background()
	if t.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t.cfg.RequestTimeout)
		defer cancel()
	}
	if req.ID != 0 && (req.Op == wire.OpWrite || req.Op == wire.OpAccess) {
		entry, owner := t.dedup.begin(req.ID)
		if !owner {
			// A replay (or a concurrent duplicate): wait for the owner's
			// outcome instead of executing a second time.
			select {
			case <-entry.done:
				t.mu.Lock()
				t.deduped++
				t.mu.Unlock()
				return entry.resp
			case <-ctx.Done():
				return wire.Response{Err: ctx.Err().Error()}
			}
		}
		resp := t.execute(ctx, req)
		t.dedup.finish(req.ID, entry, resp)
		return resp
	}
	return t.execute(ctx, req)
}

// execute runs one wire request against the scheduler.
func (t *TCPServer) execute(ctx context.Context, req wire.Request) wire.Response {
	srv := t.backend()
	switch req.Op {
	case wire.OpInfo:
		info := wire.InfoPayload{
			NumBlocks:  srv.NumBlocks(),
			BlockSize:  srv.BlockSize(),
			Encrypted:  srv.Encrypted(),
			Shards:     srv.Shards(),
			Durability: srv.Durability(),
		}
		if t.cfg.Replication != nil {
			info.Replication = t.cfg.Replication()
		}
		return wire.Response{Data: wire.EncodeInfo(info)}
	case wire.OpAccess:
		if err := srv.Access(ctx, req.Block); err != nil {
			return t.failure(req, err)
		}
		return wire.Response{}
	case wire.OpRead:
		data, err := srv.Read(ctx, req.Block)
		if err != nil {
			return t.failure(req, err)
		}
		return wire.Response{Data: data}
	case wire.OpXRead:
		x, err := srv.ReadXOR(ctx, req.Block)
		if err != nil {
			return t.failure(req, err)
		}
		data, err := wire.EncodeXRead(xreadPayload(x))
		if err != nil {
			return wire.Response{Err: err.Error()}
		}
		return wire.Response{Data: data}
	case wire.OpWrite:
		if err := srv.WriteID(ctx, req.ID, req.Block, req.Data); err != nil {
			return t.failure(req, err)
		}
		return wire.Response{}
	case wire.OpPromote:
		if t.cfg.Promote == nil {
			return wire.Response{Err: "promote: not supported by this server"}
		}
		info, err := t.cfg.Promote()
		if err != nil {
			return wire.Response{Err: err.Error()}
		}
		data, err := wire.EncodePromoteInfo(info)
		if err != nil {
			return wire.Response{Err: err.Error()}
		}
		return wire.Response{Data: data}
	case wire.OpReshard:
		if t.cfg.Reshard == nil {
			return wire.Response{Err: "reshard: not supported by this server"}
		}
		cmd, err := wire.DecodeReshardReq(req.Data)
		if err != nil {
			return wire.Response{Err: err.Error()}
		}
		info, err := t.cfg.Reshard(cmd.Cmd, cmd.Target)
		if err != nil {
			return wire.Response{Err: err.Error()}
		}
		data, err := wire.EncodeReshardInfo(info)
		if err != nil {
			return wire.Response{Err: err.Error()}
		}
		return wire.Response{Data: data}
	default:
		return wire.Response{Err: fmt.Sprintf("unsupported op %d", uint8(req.Op))}
	}
}

// xreadPayload maps an engine XOR result onto the wire payload: the XOR
// envelope when the fast path produced one, the baseline path transfer
// when it modeled one, inline plaintext otherwise (stash/treetop hits).
func xreadPayload(x *aboram.XORResult) wire.XReadPayload {
	switch {
	case x.Env != nil:
		return wire.XReadPayload{Mode: wire.XReadXOR, Env: x.Env}
	case x.PathBlocks != nil:
		return wire.XReadPayload{Mode: wire.XReadPath, Blocks: x.PathBlocks, RealPos: x.RealPos}
	default:
		return wire.XReadPayload{Mode: wire.XReadInline, Data: x.Data}
	}
}

// failure maps a scheduler error onto the wire. Outcomes the scheduler
// guarantees were never executed — admission rejections and context
// expiry before the claim (the claim/abandon handshake makes a context
// error from submit authoritative for "not executed") — become the
// distinguishable overloaded status with a retry-after hint, so clients
// can back off and retry safely; everything else is a plain error.
func (t *TCPServer) failure(req wire.Request, err error) wire.Response {
	var np *NotPrimaryError
	if errors.As(err, &np) {
		return wire.Response{NotPrimary: true, Term: np.Term}
	}
	notExecuted := errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDeadlineShed) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
	if !notExecuted {
		return wire.Response{Err: err.Error()}
	}
	t.mu.Lock()
	t.shed++
	t.mu.Unlock()
	return wire.Response{Overloaded: true, RetryAfterMillis: t.retryAfterMillis(req)}
}

// retryAfterMillis turns the serving queue's estimated wait — the shard
// and op kind that would actually execute the request, so one hot shard
// cannot inflate another's backoff — into the hint an overloaded response
// carries, clamped to [1ms, 30s].
func (t *TCPServer) retryAfterMillis(req wire.Request) uint32 {
	est := t.backend().RetryAfterHint(req.Block, req.Op)
	ms := int64(est / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	if ms > 30_000 {
		ms = 30_000
	}
	return uint32(ms)
}
