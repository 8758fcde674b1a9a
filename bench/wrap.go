package main

import (
	"encoding/binary"
	"net"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/aboram"
	"repro/internal/server"
	"repro/internal/server/wire"
	"repro/internal/vfs"
)

// Span-recording wrappers at the seams of the stack that already are
// interfaces. Instrumentation inside the program is a later issue; these
// sit around it.

// ---- net.Listener / net.Conn: the tcp.request span and byte counts ----

type tracedListener struct {
	net.Listener
	t *tracer
	c *tcpCounters
}

type tcpCounters struct{ bytesIn, bytesOut atomic.Int64 }

func (l tracedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: conn, t: l.t, c: l.c,
		in: newFrameScanner(), out: newFrameScanner(), open: mark{start: -1}}, nil
}

// frameScanner follows the length-prefixed framing of a byte stream and
// reports when a frame has passed completely.
type frameScanner struct {
	hdr     [4]byte
	hdrHave int
	body    int64 // body bytes still expected; -1 while reading the header
}

func newFrameScanner() frameScanner { return frameScanner{body: -1} }

// feed consumes n stream bytes (from p) and reports whether they completed
// at least one frame.
func (f *frameScanner) feed(p []byte) (complete bool) {
	for len(p) > 0 {
		if f.body < 0 {
			k := copy(f.hdr[f.hdrHave:], p)
			f.hdrHave += k
			p = p[k:]
			if f.hdrHave < len(f.hdr) {
				return complete
			}
			f.hdrHave = 0
			f.body = int64(binary.BigEndian.Uint32(f.hdr[:]))
		}
		k := int64(len(p))
		if k > f.body {
			k = f.body
		}
		f.body -= k
		p = p[k:]
		if f.body == 0 {
			f.body = -1
			complete = true
		}
	}
	return complete
}

// tracedConn is the server side of one connection. tcp.request runs from
// the Read that completes a request frame to the Write that completes its
// response frame: decode, dedup window, admission, queue wait, batch
// formation, the engine, reply encode and the write syscalls.
type tracedConn struct {
	net.Conn
	t       *tracer
	c       *tcpCounters
	in, out frameScanner
	open    mark
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		if c.t.on.Load() {
			c.c.bytesIn.Add(int64(n))
		}
		if c.in.feed(p[:n]) {
			c.open = c.t.begin()
		}
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		if c.t.on.Load() {
			c.c.bytesOut.Add(int64(n))
		}
		if c.out.feed(p[:n]) {
			c.t.finish("tcp.request", c.open, false)
			c.open = mark{start: -1}
		}
	}
	return n, err
}

// ---- server.Engine: the engine.* spans ----

// shardSeam is what one shard's engine wrapper tells its filesystem
// wrapper: which goroutine is the scheduler, and whether that goroutine is
// inside the batch-boundary checkpoint cut right now.
type shardSeam struct {
	sched  atomic.Int64
	inCkpt atomic.Bool
}

// tracedEngine wraps a shard's engine — a bare *aboram.ORAM or a
// *durable.Engine — and forwards every capability the scheduler probes
// for, answering "not supported" the way an engine without it would.
type tracedEngine struct {
	inner server.Engine
	t     *tracer
	seam  *shardSeam

	ident server.IdentifiedEngine
	group server.BatchSyncer
	ckpt  server.Checkpointer
	xread server.XORReader
	durab server.DurabilityReporter
	epoch interface{ Epoch() uint64 }
}

func newTracedEngine(inner server.Engine, t *tracer, seam *shardSeam) *tracedEngine {
	e := &tracedEngine{inner: inner, t: t, seam: seam}
	e.ident, _ = inner.(server.IdentifiedEngine)
	e.group, _ = inner.(server.BatchSyncer)
	e.ckpt, _ = inner.(server.Checkpointer)
	e.xread, _ = inner.(server.XORReader)
	e.durab, _ = inner.(server.DurabilityReporter)
	e.epoch, _ = inner.(interface{ Epoch() uint64 })
	return e
}

func (e *tracedEngine) NumBlocks() int64 { return e.inner.NumBlocks() }
func (e *tracedEngine) BlockSize() int   { return e.inner.BlockSize() }
func (e *tracedEngine) Encrypted() bool  { return e.inner.Encrypted() }

// noteScheduler remembers which goroutine drives the engine, so the vfs
// wrapper can tell serving-path file work from background publishes.
func (e *tracedEngine) noteScheduler() {
	if e.seam.sched.Load() == 0 {
		e.seam.sched.Store(goroutineID())
	}
}

func (e *tracedEngine) Access(block int64) error {
	m := e.t.begin()
	err := e.inner.Access(block)
	e.t.finish("engine.access", m, false)
	return err
}

func (e *tracedEngine) Read(block int64) ([]byte, error) {
	e.noteScheduler()
	m := e.t.begin()
	data, err := e.inner.Read(block)
	e.t.finish("engine.read", m, false)
	return data, err
}

func (e *tracedEngine) Write(block int64, data []byte) error {
	return e.WriteIdentified(0, block, data)
}

func (e *tracedEngine) WriteIdentified(id uint64, block int64, data []byte) error {
	e.noteScheduler()
	m := e.t.begin()
	var err error
	if e.ident != nil {
		err = e.ident.WriteIdentified(id, block, data)
	} else {
		err = e.inner.Write(block, data)
	}
	e.t.finish("engine.write", m, false)
	return err
}

func (e *tracedEngine) ReadXOR(block int64) (*aboram.XORResult, error) {
	e.noteScheduler()
	m := e.t.begin()
	res, err := e.xread.ReadXOR(block)
	e.t.finish("engine.xread", m, false)
	return res, err
}

func (e *tracedEngine) GroupCommit() bool { return e.group != nil && e.group.GroupCommit() }

func (e *tracedEngine) BatchSync() error {
	m := e.t.begin()
	err := e.group.BatchSync()
	e.t.finish("engine.batchsync", m, false)
	return err
}

// MaybeCheckpoint runs after every batch and is almost always a no-op; a
// span is kept only when the engine's epoch moved, i.e. a rotation's
// capture pause really happened. It lands between batches, after the
// batch's replies, so it — and the file work inside it — is background:
// its cost reaches the next request as queue wait, which tcp.request's
// self time already holds.
func (e *tracedEngine) MaybeCheckpoint() error {
	if e.ckpt == nil {
		return nil
	}
	if e.epoch == nil {
		return e.ckpt.MaybeCheckpoint()
	}
	before := e.epoch.Epoch()
	e.seam.inCkpt.Store(true)
	m := e.t.begin()
	err := e.ckpt.MaybeCheckpoint()
	if e.epoch.Epoch() != before {
		e.t.finish("engine.checkpoint", m, true)
	}
	e.seam.inCkpt.Store(false)
	return err
}

func (e *tracedEngine) Durability() wire.DurabilityInfo {
	if e.durab == nil {
		return wire.DurabilityInfo{}
	}
	return e.durab.Durability()
}

// goroutineID parses the current goroutine's id out of its stack header.
// It costs about a microsecond, so only rare calls (file creation, rename,
// directory sync) and one-time set-up use it.
func goroutineID() int64 {
	var buf [64]byte
	s := string(buf[:runtime.Stack(buf[:], false)])
	s = strings.TrimPrefix(s, "goroutine ")
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseInt(s, 10, 64)
	return id
}

// ---- vfs.FS: the vfs.* spans and device counts ----

type vfsCounters struct {
	writes, syncs, bytes atomic.Int64 // WAL segment traffic
	publishBytes         atomic.Int64 // checkpoint files
}

// tracedFS wraps the filesystem one shard's durable engine writes through.
// WAL segment traffic is recorded as vfs.write / vfs.sync, checkpoint files
// and directory operations as durable.publish / vfs.meta. Work is
// background — parentless, outside every request's ledger — when it runs
// off the scheduler goroutine (the asynchronous publish) or inside the
// batch-boundary checkpoint cut.
type tracedFS struct {
	vfs.FS
	t    *tracer
	c    *vfsCounters
	seam *shardSeam
}

func (f tracedFS) offPath() bool {
	return f.seam.inCkpt.Load() || goroutineID() != f.seam.sched.Load()
}

func (f tracedFS) meta(op func() error) error {
	if !f.t.on.Load() {
		return op()
	}
	bg := f.offPath()
	m := f.t.begin()
	err := op()
	f.t.finish("vfs.meta", m, bg)
	return err
}

func (f tracedFS) Create(name string) (vfs.File, error) {
	var file vfs.File
	err := f.meta(func() (err error) {
		file, err = f.FS.Create(name)
		return err
	})
	if err != nil {
		return nil, err
	}
	base := filepath.Base(name)
	wal := strings.HasPrefix(base, "wal-") && strings.HasSuffix(base, ".log")
	return &tracedFile{File: file, fs: f, wal: wal, async: !wal && f.offPath()}, nil
}

func (f tracedFS) Rename(o, n string) error { return f.meta(func() error { return f.FS.Rename(o, n) }) }
func (f tracedFS) Remove(n string) error    { return f.meta(func() error { return f.FS.Remove(n) }) }
func (f tracedFS) SyncDir(d string) error   { return f.meta(func() error { return f.FS.SyncDir(d) }) }

type tracedFile struct {
	vfs.File
	fs    tracedFS
	wal   bool // a WAL segment; otherwise a checkpoint file
	async bool // created off the serving path
}

func (f *tracedFile) background() bool { return f.async || f.fs.seam.inCkpt.Load() }

func (f *tracedFile) Write(p []byte) (int, error) {
	m := f.fs.t.begin()
	n, err := f.File.Write(p)
	if m.start >= 0 {
		if f.wal {
			f.fs.c.writes.Add(1)
			f.fs.c.bytes.Add(int64(n))
			f.fs.t.finish("vfs.write", m, f.background())
		} else {
			f.fs.c.publishBytes.Add(int64(n))
			f.fs.t.finish("durable.publish", m, f.background())
		}
	}
	return n, err
}

func (f *tracedFile) Sync() error {
	m := f.fs.t.begin()
	err := f.File.Sync()
	if m.start >= 0 {
		if f.wal {
			f.fs.c.syncs.Add(1)
			f.fs.t.finish("vfs.sync", m, f.background())
		} else {
			f.fs.t.finish("durable.publish", m, f.background())
		}
	}
	return err
}
