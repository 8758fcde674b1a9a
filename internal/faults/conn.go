package faults

import (
	"net"
	"sync/atomic"
	"time"
)

// Conn interposes an Injector on a net.Conn: latency spikes delay
// Read/Write, a reset closes the underlying connection and errors, and a
// short write persists a prefix of the payload before erroring (the peer
// sees a torn frame). The wrapper is what cmd/abload's -faults flag and
// the client reconnect tests are built on: both sides of a retry story
// can be driven from one seeded schedule.
//
// On top of the seeded schedule, a Conn can be partitioned one
// direction at a time (SetPartition): a dropped send direction
// blackholes writes while reads keep flowing, and vice versa. That is
// the classic asymmetric network failure — a replica that can hear its
// primary but whose acks never arrive, or the reverse — which a clean
// reset can never reproduce because both sides notice a reset.
type Conn struct {
	net.Conn
	in *Injector

	dropSend atomic.Bool // writes vanish (claimed sent, never delivered)
	dropRecv atomic.Bool // reads stall as if the wire went silent
	closed   atomic.Bool
}

// WrapConn interposes in on c.
func WrapConn(c net.Conn, in *Injector) *Conn { return &Conn{Conn: c, in: in} }

// SetPartition configures one-way packet loss: dropSend blackholes this
// side's writes (they report success and vanish — the sender keeps
// believing the link is fine), dropRecv stalls this side's reads (the
// wire goes silent without an error; bytes the peer already sent are
// delivered once the direction heals, like a TCP retransmit burst after
// the partition lifts). Both false heals the link. Safe to call from a
// chaos goroutine while the connection is in use.
func (c *Conn) SetPartition(dropSend, dropRecv bool) {
	c.dropSend.Store(dropSend)
	c.dropRecv.Store(dropRecv)
}

// Closed reports whether Close has been called: the link is dead and a
// partition set on it would exercise nothing.
func (c *Conn) Closed() bool { return c.closed.Load() }

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	for c.dropRecv.Load() {
		if c.closed.Load() {
			break // fall through: the closed conn errors the read
		}
		time.Sleep(time.Millisecond)
	}
	d := c.in.connEvent(0)
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.reset {
		c.Conn.Close()
		return 0, ErrReset
	}
	return c.Conn.Read(p)
}

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) {
	if c.dropSend.Load() {
		// The packet left this host and died on the wire: the write
		// succeeds, nothing arrives, and only the peer's silence (or this
		// side's missing acks) reveals the partition.
		return len(p), nil
	}
	d := c.in.connEvent(len(p))
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.reset {
		c.Conn.Close()
		return 0, ErrReset
	}
	if d.short >= 0 && d.short < len(p) {
		n, _ := c.Conn.Write(p[:d.short])
		c.Conn.Close()
		return n, ErrReset
	}
	return c.Conn.Write(p)
}

// Close implements net.Conn, unblocking a read stalled by a receive
// partition.
func (c *Conn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}
