package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/aboram"
	"repro/internal/durable"
	"repro/internal/server/wire"
)

// replFleetConfig describes the failover tests' fleet under dir: small
// trees, rotations and checkpoint shipping in-test, multi-chunk
// bootstraps even for tiny stores.
func replFleetConfig(t *testing.T, dir string) FleetConfig {
	return FleetConfig{
		Engine: durable.Options{
			Dir:           dir,
			ORAM:          aboram.Options{Levels: 8, Seed: 7, EncryptionKey: testKey},
			SnapshotEvery: 8,
			Logf:          t.Logf,
		},
		SemiSync:       true,
		AckTimeout:     2 * time.Second,
		ChunkBytes:     1 << 10,
		HeartbeatEvery: 25 * time.Millisecond,
	}
}

// startReplicatedFleet opens a semi-sync durable fleet under dir, serves
// it and its replication hub over TCP, and returns what a failover test
// needs.
func startReplicatedFleet(t *testing.T, dir string, shards int) (addr string, srv *Sharded, hub *ReplicaHub, kill func()) {
	t.Helper()
	fleet, err := OpenFleet(replFleetConfig(t, dir), shards)
	if err != nil {
		t.Fatal(err)
	}
	srv, err = NewSharded(fleet.Engines(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	hub = fleet.Hub(srv)
	tsrv := NewTCP(srv, TCPConfig{ReplJoin: hub.Serve, Replication: hub.Info})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go tsrv.Serve(ln)
	kill = func() {
		// The replication link's handler goroutine blocks in hub.Serve's
		// ack loop, so a short deadline plus force-close is the norm here.
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		tsrv.Shutdown(ctx)
		srv.Close()
		fleet.Close() // a no-op the second time
	}
	t.Cleanup(kill)
	return ln.Addr().String(), srv, hub, kill
}

// TestStalledStandbyDetachesNotWedges pins the backpressure liveness
// contract: a standby that stops reading while its socket stays open
// (suspended process, blackholed link) must trip the hub's per-frame
// write deadline and detach — not backpressure the transport until the
// shard's engine thread wedges inside SendFrame with sendMu held,
// freezing every data op. net.Pipe is the perfect stand-in: unbuffered,
// so the very first unread frame blocks the sender.
func TestStalledStandbyDetachesNotWedges(t *testing.T) {
	ship := &durable.Shipper{Shard: 0, ChunkBytes: 1 << 10}
	e, err := durable.Open(durable.Options{
		Dir:  durable.ShardDir(t.TempDir(), 0, 0, 1),
		ORAM: aboram.Options{Levels: 8, Seed: ShardSeed(7, 0), EncryptionKey: testKey},
		Ship: ship,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	hub := &ReplicaHub{
		Shippers:       []*durable.Shipper{ship},
		Term:           e.Term,
		WriteTimeout:   100 * time.Millisecond,
		HeartbeatEvery: time.Hour, // quiet link: the bootstrap is the writer under test
		Logf:           t.Logf,
	}
	primary, standby := net.Pipe()
	defer standby.Close()
	served := make(chan error, 1)
	go func() { served <- hub.Serve(primary) }()
	// Read the hello, then stop reading forever.
	br := bufio.NewReader(standby)
	if f, err := wire.ReadReplFrame(br); err != nil || f.Kind != wire.ReplHello {
		t.Fatalf("first frame = %+v, %v; want hello", f, err)
	}
	// The engine services the staged attach at an op boundary and ships
	// the bootstrap into the stalled link; the deadline must surface a
	// send error and let the op complete. Without it this op blocks until
	// the test times out.
	opDone := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 200 && ship.Stats().SendErrors == 0; i++ {
			if err = e.Access(0); err != nil {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		opDone <- err
	}()
	select {
	case err := <-opDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("engine op wedged behind a standby that stopped reading")
	}
	if st := ship.Stats(); st.SendErrors == 0 || st.Attached {
		t.Fatalf("ship stats = %+v, want the stalled link detached with a send error", st)
	}
	// The timed-out send closes the conn, so the hub's ack reader unwinds
	// and the slot frees for the standby's next (healthy) dial.
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("hub.Serve never unwound after the stalled link detached")
	}
}

// TestReplicationFailoverEndToEnd drives the whole warm-standby story
// over real sockets: a semi-sync primary fleet ships to a standby
// daemon; a client configured with both addresses rotates off the
// standby's not-primary refusals to find the primary; the primary is
// killed, the standby is promoted in place via OpPromote, and the same
// client fails over to it and reads back every acknowledged write.
func TestReplicationFailoverEndToEnd(t *testing.T) {
	const shards = 2
	pdir, rdir := t.TempDir(), t.TempDir()

	paddr, srv, hub, kill := startReplicatedFleet(t, pdir, shards)

	// Standby: replication session plus a stub-backed TCP front end.
	sess := NewReplicaSession(ReplicaSessionConfig{
		Addrs:         []string{paddr},
		DataDir:       rdir,
		Gen:           0,
		Shards:        shards,
		RedialBackoff: 50 * time.Millisecond,
		Logf:          t.Logf,
	})
	go sess.Run()
	defer sess.Stop()

	var promotedTerm atomic.Uint64
	stub := NewReplicaStub(srv.NumBlocks(), srv.BlockSize(), srv.Encrypted(), shards,
		func() uint64 { return sess.Info().Term })
	var tsrvR *TCPServer
	var fleet2 *Fleet
	var srv2 *Sharded
	wantFPs := make(map[int][32]byte)
	promote := func() (wire.PromoteInfo, error) {
		sess.Stop()
		var err error
		if fleet2, err = OpenFleet(replFleetConfig(t, rdir), shards); err != nil {
			return wire.PromoteInfo{}, err
		}
		// The mirrored directories must recover to the exact state the
		// primary acknowledged.
		for i, e := range fleet2.Engines() {
			fp, err := e.(*durable.Engine).Fingerprint()
			if err != nil {
				return wire.PromoteInfo{}, err
			}
			if want, ok := wantFPs[i]; ok && fp != want {
				return wire.PromoteInfo{}, fmt.Errorf("shard %d: promoted fingerprint diverges from primary", i)
			}
		}
		term, err := fleet2.Promote()
		if err != nil {
			return wire.PromoteInfo{}, err
		}
		if srv2, err = NewSharded(fleet2.Engines(), Config{}); err != nil {
			return wire.PromoteInfo{}, err
		}
		tsrvR.SwapBackend(srv2)
		promotedTerm.Store(term)
		return wire.PromoteInfo{Term: term, Shards: shards}, nil
	}
	tsrvR = NewTCP(stub, TCPConfig{
		Promote: promote,
		Replication: func() *wire.ReplicationInfo {
			if tm := promotedTerm.Load(); tm > 0 {
				return &wire.ReplicationInfo{Role: wire.RolePrimary, Attached: false, Term: tm}
			}
			return sess.Info()
		},
	})
	lnR, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go tsrvR.Serve(lnR)
	raddr := lnR.Addr().String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		tsrvR.Shutdown(ctx)
		if srv2 != nil {
			srv2.Close()
		}
		if fleet2 != nil {
			fleet2.Close()
		}
	}()

	// The client lists the standby FIRST: its initial writes must rotate
	// off StatusNotPrimary to reach the primary.
	c, err := DialConfig(raddr+","+paddr, ClientConfig{
		Timeout:     5 * time.Second,
		MaxAttempts: 6,
		BaseBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const writes = 12
	bs := srv.BlockSize()
	data := func(i int) []byte {
		d := make([]byte, bs)
		for j := range d {
			d[j] = byte(i) ^ byte(j*3)
		}
		return d
	}
	for i := 0; i < writes; i++ {
		if err := c.Write(int64(i), data(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if st := c.Stats(); st.NotPrimary < 1 || st.Failovers < 1 {
		t.Fatalf("client never rotated off the standby: %+v", st)
	}

	// Replication drains: the standby attaches, bootstraps every shard,
	// and acknowledges everything shipped.
	deadline := time.Now().Add(10 * time.Second)
	for {
		hi, si := hub.Info(), sess.Info()
		if hi.Attached && si.Attached && hi.ShippedSeq > 0 && hi.AckedSeq == hi.ShippedSeq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication never drained: hub=%+v sess=%+v", hi, si)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Both roles are observable through OpInfo's replication tail.
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Replication == nil || info.Replication.Role != wire.RolePrimary || !info.Replication.Attached {
		t.Fatalf("primary info tail: %+v", info.Replication)
	}
	cr, err := Dial(raddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cr.Close()
	rinfo, err := cr.Info()
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.Replication == nil || rinfo.Replication.Role != wire.RoleReplica || !rinfo.Replication.Attached {
		t.Fatalf("replica info tail: %+v", rinfo.Replication)
	}

	// Kill the primary. Every write above was acknowledged under
	// semi-sync, so the standby's directories already hold all of them;
	// prove it by recovering the dead primary's shards and comparing
	// fingerprints against what promotion recovers from the mirrors.
	kill()
	dead, err := OpenFleet(replFleetConfig(t, pdir), shards)
	if err != nil {
		t.Fatalf("recovering the dead primary: %v", err)
	}
	for i, e := range dead.Engines() {
		if wantFPs[i], err = e.(*durable.Engine).Fingerprint(); err != nil {
			t.Fatal(err)
		}
	}
	dead.Close()

	// Promote the standby through the admin op.
	pi, err := cr.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if pi.Term < 1 || pi.Shards != shards {
		t.Fatalf("promote info: %+v", pi)
	}

	// The original client's pinned connection is dead; reads must fail
	// over to the promoted standby and return every acknowledged write.
	for i := 0; i < writes; i++ {
		got, err := c.Read(int64(i))
		if err != nil {
			t.Fatalf("post-failover read %d: %v", i, err)
		}
		if want := data(i); string(got) != string(want) {
			t.Fatalf("post-failover read %d: acknowledged write lost or corrupt", i)
		}
	}
	info, err = c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Replication == nil || info.Replication.Role != wire.RolePrimary || info.Replication.Term != pi.Term {
		t.Fatalf("promoted info tail: %+v", info.Replication)
	}
}

// TestClientBackoffClockIsPerEndpoint is the failover-latency regression
// test: a dead primary's accumulated backoff schedule must not be
// charged to the first attempt against the next address. The client's
// sleep hook records the schedule; rotating to a live endpoint must not
// add a sleep.
func TestClientBackoffClockIsPerEndpoint(t *testing.T) {
	// Endpoint A: a real server killed mid-test. Endpoint B: stays up.
	oA := newTestORAM(t, 31)
	srvA := New(oA, Config{})
	tsrvA := NewTCP(srvA, TCPConfig{})
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go tsrvA.Serve(lnA)
	killA := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		tsrvA.Shutdown(ctx)
		srvA.Close()
	}
	defer killA()
	addrB, _, _, stopB := startTCP(t, 32, Config{}, TCPConfig{})
	defer stopB()

	c, err := DialConfig(lnA.Addr().String()+","+addrB, ClientConfig{
		Timeout:     2 * time.Second,
		MaxAttempts: 6,
		BaseBackoff: 50 * time.Millisecond,
		MaxBackoff:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var sleeps []time.Duration
	c.sleep = func(d time.Duration) { sleeps = append(sleeps, d) }

	if err := c.Access(0); err != nil {
		t.Fatalf("op via A: %v", err)
	}
	killA()

	// A's conn breaks (one failure), A's redial is refused (second
	// failure, rotation), then B answers on a cold backoff clock.
	if err := c.Access(1); err != nil {
		t.Fatalf("failover op: %v", err)
	}
	if len(sleeps) == 0 {
		t.Fatalf("expected at least one backoff against the dead endpoint")
	}
	for _, d := range sleeps {
		if d > 50*time.Millisecond {
			t.Fatalf("backoff schedule leaked across endpoints: slept %v (> BaseBackoff); all sleeps %v", d, sleeps)
		}
	}
	// The decisive half: the attempt that landed on B slept zero times —
	// with a shared clock it would have slept the *escalated* schedule.
	if len(sleeps) > 2 {
		t.Fatalf("too many backoff sleeps for one endpoint rotation: %v", sleeps)
	}
}

// TestClientAllStandbys proves the terminal classification: when every
// address refuses as a standby, the op fails with both ErrNotPrimary
// (nothing executed) and ErrOverloaded (safe to reissue) rather than an
// indeterminate error.
func TestClientAllStandbys(t *testing.T) {
	stub := NewReplicaStub(64, 64, true, 1, func() uint64 { return 7 })
	tsrv := NewTCP(stub, TCPConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go tsrv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		tsrv.Shutdown(ctx)
	}()

	c, err := DialConfig(ln.Addr().String(), ClientConfig{
		Timeout:     time.Second,
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Write(1, make([]byte, 64))
	if !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("want ErrNotPrimary, got %v", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded (definitively-not-executed), got %v", err)
	}
	if st := c.Stats(); st.NotPrimary != 3 {
		t.Fatalf("want 3 not-primary refusals, got %+v", st)
	}
}
