package main

import (
	"bytes"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/wire"
)

// startDaemon runs the daemon on an ephemeral port and returns its address
// plus a shutdown func that sends SIGTERM and waits for a clean exit.
func startDaemon(t *testing.T, extraArgs ...string) (addr string, out *syncBuffer, shutdown func()) {
	addr, out, _, shutdown = startDaemonSignals(t, extraArgs...)
	return addr, out, shutdown
}

// startDaemonSignals is startDaemon plus the signal channel, for tests
// that poke the daemon with non-terminating signals (SIGUSR1).
func startDaemonSignals(t *testing.T, extraArgs ...string) (addr string, out *syncBuffer, sig chan<- os.Signal, shutdown func()) {
	t.Helper()
	stop := make(chan os.Signal, 1)
	ready := make(chan net.Addr, 1)
	buf := &syncBuffer{}

	args := append([]string{"-addr", "127.0.0.1:0", "-levels", "8", "-drain", "5s"}, extraArgs...)
	done := make(chan error, 1)
	go func() {
		done <- run(args, buf, stop, func(a net.Addr) { ready <- a })
	}()
	select {
	case a := <-ready:
		addr = a.String()
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	shutdown = func() {
		stop <- syscall.SIGTERM
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon exit: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Error("daemon did not exit after SIGTERM")
		}
	}
	return addr, buf, stop, shutdown
}

// syncBuffer is a bytes.Buffer both the daemon goroutine (Write) and the
// test (String) may touch.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncBuffer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncBuffer) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestDaemonServesAndDrains boots the daemon, does real work over TCP,
// then SIGTERMs it and checks the graceful-drain output.
func TestDaemonServesAndDrains(t *testing.T) {
	addr, out, shutdown := startDaemon(t)

	c, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if !info.Encrypted {
		t.Fatal("default daemon should run with the demo key")
	}
	want := make([]byte, info.BlockSize)
	for i := range want {
		want[i] = 0xA5
	}
	if err := c.Write(3, want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("daemon returned wrong block contents")
	}
	c.Close()

	shutdown()
	s := out.String()
	for _, wantLine := range []string{"aboramd: serving", "draining", "scheduler counters", "bye"} {
		if !strings.Contains(s, wantLine) {
			t.Errorf("daemon output missing %q:\n%s", wantLine, s)
		}
	}
}

// TestDaemonPatternOnly runs with -key "" and checks reads fail while
// accesses work, end to end.
func TestDaemonPatternOnly(t *testing.T) {
	addr, _, shutdown := startDaemon(t, "-key", "")
	defer shutdown()

	c, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Encrypted {
		t.Fatal("-key \"\" should disable encryption")
	}
	if err := c.Access(1); err != nil {
		t.Fatalf("access: %v", err)
	}
	if _, err := c.Read(1); err == nil {
		t.Fatal("read should fail on a pattern-only daemon")
	}
}

// TestDaemonDurableRestart writes through one daemon incarnation with
// -data-dir, SIGTERMs it, boots a second one on the same directory, and
// checks the content survived the restart.
func TestDaemonDurableRestart(t *testing.T) {
	dir := t.TempDir()
	addr, out, shutdown := startDaemon(t, "-data-dir", dir, "-snapshot-every", "4")

	c, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, info.BlockSize)
	for i := range want {
		want[i] = byte(i * 7)
	}
	// Enough writes to cross a snapshot rotation and leave a WAL suffix.
	for blk := int64(0); blk < 6; blk++ {
		if err := c.Write(blk, want); err != nil {
			t.Fatalf("write %d: %v", blk, err)
		}
	}
	c.Close()
	shutdown()
	if s := out.String(); !strings.Contains(s, "durability:") {
		t.Fatalf("first incarnation printed no durability counters:\n%s", s)
	}

	addr2, out2, shutdown2 := startDaemon(t, "-data-dir", dir, "-snapshot-every", "4")
	defer shutdown2()
	if s := out2.String(); !strings.Contains(s, "recovered "+dir) {
		t.Fatalf("second incarnation printed no recovery line:\n%s", s)
	}
	c2, err := server.Dial(addr2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for blk := int64(0); blk < 6; blk++ {
		got, err := c2.Read(blk)
		if err != nil {
			t.Fatalf("read %d after restart: %v", blk, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d lost across restart", blk)
		}
	}
}

// TestDaemonBadFlags checks that invalid configuration fails fast instead
// of starting a broken daemon.
func TestDaemonBadFlags(t *testing.T) {
	for _, tc := range [][]string{
		{"-key", "nothex"},
		{"-key", "abcd"}, // valid hex, wrong length
		{"-scheme", "BOGUS"},
		{"-levels", "1"},
	} {
		var buf bytes.Buffer
		stop := make(chan os.Signal)
		if err := run(tc, &buf, stop, nil); err == nil {
			t.Errorf("run(%v) succeeded, want error", tc)
		}
	}
}

// TestDaemonSIGUSR1DumpsCounters pokes a running durable daemon with
// SIGUSR1 and checks the live counter dump appears — durability,
// scheduler, and front-end lines — while service continues unharmed.
func TestDaemonSIGUSR1DumpsCounters(t *testing.T) {
	dir := t.TempDir()
	addr, out, sig, shutdown := startDaemonSignals(t, "-data-dir", dir, "-group-commit")
	defer shutdown()

	c, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, info.BlockSize)
	for blk := int64(0); blk < 4; blk++ {
		if err := c.Write(blk, data); err != nil {
			t.Fatalf("write %d: %v", blk, err)
		}
	}

	sig <- syscall.SIGUSR1
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := out.String()
		if strings.Contains(s, "durability:") && strings.Contains(s, "scheduler counters") &&
			strings.Contains(s, "connections served") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("SIGUSR1 dump never appeared:\n%s", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if strings.Contains(out.String(), "draining") {
		t.Fatal("SIGUSR1 started a drain; it must only dump counters")
	}
	// Service continues after the dump.
	if err := c.Access(1); err != nil {
		t.Fatalf("access after SIGUSR1: %v", err)
	}
}

// TestDaemonGroupCommitRestart runs a -group-commit daemon, writes
// through it, and checks both the amortized-fsync accounting and that
// every acknowledged write survives a restart.
func TestDaemonGroupCommitRestart(t *testing.T) {
	dir := t.TempDir()
	addr, out, shutdown := startDaemon(t, "-data-dir", dir, "-group-commit")

	c, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, info.BlockSize)
	for i := range want {
		want[i] = byte(i*3 + 1)
	}
	for blk := int64(0); blk < 8; blk++ {
		if err := c.Write(blk, want); err != nil {
			t.Fatalf("write %d: %v", blk, err)
		}
	}
	c.Close()
	shutdown()
	if s := out.String(); !strings.Contains(s, "batched") {
		t.Fatalf("no batched-fsync accounting in shutdown dump:\n%s", s)
	}

	addr2, _, shutdown2 := startDaemon(t, "-data-dir", dir, "-group-commit")
	defer shutdown2()
	c2, err := server.Dial(addr2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for blk := int64(0); blk < 8; blk++ {
		got, err := c2.Read(blk)
		if err != nil {
			t.Fatalf("read %d after restart: %v", blk, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d lost across group-commit restart", blk)
		}
	}
}

// TestDaemonShardedDurableRestart boots a -shards 4 durable daemon,
// writes across the whole global address space, restarts it, and checks
// (a) the client sees the sharded geometry, (b) every shard recovered
// from its own subdirectory, and (c) all content survived — including
// the per-shard + aggregate counter dump on shutdown.
func TestDaemonShardedDurableRestart(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-shards", "4", "-data-dir", dir, "-snapshot-every", "4", "-group-commit"}
	addr, out, shutdown := startDaemon(t, args...)

	c, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Shards != 4 {
		t.Fatalf("info shards %d, want 4", info.Shards)
	}
	// One write per shard residue class, plus more to cross snapshots.
	want := func(blk int64) []byte {
		d := make([]byte, info.BlockSize)
		for i := range d {
			d[i] = byte(blk*11) ^ byte(i*5)
		}
		return d
	}
	for blk := int64(0); blk < 12; blk++ {
		if err := c.Write(blk, want(blk)); err != nil {
			t.Fatalf("write %d: %v", blk, err)
		}
	}
	c.Close()
	shutdown()
	s := out.String()
	for _, wantLine := range []string{
		"shards=4",
		"shard 0 durability", "shard 3 durability",
		"scheduler counters (aggregate over 4 shards)",
		"scheduler counters, shard 2",
	} {
		if !strings.Contains(s, wantLine) {
			t.Errorf("sharded daemon output missing %q:\n%s", wantLine, s)
		}
	}

	addr2, out2, shutdown2 := startDaemon(t, args...)
	defer shutdown2()
	s2 := out2.String()
	for i := 0; i < 4; i++ {
		wantLine := "recovered " + dir + "/shard-" + string(rune('0'+i))
		if !strings.Contains(s2, wantLine) {
			t.Errorf("second incarnation missing %q:\n%s", wantLine, s2)
		}
	}
	c2, err := server.Dial(addr2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for blk := int64(0); blk < 12; blk++ {
		got, err := c2.Read(blk)
		if err != nil {
			t.Fatalf("read %d after restart: %v", blk, err)
		}
		if !bytes.Equal(got, want(blk)) {
			t.Fatalf("block %d lost across sharded restart", blk)
		}
	}
}

// TestDaemonShardsFlagValidation checks out-of-range -shards fails fast.
func TestDaemonShardsFlagValidation(t *testing.T) {
	for _, tc := range [][]string{
		{"-shards", "0"},
		{"-shards", "-2"},
		{"-shards", "65536"},
	} {
		var buf bytes.Buffer
		stop := make(chan os.Signal)
		if err := run(tc, &buf, stop, nil); err == nil {
			t.Errorf("run(%v) succeeded, want error", tc)
		}
	}
}

// TestDaemonReplicationFailover runs the full two-daemon failover story:
// a durable semi-sync primary, a -replica-of standby mirroring it over
// the wire, writes acknowledged only after the standby's fsync, then
// primary shutdown, OpPromote on the standby, and every write read back
// from the promoted fleet. The client dials the standby's address first,
// so not-primary rotation is exercised on the way in.
func TestDaemonReplicationFailover(t *testing.T) {
	pdir, rdir := t.TempDir(), t.TempDir()
	paddr, pout, psig, pshutdown := startDaemonSignals(t,
		"-data-dir", pdir, "-shards", "2", "-ack", "replica", "-group-commit", "-drain", "1s")
	raddr, rout, rsig, rshutdown := startDaemonSignals(t,
		"-data-dir", rdir, "-shards", "2", "-replica-of", paddr, "-drain", "1s")

	// Standby first in the address list: every op starts with a
	// not-primary rotation.
	c, err := server.DialConfig(raddr+","+paddr, server.ClientConfig{Timeout: 5 * time.Second, MaxAttempts: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int64][]byte)
	for b := int64(0); b < 10; b++ {
		d := make([]byte, info.BlockSize)
		for i := range d {
			d[i] = byte(b) ^ byte(i*3)
		}
		if err := c.Write(b, d); err != nil {
			t.Fatalf("write %d: %v", b, err)
		}
		want[b] = d
	}
	if st := c.Stats(); st.NotPrimary == 0 || st.Failovers == 0 {
		t.Errorf("client never rotated off the standby: %+v", st)
	}

	// Wait until the primary reports the standby attached and fully
	// acknowledged (semi-sync has it there already; the poll guards
	// scheduling noise).
	deadline := time.Now().Add(10 * time.Second)
	for {
		pc, err := server.Dial(paddr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := pc.Info()
		pc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if r := pi.Replication; r != nil && r.Attached && r.AckedSeq == r.ShippedSeq && r.ShippedSeq > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication never drained: %+v", pi.Replication)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// SIGUSR1 on the primary must include the replication columns.
	psig <- syscall.SIGUSR1
	usr1Deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(pout.String(), "replication: attached=true") {
		if time.Now().After(usr1Deadline) {
			t.Fatalf("SIGUSR1 dump lacks replication lines:\n%s", pout.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Fail the primary over: stop it, promote the standby, read back.
	pshutdown()
	rc, err := server.Dial(raddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// A standby's dump reports the mirror; then SIGUSR1 keeps landing
	// while the promotion swaps the serving state in — the dump must read
	// it under the same lock promotion writes it.
	rsig <- syscall.SIGUSR1
	waitFor(t, rout, "standby: attached=")
	hammered := make(chan struct{})
	go func() {
		defer close(hammered)
		for i := 0; i < 200 && !strings.Contains(rout.String(), "promoted to primary"); i++ {
			rsig <- syscall.SIGUSR1
			time.Sleep(time.Millisecond)
		}
		rsig <- syscall.SIGUSR1 // at least one dump of the promoted fleet
	}()
	pi, err := rc.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	rc.Close()
	<-hammered
	if pi.Term == 0 || pi.Shards != 2 {
		t.Fatalf("promote info %+v, want term >= 1 and 2 shards", pi)
	}
	for b, d := range want {
		got, err := c.Read(b)
		if err != nil {
			t.Fatalf("read %d after failover: %v", b, err)
		}
		if !bytes.Equal(got, d) {
			t.Fatalf("block %d diverged after failover", b)
		}
	}

	rshutdown()
	s := rout.String()
	for _, wantLine := range []string{"standby mirroring", "standby: attached=", "promoted to primary at term 1", "shard 1 durability", "shard 1 replication"} {
		if !strings.Contains(s, wantLine) {
			t.Errorf("standby output missing %q:\n%s", wantLine, s)
		}
	}
	if !strings.Contains(pout.String(), "ack policy replica") {
		t.Errorf("primary banner missing semi-sync ack policy:\n%s", pout.String())
	}
}

// reshardStatus polls the daemon's migration status.
func reshardStatus(t *testing.T, c *server.Client) wire.ReshardInfo {
	t.Helper()
	info, err := c.Reshard(wire.ReshardCmdStatus, 0)
	if err != nil {
		t.Fatalf("reshard status: %v", err)
	}
	return info
}

// waitFor polls until the daemon's output contains want.
func waitFor(t *testing.T, out *syncBuffer, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(out.String(), want) {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never printed %q:\n%s", want, out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func reshardPayload(size int, blk int64, round int) []byte {
	d := make([]byte, size)
	for i := range d {
		d[i] = byte(blk*13) ^ byte(round*31) ^ byte(i)
	}
	return d
}

// TestDaemonReshardRestart drives the daemon's own live-reshard path:
// boot a 2-shard durable daemon with -reshard 3, keep writing while the
// migration runs to its cutover, restart with the now-stale -shards 2,
// and require the journal to override the flag — 3 shards serving
// generation 1 — with every acknowledged write read back byte-exact.
func TestDaemonReshardRestart(t *testing.T) {
	dir := t.TempDir()
	addr, out, shutdown := startDaemon(t, "-shards", "2", "-data-dir", dir, "-group-commit", "-reshard", "3")
	c, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int64][]byte)
	for round := 0; round < 2 || !strings.Contains(out.String(), "reshard: done"); round++ {
		for blk := int64(0); blk < 48; blk++ {
			want[blk] = reshardPayload(info.BlockSize, blk, round)
			if err := c.Write(blk, want[blk]); err != nil {
				t.Fatalf("round %d write %d: %v", round, blk, err)
			}
		}
		if round > 2000 {
			t.Fatalf("migration never finished:\n%s", out.String())
		}
	}
	c.Close()
	shutdown()
	for _, wantLine := range []string{
		"reshard: migrating 2 -> 3 shards (generation 1)",
		"reshard: done (generation 1, now 3 shards)",
		"recovered " + dir + "/gen-000001/shard-2",
	} {
		if !strings.Contains(out.String(), wantLine) {
			t.Errorf("first incarnation missing %q:\n%s", wantLine, out.String())
		}
	}

	addr2, out2, shutdown2 := startDaemon(t, "-shards", "2", "-data-dir", dir, "-group-commit")
	defer shutdown2()
	// (The banner is printed just after the ready callback fires.)
	waitFor(t, out2, "reshard journal overrides -shards 2: serving generation 1 with 3 shards")
	waitFor(t, out2, "shards=3, gen=1) on ")
	c2, err := server.Dial(addr2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if info2, err := c2.Info(); err != nil || info2.Shards != 3 {
		t.Fatalf("info after restart: %+v, %v; want 3 shards", info2, err)
	}
	for blk, d := range want {
		got, err := c2.Read(blk)
		if err != nil || !bytes.Equal(got, d) {
			t.Fatalf("block %d after the resharded restart: %v", blk, err)
		}
	}
}

// TestDaemonReshardDumpAndResume paces a 2→3 migration, dumps counters
// mid-flight — the target fleet's durability lines must carry their
// generation, not pose as serving shards 2..4 — then SIGTERMs the daemon
// mid-migration and checks the restart resumes from the journal and
// finishes with every acknowledged write intact.
func TestDaemonReshardDumpAndResume(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-shards", "2", "-data-dir", dir, "-reshard-range", "8", "-reshard-pace", "20ms"}
	addr, out, sig, shutdown := startDaemonSignals(t, append(args, "-reshard", "3")...)
	c, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int64][]byte)
	for blk := int64(0); blk < 32; blk++ {
		want[blk] = reshardPayload(info.BlockSize, blk, 1)
		if err := c.Write(blk, want[blk]); err != nil {
			t.Fatalf("write %d: %v", blk, err)
		}
	}
	for st := reshardStatus(t, c); st.Watermark == 0; st = reshardStatus(t, c) {
		time.Sleep(2 * time.Millisecond)
	}
	sig <- syscall.SIGUSR1
	waitFor(t, out, "connections served")
	if st := reshardStatus(t, c); st.Phase != wire.ReshardPhaseRunning {
		t.Fatalf("migration %s before the dump was checked; slow the pace", st.Phase)
	}
	dump := out.String()
	for _, wantLine := range []string{
		"aboramd: shard 0 durability:", "aboramd: shard 1 durability:",
		"aboramd: migration target gen 1 shard 0 durability:", "aboramd: migration target gen 1 shard 2 durability:",
		"reshard: phase=running 2->3 shards",
	} {
		if !strings.Contains(dump, wantLine) {
			t.Errorf("mid-migration dump missing %q:\n%s", wantLine, dump)
		}
	}
	for _, bad := range []string{"shard 2 durability", "shard 3 durability", "shard 4 durability"} {
		if strings.Contains(strings.ReplaceAll(dump, "gen 1 "+bad, ""), bad) {
			t.Errorf("mid-migration dump labels a target tree as serving %q:\n%s", bad, dump)
		}
	}
	c.Close()
	shutdown() // mid-migration: the copier is joined before any engine closes
	if s := out.String(); strings.Contains(s, "closing gen") || strings.Contains(s, "reshard: done") {
		t.Fatalf("unclean mid-migration shutdown:\n%s", s)
	}

	addr2, out2, shutdown2 := startDaemon(t, args...)
	defer shutdown2()
	waitFor(t, out2, "reshard: resuming migration 2 -> 3 shards (generation 1) at watermark")
	waitFor(t, out2, "reshard: done (generation 1, now 3 shards)")
	c2, err := server.Dial(addr2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for blk, d := range want {
		got, err := c2.Read(blk)
		if err != nil || !bytes.Equal(got, d) {
			t.Fatalf("block %d after the resumed migration: %v", blk, err)
		}
	}
}
