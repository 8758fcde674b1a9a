// Command aboramd serves AB-ORAM over TCP: the deployment shape the
// serving layer targets, with many clients multiplexed onto oblivious
// storage through internal/server's batching scheduler.
//
// Usage:
//
//	aboramd                                  # AB scheme, 12 levels, 127.0.0.1:7314
//	aboramd -addr :7314 -levels 14 -batch 32 # bigger tree, wider coalescing
//	aboramd -maxconns 64 -idle 30s           # front-end limits
//	aboramd -shards 4                        # 4 trees, block b on shard b mod 4
//	aboramd -data-dir d -reshard 3           # live-migrate to 3 shards at boot
//	aboramd -data-dir d -ack replica         # semi-sync: ack after standby fsync
//	aboramd -data-dir r -replica-of host:7314 # warm standby mirroring host:7314
//
// With -shards P the daemon partitions the block address space across P
// independent ORAM trees (stable modulo routing), each behind its own
// scheduler goroutine — throughput scales with cores because different
// shards serve in parallel while each tree keeps the totally ordered
// access sequence its obliviousness argument needs. The trade-off: the
// shard index of every access is the low log2(P) bits of its block id,
// visible to an observer of per-shard traffic (see README, "Sharded
// serving"). -shards 1 (the default) is observationally identical to the
// unsharded daemon.
//
// With -data-dir the store is crash-safe: every acknowledged write is
// appended to a write-ahead log (fsynced per -sync-every) and the full
// instance is snapshotted every -snapshot-every writes; on start the
// daemon recovers the newest snapshot plus the WAL suffix, discarding at
// most a torn final record. Under -shards P with P > 1 each shard keeps
// its own snapshot+WAL under <data-dir>/shard-<i>, all recovered on
// start; shard checkpoint schedules are phase-staggered so the fleet
// never pauses in lockstep. Without -data-dir state lives in memory and
// dies with the process (the pre-durability behavior).
//
// -delta-snapshots makes checkpoints incremental: most rotations
// capture only the state touched since the previous cut (a pause
// proportional to the dirty set, not the tree) and publish in the
// background while serving continues, with a full base image every
// -base-every rotations bounding the recovery chain. -compact-every N
// additionally rewrites the live WAL after N appends, shrinking
// superseded whole-block writes to id-only stubs. Both compose with
// -group-commit and -shards; recovery reads either layout regardless of
// the current flags.
//
// Live resharding (-reshard P′, or the OpReshard admin op at runtime)
// migrates a serving deployment to a different shard count without
// downtime: a fresh fleet of P′ trees is opened under
// <data-dir>/gen-<g>/shard-<i>, a background copier streams blocks over
// while dual routing serves every block from whichever layout owns it,
// and progress is journaled crash-safely in <data-dir>/reshard.log — a
// daemon killed mid-migration resumes (or finishes rolling back) on the
// next start. The journal, not the -shards flag, is authoritative for
// the serving layout once a migration has ever run. See README, "Live
// resharding".
//
// Warm-standby replication: a durable primary serves the replication
// sub-protocol on its ordinary port — a second daemon started with
// -replica-of <addrs> dials it, mirrors every shard's snapshot+WAL
// byte-for-byte into its own -data-dir, and acknowledges durable
// watermarks. With -ack=replica the primary acknowledges a client
// write only after the standby has fsynced it (semi-sync; a slow or
// partitioned link degrades to local-only acks after a bounded wait
// rather than wedging service). The standby refuses data ops (clients
// rotate to the primary via its not-primary status) until the
// OpPromote admin op stops the mirror, opens the mirrored fleet,
// bumps the fencing term, and swaps it in as the serving backend —
// after which the deposed primary's stale stream is rejected
// (split-brain safe) and the promoted node itself ships to the next
// standby. Replication covers the boot-time layout: detach standbys
// before starting a live reshard. See README, "Replication &
// failover".
//
// The daemon drains gracefully on SIGINT/SIGTERM: it stops accepting,
// lets in-flight connections finish (up to -drain), serves everything
// already queued, then prints the scheduler counters and exits. SIGUSR1
// dumps the live scheduler, front-end, durability, and migration
// counters without disturbing service.
//
// The demo key baked into -key is for benchmarking only; a deployment
// would inject a real key (and real entropy via -seed).
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/aboram"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/server/wire"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM, syscall.SIGUSR1)
	if err := run(os.Args[1:], os.Stdout, stop, nil); err != nil {
		fmt.Fprintln(os.Stderr, "aboramd:", err)
		os.Exit(1)
	}
}

// devKey is the well-known demo encryption key (16 bytes of hex).
const devKey = "30313233343536373839616263646566"

// daemon is what the flags resolve to, shared by both serving modes: the
// fleet description (internal/server's Fleet owns opening, resharding,
// promoting, and closing it), the scheduler and front-end settings, and
// the process plumbing.
type daemon struct {
	out     io.Writer
	stop    <-chan os.Signal
	onReady func(net.Addr)
	addr    string
	drain   time.Duration

	fleet   server.FleetConfig
	sched   server.Config
	tcp     server.TCPConfig     // limits only; each mode adds its handlers
	reshard server.ReshardConfig // RangeSize and Pace of every migration
}

func (d *daemon) logf(format string, args ...any) {
	fmt.Fprintf(d.out, "aboramd: "+format+"\n", args...)
}

// run starts the daemon and blocks until the stop channel fires (or the
// listener fails). onReady, when non-nil, receives the bound address —
// tests use it to learn the port behind ":0".
func run(args []string, out io.Writer, stop <-chan os.Signal, onReady func(net.Addr)) error {
	fs := flag.NewFlagSet("aboramd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7314", "TCP listen address")
	scheme := fs.String("scheme", "AB", "scheme: Baseline | IR | DR | NS | AB")
	levels := fs.Int("levels", 12, "ORAM tree levels")
	seed := fs.Uint64("seed", 1, "random seed")
	keyHex := fs.String("key", devKey, "16-byte AES key, hex (demo default; empty = pattern-only, no Read/Write)")
	xor := fs.Bool("xor", false, "enable the XOR online fast path: OpXRead answers carry one combined block instead of the full path (requires -key)")
	shards := fs.Int("shards", 1, "independent ORAM trees; block b is served by shard b mod P (leaks the low log2(P) address bits to a per-shard observer)")
	queue := fs.Int("queue", 256, "request queue capacity (admission control), per shard")
	batch := fs.Int("batch", 16, "max requests coalesced per scheduler wakeup (1 = off)")
	maxconns := fs.Int("maxconns", 128, "max concurrent connections (0 = unlimited)")
	idle := fs.Duration("idle", 2*time.Minute, "per-connection idle read deadline (0 = none)")
	writeTO := fs.Duration("write-timeout", 10*time.Second, "per-response write deadline (0 = none)")
	reqTO := fs.Duration("req-timeout", 10*time.Second, "per-request queue+service budget (0 = none)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight connections")
	dataDir := fs.String("data-dir", "", "durable data directory (snapshot + WAL); empty = in-memory only")
	snapEvery := fs.Int("snapshot-every", 1024, "with -data-dir: writes between snapshot rotations")
	snapInterval := fs.Duration("snapshot-interval", 0, "with -data-dir: also rotate after this much wall time (0 = off)")
	syncEvery := fs.Int("sync-every", 1, "with -data-dir: fsync the WAL every N writes (1 = zero acknowledged loss)")
	groupCommit := fs.Bool("group-commit", false, "with -data-dir: one WAL fsync per scheduler batch instead of per write (acks stay durable)")
	deltaSnaps := fs.Bool("delta-snapshots", false, "with -data-dir: incremental checkpoints — rotations capture only state touched since the last cut and publish in the background, with a full base every -base-every rotations")
	baseEvery := fs.Int("base-every", 8, "with -delta-snapshots: delta rotations between full base images")
	compactEvery := fs.Int("compact-every", 0, "with -data-dir: rewrite the live WAL segment after N appends, shrinking superseded writes to id stubs (0 = off)")
	reshardTo := fs.Int("reshard", 0, "begin a live migration to this many shards at startup (0 = none); also available at runtime via the OpReshard admin op")
	reshardRange := fs.Int64("reshard-range", 64, "blocks fenced and copied per migration step (smaller = shorter write stalls)")
	reshardPace := fs.Duration("reshard-pace", 0, "sleep between migration steps, bounding the copy's share of scheduler time (0 = as fast as shedding allows)")
	ackMode := fs.String("ack", "local", "write acknowledgment policy with -data-dir: local (primary fsync) or replica (semi-sync: ack after the standby fsyncs the shipped record; degrades to local after a bounded wait when the link is down)")
	replicaOf := fs.String("replica-of", "", "run as a warm standby of the primary at this comma-separated address list: mirror its log into -data-dir and refuse data ops until OpPromote")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var key []byte
	if *keyHex != "" {
		k, err := hex.DecodeString(*keyHex)
		if err != nil {
			return fmt.Errorf("bad -key: %w", err)
		}
		key = k
	}
	if *xor && key == nil {
		return fmt.Errorf("-xor requires -key (the XOR fast path serves encrypted content)")
	}
	if *shards < 1 || *shards > 1<<16-1 {
		return fmt.Errorf("-shards %d out of range [1, %d]", *shards, 1<<16-1)
	}
	if *reshardTo < 0 || *reshardTo > 1<<16-1 {
		return fmt.Errorf("-reshard %d out of range [1, %d]", *reshardTo, 1<<16-1)
	}
	if *ackMode != "local" && *ackMode != "replica" {
		return fmt.Errorf("-ack %q: want local or replica", *ackMode)
	}
	if *ackMode == "replica" && *dataDir == "" {
		return fmt.Errorf("-ack=replica requires -data-dir (semi-sync gates acks on the standby fsyncing the shipped log)")
	}
	if *replicaOf != "" {
		if *dataDir == "" {
			return fmt.Errorf("-replica-of requires -data-dir (the standby mirrors the primary's log into it)")
		}
		if *reshardTo != 0 {
			return fmt.Errorf("-replica-of is incompatible with -reshard (a standby mirrors one fixed layout)")
		}
	}

	d := &daemon{
		out: out, stop: stop, onReady: onReady, addr: *addr, drain: *drain,
		sched: server.Config{Queue: *queue, Batch: *batch},
		tcp: server.TCPConfig{
			MaxConns:       *maxconns,
			IdleTimeout:    *idle,
			WriteTimeout:   *writeTO,
			RequestTimeout: *reqTO,
		},
		reshard: server.ReshardConfig{RangeSize: *reshardRange, Pace: *reshardPace},
	}
	d.fleet = server.FleetConfig{
		Engine: durable.Options{
			Dir: *dataDir,
			ORAM: aboram.Options{
				Scheme:        core.Scheme(*scheme),
				Levels:        *levels,
				Seed:          *seed,
				EncryptionKey: key,
				XORRead:       *xor,
			},
			SnapshotEvery:    *snapEvery,
			SnapshotInterval: *snapInterval,
			DeltaSnapshots:   *deltaSnaps,
			BaseEvery:        *baseEvery,
			CompactEvery:     *compactEvery,
			// Checkpoint work rides batch boundaries (the scheduler calls
			// MaybeCheckpoint), so a delta's consistent cut never lands
			// between a write and its acknowledgment.
			DeferCheckpoints: true,
			SyncEvery:        *syncEvery,
			GroupCommit:      *groupCommit,
			Logf:             d.logf,
		},
		SemiSync: *ackMode == "replica",
	}

	if *replicaOf != "" {
		return d.runStandby(strings.Split(*replicaOf, ","), *shards)
	}
	return d.runPrimary(*shards, *reshardTo, func(srv *server.Sharded, at net.Addr) {
		fmt.Fprintf(out, "aboramd: serving %s (levels=%d, %d blocks of %d B, encrypted=%v, xor=%v, shards=%d, gen=%d) on %s\n",
			*scheme, *levels, srv.NumBlocks(), srv.BlockSize(), srv.Encrypted(), *xor, srv.Shards(), srv.Generation(), at)
		fmt.Fprintf(out, "aboramd: queue=%d batch=%d maxconns=%d shards=%d\n", *queue, *batch, *maxconns, srv.Shards())
		if *dataDir != "" {
			fmt.Fprintf(out, "aboramd: replication: shipping enabled, ack policy %s\n", *ackMode)
		}
	})
}

// runPrimary opens the fleet the journal (or, before any reshard, the
// -shards flag) names, resumes a migration the last incarnation left in
// flight, and serves.
func (d *daemon) runPrimary(shards, reshardTo int, banner func(*server.Sharded, net.Addr)) error {
	fleet, err := server.OpenFleet(d.fleet, shards)
	if err != nil {
		return err
	}
	lay := fleet.Layout()
	if lay.Shards != shards {
		d.logf("reshard journal overrides -shards %d: serving generation %d with %d shards", shards, lay.Gen, lay.Shards)
	}
	srv, err := server.NewSharded(fleet.Engines(), d.sched)
	if err != nil {
		fleet.Close()
		return err
	}
	srv.SetGeneration(lay.Gen)
	teardown := func() {
		srv.Close() // serve everything already admitted on every shard, then stop
		if err := fleet.Close(); err != nil {
			d.logf("%v", err)
		}
	}
	// begin opens a migration's target generation (resuming the journaled
	// one, if any) and installs it; start also launches the copier.
	begin := func(to int) (*server.Resharder, error) {
		target, err := fleet.OpenTarget(to)
		if err != nil {
			return nil, err
		}
		return fleet.BeginReshard(srv, target, d.reshard)
	}
	start := func(to int) error {
		r, err := begin(to)
		if err == nil {
			go r.Run()
		}
		return err
	}

	tcfg := d.tcp
	tcfg.Reshard = func(cmd wire.ReshardCmd, to int) (wire.ReshardInfo, error) {
		if err := reshardCommand(srv, start, cmd, to); err != nil {
			return wire.ReshardInfo{}, err
		}
		return srv.ReshardInfo(), nil
	}
	// The replication sub-protocol is served on the ordinary port
	// (OpReplJoin) whether or not a standby ever attaches.
	if hub := fleet.Hub(srv); hub != nil {
		tcfg.ReplJoin = hub.Serve
		tcfg.Replication = hub.Info
		// OpPromote against a node already serving as primary is an
		// idempotent no-op: an operator script retrying a failover
		// converges instead of erroring.
		tcfg.Promote = func() (wire.PromoteInfo, error) {
			return wire.PromoteInfo{Term: hub.Term(), Shards: srv.Shards()}, nil
		}
	}
	tsrv := server.NewTCP(srv, tcfg)

	// A daemon killed mid-migration resumes it before serving: the target
	// fleet recovers from its own snapshots+WALs, dual routing picks up at
	// the journaled watermark, and the copier continues (or keeps rolling
	// back). The dedup window is seeded from both fleets while they are
	// still quiescent: before traffic, and before the copier runs.
	var resumed *server.Resharder
	if lay.Active != nil {
		if resumed, err = begin(lay.Active.To); err != nil {
			teardown()
			return fmt.Errorf("resuming reshard to gen %d: %w", lay.Active.Gen, err)
		}
	}
	tsrv.SeedDedup(fleet.RecentWriteIDs())
	if resumed != nil {
		go resumed.Run()
	}

	ln, err := net.Listen("tcp", d.addr)
	if err != nil {
		teardown()
		return err
	}
	if d.onReady != nil {
		d.onReady(ln.Addr())
	}
	banner(srv, ln.Addr())
	if reshardTo > 0 {
		if err := start(reshardTo); err != nil {
			d.logf("-reshard %d: %v", reshardTo, err)
		}
	}
	return d.serve(tsrv, ln, teardown, func() error { return dumpCounters(d.out, srv, tsrv, fleet) })
}

// reshardCommand executes one OpReshard admin command against the
// serving layer; start begins a new migration.
func reshardCommand(srv *server.Sharded, start func(to int) error, cmd wire.ReshardCmd, to int) error {
	switch cmd {
	case wire.ReshardCmdStatus:
		return nil
	case wire.ReshardCmdStart:
		return start(to)
	case wire.ReshardCmdPause, wire.ReshardCmdResume, wire.ReshardCmdAbort:
		r := srv.CurrentReshard()
		if r == nil {
			return fmt.Errorf("reshard: no migration to %s", cmd)
		}
		switch cmd {
		case wire.ReshardCmdPause:
			return r.Pause()
		case wire.ReshardCmdResume:
			return r.Resume()
		}
		return r.Abort()
	}
	return fmt.Errorf("reshard: unknown command %d", uint8(cmd))
}

// runStandby is the -replica-of mode: mirror the primary's log into the
// data directory, refuse data ops (clients rotate to the primary), and
// stand ready for OpPromote — which stops the mirror, opens the mirrored
// fleet under a bumped fencing term, and swaps it in as the serving
// backend.
func (d *daemon) runStandby(primaries []string, shards int) error {
	// Geometry must match the primary's: both daemons are launched from
	// the same configuration. A probe tree derives it without state.
	probe, err := aboram.New(d.fleet.Engine.ORAM)
	if err != nil {
		return err
	}
	sess := server.NewReplicaSession(server.ReplicaSessionConfig{
		Addrs:   primaries,
		DataDir: d.fleet.Engine.Dir,
		Shards:  shards,
		Logf:    d.logf,
	})
	go sess.Run()

	// Promotion state: empty until OpPromote succeeds, after which this
	// node is a full primary — serving fleet plus a hub shipping to the
	// next standby.
	var (
		mu    sync.Mutex
		fleet *server.Fleet
		srv   *server.Sharded
		hub   *server.ReplicaHub
	)
	promoted := func() (*server.Fleet, *server.Sharded, *server.ReplicaHub) {
		mu.Lock()
		defer mu.Unlock()
		return fleet, srv, hub
	}
	stub := server.NewReplicaStub(probe.NumBlocks()*int64(shards), probe.BlockSize(), probe.Encrypted(), shards,
		func() uint64 {
			if f, _, _ := promoted(); f != nil {
				return f.Term()
			}
			return sess.Info().Term
		})

	var tsrv *server.TCPServer
	tcfg := d.tcp
	tcfg.Promote = func() (wire.PromoteInfo, error) {
		mu.Lock()
		defer mu.Unlock()
		if fleet != nil {
			// Idempotent: a retried promote reports the serving state.
			return wire.PromoteInfo{Term: fleet.Term(), Shards: shards}, nil
		}
		// The mirrors must be quiescent before recovery opens their
		// directories.
		sess.Stop()
		f, err := server.OpenFleet(d.fleet, shards)
		if err != nil {
			return wire.PromoteInfo{}, fmt.Errorf("promote: %w", err)
		}
		term, err := f.Promote()
		if err == nil {
			tsrv.SeedDedup(f.RecentWriteIDs())
			srv, err = server.NewSharded(f.Engines(), d.sched)
		}
		if err != nil {
			f.Close()
			return wire.PromoteInfo{}, fmt.Errorf("promote: %w", err)
		}
		fleet, hub = f, f.Hub(srv)
		tsrv.SwapBackend(srv)
		d.logf("promoted to primary at term %d (%d shards)", term, shards)
		return wire.PromoteInfo{Term: term, Shards: shards}, nil
	}
	tcfg.Replication = func() *wire.ReplicationInfo {
		if _, _, h := promoted(); h != nil {
			return h.Info()
		}
		return sess.Info()
	}
	tcfg.ReplJoin = func(conn net.Conn) error {
		_, _, h := promoted()
		if h == nil {
			return fmt.Errorf("standby: not shipping a log (promote first)")
		}
		return h.Serve(conn)
	}
	tsrv = server.NewTCP(stub, tcfg)

	ln, err := net.Listen("tcp", d.addr)
	if err != nil {
		sess.Stop()
		return err
	}
	if d.onReady != nil {
		d.onReady(ln.Addr())
	}
	fmt.Fprintf(d.out, "aboramd: standby mirroring %s (%d shards) on %s; data ops refused until promotion\n",
		strings.Join(primaries, ","), shards, ln.Addr())

	teardown := func() {
		sess.Stop()
		if f, s, _ := promoted(); f != nil {
			s.Close()
			if err := f.Close(); err != nil {
				d.logf("%v", err)
			}
		}
	}
	return d.serve(tsrv, ln, teardown, func() error {
		if f, s, _ := promoted(); f != nil {
			return dumpCounters(d.out, s, tsrv, f)
		}
		si := sess.Info()
		d.logf("standby: attached=%v term=%d applied=%d records", si.Attached, si.Term, si.AckedSeq)
		return nil
	})
}

// serve runs the front end on ln until a terminating signal arrives or
// the listener fails; SIGUSR1 dumps the live counters and keeps serving.
// On a signal it drains — stops accepting, lets in-flight connections
// finish within the budget — then tears the backend down (schedulers
// before engines) and prints the final counters.
func (d *daemon) serve(tsrv *server.TCPServer, ln net.Listener, teardown func(), dump func() error) error {
	served := make(chan error, 1)
	go func() { served <- tsrv.Serve(ln) }()
	for {
		select {
		case err := <-served:
			teardown()
			return err
		case sig := <-d.stop:
			if sig == syscall.SIGUSR1 {
				dump()
				continue
			}
			d.logf("%v, draining (budget %v)", sig, d.drain)
			ctx, cancel := context.WithTimeout(context.Background(), d.drain)
			defer cancel()
			if err := tsrv.Shutdown(ctx); err != nil {
				d.logf("forced close of lingering connections: %v", err)
			}
			<-served // Serve has returned ErrServerClosed
			teardown()
			if err := dump(); err != nil {
				return err
			}
			d.logf("bye")
			return nil
		}
	}
}

// dumpCounters prints the durability, migration, scheduler, front-end,
// and replication counters. SIGUSR1 triggers it on a live daemon; the
// shutdown path reuses it for the final report. With more than one shard,
// durability lines and scheduler tables are printed per shard plus one
// aggregate table; a migration target's lines carry its generation.
func dumpCounters(out io.Writer, srv *server.Sharded, tsrv *server.TCPServer, fleet *server.Fleet) error {
	multi := srv.Shards() > 1
	stats := fleet.Stats()
	for _, s := range stats {
		label := "durability"
		switch {
		case s.Target:
			label = fmt.Sprintf("migration target gen %d shard %d durability", s.Gen, s.Shard)
		case multi || len(stats) > 1:
			label = fmt.Sprintf("shard %d durability", s.Shard)
		}
		ds := s.Durable
		fmt.Fprintf(out, "aboramd: %s: %d writes logged, %d fsyncs (%d batched), %d snapshots + %d deltas (epoch %d), %d compactions, %.1fms checkpoint pause, last checkpoint %d B, %d prune failures\n",
			label, ds.Writes, ds.Syncs, ds.BatchedSyncs, ds.Snapshots, ds.DeltasWritten, s.Epoch,
			ds.CompactionRuns, float64(ds.SnapshotPauseNanos)/1e6, ds.LastSnapshotBytes, ds.PruneFailures)
	}
	if info := srv.ReshardInfo(); info.Phase != wire.ReshardPhaseIdle {
		fmt.Fprintf(out, "aboramd: reshard: phase=%s %d->%d shards, watermark %d/%d, serving %d shards (gen %d)\n",
			info.Phase, info.From, info.To, info.Watermark, info.Total, info.Shards, info.Gen)
	}
	title := "aboramd scheduler counters"
	if multi {
		title = fmt.Sprintf("aboramd scheduler counters (aggregate over %d shards)", srv.Shards())
	}
	if err := srv.Metrics().Table(title).WriteText(out); err != nil {
		return err
	}
	if multi {
		for i, m := range srv.ShardMetrics() {
			if err := m.Table(fmt.Sprintf("aboramd scheduler counters, shard %d", i)).WriteText(out); err != nil {
				return err
			}
		}
	}
	for i, m := range srv.NextShardMetrics() {
		if err := m.Table(fmt.Sprintf("aboramd scheduler counters, migration target shard %d", i)).WriteText(out); err != nil {
			return err
		}
	}
	tm := tsrv.Metrics()
	fmt.Fprintf(out, "aboramd: %d connections served, %d refused, %d active; %d retries deduped, %d requests shed\n",
		tm.Accepted, tm.Refused, tm.Active, tm.Deduped, tm.Shed)
	for i, st := range fleet.ShipStats() {
		fmt.Fprintf(out, "aboramd: shard %d replication: attached=%v shipped=%d acked=%d lag=%d records/%d B degraded=%v, %d boots, %d send errors, %d ack waits (%d timed out)\n",
			i, st.Attached, st.Seq, st.AckedSeq, st.LagRecords, st.LagBytes, st.Degraded,
			st.Boots, st.SendErrors, st.AckWaits, st.AckTimeouts)
	}
	return nil
}
