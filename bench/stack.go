package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"net"
	"time"

	"repro/aboram"
	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/vfs"
)

// devKey is the AES key every stack in the benchmark runs under: aboramd's
// built-in demo key (the daemon is started without -key, and XOR-peeling
// clients need the same bytes).
var devKey = mustHex("30313233343536373839616263646566")

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// shardOptions is one shard's ORAM configuration, exactly what aboramd
// derives from the workload's flags and -seed 1.
func shardOptions(w workload, shard int) aboram.Options {
	return aboram.Options{
		Scheme:        aboram.SchemeAB,
		Levels:        w.levels,
		Seed:          server.ShardSeed(1, shard),
		EncryptionKey: devKey,
		XORRead:       w.xor,
	}
}

// stack is the serving stack re-composed in-process from the public
// constructors aboramd uses — durable.Open -> server.NewSharded ->
// server.NewTCP — with the span-recording wrappers at every seam that is
// an interface. With the tracer off it is the untraced comparison stack.
type stack struct {
	tcp  tcpCounters
	vfs  vfsCounters
	dur  []*durable.Engine // nil entries for in-memory shards
	srv  *server.Sharded
	tsrv *server.TCPServer
	ln   net.Listener
	done chan error
}

func openStack(w workload, dataDir string, t *tracer) (*stack, error) {
	s := &stack{done: make(chan error, 1)}
	engines := make([]server.Engine, w.shards)
	for i := range engines {
		seam := &shardSeam{}
		var inner server.Engine
		if w.durable {
			d, err := durable.Open(durable.Options{
				Dir:              durable.ShardDir(dataDir, 0, i, w.shards),
				ORAM:             shardOptions(w, i),
				SnapshotEvery:    1024,
				SnapshotPhase:    1024 * i / w.shards,
				DeltaSnapshots:   true,
				BaseEvery:        8,
				DeferCheckpoints: true,
				GroupCommit:      true,
				FS:               tracedFS{FS: vfs.OS{}, t: t, c: &s.vfs, seam: seam},
			})
			if err != nil {
				s.closeEngines()
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			s.dur = append(s.dur, d)
			inner = d
		} else {
			o, err := aboram.New(shardOptions(w, i))
			if err != nil {
				return nil, err
			}
			s.dur = append(s.dur, nil)
			inner = o
		}
		engines[i] = newTracedEngine(inner, t, seam)
	}
	srv, err := server.NewSharded(engines, server.Config{Queue: 256, Batch: 16})
	if err != nil {
		s.closeEngines()
		return nil, err
	}
	s.srv = srv
	s.tsrv = server.NewTCP(srv, server.TCPConfig{
		MaxConns:       128,
		IdleTimeout:    2 * time.Minute,
		WriteTimeout:   10 * time.Second,
		RequestTimeout: 10 * time.Second,
	})
	for _, d := range s.dur {
		if d != nil {
			s.tsrv.SeedDedup(d.RecentWriteIDs())
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		s.closeEngines()
		return nil, err
	}
	s.ln = ln
	go func() { s.done <- s.tsrv.Serve(tracedListener{Listener: ln, t: t, c: &s.tcp}) }()
	return s, nil
}

func (s *stack) addr() string { return s.ln.Addr().String() }

func (s *stack) closeEngines() {
	for _, d := range s.dur {
		if d != nil {
			d.Close()
		}
	}
}

// close drains the front end, stops the schedulers and closes the engines.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.tsrv.Shutdown(ctx)
	<-s.done
	s.srv.Close()
	s.closeEngines()
}

// durableStats sums the shard engines' durability counters.
func (s *stack) durableStats() durable.Stats {
	var t durable.Stats
	for _, d := range s.dur {
		if d == nil {
			continue
		}
		st := d.Stats()
		t.Writes += st.Writes
		t.Syncs += st.Syncs
		t.Snapshots += st.Snapshots
		t.DeltasWritten += st.DeltasWritten
		t.SnapshotPauseNanos += st.SnapshotPauseNanos
		t.LastSnapshotBytes += st.LastSnapshotBytes
	}
	return t
}
