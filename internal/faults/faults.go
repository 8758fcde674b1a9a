// Package faults is a deterministic, seed-driven fault injector for the
// robustness test surface: the write-ahead log, the snapshot writer, the
// TCP front end, and the client retry path are all exercised against the
// same kind of schedule.
//
// An Injector makes every fault decision from one seeded rng stream, so a
// given (seed, config) pair replays the identical fault schedule as long
// as the sequence of instrumented operations is itself deterministic —
// which it is for the durability engine (all file traffic goes through
// the single protocol goroutine) and for a single client connection. A
// failing chaos run is therefore reproducible from its seed alone; see
// EXPERIMENTS.md §"Crash-recovery harness".
//
// Three wrappers share the Injector:
//
//   - WrapFS / WrapFile interpose on a vfs.FS (torn writes, failed
//     syncs/renames, and a hard "process death" crash point after the
//     Nth mutating filesystem op),
//   - WrapConn interposes on a net.Conn (latency spikes, short writes,
//     connection resets),
//   - Writer interposes on a bare io.Writer.
package faults

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/rng"
)

// Errors the injector returns. ErrCrash marks the simulated process
// death: once it fires, every later operation through the same Injector
// fails with it (nothing else reaches the disk), which is exactly the
// visibility a SIGKILL leaves behind.
var (
	ErrCrash    = errors.New("faults: crashed (simulated process death)")
	ErrInjected = errors.New("faults: injected I/O error")
	ErrReset    = errors.New("faults: injected connection reset")
	ErrNoSpace  = errors.New("faults: injected ENOSPC (no space left on device)")
)

// Config tunes an Injector. All probabilities are per instrumented
// operation and drawn from the seeded stream.
type Config struct {
	// Seed drives every decision; same seed, same schedule.
	Seed uint64

	// ErrRate is the probability a filesystem mutation fails with
	// ErrInjected (a transient error, not a crash).
	ErrRate float64
	// TornWrites makes failing/crashing writes first persist a random
	// proper prefix of the payload, modelling a torn sector.
	TornWrites bool
	// CrashAfter kills the process at the Nth mutating filesystem
	// operation (1-based count of Create/Write/Sync/Rename/Remove).
	// 0 disables the crash point.
	CrashAfter int
	// RemoveErrRate is an extra per-Remove probability of failing with
	// ErrInjected even when the general ErrRate roll passes — targeted at
	// exercising stale-file pruning failure handling, which must stay
	// best-effort (counted, not fatal).
	RemoveErrRate float64
	// DropUnsynced models a volatile page cache: file writes are buffered
	// and reach the inner filesystem only on a successful Sync or a clean
	// Close. At a crashed Close a seeded prefix of the buffered chunks is
	// flushed and the rest dropped — the host-failure reading of an
	// unsynced write, and the loss surface group commit must bound.
	DropUnsynced bool
	// DiskBudget, when > 0, bounds the total payload bytes the filesystem
	// accepts. The write that crosses the budget persists only the prefix
	// that still fits (a short write) and fails with ErrNoSpace, and from
	// then on every mutating operation except Remove/RemoveAll fails the
	// same way — the no-free-space steady state a durable engine must
	// fail-stop on rather than silently ack into.
	DiskBudget int

	// ResetRate is the probability a connection Read/Write fails with
	// ErrReset and closes the underlying conn.
	ResetRate float64
	// ShortWriteRate is the probability a connection Write persists only
	// a random proper prefix before erroring.
	ShortWriteRate float64
	// LatencyRate and MaxLatency inject a uniform [0, MaxLatency) sleep
	// into connection operations.
	LatencyRate float64
	MaxLatency  time.Duration
}

// Stats counts what an Injector actually did.
type Stats struct {
	Mutations int // instrumented filesystem mutations observed
	ConnOps   int // instrumented connection operations observed
	Errors    int // ErrInjected returned
	Resets    int // ErrReset returned
	Torn      int // writes that persisted a partial prefix
	Delays    int // latency spikes injected
	Dropped   int // buffered unsynced writes lost at a crashed close (DropUnsynced)
	NoSpace   int // operations refused with ErrNoSpace (DiskBudget)
}

// Injector is the shared decision engine. Safe for concurrent use; the
// decision order (and therefore the schedule) is deterministic whenever
// the instrumented call order is.
type Injector struct {
	mu          sync.Mutex
	rng         *rng.Source
	cfg         Config
	crashed     bool
	crashSite   string
	dead        chan struct{} // closed when crashed is set
	full        bool          // DiskBudget exhausted
	spent       int           // payload bytes accepted against DiskBudget
	noSpaceSite string
	stats       Stats
}

// New builds an Injector for the given schedule config.
func New(cfg Config) *Injector {
	return &Injector{rng: rng.New(cfg.Seed ^ 0xfa017a11), cfg: cfg, dead: make(chan struct{})}
}

// Dead is closed the moment the crash point fires, so a harness can wait
// on the kill instead of polling Crashed.
func (in *Injector) Dead() <-chan struct{} { return in.dead }

// Crashed reports whether the crash point has fired.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// CrashSite names the operation the crash landed on (e.g. "write
// wal-00000001.log"), so a harness can assert which phase — snapshot or
// WAL append — the schedule killed.
func (in *Injector) CrashSite() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashSite
}

// NoSpaceSite names the operation whose write crossed the DiskBudget
// (e.g. "write snap-0000000000000004.tmp"), so a harness can assert
// which phase — WAL append, snapshot rotation, delta publish — the disk
// filled under. Empty until the budget is exhausted.
func (in *Injector) NoSpaceSite() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.noSpaceSite
}

// Stats returns a snapshot of the injection counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// mutation decides the fate of one filesystem mutation of n payload
// bytes at the named site. It returns the number of bytes to persist
// before failing (-1 = persist everything) and the error to return.
func (in *Injector) mutation(site string, n int) (tear int, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return 0, ErrCrash
	}
	in.stats.Mutations++
	if in.cfg.CrashAfter > 0 && in.stats.Mutations >= in.cfg.CrashAfter {
		in.crashed = true
		in.crashSite = site
		close(in.dead)
		return in.tearLocked(n), ErrCrash
	}
	if in.cfg.DiskBudget > 0 {
		if in.full {
			// A full disk still deletes: pruning may be the only way out.
			if !strings.HasPrefix(site, "remove") {
				in.stats.NoSpace++
				return 0, ErrNoSpace
			}
		} else if n > in.cfg.DiskBudget-in.spent {
			fit := in.cfg.DiskBudget - in.spent
			in.spent = in.cfg.DiskBudget
			in.full = true
			in.noSpaceSite = site
			in.stats.NoSpace++
			if fit > 0 {
				in.stats.Torn++
			}
			return fit, ErrNoSpace
		} else {
			in.spent += n
		}
	}
	if in.cfg.ErrRate > 0 && in.rng.Float64() < in.cfg.ErrRate {
		in.stats.Errors++
		return in.tearLocked(n), ErrInjected
	}
	return -1, nil
}

// tearLocked picks how much of an n-byte write survives a failure: a
// random proper prefix when torn writes are on, nothing otherwise.
func (in *Injector) tearLocked(n int) int {
	if !in.cfg.TornWrites || n <= 0 {
		return 0
	}
	k := int(in.rng.Uint64n(uint64(n)))
	if k > 0 {
		in.stats.Torn++
	}
	return k
}

// removeFails rolls the targeted Remove failure (RemoveErrRate), after
// the general mutation roll has already passed.
func (in *Injector) removeFails() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed || in.cfg.RemoveErrRate <= 0 {
		return false
	}
	if in.rng.Float64() < in.cfg.RemoveErrRate {
		in.stats.Errors++
		return true
	}
	return false
}

// unsyncedFate decides how many of n buffered-but-unsynced chunks a
// crashed close flushes — the prefix the host's page cache happened to
// write back before death. The remainder is counted as dropped.
func (in *Injector) unsyncedFate(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if n <= 0 {
		return 0
	}
	k := int(in.rng.Uint64n(uint64(n) + 1))
	in.stats.Dropped += n - k
	return k
}

// dropUnsynced reports whether the volatile-page-cache model is on.
func (in *Injector) dropUnsynced() bool { return in.cfg.DropUnsynced }

// connDecision is one connection op's fate.
type connDecision struct {
	delay time.Duration
	short int // bytes to write before failing; -1 = not short
	reset bool
}

// connEvent decides the fate of one connection operation (n = payload
// size for writes, 0 for reads).
func (in *Injector) connEvent(n int) connDecision {
	in.mu.Lock()
	defer in.mu.Unlock()
	d := connDecision{short: -1}
	if in.crashed {
		d.reset = true
		return d
	}
	in.stats.ConnOps++
	if in.cfg.LatencyRate > 0 && in.rng.Float64() < in.cfg.LatencyRate {
		d.delay = time.Duration(in.rng.Uint64n(uint64(in.cfg.MaxLatency) + 1))
		in.stats.Delays++
	}
	if in.cfg.ResetRate > 0 && in.rng.Float64() < in.cfg.ResetRate {
		d.reset = true
		in.stats.Resets++
		return d
	}
	if n > 0 && in.cfg.ShortWriteRate > 0 && in.rng.Float64() < in.cfg.ShortWriteRate {
		d.short = in.tearLocked(n)
		in.stats.Resets++
	}
	return d
}

// Writer wraps an io.Writer with the injector's filesystem-mutation
// schedule: useful for testing encoders against torn output without a
// full filesystem.
type Writer struct {
	W    io.Writer
	In   *Injector
	Site string
}

// Write implements io.Writer under injection.
func (w *Writer) Write(p []byte) (int, error) {
	tear, err := w.In.mutation(fmt.Sprintf("write %s", w.Site), len(p))
	if err != nil {
		n := 0
		if tear > 0 {
			n, _ = w.W.Write(p[:tear])
		}
		return n, err
	}
	return w.W.Write(p)
}
