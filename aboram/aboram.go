// Package aboram is the public face of the AB-ORAM library: an oblivious
// block store with adjustable buckets (HPCA'23). It wires together the
// protocol engine, the AB-ORAM dead-block reclaim machinery, and —
// optionally — the encrypted and authenticated memory backend, behind a
// small block-device-style API:
//
//	o, err := aboram.New(aboram.Options{
//		Scheme:        aboram.SchemeAB,
//		Levels:        16,
//		EncryptionKey: key, // 16 bytes; nil for pattern-only simulation
//	})
//	err = o.Write(42, data)     // oblivious store
//	data, err = o.Read(42)      // oblivious load
//
// Every Read and Write produces an identical-shape memory access pattern
// (one Ring ORAM ReadPath plus background maintenance). That holds for the
// protocol's address trace — the memop stream the DRAM model prices and
// check.CheckOblivious audits — which does not reveal which block was
// touched, whether it was a load or a store, or whether it hit. It does
// not yet hold for the functional data plane: the encrypted backend is
// asked to load only slots that hold a real block (dummy and metadata
// reads never reach it), so anyone who can watch the backend's own calls
// sees which slot of each path was real.
//
// With an encryption key set, the backing store's contents are AES-CTR
// encrypted, and the real blocks stored off-chip are Merkle-authenticated:
// tampering with them surfaces as an error. The treetop's slots are
// on-chip (Table III), so they are encrypted but not hashed, and dummy
// slots are encrypted only — no read asks for their content, and one
// that did would fail. Checkpoint images (Save, SaveDelta) and a
// daemon's write-ahead log are not sealed: they carry the position map,
// the stash payloads and the logged write payloads in plaintext.
package aboram

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ringoram"
	"repro/internal/secmem"
)

// Scheme selects the bucket-allocation strategy.
type Scheme = core.Scheme

// The five schemes evaluated in the paper (§VII). SchemeAB is the paper's
// contribution and the recommended default: ~36% less memory than the
// compacted baseline at a few percent performance cost.
const (
	SchemeBaseline = core.SchemeBaseline
	SchemeIR       = core.SchemeIR
	SchemeDR       = core.SchemeDR
	SchemeNS       = core.SchemeNS
	SchemeAB       = core.SchemeAB
)

// Options configures an ORAM instance.
type Options struct {
	// Scheme defaults to SchemeAB.
	Scheme Scheme
	// Levels sets the tree height; capacity grows as 2^Levels. Default 16
	// (~160k blocks of 64 B ≈ 10 MiB protected data). Minimum 8.
	Levels int
	// Seed makes the instance's randomized choices reproducible. The
	// default (0) is a fixed seed; security-sensitive deployments would
	// inject hardware entropy here.
	Seed uint64
	// EncryptionKey, when 16 bytes long, enables the encrypted and
	// authenticated data plane. nil keeps the instance pattern-only:
	// Access works but Read/Write are unavailable.
	EncryptionKey []byte
	// XORRead enables Ring ORAM's XOR online fast path: each online
	// ReadPath's block reads collapse into a single combined transfer that
	// remote clients peel with locally regenerated CTR pads (see ReadXOR).
	XORRead bool
}

// Stats summarizes an instance's activity.
type Stats struct {
	Accesses        uint64 // online accesses served
	EvictPaths      uint64
	EarlyReshuffles uint64
	ExtendRatio     float64 // S extensions granted / attempted (DR and AB)
	StashPeak       int
	StashOverflows  uint64 // must stay 0; nonzero means misconfiguration
}

// ORAM is an oblivious block store. Not safe for concurrent use; wrap
// with a mutex for shared access (the underlying protocol is inherently
// serial — that is what makes it oblivious).
//
// With the data plane on, Access, Read, ReadXOR and Write each run inside
// one access scope of the integrity tree (secmem.Memory.Begin), so an
// access hashes each tree node it touches once. The deferred End closes
// the scope on every return path, integrity errors included.
type ORAM struct {
	inner *ringoram.ORAM
	mem   *secmem.Memory
	dq    *core.DeadQ
	xor   bool // Options.XORRead
}

// New builds an ORAM instance.
func New(opt Options) (*ORAM, error) {
	if opt.Scheme == "" {
		opt.Scheme = SchemeAB
	}
	if opt.Levels == 0 {
		opt.Levels = 16
	}
	cfg, dq, err := core.Build(opt.Scheme, core.DefaultOptions(opt.Levels, opt.Seed))
	if err != nil {
		return nil, err
	}
	cfg.XORRead = opt.XORRead
	o := &ORAM{dq: dq, xor: opt.XORRead}
	if opt.EncryptionKey != nil {
		mem, err := ringoram.NewDataPlane(cfg, opt.EncryptionKey)
		if err != nil {
			return nil, err
		}
		cfg.Data = mem
		o.mem = mem
	}
	inner, err := ringoram.New(cfg)
	if err != nil {
		return nil, err
	}
	o.inner = inner
	return o, nil
}

// NumBlocks returns the number of addressable user blocks.
func (o *ORAM) NumBlocks() int64 { return o.inner.Config().NumBlocks }

// BlockSize returns the block size in bytes.
func (o *ORAM) BlockSize() int { return o.inner.Config().BlockB }

// Encrypted reports whether the data plane is active.
func (o *ORAM) Encrypted() bool { return o.mem != nil }

// Access touches a block obliviously without transferring content; use it
// for pattern-only simulation or to prefetch obliviously.
func (o *ORAM) Access(block int64) error {
	if o.mem != nil {
		o.mem.Begin()
		defer o.mem.End()
	}
	_, err := o.inner.Access(block)
	return err
}

// Read obliviously fetches a block's content. Requires an EncryptionKey.
// Unwritten blocks read as zeros.
func (o *ORAM) Read(block int64) ([]byte, error) {
	if o.mem == nil {
		return nil, fmt.Errorf("aboram: Read requires Options.EncryptionKey")
	}
	o.mem.Begin()
	defer o.mem.End()
	data, _, err := o.inner.ReadBlock(block)
	return data, err
}

// XORResult is one read served through the online-transfer surface: the
// verified plaintext plus a model of what actually crossed the memory bus,
// which the serving layer re-ships to remote clients.
type XORResult struct {
	// Data is the block's verified plaintext.
	Data []byte
	// Env is the XOR envelope — one combined block plus pad descriptors —
	// set when Options.XORRead is on and the read hit an off-chip slot.
	// Remote clients peel it with secmem.PeelPayload.
	Env *secmem.XORRead
	// PathBlocks models the baseline online transfer when XORRead is off:
	// one block per off-chip bucket of the ReadPath, with the real block's
	// position carrying the verified plaintext (the others are filler the
	// client discards). RealPos indexes the real block; -1 with nil
	// PathBlocks means the read was served from the stash or the on-chip
	// treetop and only the plaintext travels.
	PathBlocks [][]byte
	RealPos    int
}

// ReadXOR is Read plus the online-transfer envelope: what a remote client
// would receive over the wire. With Options.XORRead the envelope is the
// single combined XOR block; without it, the full per-bucket path transfer.
// Requires an EncryptionKey.
func (o *ORAM) ReadXOR(block int64) (*XORResult, error) {
	if o.mem == nil {
		return nil, fmt.Errorf("aboram: ReadXOR requires Options.EncryptionKey")
	}
	o.mem.Begin()
	defer o.mem.End()
	data, _, err := o.inner.ReadBlock(block)
	if err != nil {
		return nil, err
	}
	res := &XORResult{Data: data, RealPos: -1}
	on := o.inner.LastOnline()
	if on.Env != nil {
		res.Env = on.Env
		return res, nil
	}
	if o.xor || on.Real < 0 {
		// XOR mode with a stash/on-chip hit, or no off-chip real read:
		// only the plaintext travels.
		return res, nil
	}
	// XOR disabled: model the baseline (L+1)·B online transfer. Dummy
	// positions ship the current stored bytes as filler; the real position
	// ships the verified plaintext (maintenance may already have rewritten
	// its slot, so the stored ciphertext is not authoritative).
	blockB := uint64(o.BlockSize())
	res.PathBlocks = make([][]byte, len(on.Blocks))
	for i, addr := range on.Blocks {
		if i == on.Real {
			res.PathBlocks[i] = data
			continue
		}
		res.PathBlocks[i] = o.mem.Ciphertext(int64(addr / blockB))
	}
	res.RealPos = on.Real
	return res, nil
}

// Write obliviously stores a block's content (exactly BlockSize bytes).
// Requires an EncryptionKey.
func (o *ORAM) Write(block int64, data []byte) error {
	if o.mem == nil {
		return fmt.Errorf("aboram: Write requires Options.EncryptionKey")
	}
	o.mem.Begin()
	defer o.mem.End()
	_, err := o.inner.WriteBlock(block, data)
	return err
}

// SpaceBytes returns the backing tree size — the metric AB-ORAM reduces.
func (o *ORAM) SpaceBytes() uint64 { return o.inner.SpaceBytes() }

// Utilization returns protected data bytes / tree bytes.
func (o *ORAM) Utilization() float64 { return o.inner.Utilization() }

// Stats returns activity counters.
func (o *ORAM) Stats() Stats {
	st := o.inner.Stats()
	ratio := 0.0
	if st.ExtendAttempts > 0 {
		ratio = float64(st.ExtendGranted) / float64(st.ExtendAttempts)
	}
	return Stats{
		Accesses:        st.OnlineAccesses,
		EvictPaths:      st.EvictPaths,
		EarlyReshuffles: st.EarlyReshuffles,
		ExtendRatio:     ratio,
		StashPeak:       o.inner.Stash().Peak(),
		StashOverflows:  o.inner.Stash().Overflows(),
	}
}

// CheckIntegrity validates the complete internal state (every block
// reachable exactly once, all metadata consistent). O(tree size); meant
// for tests and audits, not hot paths.
func (o *ORAM) CheckIntegrity() error { return o.inner.CheckInvariants() }
